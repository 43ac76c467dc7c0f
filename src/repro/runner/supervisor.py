"""Checkpointed, watchdogged, retrying sweep execution.

:class:`SweepSupervisor` wraps an experiment callable (typically
:func:`~repro.experiments.common.run_long_flow_experiment` or
:func:`~repro.experiments.common.run_short_flow_experiment`) and runs a
grid of parameter cells with three protections:

* **Budgets** — ``max_events`` / ``max_wall_seconds`` are forwarded to
  the trial function (when it accepts them), so a hung cell dies with
  :class:`~repro.errors.SimulationStalledError` instead of wedging the
  sweep.
* **Retry with reseed** — transient failures (stalls, invariant
  violations) are retried up to ``max_retries`` times with a derived
  seed, so one pathological seed does not kill a 64-cell table.
* **Checkpointing** — each completed cell is appended to a JSON file
  (written atomically); a restarted sweep with the same checkpoint path
  skips finished cells and recomputes nothing.

Cells are keyed by their full parameter dict, so a checkpoint is
automatically invalidated for cells whose parameters change.  Keys are
*content-based*: non-JSON parameter values must expose ``to_dict()``
(or be dataclasses), so the same logical cell produces the same key in
every process — the property parallel resume depends on.

:meth:`SweepSupervisor.run` is the one lifecycle from a grid to
outcomes, checkpoint entries and resume decisions.  By default it runs
each cell in this process through :meth:`SweepSupervisor.run_cell`,
the reference path and the only one that accepts parameters a worker
process could not rebuild from JSON (``sizes=FlowSizeDistribution``).
With ``workers >= 1`` (``repro sweep --jobs N``) the same grid-order
loop adds a fleet (:mod:`repro.fabric.supervisor`): worker processes
lease the cells from a queue directory and run them through the same
:func:`_attempt_cell`, and the loop merges their records into the same
checkpoint, so a cell's result, attempts and checkpoint entry are the
same either way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    SimulationStalledError,
)
from repro.fabric.backoff import BackoffPolicy, backoff_stream
from repro.fabric.records import fsync_directory as _fsync_directory
from repro.sim.engine import check_wall_budget

__all__ = ["SweepSupervisor", "TrialOutcome", "cell_key",
           "accepted_params", "budgeted_call"]

#: Stride between derived retry seeds; large and odd so reseeded trials
#: never collide with neighbouring cells' base seeds.
RESEED_STRIDE = 104729

#: Exceptions treated as transient: worth retrying under a fresh seed.
TRANSIENT_ERRORS = (SimulationStalledError, InvariantViolation)


@dataclass
class TrialOutcome:
    """What happened to one sweep cell."""

    key: str
    params: Dict[str, Any]
    result: Any = None
    attempts: int = 0
    from_checkpoint: bool = False
    error: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def _default_serialize(result: Any) -> Any:
    """Dataclasses become dicts; everything else must already be JSON-able."""
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    return result


def _canonical_param(value: Any) -> Any:
    """Reduce one parameter value to a JSON-stable form.

    JSON-native values pass through; containers recurse; objects that
    expose ``to_dict()`` (or are dataclasses) are flattened to their
    content plus a type tag.  Anything else is rejected: its identity
    would otherwise degrade to ``repr`` — for a plain object that is a
    memory address, which never matches across processes or restarts.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _canonical_param(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_param(v) for v in value]
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        payload = to_dict()
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"{type(value).__name__}.to_dict() must return a dict, "
                f"got {type(payload).__name__}")
        return {"__type__": type(value).__name__,
                **{str(k): _canonical_param(v) for k, v in payload.items()}}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__type__": type(value).__name__,
                **{k: _canonical_param(v)
                   for k, v in dataclasses.asdict(value).items()}}
    raise ConfigurationError(
        f"sweep parameter of type {type(value).__name__} is not "
        f"JSON-serializable and has no to_dict(); its checkpoint key "
        f"would not be stable across processes: {value!r}")


def cell_key(params: Dict[str, Any]) -> str:
    """Stable, content-based identity of a cell.

    Raises :class:`~repro.errors.ConfigurationError` for parameter
    values whose identity cannot be made content-based (no ``to_dict``,
    not a dataclass, not JSON-native).
    """
    return json.dumps(_canonical_param(dict(params)), sort_keys=True)


def _checkpoint_default(value: Any) -> Any:
    """JSON fallback for *results* in the checkpoint.

    Results are not identity-bearing, so unknown objects degrade to a
    readable form instead of failing the write.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return repr(value)


@functools.cache
def _git_sha() -> Optional[str]:
    """HEAD of the repository this code runs from, or None outside git.

    Resolved once per process: every checkpoint write embeds it, and
    the code that is running is the code that was imported — a HEAD
    that moves mid-sweep must not relabel later cells.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def _attempt_cell(fn: Callable[..., Any], params: Dict[str, Any],
                  call: Dict[str, Any], max_retries: int,
                  backoff: Optional[BackoffPolicy] = None,
                  rng: Optional[Any] = None,
                  sleep: Callable[[float], None] = time.sleep,
                  ) -> Tuple[Any, int, Optional[str]]:
    """One cell's retry-with-reseed loop: ``(result, attempts, error)``.

    Shared by the serial path and the fabric workers, so neither
    executor can drift from the other's retry semantics.
    Transient failures (stalls, invariant violations) are retried under
    a derived seed; other :class:`~repro.errors.ReproError` s
    propagate — configuration mistakes never heal with a reseed.

    Retries are separated by ``backoff`` (bounded exponential delays,
    jittered by the seeded ``rng``) rather than fired back-to-back: a
    transient failure caused by contention — a loaded host, a shared
    queue directory — only clears if the retry waits it out.  The delay
    never affects the result (seeding is attempt-indexed, not
    time-based), so ``backoff=None`` in unit tests stays bit-identical.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(max_retries + 1):
        this_call = dict(call)
        if attempt:
            if backoff is not None:
                delay = backoff.delay(attempt - 1, rng)
                if delay > 0:
                    sleep(delay)
            if "seed" in this_call and isinstance(this_call["seed"], int):
                # Reseed: a transient failure is usually a pathological
                # draw; a derived seed gives an independent replicate.
                this_call["seed"] = params["seed"] + attempt * RESEED_STRIDE
        try:
            return fn(**this_call), attempt + 1, None
        except TRANSIENT_ERRORS as exc:
            last_error = exc
    return None, max_retries + 1, f"{type(last_error).__name__}: {last_error}"


def accepted_params(fn: Callable) -> Optional[set]:
    """Parameter names ``fn`` accepts, or None if it takes ``**kwargs``.

    Module-level so fabric workers — which resolve the trial function
    from a queue spec, with no :class:`SweepSupervisor` in the process —
    share the exact budget-injection rules of the serial path.
    """
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # builtins, C callables
        return None
    for param in sig.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return None
    return set(sig.parameters)


def budgeted_call(params: Dict[str, Any], accepted: Optional[set],
                  max_events: Optional[int],
                  max_wall_seconds: Optional[float]) -> Dict[str, Any]:
    """Inject watchdog budgets into a call dict where ``fn`` accepts them."""
    call = dict(params)
    for name, value in (("max_events", max_events),
                        ("max_wall_seconds", max_wall_seconds)):
        if value is not None and name not in call:
            if accepted is None or name in accepted:
                call[name] = value
    return call


class SweepSupervisor:
    """Run a grid of experiment cells with budgets, retries, checkpoints.

    Parameters
    ----------
    fn:
        The trial callable; invoked as ``fn(**params)``.
    checkpoint_path:
        JSON checkpoint file, or ``None`` to disable persistence.
    resume:
        Load previously-completed cells from the checkpoint (default
        True).  With ``resume=False`` any existing checkpoint file (and
        the queue state in ``queue_dir``) is deleted up front, so a
        crash before the first new cell completes can never leave stale
        cells for a later ``resume=True`` to silently load.
    max_retries:
        Retries after the first attempt of a transiently-failing cell.
    max_events, max_wall_seconds:
        Per-trial watchdog budgets, injected into ``params`` whenever
        ``fn`` accepts parameters of those names.
    serialize:
        Converts a result to a JSON-serializable object (default:
        ``dataclasses.asdict`` for dataclasses, identity otherwise).
    deserialize:
        Rehydrates a checkpointed result dict (default: identity, i.e.
        resumed cells yield plain dicts).
    retry_backoff:
        :class:`~repro.fabric.backoff.BackoffPolicy` separating the
        retry-with-reseed attempts of a transiently-failing cell
        (default: the standard bounded-exponential policy).  ``None``
        restores back-to-back retries (unit tests).  Jitter draws from
        a per-cell seeded stream, never the process-global RNG.
    workers:
        0 (default) runs every cell in this process.  ``N >= 1`` adds a
        fleet of N worker processes to :meth:`run` (``fn`` module-level,
        grid JSON-native), and an unreadable checkpoint is then moved
        aside to ``<path>.corrupt`` for the queue's records to rebuild
        instead of raising.
    queue_dir:
        The work-queue directory the fleet (and any detached ``repro
        worker``) leases cells from; required with ``workers``.
    lease_seconds, max_lease_failures:
        Lease expiry horizon and the per-cell failed-lease budget
        before poison quarantine.
    timeout:
        Optional wall bound on waiting for the fleet; on expiry it is
        terminated and :class:`~repro.errors.FabricError` raised.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        checkpoint_path: Optional[str] = None,
        resume: bool = True,
        max_retries: int = 2,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
        serialize: Callable[[Any], Any] = _default_serialize,
        deserialize: Optional[Callable[[Any], Any]] = None,
        retry_backoff: Optional[BackoffPolicy] = BackoffPolicy(),
        workers: int = 0,
        queue_dir: Optional[str] = None,
        lease_seconds: float = 10.0,
        max_lease_failures: int = 3,
        timeout: Optional[float] = None,
    ):
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        # Refused before the checkpoint is read or discarded.
        check_wall_budget(max_wall_seconds)
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if workers:
            from repro.fabric.queue import WorkQueue, check_lease_options
            from repro.fabric.supervisor import fn_reference
            check_lease_options(lease_seconds, max_lease_failures)
            if not queue_dir:
                raise ConfigurationError("workers >= 1 needs a queue_dir")
            self.fn_ref = fn_reference(fn)
        self.fn = fn
        self.checkpoint_path = checkpoint_path
        self.max_retries = max_retries
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds
        self.serialize = serialize
        self.deserialize = deserialize
        self.retry_backoff = retry_backoff
        self.workers = workers
        self.queue_dir = queue_dir
        self.lease_seconds = lease_seconds
        self.max_lease_failures = max_lease_failures
        self.timeout = timeout
        self._accepted = accepted_params(fn)
        #: ``meta.fabric`` of the next checkpoint write (set by the fleet).
        self._fabric_meta: Optional[Dict[str, Any]] = None
        self._cells: Dict[str, Dict[str, Any]] = {}
        if checkpoint_path:
            directory = os.path.dirname(os.path.abspath(checkpoint_path))
            if not os.path.isdir(directory):
                # Found now, not by the first cell's checkpoint write,
                # which would lose that cell's work to a traceback.
                raise ConfigurationError(
                    f"checkpoint directory {directory!r} does not exist "
                    f"(for checkpoint {checkpoint_path!r})")
            if resume:
                self._cells = self._load_checkpoint(
                    checkpoint_path, quarantine=bool(workers))
            elif os.path.exists(checkpoint_path):
                # Discard immediately: leaving the old file on disk
                # until the first new cell completes would let a crash
                # in between resurrect stale cells on the next resume.
                try:
                    os.unlink(checkpoint_path)
                except OSError as exc:
                    raise ConfigurationError(
                        f"cannot discard checkpoint {checkpoint_path!r}: "
                        f"{exc}") from exc
        if workers and not resume:
            WorkQueue.discard(queue_dir)

    # ------------------------------------------------------------------
    # Checkpoint I/O
    # ------------------------------------------------------------------
    @staticmethod
    def _load_checkpoint(path: str, quarantine: bool = False,
                         ) -> Dict[str, Dict[str, Any]]:
        if not os.path.exists(path):
            return {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ConfigurationError(
                    f"unreadable checkpoint {path!r}: not a JSON object")
            if payload.get("version") != 1:
                raise ConfigurationError(
                    f"checkpoint {path!r} has unsupported version "
                    f"{payload.get('version')!r}")
            cells = payload.get("cells", {})
            if not isinstance(cells, dict):
                raise ConfigurationError(
                    f"unreadable checkpoint {path!r}: 'cells' is not a "
                    f"JSON object")
        except (OSError, ValueError, ConfigurationError) as exc:
            if quarantine:
                # Fleet recovery: park the damaged file (evidence for
                # the postmortem) and resume from nothing — completed
                # cells still exist as queue records and merge back in.
                try:
                    os.replace(path, path + ".corrupt")
                except OSError:
                    pass
                return {}
            if isinstance(exc, ConfigurationError):
                raise
            raise ConfigurationError(
                f"unreadable checkpoint {path!r}: {exc}") from exc
        return dict(cells)

    def _checkpoint_meta(self) -> Dict[str, Any]:
        """Audit metadata embedded in every checkpoint write.

        Records which code (git SHA) and which supervisor configuration
        (content hash) produced the cells, plus the current
        observability snapshot when ``repro.obs`` is enabled.  The field
        is additive: version stays 1 and :meth:`_load_checkpoint`
        ignores it, so checkpoints remain loadable in both directions.
        """
        from repro.obs import runtime as _obs
        spec = {
            "fn": f"{getattr(self.fn, '__module__', '?')}."
                  f"{getattr(self.fn, '__qualname__', repr(self.fn))}",
            "max_retries": self.max_retries,
            "max_events": self.max_events,
            "max_wall_seconds": self.max_wall_seconds,
        }
        config_hash = hashlib.sha256(
            json.dumps(spec, sort_keys=True).encode("utf-8")).hexdigest()[:16]
        meta = {
            "git_sha": _git_sha(),
            "config_hash": config_hash,
            "supervisor": spec,
            "metrics": _obs.snapshot(),
            "written_at": time.time(),
            "written_cells": len(self._cells),
        }
        if self._fabric_meta is not None:
            # Distributed runs: fabric counters + quarantined cells ride
            # in the checkpoint so `repro obs report` can audit a sweep
            # from its artifact alone.  Additive — version stays 1.
            meta["fabric"] = self._fabric_meta
            if meta["metrics"] is None:
                # Fabric counters must survive even with repro.obs
                # disabled: synthesize the minimal snapshot shape.
                meta["metrics"] = {
                    "version": 1,
                    "counters": {},
                    "components": {},
                }
            counters = meta["metrics"].setdefault("counters", {})
            for name, value in self._fabric_meta.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        return meta

    def _write_checkpoint(self) -> None:
        if not self.checkpoint_path:
            return
        payload = {"version": 1, "meta": self._checkpoint_meta(),
                   "cells": self._cells}
        directory = os.path.dirname(os.path.abspath(self.checkpoint_path))
        # Atomic replace: a sweep killed mid-write never corrupts the
        # checkpoint it would later resume from.  fsync the temp file
        # *before* the rename and the directory *after*: rename-over is
        # only atomic for data already on disk — without the fsyncs a
        # power cut can leave the new name pointing at torn bytes, or
        # quietly undo the rename itself.
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # dumps, not dump: one pass of the C encoder instead of
                # the pure-Python chunk iterator; the bytes are the same.
                fh.write(json.dumps(payload, default=_checkpoint_default))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.checkpoint_path)
            _fsync_directory(directory)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _merge_cell(self, key: str, params: Dict[str, Any], result: Any,
                    attempts: int, elapsed_seconds: float) -> None:
        """Add one completed cell to the table the next write persists."""
        self._cells[key] = {
            "params": _canonical_param(dict(params)),
            "result": self.serialize(result),
            "attempts": attempts,
            "elapsed_seconds": elapsed_seconds,
        }

    def _merge_completed(self, queue: Any,
                         pending: Dict[str, Dict[str, Any]]) -> None:
        """Fold the fleet's newly-completed records into the checkpoint.

        ``pending`` maps the digest of each cell not merged yet to its
        params; merged cells leave it.  Only those cells are looked up,
        so each completed record is read once however many polls the
        sweep takes, and the checkpoint is rewritten once for everything
        this poll found: the records themselves are already durable.
        """
        found = False
        for digest, params in list(pending.items()):
            record = queue.completed_record(digest)
            if record is None:
                continue
            self._merge_cell(record["key"], params, record["result"],
                             record.get("attempts", 1),
                             record.get("elapsed_seconds", 0.0))
            del pending[digest]
            found = True
        if found:
            self._write_checkpoint()

    def _cached_outcome(self, key: str, params: Dict[str, Any],
                        cached: Dict[str, Any],
                        from_checkpoint: bool = True) -> TrialOutcome:
        """The outcome a checkpoint entry stands for.

        ``from_checkpoint=False`` is an entry a fleet worker computed
        during this run.
        """
        result = cached["result"]
        if self.deserialize is not None:
            result = self.deserialize(result)
        return TrialOutcome(
            key=key, params=params, result=result,
            attempts=cached.get("attempts", 1),
            from_checkpoint=from_checkpoint,
            elapsed_seconds=(0.0 if from_checkpoint
                             else cached.get("elapsed_seconds", 0.0)))

    @property
    def completed_cells(self) -> int:
        """Cells already present in the (loaded or accumulated) checkpoint."""
        return len(self._cells)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _budgeted(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return budgeted_call(params, self._accepted,
                             self.max_events, self.max_wall_seconds)

    def run_cell(self, **params: Any) -> TrialOutcome:
        """Run (or resume) one cell; checkpoint it on success."""
        key = cell_key(params)
        cached = self._cells.get(key)
        if cached is not None:
            return self._cached_outcome(key, params, cached)
        started = time.monotonic()
        rng = (backoff_stream(f"cell:{key}")
               if self.retry_backoff is not None else None)
        result, attempts, error = _attempt_cell(
            self.fn, params, self._budgeted(params), self.max_retries,
            backoff=self.retry_backoff, rng=rng)
        outcome = TrialOutcome(key=key, params=params, result=result,
                               attempts=attempts, error=error,
                               elapsed_seconds=time.monotonic() - started)
        if outcome.ok:
            self._merge_cell(key, params, outcome.result,
                             outcome.attempts, outcome.elapsed_seconds)
            self._write_checkpoint()
        return outcome

    def run(self, grid: Iterable[Dict[str, Any]],
            on_cell: Optional[Callable[[TrialOutcome], None]] = None,
            ) -> List[TrialOutcome]:
        """Run every cell in ``grid``; failed cells are reported, not fatal.

        Outcomes come back, and ``on_cell`` (progress reporting) sees
        each one, in grid order.  A cell the checkpoint holds is resumed;
        with ``workers >= 1`` the others' outcomes are the fleet's merged
        records or quarantine entries, and what the fleet leaves open
        runs here through :meth:`run_cell`.  A cell listed twice runs once.
        """
        grid = [dict(params) for params in grid]
        fleet_run: Any = contextlib.nullcontext()
        if self.workers:
            from repro.fabric.supervisor import FleetRun
            fleet_run = FleetRun(self, grid)
        outcomes = []
        with fleet_run as fleet:
            for params in grid:
                outcome = fleet.collect(params) if fleet else None
                if outcome is None:
                    outcome = self.run_cell(**params)
                if on_cell is not None:
                    on_cell(outcome)
                outcomes.append(outcome)
        return outcomes
