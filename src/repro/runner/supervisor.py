"""Checkpointed, watchdogged sweep execution.

:class:`SweepSupervisor` wraps an experiment callable (typically
:func:`~repro.experiments.common.run_long_flow_experiment` or
:func:`~repro.experiments.common.run_short_flow_experiment`) and runs a
grid of parameter cells with three protections:

* **Budgets** — ``max_events`` / ``max_wall_seconds`` are forwarded to
  the trial function (when it accepts them), so a hung cell dies with
  :class:`~repro.errors.SimulationStalledError` instead of wedging the
  sweep.
* **A failed cell is a finding** — a cell that stalls or breaks an
  invariant (:class:`~repro.errors.InvariantViolation`) runs once,
  under the seed it was asked for, and becomes a FAILED outcome that
  carries its error; the rest of the grid still runs.  It is never
  re-run under another seed, so every result a sweep reports was
  computed from the params it reports.  Every other exception raises.
* **Resume** — each completed cell is written once, durably, as a
  record in the sweep's record directory (:mod:`repro.fabric.queue`;
  ``<checkpoint>.queue`` by default).  The checkpoint JSON is a view of
  those records that :meth:`SweepSupervisor.run` writes once per run
  (atomically, also on an interrupt or a raising cell).  A restarted
  sweep resumes the view's cells plus every record, and recomputes
  nothing; a FAILED cell has no record, so it runs again.

Cells are keyed by their full parameter dict, so a stored result is
automatically invalidated for cells whose parameters change.  Keys are
*content-based*: non-JSON parameter values must expose ``to_dict()``
(or be dataclasses), so the same logical cell produces the same key in
every process — the property parallel resume depends on.

:meth:`SweepSupervisor.run` is the one lifecycle from a grid to
outcomes.  By default it runs each cell in this process through
:meth:`SweepSupervisor.run_cell`, the reference path and the only one
that accepts parameters a worker process could not rebuild from JSON
(``sizes=FlowSizeDistribution``).  With ``workers >= 1`` (``repro sweep
--jobs N``) the same grid-order loop adds a fleet
(:mod:`repro.fabric.supervisor`): worker processes take the cells one
at a time from the supervisor over pipes, run them through the same
:func:`_call_cell` and publish each result as the same record, so a
cell's result, FAILED outcome and checkpoint entry are the same either
way.
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
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    SimulationStalledError,
)
from repro.fabric.queue import WorkQueue, cell_digest, format_fn_ref
from repro.fabric.records import json_default, publish, quarantine_corrupt
from repro.sim.engine import check_wall_budget

__all__ = ["SweepSupervisor", "TrialOutcome", "cell_key",
           "accepted_params", "budgeted_call"]


@dataclass
class TrialOutcome:
    """What happened to one sweep cell, run under ``params`` (its seed
    included) whether it succeeded or FAILED (``error`` set)."""

    key: str
    params: Dict[str, Any]
    result: Any = None
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


def _cell_record(key: str, params: Dict[str, Any], result: Any,
                elapsed_seconds: float) -> Dict[str, Any]:
    """A finished cell as it is stored, whichever process ran it.

    The record both executors publish (``WorkQueue.complete``);
    :meth:`SweepSupervisor._adopt` reads the same fields back into the
    checkpoint view.  ``result`` is already serialized.
    """
    return {"key": key, "params": _canonical_param(dict(params)),
            "result": result, "elapsed_seconds": elapsed_seconds}


def _call_cell(fn: Callable[..., Any],
               call: Dict[str, Any]) -> Tuple[Any, Optional[str]]:
    """Run one cell once: ``(result, None)``, or ``(None, error)``.

    Shared by the serial path and the fleet workers, so neither
    executor can drift from the other.  A stall or an invariant
    violation is the cell's FAILED outcome, at the seed it was asked
    for: a deterministic cell does not heal under another seed, and a
    result from one would be reported under params that did not make
    it.  Every other exception propagates.
    """
    try:
        return fn(**call), None
    except (SimulationStalledError, InvariantViolation) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def accepted_params(fn: Callable) -> Optional[set]:
    """Parameter names ``fn`` accepts, or None if it takes ``**kwargs``.

    Module-level so fabric workers — which resolve the trial function
    from the record directory's spec, not from a :class:`SweepSupervisor` —
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
    """Run a grid of experiment cells with budgets and checkpoints.

    Parameters
    ----------
    fn:
        The trial callable; invoked as ``fn(**params)``.
    checkpoint_path:
        JSON checkpoint file (a view of the records, written once per
        :meth:`run`), or ``None`` to write none.
    resume:
        Resume the checkpoint's cells and the records (default True).
        With ``resume=False`` any existing checkpoint file and every
        record in ``queue_dir`` are deleted up front, so a crash before
        the first new cell completes can never leave stale cells for a
        later ``resume=True`` to silently load.
    max_events, max_wall_seconds:
        Per-trial watchdog budgets, injected into ``params`` whenever
        ``fn`` accepts parameters of those names.
    serialize:
        Converts a result to a JSON-serializable object (default:
        ``dataclasses.asdict`` for dataclasses, identity otherwise).
    deserialize:
        Rehydrates a stored result dict (default: identity, i.e.
        resumed cells yield plain dicts).
    workers:
        0 (default) runs every cell in this process.  ``N >= 1`` adds a
        fleet of N worker processes to :meth:`run` (``fn`` module-level,
        grid JSON-native).
    queue_dir:
        The record directory: every finished cell, whichever process
        ran it, is published there as one durable record (default
        ``<checkpoint_path>.queue``; none without a checkpoint, which
        ``workers`` then needs).
    timeout:
        Optional wall bound on waiting for the fleet; on expiry it is
        terminated and :class:`~repro.errors.FabricError` raised.

    An unreadable, non-object or wrong-version checkpoint is moved to
    ``<path>.corrupt`` (``parked``) and the run resumes from the records.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        checkpoint_path: Optional[str] = None,
        resume: bool = True,
        max_events: Optional[int] = None,
        max_wall_seconds: Optional[float] = None,
        serialize: Callable[[Any], Any] = _default_serialize,
        deserialize: Optional[Callable[[Any], Any]] = None,
        workers: int = 0,
        queue_dir: Optional[str] = None,
        timeout: Optional[float] = None,
    ):
        # Refused before the checkpoint is read or discarded.
        check_wall_budget(max_wall_seconds)
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        queue_dir = queue_dir or (checkpoint_path and checkpoint_path + ".queue")
        fn_ref = format_fn_ref(fn)
        if workers:
            from repro.fabric.supervisor import fn_reference
            if not queue_dir:
                raise ConfigurationError(
                    "workers >= 1 needs a queue_dir or a checkpoint_path")
            fn_reference(fn)  # refuses what a worker could not import
        self.fn = fn
        self.checkpoint_path = checkpoint_path
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds
        self.serialize = serialize
        self.deserialize = deserialize
        self.workers = workers
        self.queue_dir = queue_dir
        self.timeout = timeout
        self._accepted = accepted_params(fn)
        self._cells: Dict[str, Dict[str, Any]] = {}
        #: Where an unreadable checkpoint was moved, if one was.
        self.parked: Optional[str] = None
        if checkpoint_path:
            directory = os.path.dirname(os.path.abspath(checkpoint_path))
            if not os.path.isdir(directory):
                # Found now, not by the first cell's write, which would
                # lose that cell's work to a traceback.
                raise ConfigurationError(
                    f"checkpoint directory {directory!r} does not exist "
                    f"(for checkpoint {checkpoint_path!r})")
            if not resume and os.path.exists(checkpoint_path):
                # Discard immediately: leaving the old file on disk
                # until the run ends would let a crash in between
                # resurrect stale cells on the next resume.
                try:
                    os.unlink(checkpoint_path)
                except OSError as exc:
                    raise ConfigurationError(
                        f"cannot discard checkpoint {checkpoint_path!r}: "
                        f"{exc}") from exc
        self.queue: Optional[WorkQueue] = None
        if queue_dir:
            if not resume:
                WorkQueue.discard(queue_dir)
            self.queue = WorkQueue.create(queue_dir, fn_ref)
        if resume:
            self._resume()

    # ------------------------------------------------------------------
    # The store: records, and the checkpoint view of them
    # ------------------------------------------------------------------
    def _resume(self) -> None:
        """The one resume rule: the checkpoint's cells plus the records."""
        self._cells = self._load_checkpoint()
        if self.queue is not None:
            known = {cell_digest(key) for key in self._cells}
            for record in self.queue.completed_records(skip=known):
                self._adopt(record)

    def _load_checkpoint(self) -> Dict[str, Dict[str, Any]]:
        """The checkpoint's cells; an unreadable file is parked."""
        path = self.checkpoint_path
        if not path or not os.path.exists(path):
            return {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = None
        cells = (payload.get("cells", {}) if isinstance(payload, dict)
                 and payload.get("version") == 1 else None)
        if isinstance(cells, dict):
            return dict(cells)
        # Park the damaged file (evidence for the postmortem) and resume
        # from the records alone: every finished cell is one of them.
        self.parked = quarantine_corrupt(path)
        return {}

    def _checkpoint_meta(self, written_cells: int,
                         fabric: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Audit metadata embedded in the checkpoint.

        Records which code (git SHA) and which supervisor configuration
        (content hash) produced the cells, plus the current
        observability snapshot when ``repro.obs`` is enabled.  The field
        is additive: version stays 1 and :meth:`_load_checkpoint`
        ignores it, so checkpoints remain loadable in both directions.
        """
        from repro.obs import runtime as _obs
        spec = {
            "fn": format_fn_ref(self.fn),
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
            "written_cells": written_cells,
        }
        if fabric is not None:
            # Fleet runs: fabric counters + quarantined cells ride in
            # the checkpoint so `repro obs report` can audit a sweep
            # from its artifact alone.  Additive — version stays 1.
            meta["fabric"] = fabric
            if meta["metrics"] is None:
                # Fabric counters must survive even with repro.obs
                # disabled: synthesize the minimal snapshot shape.
                meta["metrics"] = {
                    "version": 1,
                    "counters": {},
                    "components": {},
                }
            counters = meta["metrics"].setdefault("counters", {})
            for name, value in fabric.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        return meta

    def _write_checkpoint(self, keys: List[str],
                          fabric: Optional[Dict[str, Any]] = None) -> None:
        """Write the view: the cells of ``keys`` in that order, then any
        other cell the store holds."""
        if not self.checkpoint_path:
            return
        cells = {key: self._cells[key] for key in keys if key in self._cells}
        cells.update(self._cells)
        payload = {"version": 1, "meta": self._checkpoint_meta(len(cells), fabric),
                   "cells": cells}
        # Plain JSON, published as a record is: a sweep killed
        # mid-write never tears the view.
        publish(self.checkpoint_path,
                json.dumps(payload, default=json_default).encode("utf-8"))

    def _adopt(self, record: Dict[str, Any]) -> None:
        """Add one cell's record (:func:`_cell_record`) to the cells the
        view lists: the view's entry is the record less its key."""
        entry = dict(record)
        self._cells[entry.pop("key")] = entry

    def _cached_outcome(self, key: str, params: Dict[str, Any],
                        cached: Dict[str, Any],
                        from_checkpoint: bool = True) -> TrialOutcome:
        """The outcome a stored cell stands for.

        ``from_checkpoint=False`` is a cell a fleet worker computed in
        this run.
        """
        result = cached["result"]
        if self.deserialize is not None:
            result = self.deserialize(result)
        return TrialOutcome(
            key=key, params=params, result=result,
            from_checkpoint=from_checkpoint,
            elapsed_seconds=(0.0 if from_checkpoint
                             else cached.get("elapsed_seconds", 0.0)))

    @property
    def completed_cells(self) -> int:
        """Cells the store holds: resumed, or completed in this process."""
        return len(self._cells)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _budgeted(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return budgeted_call(params, self._accepted,
                             self.max_events, self.max_wall_seconds)

    def run_cell(self, **params: Any) -> TrialOutcome:
        """Run (or resume) one cell; publish its record on success."""
        key = cell_key(params)
        cached = self._cells.get(key)
        if cached is not None:
            return self._cached_outcome(key, params, cached)
        started = time.monotonic()
        result, error = _call_cell(self.fn, self._budgeted(params))
        outcome = TrialOutcome(key=key, params=params, result=result,
                               error=error,
                               elapsed_seconds=time.monotonic() - started)
        if outcome.ok:
            record = _cell_record(key, params, self.serialize(result),
                                 outcome.elapsed_seconds)
            if self.queue is not None:
                self.queue.complete(cell_digest(key), record)
            self._adopt(record)
        return outcome

    def run(self, grid: Iterable[Dict[str, Any]],
            on_cell: Optional[Callable[[TrialOutcome], None]] = None,
            ) -> List[TrialOutcome]:
        """Run every cell in ``grid``; failed cells are reported, not fatal.

        Outcomes come back, and ``on_cell`` (progress reporting) sees
        each one, in grid order.  A cell the store holds is resumed;
        with ``workers >= 1`` the others' outcomes are the fleet's
        records, FAILED rows and raised exceptions, and what the fleet
        leaves open runs here through :meth:`run_cell`.  A cell listed
        twice runs once.  The checkpoint view is written once, when the
        loop ends, however it ends.
        """
        grid = [dict(params) for params in grid]
        fleet: Any = None
        if self.workers:
            from repro.fabric.supervisor import FleetRun
            fleet = FleetRun(self, grid)
        outcomes = []
        try:
            with fleet or contextlib.nullcontext():
                for params in grid:
                    outcome = fleet.collect(params) if fleet else None
                    if outcome is None:
                        outcome = self.run_cell(**params)
                    if on_cell is not None:
                        on_cell(outcome)
                    outcomes.append(outcome)
        finally:
            self._write_checkpoint([cell_key(params) for params in grid],
                                   fleet._audit() if fleet else None)
        return outcomes
