"""The fabric sweep driver: start workers, survive their deaths, merge.

:func:`run_fabric_sweep` is the parallel counterpart of
:meth:`~repro.runner.supervisor.SweepSupervisor.run` (``repro sweep
--jobs N``).  It materializes the grid as a
:class:`~repro.fabric.queue.WorkQueue` directory and starts up to ``N``
work-stealing :class:`~repro.fabric.worker.Worker` processes against
it — forked from this process where that is safe (milliseconds: the
interpreter and ``repro`` are already loaded), spawned afresh where it
is not (:func:`_start_method`).  The parent then only *supervises*:

* **reap + respawn** — a worker that exits non-zero (or is SIGKILLed)
  gets a crash dump under ``<queue>/crashes/worker-<idx>.json`` and a
  replacement process (within a respawn budget); its half-finished cell
  is recovered by whichever peer steals the expired lease.
* **merge** — completed-cell records stream into the standard sweep
  checkpoint via the existing :class:`SweepSupervisor` writer, so a
  fabric checkpoint is indistinguishable from a serial one (plus an
  additive ``meta.fabric`` audit block: lease counters, quarantined
  cells, worker deaths).
* **drain** — SIGTERM/SIGINT forwards a drain request to every worker
  (finish the in-flight cell, then exit), finalizes the checkpoint,
  and re-raises ``KeyboardInterrupt`` so callers see a normal
  interruption with no work lost.

Because every cell runs from its own base seed regardless of which
worker (or how many workers, or after how many crashes) executes it,
the merged grid is **bit-identical** to a single-process run — the
chaos suite in ``tests/fabric/test_chaos.py`` enforces exactly that
while SIGKILLing a third of the fleet.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
import time
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Union)

from repro.errors import ConfigurationError, FabricError
from repro.fabric import records
from repro.fabric.queue import (
    WorkQueue,
    cell_digest,
    check_lease_options,
    validate_plain_params,
)
from repro.fabric.worker import (
    DRAIN_SIGNALS,
    resolve_fn,
    spawned_worker_entry,
)
from repro.runner.supervisor import SweepSupervisor, TrialOutcome, cell_key

__all__ = ["fn_reference", "run_fabric_sweep"]

#: Longest a supervisor poll round (reap, merge, drain check) waits for
#: a worker to exit before it looks at the queue again.
_POLL_SECONDS = 0.05


def _start_method() -> str:
    """How the next worker process is started: ``fork`` or ``spawn``.

    A fork costs milliseconds where a spawn costs a fresh interpreter
    plus ``import repro`` (two workers: 5-8 ms against 0.16-0.37 s,
    DESIGN.md section 8), but it copies only the calling thread: a lock
    some other thread holds at that instant stays locked in the child
    for ever.  So fork only where it is the platform's own default
    (Linux) and this thread is the process's only one;
    :func:`~repro.fabric.worker.spawned_worker_entry` resets what the
    copy inherits.
    """
    if sys.platform == "linux" and threading.active_count() == 1:
        return "fork"
    return "spawn"


def fn_reference(fn: Union[str, Callable[..., Any]]) -> str:
    """The ``module:qualname`` ref a detached worker can re-import.

    Accepts a ready-made ref string (verified resolvable) or a callable
    (verified to round-trip to itself).  ``__main__`` functions are
    rejected — a spawned or detached worker re-imports from scratch and
    has a different ``__main__``.
    """
    if isinstance(fn, str):
        resolve_fn(fn)
        return fn
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise ConfigurationError(
            f"fabric trial function must be a module-level def, "
            f"got {fn!r}")
    if module == "__main__":
        raise ConfigurationError(
            "fabric trial function lives in __main__, which spawned and "
            "detached workers cannot re-import; move it into an "
            "importable module")
    ref = f"{module}:{qualname}"
    if resolve_fn(ref) is not fn:
        raise ConfigurationError(
            f"trial-function reference {ref!r} does not resolve back to "
            f"{fn!r}; pass a plain module-level function")
    return ref


def _worker_crash_dump(queue: WorkQueue, index: int, exitcode: Optional[int],
                       pid: Optional[int]) -> None:
    """Record a reaped worker death under ``crashes/`` (audit artifact)."""
    path = os.path.join(queue.root, "crashes", f"worker-{index}.json")
    records.write_record(path, {
        "kind": "worker_death",
        "worker_index": index,
        "pid": pid,
        "exitcode": exitcode,
        "signal": -exitcode if (exitcode or 0) < 0 else None,
    })
    queue.log_event("worker_death", worker_index=index, exitcode=exitcode)


class _Fleet:
    """The set of live worker processes, with reaping and respawn."""

    def __init__(self, queue_root: str, workers: int,
                 respawn_budget: Optional[int]):
        self._queue_root = queue_root
        self._procs: Dict[int, Any] = {}
        self._next_index = 0
        self.deaths: List[Dict[str, Any]] = []
        self.respawns = 0
        self.drain_signalled = False
        self._respawn_budget = (2 * workers if respawn_budget is None
                                else respawn_budget)
        for _ in range(workers):
            self._spawn()

    def _spawn(self) -> None:
        index = self._next_index
        self._next_index += 1
        proc = multiprocessing.get_context(_start_method()).Process(
            target=spawned_worker_entry,
            args=(self._queue_root, index),
            name=f"repro-fabric-worker-{index}",
            daemon=False)
        # The worker is born with its drain signals held and releases
        # them once its own handlers exist.  A forked child starts with
        # *our* handlers, which would swallow a drain signal sent in
        # its first millisecond; this way it stays pending instead.
        held = signal.pthread_sigmask(signal.SIG_BLOCK, DRAIN_SIGNALS)
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        self._procs[index] = proc

    def wait(self, timeout: float) -> None:
        """Sleep until a worker exits, at most ``timeout`` seconds."""
        multiprocessing.connection.wait(
            [proc.sentinel for proc in self._procs.values()], timeout)

    def reap(self, queue: WorkQueue, respawn: bool = True) -> None:
        """Collect dead workers; dump + respawn the abnormally dead."""
        for index, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            proc.join()
            del self._procs[index]
            if proc.exitcode == 0:
                continue  # clean drain/exit
            if self.drain_signalled and proc.exitcode == -signal.SIGTERM:
                # Our own drain signal caught the worker before it
                # installed its graceful handler (e.g. still importing).
                # That is a shutdown artifact, not a crash.
                continue
            self.deaths.append({"worker_index": index,
                                "exitcode": proc.exitcode})
            _worker_crash_dump(queue, index, proc.exitcode, proc.pid)
            if respawn and self.respawns < self._respawn_budget:
                self.respawns += 1
                self._spawn()

    @property
    def alive(self) -> int:
        return sum(1 for proc in self._procs.values() if proc.is_alive())

    def signal_drain(self) -> None:
        self.drain_signalled = True
        for proc in self._procs.values():
            if proc.is_alive() and proc.pid:
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except OSError:
                    pass

    def join_all(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))

    def terminate_all(self) -> None:
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)


def _merge_new_completions(queue: WorkQueue, supervisor: SweepSupervisor,
                           params_by_digest: Dict[str, Dict[str, Any]],
                           merged: set) -> None:
    """Fold newly-completed queue records into the checkpoint.

    Only cells not merged yet are looked up, so each completed record
    is read once however many polls the sweep takes, and the checkpoint
    is rewritten once for everything this poll found: the records
    themselves are already durable.
    """
    found = False
    for digest, params in params_by_digest.items():
        if digest in merged:
            continue
        record = queue.completed_record(digest)
        if record is None:
            continue
        supervisor._merge_cell(
            record["key"], params, record["result"],
            record.get("attempts", 1),
            record.get("elapsed_seconds", 0.0))
        merged.add(digest)
        found = True
    if found:
        supervisor._write_checkpoint()


def _fabric_audit(queue: WorkQueue, fleet: Optional[_Fleet],
                  workers: int) -> Dict[str, Any]:
    """The ``meta.fabric`` block embedded in the merged checkpoint."""
    quarantined = []
    for digest, entry in sorted(queue.quarantined().items()):
        quarantined.append({
            "digest": digest,
            "key": entry.get("key"),
            "failure_count": entry.get("failure_count"),
            "last_error": entry.get("last_error"),
        })
    counters = queue.tally()
    return {
        "queue": queue.root,
        "workers": workers,
        "respawns": fleet.respawns if fleet is not None else 0,
        "worker_deaths": list(fleet.deaths) if fleet is not None else [],
        "counters": counters,
        "quarantined": quarantined,
    }


def _publish_obs_counters(counters: Dict[str, int]) -> None:
    """Mirror fabric counters into the live obs registry (if enabled)."""
    from repro.obs import runtime as _obs
    reg = _obs.registry()
    if reg is None:
        return
    for name, value in counters.items():
        if value:
            reg.counter(name).inc(value)


def run_fabric_sweep(
    fn: Union[str, Callable[..., Any]],
    grid: Iterable[Dict[str, Any]],
    queue_dir: str,
    workers: int = 2,
    checkpoint_path: Optional[str] = None,
    resume: bool = True,
    lease_seconds: float = 10.0,
    max_lease_failures: int = 3,
    max_retries: int = 2,
    max_events: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
    respawn_budget: Optional[int] = None,
    timeout: Optional[float] = None,
    on_cell: Optional[Callable[[TrialOutcome], None]] = None,
) -> List[TrialOutcome]:
    """Run ``grid`` across ``workers`` crash-tolerant worker processes.

    Returns outcomes in grid order, exactly like
    :meth:`SweepSupervisor.run`; a cell listed twice runs once and
    fills both rows.  A cell whose retries are spent comes back as the
    failed outcome the serial path would report, and one quarantined
    for its failed leases as a failed outcome naming them — present,
    never silently dropped.  At most one worker per unresolved cell is
    started.

    Parameters beyond the :class:`SweepSupervisor` set:

    queue_dir:
        The shared work-queue directory.  Detached ``repro worker``
        processes may attach to it while this call runs — the fleet
        spawned here and any volunteers steal from the same queue.
        ``resume=False`` discards what a previous sweep left in it,
        as it discards the checkpoint.
    lease_seconds / max_lease_failures:
        Lease expiry horizon and the per-cell failed-lease budget
        before poison quarantine.
    respawn_budget:
        Abnormally-dead workers replaced before the fleet is allowed
        to shrink (default ``2 * workers``).
    timeout:
        Optional wall bound on the whole sweep; on expiry the fleet is
        terminated and :class:`FabricError` raised (the checkpoint
        keeps everything merged so far).
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    check_lease_options(lease_seconds, max_lease_failures)
    grid = [dict(params) for params in grid]
    for params in grid:
        validate_plain_params(params)
    ref = fn_reference(fn)

    supervisor = SweepSupervisor(
        resolve_fn(ref), checkpoint_path=checkpoint_path, resume=resume,
        max_retries=max_retries, max_events=max_events,
        max_wall_seconds=max_wall_seconds, on_corrupt="quarantine")

    cells: Dict[str, Dict[str, Any]] = {}
    params_by_digest: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []  # grid order, as keys
    for params in grid:
        key = cell_key(params)
        order.append(key)
        cells[key] = params
        params_by_digest[cell_digest(key)] = params

    if not resume:
        WorkQueue.discard(queue_dir)
    queue = WorkQueue.create(queue_dir, cells, fn_ref=ref, options={
        "lease_seconds": lease_seconds,
        "max_lease_failures": max_lease_failures,
        "max_retries": max_retries,
        "max_events": max_events,
        "max_wall_seconds": max_wall_seconds,
    })

    # Cells the checkpoint already holds become pre-completed queue
    # records, so workers never re-run them.
    resumed: set = set()
    for key, cached in list(supervisor._cells.items()):
        digest = cell_digest(key)
        if digest not in params_by_digest:
            continue
        resumed.add(digest)
        queue.seed_completed(key, {
            "key": key,
            "params": cached.get("params"),
            "result": cached.get("result"),
            "attempts": cached.get("attempts", 1),
            "elapsed_seconds": cached.get("elapsed_seconds", 0.0),
            "seeded": True,
        })

    merged: set = set(resumed)
    drain = {"requested": False}
    previous_handlers = {}

    def _request_drain(signum: int, frame: Any) -> None:
        drain["requested"] = True

    for signum in DRAIN_SIGNALS:
        try:
            previous_handlers[signum] = signal.signal(signum, _request_drain)
        except (ValueError, OSError):
            pass

    def _unresolved() -> Iterator[str]:
        return (digest for digest in params_by_digest
                if digest not in merged
                and not os.path.exists(queue._quarantine_path(digest)))

    # A fully-resumed (or fully-quarantined) grid needs no workers at
    # all — spawning a fleet just to drain it would record the shutdown
    # SIGTERMs as phantom worker deaths in the audit trail — and no
    # grid needs more workers than it has cells left to run.
    workers = min(workers, sum(1 for _ in _unresolved()))
    fleet = _Fleet(queue.root, workers, respawn_budget) if workers else None
    deadline = (time.monotonic() + timeout) if timeout else None
    interrupted = False
    try:
        while fleet is not None:
            fleet.reap(queue)
            _merge_new_completions(queue, supervisor,
                                   params_by_digest, merged)
            if drain["requested"]:
                interrupted = True
                fleet.signal_drain()
                fleet.join_all(timeout=max(lease_seconds, 5.0))
                fleet.reap(queue, respawn=False)
                fleet.terminate_all()
                _merge_new_completions(queue, supervisor,
                                       params_by_digest, merged)
                break
            if not any(_unresolved()):
                fleet.signal_drain()
                fleet.join_all(timeout=max(lease_seconds, 5.0))
                fleet.reap(queue, respawn=False)
                fleet.terminate_all()
                break
            if fleet.alive == 0:
                # Fleet exhausted (respawn budget burned) with work left:
                # finish the remainder inline rather than deadlocking.
                if not queue.drained():
                    _drain_inline(queue, supervisor, resolve_fn(ref))
                _merge_new_completions(queue, supervisor,
                                       params_by_digest, merged)
                break
            if deadline is not None and time.monotonic() > deadline:
                fleet.terminate_all()
                raise FabricError(
                    f"fabric sweep exceeded its {timeout}s timeout with "
                    f"{len(cells) - len(merged)} cell(s) outstanding; "
                    f"completed work is checkpointed and resumable")
            fleet.wait(_POLL_SECONDS)
    except BaseException:
        if fleet is not None:
            fleet.terminate_all()
        raise
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    audit = _fabric_audit(queue, fleet, workers)
    _publish_obs_counters(audit["counters"])
    supervisor.set_fabric_meta(audit)
    supervisor._write_checkpoint()

    quarantined = queue.quarantined()
    outcomes: List[TrialOutcome] = []
    for key in order:
        digest = cell_digest(key)
        record = queue.completed_record(digest)
        params = cells[key]
        if record is not None:
            outcome = TrialOutcome(
                key=key, params=params, result=record.get("result"),
                attempts=record.get("attempts", 1),
                from_checkpoint=digest in resumed,
                elapsed_seconds=record.get("elapsed_seconds", 0.0))
        elif digest in quarantined:
            entry = quarantined[digest]
            # Retries spent: the failed outcome the serial path reports.
            attempts, error = entry.get("attempts"), entry.get("last_error")
            if attempts is None:  # leases lost without a verdict
                attempts = entry.get("failure_count", 0)
                error = f"quarantined after {attempts} failed lease(s): {error}"
            outcome = TrialOutcome(key=key, params=params,
                                   attempts=attempts, error=error)
        else:
            outcome = TrialOutcome(
                key=key, params=params,
                error=("sweep interrupted before this cell completed"
                       if interrupted else
                       "cell neither completed nor quarantined "
                       "(queue inconsistency)"))
        outcomes.append(outcome)
        if on_cell is not None:
            on_cell(outcome)

    if interrupted:
        raise KeyboardInterrupt(
            f"fabric sweep drained on signal: {len(merged)}/{len(cells)} "
            f"cell(s) checkpointed at {checkpoint_path or queue.root}")
    return outcomes


def _drain_inline(queue: WorkQueue, supervisor: SweepSupervisor,
                  fn: Callable[..., Any]) -> None:
    """Last-resort serial drain when the whole fleet burned out.

    Runs the remaining cells in-process through a Worker loop so the
    sweep still completes (the acceptance bar is 'never lose work', not
    'never degrade').
    """
    from repro.fabric.worker import Worker
    worker = Worker(queue, fn=fn, name="inline-drain")
    worker.run()
