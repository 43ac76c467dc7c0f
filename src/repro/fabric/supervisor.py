"""The worker fleet :meth:`SweepSupervisor.run` adds with ``workers >= 1``.

``repro sweep --jobs N`` is :meth:`~repro.runner.supervisor.SweepSupervisor.run`
with a fleet: :class:`FleetRun` materializes the grid as a
:class:`~repro.fabric.queue.WorkQueue` directory and starts up to ``N``
work-stealing :class:`~repro.fabric.worker.Worker` processes against
it — forked from this process where that is safe (milliseconds: the
interpreter and ``repro`` are already loaded), spawned afresh where it
is not (:func:`_start_method`).  The supervisor's grid-order loop then
asks :meth:`FleetRun.collect` for each cell, which only *supervises*:

* **reap + respawn** — a worker that exits non-zero (or is SIGKILLed)
  gets a crash dump under ``<queue>/crashes/worker-<idx>.json`` and a
  replacement process (at most ``2 * workers`` of them); its
  half-finished cell is recovered by whichever peer steals the expired
  lease.  Once every worker is gone, the cells still open run in the
  supervisor's own process.
* **merge** — completed-cell records stream into the standard sweep
  checkpoint through the supervisor's writer, so a fleet checkpoint is
  indistinguishable from a serial one (plus an additive ``meta.fabric``
  audit block: lease counters, quarantined cells, worker deaths).
* **drain** — SIGTERM/SIGINT forwards a drain request to every worker
  (finish the in-flight cell, then exit), finalizes the checkpoint,
  and raises ``KeyboardInterrupt`` so callers see a normal
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
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import ConfigurationError, FabricError
from repro.fabric import records
from repro.fabric.queue import WorkQueue, cell_digest, validate_plain_params
from repro.fabric.worker import (
    DRAIN_SIGNALS,
    resolve_fn,
    spawned_worker_entry,
)
from repro.runner.supervisor import SweepSupervisor, TrialOutcome, cell_key

__all__ = ["FleetRun", "fn_reference"]

#: Longest a poll round (reap, merge, drain check) waits for a worker
#: to exit before it looks at the queue again.
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

    def __init__(self, queue_root: str, workers: int):
        self._queue_root = queue_root
        self._procs: Dict[int, Any] = {}
        self._next_index = 0
        self.deaths: List[Dict[str, Any]] = []
        self.respawns = 0
        self.drain_signalled = False
        #: Abnormally-dead workers replaced before the fleet may shrink.
        self._spares = 2 * workers
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
            if respawn and self.respawns < self._spares:
                self.respawns += 1
                self._spawn()

    @property
    def exhausted(self) -> bool:
        """No worker left to wait for or replace (not "none alive": one
        that died since the last :meth:`reap` may yet be replaced)."""
        return not self._procs

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


class FleetRun:
    """One :meth:`SweepSupervisor.run` with workers: queue, fleet, merge.

    Built from the grid, it creates (or attaches to) the queue and marks
    the cells the checkpoint already holds as done.  Entering starts the
    workers, at most one per cell left, under drain handlers; leaving
    stops them — terminates them after an error — and writes the
    checkpoint once more with its ``meta.fabric`` audit block.
    """

    def __init__(self, supervisor: SweepSupervisor,
                 grid: List[Dict[str, Any]]):
        for params in grid:
            validate_plain_params(params)
        self.supervisor = supervisor
        cells = {cell_key(params): params for params in grid}
        self.queue = WorkQueue.create(
            supervisor.queue_dir, cells, fn_ref=supervisor.fn_ref, options={
                "lease_seconds": supervisor.lease_seconds,
                "max_lease_failures": supervisor.max_lease_failures,
                "max_retries": supervisor.max_retries,
                "max_events": supervisor.max_events,
                "max_wall_seconds": supervisor.max_wall_seconds,
            })
        self.total = len(cells)
        #: digest -> params of every cell neither resumed nor merged yet.
        self.pending: Dict[str, Dict[str, Any]] = {}
        #: Cells the checkpoint held before the run: the supervisor
        #: resumes them itself.
        self.resumed = set()
        for key, params in cells.items():
            digest = cell_digest(key)
            cached = supervisor._cells.get(key)
            if cached is None:
                self.pending[digest] = params
                continue
            # A pre-completed queue record, so no worker re-runs it.
            self.resumed.add(digest)
            self.queue.seed_completed(key, {
                "key": key,
                "params": cached.get("params"),
                "result": cached.get("result"),
                "attempts": cached.get("attempts", 1),
                "elapsed_seconds": cached.get("elapsed_seconds", 0.0),
                "seeded": True,
            })
        self.workers = 0
        self.fleet: Optional[_Fleet] = None
        self.drain_requested = False
        self._deadline: Optional[float] = None
        self._previous_handlers: Dict[int, Any] = {}

    def _request_drain(self, signum: int, frame: Any) -> None:
        self.drain_requested = True

    def _restore_handlers(self) -> None:
        for signum, handler in self._previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    def __enter__(self) -> "FleetRun":
        for signum in DRAIN_SIGNALS:
            try:
                self._previous_handlers[signum] = signal.signal(
                    signum, self._request_drain)
            except (ValueError, OSError):
                pass
        # A fully-resumed (or fully-quarantined) grid needs no workers
        # at all — spawning a fleet just to drain it would record the
        # shutdown SIGTERMs as phantom worker deaths in the audit trail
        # — and no grid needs more workers than it has cells left.
        self.workers = min(self.supervisor.workers, sum(
            1 for digest in self.pending
            if not os.path.exists(self.queue._quarantine_path(digest))))
        try:
            if self.workers:
                self.fleet = _Fleet(self.queue.root, self.workers)
        except BaseException:
            self._restore_handlers()
            raise
        timeout = self.supervisor.timeout
        self._deadline = (time.monotonic() + timeout) if timeout else None
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            if self.fleet is not None:
                if exc_type is None:
                    self._stop()
                else:
                    self.fleet.terminate_all()
        finally:
            self._restore_handlers()
        self.supervisor._fabric_meta = self._audit()
        self.supervisor._write_checkpoint()

    def _audit(self) -> Dict[str, Any]:
        """The ``meta.fabric`` block; its counters also go to live obs."""
        from repro.obs import runtime as _obs
        counters = self.queue.tally()
        registry = _obs.registry()
        for name, value in counters.items():
            if registry is not None and value:
                registry.counter(name).inc(value)
        fleet = self.fleet
        return {
            "queue": self.queue.root,
            "workers": self.workers,
            "respawns": fleet.respawns if fleet is not None else 0,
            "worker_deaths": list(fleet.deaths) if fleet is not None else [],
            "counters": counters,
            "quarantined": [
                {"digest": digest, "key": entry.get("key"),
                 "failure_count": entry.get("failure_count"),
                 "last_error": entry.get("last_error")}
                for digest, entry in sorted(self.queue.quarantined().items())],
        }

    def _stop(self) -> None:
        """Drain the workers: in-flight cells finish, then they exit."""
        self.fleet.signal_drain()
        self.fleet.join_all(timeout=max(self.queue.lease_seconds, 5.0))
        self.fleet.reap(self.queue, respawn=False)
        self.fleet.terminate_all()

    def collect(self, params: Dict[str, Any]) -> Optional[TrialOutcome]:
        """The fleet's outcome for one cell, waiting for it if need be.

        None when the cell is the supervisor's own to run: resumed from
        the checkpoint, or still open once every worker is gone.
        """
        key = cell_key(params)
        digest = cell_digest(key)
        if digest in self.resumed:
            return None
        quarantine_path = self.queue._quarantine_path(digest)
        while digest in self.pending:
            entry = (self.queue.quarantined().get(digest)
                     if os.path.exists(quarantine_path) else None)
            if entry is not None:
                # Retries spent: the failed outcome the serial path reports.
                attempts, error = entry.get("attempts"), entry.get("last_error")
                if attempts is None:  # leases lost without a verdict
                    attempts = entry.get("failure_count", 0)
                    error = (f"quarantined after {attempts} failed "
                             f"lease(s): {error}")
                return TrialOutcome(key=key, params=params,
                                    attempts=attempts, error=error)
            if self.fleet is None or self.fleet.exhausted:
                return None  # what the fleet left open runs in-process
            self._poll(digest)
        return self.supervisor._cached_outcome(
            key, params, self.supervisor._cells[key], from_checkpoint=False)

    def _poll(self, digest: str) -> None:
        """One round: reap, merge, then wait for ``digest`` or a death."""
        fleet = self.fleet
        fleet.reap(self.queue)
        self.supervisor._merge_completed(self.queue, self.pending)
        if self.drain_requested:
            self._stop()
            self.supervisor._merge_completed(self.queue, self.pending)
            raise KeyboardInterrupt(
                f"fabric sweep drained on signal: "
                f"{self.total - len(self.pending)}/{self.total} cell(s) "
                f"checkpointed at "
                f"{self.supervisor.checkpoint_path or self.queue.root}")
        if digest not in self.pending or fleet.exhausted:
            return
        if self._deadline is not None and time.monotonic() > self._deadline:
            fleet.terminate_all()
            raise FabricError(
                f"fabric sweep exceeded its {self.supervisor.timeout}s "
                f"timeout with {len(self.pending)} cell(s) outstanding; "
                f"completed work is checkpointed and resumable")
        fleet.wait(_POLL_SECONDS)
