"""The worker fleet :meth:`SweepSupervisor.run` adds with ``workers >= 1``.

:class:`FleetRun` starts up to ``N`` worker processes
(:mod:`repro.fabric.worker`) over the sweep's record directory
(:class:`~repro.fabric.queue.WorkQueue`): forked from this process
where that is safe (milliseconds: the interpreter and ``repro`` are
already loaded), spawned afresh where it is not (:func:`_start_method`).
It is the only thing that assigns cells: each worker gets one cell at a
time over its own pipe, and the supervisor waits on the pipes and the
process sentinels together (``multiprocessing.connection.wait``).  The
grid-order loop asks :meth:`FleetRun.collect` for each cell:

* **merge** — a worker publishes its cell's record, then sends the
  digest; the supervisor reads the record once and adds it to the
  sweep's cells, exactly as a cell it ran itself.  The checkpoint view
  is written once, by :meth:`SweepSupervisor.run`, with an additive
  ``meta.fabric`` audit block (:meth:`FleetRun._audit`).
* **re-queue + respawn** — a worker that dies gets a crash dump
  (``<queue>/crashes/worker-<idx>.json``) and, ``2 * workers`` times at
  most, a replacement.  Its cell is merged if its record reached the
  disk, and goes back to the head of the queue otherwise; a cell whose
  worker died :data:`POISON_DEATHS` times is a FAILED outcome instead.
  Once every worker is gone, the open cells run in this process.
* **drain** — SIGTERM/SIGINT stops the handing out of cells, lets the
  cells in flight finish, and raises ``KeyboardInterrupt``.

A worker exits when its pipe reaches EOF, so none outlives the
supervisor, and a SIGKILLed supervisor loses no finished cell: the next
run resumes its records.  Every cell runs from its own base seed
whichever worker runs it, after however many crashes, so the merged
grid is **bit-identical** to a single-process run
(``tests/fabric/test_chaos_sweep.py``).
"""

from __future__ import annotations

import collections
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Union

from repro.errors import ConfigurationError, FabricError
from repro.fabric import records
from repro.fabric.queue import (cell_digest, format_fn_ref,
                                validate_plain_params)
from repro.fabric.worker import DRAIN_SIGNALS, resolve_fn, spawned_worker_entry
from repro.runner.supervisor import SweepSupervisor, TrialOutcome, cell_key

__all__ = ["FleetRun", "POISON_DEATHS", "fn_reference"]

#: A cell whose worker died this many times is a FAILED outcome, not
#: handed out again.
POISON_DEATHS = 3

#: How long a drain (or the end of a sweep) waits for the workers.
_DRAIN_SECONDS = 10.0


def _start_method() -> str:
    """How the next worker process is started: ``fork`` or ``spawn``.

    A fork costs milliseconds where a spawn costs a fresh interpreter
    (DESIGN.md section 8), but it copies only the calling thread: a lock
    another thread holds at that instant stays locked in the child for
    ever.  So fork only on Linux, from a single-threaded process.
    """
    if sys.platform == "linux" and threading.active_count() == 1:
        return "fork"
    return "spawn"


def fn_reference(fn: Union[str, Callable[..., Any]]) -> str:
    """The ``module:qualname`` ref a spawned worker can re-import.

    Accepts a ready-made ref string (verified resolvable) or a callable
    (verified to round-trip to itself).  ``__main__`` functions are
    rejected even where the workers would be forked, so fork and spawn
    accept the same functions.
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
            "fabric trial function lives in __main__, which spawned "
            "workers cannot re-import; move it into an importable module")
    ref = format_fn_ref(fn)
    if resolve_fn(ref) is not fn:
        raise ConfigurationError(
            f"trial-function reference {ref!r} does not resolve back to "
            f"{fn!r}; pass a plain module-level function")
    return ref


@dataclass
class _Worker:
    """One live worker process, as the supervisor sees it."""

    index: int
    proc: Any
    conn: Any
    #: Digest of the cell it runs, None while it waits for one.
    cell: Optional[str] = None
    #: False until it has said it is ready for a first cell.
    ready: bool = False


class FleetRun:
    """One :meth:`SweepSupervisor.run` with workers: fleet and merge.

    Built from the grid, it queues the cells the supervisor has not
    resumed, in grid order.  Entering starts the workers, at most one
    per open cell, under drain handlers; leaving stops them — kills them
    after an error.
    """

    def __init__(self, supervisor: SweepSupervisor,
                 grid: List[Dict[str, Any]]):
        self.supervisor = supervisor
        self.queue = supervisor.queue
        #: digest -> (key, params) of every cell the supervisor lacked.
        self.open: Dict[str, Any] = {}
        for params in grid:
            validate_plain_params(params)
            key = cell_key(params)
            if key not in supervisor._cells:  # else the loop resumes it
                self.open[cell_digest(key)] = (key, params)
        #: Open cells no worker holds, in the order they are handed out.
        self.todo: Deque[str] = collections.deque(self.open)
        #: digest -> a FAILED outcome's error, or the exception raised.
        self.verdicts: Dict[str, Any] = {}
        self.deaths_of: Dict[str, int] = {}
        self.counters = {"fabric.completions": 0, "fabric.requeued": 0}
        self.quarantined: List[Dict[str, Any]] = []
        self.workers = self.respawns = self._spawned = 0
        self.live: Dict[int, _Worker] = {}
        self.deaths: List[Dict[str, Any]] = []
        self.draining = False
        self._deadline: Optional[float] = None
        self._previous_handlers: Dict[int, Any] = {}

    def _request_drain(self, signum: int, frame: Any) -> None:
        # Wakes the wait in _step, which a handler that only set a flag
        # would not: the wait resumes after a handler returns.
        try:
            os.write(self._wake_w, b"\0")
        except OSError:  # pipe full: a wake-up is pending anyway
            pass

    def __enter__(self) -> "FleetRun":
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        for signum in DRAIN_SIGNALS:
            try:
                self._previous_handlers[signum] = signal.signal(
                    signum, self._request_drain)
            except (ValueError, OSError):
                pass
        # A fully-resumed grid needs no workers at all, and no grid
        # needs more workers than it has cells left.
        self.workers = min(self.supervisor.workers, len(self.todo))
        try:
            for _ in range(self.workers):
                self._spawn()
        except BaseException:
            self._kill_all()
            self._close()
            raise
        timeout = self.supervisor.timeout
        self._deadline = (time.monotonic() + timeout) if timeout else None
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            if exc_type is None:
                self._stop()
            self._kill_all()
        finally:
            self._close()

    def _close(self) -> None:
        for signum, handler in self._previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        os.close(self._wake_r)
        os.close(self._wake_w)

    def _audit(self) -> Dict[str, Any]:
        """The ``meta.fabric`` block; its counters also go to live obs."""
        from repro.obs import runtime as _obs
        counters = dict(self.counters, **{
            "fabric.quarantined": len(self.quarantined),
            "fabric.worker_deaths": len(self.deaths),
            "fabric.corrupt_records": self.queue.corrupt_records})
        registry = _obs.registry()
        for name, value in counters.items():
            if registry is not None and value:
                registry.counter(name).inc(value)
        return {"queue": self.queue.root, "workers": self.workers,
                "respawns": self.respawns, "worker_deaths": list(self.deaths),
                "counters": counters, "quarantined": list(self.quarantined)}

    def _stop(self) -> None:
        """Hand out nothing more; let the cells in flight finish."""
        self.draining = True
        self._dispatch()
        deadline = time.monotonic() + _DRAIN_SECONDS
        while self.live and time.monotonic() < deadline:
            self._step(deadline)

    def _spawn(self) -> None:
        index = self._spawned
        self._spawned += 1
        method = _start_method()
        ours, theirs = multiprocessing.Pipe()
        # A forked worker closes its copies of our pipe ends: held
        # there, they would keep its own pipe (and its elder siblings')
        # from reaching EOF when we close ours, or when we die.
        inherited = ([worker.conn for worker in self.live.values()] + [ours]
                     if method == "fork" else [])
        supervisor = self.supervisor
        proc = multiprocessing.get_context(method).Process(
            target=spawned_worker_entry,
            args=(self.queue.root, index, theirs, inherited),
            kwargs={"max_events": supervisor.max_events,
                    "max_wall_seconds": supervisor.max_wall_seconds},
            name=f"repro-fabric-worker-{index}", daemon=False)
        # The worker is born with its drain signals held and unblocks
        # them once its own handlers exist.  A forked child starts with
        # *our* handlers, which would swallow a drain signal sent in
        # its first millisecond; this way it stays pending instead.
        held = signal.pthread_sigmask(signal.SIG_BLOCK, DRAIN_SIGNALS)
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            theirs.close()
        self.live[index] = _Worker(index, proc, ours)

    def _kill_all(self) -> None:  # after an error, or past a drain
        for worker in self.live.values():
            if worker.proc.is_alive():
                worker.proc.kill()
            worker.proc.join(timeout=2.0)
            worker.conn.close()
        self.live.clear()

    def _bury(self, worker: _Worker) -> None:
        """A worker exited: record a death, settle the cell it held."""
        if (worker.cell is not None and not worker.conn.closed
                and worker.conn.poll()):
            self._receive(worker)  # said before it went
        worker.proc.join()
        worker.conn.close()
        del self.live[worker.index]
        exitcode, digest = worker.proc.exitcode, worker.cell
        if exitcode != 0:
            self.deaths.append({"worker_index": worker.index,
                                "exitcode": exitcode})
            records.write_record(
                os.path.join(self.queue.root, "crashes",
                             f"worker-{worker.index}.json"),
                {"kind": "worker_death", "worker_index": worker.index,
                 "pid": worker.proc.pid, "exitcode": exitcode,
                 "signal": -exitcode if exitcode < 0 else None,
                 "cell": digest})
        if digest is not None:  # it may have published, then died
            self._settle(digest, exitcode)
        if (exitcode != 0 and self.todo and not self.draining
                and self.respawns < 2 * self.workers):
            self.respawns += 1
            self._spawn()

    def _settle(self, digest: str, exitcode: int = 0) -> None:
        """Merge a cell a worker finished or held, or give it back.

        No record means it goes back to the head of the queue — after
        a clean exit (a drain signal before it ran, a torn record)
        without more ado, after its :data:`POISON_DEATHS`-th death as a
        FAILED outcome instead.
        """
        record = self.queue.completed_record(digest)
        if record is not None:
            self.supervisor._adopt(record)
            self.counters["fabric.completions"] += 1
            return
        deaths = self.deaths_of.get(digest, 0) + (exitcode != 0)
        self.deaths_of[digest] = deaths
        if deaths < POISON_DEATHS:
            self.counters["fabric.requeued"] += 1
            self.todo.appendleft(digest)
            return
        error = (f"poison cell: its worker died {deaths} times "
                 f"(last exit code {exitcode})")
        self.verdicts[digest] = error
        self.quarantined.append({"digest": digest,
                                 "key": self.open[digest][0],
                                 "deaths": deaths, "last_error": error})

    def collect(self, params: Dict[str, Any]) -> Optional[TrialOutcome]:
        """The fleet's outcome for one cell, waiting for it if need be.

        None when the cell is the supervisor's own to run: resumed, or
        still open once every worker is gone.  A cell that raised raises
        here, in grid order, as it would in-process.
        """
        key = cell_key(params)
        digest = cell_digest(key)
        if digest not in self.open:
            return None
        cells = self.supervisor._cells
        while key not in cells:
            verdict = self.verdicts.get(digest)
            if isinstance(verdict, BaseException):
                raise verdict
            if verdict is not None:
                return TrialOutcome(key=key, params=params, error=verdict)
            if not self.live:
                return None  # what the fleet left open runs in-process
            self._step(self._deadline)
            if self.draining:
                raise KeyboardInterrupt(
                    f"fabric sweep drained on signal: {len(cells)} cell(s) "
                    f"recorded in {self.queue.root}")
            if (self._deadline is not None
                    and time.monotonic() > self._deadline):
                outstanding = sum(k not in cells for k, _ in self.open.values())
                raise FabricError(
                    f"fabric sweep exceeded its {self.supervisor.timeout}s "
                    f"timeout with {outstanding} cell(s) outstanding; "
                    f"completed work is recorded and resumable")
        return self.supervisor._cached_outcome(
            key, params, cells[key], from_checkpoint=False)

    def _step(self, deadline: Optional[float]) -> None:
        """Wait for messages, exits or a drain signal; act on them all."""
        workers = list(self.live.values())
        handles: List[Any] = [self._wake_r]
        for worker in workers:
            if not worker.conn.closed:
                handles.append(worker.conn)
            handles.append(worker.proc.sentinel)
        timeout = (None if deadline is None
                   else max(0.0, deadline - time.monotonic()))
        ready = multiprocessing.connection.wait(handles, timeout)
        if self._wake_r in ready:
            os.read(self._wake_r, 512)
            if not self.draining:  # SIGTERM/SIGINT
                self._stop()
                self._kill_all()
                return
        for worker in workers:
            if worker.conn in ready:
                self._receive(worker)
        for worker in workers:
            if worker.proc.sentinel in ready:
                self._bury(worker)
        self._dispatch()

    def _receive(self, worker: _Worker) -> None:
        """Act on one message."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            worker.conn.close()
            return  # it is exiting; its sentinel says how
        worker.ready = True
        digest, worker.cell = worker.cell, None
        if message[0] == "done":
            self._settle(digest)
        elif message[0] in ("failed", "raised"):  # its error, or exception
            self.verdicts[digest] = message[2]

    def _dispatch(self) -> None:
        """Give idle workers cells; close them once none can come."""
        live = list(self.live.values())
        idle = [worker for worker in live
                if worker.ready and worker.cell is None]
        while idle and self.todo and not self.draining:
            worker = idle.pop()
            worker.cell = self.todo.popleft()
            try:
                worker.conn.send((worker.cell, self.open[worker.cell][1]))
            except OSError:
                pass  # it is dying; its sentinel hands the cell back
        # An idle worker stays while a busy one might die and leave a
        # cell behind; after that, EOF tells it to exit.
        if self.draining or not any(worker.cell for worker in live):
            for worker in idle:
                worker.conn.close()
                worker.ready = False
