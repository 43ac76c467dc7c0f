"""The work-stealing fabric worker.

A :class:`Worker` attaches to a :class:`~repro.fabric.queue.WorkQueue`
directory and loops: claim (or steal) a cell, run the trial function
under a heartbeat thread that keeps the lease alive, publish the result
(or a failure record), repeat until the queue drains.  Workers are
interchangeable and stateless between cells — any worker may run any
cell, and a worker that dies mid-cell is replaced by whichever peer
steals its expired lease.

Retry semantics match the serial supervisor exactly, which is what
makes a fabric sweep **bit-identical** to a single-process run:

* a *transient* simulator failure (stall, invariant violation) retries
  in-lease under the same derived-seed schedule as
  :func:`repro.runner.supervisor._attempt_cell`, now separated by the
  shared bounded-backoff policy;
* a *worker crash* (SIGKILL, OOM) never reseeds — the stealer re-runs
  the cell from its original base seed, so the merged grid cannot drift
  from the serial result;
* a cell whose reseeded attempts are all spent, or that raised a
  *fatal* error (configuration mistake), is parked at once: the lease
  budget counts only leases that ended without a verdict.

``repro worker <queue-dir>`` runs :func:`worker_main` as a detachable
process; ``repro sweep --jobs N`` starts :func:`spawned_worker_entry`
via multiprocessing — forked from the supervisor where that is safe,
spawned otherwise (``repro.fabric.supervisor._start_method``).  A
forked worker is a copy of the supervisor, so the entry point first
puts back what a fresh interpreter would have had: no chaos hits
counted, observability off, its own drain handlers.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from importlib import import_module
from typing import Any, Callable, Dict, Optional

from repro.errors import FabricError, ReproError
from repro.fabric import chaos
from repro.fabric.backoff import BackoffPolicy, backoff_stream
from repro.fabric.queue import Lease, WorkQueue
from repro.runner.supervisor import (
    TRANSIENT_ERRORS,
    _attempt_cell,
    _default_serialize,
    accepted_params,
    budgeted_call,
)

__all__ = ["Worker", "resolve_fn", "spawned_worker_entry", "worker_main"]

#: Renew the lease this many times per lease interval; 3 gives two
#: chances to miss a beat before peers may legally steal the cell.
_HEARTBEATS_PER_LEASE = 3

#: The signals that ask a worker to drain.  The fleet starts a worker
#: with both held (``_Fleet._spawn``); :func:`worker_main` releases them
#: once its handlers exist, so none is ever met by an inherited handler.
DRAIN_SIGNALS = frozenset({signal.SIGTERM, signal.SIGINT})


def resolve_fn(ref: Optional[str]) -> Callable[..., Any]:
    """Import the trial function named by a ``module:qualname`` ref.

    Detached workers have nothing but the queue spec to go on, so the
    ref must name an importable module-level callable.
    """
    if not ref:
        raise FabricError(
            "queue spec carries no trial-function reference; create the "
            "queue with fn_ref='pkg.module:function' (a module-level "
            "callable) so detached workers can resolve it")
    module_name, sep, qualname = ref.partition(":")
    if not sep:
        module_name, _, qualname = ref.rpartition(".")
    if not module_name or not qualname:
        raise FabricError(f"malformed trial-function reference {ref!r} "
                          f"(expected 'pkg.module:function')")
    try:
        module = import_module(module_name)
    except ImportError as exc:
        raise FabricError(
            f"cannot import module {module_name!r} for trial function "
            f"{ref!r}: {exc}") from exc
    target: Any = module
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            raise FabricError(
                f"module {module_name!r} has no attribute path {qualname!r} "
                f"(from trial-function reference {ref!r})")
    if not callable(target):
        raise FabricError(f"trial-function reference {ref!r} resolved to "
                          f"non-callable {target!r}")
    return target


class _Heartbeat(threading.Thread):
    """Renews one lease in the background while its cell runs.

    Sets :attr:`lost` (and exits) the moment a renewal fails — the
    lease expired or was stolen, so the owning worker must treat its
    in-flight result as a duplicate, not the completion of record.
    """

    def __init__(self, queue: WorkQueue, lease: Lease,
                 worker_index: Optional[int], interval: float):
        super().__init__(name=f"lease-heartbeat-{lease.digest}", daemon=True)
        self._queue = queue
        self._lease = lease
        self._worker_index = worker_index
        self._interval = interval
        self._done = threading.Event()
        self.lost = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self._interval):
            if not self._queue.renew(self._lease, self._worker_index):
                self.lost.set()
                return

    def stop(self) -> None:
        self._done.set()
        self.join(timeout=self._interval * 2 + 1.0)


class Worker:
    """One work-stealing worker bound to a queue directory."""

    def __init__(self, queue: WorkQueue,
                 fn: Optional[Callable[..., Any]] = None,
                 name: Optional[str] = None,
                 index: Optional[int] = None,
                 backoff: Optional[BackoffPolicy] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.queue = queue
        self.fn = fn if fn is not None else resolve_fn(queue.fn_ref)
        self.index = index
        self.name = name or (f"worker-{index}" if index is not None
                             else "worker")
        options = queue.options
        self.max_retries = int(options.get("max_retries", 2))
        self.max_events = options.get("max_events")
        self.max_wall_seconds = options.get("max_wall_seconds")
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._accepted = accepted_params(self.fn)
        self._sleep = sleep  # retry back-off only; idling waits on _running
        # Held until a stop is requested, so the idle back-off can wait
        # on it and end the moment one is.  A bare lock, not a
        # threading.Event: request_stop() runs inside a signal handler
        # on the very thread that may be waiting, and Event.set() there
        # deadlocks on the lock Event.wait() holds for a few bytecodes.
        # A lock's release() and acquire() are single C calls.
        self._running = threading.Lock()
        self._running.acquire()
        # Seeded per-worker jitter stream: desynchronizes idle polling
        # across workers without touching the process-global RNG.
        self._idle_rng = backoff_stream(f"worker-idle:{self.name}")
        self._claim_rng = backoff_stream(f"worker-claim:{self.name}")
        self.stats: Dict[str, int] = {
            "completed": 0, "failed": 0, "quarantined": 0, "leases_lost": 0,
        }

    def request_stop(self) -> None:
        """Drain: finish the in-flight cell (if any), then exit the loop.

        Safe to call from a signal handler and from any thread.
        """
        try:
            self._running.release()
        except RuntimeError:
            pass  # already requested

    def _idle(self, seconds: float) -> None:
        """Wait out one idle back-off, or until a stop is requested."""
        if self._running.acquire(timeout=seconds):
            self.request_stop()  # it was open: leave it open

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, int]:
        """Claim-run-complete until the queue drains or a stop is requested."""
        idle_spins = 0
        while self._running.locked():
            lease = self.queue.claim(self.name, self.index,
                                     rng=self._claim_rng)
            if lease is None:
                if self.queue.drained():
                    break
                # Everything runnable is validly leased by peers: back
                # off and re-poll (a peer may die and free its cell).
                self._idle(self.backoff.delay(idle_spins, self._idle_rng))
                idle_spins += 1
                continue
            idle_spins = 0
            self._run_lease(lease)
        return dict(self.stats)

    def _run_lease(self, lease: Lease) -> None:
        chaos.chaos_point("run", self.index)
        interval = self.queue.lease_seconds / _HEARTBEATS_PER_LEASE
        heartbeat = _Heartbeat(self.queue, lease, self.index, interval)
        heartbeat.start()
        started = time.monotonic()
        fatal_error: Optional[BaseException] = None
        result: Any = None
        attempts = 0
        error: Optional[str] = None
        try:
            call = budgeted_call(lease.params, self._accepted,
                                 self.max_events, self.max_wall_seconds)
            # Same reseed schedule as the serial supervisor (base seed +
            # attempt * stride), so the merged grid stays bit-identical.
            result, attempts, error = _attempt_cell(
                self.fn, lease.params, call, self.max_retries,
                backoff=self.backoff,
                rng=backoff_stream(f"cell:{lease.key}"),
                sleep=self._sleep)
        except TRANSIENT_ERRORS:  # pragma: no cover - _attempt_cell absorbs
            raise
        except ReproError as exc:
            fatal_error = exc  # configuration mistakes: no reseed heals them
        except Exception as exc:  # unexpected bug: burn one lease, not the sweep
            error = f"{type(exc).__name__}: {exc}"
            fatal_error = None
            self._fail(lease, error, traceback.format_exc(), fatal=False,
                       heartbeat=heartbeat)
            return
        finally:
            heartbeat.stop()
        elapsed = time.monotonic() - started
        if fatal_error is not None:
            self._fail(lease,
                       f"{type(fatal_error).__name__}: {fatal_error}",
                       traceback.format_exc(), fatal=True,
                       heartbeat=heartbeat)
            return
        if error is not None:
            # The cell has had its max_retries + 1 reseeded attempts:
            # that is a verdict, the serial FAILED row.  Another lease
            # would replay the same derived seeds, so park it now.
            self._fail(lease, error, None, fatal=True, heartbeat=heartbeat,
                       attempts=attempts)
            return
        if heartbeat.lost.is_set():
            # The lease expired (e.g. the host suspended) and a peer may
            # own the cell now.  Publishing anyway is safe — results are
            # deterministic, so both records are byte-identical — but
            # count it: lost leases mean duplicated work.
            self.stats["leases_lost"] += 1
            self.queue.log_event("lease_lost", cell=lease.digest,
                                 worker=self.name)
        self.queue.complete(lease, _default_serialize(result), attempts,
                            elapsed, worker_index=self.index)
        self.stats["completed"] += 1

    def _fail(self, lease: Lease, error: str, tb: Optional[str],
              fatal: bool, heartbeat: _Heartbeat,
              attempts: Optional[int] = None) -> None:
        heartbeat.stop()
        if heartbeat.lost.is_set():
            # Not ours to fail any more; the stealer already recorded
            # the expiry and owns the retry accounting.
            self.stats["leases_lost"] += 1
            self.queue.log_event("lease_lost", cell=lease.digest,
                                 worker=self.name)
            return
        disposition = self.queue.fail(lease, error, tb, fatal=fatal,
                                      attempts=attempts)
        if disposition == "quarantined":
            self.stats["quarantined"] += 1
        else:
            self.stats["failed"] += 1


def worker_main(queue_root: str, *, name: Optional[str] = None,
                index: Optional[int] = None,
                install_signal_handlers: bool = True,
                log: Callable[[str], None] = lambda line: None) -> int:
    """Run one detachable worker against an existing queue directory.

    Returns a process exit code: 0 on a clean drain or requested stop,
    2 when the queue/trial function is unusable.  SIGTERM and SIGINT
    request a drain — the in-flight cell finishes and its lease is
    released through normal completion — rather than killing mid-cell.
    """
    try:
        queue = WorkQueue.open(queue_root)
        worker = Worker(queue, name=name, index=index)
    except (FabricError, ReproError) as exc:
        log(f"fabric worker cannot start: {exc}")
        return 2
    if install_signal_handlers:
        def _drain(signum: int, frame: Any) -> None:
            log(f"signal {signum}: draining after current cell")
            worker.request_stop()

        for signum in DRAIN_SIGNALS:
            try:
                signal.signal(signum, _drain)
            except (ValueError, OSError):  # non-main thread / platform quirk
                pass
        # A fleet worker is born with these held; one sent meanwhile is
        # delivered here, to _drain, and the loop below never claims.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, DRAIN_SIGNALS)
    log(f"{worker.name}: attached to {queue.root} "
        f"({queue.status()['pending']} cell(s) pending)")
    stats = worker.run()
    log(f"{worker.name}: done — {stats['completed']} completed, "
        f"{stats['failed']} failed lease(s), {stats['quarantined']} "
        f"quarantined, {stats['leases_lost']} lease(s) lost")
    return 0


def spawned_worker_entry(queue_root: str, index: int) -> int:
    """Entry point for ``repro sweep --jobs N`` child processes.

    Module-level (and import-light) so it survives multiprocessing's
    spawn start method; chaos arming travels via the inherited
    ``REPRO_FABRIC_CHAOS`` environment variable.

    A forked child is a copy of the supervisor process, so it first
    drops what a spawned one would never have had: chaos hits the parent
    counted (``run@0`` means *this worker's* first run) and a live
    ``repro.obs`` session (it would put a metrics snapshot into every
    cell result, and no serial cell has one).  Both are no-ops after a
    spawn.
    """
    from repro.obs import runtime as _obs

    chaos._hits.clear()
    _obs.disable()
    return worker_main(queue_root, index=index,
                       install_signal_handlers=True)
