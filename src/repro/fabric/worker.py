"""A fleet worker: runs the cells its supervisor hands it, one at a time.

``repro sweep --jobs N`` starts :func:`spawned_worker_entry` with one
end of a pipe and the sweep's watchdog budgets, forked from the
supervisor where that is safe and spawned otherwise
(``repro.fabric.supervisor._start_method``).  The worker says it is
ready, then loops: receive a cell's ``(digest, params)``, run the cell,
publish its record, send the outcome (which also asks for the next
cell).  It exits when the pipe reaches EOF — the supervisor has no
more work for it, or is gone — so no worker outlives its sweep.

A cell runs as in the supervisor's own process — once, through the same
:func:`repro.runner.supervisor._call_cell` under the same budgets —
which is what makes a fleet sweep **bit-identical** to a
single-process run.  Its outcome goes back as ``("done", digest)`` (the
record is durable), ``("failed", digest, error)`` (it stalled or broke
an invariant: the serial FAILED row, no record) or ``("raised", digest,
exc)`` (the supervisor raises ``exc`` when its grid-order loop reaches
the cell).  A worker that dies mid-cell leaves the cell to another
worker, which runs it under the same seed.
"""

from __future__ import annotations

import pickle
import signal
import time
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import FabricError
from repro.fabric import chaos
from repro.fabric.queue import WorkQueue
from repro.runner.supervisor import (_call_cell, _cell_record,
                                     _default_serialize, accepted_params,
                                     budgeted_call, cell_key)

__all__ = ["resolve_fn", "run_worker", "spawned_worker_entry"]

#: The signals that ask a worker to drain.  The fleet starts a worker
#: with both held (``FleetRun._spawn``); :func:`run_worker` unblocks them
#: once its handlers exist, so none is ever met by an inherited handler.
DRAIN_SIGNALS = frozenset({signal.SIGTERM, signal.SIGINT})


def resolve_fn(ref: Optional[str]) -> Callable[..., Any]:
    """Import the trial function named by a ``module:qualname`` ref.

    Spawned workers have nothing but the record directory's spec to go
    on, so the ref must name an importable module-level callable.
    """
    if not ref:
        raise FabricError(
            "queue spec carries no trial-function reference; create the "
            "queue with fn_ref='pkg.module:function' (a module-level "
            "callable) so spawned workers can resolve it")
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


def _portable(exc: Exception) -> Exception:
    """``exc`` as it can cross the pipe: itself, or a
    :class:`FabricError` with its type and message if it does not
    survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return FabricError(f"{type(exc).__name__}: {exc}")
    return exc


def _run_cell(queue: WorkQueue, fn: Callable[..., Any],
              accepted: Optional[set], budgets: Dict[str, Any], digest: str,
              params: Dict[str, Any], index: Optional[int]) -> Tuple[Any, ...]:
    """Run one cell; publish its record if it has one; the message."""
    key = cell_key(params)
    chaos.chaos_point("run", index)
    started = time.monotonic()
    try:
        result, error = _call_cell(fn, budgeted_call(params, accepted,
                                                     **budgets))
    except Exception as exc:
        return ("raised", digest, _portable(exc))
    if error is not None:
        return ("failed", digest, error)
    queue.complete(digest, _cell_record(
        key, params, _default_serialize(result),
        time.monotonic() - started), worker_index=index)
    chaos.chaos_point("complete", index)
    return ("done", digest)


def run_worker(queue_root: str, index: Optional[int], conn: Any,
               max_events: Optional[int] = None,
               max_wall_seconds: Optional[float] = None) -> int:
    """Serve cells over ``conn`` until it reaches EOF; the exit code.

    The budgets are the supervisor's, given to this process when it
    starts, so a resumed sweep runs its open cells under the budgets it
    was asked for, not under those of the run that made the directory.

    SIGTERM and SIGINT ask for a drain: the cell in hand finishes and
    is reported, then the worker leaves; one that arrives while it
    waits means it leaves without running the cell it is then handed.
    """
    queue = WorkQueue.open(queue_root)
    fn = resolve_fn(queue.fn_ref)
    accepted = accepted_params(fn)
    budgets = {"max_events": max_events, "max_wall_seconds": max_wall_seconds}
    stop: List[int] = []

    def _drain(signum: int, frame: Any) -> None:
        stop.append(signum)

    for signum in DRAIN_SIGNALS:
        signal.signal(signum, _drain)
    # A fleet worker is born with these held; one sent meanwhile is
    # delivered here, to _drain, and the loop below never starts.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, DRAIN_SIGNALS)
    message: Optional[Tuple[Any, ...]] = None if stop else ("ready",)
    while message is not None:
        try:
            conn.send(message)
            if stop:  # drained mid-cell: reported it, now leave
                break
            digest, params = conn.recv()
        except (EOFError, OSError):  # no more work, or no supervisor
            break
        message = None if stop else _run_cell(queue, fn, accepted, budgets,
                                              digest, params, index)
    return 0


def spawned_worker_entry(queue_root: str, index: int, conn: Any,
                         inherited: Iterable[Any] = (), **budgets: Any) -> int:
    """Entry point of a ``repro sweep --jobs N`` worker process.

    A forked worker is a copy of the supervisor, so it first drops what
    a spawned one never had: the supervisor's ends of the fleet's pipes
    (``inherited``; held here, they would keep this worker's own pipe,
    or a sibling's, from reaching EOF), the chaos hits the supervisor
    counted (``run@0`` means *this worker's* first run), and a live
    ``repro.obs`` session (it would add a metrics snapshot to every
    cell result, which no serial cell has).
    """
    from repro.obs import runtime as _obs

    for other in inherited:
        other.close()
    chaos._hits.clear()
    _obs.disable()
    return run_worker(queue_root, index, conn, **budgets)
