"""Fault-tolerant worker fleet for sweeps.

The fabric is what :meth:`~repro.runner.supervisor.SweepSupervisor.run`
adds with ``workers >= 1`` (``repro sweep --jobs N``): it promotes the
sweep checkpoint into a sharded, lease-based work-queue protocol over
the existing content-addressed cell keys
(:func:`~repro.runner.supervisor.cell_key`), so sweep workers can
attach, detach, crash, or be SIGKILLed at any point without losing or
duplicating results.  The loop from a grid to outcomes stays the
supervisor's; the fleet only changes who runs the cells:

* :mod:`repro.fabric.records` — length+checksum framed, atomically
  written (fsync file *and* directory) JSON records; torn writes are
  detected and quarantined to ``*.corrupt`` instead of poisoning reads.
* :mod:`repro.fabric.queue` — the filesystem-backed
  :class:`~repro.fabric.queue.WorkQueue`: per-cell leases with
  monotonic-clock expiry, heartbeat renewal, atomic
  claim/steal/complete/fail transitions, per-cell retry budgets, and a
  poison-cell quarantine.
* :mod:`repro.fabric.worker` — the work-stealing
  :class:`~repro.fabric.worker.Worker` loop and the ``repro worker``
  entrypoint (:func:`~repro.fabric.worker.worker_main`).
* :mod:`repro.fabric.backoff` — the bounded exponential
  :class:`~repro.fabric.backoff.BackoffPolicy` with seeded jitter,
  shared by the fabric workers and the supervisor's retry-reseed loop.
* :mod:`repro.fabric.supervisor` — :class:`~repro.fabric.supervisor.FleetRun`,
  which starts worker processes, respawns the dead, hands the
  supervisor's loop each cell's completed record or quarantine entry,
  and drains cleanly on SIGTERM/SIGINT.
* :mod:`repro.fabric.chaos` — crash-injection hooks used by the chaos
  tests and the CI smoke job to SIGKILL workers at protocol-critical
  points.

Lease expiry uses ``time.monotonic()`` (enforced by lint rule
REPRO105): on one host the monotonic clock is shared by all processes,
and it never jumps backwards under NTP steps the way the wall clock
does.  The queue therefore assumes its workers share a host (or at
least a boot clock); cross-host transports are a roadmap item.

Submodules are imported lazily so low layers (``repro.runner``) can
pull :mod:`repro.fabric.backoff` without dragging in the queue/worker
machinery (which itself imports ``repro.runner``).
"""

from __future__ import annotations

import importlib
from typing import Any

__all__ = [
    "BackoffPolicy",
    "Lease",
    "WorkQueue",
    "Worker",
    "worker_main",
]

#: Public name -> defining submodule, resolved on first attribute access.
_EXPORTS = {
    "BackoffPolicy": "repro.fabric.backoff",
    "Lease": "repro.fabric.queue",
    "WorkQueue": "repro.fabric.queue",
    "Worker": "repro.fabric.worker",
    "worker_main": "repro.fabric.worker",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.fabric' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
