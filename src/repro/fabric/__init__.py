"""Worker fleet and cell records for sweeps.

The fabric is what :meth:`~repro.runner.supervisor.SweepSupervisor.run`
is built on: every finished cell, whichever process ran it, is one
durable record, and with ``workers >= 1`` (``repro sweep --jobs N``)
worker processes started by the supervisor run the cells, each handed
one at a time over its own pipe, so a worker — or the supervisor — can
be SIGKILLed at any point without losing or duplicating results.  The
loop from a grid to outcomes stays the supervisor's; the fleet only
changes who runs the cells:

* :mod:`repro.fabric.supervisor` — :class:`~repro.fabric.supervisor.FleetRun`,
  the only thing that assigns cells: it starts the workers, hands out
  cells, merges their records, re-queues the cell of a worker that
  died, respawns the dead, and drains cleanly on SIGTERM/SIGINT.
* :mod:`repro.fabric.worker` — the worker loop: receive a cell, run it,
  publish its record, say so.
* :mod:`repro.fabric.queue` — the :class:`~repro.fabric.queue.WorkQueue`
  record directory: the trial function's spec and one completed-cell
  record per finished cell, keyed by
  :func:`~repro.runner.supervisor.cell_key`.  The sweep checkpoint is a
  view of these records.
* :mod:`repro.fabric.records` — length+checksum framed, atomically
  written (fsync file *and* directory) JSON records; torn writes are
  detected and quarantined to ``*.corrupt`` instead of poisoning reads.
* :mod:`repro.fabric.chaos` — crash-injection hooks used by the chaos
  tests and the CI smoke job to SIGKILL workers at protocol-critical
  points.

This package imports none of its submodules, so low layers
(``repro.runner``) can pull :mod:`repro.fabric.queue` and what it
stands on without the fleet machinery (which itself imports
``repro.runner``).
"""
