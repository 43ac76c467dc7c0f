"""Hardened experiment running: watchdogs and checkpointed sweeps.

A single hung simulation can poison an entire Table-10-style sweep.
(A silently-wrong one is the invariant audit's to catch:
:mod:`repro.experiments.invariants`, next to the runners that install
it.)

:mod:`repro.runner.supervisor`
    :class:`SweepSupervisor` — wraps any experiment callable with
    per-trial event/wall-clock budgets, a FAILED outcome (at the seed
    asked for) for a cell that stalls or breaks an invariant, and one
    durable record per finished cell, so a killed sweep resumes from
    the last completed cell; the JSON checkpoint is a view of the
    records, written once per run.  Its ``run`` is the one loop from a
    grid to outcomes: cells run in-process, one at a time, by default;
    with ``workers >= 1`` (``repro sweep --jobs N``) the same loop adds
    a fleet of worker processes (:mod:`repro.fabric`), each handed one
    cell at a time over a pipe and free to be SIGKILLed, which run each
    cell the same way and publish the same record.
"""

from repro.runner.supervisor import SweepSupervisor, TrialOutcome, cell_key

__all__ = [
    "SweepSupervisor",
    "TrialOutcome",
    "cell_key",
]
