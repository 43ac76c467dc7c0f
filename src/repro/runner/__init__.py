"""Hardened experiment running: invariants, watchdogs, checkpointed sweeps.

A single hung or silently-wrong simulation can poison an entire
Table-10-style sweep.  This package closes both holes:

:mod:`repro.runner.invariants`
    Structural checks (packet conservation, non-negative occupancy)
    run over a whole :class:`~repro.net.topology.Network`, turning
    silent state corruption into a loud
    :class:`~repro.errors.InvariantViolation`.  The experiment runners
    in :mod:`repro.experiments.common` install these always-on.
:mod:`repro.runner.supervisor`
    :class:`SweepSupervisor` — wraps any experiment callable with
    per-trial event/wall-clock budgets, retry-with-reseed on transient
    failure, and JSON checkpointing so a killed sweep resumes from the
    last completed cell.  Its ``run`` is the one loop from a grid to
    outcomes: cells run in-process, one at a time, by default; with
    ``workers >= 1`` (``repro sweep --jobs N``) the same loop adds a
    fleet of worker processes (:mod:`repro.fabric`: a leased work queue
    they may attach to, detach from, or be SIGKILLed on), which run
    each cell through the same retry loop while the loop merges their
    records through the same checkpoint writer.
"""

from repro.runner.invariants import (
    InvariantMonitor,
    check_link,
    check_network_conservation,
    check_queue,
    verify_network,
)
from repro.runner.supervisor import SweepSupervisor, TrialOutcome, cell_key

__all__ = [
    "check_queue",
    "check_link",
    "check_network_conservation",
    "verify_network",
    "InvariantMonitor",
    "SweepSupervisor",
    "TrialOutcome",
    "cell_key",
]
