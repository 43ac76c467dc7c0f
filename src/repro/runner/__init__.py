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
    last completed cell.  It runs cells in-process, one at a time: the
    reference executor.  The parallel executor (``repro sweep --jobs
    N``: worker processes that may attach, detach, or be SIGKILLed) is
    the leased work queue in :mod:`repro.fabric`, which runs each cell
    through the same retry loop and merges through the same checkpoint
    writer.
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
