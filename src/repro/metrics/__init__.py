"""Measurement: the quantities the paper's figures are made of.

* :class:`~repro.metrics.utilization.UtilizationMonitor` — bottleneck
  busy-fraction over a warm-up-excluding window (every figure's y-axis
  or pass/fail criterion); :class:`WindowedUtilizationProbe` the same
  per interval, for runs with faults.
* :class:`~repro.metrics.queues.QueueMonitor` — occupancy time series
  and drop statistics for the router buffer.
* :class:`~repro.metrics.fct.FctCollector` — flow-completion times and
  the AFCT metric of Figures 8–9.
* :class:`~repro.metrics.windows.WindowTracker` — per-flow and aggregate
  congestion-window traces, the Gaussian fit of Figure 6, and the
  synchronization index used to test the desynchronization assumption.
* :func:`~repro.metrics.fairness.jain_index` and
  :class:`~repro.metrics.fairness.FlowProgressMeter` — per-flow shares.

All monitors are passive: they read counters maintained by the data
path and never perturb packet timing.  Nothing here writes files: the
experiment runners return dataclasses, and ``repro.experiments.report``
renders them.
"""

from repro.metrics.fairness import FlowProgressMeter, jain_index
from repro.metrics.fct import FctCollector
from repro.metrics.queues import QueueMonitor
from repro.metrics.utilization import UtilizationMonitor, WindowedUtilizationProbe
from repro.metrics.windows import GaussianFit, WindowTracker

__all__ = [
    "UtilizationMonitor",
    "WindowedUtilizationProbe",
    "QueueMonitor",
    "FctCollector",
    "WindowTracker",
    "GaussianFit",
    "FlowProgressMeter",
    "jain_index",
]
