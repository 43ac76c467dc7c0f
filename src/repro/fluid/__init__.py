"""Deterministic fluid model of AIMD flows sharing a bottleneck.

A complement to the packet-level simulator: windows and queues are
continuous quantities integrated with small time steps, and loss events
are instantaneous window halvings triggered when the queue hits the
buffer limit.  Three things make it worth having next to the packet
simulator:

* it is orders of magnitude faster, so sweeping hundreds of
  (n, buffer) points for model exploration is instant;
* its **synchronized** mode (all flows halve together) and
  **desynchronized** mode (only the largest-rate flow halves) bracket
  the paper's Section 3 dichotomy exactly, with no statistical noise;
* it cross-checks the packet simulator: both must agree on the classic
  anchors (75% at B=0 for one flow, 100% at B=BDP, the sqrt(n)
  benefit in desynchronized mode).
"""

from repro.fluid.model import FluidAimdModel, FluidResult
from repro.fluid.sweep import fluid_min_buffer, fluid_utilization

__all__ = [
    "FluidAimdModel",
    "FluidResult",
    "fluid_utilization",
    "fluid_min_buffer",
]
