"""Traffic generation: the workloads of the paper's evaluation.

* :mod:`repro.traffic.sizes` — flow-size distributions (fixed, uniform,
  and bounded Pareto for the heavy tail).
* :mod:`repro.traffic.udp` — constant-bit-rate and Poisson UDP sources
  plus a counting sink (the unresponsive-traffic component of the
  production-network experiment); imported from there, so a TCP-only
  run does not load it.
* :mod:`repro.traffic.flows` — bulk TCP workloads: ``n`` long-lived
  flows with staggered starts (Sections 3/5.1.1) and Poisson short-flow
  arrivals at a target load (Sections 4/5.1.2).
"""

from repro.traffic.flows import LongLivedWorkload, ShortFlowWorkload
from repro.traffic.sizes import (
    BoundedPareto,
    FixedSize,
    FlowSizeDistribution,
    UniformSize,
)

__all__ = [
    "FlowSizeDistribution",
    "FixedSize",
    "UniformSize",
    "BoundedPareto",
    "LongLivedWorkload",
    "ShortFlowWorkload",
]
