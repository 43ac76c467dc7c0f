"""Queueing-theory models used by the short-flow analysis (Section 4).

The paper models the bottleneck queue fed by slow-start bursts as a
batch-arrival M[X]/D/1 queue and bounds its length distribution with
effective-bandwidth methodology (Kelly), yielding

    P(Q >= b) = exp( -b * 2(1-rho)/rho * E[X] / E[X^2] )

where ``rho`` is the link load and ``X`` the burst-size distribution.
This subpackage implements that bound, the burst-size moments induced by
TCP slow start for arbitrary flow-size mixes, its inversion (minimum
buffer for a target overflow probability), and the exact M/D/1
queue-length distribution for the smoothed-arrivals regime the paper
mentions (access links slower than the bottleneck) — the closed form
the packet simulator is tested against.
"""

from repro.queueing.mg1 import (
    BurstMoments,
    buffer_for_overflow_probability,
    effective_bandwidth_overflow,
    slow_start_bursts,
    slow_start_burst_moments,
)
from repro.queueing.md1 import md1_overflow_exact, md1_queue_distribution

__all__ = [
    "BurstMoments",
    "effective_bandwidth_overflow",
    "buffer_for_overflow_probability",
    "slow_start_bursts",
    "slow_start_burst_moments",
    "md1_queue_distribution",
    "md1_overflow_exact",
]
