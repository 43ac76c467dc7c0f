"""Figure 6: the aggregate congestion window is (nearly) Gaussian.

Runs ``n`` long-lived flows with spread RTTs and staggered starts,
samples ``W = sum(W_i)``, and compares the empirical distribution with
the fitted normal via histogram overlay and the Kolmogorov–Smirnov
distance.  Also provides the synchronization-vs-n sweep backing the
paper's Section 3 claim that in-phase synchronization is common below
~100 flows and rare above ~500.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.common import run_long_flow_experiment, sqrt_rule_packets
from repro.metrics.windows import GaussianFit

__all__ = ["WindowDistributionResult", "run_window_distribution", "sync_vs_n"]

#: :func:`sync_vs_n`'s worst case for synchronization: identical RTTs,
#: simultaneous starts, over a fixed measurement window (seconds).
SYNC_RTT_SPREAD = (1.0, 1.0)
SYNC_START_SPREAD = 0.0
SYNC_WARMUP = 20.0
SYNC_DURATION = 40.0


@dataclass
class WindowDistributionResult:
    """Figure 6 outcome: the empirical ΣW distribution vs its Gaussian fit."""

    n_flows: int
    fit: GaussianFit
    sync_index: float
    histogram: Tuple[List[float], List[int]]
    utilization: float

    def model_overlay(self) -> List[float]:
        """Expected per-bin counts under the fitted Gaussian."""
        edges, counts = self.histogram
        total = sum(counts)
        overlay = []
        for lo, hi in zip(edges, edges[1:]):
            mid = 0.5 * (lo + hi)
            overlay.append(total * (hi - lo) * self.fit.pdf(mid))
        return overlay


def run_window_distribution(
    n_flows: int = 100,
    pipe_packets: float = 400.0,
    warmup: float = 30.0,
    duration: float = 60.0,
    seed: int = 7,
    **kwargs,
) -> WindowDistributionResult:
    """Sample the aggregate window of ``n_flows`` long-lived flows at
    the sqrt(n) rule's buffer, ``pipe / sqrt(n)``."""
    buffer_packets = sqrt_rule_packets(pipe_packets, n_flows)
    result = run_long_flow_experiment(
        n_flows=n_flows,
        buffer_packets=buffer_packets,
        pipe_packets=pipe_packets,
        warmup=warmup,
        duration=duration,
        seed=seed,
        track_windows=True,
        **kwargs,
    )
    return WindowDistributionResult(
        n_flows=n_flows,
        fit=result.gaussian_fit,
        sync_index=result.sync_index,
        histogram=result.window_histogram,
        utilization=result.utilization,
    )


def sync_vs_n(n_values: Sequence[int] = (4, 16, 64),
              pipe_packets: float = 400.0,
              seed: int = 7,
              **kwargs) -> List[Tuple[int, float]]:
    """Synchronization index as a function of flow count.

    The paper: "in-phase synchronization is common for under 100
    concurrent flows, it is very rare above 500".  The runs use the
    *worst case* for synchronization — identical RTTs and simultaneous
    starts — because any RTT spread already suffices to desynchronize a
    handful of flows (also a paper observation: "small variations in RTT
    or processing time are sufficient to prevent synchronization").
    Even in the worst case, the index declines as ``n`` grows.
    """
    out: List[Tuple[int, float]] = []
    for n in n_values:
        buffer_packets = sqrt_rule_packets(pipe_packets, n)
        result = run_long_flow_experiment(
            n_flows=n,
            buffer_packets=buffer_packets,
            pipe_packets=pipe_packets,
            warmup=SYNC_WARMUP,
            duration=SYNC_DURATION,
            seed=seed,
            track_windows=True,
            rtt_spread=SYNC_RTT_SPREAD,
            start_spread=SYNC_START_SPREAD,
            **kwargs,
        )
        out.append((n, result.sync_index))
    return out
