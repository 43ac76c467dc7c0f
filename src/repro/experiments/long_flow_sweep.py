"""Figure 7: minimum buffer for a target utilization vs number of flows.

For each flow count ``n``, utilization is measured over a grid of
buffer sizes expressed in units of ``pipe / sqrt(n)``; the minimum
buffer reaching each utilization target (98%, 99.5%, 99.9% in the
paper) is then interpolated from the measured curve.  The model curve
``B = RTT*C/sqrt(n)`` (doubled for the highest target, as the paper
finds) is reported alongside.

One grid of simulations per ``n`` serves all targets, keeping the sweep
affordable; the grid and run lengths are parameters, so the paper-scale
sweep (OC3, n up to 400+) is one call away from the laptop-scale
default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.common import (run_long_flow_experiment,
                                      sqrt_rule, sqrt_rule_packets)
from repro.runner import SweepSupervisor, TrialOutcome

__all__ = ["MinBufferPoint", "SweepResult", "min_buffer", "min_buffer_sweep"]

DEFAULT_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
DEFAULT_TARGETS = (0.98, 0.995, 0.999)


@dataclass
class MinBufferPoint:
    """Minimum buffer found for one (n, target) pair."""

    n_flows: int
    target: float
    buffer_packets: float
    buffer_factor: float  # in units of pipe / sqrt(n)
    model_packets: float  # the sqrt(n)-rule prediction

    @property
    def achieved(self) -> bool:
        """Whether any grid point reached the target."""
        return not math.isnan(self.buffer_packets)


@dataclass
class SweepResult:
    """Full Figure 7 sweep output."""

    pipe_packets: float
    points: List[MinBufferPoint]
    curves: Dict[int, List[Tuple[float, float]]] = field(default_factory=dict)
    #: curves[n] = [(buffer_packets, utilization), ...] — the raw data.
    outcomes: List[TrialOutcome] = field(default_factory=list)
    #: Every cell, in grid order: its params and its result or error.

    @property
    def failed(self) -> List[TrialOutcome]:
        """The cells that stalled or broke an invariant: params and error."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def for_target(self, target: float) -> List[MinBufferPoint]:
        return [p for p in self.points if p.target == target]


def min_buffer(curve: Sequence[Tuple[float, float]], target: float) -> float:
    """Smallest buffer reaching ``target`` utilization on ``curve``.

    ``curve`` is ``[(buffer, utilization), ...]`` in increasing buffer
    order.  Its monotone envelope (the running maximum: tiny
    non-monotonic wiggles are measurement noise) is interpolated
    linearly.  A failed cell (NaN) ends the curve: a target not crossed
    before it is NaN, never interpolated over a point nobody measured.
    NaN also when even the largest buffer missed the target.
    """
    best = 0.0
    prev_b = prev_u = math.nan
    for b, u in curve:
        if math.isnan(u):
            break
        best = max(best, u)
        if best >= target:
            if math.isnan(prev_b):
                return float(b)
            return prev_b + (target - prev_u) / (best - prev_u) * (b - prev_b)
        prev_b, prev_u = b, best
    return math.nan


def min_buffer_sweep(
    n_values: Sequence[int] = (25, 50, 100, 200),
    targets: Sequence[float] = DEFAULT_TARGETS,
    factors: Sequence[float] = DEFAULT_FACTORS,
    pipe_packets: float = 400.0,
    warmup: float = 20.0,
    duration: float = 40.0,
    seed: int = 3,
    **kwargs,
) -> SweepResult:
    """Measure min-buffer-vs-n for the given utilization targets.

    Parameters
    ----------
    n_values:
        Flow counts to sweep (the paper's x-axis).
    targets:
        Utilization targets (the paper's three curves).
    factors:
        Buffer grid in units of ``pipe / sqrt(n)``; must be increasing.
    pipe_packets, warmup, duration, seed, kwargs:
        Forwarded to :func:`run_long_flow_experiment`.
    """
    if list(factors) != sorted(factors):
        raise ConfigurationError("factors must be increasing")
    if any(n < 1 for n in n_values):
        raise ConfigurationError("n_values must be positive flow counts")
    supervisor = SweepSupervisor(run_long_flow_experiment)
    cells: List[Tuple[int, int, Dict]] = []
    for n in n_values:
        for factor in factors:
            buffer_packets = sqrt_rule_packets(pipe_packets, n, factor)
            cells.append((n, buffer_packets, dict(
                n_flows=n,
                buffer_packets=buffer_packets,
                pipe_packets=pipe_packets,
                warmup=warmup,
                duration=duration,
                seed=seed,
                **kwargs,
            )))
    outcomes = supervisor.run([params for _, _, params in cells])

    curves: Dict[int, List[Tuple[float, float]]] = {n: [] for n in n_values}
    for (n, buffer_packets, _), outcome in zip(cells, outcomes):
        # A failed cell is a NaN sample; the rest of the sweep still
        # completes.
        utilization = outcome.result.utilization if outcome.ok else math.nan
        curves[n].append((buffer_packets, utilization))
    points: List[MinBufferPoint] = []
    for n in n_values:
        unit = sqrt_rule(pipe_packets, n)
        for target in targets:
            b_min = min_buffer(curves[n], target)
            points.append(MinBufferPoint(n, target, b_min, b_min / unit, unit))
    return SweepResult(pipe_packets=pipe_packets, points=points, curves=curves,
                       outcomes=outcomes)
