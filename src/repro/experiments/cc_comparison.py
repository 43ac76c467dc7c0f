"""Congestion-control zoo comparison: the report's ``zoo`` section.

The paper's √n rule rests on three empirical claims about long-lived
Reno-style flows: the aggregate congestion window is Gaussian
(Figure 6), flows desynchronize so loss events don't coincide, and the
minimum buffer for a utilization target shrinks like ``pipe/sqrt(n)``
(Figure 7).  "Updating the Theory of Buffer Sizing"
(Spang/Arslan/McKeown, 2021) predicts those claims *change* once
senders pace or run rate-based control: paced flows stop building the
synchronized sawtooth the rule models, and the required buffer drops
below the √n prediction.

:func:`run_cc_comparison` runs Figure 7's sweep
(:func:`~repro.experiments.long_flow_sweep.min_buffer_sweep`) once per
congestion control, with window tracking on, and reads two things from
the same cells:

* **window dynamics** at the reference buffer ``pipe/sqrt(n)``: the
  K-S distance of the aggregate window from its fitted normal, the
  Var(sum)-based synchronization index, loss and timeouts;
* **min buffer vs n**: the smallest buffer (monotone envelope,
  interpolated) meeting a *relative* utilization SLO — :data:`TARGET`
  times the CC's own ceiling on the grid, the Spang et al. framing
  ("buffer needed for X% of achievable throughput").  An ack-clocked
  Reno ceiling is ~100%, so 0.98 keeps the paper's 98% meaning; a
  rate-based sender whose pacing leaves the link a few percent idle is
  measured against what it can deliver instead of being scored
  unreachable.

The verdicts on these numbers are the ``zoo`` claims of
:data:`repro.experiments.report.SECTIONS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.experiments.common import sqrt_rule, sqrt_rule_packets
from repro.experiments.long_flow_sweep import min_buffer, min_buffer_sweep
from repro.runner import TrialOutcome
from repro.tcp.congestion import make_cc
from repro.units import Quantity

__all__ = [
    "CcDynamics",
    "CcMinBuffer",
    "CcComparisonResult",
    "TARGET",
    "run_cc_comparison",
]

#: Buffer grid in units of ``pipe/sqrt(n)``; spans well under to well
#: over the rule so the SLO crossing is interpolable for every CC, and
#: holds 1.0, the sqrt(n)-rule cell the dynamics are read from.
FACTORS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)

#: The SLO, as a fraction of each CC's own ceiling on the grid.
TARGET = 0.98


@dataclass
class CcDynamics:
    """Window dynamics of one CC at the reference buffer ``pipe/sqrt(n)``."""

    cc: str
    n_flows: int
    buffer_packets: int
    utilization: float
    sync_index: float
    ks_distance: float  # aggregate window vs fitted Gaussian
    timeouts: int
    loss_rate: float


@dataclass
class CcMinBuffer:
    """Minimum buffer meeting the relative utilization SLO for one (cc, n)."""

    cc: str
    n_flows: int
    paced: bool  # paces or runs rate-based: the Spang et al. regime
    ceiling: float  # best utilization on the grid; NaN after a failed cell
    buffer_packets: float  # NaN when missed, or unknown after a failed cell
    buffer_factor: float  # in units of pipe/sqrt(n)
    model_packets: float  # the sqrt(n)-rule prediction
    grid_floor: int  # the smallest buffer on the grid

    @property
    def achieved(self) -> bool:
        return not math.isnan(self.buffer_packets)

    @property
    def at_floor(self) -> bool:
        """Met at the grid's smallest buffer: an upper bound, not a knee."""
        return self.buffer_packets == self.grid_floor


@dataclass
class CcComparisonResult:
    """Full zoo-comparison output."""

    pipe_packets: float
    dynamics: List[CcDynamics]
    min_buffers: List[CcMinBuffer]
    failed: List[TrialOutcome]
    #: The cells that stalled or broke an invariant: params and error.


def _is_paced(cc: str) -> bool:
    """Whether the named CC paces or runs rate-based (Spang regime)."""
    probe = make_cc(cc)
    return bool(probe.wants_pacing or probe.rate_based)


def run_cc_comparison(
    *,
    ccs: Sequence[str],
    n_values: Sequence[int],
    pipe_packets: float,
    bottleneck_rate: Quantity,
    warmup: float,
    duration: float,
    seed: int,
) -> CcComparisonResult:
    """Window dynamics and min-buffer-vs-n per CC, one sweep per CC.

    The grids are the ``zoo`` presets of
    :data:`repro.experiments.report.SCALES`.  Each CC's grid is one :func:`min_buffer_sweep` with
    ``track_windows=True``: its factor-1.0 cells (the √n rule) give the
    dynamics, and all its cells the curve the minimum is read from.  A
    cell that stalls or breaks an invariant is a FAILED outcome; it
    leaves its (cc, n)'s ceiling, and so its minimum, unknown, and the
    other cells still run.
    """
    if not ccs:
        raise ConfigurationError("need at least one congestion control")
    if not n_values or min(n_values) < 1:
        raise ConfigurationError(
            f"need flow counts >= 1, got {list(n_values)}")
    paced = {cc: _is_paced(cc) for cc in ccs}  # fail fast on an unknown name

    result = CcComparisonResult(pipe_packets, [], [], [])
    for cc in ccs:
        sweep = min_buffer_sweep(
            n_values=n_values, targets=(), factors=FACTORS,
            pipe_packets=pipe_packets, warmup=warmup, duration=duration,
            seed=seed, bottleneck_rate=bottleneck_rate, cc=cc,
            track_windows=True)
        result.failed += sweep.failed
        for n in n_values:
            reference = sqrt_rule_packets(pipe_packets, n)
            cells = [o for o in sweep.outcomes if o.params["n_flows"] == n]
            at_rule = next(o for o in cells
                           if o.params["buffer_packets"] == reference)
            if at_rule.ok:
                run = at_rule.result
                fit = run.gaussian_fit
                result.dynamics.append(CcDynamics(
                    cc=cc, n_flows=n, buffer_packets=reference,
                    utilization=run.utilization, sync_index=run.sync_index,
                    ks_distance=fit.ks_distance if fit else math.nan,
                    timeouts=run.timeouts, loss_rate=run.loss_rate))
            curve = sweep.curves[n]
            ceiling = (math.nan if any(not o.ok for o in cells)
                       else max(u for _, u in curve))
            unit = sqrt_rule(pipe_packets, n)
            b_min = min_buffer(curve, TARGET * ceiling)
            result.min_buffers.append(CcMinBuffer(
                cc=cc, n_flows=n, paced=paced[cc], ceiling=ceiling,
                buffer_packets=b_min, buffer_factor=b_min / unit,
                model_packets=unit, grid_floor=curve[0][0]))
    return result
