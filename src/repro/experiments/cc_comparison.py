"""Congestion-control zoo comparison: theory validation per algorithm.

The paper's √n rule rests on three empirical claims about long-lived
Reno-style flows: the aggregate congestion window is Gaussian
(Figure 6), flows desynchronize so loss events don't coincide, and the
minimum buffer for a utilization target shrinks like ``pipe/sqrt(n)``
(Figure 7).  "Updating the Theory of Buffer Sizing"
(Spang/Arslan/McKeown, 2021) predicts those claims *change* once
senders pace or run rate-based control: paced flows stop building the
synchronized sawtooth the rule models, and the required buffer drops
below the √n prediction.

This module measures all three observables for every registered
congestion control (:func:`repro.tcp.congestion.available_ccs`):

* **Gaussianity** — the K-S distance of the aggregate window from its
  fitted normal, at the reference buffer ``pipe/sqrt(n)``;
* **synchronization index** — Var(sum)-based loss-coincidence measure
  in [0, 1] from the same run;
* **min buffer vs n** — the smallest buffer (interpolated on a factor
  grid, monotone envelope) meeting the utilization SLO, against the
  √n-rule model curve.  The SLO is *relative*: ``target`` times the
  CC's own utilization ceiling on the grid, the Spang et al. framing
  ("buffer needed for X% of achievable throughput").  An ack-clocked
  Reno ceiling is ~100%, so the default 0.98 reproduces the paper's
  98% figure; a rate-based sender whose pacing leaves the link a few
  percent idle is measured against what it can actually deliver
  instead of being scored unreachable.

The comparison verdicts are mechanical: Reno must still fit the √n
rule (the reproduction's baseline), and every pacing/rate-based
algorithm must need *no more* buffer than Reno at the same ``n`` — the
Spang et al. prediction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.common import (run_long_flow_experiment, sqrt_rule,
                                      sqrt_rule_packets)
from repro.experiments.long_flow_sweep import _interpolate_min_buffer
from repro.tcp.congestion import make_cc
from repro.units import Quantity

__all__ = [
    "CcDynamics",
    "CcMinBuffer",
    "CcComparisonResult",
    "run_cc_comparison",
]

#: Buffer grid in units of ``pipe/sqrt(n)``; spans well under to well
#: over the rule so the SLO crossing is interpolable for every CC.
DEFAULT_FACTORS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


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
    fast_retransmits: int
    loss_rate: float


@dataclass
class CcMinBuffer:
    """Minimum buffer meeting the utilization SLO for one (cc, n)."""

    cc: str
    n_flows: int
    target: float  # relative SLO: reach target * ceiling
    ceiling: float  # best utilization this CC reached on the grid
    buffer_packets: float  # NaN when even the largest grid buffer missed
    buffer_factor: float  # in units of pipe/sqrt(n)
    model_packets: float  # the sqrt(n)-rule prediction

    @property
    def achieved(self) -> bool:
        return not math.isnan(self.buffer_packets)


@dataclass
class CcComparisonResult:
    """Full zoo-comparison output."""

    pipe_packets: float
    target: float
    dynamics: List[CcDynamics]
    min_buffers: List[CcMinBuffer]
    #: curves[(cc, n)] = [(buffer_packets, utilization), ...] raw data.
    curves: Dict[Tuple[str, int], List[Tuple[float, float]]] = field(
        default_factory=dict)

    def for_cc(self, cc: str) -> List[CcMinBuffer]:
        return [p for p in self.min_buffers if p.cc == cc]

    def reno_fits_sqrt_rule(self, tolerance: float = 2.0) -> bool:
        """Reno's measured min buffer stays within ``tolerance`` times
        the √n-rule prediction at every measured ``n`` (and the rule is
        not pessimistic by more than the grid can see)."""
        points = self.for_cc("reno")
        if not points:
            return True
        return all(p.achieved and p.buffer_packets <= tolerance * p.model_packets
                   for p in points)

    def paced_needs_no_more_than_reno(self) -> Dict[str, bool]:
        """The Spang et al. prediction, per pacing/rate-based CC:
        min buffer at or below Reno's at every measured ``n``.

        A CC absent from the comparison (or Reno itself missing) yields
        an empty dict.  NaN cells (target never reached on the grid)
        fail the check for the paced CC and pass it for Reno.
        """
        reno = {p.n_flows: p.buffer_packets for p in self.for_cc("reno")}
        verdicts: Dict[str, bool] = {}
        for cc in sorted({p.cc for p in self.min_buffers}):
            if cc == "reno" or not _is_paced(cc):
                continue
            points = self.for_cc(cc)
            ok = bool(points) and bool(reno)
            for p in points:
                baseline = reno.get(p.n_flows, math.nan)
                if math.isnan(baseline):
                    continue  # Reno itself off-grid: nothing to compare
                if not p.achieved or p.buffer_packets > baseline:
                    ok = False
            verdicts[cc] = ok
        return verdicts

    def to_dict(self) -> dict:
        return {
            "pipe_packets": self.pipe_packets,
            "target": self.target,
            "dynamics": [asdict(d) for d in self.dynamics],
            "min_buffers": [asdict(p) for p in self.min_buffers],
            "curves": {f"{cc}:{n}": points
                       for (cc, n), points in self.curves.items()},
            "reno_fits_sqrt_rule": self.reno_fits_sqrt_rule(),
            "paced_needs_no_more_than_reno":
                self.paced_needs_no_more_than_reno(),
        }


def _is_paced(cc: str) -> bool:
    """Whether the named CC paces or runs rate-based (Spang regime)."""
    probe = make_cc(cc)
    return bool(probe.wants_pacing or probe.rate_based)


def run_cc_comparison(
    ccs: Sequence[str] = ("reno", "compound", "scalable", "hstcp", "bbr"),
    n_values: Sequence[int] = (8, 16, 32),
    factors: Sequence[float] = DEFAULT_FACTORS,
    pipe_packets: float = 100.0,
    bottleneck_rate: Quantity = "10Mbps",
    warmup: float = 5.0,
    duration: float = 15.0,
    seed: int = 1,
    target: float = 0.98,
    max_events: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
) -> CcComparisonResult:
    """Measure Gaussianity, synchronization, and min-buffer-vs-n per CC.

    One buffer-factor grid per (cc, n) serves both the min-buffer
    interpolation and — at the reference factor 1.0 (the √n rule) —
    the window-dynamics statistics.  Every cell runs with
    ``track_windows=True`` so the grid stays one simulation per cell.
    """
    if not ccs:
        raise ConfigurationError("need at least one congestion control")
    if not n_values or min(n_values) < 1:
        raise ConfigurationError(
            f"need flow counts >= 1, got {list(n_values)}")
    if list(factors) != sorted(factors):
        raise ConfigurationError("factors must be increasing")
    if 1.0 not in factors:
        raise ConfigurationError(
            "factors must include 1.0 (the reference sqrt(n)-rule cell)")
    if not 0 < target < 1:
        raise ConfigurationError(f"target must be in (0, 1), got {target}")

    dynamics: List[CcDynamics] = []
    min_buffers: List[CcMinBuffer] = []
    curves: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
    for cc in ccs:
        _is_paced(cc)  # fail fast on an unknown name
        for n in n_values:
            unit = sqrt_rule(pipe_packets, n)
            curve: List[Tuple[float, float]] = []
            for factor in factors:
                buffer_packets = sqrt_rule_packets(pipe_packets, n, factor)
                result = run_long_flow_experiment(
                    n_flows=n,
                    buffer_packets=buffer_packets,
                    pipe_packets=pipe_packets,
                    bottleneck_rate=bottleneck_rate,
                    warmup=warmup,
                    duration=duration,
                    seed=seed,
                    cc=cc,
                    track_windows=True,
                    max_events=max_events,
                    max_wall_seconds=max_wall_seconds,
                )
                curve.append((float(buffer_packets), result.utilization))
                if factor == 1.0:
                    fit = result.gaussian_fit
                    dynamics.append(CcDynamics(
                        cc=cc,
                        n_flows=n,
                        buffer_packets=buffer_packets,
                        utilization=result.utilization,
                        sync_index=result.sync_index,
                        ks_distance=fit.ks_distance if fit else math.nan,
                        timeouts=result.timeouts,
                        fast_retransmits=result.fast_retransmits,
                        loss_rate=result.loss_rate,
                    ))
            curves[(cc, n)] = curve
            # Monotone envelope before interpolating, as in Figure 7:
            # tiny non-monotonic wiggles are measurement noise.
            best = 0.0
            monotone = []
            for b, u in curve:
                best = max(best, u)
                monotone.append((b, best))
            ceiling = best
            b_min = _interpolate_min_buffer(monotone, target * ceiling)
            min_buffers.append(CcMinBuffer(
                cc=cc,
                n_flows=n,
                target=target,
                ceiling=ceiling,
                buffer_packets=b_min,
                buffer_factor=(b_min / unit if not math.isnan(b_min)
                               else math.nan),
                model_packets=unit,
            ))
    return CcComparisonResult(
        pipe_packets=pipe_packets,
        target=target,
        dynamics=dynamics,
        min_buffers=min_buffers,
        curves=curves,
    )


def format_report(result: CcComparisonResult) -> str:
    """Human-readable comparison tables plus the theory verdicts."""
    lines: List[str] = []
    lines.append(f"congestion-control zoo at pipe "
                 f"{result.pipe_packets:.0f} pkts, "
                 f"SLO {result.target * 100:.1f}% utilization")
    lines.append("")
    lines.append("window dynamics at the reference buffer pipe/sqrt(n):")
    lines.append(f"{'cc':>9} {'n':>4} {'buffer':>7} {'util%':>7} "
                 f"{'sync':>6} {'K-S':>6} {'loss%':>7} {'RTOs':>5}")
    for d in result.dynamics:
        lines.append(
            f"{d.cc:>9} {d.n_flows:>4} {d.buffer_packets:>7} "
            f"{d.utilization * 100:>7.2f} {d.sync_index:>6.3f} "
            f"{d.ks_distance:>6.3f} {d.loss_rate * 100:>7.3f} "
            f"{d.timeouts:>5}")
    lines.append("")
    lines.append(f"minimum buffer for {result.target * 100:.1f}% of each "
                 f"CC's achievable utilization (packets; "
                 f"model = pipe/sqrt(n)):")
    lines.append(f"{'cc':>9} {'n':>4} {'ceiling%':>8} {'model':>7} "
                 f"{'measured':>9} {'factor':>7}")
    for p in result.min_buffers:
        measured = f"{p.buffer_packets:9.1f}" if p.achieved else f"{'>grid':>9}"
        factor = f"{p.buffer_factor:7.2f}" if p.achieved else f"{'-':>7}"
        lines.append(f"{p.cc:>9} {p.n_flows:>4} {p.ceiling * 100:>8.2f} "
                     f"{p.model_packets:>7.1f} {measured} {factor}")
    lines.append("")
    verdict = "ok" if result.reno_fits_sqrt_rule() else "VIOLATED"
    lines.append(f"sqrt(n) rule (reno within 2x of model): {verdict}")
    for cc, ok in sorted(result.paced_needs_no_more_than_reno().items()):
        verdict = "ok" if ok else "VIOLATED"
        lines.append(f"paced prediction ({cc} needs <= reno's buffer): "
                     f"{verdict}")
    return "\n".join(lines)
