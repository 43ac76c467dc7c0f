"""Ablations over the design choices DESIGN.md calls out.

Each function isolates one assumption of the paper and measures its
effect with everything else held fixed:

* :func:`queue_discipline_ablation` — drop-tail vs RED (the paper:
  "we expect our results to be valid for other queueing disciplines
  (e.g., RED) as well").
* :func:`delayed_ack_ablation` — delayed ACKs on/off (ACK-clocking
  burstiness).
* :func:`rtt_spread_ablation` — homogeneous vs spread RTTs (the
  desynchronization assumption behind the sqrt(n) rule).
* :func:`cc_flavor_ablation` — Tahoe vs Reno vs NewReno senders.
* :func:`access_speed_ablation` — short-flow buffer needs with fast vs
  slow access links (burst-intact vs smoothed regimes, Section 4's
  closing observation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.experiments.common import (
    run_long_flow_experiment,
    run_short_flow_experiment,
    sqrt_rule_packets,
)
from repro.traffic.sizes import FixedSize

__all__ = [
    "AblationRow",
    "queue_discipline_ablation",
    "delayed_ack_ablation",
    "rtt_spread_ablation",
    "cc_flavor_ablation",
    "access_speed_ablation",
    "pacing_ablation",
    "sack_ablation",
    "ecn_ablation",
]

_BASE = dict(n_flows=64, pipe_packets=400.0, warmup=15.0, duration=30.0, seed=21)

#: The pacing ablation's buffer, in units of the sqrt(n) rule: tiny,
#: where unpaced bursts hurt.  Every other long-flow ablation runs at 1x.
PACED_FACTOR = 0.25

#: The short-flow access-speed ablation's fixed scenario.
_ACCESS = dict(load=0.7, buffer_packets=30, flow_packets=14, duration=30.0)


@dataclass
class AblationRow:
    """One (variant, metric) outcome."""

    variant: str
    utilization: float
    loss_rate: float
    sync_index: float = math.nan
    extra: float = math.nan


def queue_discipline_ablation(**overrides) -> List[AblationRow]:
    """Drop-tail vs RED at the same physical buffer."""
    params = {**_BASE, **overrides}
    buffer_packets = sqrt_rule_packets(params["pipe_packets"], params["n_flows"])
    rows = []
    for label, red in [("drop-tail", False), ("RED", True)]:
        result = run_long_flow_experiment(buffer_packets=buffer_packets,
                                          red=red, **params)
        rows.append(AblationRow(label, result.utilization, result.loss_rate))
    return rows


def delayed_ack_ablation(**overrides) -> List[AblationRow]:
    """Immediate vs delayed ACKs."""
    params = {**_BASE, **overrides}
    buffer_packets = sqrt_rule_packets(params["pipe_packets"], params["n_flows"])
    rows = []
    for label, delack in [("ack-every-segment", False), ("delayed-ack", True)]:
        result = run_long_flow_experiment(buffer_packets=buffer_packets,
                                          delayed_ack=delack, **params)
        rows.append(AblationRow(label, result.utilization, result.loss_rate))
    return rows


def rtt_spread_ablation(**overrides) -> List[AblationRow]:
    """Homogeneous vs spread RTTs: the desynchronization knob.

    With identical RTTs (and simultaneous starts) the flows synchronize
    and the sqrt(n) buffer under-delivers; with spread RTTs the rule
    holds.  The sync index makes the mechanism visible.
    """
    params = {**_BASE, **overrides}
    buffer_packets = sqrt_rule_packets(params["pipe_packets"], params["n_flows"])
    rows = []
    cases = [
        ("homogeneous RTTs, simultaneous starts", (1.0, 1.0), 1e-3),
        ("spread RTTs, staggered starts", (0.5, 1.5), None),
    ]
    for label, spread, start_spread in cases:
        result = run_long_flow_experiment(
            buffer_packets=buffer_packets, rtt_spread=spread,
            start_spread=start_spread, track_windows=True, **params,
        )
        rows.append(AblationRow(label, result.utilization, result.loss_rate,
                                sync_index=result.sync_index))
    return rows


def cc_flavor_ablation(**overrides) -> List[AblationRow]:
    """Tahoe vs Reno vs NewReno senders at the sqrt(n) buffer."""
    params = {**_BASE, **overrides}
    buffer_packets = sqrt_rule_packets(params["pipe_packets"], params["n_flows"])
    rows = []
    for flavor in ("tahoe", "reno", "newreno"):
        result = run_long_flow_experiment(buffer_packets=buffer_packets,
                                          cc=flavor, **params)
        rows.append(AblationRow(flavor, result.utilization, result.loss_rate,
                                extra=float(result.timeouts)))
    return rows


def access_speed_ablation(seed: int = 23) -> List[AblationRow]:
    """Short flows with fast vs slow access links.

    Fast access keeps slow-start bursts intact (the paper's worst
    case); slow access spreads them, so the same buffer drops less and
    completes flows at least as fast (Section 4: smoothed arrivals
    approach Poisson and need even smaller buffers).
    """
    rows = []
    for label, mult in [("access 10x bottleneck", 10.0),
                        ("access 1x bottleneck", 1.0)]:
        result = run_short_flow_experiment(
            load=_ACCESS["load"], buffer_packets=_ACCESS["buffer_packets"],
            sizes=FixedSize(_ACCESS["flow_packets"]),
            duration=_ACCESS["duration"], seed=seed, access_multiplier=mult,
        )
        rows.append(AblationRow(label, result.utilization, result.drop_rate,
                                extra=result.afct))
    return rows


def ecn_ablation(**overrides) -> List[AblationRow]:
    """RED dropping vs RED marking (ECN) at the sqrt(n) buffer.

    With ECN the congestion signal costs no retransmissions: loss rate
    collapses while utilization holds — the AQM-era complement to the
    paper's buffer-sizing story.
    """
    params = {**_BASE, **overrides}
    buffer_packets = sqrt_rule_packets(params["pipe_packets"], params["n_flows"])
    rows = []
    for label, ecn in [("RED (drop)", False), ("RED + ECN (mark)", True)]:
        result = run_long_flow_experiment(buffer_packets=buffer_packets,
                                          red=True, ecn=ecn, **params)
        rows.append(AblationRow(label, result.utilization, result.loss_rate,
                                extra=float(result.timeouts)))
    return rows


def sack_ablation(**overrides) -> List[AblationRow]:
    """Reno vs SACK senders at the sqrt(n) buffer.

    SACK repairs multi-loss windows without timeouts, so it should match
    or beat Reno's utilization with fewer retransmission timeouts —
    evidence the paper's results are not an artifact of Reno's fragile
    loss recovery.
    """
    params = {**_BASE, **overrides}
    buffer_packets = sqrt_rule_packets(params["pipe_packets"], params["n_flows"])
    rows = []
    for label, use_sack in [("reno", False), ("reno+sack", True)]:
        result = run_long_flow_experiment(buffer_packets=buffer_packets,
                                          sack=use_sack, **params)
        rows.append(AblationRow(label, result.utilization, result.loss_rate,
                                extra=float(result.timeouts)))
    return rows


def pacing_ablation(**overrides) -> List[AblationRow]:
    """Paced vs unpaced senders at a *tiny* buffer.

    Pacing spreads each window over an RTT, removing the bursts that
    tiny buffers cannot absorb.  The buffer-sizing follow-up literature
    (and the paper's TR) suggests paced TCP sustains utilization with
    buffers well below ``RTT*C/sqrt(n)``; this ablation measures that
    effect directly at :data:`PACED_FACTOR` (0.25x) of the sqrt-rule.
    """
    params = {**_BASE, **overrides}
    buffer_packets = sqrt_rule_packets(params["pipe_packets"], params["n_flows"],
                                       PACED_FACTOR)
    rows = []
    for label, paced in [("unpaced", False), ("paced", True)]:
        result = run_long_flow_experiment(buffer_packets=buffer_packets,
                                          pacing=paced, **params)
        rows.append(AblationRow(label, result.utilization, result.loss_rate,
                                extra=float(result.timeouts)))
    return rows
