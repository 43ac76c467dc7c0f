"""Extension experiment: does the sqrt(n) rule survive two bottlenecks?

The paper's simulations "assume a network with only one congested link
in the core", arguing that flows rarely cross two congestion points.
This extension probes the assumption directly: a parking-lot chain
whose backbone links are *all* provisioned by the sqrt(n) rule, with
end-to-end flows crossing every hop plus single-hop cross traffic
loading each link.

Measured: per-hop utilization and the end-to-end flows' throughput
share.  The expected reading (consistent with the later literature):
each link still achieves high utilization with its sqrt(n) buffer —
the rule is per-link — while the end-to-end flows take a smaller share
than the cross traffic (they see more loss and longer RTTs; classic
multi-bottleneck unfairness, not a buffer-sizing failure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.experiments import common
from repro.metrics import UtilizationMonitor, jain_index
from repro.net import build_parking_lot
from repro.net.topology import PARKING_LOT_RTT
from repro.sim import RngStreams
from repro.tcp import TcpFlow
from repro.units import parse_bandwidth, parse_time

__all__ = ["MultiBottleneckResult", "run_multibottleneck"]


@dataclass
class MultiBottleneckResult:
    """Outcome of the two-bottleneck probe.

    Attributes
    ----------
    hop_utilizations:
        Busy fraction of each backbone link over the window.
    e2e_throughput_share:
        Fraction of the first hop's delivered bytes belonging to
        end-to-end flows.
    e2e_progress, cross_progress:
        Mean acknowledged segments per end-to-end / cross flow.
    fairness_within_cross:
        Jain index among the cross-traffic flows.
    """

    hop_utilizations: List[float]
    e2e_throughput_share: float
    e2e_progress: float
    cross_progress: float
    fairness_within_cross: float


#: Routers in the chain: two backbone links, so two bottlenecks.
N_HOPS = 3


def run_multibottleneck(
    n_e2e: int = 8,
    n_cross_per_hop: int = 24,
    link_rate: str = "20Mbps",
    warmup: float = 20.0,
    duration: float = 40.0,
    seed: int = 31,
) -> MultiBottleneckResult:
    """Run end-to-end plus cross traffic over a parking-lot chain.

    Each backbone link carries ``n_e2e + n_cross_per_hop`` flows and
    gets the sqrt(n) rule's buffer, ``pipe / sqrt(n_link)`` packets.
    """
    if n_e2e < 1 or n_cross_per_hop < 1:
        raise ConfigurationError("need n_e2e >= 1 and n_cross_per_hop >= 1")
    if warmup < 0 or duration <= 0:
        raise ConfigurationError("need warmup >= 0 and duration > 0")
    streams = RngStreams(seed)
    sim = common._make_simulator()
    rate_bps = parse_bandwidth(link_rate)
    pipe = (rate_bps * parse_time(PARKING_LOT_RTT)
            / (8.0 * common.PACKET_BYTES))
    n_link = n_e2e + n_cross_per_hop
    buffer_packets = max(2, int(round(pipe / math.sqrt(n_link))))

    network, backbone, pairs = build_parking_lot(
        sim, n_hops=N_HOPS, n_pairs_per_hop=1, link_rate=link_rate,
        buffer_packets=buffer_packets,
    )
    # build_parking_lot gives one e2e pair and one cross pair per hop;
    # multiplex several flows onto each (ports distinguish them).
    start_rng = streams.stream("starts")
    e2e_src, e2e_dst = pairs[0]
    e2e_flows = [
        TcpFlow(sim, e2e_src, e2e_dst, size_packets=None, mss=common.MSS,
                start_time=start_rng.uniform(0.0, warmup / 2.0))
        for _ in range(n_e2e)
    ]
    cross_flows = []
    for src, dst in pairs[1:]:
        for _ in range(n_cross_per_hop):
            cross_flows.append(
                TcpFlow(sim, src, dst, size_packets=None, mss=common.MSS,
                        start_time=start_rng.uniform(0.0, warmup / 2.0)))

    t_end = warmup + duration
    monitors = [UtilizationMonitor(sim, iface.link, t_start=warmup, t_end=t_end)
                for iface in backbone]
    e2e_start: List[int] = []
    cross_start: List[int] = []
    sim.call_at(warmup, lambda: (
        e2e_start.extend(f.sender.snd_una for f in e2e_flows),
        cross_start.extend(f.sender.snd_una for f in cross_flows),
    ))
    common.run_world(sim, network, t_end)

    e2e_prog = [f.sender.snd_una - s for f, s in zip(e2e_flows, e2e_start)]
    cross_prog = [f.sender.snd_una - s for f, s in zip(cross_flows, cross_start)]
    e2e_bytes = sum(e2e_prog) * common.MSS
    hop0_cross = cross_prog[:n_cross_per_hop]
    hop0_bytes = e2e_bytes + sum(hop0_cross) * common.MSS
    return MultiBottleneckResult(
        hop_utilizations=[m.utilization for m in monitors],
        e2e_throughput_share=e2e_bytes / hop0_bytes if hop0_bytes else math.nan,
        e2e_progress=sum(e2e_prog) / len(e2e_prog),
        cross_progress=sum(cross_prog) / len(cross_prog),
        fairness_within_cross=jain_index(cross_prog),
    )
