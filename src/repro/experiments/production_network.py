"""Table 11: the production-network check, emulated.

The paper throttled a Stanford dormitory router to 20 Mb/s and measured
utilization at buffer sizes of 500/85/65/46 packets (~2x/1.5x/1.2x/0.8x
of ``RTT*C/sqrt(n)`` with n ~ 400 and RTT <= 250 ms).  We cannot replay
Stanford's live traffic; following DESIGN.md's substitution table, the
workload here mirrors its stated composition: a few hundred concurrent
flows from a heavy-tailed (bounded-Pareto) size distribution arriving
continuously, a minority of unresponsive UDP traffic, and a wide RTT
spread capped at 250 ms — at a 20 Mb/s bottleneck with 540-byte average
packets (production traffic's mean packet is about half an MTU, which
is how 46 packets can be 0.8 of the paper's sqrt-rule unit).

The reproduced *shape*: ~full utilization at the model size and above,
decaying once the buffer falls below ~1x the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.core import predicted_utilization
from repro.errors import ConfigurationError
from repro.experiments import common
from repro.metrics import FctCollector, UtilizationMonitor
from repro.net import build_dumbbell
from repro.net.packet import TCP_HEADER_BYTES
from repro.sim import RngStreams
from repro.traffic import BoundedPareto, LongLivedWorkload, ShortFlowWorkload
from repro.traffic.udp import UdpSink, UdpSource
from repro.units import Quantity, parse_bandwidth

__all__ = ["ProductionRow", "production_table"]

#: The paper's Table 11 buffer sizes (packets).
PAPER_BUFFERS = (500, 85, 65, 46)
#: Production-traffic mean packet size used for the sizing arithmetic.
PACKET_BYTES = 540
MSS = PACKET_BYTES - TCP_HEADER_BYTES

#: The emulated dormitory link: the longest propagation RTT (seconds),
#: the offered short-flow (web churn) load on top of the long flows,
#: and the unresponsive CBR traffic as a fraction of capacity.
RTT_MAX = 0.25
TCP_LOAD = 0.4
UDP_FRACTION = 0.03


@dataclass
class ProductionRow:
    """One Table 11 row."""

    buffer_packets: int
    rule_multiple: float
    utilization: float
    throughput_bps: float
    model_utilization: float


def production_table(
    buffers: Sequence[int] = PAPER_BUFFERS,
    bottleneck_rate: Quantity = "20Mbps",
    n_concurrent: int = 400,
    warmup: float = 15.0,
    duration: float = 45.0,
    seed: int = 17,
    n_pairs: int = 120,
    n_long: int = 100,
) -> List[ProductionRow]:
    """Emulate the Stanford throttling experiment.

    Parameters
    ----------
    buffers:
        Buffer sizes to test (packets).
    n_concurrent:
        Assumed concurrent flow count for the rule arithmetic (the
        paper estimated ~400).
    n_long:
        Long-lived "download" flows; these dominate demand (the dorm
        link was congested by sustained downloads, which is why it was
        throttled), so the utilization dip at small buffers comes from
        their congestion-avoidance dynamics.

    Returns one row per buffer with measured utilization and the
    Gaussian-model prediction at ``n_concurrent`` flows.
    """
    if n_concurrent < 1:
        raise ConfigurationError("need n_concurrent >= 1")
    if n_pairs <= n_long:
        raise ConfigurationError(
            "need n_pairs > n_long: churn and UDP ride the remaining pairs")
    rate_bps = parse_bandwidth(bottleneck_rate)
    pipe_packets = rate_bps * RTT_MAX / (8.0 * PACKET_BYTES)
    unit = pipe_packets / math.sqrt(n_concurrent)
    rows: List[ProductionRow] = []
    for buffer_packets in buffers:
        streams = RngStreams(seed)
        sim = common._make_simulator()
        rtt_rng = streams.stream("rtt")
        rtts = [rtt_rng.uniform(0.1 * RTT_MAX, RTT_MAX) for _ in range(n_pairs)]
        net = build_dumbbell(
            sim, n_pairs=n_pairs, bottleneck_rate=rate_bps,
            buffer_packets=int(buffer_packets), rtts=rtts,
            bottleneck_delay=RTT_MAX / 50.0, receiver_delay=RTT_MAX / 100.0,
        )
        # A few long-lived bulk downloads.
        LongLivedWorkload(net.view(stop=n_long), cc="reno",
                          start_spread=warmup / 2.0,
                          rng=streams.stream("starts"), mss=MSS)
        # Heavy-tailed web-like churn over the remaining pairs.
        t_end = warmup + duration
        collector = FctCollector(t_start=warmup, t_end=t_end)
        sizes = BoundedPareto(shape=1.2, minimum=2, maximum=2000)
        short = ShortFlowWorkload.for_load(
            net.view(start=n_long), load=TCP_LOAD, sizes=sizes,
            rng=streams.stream("arrivals"), t_stop=t_end, max_window=43,
            on_complete=collector, mss=MSS,
        )
        short.start()
        # Unresponsive CBR component.
        _udp_sink = UdpSink(sim, net.receivers[n_long], port=9)
        udp = UdpSource(
            sim, net.senders[n_long], dst_address=net.receivers[n_long].address,
            dport=9, rate=rate_bps * UDP_FRACTION, payload=MSS,
            poisson=True, rng=streams.stream("udp"), sport=9,
        )
        udp.start()

        util_mon = UtilizationMonitor(sim, net.bottleneck_link,
                                      t_start=warmup, t_end=t_end)
        common.run_world(sim, net, t_end)
        rows.append(ProductionRow(
            buffer_packets=int(buffer_packets),
            rule_multiple=buffer_packets / unit,
            utilization=util_mon.utilization,
            throughput_bps=util_mon.throughput_bps,
            model_utilization=predicted_utilization(
                pipe_packets, buffer_packets, n_concurrent),
        ))
    return rows
