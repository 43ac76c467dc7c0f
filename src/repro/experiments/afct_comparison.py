"""Figure 9: small buffers make short flows *faster*.

Mixes long-lived flows with Poisson short-flow arrivals on one
bottleneck, then compares the short flows' average completion time with
``B = RTT*C/sqrt(n)`` against ``B = RTT*C``.  The paper's point: the
big buffer sustains a standing queue whose delay every short-flow
packet pays, so the rule-of-thumb buffer *hurts* latency while buying
essentially no utilization.

The same runner also reports utilization under both buffers, backing
the Section 5.1.3 claim that mixes are governed by the long flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.experiments import common
from repro.metrics import FctCollector, QueueMonitor, UtilizationMonitor
from repro.net import build_dumbbell
from repro.sim import RngStreams
from repro.traffic import LongLivedWorkload, ShortFlowWorkload
from repro.traffic.sizes import UniformSize
from repro.units import Quantity

__all__ = ["MixResult", "run_mixed_experiment", "compare_buffers"]


@dataclass
class MixResult:
    """One mixed-workload run."""

    buffer_packets: int
    afct: float
    p99_fct: float
    n_short_completed: int
    utilization: float
    mean_queue: float
    short_flows_with_loss: int


#: The short-flow side of Figure 9: load, and flow sizes in packets.
SHORT_LOAD = 0.15
SHORT_SIZES = (2, 30)


def run_mixed_experiment(
    buffer_packets: int,
    n_long: int = 50,
    pipe_packets: float = 400.0,
    bottleneck_rate: Quantity = "40Mbps",
    warmup: float = 20.0,
    duration: float = 40.0,
    seed: int = 5,
    n_short_pairs: int = 20,
) -> MixResult:
    """Run ``n_long`` long flows plus short flows at :data:`SHORT_LOAD`,
    their sizes uniform over :data:`SHORT_SIZES`.

    The dumbbell has ``n_long + n_short_pairs`` host pairs; the first
    ``n_long`` carry the long-lived flows, the rest carry the Poisson
    short-flow arrivals.  Short-flow RTTs equal the long flows' mean.
    """
    if n_long < 1 or n_short_pairs < 1:
        raise ConfigurationError("need at least one long flow and one short pair")
    streams = RngStreams(seed)
    sim = common._make_simulator()
    rtt_mean = common.rtt_for_pipe(pipe_packets, bottleneck_rate)
    rtt_rng = streams.stream("rtt")
    rtts = [rtt_rng.uniform(0.5 * rtt_mean, 1.5 * rtt_mean) for _ in range(n_long)]
    rtts += [rtt_mean] * n_short_pairs

    net = build_dumbbell(
        sim,
        n_pairs=n_long + n_short_pairs,
        bottleneck_rate=bottleneck_rate,
        buffer_packets=buffer_packets,
        rtts=rtts,
        bottleneck_delay=rtt_mean / 20.0,
        receiver_delay=rtt_mean / 100.0,
    )

    LongLivedWorkload(net.view(stop=n_long), cc="reno", start_spread=warmup / 2.0,
                      rng=streams.stream("starts"), mss=common.MSS)

    t_end = warmup + duration
    collector = FctCollector(t_start=warmup, t_end=t_end)
    short = ShortFlowWorkload.for_load(
        net.view(start=n_long), load=SHORT_LOAD,
        sizes=UniformSize(*SHORT_SIZES), rng=streams.stream("arrivals"),
        t_stop=t_end, max_window=common.MAX_WINDOW_SHORT, on_complete=collector,
        mss=common.MSS,
    )
    short.start()

    util_mon = UtilizationMonitor(sim, net.bottleneck_link, t_start=warmup, t_end=t_end)
    queue_mon = QueueMonitor(sim, net.bottleneck_queue, t_start=warmup, t_end=t_end,
                             sample_period=max(duration / 2000.0, 0.005))
    common.run_world(sim, net, t_end + duration * 0.25)

    return MixResult(
        buffer_packets=buffer_packets,
        afct=collector.afct,
        p99_fct=collector.percentile(0.99),
        n_short_completed=len(collector),
        utilization=util_mon.utilization,
        mean_queue=queue_mon.mean_occupancy(),
        short_flows_with_loss=collector.flows_with_loss,
    )


def compare_buffers(n_long: int = 50, pipe_packets: float = 400.0,
                    **kwargs) -> Tuple[MixResult, MixResult]:
    """Figure 9 head-to-head: sqrt(n)-rule buffer vs rule-of-thumb buffer.

    Returns ``(small, large)`` results.
    """
    if n_long < 1:
        raise ConfigurationError("need n_long >= 1")
    small_buffer = common.sqrt_rule_packets(pipe_packets, n_long)
    large_buffer = int(round(pipe_packets))
    small = run_mixed_experiment(small_buffer, n_long=n_long,
                                 pipe_packets=pipe_packets, **kwargs)
    large = run_mixed_experiment(large_buffer, n_long=n_long,
                                 pipe_packets=pipe_packets, **kwargs)
    return small, large
