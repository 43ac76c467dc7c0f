"""Figures 2–5: the single-flow sawtooth and (under/over/exact) buffering.

Runs one long-lived TCP flow through a dumbbell whose buffer is a given
fraction of the bandwidth-delay product and records the congestion
window ``W(t)`` and queue occupancy ``Q(t)`` traces of Figure 3, the
buffer-empty/link-idle symptom of Figure 4 (underbuffered), and the
standing queue of Figure 5 (overbuffered).  The measured utilization is
compared against :class:`repro.core.single_flow.SingleFlowModel`'s
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.core import SingleFlowModel
from repro.errors import ConfigurationError
from repro.experiments import common
from repro.metrics import QueueMonitor, UtilizationMonitor
from repro.net import build_dumbbell
from repro.sim import Probe, TimeSeries
from repro.tcp import TcpFlow
from repro.units import Quantity

__all__ = ["SingleFlowTrace", "run_single_flow", "sawtooth_figures"]

#: Seconds between cwnd and queue samples of the sawtooth traces.
SAMPLE_PERIOD = 0.05


@dataclass
class SingleFlowTrace:
    """Traces and summary for one single-flow run.

    Attributes
    ----------
    buffer_fraction:
        ``B / (RTT x C)`` requested.
    cwnd:
        ``W(t)`` samples (packets).
    queue:
        ``Q(t)`` samples (packets).
    utilization:
        Measured bottleneck busy fraction over the measurement window.
    model_utilization:
        Closed-form prediction from :class:`SingleFlowModel`.
    min_queue, max_queue:
        Extremes of the sampled queue within the window — the Figure 4
        ("hits zero") vs Figure 5 ("never drains") diagnostic.
    """

    buffer_fraction: float
    buffer_packets: int
    pipe_packets: float
    cwnd: TimeSeries
    queue: TimeSeries
    utilization: float
    model_utilization: float
    min_queue: float
    max_queue: float

    @property
    def link_ever_idle(self) -> bool:
        """Whether the queue fully drained during measurement."""
        return self.min_queue <= 0

    @property
    def standing_queue(self) -> float:
        """Minimum queue level — positive means overbuffered (Figure 5)."""
        return self.min_queue


def run_single_flow(
    buffer_fraction: float = 1.0,
    pipe_packets: float = 125.0,
    bottleneck_rate: Quantity = "10Mbps",
    warmup: float = 40.0,
    duration: float = 100.0,
) -> SingleFlowTrace:
    """Run one long-lived flow with ``B = buffer_fraction * RTT * C``.

    ``buffer_fraction`` of 1.0 reproduces Figure 3, < 1 Figure 4,
    > 1 Figure 5.
    """
    if not (math.isfinite(buffer_fraction) and buffer_fraction > 0):
        raise ConfigurationError(
            f"buffer_fraction must be finite and > 0, got {buffer_fraction}")
    common.check_window(warmup, duration)
    rtt = common.rtt_for_pipe(pipe_packets, bottleneck_rate)
    sim = common._make_simulator()
    buffer_packets = max(2, int(round(buffer_fraction * pipe_packets)))
    net = build_dumbbell(
        sim, n_pairs=1, bottleneck_rate=bottleneck_rate,
        buffer_packets=buffer_packets, rtts=[rtt],
        bottleneck_delay=rtt / 20.0, receiver_delay=rtt / 100.0,
    )
    flow = TcpFlow(sim, net.senders[0], net.receivers[0], mss=common.MSS)
    t_end = warmup + duration
    cwnd_series = TimeSeries("cwnd")
    Probe(sim, lambda: flow.cwnd, SAMPLE_PERIOD, series=cwnd_series).start(warmup)
    util_mon = UtilizationMonitor(sim, net.bottleneck_link, t_start=warmup, t_end=t_end)
    queue_mon = QueueMonitor(sim, net.bottleneck_queue, sample_period=SAMPLE_PERIOD,
                             t_start=warmup, t_end=t_end)
    common.run_world(sim, net, t_end)

    model = SingleFlowModel(pipe_packets, buffer_packets)
    return SingleFlowTrace(
        buffer_fraction=buffer_fraction,
        buffer_packets=buffer_packets,
        pipe_packets=pipe_packets,
        cwnd=cwnd_series,
        queue=queue_mon.series,
        utilization=util_mon.utilization,
        model_utilization=model.utilization(),
        min_queue=queue_mon.min_occupancy(),
        max_queue=queue_mon.max_occupancy(),
    )


def sawtooth_figures(pipe_packets: float = 125.0,
                     fractions: Sequence[float] = (0.5, 1.0, 2.0),
                     **kwargs) -> List[SingleFlowTrace]:
    """Run one flow per buffer fraction; the default is the
    under/exact/over-buffered trio (Figures 4, 3, 5)."""
    return [run_single_flow(f, pipe_packets=pipe_packets, **kwargs) for f in fractions]
