"""Bulk TCP workloads: the paper's two canonical traffic classes.

:class:`LongLivedWorkload` — ``n`` infinite (or very long) TCP flows
with starts staggered across an interval, one per sender/receiver pair
of a dumbbell.  Staggering plus per-flow RTT spread is what
desynchronizes the sawtooths (Section 3's key assumption).

:class:`ShortFlowWorkload` — short flows arriving as a Poisson process
(the paper's Section 4 assumption, citing [12, 13]) with lengths drawn
from a :class:`~repro.traffic.sizes.FlowSizeDistribution`, cycled across
the dumbbell's host pairs.  The offered load is set by the arrival
rate; :meth:`ShortFlowWorkload.for_load` computes the rate for a target
``rho``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.net.packet import TCP_HEADER_BYTES
from repro.net.topology import DumbbellNetwork
from repro.tcp.flow import FlowRecord, TcpFlow
from repro.tcp.sender import TcpSender

__all__ = ["LongLivedWorkload", "ShortFlowWorkload"]


class LongLivedWorkload:
    """``n`` long-lived TCP flows over a dumbbell.

    Parameters
    ----------
    dumbbell:
        A built :class:`~repro.net.topology.DumbbellNetwork`; one flow
        is created per host pair.
    cc:
        Congestion-control name for all flows (default Reno).
    start_spread:
        Flow ``i`` starts at ``Uniform(0, start_spread)`` — a key
        desynchronization knob (0 starts all flows simultaneously,
        which maximizes synchronization).
    rng:
        Seeded stream for start times.
    mss, delayed_ack, pacing, sack, ecn:
        Forwarded to each flow.
    """

    def __init__(
        self,
        dumbbell: DumbbellNetwork,
        cc: str = "reno",
        start_spread: float = 5.0,
        rng: Optional[random.Random] = None,
        mss: int = 960,
        delayed_ack: bool = False,
        pacing: bool = False,
        sack: bool = False,
        ecn: bool = False,
    ):
        if start_spread < 0:
            raise ConfigurationError("start_spread must be >= 0")
        if start_spread > 0 and rng is None:
            raise ConfigurationError("staggered starts need an rng stream")
        self.dumbbell = dumbbell
        self.flows: List[TcpFlow] = []
        sim = dumbbell.sim
        for sender_host, receiver_host in dumbbell.flow_pairs():
            start = rng.uniform(0.0, start_spread) if start_spread > 0 else 0.0
            flow = TcpFlow(
                sim,
                src=sender_host,
                dst=receiver_host,
                size_packets=None,
                cc=cc,
                start_time=start,
                mss=mss,
                delayed_ack=delayed_ack,
                pacing=pacing,
                sack=sack,
                ecn=ecn,
            )
            self.flows.append(flow)

    @property
    def senders(self) -> List[TcpSender]:
        """The senders, for :class:`~repro.metrics.windows.WindowTracker`."""
        return [flow.sender for flow in self.flows]


class ShortFlowWorkload:
    """Poisson arrivals of short TCP flows at a target load.

    Parameters
    ----------
    dumbbell:
        Topology; arrivals cycle over its host pairs round-robin (a
        pair can carry several concurrent flows — ports distinguish
        them).
    arrival_rate:
        Flow arrivals per second.
    sizes:
        A :class:`~repro.traffic.sizes.FlowSizeDistribution`.
    rng:
        Seeded stream for arrival gaps and sizes.
    t_stop:
        Stop creating flows at this simulation time (existing flows
        finish naturally).
    max_window:
        Advertised window cap; keep at the OS-typical 12–43 packets to
        stay in the paper's short-flow regime.
    on_complete:
        Optional sink for :class:`~repro.tcp.flow.FlowRecord` (e.g. a
        :class:`~repro.metrics.fct.FctCollector`).
    cc, mss:
        Forwarded to each flow.
    """

    def __init__(
        self,
        dumbbell: DumbbellNetwork,
        arrival_rate: float,
        sizes,
        rng: random.Random,
        t_stop: Optional[float] = None,
        max_window: int = 43,
        on_complete: Optional[Callable[[FlowRecord], None]] = None,
        cc: str = "reno",
        mss: int = 960,
    ):
        if arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        self.dumbbell = dumbbell
        self.arrival_rate = arrival_rate
        self.sizes = sizes
        self.rng = rng
        self.t_stop = t_stop
        self.max_window = max_window
        self.on_complete = on_complete
        self.cc = cc
        self.mss = mss

        self.flows_started = 0
        self.flows_completed = 0
        self.packets_offered = 0
        self._active: set = set()
        self._pair_cursor = 0
        self._pairs = dumbbell.flow_pairs()
        self._started = False

    @classmethod
    def for_load(cls, dumbbell: DumbbellNetwork, load: float, sizes, rng,
                 mss: int = 960, **kwargs) -> "ShortFlowWorkload":
        """Create a workload offering ``load`` of the bottleneck capacity.

        ``arrival_rate = load * C / (mean_size * packet_bits)`` where
        ``packet_bits`` includes the TCP/IP header.
        """
        if not 0.0 < load < 1.0:
            raise ConfigurationError(f"load must be in (0, 1), got {load}")
        capacity = dumbbell.bottleneck_link.rate
        packet_bits = (mss + TCP_HEADER_BYTES) * 8.0
        rate = load * capacity / (sizes.mean() * packet_bits)
        return cls(dumbbell, arrival_rate=rate, sizes=sizes, rng=rng,
                   mss=mss, **kwargs)

    def start(self) -> None:
        """Begin the arrival process now."""
        if self._started:
            raise ConfigurationError("workload already started")
        self._started = True
        gap = self.rng.expovariate(self.arrival_rate)
        self.dumbbell.sim.schedule(gap, self._arrival)

    def _arrival(self) -> None:
        sim = self.dumbbell.sim
        if self.t_stop is not None and sim.now > self.t_stop:
            return
        size = self.sizes.sample(self.rng)
        src, dst = self._pairs[self._pair_cursor]
        self._pair_cursor = (self._pair_cursor + 1) % len(self._pairs)

        self.flows_started += 1
        self.packets_offered += size
        holder = {}

        def finished(record: FlowRecord) -> None:
            self.flows_completed += 1
            flow = holder["flow"]
            self._active.discard(flow)
            flow.teardown()
            if self.on_complete is not None:
                self.on_complete(record)

        flow = TcpFlow(
            sim,
            src=src,
            dst=dst,
            size_packets=size,
            cc=self.cc,
            start_time=sim.now,
            mss=self.mss,
            max_window=self.max_window,
            on_complete=finished,
        )
        holder["flow"] = flow
        self._active.add(flow)

        gap = self.rng.expovariate(self.arrival_rate)
        sim.schedule(gap, self._arrival)
