"""UDP traffic: constant-bit-rate and Poisson packet sources.

The paper's Section 4 notes the short-flow queue methodology "can also
be used for UDP flows and other traffic that does not react to
congestion", and the Table 11 production mix contains unresponsive
traffic.  :class:`UdpSource` provides both deterministic (CBR) and
Poisson packet spacing; :class:`UdpSink` counts what survives the
bottleneck.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ConfigurationError
from repro.net.node import Host
from repro.net.packet import Packet, UDP_HEADER_BYTES
from repro.units import Quantity, parse_bandwidth

__all__ = ["UdpSource", "UdpSink"]


class UdpSource:
    """Open-loop packet source at a fixed average rate.

    Parameters
    ----------
    sim:
        The simulator.
    host:
        Local host (bound to ``sport`` so misdirected replies are
        swallowed cleanly).
    dst_address, dport:
        The sink's address and port.
    rate:
        Average sending rate (payload+header bits/s).
    payload:
        Payload bytes per packet (default 972, i.e. 1000-byte packets).
    poisson:
        ``False`` (default) for constant spacing (CBR), ``True`` for
        exponential inter-packet gaps (Poisson arrivals — the smoothed
        -access regime whose buffer needs the M/D/1 model captures).
    rng:
        Required when ``poisson=True``; a seeded ``random.Random``.
    sport:
        Local port (any unused value).
    """

    def __init__(self, sim, host: Host, dst_address: int, dport: int,
                 rate: Quantity, payload: int = 972, poisson: bool = False,
                 rng: Optional[random.Random] = None, sport: int = 1):
        self.sim = sim
        self.host = host
        self.dst_address = dst_address
        self.dport = dport
        self.sport = sport
        self.rate = parse_bandwidth(rate)
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")
        if payload < 1:
            raise ConfigurationError("payload must be >= 1 byte")
        if poisson and rng is None:
            raise ConfigurationError("poisson spacing requires an rng stream")
        self.payload = payload
        self.poisson = poisson
        self.rng = rng
        self.packets_sent = 0
        self._started = False
        host.bind(sport, self)

    @property
    def packet_bytes(self) -> int:
        return self.payload + UDP_HEADER_BYTES

    @property
    def mean_interval(self) -> float:
        """Average seconds between packets at the configured rate."""
        return self.packet_bytes * 8.0 / self.rate

    def start(self) -> None:
        """Begin sending now."""
        if self._started:
            raise ConfigurationError("source already running")
        self._started = True
        self.sim.schedule(0.0, self._send_next)

    def _send_next(self) -> None:
        packet = Packet.acquire(
            src=self.host.address,
            dst=self.dst_address,
            payload=self.payload,
            header=UDP_HEADER_BYTES,
            sport=self.sport,
            dport=self.dport,
        )
        self.packets_sent += 1
        self.host.inject(packet)
        if self.poisson:
            gap = self.rng.expovariate(1.0 / self.mean_interval)
        else:
            gap = self.mean_interval
        self.sim.schedule(gap, self._send_next)

    def deliver(self, packet: Packet) -> None:
        """UDP sources ignore inbound packets (open loop)."""


class UdpSink:
    """Counts received UDP packets and bytes."""

    def __init__(self, sim, host: Host, port: int):
        self.sim = sim
        self.host = host
        self.port = port
        self.packets_received = 0
        self.bytes_received = 0
        host.bind(port, self)

    def deliver(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size
