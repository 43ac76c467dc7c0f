"""Tests for UDP sources and sinks."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net import Network
from repro.sim import Simulator
from repro.traffic.udp import UdpSink, UdpSource


def build_pair(sim):
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    net.connect(a, b, rate="10Mbps", delay="1ms")
    net.compute_routes()
    return a, b


class TestUdpSource:
    def test_cbr_rate_achieved(self):
        sim = Simulator()
        a, b = build_pair(sim)
        sink = UdpSink(sim, b, port=9)
        source = UdpSource(sim, a, dst_address=b.address, dport=9,
                           rate="1Mbps", payload=972)
        source.start()
        sim.run(until=10.0)
        achieved = sink.bytes_received * 8.0 / 10.0
        assert achieved == pytest.approx(1e6, rel=0.02)

    def test_cbr_spacing_deterministic(self):
        sim = Simulator()
        a, b = build_pair(sim)
        UdpSink(sim, b, port=9)
        source = UdpSource(sim, a, dst_address=b.address, dport=9,
                           rate="8Mbps", payload=972)  # 1000B pkt => 1ms apart
        source.start()
        sim.run(until=0.0105)
        assert source.packets_sent == 11  # t = 0, 1ms, ..., 10ms

    def test_poisson_requires_rng(self):
        sim = Simulator()
        a, b = build_pair(sim)
        with pytest.raises(ConfigurationError):
            UdpSource(sim, a, dst_address=b.address, dport=9,
                      rate="1Mbps", poisson=True)

    def test_poisson_rate_achieved(self):
        sim = Simulator()
        a, b = build_pair(sim)
        sink = UdpSink(sim, b, port=9)
        source = UdpSource(sim, a, dst_address=b.address, dport=9,
                           rate="1Mbps", payload=972, poisson=True,
                           rng=random.Random(1))
        source.start()
        sim.run(until=30.0)
        achieved = sink.bytes_received * 8.0 / 30.0
        assert achieved == pytest.approx(1e6, rel=0.1)

    def test_start_twice_rejected(self):
        sim = Simulator()
        a, b = build_pair(sim)
        source = UdpSource(sim, a, dst_address=b.address, dport=9, rate="1Mbps")
        source.start()
        with pytest.raises(ConfigurationError):
            source.start()

    def test_source_ignores_inbound(self):
        sim = Simulator()
        a, b = build_pair(sim)
        source = UdpSource(sim, a, dst_address=b.address, dport=9, rate="1Mbps",
                           sport=5)
        from repro.net import Packet
        source.deliver(Packet(src=b.address, dst=a.address))  # no crash

    def test_sink_counts(self):
        sim = Simulator()
        a, b = build_pair(sim)
        sink = UdpSink(sim, b, port=9)
        source = UdpSource(sim, a, dst_address=b.address, dport=9,
                           rate="8Mbps", payload=972)
        source.start()
        sim.run(until=0.0105)
        # Every packet sent is counted by the sink or still on the wire.
        on_wire = a.interfaces[b.node_id].link.in_flight
        assert sink.packets_received > 0 and on_wire > 0
        assert sink.packets_received + on_wire == source.packets_sent
        assert sink.bytes_received == 1000 * sink.packets_received
