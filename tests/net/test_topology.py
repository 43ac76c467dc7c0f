"""Tests for nodes, routing, and topology builders."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.net import Network, Packet, build_dumbbell, build_parking_lot
from repro.sim import Simulator


class Recorder:
    """Agent that records delivered packets."""

    def __init__(self):
        self.packets = []

    def deliver(self, packet):
        self.packets.append(packet)


class TestNetworkRouting:
    def build_line(self, sim):
        """a -- r1 -- r2 -- b"""
        net = Network(sim)
        a = net.add_host("a")
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        b = net.add_host("b")
        net.connect(a, r1, rate="10Mbps", delay="1ms")
        net.connect(r1, r2, rate="10Mbps", delay="1ms")
        net.connect(r2, b, rate="10Mbps", delay="1ms")
        net.compute_routes()
        return net, a, b

    def test_end_to_end_delivery(self):
        sim = Simulator()
        net, a, b = self.build_line(sim)
        rec = Recorder()
        b.bind(5, rec)
        a.inject(Packet(src=a.address, dst=b.address, payload=960, dport=5))
        sim.run()
        assert len(rec.packets) == 1
        assert rec.packets[0].hops == 3

    def test_reverse_delivery(self):
        sim = Simulator()
        net, a, b = self.build_line(sim)
        rec = Recorder()
        a.bind(5, rec)
        b.inject(Packet(src=b.address, dst=a.address, payload=960, dport=5))
        sim.run()
        assert len(rec.packets) == 1

    def test_loopback_skips_network(self):
        sim = Simulator()
        net, a, b = self.build_line(sim)
        rec = Recorder()
        a.bind(5, rec)
        a.inject(Packet(src=a.address, dst=a.address, payload=960, dport=5))
        assert rec.packets  # delivered synchronously, no links involved

    def test_unbound_port_discards(self):
        sim = Simulator()
        net, a, b = self.build_line(sim)
        a.inject(Packet(src=a.address, dst=b.address, payload=960, dport=99))
        sim.run()  # no exception

    def test_no_route_raises(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")  # never connected
        net.compute_routes()
        with pytest.raises(RoutingError):
            a.inject(Packet(src=a.address, dst=b.address, payload=960))

    def test_misdelivered_packet_raises(self):
        sim = Simulator()
        net, a, b = self.build_line(sim)
        with pytest.raises(RoutingError):
            a.receive(Packet(src=b.address, dst=b.address, payload=960))

    def test_misrouted_packet_raises_at_the_host_on_reference_path(self):
        # A router table pointing a's address at b: on the reference
        # path link delivery is Node.receive, so b rejects the packet
        # on arrival (b->r, r->b: four link events) instead of
        # bouncing it back through its own default route until the
        # hop limit trips.
        sim = Simulator(fastpath=False)
        net = Network(sim)
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        net.connect(a, r, rate="10Mbps", delay="1ms")
        net.connect(r, b, rate="10Mbps", delay="1ms")
        net.compute_routes()
        r._routes[a.address] = r._routes[b.address]
        b.inject(Packet(src=b.address, dst=a.address, payload=960))
        with pytest.raises(RoutingError, match="received packet for address"):
            sim.run()
        assert sim.events_processed == 4

    def test_double_bind_rejected(self):
        sim = Simulator()
        net, a, _ = self.build_line(sim)
        a.bind(5, Recorder())
        with pytest.raises(ConfigurationError):
            a.bind(5, Recorder())

    def test_unbind_then_rebind(self):
        sim = Simulator()
        net, a, _ = self.build_line(sim)
        a.bind(5, Recorder())
        a.unbind(5)
        a.bind(5, Recorder())  # no error

    def test_addresses_unique(self):
        sim = Simulator()
        net = Network(sim)
        hosts = [net.add_host(f"h{i}") for i in range(10)]
        addresses = {h.address for h in hosts}
        assert len(addresses) == 10

    def test_host_jitter_delays_dispatch(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b", proc_jitter=lambda: 0.5)
        net.connect(a, b, rate="10Mbps", delay="1ms")
        net.compute_routes()
        _rec = Recorder()
        times = []
        b.bind(5, type("T", (), {"deliver": lambda self, p: times.append(sim.now)})())
        a.inject(Packet(src=a.address, dst=b.address, payload=960, dport=5))
        sim.run()
        # 0.8ms serialization + 1ms propagation + 500ms jitter.
        assert times[0] == pytest.approx(0.5018, abs=1e-4)


class TestDumbbell:
    def test_builds_expected_shape(self):
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=3, bottleneck_rate="10Mbps",
                             buffer_packets=10, rtts=["100ms"])
        assert len(net.senders) == 3
        assert len(net.receivers) == 3
        assert net.bottleneck_queue.capacity_packets == 10

    def test_single_rtt_broadcast(self):
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=4, bottleneck_rate="10Mbps",
                             buffer_packets=10, rtts=["80ms"])
        assert net.rtts == [pytest.approx(0.08)] * 4

    def test_rtt_list_must_match(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            build_dumbbell(sim, n_pairs=3, bottleneck_rate="10Mbps",
                           buffer_packets=10, rtts=["80ms", "90ms"])

    def test_rtt_realized_on_wire(self):
        """A packet's round trip matches the requested propagation RTT."""
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=1, bottleneck_rate="100Mbps",
                             buffer_packets=100, rtts=["100ms"],
                             access_rate="10Gbps")
        sender, receiver = net.senders[0], net.receivers[0]
        times = {}

        class Echo:
            def deliver(self, packet):
                times["echoed"] = sim.now
                receiver.inject(Packet(src=receiver.address, dst=sender.address,
                                       payload=0, dport=7))

        class Back:
            def deliver(self, packet):
                times["back"] = sim.now

        receiver.bind(7, Echo())
        sender.bind(7, Back())
        sender.inject(Packet(src=sender.address, dst=receiver.address,
                             payload=0, dport=7))
        sim.run()
        # Propagation-only RTT: 40-byte packets, fast links, so
        # serialization adds only microseconds.
        assert times["back"] == pytest.approx(0.1, abs=2e-3)

    def test_rtt_too_small_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            build_dumbbell(sim, n_pairs=1, bottleneck_rate="10Mbps",
                           buffer_packets=10, rtts=["1ms"],
                           bottleneck_delay="10ms")

    def test_needs_buffer_or_queue(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            build_dumbbell(sim, n_pairs=1, bottleneck_rate="10Mbps",
                           buffer_packets=None, rtts=["100ms"])

    def test_zero_pairs_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            build_dumbbell(sim, n_pairs=0, bottleneck_rate="10Mbps",
                           buffer_packets=10, rtts=["100ms"])

    def test_flow_pairs(self):
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=2, bottleneck_rate="10Mbps",
                             buffer_packets=10, rtts=["100ms"])
        pairs = net.flow_pairs()
        assert pairs == [(net.senders[0], net.receivers[0]),
                         (net.senders[1], net.receivers[1])]


class TestParkingLot:
    def test_builds_and_routes(self):
        sim = Simulator()
        network, backbone, pairs = build_parking_lot(
            sim, n_hops=3, n_pairs_per_hop=1, link_rate="10Mbps",
            buffer_packets=20)
        assert len(backbone) == 2
        # End-to-end pair first, then 2 cross pairs.
        assert len(pairs) == 3
        src, dst = pairs[0]
        rec = Recorder()
        dst.bind(5, rec)
        src.inject(Packet(src=src.address, dst=dst.address, payload=960, dport=5))
        sim.run()
        assert len(rec.packets) == 1

    def test_too_few_hops_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            build_parking_lot(sim, n_hops=1, n_pairs_per_hop=1,
                              link_rate="10Mbps", buffer_packets=20)
