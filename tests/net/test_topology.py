"""Tests for nodes, routing, and topology builders."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.net import (Network, Packet, Router, build_dumbbell,
                       build_parking_lot)
from repro.sim import RngStreams, Simulator
from repro.traffic import LongLivedWorkload


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

    @pytest.mark.parametrize("victim_talks_to_dst", [False, True])
    def test_misrouted_packet_raises_routing_error_on_burst_path(
            self, victim_talks_to_dst):
        # The fastpath twin.  Hosts hold only the destinations they
        # originated toward, and the burst delivery body probes the
        # receiving host's _routes before calling receive.  A victim
        # that never sent to the packet's destination has no entry and
        # rejects the packet in Host.receive; one that did (here: the
        # misrouted packet's own sender) bounces it back until the hop
        # limit trips.  Either way the run dies with a RoutingError.
        sim = Simulator(fastpath=True, burst=True)
        net = Network(sim)
        a = net.add_host("a")
        r = net.add_router("r")
        b = net.add_host("b")
        c = net.add_host("c")
        for host in (a, b, c):
            net.connect(host, r, rate="10Mbps", delay="1ms")
        net.compute_routes()
        r._routes[a.address] = r._routes[b.address]
        sender = b if victim_talks_to_dst else c
        sender.inject(Packet(src=sender.address, dst=a.address, payload=960))
        assert (a.address in b._routes) == victim_talks_to_dst
        with pytest.raises(RoutingError) as err:
            sim.run()
        expected = ("routing loop detected" if victim_talks_to_dst
                    else "received packet for address")
        assert expected in str(err.value)

    def test_compute_routes_is_rerunnable(self):
        # a -- r1 -- r2 -- r3 -- b, then a shortcut r1 -- r3: the second
        # compute_routes must drop every table (the leaves' memoized
        # entries included) and take the shorter path.
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a")
        routers = [net.add_router(f"r{i}") for i in (1, 2, 3)]
        b = net.add_host("b")
        chain = [a, *routers, b]
        for left, right in zip(chain, chain[1:]):
            net.connect(left, right, rate="10Mbps", delay="1ms")
        net.compute_routes()
        rec = Recorder()
        b.bind(5, rec)
        a.inject(Packet(src=a.address, dst=b.address, payload=960, dport=5))
        sim.run()
        assert rec.packets[-1].hops == 4
        assert a._routes  # memoized on first use
        routers[0]._routes[12345] = routers[0]._routes[b.address]  # stale

        net.connect(routers[0], routers[2], rate="10Mbps", delay="1ms")
        net.compute_routes()
        assert not a._routes and not b._routes
        assert 12345 not in routers[0]._routes
        a.inject(Packet(src=a.address, dst=b.address, payload=960, dport=5))
        sim.run()
        assert rec.packets[-1].hops == 3

        # A leaf that becomes multi-homed gets a table of its own.
        direct, _ = net.connect(a, b, rate="10Mbps", delay="1ms")
        net.compute_routes()
        assert a.route_for(b.address) is direct

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

    def test_view_is_the_same_dumbbell_over_a_slice_of_pairs(self):
        net = build_dumbbell(Simulator(), n_pairs=5, bottleneck_rate="10Mbps",
                             buffer_packets=10,
                             rtts=[0.01 * (i + 1) for i in range(5)])
        head, tail = net.view(stop=2), net.view(start=2)
        assert head.flow_pairs() + tail.flow_pairs() == net.flow_pairs()
        assert head.rtts + tail.rtts == net.rtts
        assert net.view(1, 3).senders == net.senders[1:3]
        for view in (head, tail):
            assert view.network is net.network
            assert view.bottleneck is net.bottleneck
            assert view.reverse is net.reverse
            assert (view.left, view.right) == (net.left, net.right)


class TestRoutingStateIsLinear:
    """Count-based: routes exist only where a node has a choice."""

    @staticmethod
    def route_entries(network):
        return sum(len(node._routes) for node in network.nodes)

    def test_dumbbell_tables_are_linear_in_pairs(self):
        n = 256
        sim = Simulator(burst=True)
        net = build_dumbbell(sim, n_pairs=n, bottleneck_rate="100Mbps",
                             buffer_packets=64, rtts=["40ms"])
        # Two routers x 2n host addresses; the 2n hosts hold nothing.
        assert self.route_entries(net.network) == 4 * n
        LongLivedWorkload(net, start_spread=0.1,
                          rng=RngStreams(1).stream("starts"))
        sim.run(until=0.5)
        # Each host has learned at most its one peer.
        assert all(list(s._routes) == [r.address] for s, r in net.flow_pairs())
        assert 5 * n < self.route_entries(net.network) <= 6 * n

    def test_parking_lot_tables_only_on_routers(self):
        network, _backbone, _pairs = build_parking_lot(
            Simulator(), n_hops=3, n_pairs_per_hop=2, link_rate="10Mbps",
            buffer_packets=20)
        for node in network.nodes:
            expected = len(network.hosts) if isinstance(node, Router) else 0
            assert len(node._routes) == expected, node


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
