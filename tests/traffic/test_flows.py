"""Tests for the bulk workload generators."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics import FctCollector
from repro.net import build_dumbbell
from repro.net.packet import TCP_HEADER_BYTES
from repro.sim import RngStreams, Simulator
from repro.traffic import FixedSize, LongLivedWorkload, ShortFlowWorkload


def make_dumbbell(sim, n_pairs=4, buffer_packets=100):
    return build_dumbbell(sim, n_pairs=n_pairs, bottleneck_rate="10Mbps",
                          buffer_packets=buffer_packets, rtts=["40ms"])


class TestLongLivedWorkload:
    def test_one_flow_per_pair(self):
        sim = Simulator()
        net = make_dumbbell(sim, n_pairs=5)
        wl = LongLivedWorkload(net, rng=RngStreams(1).stream("s"), start_spread=1.0)
        assert len(wl.flows) == 5
        assert len(wl.senders) == 5

    def test_starts_staggered_within_spread(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        wl = LongLivedWorkload(net, rng=RngStreams(1).stream("s"), start_spread=3.0)
        starts = [flow.start_time for flow in wl.flows]
        assert all(0.0 <= s <= 3.0 for s in starts)
        assert len(set(starts)) > 1

    def test_simultaneous_start_without_rng(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        wl = LongLivedWorkload(net, start_spread=0.0)
        assert all(flow.start_time == 0.0 for flow in wl.flows)

    def test_spread_requires_rng(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        with pytest.raises(ConfigurationError):
            LongLivedWorkload(net, start_spread=1.0)

    def test_flows_actually_send(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        wl = LongLivedWorkload(net, start_spread=0.0)
        sim.run(until=5.0)
        assert sum(s.segments_sent for s in wl.senders) > 100
        assert net.bottleneck_link.packets_delivered > 0

    def test_retransmit_accounting(self):
        sim = Simulator()
        net = make_dumbbell(sim, buffer_packets=5)  # force drops
        wl = LongLivedWorkload(net, start_spread=0.0)
        sim.run(until=10.0)
        assert sum(s.retransmits for s in wl.senders) > 0


class TestShortFlowWorkload:
    def test_for_load_sets_rate(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        wl = ShortFlowWorkload.for_load(net, load=0.5, sizes=FixedSize(10),
                                        rng=RngStreams(1).stream("a"))
        packet_bits = (wl.mss + TCP_HEADER_BYTES) * 8.0
        assert wl.arrival_rate == pytest.approx(
            0.5 * net.bottleneck_link.rate / (10 * packet_bits))

    def test_invalid_load(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        with pytest.raises(ConfigurationError):
            ShortFlowWorkload.for_load(net, load=1.5, sizes=FixedSize(10),
                                       rng=RngStreams(1).stream("a"))

    def test_flows_complete_and_record(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        collector = FctCollector()
        wl = ShortFlowWorkload.for_load(net, load=0.4, sizes=FixedSize(8),
                                        rng=RngStreams(2).stream("a"),
                                        on_complete=collector)
        wl.start()
        sim.run(until=20.0)
        assert wl.flows_started > 20
        assert wl.flows_completed > 20
        assert len(collector) == wl.flows_completed
        assert collector.afct > 0

    def test_t_stop_halts_arrivals(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        wl = ShortFlowWorkload.for_load(net, load=0.4, sizes=FixedSize(8),
                                        rng=RngStreams(3).stream("a"), t_stop=5.0)
        wl.start()
        sim.run(until=6.0)
        started_by_stop = wl.flows_started
        sim.run(until=30.0)
        assert wl.flows_started == started_by_stop

    def test_active_flows_drain(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        wl = ShortFlowWorkload.for_load(net, load=0.3, sizes=FixedSize(6),
                                        rng=RngStreams(4).stream("a"), t_stop=5.0)
        wl.start()
        sim.run(until=30.0)
        assert wl.flows_completed == wl.flows_started

    def test_throughput_close_to_offered_load(self):
        sim = Simulator()
        net = make_dumbbell(sim, n_pairs=8)
        wl = ShortFlowWorkload.for_load(net, load=0.5, sizes=FixedSize(10),
                                        rng=RngStreams(5).stream("a"))
        wl.start()
        sim.run(until=40.0)
        delivered = net.bottleneck_link.bytes_delivered * 8.0 / 40.0
        # Some tolerance: slow start ramping, ACK overhead excluded here.
        assert delivered == pytest.approx(0.5 * 10e6, rel=0.15)

    def test_start_twice_rejected(self):
        sim = Simulator()
        net = make_dumbbell(sim)
        wl = ShortFlowWorkload.for_load(net, load=0.3, sizes=FixedSize(6),
                                        rng=RngStreams(6).stream("a"))
        wl.start()
        with pytest.raises(ConfigurationError):
            wl.start()
