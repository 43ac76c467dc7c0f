"""Tests for Link timing and accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.net import Packet, build_dumbbell
from repro.net.link import Link
from repro.sim import Simulator
from repro.tcp import TcpFlow


class Collector:
    """Minimal node: records (time, packet) arrivals."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_packet(size=1000):
    return Packet(src=1, dst=2, payload=size - 40, header=40)


class TestLink:
    @pytest.mark.parametrize("size,rate,seconds", [
        (1000, "8Mbps", 0.001),
        (40, "10Mbps", 32e-6),
        (1500, "1Gbps", 12e-6),
    ])
    def test_serialization_time(self, size, rate, seconds):
        """One packet keeps the link busy for size * 8 / rate and, with
        no propagation delay, lands exactly then."""
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, rate=rate, delay="0ms", dst=sink)
        link.transmit(make_packet(size))
        sim.run()
        assert link.busy_time == pytest.approx(seconds)
        assert sink.arrivals[0][0] == pytest.approx(seconds)

    def test_delivery_time_is_tx_plus_propagation(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, rate="8Mbps", delay="10ms", dst=sink)
        link.transmit(make_packet(1000))
        sim.run()
        assert sink.arrivals[0][0] == pytest.approx(0.001 + 0.010)

    def test_on_idle_fires_at_end_of_serialization(self):
        sim = Simulator()
        link = Link(sim, rate="8Mbps", delay="10ms", dst=Collector(sim))
        idle_at = []
        link.transmit(make_packet(1000), on_idle=lambda: idle_at.append(sim.now))
        sim.run()
        assert idle_at == [pytest.approx(0.001)]

    def test_busy_while_serializing(self):
        sim = Simulator()
        link = Link(sim, rate="8Mbps", delay="0ms", dst=Collector(sim))
        link.transmit(make_packet())
        assert link.busy
        sim.run()
        assert not link.busy

    def test_transmit_while_busy_rejected(self):
        sim = Simulator()
        link = Link(sim, rate="8Mbps", delay="0ms", dst=Collector(sim))
        link.transmit(make_packet())
        with pytest.raises(ConfigurationError):
            link.transmit(make_packet())

    def test_hop_count_increments(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, rate="8Mbps", delay="0ms", dst=sink)
        pkt = make_packet()
        link.transmit(pkt)
        sim.run()
        assert pkt.hops == 1

    def test_counters(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, rate="8Mbps", delay="0ms", dst=sink)
        link.transmit(make_packet(1000))
        sim.run()
        assert link.packets_delivered == 1
        assert link.bytes_delivered == 1000

    def test_busy_time_accumulates(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, rate="8Mbps", delay="5ms", dst=sink)
        link.transmit(make_packet(1000))
        sim.run()
        assert link.busy_time == pytest.approx(0.001)

    def test_utilization_fraction(self):
        sim = Simulator()
        sink = Collector(sim)
        link = Link(sim, rate="8Mbps", delay="0ms", dst=sink)

        def send():
            if not link.busy:
                link.transmit(make_packet(1000))

        for i in range(5):
            sim.schedule(i * 0.002, send)  # one 1ms packet every 2ms
        sim.run(until=0.010)
        assert link.busy_time / 0.010 == pytest.approx(0.5)

    def test_missing_destination_rejected(self):
        sim = Simulator()
        link = Link(sim, rate="8Mbps", delay="0ms")
        with pytest.raises(ConfigurationError):
            link.transmit(make_packet())


class _CountingSimulator(Simulator):
    """Counts scheduling calls against raw backend inserts."""

    def __init__(self, **opts):
        super().__init__(**opts)
        self.scheduled = 0
        self.pushed = 0
        push = self._push

        def counting_push(time, event):
            self.pushed += 1
            push(time, event)

        self._push = counting_push

    def schedule(self, delay, callback, *args):
        self.scheduled += 1
        return super().schedule(delay, callback, *args)

    def call_at(self, time, callback, *args):
        self.scheduled += 1
        return super().call_at(time, callback, *args)


class TestReferencePath:
    def test_oracle_runs_no_hand_inlined_scheduling(self):
        """With ``fastpath=False`` every backend entry arrives through
        ``schedule``/``call_at`` (``Timer`` arms via ``call_at``): the
        engine the fast path is checked against shares none of its
        inlined event construction."""
        sim = _CountingSimulator(fastpath=False)
        net = build_dumbbell(sim, n_pairs=2, bottleneck_rate="10Mbps",
                             buffer_packets=5, rtts=["20ms"])
        for sender, receiver in net.flow_pairs():
            TcpFlow(sim, sender, receiver, size_packets=None)
        sim.run(until=2.0)
        assert net.bottleneck_queue.drops > 0  # admit and drop paths ran
        assert sim.pushed == sim.scheduled > 0
