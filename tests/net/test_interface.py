"""Tests for the Interface queue+link pump."""

import random

import pytest

from repro.net import DropTailQueue, Interface, Packet, REDQueue
from repro.net.link import Link
from repro.sim import Simulator
from tests.tcp.helpers import ScriptedDropQueue


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_packet():
    return Packet(src=1, dst=2, payload=960, header=40)


def make_interface(sim, capacity=4, rate="8Mbps", delay="0ms"):
    sink = Collector(sim)
    queue = DropTailQueue(sim, capacity_packets=capacity)
    link = Link(sim, rate=rate, delay=delay, dst=sink)
    return Interface(sim, queue, link), sink


class TestInterface:
    def test_single_packet_flows_through(self):
        sim = Simulator()
        iface, sink = make_interface(sim)
        assert iface.enqueue(make_packet())
        sim.run()
        assert len(sink.arrivals) == 1

    def test_back_to_back_serialization(self):
        """Packets leave exactly one serialization time apart."""
        sim = Simulator()
        iface, sink = make_interface(sim, capacity=10)
        for _ in range(3):
            iface.enqueue(make_packet())
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times == [pytest.approx(0.001), pytest.approx(0.002), pytest.approx(0.003)]

    def test_overflow_drops_and_keeps_order(self):
        sim = Simulator()
        iface, sink = make_interface(sim, capacity=2)
        packets = [make_packet() for _ in range(5)]
        results = [iface.enqueue(pkt) for pkt in packets]
        # First is pulled to the wire immediately, two buffered, rest dropped.
        assert results == [True, True, True, False, False]
        sim.run()
        assert [pkt for _, pkt in sink.arrivals] == packets[:3]

    def test_backlog_excludes_packet_on_wire(self):
        sim = Simulator()
        iface, _sink = make_interface(sim, capacity=10)
        iface.enqueue(make_packet())
        assert len(iface.queue) == 0  # on the wire, not in queue
        iface.enqueue(make_packet())
        assert len(iface.queue) == 1
        assert iface.queue.byte_occupancy == 1000

    def test_pump_resumes_after_idle(self):
        sim = Simulator()
        iface, sink = make_interface(sim, capacity=10)
        iface.enqueue(make_packet())
        sim.run()
        iface.enqueue(make_packet())  # arrives after the link went idle
        sim.run()
        assert len(sink.arrivals) == 2


class CountingQueue(DropTailQueue):
    """Counts the arrivals offered to its ``enqueue``."""

    calls = 0

    def enqueue(self, packet):
        self.calls += 1
        return super().enqueue(packet)


class TestQueueSubclass:
    @pytest.mark.parametrize("burst", [True, False])
    def test_overridden_enqueue_sees_every_arrival(self, burst):
        sim = Simulator(burst=burst)
        sink = Collector(sim)
        queue = CountingQueue(sim, capacity_packets=10)
        iface = Interface(sim, queue,
                          Link(sim, rate="8Mbps", delay="0ms", dst=sink))
        for _ in range(3):
            iface.enqueue(make_packet())
        sim.run()
        assert queue.calls == 3
        assert len(sink.arrivals) == 3


class TestCutThroughGuard:
    @pytest.mark.parametrize("burst", [True, False])
    def test_injector_attached_mid_run_sees_every_arrival(self, burst):
        # _cut is decided at construction from what cannot change (the
        # engine, the queue's class); injectors can, so a cut-through
        # interface must still hand them every later arrival.
        sim = Simulator(burst=burst)
        iface, sink = make_interface(sim, capacity=10)
        assert iface._cut
        seen = []
        packets = [make_packet() for _ in range(6)]
        # 10 ms apart: the link (1 ms per packet) is idle at each arrival.
        for i, packet in enumerate(packets):
            sim.call_at(0.01 * i, iface.enqueue, packet)
        sim.call_at(0.015, iface.queue.add_injector,
                    lambda packet: seen.append(packet))
        sim.run()
        assert seen == packets[2:]
        assert [pkt for _, pkt in sink.arrivals] == packets


class HesitantQueue(DropTailQueue):
    """Declines its second dequeue while still holding packets."""

    calls = 0

    def dequeue(self):
        self.calls += 1
        if self.calls == 2:
            return None
        return super().dequeue()


class TestIdleCallback:
    """The idle callback exists only where the link can stop with
    packets waiting: not over a self-feeding exact DropTailQueue.
    (``idle_calls`` is the repo-wide fixture in tests/conftest.py.)"""

    @pytest.mark.parametrize("burst", [True, False])
    def test_default_interface_never_calls_back(self, idle_calls, burst):
        sim = Simulator(burst=burst)
        iface, sink = make_interface(sim, capacity=10)
        for _ in range(3):
            iface.enqueue(make_packet())
        sim.run()
        iface.enqueue(make_packet())  # cut-through on the idle link
        sim.run()
        assert len(sink.arrivals) == 4
        assert idle_calls == []

    @pytest.mark.parametrize("make_sim,make_queue", [
        (lambda: Simulator(fastpath=False),
         lambda sim: DropTailQueue(sim, capacity_packets=10)),
        (Simulator,
         lambda sim: REDQueue(sim, capacity_packets=10,
                              rng=random.Random(1))),
        (Simulator,
         lambda sim: ScriptedDropQueue(sim, capacity_packets=10,
                                       drop_seqs=())),
    ], ids=["fastpath-off", "red", "scripted-drop"])
    def test_everyone_else_still_registers_it(self, idle_calls, make_sim,
                                              make_queue):
        sim = make_sim()
        sink = Collector(sim)
        iface = Interface(sim, make_queue(sim),
                          Link(sim, rate="8Mbps", delay="0ms", dst=sink))
        iface.enqueue(make_packet())
        sim.run()
        assert len(sink.arrivals) == 1
        assert idle_calls == [iface]

    @pytest.mark.parametrize("burst", [True, False])
    def test_declined_dequeue_is_pumped_at_idle(self, idle_calls, burst):
        sim = Simulator(burst=burst)
        sink = Collector(sim)
        iface = Interface(sim, HesitantQueue(sim, capacity_packets=10),
                          Link(sim, rate="8Mbps", delay="0ms", dst=sink))
        packets = [make_packet() for _ in range(3)]
        for packet in packets:
            iface.enqueue(packet)
        sim.run()
        # The link's own refill was declined at the first serialization
        # end; only the idle callback can have restarted it.
        assert [pkt for _, pkt in sink.arrivals] == packets
        assert idle_calls[0] is iface
