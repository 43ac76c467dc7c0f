"""Tests for drop-tail and RED queues."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net import DropTailQueue, Packet, REDQueue
from repro.sim import Simulator


def make_packet(size=1000):
    return Packet(src=1, dst=2, payload=size - 40, header=40)


class TestDropTail:
    def test_accepts_until_capacity(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=3)
        assert all(queue.enqueue(make_packet()) for _ in range(3))
        assert not queue.enqueue(make_packet())
        assert len(queue) == 3
        assert queue.drops == 1

    def test_fifo_order(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=10)
        packets = [make_packet() for _ in range(3)]
        for pkt in packets:
            queue.enqueue(pkt)
        assert [queue.dequeue() for _ in range(3)] == packets

    def test_dequeue_empty_returns_none(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=1)
        assert queue.dequeue() is None

    def test_needs_some_capacity(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            DropTailQueue(sim)

    def test_unbounded_explicit(self):
        sim = Simulator()
        queue = DropTailQueue(sim, unbounded=True)
        for _ in range(10_000):
            assert queue.enqueue(make_packet())
        assert queue.drops == 0

    def test_counters(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=2)
        for _ in range(4):
            queue.enqueue(make_packet())
        queue.dequeue()
        assert queue.arrivals == 4
        assert queue.drops == 2
        assert queue.departures == 1
        assert queue.bytes_in == 4000
        assert queue.bytes_out == 1000
        assert queue.bytes_dropped == 2000

    def test_peak_tracking(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=10)
        for _ in range(4):
            queue.enqueue(make_packet())
        queue.dequeue()
        assert queue.peak_packets == 4

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            DropTailQueue(sim, capacity_packets=0)


class TestRed:
    def make_queue(self, sim, capacity=100, **kwargs):
        return REDQueue(sim, capacity_packets=capacity,
                        rng=random.Random(1), **kwargs)

    def test_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            REDQueue(sim, capacity_packets=10)

    def test_no_drops_below_min_threshold(self):
        sim = Simulator()
        queue = self.make_queue(sim, capacity=100, min_thresh=25, max_thresh=75)
        for _ in range(20):
            assert queue.enqueue(make_packet())
        assert queue.drops == 0

    def test_early_drops_above_min_threshold(self):
        sim = Simulator()
        queue = self.make_queue(sim, capacity=1000, min_thresh=5, max_thresh=15,
                                max_p=0.5, weight=0.5)
        outcomes = [queue.enqueue(make_packet()) for _ in range(200)]
        assert queue.early_drops > 0
        assert not all(outcomes)

    def test_forced_drop_when_full(self):
        sim = Simulator()
        queue = self.make_queue(sim, capacity=5, min_thresh=1000, max_thresh=2000)
        for _ in range(10):
            queue.enqueue(make_packet())
        assert queue.forced_drops > 0
        assert len(queue) == 5

    def test_average_tracks_queue(self):
        sim = Simulator()
        queue = self.make_queue(sim, capacity=100, weight=0.5)
        for _ in range(10):
            queue.enqueue(make_packet())
        assert queue.avg > 0

    def test_threshold_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            self.make_queue(sim, min_thresh=50, max_thresh=10)

    def test_max_p_validation(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            self.make_queue(sim, max_p=0.0)

    def test_gentle_mode_drops_everything_past_twice_max(self):
        sim = Simulator()
        queue = self.make_queue(sim, capacity=10_000, min_thresh=2,
                                max_thresh=4, weight=1.0)
        for _ in range(50):
            queue.enqueue(make_packet())
        # With weight 1 the average equals the instantaneous queue, which
        # is way past 2*max_thresh: everything new is dropped.
        assert not queue.enqueue(make_packet())
