"""Tests for the measurement layer."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.metrics import FctCollector, QueueMonitor, UtilizationMonitor, WindowTracker
from repro.net import DropTailQueue, Packet
from repro.net.link import Link
from repro.sim import Simulator
from repro.tcp.flow import FlowRecord


class Collector:
    def __init__(self, sim):
        self.sim = sim

    def receive(self, packet):
        pass


def make_packet():
    return Packet(src=1, dst=2, payload=960, header=40)


class TestUtilizationMonitor:
    def build(self, sim):
        return Link(sim, rate="8Mbps", delay="0ms", dst=Collector(sim))

    def test_measures_known_duty_cycle(self):
        sim = Simulator()
        link = self.build(sim)

        def send():
            if not link.busy:
                link.transmit(make_packet())  # 1ms serialization

        for i in range(100):
            sim.schedule(i * 0.004, send)  # 25% duty cycle
        monitor = UtilizationMonitor(sim, link, t_start=0.1, t_end=0.3)
        sim.run(until=0.5)
        assert monitor.utilization == pytest.approx(0.25, abs=0.02)

    def test_excludes_outside_window(self):
        sim = Simulator()
        link = self.build(sim)

        def burst():
            if not link.busy:
                link.transmit(make_packet())

        # Traffic only before the window.
        for i in range(50):
            sim.schedule(i * 0.001, burst)
        monitor = UtilizationMonitor(sim, link, t_start=0.2, t_end=0.4)
        sim.run(until=0.5)
        assert monitor.utilization == pytest.approx(0.0, abs=1e-6)

    def test_throughput(self):
        sim = Simulator()
        link = self.build(sim)

        def send():
            if not link.busy:
                link.transmit(make_packet())

        for i in range(300):
            sim.schedule(i * 0.002, send)  # 1ms packet every 2ms: half rate
        monitor = UtilizationMonitor(sim, link, t_start=0.05, t_end=0.25)
        sim.run(until=0.6)
        assert monitor.throughput_bps == pytest.approx(4e6, rel=0.03)

    def test_open_ended_window(self):
        sim = Simulator()
        link = self.build(sim)
        monitor = UtilizationMonitor(sim, link, t_start=0.0)
        sim.schedule(0.05, lambda: link.transmit(make_packet()))
        sim.run(until=0.2)
        assert monitor.utilization == pytest.approx(0.001 / 0.2, rel=0.05)

    def test_bad_window_rejected(self):
        sim = Simulator()
        link = self.build(sim)
        with pytest.raises(ConfigurationError):
            UtilizationMonitor(sim, link, t_start=1.0, t_end=0.5)

    def test_reading_before_start_rejected(self):
        sim = Simulator()
        link = self.build(sim)
        monitor = UtilizationMonitor(sim, link, t_start=1.0)
        with pytest.raises(ConfigurationError):
            _ = monitor.utilization


class TestQueueMonitor:
    def test_drop_accounting_windowed(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=1)

        def offer():
            queue.enqueue(make_packet())

        # 2 arrivals before window (1 drop), 2 inside (2 drops: queue full).
        sim.schedule(0.1, offer)
        sim.schedule(0.2, offer)
        sim.schedule(1.1, offer)
        sim.schedule(1.2, offer)
        monitor = QueueMonitor(sim, queue, t_start=1.0, t_end=2.0)
        sim.run(until=3.0)
        assert monitor.arrivals == 2
        assert monitor.drops == 2
        assert monitor.loss_rate == 1.0

    def test_occupancy_series(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=100)
        for i in range(5):
            sim.schedule(0.1 * i, lambda: queue.enqueue(make_packet()))
        monitor = QueueMonitor(sim, queue, sample_period=0.05, t_start=0.0,
                               t_end=1.0)
        sim.run(until=1.0)
        assert monitor.max_occupancy() == 5
        # The t=0 sample may tie with the first enqueue (FIFO order puts
        # the earlier-scheduled enqueue first), so the minimum is 0 or 1.
        assert monitor.min_occupancy() <= 1

    def test_mean_occupancy_weights_each_level_by_its_duration(self):
        """Sampling off the event instants, the mean occupancy weights
        each queue level by how long it held: 2 packets for 1 s, 1 for
        1 s, 0 for 2 s is (2 + 1 + 0) / 4 = 0.75."""
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=10)

        def fill():
            queue.enqueue(make_packet())
            queue.enqueue(make_packet())

        sim.schedule(0.0, fill)
        sim.schedule(1.0, queue.dequeue)
        sim.schedule(2.0, queue.dequeue)
        monitor = QueueMonitor(sim, queue, sample_period=0.25, t_start=0.125,
                               t_end=4.0)
        sim.run(until=4.0)
        assert len(monitor.series) == 16
        assert monitor.mean_occupancy() == pytest.approx(0.75)

    def test_loss_rate_nan_without_arrivals(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=1)
        monitor = QueueMonitor(sim, queue, sample_period=None, t_end=1.0)
        sim.run(until=2.0)
        assert monitor.arrivals == 0
        assert math.isnan(monitor.loss_rate)


def record(flow_id=1, size=10, start=1.0, end=2.0, retx=0, timeouts=0):
    return FlowRecord(flow_id=flow_id, size_packets=size, start_time=start,
                      end_time=end, retransmits=retx, timeouts=timeouts)


class TestFctCollector:
    def test_afct(self):
        collector = FctCollector()
        collector(record(start=0.0, end=1.0))
        collector(record(start=0.0, end=3.0))
        assert collector.afct == 2.0

    def test_window_filtering(self):
        collector = FctCollector(t_start=1.0, t_end=2.0)
        collector(record(start=0.5, end=1.0))   # too early
        collector(record(start=1.5, end=2.5))   # inside
        collector(record(start=2.5, end=3.0))   # too late
        assert len(collector) == 1
        assert collector.ignored == 2

    def test_percentiles(self):
        collector = FctCollector()
        for i in range(1, 11):
            collector(record(start=0.0, end=float(i)))
        assert collector.percentile(0.0) == 1.0
        assert collector.percentile(1.0) == 10.0
        assert collector.percentile(0.5) == pytest.approx(5.5)

    def test_empty_is_nan(self):
        collector = FctCollector()
        assert math.isnan(collector.afct)
        assert math.isnan(collector.percentile(0.5))

    def test_loss_accounting(self):
        collector = FctCollector()
        collector(record(retx=0))
        collector(record(retx=3))
        assert collector.flows_with_loss == 1

class FakeSender:
    """Stands in for TcpSender in WindowTracker tests."""

    def __init__(self, value=10.0):
        self.completed = False
        self.cc = type("CC", (), {"cwnd": value})()


class TestWindowTracker:
    def test_aggregate_sums_senders(self):
        sim = Simulator()
        senders = [FakeSender(5.0), FakeSender(7.0)]
        tracker = WindowTracker(sim, senders, period=0.1, t_start=0.0)
        sim.run(until=1.0)
        assert tracker.aggregate.values[0] == 12.0

    def test_completed_senders_count_zero(self):
        sim = Simulator()
        sender = FakeSender(5.0)
        tracker = WindowTracker(sim, [sender, FakeSender(3.0)], period=0.1)
        sim.schedule(0.5, lambda: setattr(sender, "completed", True))
        sim.run(until=1.0)
        assert tracker.aggregate.values[-1] == 3.0

    def test_gaussian_fit_on_synthetic_noise(self):
        sim = Simulator()
        import random
        rng = random.Random(1)
        sender = FakeSender(0.0)
        tracker = WindowTracker(sim, [sender, FakeSender(0.0)], period=0.01)

        def wiggle():
            sender.cc.cwnd = rng.gauss(100.0, 5.0)
            sim.schedule(0.01, wiggle)

        sim.schedule(0.0, wiggle)
        sim.run(until=50.0)
        fit = tracker.fit_gaussian()
        assert fit.mean == pytest.approx(100.0, abs=1.0)
        assert fit.std == pytest.approx(5.0, abs=1.0)
        assert fit.ks_distance < 0.05

    def test_sync_index_extremes(self):
        import random
        rng = random.Random(2)

        # Perfectly synchronized: both windows identical.
        sim = Simulator()
        a, b = FakeSender(0.0), FakeSender(0.0)
        tracker = WindowTracker(sim, [a, b], period=0.01)

        def lockstep():
            v = rng.gauss(50.0, 10.0)
            a.cc.cwnd = v
            b.cc.cwnd = v
            sim.schedule(0.01, lockstep)

        sim.schedule(0.0, lockstep)
        sim.run(until=20.0)
        assert tracker.synchronization_index() > 0.9

        # Independent windows.
        sim2 = Simulator()
        c, d = FakeSender(0.0), FakeSender(0.0)
        tracker2 = WindowTracker(sim2, [c, d], period=0.01)

        def independent():
            c.cc.cwnd = rng.gauss(50.0, 10.0)
            d.cc.cwnd = rng.gauss(50.0, 10.0)
            sim2.schedule(0.01, independent)

        sim2.schedule(0.0, independent)
        sim2.run(until=20.0)
        assert tracker2.synchronization_index() < 0.2

    def test_peak_to_trough(self):
        sim = Simulator()
        sender = FakeSender(10.0)
        tracker = WindowTracker(sim, [sender], period=0.1)
        sim.schedule(0.35, lambda: setattr(sender.cc, "cwnd", 30.0))
        sim.run(until=1.0)
        assert tracker.peak_to_trough() == 20.0

    def test_single_flow_sync_is_nan(self):
        sim = Simulator()
        tracker = WindowTracker(sim, [FakeSender(5.0)], period=0.1)
        sim.run(until=1.0)
        assert math.isnan(tracker.synchronization_index())

    def test_per_flow_series_optional(self):
        sim = Simulator()
        tracker = WindowTracker(sim, [FakeSender(5.0), FakeSender(6.0)],
                                period=0.1, keep_per_flow=True)
        sim.run(until=0.5)
        assert len(tracker.per_flow) == 2
        assert tracker.per_flow[0].values[0] == 5.0
