"""Degenerate-window guards and partial-window emission in utilization
metrics (aborted runs must yield NaN, not ZeroDivisionError/inf; the
trailing partial window must not be dropped)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.metrics import UtilizationMonitor, WindowedUtilizationProbe
from repro.net import Packet
from repro.net.link import Link
from repro.sim import Simulator


class Collector:
    def __init__(self, sim):
        self.sim = sim

    def receive(self, packet):
        pass


def make_packet():
    return Packet(src=1, dst=2, payload=960, header=40)


def build_link(sim):
    return Link(sim, rate="8Mbps", delay="0ms", dst=Collector(sim))


class TestZeroSpanGuard:
    def test_abort_exactly_at_window_start_yields_nan(self):
        sim = Simulator()
        link = build_link(sim)
        monitor = UtilizationMonitor(sim, link, t_start=1.0)
        # The run "aborts" at exactly t_start: the window opened but
        # accumulated zero span.
        sim.run(until=1.0)
        with pytest.warns(RuntimeWarning, match="nan"):
            assert math.isnan(monitor.utilization)
        with pytest.warns(RuntimeWarning, match="nan"):
            assert math.isnan(monitor.throughput_bps)

    def test_explicit_degenerate_close_yields_nan_not_inf(self):
        sim = Simulator()
        link = build_link(sim)
        sim.schedule(0.5, lambda: link.transmit(make_packet()))
        monitor = UtilizationMonitor(sim, link, t_start=1.0, t_end=2.0)
        sim.run(until=1.0)
        # Simulate a watchdog abort a hair past t_start: close by hand
        # with no span accumulated.
        monitor.t_end = monitor.t_start
        monitor._close()
        with pytest.warns(RuntimeWarning):
            util = monitor.utilization
        assert math.isnan(util)
        assert not math.isinf(util)

    def test_reading_before_start_still_rejected(self):
        sim = Simulator()
        link = build_link(sim)
        monitor = UtilizationMonitor(sim, link, t_start=1.0)
        with pytest.raises(ConfigurationError):
            _ = monitor.utilization

    def test_healthy_window_unaffected(self):
        sim = Simulator()
        link = build_link(sim)

        def send():
            if not link.busy:
                link.transmit(make_packet())  # 1ms serialization

        for i in range(100):
            sim.schedule(i * 0.004, send)  # 25% duty cycle
        monitor = UtilizationMonitor(sim, link, t_start=0.1, t_end=0.3)
        sim.run(until=0.5)
        assert monitor.utilization == pytest.approx(0.25, abs=0.02)


class TestPartialFinalWindow:
    def saturate(self, sim, link, until):
        def send():
            if sim.now < until and not link.busy:
                link.transmit(make_packet())  # 1ms each, back to back

        def pump():
            send()
            if sim.now < until:
                sim.schedule(0.001, pump)

        sim.schedule(0.0, pump)

    def test_trailing_partial_window_emitted(self):
        sim = Simulator()
        link = build_link(sim)
        self.saturate(sim, link, until=2.5)
        probe = WindowedUtilizationProbe(sim, link, period=1.0, t_end=2.5)
        sim.run(until=3.0)
        ends = [end for end, _ in probe.windows]
        assert ends == pytest.approx([1.0, 2.0, 2.5])
        # The partial window is scaled by its actual 0.5 s span: a busy
        # link still reads ~1.0, not ~0.5.
        assert probe.windows[-1][1] == pytest.approx(1.0, abs=0.05)

    def test_exact_multiple_unchanged(self):
        sim = Simulator()
        link = build_link(sim)
        self.saturate(sim, link, until=2.0)
        probe = WindowedUtilizationProbe(sim, link, period=1.0, t_end=2.0)
        sim.run(until=3.0)
        assert [end for end, _ in probe.windows] == pytest.approx([1.0, 2.0])

    def test_window_shorter_than_period(self):
        sim = Simulator()
        link = build_link(sim)
        self.saturate(sim, link, until=0.4)
        probe = WindowedUtilizationProbe(sim, link, period=1.0, t_end=0.4)
        sim.run(until=1.0)
        assert [end for end, _ in probe.windows] == pytest.approx([0.4])
        assert probe.windows[0][1] == pytest.approx(1.0, abs=0.1)
