"""Tests for time-series tracing and probes."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim import Probe, Simulator, TimeSeries


class TestTimeSeries:
    def make(self):
        ts = TimeSeries("t")
        for time, value in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]:
            ts.append(time, value)
        return ts

    def test_len_and_iter(self):
        ts = self.make()
        assert len(ts) == 4
        assert list(ts) == [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]

    def test_time_must_not_go_backwards(self):
        ts = TimeSeries()
        ts.append(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            ts.append(0.5, 0.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries()
        ts.append(1.0, 0.0)
        ts.append(1.0, 1.0)
        assert len(ts) == 2

    def test_mean(self):
        assert self.make().mean() == 4.0

    def test_min_max(self):
        ts = self.make()
        assert ts.minimum() == 1.0
        assert ts.maximum() == 7.0

    def test_empty_stats_are_nan(self):
        ts = TimeSeries()
        assert math.isnan(ts.mean())
        assert math.isnan(ts.minimum())

    def test_slice(self):
        ts = self.make()
        sub = ts.slice(1.0, 2.0)
        assert list(sub) == [(1.0, 3.0), (2.0, 5.0)]

    def test_histogram(self):
        ts = TimeSeries()
        for i, v in enumerate([1.0, 1.0, 2.0, 9.0]):
            ts.append(float(i), v)
        edges, counts = ts.histogram(nbins=4)
        assert len(edges) == 5
        assert sum(counts) == 4

    def test_histogram_constant_series(self):
        ts = TimeSeries()
        ts.append(0.0, 5.0)
        ts.append(1.0, 5.0)
        edges, counts = ts.histogram()
        assert counts == [2]


class TestProbe:
    def test_samples_at_period(self):
        sim = Simulator()
        value = {"v": 0.0}
        probe = Probe(sim, lambda: value["v"], period=1.0)
        probe.start()
        sim.schedule(2.5, lambda: value.update(v=7.0))
        sim.run(until=4.0)
        # Samples at t = 0, 1, 2, 3, 4.
        assert probe.series.times == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert probe.series.values == [0.0, 0.0, 0.0, 7.0, 7.0]

    def test_start_delay(self):
        sim = Simulator()
        probe = Probe(sim, lambda: 1.0, period=1.0)
        probe.start(delay=2.0)
        sim.run(until=4.0)
        assert probe.series.times == [2.0, 3.0, 4.0]

    def test_stop(self):
        sim = Simulator()
        probe = Probe(sim, lambda: 1.0, period=1.0)
        probe.start()
        sim.schedule(2.5, probe.stop)
        sim.run(until=10.0)
        assert probe.series.times == [0.0, 1.0, 2.0]

    def test_bad_period(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Probe(sim, lambda: 0.0, period=0.0)

    def test_probe_stops_at_horizon_when_run_reentered(self):
        """Regression: a probe whose next tick was queued past a
        run(until=) pause must not resume sampling when the loop is
        re-entered for a later phase."""
        sim = Simulator()
        probe = Probe(sim, lambda: 1.0, period=1.0)
        probe.start(t_end=4.0)
        sim.run(until=4.0)
        assert probe.series.times == [0.0, 1.0, 2.0, 3.0, 4.0]
        # Second phase: the tick pending at t=5 surfaces, sees the
        # horizon, and shuts the probe down without recording.
        sim.run(until=20.0)
        assert probe.series.times == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert probe._event is None  # no further ticks queued

    def test_null_probe_schedules_nothing(self):
        """fn=None is the untraced fast path: zero sampling events."""
        sim = Simulator()
        probe = Probe(sim, None, period=0.5)
        probe.start()
        assert sim.pending() == 0
        sim.run(until=10.0)
        assert len(probe.series) == 0
        assert sim.events_processed == 0
