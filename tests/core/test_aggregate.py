"""Tests for the Gaussian aggregate-window model (Section 3)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AggregateWindowModel
from repro.core.aggregate import aggregate_window_std
from repro.errors import ModelError


class TestStd:
    def test_sqrt_n_scaling(self):
        """The headline: sigma shrinks as 1/sqrt(n)."""
        one = aggregate_window_std(1000, 0, 1)
        hundred = aggregate_window_std(1000, 0, 100)
        assert hundred == pytest.approx(one / 10.0)

    def test_formula(self):
        assert aggregate_window_std(1000, 0, 4) == pytest.approx(
            1000 / (3 * math.sqrt(3) * 2))

    def test_buffer_included_in_mean_window(self):
        assert aggregate_window_std(1000, 500, 4) > aggregate_window_std(1000, 0, 4)

    def test_validation(self):
        with pytest.raises(ModelError):
            aggregate_window_std(0, 0, 1)
        with pytest.raises(ModelError):
            aggregate_window_std(100, -1, 1)
        with pytest.raises(ModelError):
            aggregate_window_std(100, 0, 0)


class TestModel:
    def test_mean_below_ceiling(self):
        model = AggregateWindowModel(1000, 100, 100)
        assert model.mean < 1000 + 100
        assert model.mean > 1000  # but above the pipe for a sane buffer

    def test_utilization_increases_with_buffer(self):
        utils = [AggregateWindowModel(1000, b, 100).utilization()
                 for b in (0, 50, 100, 200)]
        assert utils == sorted(utils)

    def test_utilization_increases_with_flows(self):
        """At a fixed fraction of pipe/sqrt(n), more flows help."""
        utils = [AggregateWindowModel(1000, 1000 / math.sqrt(n), n).utilization()
                 for n in (16, 64, 256, 1024)]
        assert utils == sorted(utils)

    def test_sqrt_rule_buffer_gives_high_utilization(self):
        """B = pipe/sqrt(n) predicts ~99%+ utilization at scale."""
        model = AggregateWindowModel(1290, 129, 100)
        assert model.utilization() > 0.99

    def test_double_buffer_gives_near_full(self):
        model = AggregateWindowModel(1290, 258, 100)
        assert model.utilization() > 0.999

    @given(st.floats(100, 10_000), st.floats(0, 1000), st.integers(1, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_utilization_in_unit_interval(self, pipe, buffer_packets, n):
        util = AggregateWindowModel(pipe, buffer_packets, n).utilization()
        assert 0.0 <= util <= 1.0

    @given(st.integers(4, 4096))
    @settings(max_examples=50, deadline=None)
    def test_scale_free_in_sqrt_units(self, n):
        """Utilization at B = k * pipe/sqrt(n) is nearly n-independent
        only through sigma; verify the direct sigma ratio instead."""
        pipe = 1000.0
        model = AggregateWindowModel(pipe, pipe / math.sqrt(n), n)
        assert model.std == pytest.approx(
            (pipe + pipe / math.sqrt(n)) / (3 * math.sqrt(3) * math.sqrt(n)))
