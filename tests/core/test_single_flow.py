"""Tests for the Section 2 single-flow AIMD model."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SingleFlowModel
from repro.errors import ModelError


class TestGeometry:
    def test_w_max_is_pipe_plus_buffer(self):
        model = SingleFlowModel(100, 50)
        assert model.w_max == 150
        assert model.w_after_loss == 75

    def test_validation(self):
        with pytest.raises(ModelError):
            SingleFlowModel(0, 10)
        with pytest.raises(ModelError):
            SingleFlowModel(10, -1)


class TestUtilization:
    def test_full_at_rule_of_thumb(self):
        assert SingleFlowModel(100, 100).utilization() == 1.0

    def test_full_above_rule_of_thumb(self):
        assert SingleFlowModel(100, 250).utilization() == 1.0

    def test_classic_three_quarters_at_zero_buffer(self):
        assert SingleFlowModel(100, 0).utilization() == pytest.approx(0.75, abs=0.01)

    def test_monotone_in_buffer(self):
        utils = [SingleFlowModel(100, b).utilization() for b in (0, 25, 50, 75, 100)]
        assert utils == sorted(utils)

    def test_known_half_buffer_value(self):
        """B = P/2: a = 0.75P; util = ((1-0.5625)/2 + (2.25-1)/2) /
        ((0.25) + 1.25/2)."""
        model = SingleFlowModel(100, 50)
        delivered = (100 ** 2 - 75 ** 2) / 2 + (150 ** 2 - 100 ** 2) / 2
        offered = (100 - 75) * 100 + (150 ** 2 - 100 ** 2) / 2
        assert model.utilization() == pytest.approx(delivered / offered)

    @given(st.floats(1.0, 10_000.0), st.floats(0.0, 10_000.0))
    @settings(max_examples=100, deadline=None)
    def test_utilization_bounds_property(self, pipe, buffer_packets):
        util = SingleFlowModel(pipe, buffer_packets).utilization()
        assert 0.74 <= util <= 1.0  # never below the B=0 floor

    @given(st.floats(1.0, 1000.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, pipe):
        """Utilization depends only on B/P."""
        a = SingleFlowModel(pipe, 0.3 * pipe).utilization()
        b = SingleFlowModel(10 * pipe, 3 * pipe).utilization()
        assert a == pytest.approx(b, rel=1e-9)
