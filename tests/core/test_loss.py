"""Tests for the loss-rate models (Section 5.1.1)."""


import pytest

from repro.core import average_window, loss_rate
from repro.core.loss import loss_rate_from_window
from repro.errors import ModelError


class TestMorrisLaw:
    def test_formula(self):
        assert loss_rate_from_window(10.0) == pytest.approx(0.0076)

    def test_smaller_window_more_loss(self):
        assert loss_rate_from_window(3.0) > loss_rate_from_window(30.0)

    def test_validation(self):
        with pytest.raises(ModelError):
            loss_rate_from_window(0.0)


class TestAverageWindow:
    def test_split_across_flows(self):
        assert average_window(1000, 200, 100) == 12.0

    def test_validation(self):
        with pytest.raises(ModelError):
            average_window(1000, 0, 0)


class TestCombined:
    def test_smaller_buffer_increases_loss(self):
        """The paper's trade-off: shrinking B raises the loss rate."""
        assert loss_rate(1000, 30, 100) > loss_rate(1000, 1000, 100)

    def test_more_flows_increase_loss(self):
        """More flows -> smaller per-flow windows -> more loss."""
        assert loss_rate(1000, 100, 400) > loss_rate(1000, 100, 25)

    def test_magnitude_sane(self):
        """At pipe/n ~ 13 packets (the paper's OC3, n=100), loss is sub-1%."""
        assert loss_rate(1290, 129, 100) < 0.01
