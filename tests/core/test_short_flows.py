"""Tests for the short-flow buffer rule (Section 4)."""


import pytest

from repro.core import ShortFlowModel
from repro.errors import ModelError


class TestBufferRule:
    def test_rate_and_rtt_absent(self):
        """The paper's key claim: the bound has no rate/RTT/flow count."""
        model = ShortFlowModel(load=0.8, flow_sizes={14: 1.0})
        b = model.required_buffer()
        # Nothing about the link was specified beyond its load.
        assert b > 0

    def test_higher_load_needs_more(self):
        low = ShortFlowModel(load=0.5, flow_sizes={14: 1.0}).required_buffer()
        high = ShortFlowModel(load=0.9, flow_sizes={14: 1.0}).required_buffer()
        assert high > low

    def test_longer_flows_need_more(self):
        """Longer flows reach bigger slow-start bursts."""
        short = ShortFlowModel(load=0.8, flow_sizes={6: 1.0}).required_buffer()
        longer = ShortFlowModel(load=0.8, flow_sizes={62: 1.0}).required_buffer()
        assert longer > short

    def test_max_window_caps_requirement(self):
        uncapped = ShortFlowModel(load=0.8, flow_sizes={500: 1.0}).required_buffer()
        capped = ShortFlowModel(load=0.8, flow_sizes={500: 1.0},
                                max_window=12).required_buffer()
        assert capped < uncapped

    def test_hundreds_of_packets_scale(self):
        """"typically in the order of hundreds of packets" at high load
        with real window caps."""
        model = ShortFlowModel(load=0.9, flow_sizes={80: 1.0}, max_window=43)
        assert 10 < model.required_buffer() < 1000

    def test_load_validated(self):
        with pytest.raises(ModelError):
            ShortFlowModel(load=1.0, flow_sizes={14: 1.0})
