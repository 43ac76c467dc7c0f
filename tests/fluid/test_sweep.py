"""Tests for the fluid-model sweep helpers."""

import math

import pytest

from repro.errors import ModelError
from repro.fluid.sweep import fluid_min_buffer, fluid_utilization

FAST = dict(duration=60.0, warmup=30.0)


class TestFluidUtilization:
    def test_monotone_in_buffer(self):
        utils = [fluid_utilization(16, 400.0, b, **FAST) for b in (10, 50, 200)]
        assert utils == sorted(utils)

    def test_sync_worse_than_desync_at_small_buffer(self):
        b = 400.0 / math.sqrt(16)
        sync = fluid_utilization(16, 400.0, b, synchronized=True, **FAST)
        desync = fluid_utilization(16, 400.0, b, synchronized=False, **FAST)
        assert desync > sync

    def test_single_flow_special_case(self):
        assert fluid_utilization(1, 125.0, 125.0, rtt_mean=0.1,
                                 duration=100, warmup=40) > 0.99


class TestMinBuffer:
    def test_bisection_hits_target(self):
        b = fluid_min_buffer(16, 0.98, pipe_packets=400.0, **FAST)
        util = fluid_utilization(16, 400.0, b, **FAST)
        assert util >= 0.975  # within wobble of the target

    def test_higher_target_needs_more(self):
        low = fluid_min_buffer(16, 0.95, **FAST)
        high = fluid_min_buffer(16, 0.995, **FAST)
        assert high >= low

    def test_target_validated(self):
        with pytest.raises(ModelError):
            fluid_min_buffer(4, 1.5)

    def test_sync_mode_needs_more_than_desync(self):
        sync = fluid_min_buffer(16, 0.99, synchronized=True, **FAST)
        desync = fluid_min_buffer(16, 0.99, synchronized=False, **FAST)
        assert sync > desync
