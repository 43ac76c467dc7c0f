"""Hostile numbers through the closed-form formulas of ``repro.__all__``.

Every call ends one of two ways: every number it returns is finite, or
it raises :class:`~repro.errors.ModelError` / :class:`~repro.errors.UnitError`.
nan, the infinities, negatives, zero, subnormals and values near the
float ceiling are drawn on purpose: nan passes every ``x < bound``
guard, and a sum or a square of two large finite inputs overflows.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ModelError, UnitError

EDGES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e-300, 0.5,
         1.0, 2.0, 1e150, 1e300, 1e308)

#: Any float, with the edge cases drawn far more often than chance would.
hostile = st.one_of(st.sampled_from(EDGES), st.floats())

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def numbers(value):
    """Every number in a result: a number, or lists of them."""
    if isinstance(value, list):
        return [x for item in value for x in numbers(item)]
    return [value]


def ends_well(call):
    """``call()`` returns finite numbers or raises a typed model error."""
    try:
        result = call()
    except (ModelError, UnitError):
        return
    bad = [x for x in numbers(result) if not math.isfinite(x)]
    assert not bad, f"non-finite result {result!r}"


class TestSizingRules:
    @FUZZ
    @given(rtt=hostile, capacity=hostile, n=hostile, packet=hostile)
    def test_rules(self, rtt, capacity, n, packet):
        ends_well(lambda: repro.rule_of_thumb_bytes(rtt, capacity))
        ends_well(lambda: repro.rule_of_thumb_packets(rtt, capacity, packet))
        ends_well(lambda: repro.small_buffer_bytes(rtt, capacity, n))
        ends_well(lambda: repro.small_buffer_packets(rtt, capacity, n, packet))

    @FUZZ
    @given(rtt=hostile, capacity=hostile, n=hostile, load=hostile)
    def test_recommend_buffer(self, rtt, capacity, n, load):
        def call():
            # long_flow_packets / short_flow_packets are NaN by design
            # for a traffic class that is absent.
            rec = repro.recommend_buffer(capacity=capacity, rtt=rtt,
                                         n_long_flows=n, short_flow_load=load)
            return [rec.buffer_packets, rec.buffer_bytes,
                    rec.rule_of_thumb_packets]
        ends_well(call)


class TestModels:
    @FUZZ
    @given(pipe=hostile, buffer=hostile, n=hostile)
    def test_aggregate_window_model(self, pipe, buffer, n):
        def call():
            model = repro.AggregateWindowModel(pipe, buffer, n)
            return [model.std, model.mean, model.utilization()]
        ends_well(call)
        ends_well(lambda: repro.predicted_utilization(pipe, buffer, n))

    @FUZZ
    @given(target=hostile, pipe=hostile, n=hostile)
    def test_buffer_for_utilization(self, target, pipe, n):
        ends_well(lambda: repro.buffer_for_utilization(target, pipe, n))

    @FUZZ
    @given(pipe=hostile, buffer=hostile)
    def test_single_flow_model(self, pipe, buffer):
        def call():
            model = repro.SingleFlowModel(pipe, buffer)
            return [model.w_max, model.w_after_loss, model.utilization()]
        ends_well(call)

    @FUZZ
    @given(load=hostile, target=hostile)
    def test_short_flow_model(self, load, target):
        ends_well(lambda: repro.ShortFlowModel(load, {14: 1.0})
                  .required_buffer(target))

    @FUZZ
    @given(pipe=hostile, buffer=hostile, n=hostile)
    def test_loss_rate(self, pipe, buffer, n):
        ends_well(lambda: repro.loss_rate(pipe, buffer, n))


class TestMemory:
    @FUZZ
    @given(rate=hostile, size=hostile, packet=hostile)
    def test_memory_plans(self, rate, size, packet):
        ends_well(lambda: repro.min_packet_interarrival(rate, packet))

        def call():
            return [[plan.chips, plan.access_budget]
                    for plan in repro.plan_buffer_memory(rate, size,
                                                         packet_bytes=packet)]
        ends_well(call)

    @FUZZ
    @given(bits=hostile, access=hostile, speedup=hostile, years=hostile)
    def test_memory_technology(self, bits, access, speedup, years):
        ends_well(lambda: repro.MemoryTechnology(
            "x", chip_bits=bits, access_time=access, annual_speedup=speedup)
            .access_time_in(years))


@pytest.mark.parametrize("call, argument", [
    (lambda: repro.AggregateWindowModel(1e308, 1e308, 1e308),
     "pipe_packets \\+ buffer_packets"),
    (lambda: repro.SingleFlowModel(1e308, 1e308),
     "pipe_packets \\+ buffer_packets"),
], ids=["aggregate-overflow", "single-flow-overflow"])
def test_overflowing_sums_are_refused(call, argument):
    with pytest.raises(ModelError, match=f"^{argument} must be"):
        call()
