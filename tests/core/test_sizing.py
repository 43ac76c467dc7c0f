"""Tests for the sizing facade: the rules and the recommendation."""

import math

import pytest

from repro.core import (
    SingleFlowModel,
    average_window,
    loss_rate,
    loss_rate_from_window,
    predicted_utilization,
    recommend_buffer,
    rule_of_thumb_bytes,
    rule_of_thumb_packets,
    small_buffer_bytes,
    small_buffer_packets,
)
from repro.errors import ModelError


class TestRuleOfThumb:
    def test_paper_headline_10g(self):
        """250ms x 10Gb/s = 2.5 Gbit = 312.5 MB."""
        assert rule_of_thumb_bytes("250ms", "10Gbps") == pytest.approx(312.5e6)

    def test_packets(self):
        assert rule_of_thumb_packets("100ms", "10Mbps", packet_bytes=1000) == pytest.approx(125)

    def test_oc3_paper_value(self):
        """The paper's Table 10 note: rule-of-thumb ~ 1291 packets."""
        # OC3 at 155.52 Mb/s payload rate with ~80 ms RTT and 1500B pkts
        # is ~1291; with the round numbers used here it is the same order.
        pkts = rule_of_thumb_packets("80ms", "155Mbps", packet_bytes=1200)
        assert 1000 < pkts < 1300

    def test_validation(self):
        with pytest.raises(ModelError):
            rule_of_thumb_packets("100ms", "10Mbps", packet_bytes=0)


class TestSmallBufferRule:
    def test_sqrt_reduction(self):
        big = rule_of_thumb_bytes("250ms", "2.5Gbps")
        small = small_buffer_bytes("250ms", "2.5Gbps", 10_000)
        assert small == pytest.approx(big / 100.0)

    def test_paper_headline_99_percent(self):
        """10,000 flows -> 99% smaller buffers."""
        saving = 1 - small_buffer_bytes("250ms", "2.5Gbps", 10_000) / \
            rule_of_thumb_bytes("250ms", "2.5Gbps")
        assert saving == pytest.approx(0.99)

    def test_paper_headline_10g_50k_flows(self):
        """10Gb/s with 50,000 flows needs ~10 Mbit."""
        nbytes = small_buffer_bytes("250ms", "10Gbps", 50_000)
        assert nbytes * 8 == pytest.approx(11.2e6, rel=0.3)  # ~10 Mbit

    def test_one_flow_equals_rule_of_thumb(self):
        assert small_buffer_bytes("100ms", "10Mbps", 1) == \
            rule_of_thumb_bytes("100ms", "10Mbps")

    def test_validation(self):
        with pytest.raises(ModelError):
            small_buffer_bytes("100ms", "10Mbps", 0)


class TestRecommendation:
    def test_long_flows_only(self):
        rec = recommend_buffer(capacity="2.5Gbps", rtt="250ms", n_long_flows=10_000)
        assert rec.rule == "long-flows"
        assert rec.buffer_packets == pytest.approx(
            small_buffer_packets("250ms", "2.5Gbps", 10_000))
        assert math.isnan(rec.short_flow_packets)

    def test_short_flows_only(self):
        rec = recommend_buffer(capacity="1Gbps", rtt="100ms",
                               short_flow_load=0.8)
        assert rec.rule == "short-flows"
        assert math.isnan(rec.long_flow_packets)
        assert rec.buffer_packets > 0

    def test_long_flows_dominate_mixes(self):
        """Section 5.1.3: with plenty of long flows the long-flow rule
        wins on a big link."""
        rec = recommend_buffer(capacity="2.5Gbps", rtt="250ms",
                               n_long_flows=10_000, short_flow_load=0.3)
        assert rec.rule == "long-flows"

    def test_short_flow_rule_can_dominate_when_n_is_huge(self):
        """With very many long flows the sqrt(n) term can fall below the
        short-flow floor — the recommendation takes the max."""
        rec = recommend_buffer(capacity="100Mbps", rtt="20ms",
                               n_long_flows=1_000_000, short_flow_load=0.9)
        assert rec.rule == "short-flows"
        assert rec.buffer_packets == pytest.approx(rec.short_flow_packets)

    def test_savings_headline(self):
        rec = recommend_buffer(capacity="2.5Gbps", rtt="250ms", n_long_flows=10_000)
        assert rec.savings_vs_rule_of_thumb == pytest.approx(0.99)

    def test_summary_mentions_rule(self):
        rec = recommend_buffer(capacity="1Gbps", rtt="100ms", n_long_flows=100)
        assert "long-flows" in rec.summary()

    def test_bytes_consistent_with_packets(self):
        rec = recommend_buffer(capacity="1Gbps", rtt="100ms", n_long_flows=100,
                               packet_bytes=1500)
        assert rec.buffer_bytes == pytest.approx(rec.buffer_packets * 1500)

    def test_needs_some_traffic(self):
        with pytest.raises(ModelError):
            recommend_buffer(capacity="1Gbps", rtt="100ms")

    def test_negative_flows_rejected(self):
        with pytest.raises(ModelError):
            recommend_buffer(capacity="1Gbps", rtt="100ms", n_long_flows=-1)

    def test_custom_flow_mix(self):
        rec = recommend_buffer(capacity="1Gbps", rtt="100ms",
                               short_flow_load=0.8,
                               short_flow_sizes={30: 1.0}, max_window=12)
        assert rec.rule == "short-flows"


NAN, INF = math.nan, math.inf


class TestNonFiniteInputs:
    """nan passes every ``x < bound`` guard, so each formula checks
    finiteness itself and names the argument it refuses."""

    @pytest.mark.parametrize("call, argument", [
        (lambda: small_buffer_packets("100ms", "10Gbps", INF), "n_flows"),
        (lambda: small_buffer_packets("100ms", "10Gbps", NAN), "n_flows"),
        (lambda: predicted_utilization(pipe_packets=1000, buffer_packets=100,
                                       n_flows=NAN), "n_flows"),
        (lambda: predicted_utilization(pipe_packets=1000, buffer_packets=NAN,
                                       n_flows=10), "buffer_packets"),
        (lambda: predicted_utilization(pipe_packets=NAN, buffer_packets=100,
                                       n_flows=10), "pipe_packets"),
        (lambda: recommend_buffer(capacity="10Gbps", rtt="100ms",
                                  n_long_flows=NAN), "n_long_flows"),
        (lambda: recommend_buffer(capacity="10Gbps", rtt="100ms",
                                  n_long_flows=INF), "n_long_flows"),
        (lambda: loss_rate_from_window(NAN), "window_packets"),
        (lambda: loss_rate(INF, 10, 4), "pipe_packets"),
        (lambda: average_window(100, NAN, 4), "buffer_packets"),
        (lambda: SingleFlowModel(100, NAN), "buffer_packets"),
        (lambda: loss_rate_from_window(INF), "window_packets"),
        (lambda: loss_rate(100, NAN, 4), "buffer_packets"),
        (lambda: loss_rate(100, 10, NAN), "n_flows"),
        (lambda: average_window(NAN, 10, 4), "pipe_packets"),
        (lambda: average_window(100, 10, INF), "n_flows"),
        (lambda: SingleFlowModel(NAN, 10), "pipe_packets"),
        (lambda: SingleFlowModel(INF, 10), "pipe_packets"),
    ], ids=["small-buffer-n-inf", "small-buffer-n-nan", "utilization-n-nan",
            "utilization-buffer-nan", "utilization-pipe-nan",
            "recommend-n-nan", "recommend-n-inf", "loss-window-nan",
            "loss-pipe-inf", "average-window-buffer-nan",
            "single-flow-buffer-nan", "loss-window-inf", "loss-buffer-nan",
            "loss-n-nan", "average-window-pipe-nan", "average-window-n-inf",
            "single-flow-pipe-nan", "single-flow-pipe-inf"])
    def test_is_a_model_error_naming_the_argument(self, call, argument):
        with pytest.raises(ModelError, match=f"^{argument} must be finite"):
            call()
