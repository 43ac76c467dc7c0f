"""The paper's central claims, one test per statement, on real runs.

Each test names a statement of the paper and asserts the report claims
that carry it.  The claims and their thresholds are written once, in
``repro.experiments.report.SECTIONS``; the runs are those of
``tests/integration/test_report_claims.py`` (``TIER1``, ``quick``'s
seeds), computed once per session and shared with it.
"""

import pytest

from repro.experiments import report
from tests.integration.test_report_claims import real_section


def assert_claims(claims, *phrases):
    """The one claim whose text contains each phrase must hold."""
    for phrase in phrases:
        [claim] = [c for c in claims if phrase in c.text]
        assert claim.holds, f"{claim.text}: {claim.measured}"


def assert_section(key, *phrases):
    _, rendered = real_section(key)
    assert_claims(rendered.claims, *phrases)


class TestSection2SingleFlow:
    """Figures 2-5: the rule-of-thumb is exactly right for one flow."""

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_sim_matches_closed_form(self, fraction):
        traces, _ = real_section("fig2")
        [trace] = [t for t in traces if t.buffer_fraction == fraction]
        assert_claims(report.SECTIONS["fig2"].claims([trace]),
                      "Section 2 closed form")

    def test_rule_of_thumb_is_the_knee(self):
        """Full utilization at B = RTTC; measurable loss below it."""
        assert_section("fig2", "keeps the link", "every B < RTT·C")

    def test_overbuffering_adds_delay_not_throughput(self):
        assert_section("fig2", "overbuffering buys", "a standing queue",
                       "the minimum queue is")


class TestSection3ManyFlows:
    """The sqrt(n) rule for desynchronized long flows."""

    def test_sqrt_n_buffer_achieves_high_utilization(self):
        assert_section("table10", "at 1x at the largest n")

    def test_double_sqrt_buffer_is_near_full(self):
        assert_section("table10", "at 2x at the largest n")

    def test_aggregate_window_is_gaussian(self):
        """Figure 6: K-S distance of Sum(W_i) from its normal fit is small."""
        assert_section("fig6", "K-S distance")

    def test_more_flows_need_smaller_buffers(self):
        """Statistical multiplexing: the minimum buffer falls as n grows."""
        assert_section("fig7", "falls")

    def test_synchronization_declines_with_n(self):
        """In-phase synchronization, in its worst case (identical RTTs,
        simultaneous starts), is strong at few flows and fades with n."""
        assert_section("fig6", "lower at the largest n", "at the smallest n")

    def test_rtt_spread_desynchronizes(self):
        """"Small variations in RTT ... are sufficient to prevent
        synchronization"."""
        assert_section("fig6", "with spread RTTs")


class TestSection4ShortFlows:
    """Short-flow buffering depends on load, not on the line rate or RTT."""

    def test_same_buffer_works_across_line_rates(self):
        assert_section("fig8", "every rate meets the AFCT criterion",
                       "across the rate range")

    def test_higher_load_needs_more_buffer(self):
        assert_section("fig8", "higher load drops more")

    def test_buffer_requirement_independent_of_rtt(self):
        assert_section("fig8", "longer RTT")


class TestSection5Mixes:
    """Figure 9: small buffers help short flows."""

    def test_small_buffers_speed_up_short_flows(self):
        assert_section("fig9", "finish sooner", "mean queue")

    def test_large_buffer_buys_little_utilization(self):
        assert_section("fig9", "buys <")
