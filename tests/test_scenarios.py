"""Tests for the canonical link profiles."""

import pytest

from repro.scenarios import (
    OC3,
    OC48,
    PROFILES,
)


class TestProfiles:
    def test_registry_complete(self):
        assert {"T3", "OC3", "OC12", "OC48", "OC192", "10GbE"} == set(PROFILES)

    def test_oc48_headline(self):
        """The paper's 2.5Gb/s example: 78125-packet rule-of-thumb,
        ~781 packets under the sqrt(n) rule at 10k flows."""
        assert OC48.pipe_packets() == pytest.approx(78125.0)
        assert OC48.small_buffer_packets(10_000) == pytest.approx(781.25)

    def test_typical_flows_default(self):
        explicit = OC3.small_buffer_packets(OC3.typical_flows)
        implicit = OC3.small_buffer_packets()
        assert explicit == implicit

    def test_describe_mentions_rule(self):
        text = OC48.describe()
        assert "OC48" in text
        assert "sqrt(n)" in text

    def test_rates_parse(self):
        for profile in PROFILES.values():
            assert profile.rate_bps > 0
