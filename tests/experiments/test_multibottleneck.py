"""Tests for the multi-bottleneck extension experiment."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.multibottleneck import run_multibottleneck


class TestMultiBottleneck:
    @pytest.fixture(scope="class")
    def result(self):
        return run_multibottleneck(
            n_e2e=4, n_cross_per_hop=12, link_rate="10Mbps",
            warmup=12.0, duration=20.0, seed=31)

    def test_one_utilization_per_backbone_hop(self, result):
        assert len(result.hop_utilizations) == 2

    def test_links_stay_busy_with_sqrt_buffers(self, result):
        """The paper's per-link rule keeps working across hops."""
        for util in result.hop_utilizations:
            assert util > 0.85

    def test_e2e_flows_disadvantaged(self, result):
        """Multi-hop flows get less than their 1/(n+1) fair share —
        the known unfairness, not a buffer-sizing failure."""
        assert result.e2e_progress < result.cross_progress

    def test_share_is_a_fraction(self, result):
        assert 0.0 < result.e2e_throughput_share < 0.5

    def test_cross_traffic_fair_among_itself(self, result):
        assert result.fairness_within_cross > 0.7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_multibottleneck(n_e2e=0)
        with pytest.raises(ConfigurationError):
            run_multibottleneck(duration=0.0)
