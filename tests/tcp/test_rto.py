"""Tests for RTT estimation and RTO computation."""

import pytest

from repro.errors import ConfigurationError
from repro.tcp import RtoEstimator
from repro.tcp.rto import INITIAL_RTO, MAX_BACKOFF, MAX_RTO


class TestRtoEstimator:
    def test_initial_rto_before_samples(self):
        est = RtoEstimator()
        assert est.rto == INITIAL_RTO == 1.0

    def test_first_sample_seeds_srtt(self):
        est = RtoEstimator()
        est.sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)
        assert est.rto == pytest.approx(max(0.1 + 4 * 0.05, 0.2))

    def test_smoothing_converges(self):
        est = RtoEstimator()
        for _ in range(200):
            est.sample(0.1)
        assert est.srtt == pytest.approx(0.1, rel=1e-3)
        assert est.rttvar == pytest.approx(0.0, abs=1e-3)

    def test_min_rto_clamp(self):
        est = RtoEstimator(min_rto=0.2)
        for _ in range(100):
            est.sample(0.01)
        assert est.rto == 0.2

    def test_max_rto_clamp(self):
        est = RtoEstimator()
        est.sample(100.0)
        assert est.rto == MAX_RTO == 60.0

    def test_backoff_doubles(self):
        est = RtoEstimator()
        est.sample(0.1)
        base = est.rto
        est.on_timeout()
        assert est.rto == pytest.approx(min(base * 2, MAX_RTO))
        est.on_timeout()
        assert est.rto == pytest.approx(min(base * 4, MAX_RTO))

    def test_backoff_capped(self):
        est = RtoEstimator()
        for _ in range(20):
            est.on_timeout()
        assert est.backoff == MAX_BACKOFF == 64

    def test_sample_clears_backoff(self):
        est = RtoEstimator()
        est.sample(0.1)
        est.on_timeout()
        est.sample(0.1)
        assert est.backoff == 1

    def test_progress_clears_backoff_without_sample(self):
        # Karn's algorithm can suppress sampling indefinitely (every
        # window contains a retransmission); an advancing cumulative
        # ACK must still collapse the backoff or the flow crawls at
        # one backed-off timeout per segment.
        est = RtoEstimator()
        est.sample(0.1)
        base = est.rto
        for _ in range(4):
            est.on_timeout()
        assert est.backoff == 16
        est.on_progress()
        assert est.backoff == 1
        assert est.rto == pytest.approx(base)

    def test_variance_reacts_to_jitter(self):
        est = RtoEstimator()
        est.sample(0.1)
        for rtt in (0.05, 0.15, 0.05, 0.15):
            est.sample(rtt)
        assert est.rttvar > 0.01

    def test_nonpositive_sample_rejected(self):
        est = RtoEstimator()
        with pytest.raises(ConfigurationError):
            est.sample(0.0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            RtoEstimator(min_rto=MAX_RTO + 1.0)
