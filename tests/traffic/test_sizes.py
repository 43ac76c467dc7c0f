"""Tests for flow-size distributions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.traffic import BoundedPareto, FixedSize, UniformSize


class TestFixedSize:
    def test_sample_constant(self):
        dist = FixedSize(14)
        rng = random.Random(0)
        assert all(dist.sample(rng) == 14 for _ in range(10))

    def test_mean(self):
        assert FixedSize(14).mean() == 14.0

    def test_probability_map(self):
        assert FixedSize(14).probability_map() == {14: 1.0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FixedSize(0)


class TestUniformSize:
    def test_bounds(self):
        dist = UniformSize(3, 9)
        rng = random.Random(1)
        samples = [dist.sample(rng) for _ in range(500)]
        assert min(samples) >= 3
        assert max(samples) <= 9

    def test_mean_matches_samples(self):
        dist = UniformSize(2, 30)
        rng = random.Random(2)
        samples = [dist.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(dist.mean(), rel=0.02)

    def test_probability_map_sums_to_one(self):
        pmap = UniformSize(1, 10).probability_map()
        assert sum(pmap.values()) == pytest.approx(1.0)
        assert len(pmap) == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UniformSize(5, 4)


class TestBoundedPareto:
    def test_bounds_respected(self):
        dist = BoundedPareto(shape=1.2, minimum=2, maximum=100)
        rng = random.Random(3)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert min(samples) >= 2
        assert max(samples) <= 100

    def test_heavy_tail_shape(self):
        """Smaller shape -> heavier tail -> larger mean."""
        heavy = BoundedPareto(shape=1.1, minimum=2, maximum=10_000)
        light = BoundedPareto(shape=2.0, minimum=2, maximum=10_000)
        assert heavy.mean() > light.mean()

    def test_analytic_mean_matches_samples(self):
        dist = BoundedPareto(shape=1.3, minimum=2, maximum=500)
        rng = random.Random(4)
        n = 100_000
        empirical = sum(dist.sample(rng) for _ in range(n)) / n
        assert empirical == pytest.approx(dist.mean(), rel=0.05)

    def test_shape_one_special_case(self):
        dist = BoundedPareto(shape=1.0, minimum=2, maximum=500)
        assert dist.mean() > 2

    def test_most_flows_are_small(self):
        dist = BoundedPareto(shape=1.2, minimum=2, maximum=10_000)
        rng = random.Random(5)
        samples = [dist.sample(rng) for _ in range(5000)]
        small = sum(1 for s in samples if s < 20)
        assert small / len(samples) > 0.7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedPareto(shape=0.0)
        with pytest.raises(ConfigurationError):
            BoundedPareto(shape=1.2, minimum=10, maximum=10)

    @given(st.floats(0.8, 3.0), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_samples_always_in_bounds(self, shape, minimum):
        dist = BoundedPareto(shape=shape, minimum=minimum, maximum=minimum + 100)
        rng = random.Random(0)
        for _ in range(50):
            value = dist.sample(rng)
            assert minimum <= value <= minimum + 100


class TestGenericProbabilityMap:
    def test_sampled_map_close_to_truth(self):
        """The default sampling-based probability_map approximates the mean."""
        dist = UniformSize(1, 50)
        pmap = FlowSizeDistributionProxy(dist).probability_map()
        mean = sum(size * prob for size, prob in pmap.items())
        assert mean == pytest.approx(dist.mean(), rel=0.05)

    def test_default_map_is_deterministic(self):
        dist = FlowSizeDistributionProxy(UniformSize(1, 50))
        assert dist.probability_map() == dist.probability_map()

    def test_injected_rng_controls_sampling(self):
        import random
        dist = FlowSizeDistributionProxy(UniformSize(1, 50))
        a = dist.probability_map(rng=random.Random(7))
        b = dist.probability_map(rng=random.Random(7))
        c = dist.probability_map(rng=random.Random(8))
        assert a == b
        assert a != c


class FlowSizeDistributionProxy:
    """Wrap a distribution but force the generic sampling probability_map."""

    def __init__(self, inner):
        self.inner = inner

    def sample(self, rng):
        return self.inner.sample(rng)

    def probability_map(self, cap=10_000, rng=None):
        from repro.traffic.sizes import FlowSizeDistribution
        return FlowSizeDistribution.probability_map(self, cap, rng)
