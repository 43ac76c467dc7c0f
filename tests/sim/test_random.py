"""Tests for named RNG streams."""

from repro.sim import RngStreams


class TestRngStreams:
    def test_same_name_same_object(self):
        streams = RngStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_different_sequences(self):
        streams = RngStreams(1)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        a = RngStreams(42).stream("rtt").random()
        b = RngStreams(42).stream("rtt").random()
        assert a == b

    def test_master_seed_changes_streams(self):
        a = RngStreams(1).stream("x").random()
        b = RngStreams(2).stream("x").random()
        assert a != b

    def test_new_stream_does_not_perturb_existing(self):
        """Adding a consumer must not change other streams' draws."""
        streams1 = RngStreams(7)
        r1 = streams1.stream("flows")
        first = r1.random()

        streams2 = RngStreams(7)
        streams2.stream("jitter").random()  # extra consumer created first
        r2 = streams2.stream("flows")
        assert r2.random() == first
