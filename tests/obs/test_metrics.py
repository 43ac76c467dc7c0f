"""Unit tests for repro.obs.metrics: typed metrics and the registry."""

import json

import pytest

from repro.errors import ObsError, ReproError
from repro.obs import Counter, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("drops")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_cannot_decrease(self):
        c = Counter("drops")
        with pytest.raises(ObsError, match="cannot decrease"):
            c.inc(-1)
        assert c.value == 0

    def test_obs_error_is_a_repro_error(self):
        # CLI/experiment error handling catches ReproError; obs faults
        # must flow through the same funnel.
        assert issubclass(ObsError, ReproError)


class FakeQueue:
    """Stand-in component with the counter fields a reader reports."""

    def __init__(self, drops=0, arrivals=0):
        self.drops = drops
        self.arrivals = arrivals


def fake_reader(q):
    return {"drops": q.drops, "arrivals": q.arrivals, "completed": False}


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        reg.counter("x").inc(3)
        assert reg.snapshot()["counters"]["x"] == 3

    def test_component_aggregation_sums_per_kind(self):
        reg = MetricsRegistry()
        reg.register("queue", FakeQueue(drops=2, arrivals=10), fake_reader)
        reg.register("queue", FakeQueue(drops=3, arrivals=20), fake_reader)
        snap = reg.snapshot(now=1.5)
        assert snap["time"] == 1.5
        assert snap["counters"]["queue.drops"] == 5
        assert snap["counters"]["queue.arrivals"] == 30
        # Booleans are not counters; they stay per-component only.
        assert "queue.completed" not in snap["counters"]
        assert snap["components"]["queue.queue1"]["drops"] == 2
        assert snap["components"]["queue.queue2"]["drops"] == 3

    def test_explicit_label_and_relabel(self):
        reg = MetricsRegistry()
        q = FakeQueue()
        reg.register("queue", q, fake_reader, label="bottleneck")
        assert "queue.bottleneck" in reg.snapshot()["components"]
        reg.relabel(q, "bn:fwd")
        assert "queue.bn:fwd" in reg.snapshot()["components"]
        assert reg.label_of(q) == "bn:fwd"

    def test_relabel_unregistered_object_is_noop(self):
        reg = MetricsRegistry()
        reg.relabel(FakeQueue(), "ghost")
        assert reg.snapshot()["components"] == {}

    def test_label_of_assigns_anonymous_labels(self):
        reg = MetricsRegistry()
        a, b = FakeQueue(), FakeQueue()
        first, second = reg.label_of(a), reg.label_of(b)
        assert first != second
        assert reg.label_of(a) == first  # stable on repeat lookups

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.register("queue", FakeQueue(drops=1), fake_reader)
        reg.counter("tcp.retransmits").inc(2)
        snap = json.loads(json.dumps(reg.snapshot(now=0.0)))
        assert snap["version"] == 1
        assert snap["counters"]["tcp.retransmits"] == 2
