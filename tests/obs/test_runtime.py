"""Tests for the observability runtime: lifecycle, registration, emits.

The live-experiment tests run the real long/short-flow runners under
``obs.observed()`` and check that the registered components and the
flight-recorder stream describe what actually happened.
"""

import pytest

from repro import obs
from repro.errors import SimulationStalledError
from repro.experiments.common import (
    run_long_flow_experiment,
    run_short_flow_experiment,
)
from repro.faults import FaultSchedule, LinkFlap
from repro.obs import runtime
from repro.traffic.sizes import FixedSize

SMALL = dict(n_flows=4, buffer_packets=10, pipe_packets=30.0,
             bottleneck_rate="10Mbps", warmup=1.0, duration=2.0, seed=3)


class TestLifecycle:
    def test_disabled_by_default(self):
        assert runtime.enabled is False
        assert obs.registry() is None
        assert obs.recorder() is None
        assert obs.snapshot() is None

    def test_enable_disable(self):
        obs.enable(capacity=16)
        assert runtime.enabled
        assert obs.recorder().capacity == 16
        assert obs.snapshot(now=2.0)["time"] == 2.0
        obs.disable()
        assert not runtime.enabled
        assert obs.recorder() is None

    def test_observed_scopes_and_yields_recorder(self):
        with obs.observed(kinds={"drop"}) as recorder:
            assert runtime.enabled
            assert recorder is obs.recorder()
            assert recorder.kinds == frozenset({"drop"})
        assert not runtime.enabled

    def test_observed_disables_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.observed():
                raise RuntimeError("boom")
        assert not runtime.enabled

    def test_emit_helpers_are_noops_while_disabled(self):
        # Call sites guard on the flag, but the helpers themselves must
        # also be safe if the flag flips mid-call sequence.
        runtime.fault_event(None, "nope")
        runtime.queue_event("drop", None, None, 0)

    def test_pool_registered_eagerly(self):
        with obs.observed():
            snap = obs.snapshot()
        assert "pool.packets" in snap["components"]
        assert "pool.reuse_ratio" in snap["counters"]


class TestQueueEvents:
    @pytest.mark.parametrize("burst", [True, False])
    def test_every_admission_records_one_enqueue(self, burst):
        # One cut through, two queued, two dropped: each admitted packet
        # (cut-through or queued) is one "enqueue" event, each drop one
        # "drop" event.  The cut-through reports the depth after its
        # admission, 1, as Queue.enqueue does on the reference path.
        from repro.net import DropTailQueue, Interface, Packet
        from repro.net.link import Link
        from repro.sim import Simulator

        with obs.observed(kinds={"enqueue", "drop"}) as recorder:
            sim = Simulator(burst=burst)
            sink = type("Sink", (), {"receive": lambda self, packet: None})()
            iface = Interface(sim, DropTailQueue(sim, capacity_packets=2),
                              Link(sim, rate="8Mbps", delay="0ms", dst=sink))
            for _ in range(5):
                iface.enqueue(Packet(src=1, dst=2, payload=960, header=40))
            sim.run()
            counts = recorder.counts_by_kind()
        assert counts == {"enqueue": 3, "drop": 2}
        assert [e["q"] for e in recorder.events()
                if e["kind"] == "enqueue"] == [1, 1, 2]


class TestLiveExperiment:
    def test_long_flow_components_and_counters(self):
        with obs.observed() as recorder:
            result = run_long_flow_experiment(**SMALL)
        snap = result.metrics
        assert snap is not None
        counters = snap["counters"]
        # The canonical names from the ISSUE all exist.
        for name in ("queue.drops", "tcp.retransmits", "timer.lazy_deferrals",
                     "pool.reuse_ratio", "sim.events_processed"):
            assert name in counters, name
        # Counters agree with the result the experiment itself reports.
        assert counters["sim.events_processed"] == result.events_processed
        flows = [c for c in snap["components"] if c.startswith("tcp.flow")]
        assert len(flows) == SMALL["n_flows"]
        # Interface labels propagated to queues and links.
        assert any(c.startswith("queue.bottleneck") for c in snap["components"])
        assert any(c.startswith("link.bottleneck") for c in snap["components"])
        # The recorder saw traffic, and per-packet enqueues dominate.
        counts = recorder.counts_by_kind()
        assert counts.get("enqueue", 0) > 100
        # Lazy timer deferrals happen on this path and are counted.
        assert counters["timer.lazy_deferrals"] > 0

    def test_drop_events_match_drop_counter(self):
        with obs.observed(kinds={"drop"}) as recorder:
            result = run_long_flow_experiment(**SMALL)
        dropped = result.metrics["counters"]["queue.drops"]
        assert dropped > 0  # 10-packet buffer on a 30-packet pipe drops
        assert recorder.recorded == dropped + \
            result.metrics["counters"].get("link.fault_drops", 0)

    def test_fault_transitions_recorded(self):
        faults = FaultSchedule([LinkFlap(at=1.5, duration=0.5)])
        with obs.observed(kinds={"fault", "link_down", "link_up"}) as recorder:
            result = run_long_flow_experiment(faults=faults, **SMALL)
        kinds = recorder.counts_by_kind()
        assert kinds.get("link_down") == 1
        assert kinds.get("link_up") == 1
        assert kinds.get("fault") == 2  # down + up schedule entries
        assert len(result.fault_log) == 2

    def test_short_flow_snapshot(self):
        with obs.observed():
            result = run_short_flow_experiment(
                load=0.5, buffer_packets=20, sizes=FixedSize(8),
                bottleneck_rate="10Mbps", rtt="40ms",
                warmup=1.0, duration=3.0, seed=2)
        assert result.metrics["counters"]["tcp.segments_sent"] > 0

    def test_crash_dump_on_watchdog_abort(self, tmp_path):
        dump = tmp_path / "crash.jsonl"
        with obs.observed(crash_dump_path=str(dump)):
            with pytest.raises(SimulationStalledError):
                run_long_flow_experiment(max_events=5000, **SMALL)
        events = obs.read_jsonl(str(dump))
        assert events  # the events leading up to the abort survived
        assert obs.validate_events(events) == len(events)

    def test_no_crash_dump_without_path(self):
        with obs.observed():
            assert obs.crash_dump() is None
