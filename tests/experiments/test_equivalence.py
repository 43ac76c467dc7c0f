"""Optimized and unoptimized engine paths must be bit-identical.

The hot-path layer (lazy timers, heap compaction, packet pooling, probe
fast paths) is pure mechanism: it must never change what the simulation
computes.  These tests pin that guarantee on the paper's own scenarios
by comparing full result fingerprints across engine configurations.
"""

import dataclasses
import hashlib
import json
import os
from functools import lru_cache, partial

import pytest

from repro import obs
from repro.errors import InvariantViolation
from repro.experiments import common
from repro.experiments.afct_comparison import run_mixed_experiment
from repro.experiments.common import (
    run_long_flow_experiment,
    run_short_flow_experiment,
)
from repro.experiments.multibottleneck import run_multibottleneck
from repro.experiments.production_network import production_table
from repro.experiments.single_flow import run_single_flow
from repro.faults import CorruptionBurst, FaultSchedule, LinkFlap
from repro.net.node import Host
from repro.net.packet import pooled_packets
from repro.sim import TimeSeries
from repro.traffic.sizes import FixedSize

LONG = dict(n_flows=6, buffer_packets=20, pipe_packets=60.0,
            bottleneck_rate="10Mbps", warmup=4.0, duration=8.0, seed=5)
SHORT = dict(load=0.5, buffer_packets=40, bottleneck_rate="10Mbps",
             warmup=2.0, duration=6.0, seed=5)


#: Scheduler x burst combinations the default engine (heap, bursting)
#: must agree with bit-for-bit.
VARIANTS = (
    {"burst": False},
    {"scheduler": "calendar"},
    {"scheduler": "calendar", "burst": False},
)


def fingerprint(result, strip_metrics=False):
    """``strip_metrics`` drops the snapshot an obs-enabled run attaches
    by design; identity with tracing on is judged on everything else."""
    fields = dataclasses.asdict(result)
    if strip_metrics:
        del fields["metrics"]
    return json.dumps(fields, sort_keys=True, default=repr)


def run_long(**overrides):
    params = dict(LONG)
    params.update(overrides)
    return run_long_flow_experiment(**params)


def run_short(**overrides):
    params = dict(SHORT, sizes=FixedSize(14))
    params.update(overrides)
    return run_short_flow_experiment(**params)


def run_faulted(**overrides):
    """A link flap, then a corruption burst, on the bottleneck."""
    faults = FaultSchedule([
        LinkFlap(target="bottleneck", at=3.0, duration=0.5),
        CorruptionBurst(target="bottleneck", at=4.0, duration=1.0,
                        probability=0.05)])
    return run_long(faults=faults, warmup=2.0, duration=4.0, **overrides)


def traced(run, **kwargs):
    """``run`` under obs: its fingerprint and every event it recorded,
    of every kind.  The ring holds a Figure-1 run (75 k events) whole."""
    with obs.observed(capacity=1 << 18) as recorder:
        result = run(**kwargs)
        assert not recorder.truncated
        return fingerprint(result, strip_metrics=True), recorder.events()


#: Between them these free packets at every ``release()`` call site:
#: ``Host.receive``'s delivery and ``Queue._drop`` (all of them),
#: ``Host._dispatch`` (host jitter), ``Link._count_fault_drop`` and the
#: corrupted branch of ``Host.receive`` (the fault run, traced so that a
#: drop event read off a released packet shows too).
POOL_SCENARIOS = {
    "figure1": lambda **kw: fingerprint(run_long(**kw)),
    "figure7_cell": lambda **kw: fingerprint(run_long(buffer_packets=8, **kw)),
    "short_flows": lambda **kw: fingerprint(run_short(**kw)),
    "host_jitter": lambda **kw: fingerprint(run_long(
        proc_jitter_mean=0.0005, warmup=2.0, duration=4.0, **kw)),
    "flap_and_corruption": partial(traced, run_faulted),
}


@lru_cache(maxsize=None)
def reference(scenario):
    """The unoptimized run, which never pools; computed once a session."""
    return POOL_SCENARIOS[scenario](optimize=False)


class TestOptimizedMatchesUnoptimized:
    def test_long_flow_figure1(self):
        assert fingerprint(run_long(optimize=True)) == reference("figure1")

    def test_long_flow_with_window_tracking(self):
        """Probes and window sampling ride the trace fast path."""
        assert fingerprint(run_long(optimize=True, track_windows=True)) == \
               fingerprint(run_long(optimize=False, track_windows=True))

    def test_figure7_style_grid_cells(self):
        """A small slice of the Figure-7 buffer sweep, both modes."""
        for buffer_packets in (8, 20, 40):
            a = run_long(optimize=True, buffer_packets=buffer_packets)
            b = run_long(optimize=False, buffer_packets=buffer_packets)
            assert fingerprint(a) == fingerprint(b), buffer_packets

    def test_short_flow(self):
        assert fingerprint(run_short(optimize=True)) == reference("short_flows")

    def test_obs_event_stream_is_engine_independent(self):
        """Every obs event, enqueues included, is the same under both
        engines: the cut-through hop reports the depth after admission,
        as ``Queue.enqueue`` does on the reference path."""
        assert traced(run_long, optimize=True) == \
            traced(run_long, optimize=False)

    @pytest.mark.parametrize("scenario", POOL_SCENARIOS)
    def test_poisoned_pool_changes_nothing(self, scenario):
        """In debug mode ``release()`` poisons every field of the packet
        it frees, so a read of a released packet moves the result (or,
        in the traced run, an obs event)."""
        with pooled_packets(debug=True):
            poisoned = POOL_SCENARIOS[scenario](optimize=True)
        assert poisoned == reference(scenario)

    @pytest.mark.parametrize("run", [run_long, run_short],
                             ids=["long", "short"])
    def test_default_engine_never_enters_the_idle_callback(
            self, idle_calls, run):
        """Every default dumbbell link feeds itself from an exact
        DropTailQueue, so no interface registers an idle callback —
        and leaving it out changes nothing the reference computes."""
        default = run(optimize=True)
        assert idle_calls == []
        reference = run(optimize=False)
        assert idle_calls  # fastpath=False round-trips through it
        assert default.events_processed == reference.events_processed
        assert fingerprint(default) == fingerprint(reference)


class TestCalendarBackendEquivalence:
    """Both backends, bursting on or off, must match bit-for-bit.

    ``engine_opts={"scheduler": "calendar"}`` lets the runner derive the
    bucket width from the bottleneck serialization time; the explicit-
    width variants stress widths that force zero-delay same-bucket ties
    and overflow-ladder traffic.  Each scenario also runs once with the
    flight recorder on: tracing must not perturb what is computed.
    """

    @staticmethod
    def assert_all_variants_match(run, **params):
        plain = run(**params)
        reference = fingerprint(plain)
        for engine_opts in VARIANTS:
            assert fingerprint(run(engine_opts=engine_opts, **params)) \
                == reference, (engine_opts, params)
        with obs.observed():
            traced = run(**params)
        assert traced.metrics is not None
        assert fingerprint(traced, strip_metrics=True) \
            == fingerprint(plain, strip_metrics=True), params

    def test_long_flow_figure1(self):
        self.assert_all_variants_match(run_long)

    def test_figure7_style_grid_cells(self):
        for buffer_packets in (8, 20, 40):
            self.assert_all_variants_match(
                run_long, buffer_packets=buffer_packets)

    def test_short_flow(self):
        self.assert_all_variants_match(run_short)

    def test_unoptimized_calendar_matches_optimized_heap(self):
        """Backend choice and engine mode are orthogonal: the reference
        engine on the calendar backend still reproduces the optimized
        heap run exactly."""
        heap = run_long(optimize=True)
        cal = run_long(optimize=False,
                       engine_opts={"scheduler": "calendar"})
        assert fingerprint(heap) == fingerprint(cal)

    def test_pathological_bucket_widths(self):
        """A too-coarse and a too-fine wheel change only the constants:
        one packs ties into shared buckets, the other spills most
        timers to the overflow ladder."""
        reference = fingerprint(run_long())
        for width, buckets in ((0.5, 8), (1e-5, 64)):
            cal = run_long(engine_opts={
                "scheduler": "calendar", "bucket_width": width,
                "wheel_buckets": buckets})
            assert fingerprint(cal) == reference, (width, buckets)


class TestCompactionEquivalence:
    def test_results_identical_compaction_on_off(self):
        on = run_long(engine_opts={"compact_min": 32})
        off = run_long(engine_opts={"compaction": False})
        assert fingerprint(on) == fingerprint(off)

    def test_lazy_timers_on_off(self):
        lazy = run_long(engine_opts={"lazy_timers": True})
        eager = run_long(engine_opts={"lazy_timers": False})
        assert fingerprint(lazy) == fingerprint(eager)


class TestTimerChurnHygiene:
    def test_long_run_keeps_dead_fraction_bounded(self):
        """TCP retransmission timers re-arm on every ACK; with lazy
        deferral plus compaction the heap must stay mostly live."""
        stats = {}

        def capture(sim):
            stats["compactions"] = sim.compactions
            stats["heap_size"] = sim.heap_size
            stats["pending"] = sim.pending()

        run_long(engine_opts={"compact_min": 32}, on_sim=capture)
        dead = stats["heap_size"] - stats["pending"]
        assert dead <= max(stats["pending"], 32)

    def test_churn_results_survive_aggressive_compaction(self):
        aggressive = run_long(engine_opts={"compact_min": 16})
        relaxed = run_long(engine_opts={"compact_min": 4096})
        assert fingerprint(aggressive) == fingerprint(relaxed)


#: The four artefacts that used to drive a bare ``Simulator()`` by hand,
#: at a scale of well under a second each, with the result digest
#: recorded from the last commit that did (eb1670c).
ARTEFACTS = {
    "single_flow": ("19990582e94b6bb4", lambda: run_single_flow(
        1.0, pipe_packets=40, bottleneck_rate="5Mbps",
        warmup=8.0, duration=12.0)),
    "mixed": ("95564d6412f05d53", lambda: run_mixed_experiment(
        16, n_long=8, pipe_packets=60.0, bottleneck_rate="10Mbps",
        warmup=4.0, duration=8.0, n_short_pairs=4)),
    "production": ("9e498f3ebba8ecd7", lambda: production_table(
        buffers=(40, 12), bottleneck_rate="10Mbps", n_concurrent=40,
        warmup=3.0, duration=6.0, n_pairs=16, n_long=10)),
    "multibottleneck": ("25b8c447fa1be47a", lambda: run_multibottleneck(
        n_e2e=3, n_cross_per_hop=6, link_rate="10Mbps",
        warmup=4.0, duration=8.0)),
}


def digest(result):
    """Short sha256 over every field of a result, traces included."""
    def fields(value):  # json's fallback: a trace or a result dataclass
        return ([value.times, value.values] if isinstance(value, TimeSeries)
                else vars(value))

    text = json.dumps(result, sort_keys=True, default=fields)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture
def sims(monkeypatch):
    """Every simulator ``common._make_simulator`` hands out, in order."""
    made = []
    real = common._make_simulator

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(common, "_make_simulator", recording)
    return made


@pytest.fixture
def broken_mid_run(monkeypatch):
    """Every world entering ``run_world`` loses count of a packet at
    t = 2.5 s: a host claims one more send than it made."""
    real = common.run_world

    def seeded(sim, net, until, **kwargs):
        # A dumbbell wraps its Network; the parking lot is a bare one.
        host = next(node for node in getattr(net, "network", net).nodes
                    if isinstance(node, Host))
        sim.call_at(2.5, lambda: setattr(
            host, "packets_sent", host.packets_sent + 1))
        real(sim, net, until, **kwargs)

    monkeypatch.setattr(common, "run_world", seeded)


@pytest.mark.parametrize("name", ARTEFACTS)
class TestArtefactsRunOnTheSharedLifecycle:
    """Figs 2-5, Fig 9, Table 11 and the two-bottleneck extension go
    through ``_make_simulator`` and ``run_world`` like the two runners:
    default engine, reference oracle, invariants, obs."""

    def test_digest_is_the_parents_and_the_reference_engines(
            self, name, sims, monkeypatch):
        recorded, run = ARTEFACTS[name]
        assert digest(run()) == recorded
        default = [sim.events_processed for sim in sims]
        assert all(sim.burst_steps for sim in sims)  # the default engine

        # The reference engine, still handed out through ``sims``.
        del sims[:]
        make, run_world = common._make_simulator, common.run_world
        monkeypatch.setattr(common, "_make_simulator",
                            lambda: make(optimize=False))
        monkeypatch.setattr(
            common, "run_world",
            lambda *a: run_world(*a, optimize=False))
        assert digest(run()) == recorded
        assert not any(sim.burst_steps for sim in sims)
        assert [sim.events_processed for sim in sims] == default

    def test_seeded_invariant_break_is_raised_by_the_artefact(
            self, name, sims, broken_mid_run):
        with pytest.raises(InvariantViolation, match="conservation"):
            ARTEFACTS[name][1]()
        # Caught by the next periodic audit, not at the end of the run
        # (and, for Table 11, before a second buffer is tried).
        assert [sim.now for sim in sims] == [3.0]

    def test_obs_sees_the_simulator(self, name, sims):
        with obs.observed():
            ARTEFACTS[name][1]()
            counters = obs.snapshot()["counters"]
        assert counters["sim.events_processed"] == \
            sum(sim.events_processed for sim in sims)

    def test_a_raised_run_leaves_one_crash_dump(
            self, name, broken_mid_run, tmp_path):
        with obs.observed(crash_dump_path=str(tmp_path / "crash.jsonl")):
            with pytest.raises(InvariantViolation):
                ARTEFACTS[name][1]()
        assert os.listdir(tmp_path) == ["crash.jsonl"]
        events = obs.read_jsonl(str(tmp_path / "crash.jsonl"))
        assert obs.validate_events(events) == len(events) > 0
