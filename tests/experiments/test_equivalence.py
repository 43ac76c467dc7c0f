"""Optimized and unoptimized engine paths must be bit-identical.

The hot-path layer (lazy timers, heap compaction, packet pooling, probe
fast paths) is pure mechanism: it must never change what the simulation
computes.  These tests pin that guarantee on the paper's own scenarios
by comparing full result fingerprints across engine configurations.
"""

import dataclasses
import json

import pytest

from repro import obs
from repro.experiments.common import (
    run_long_flow_experiment,
    run_short_flow_experiment,
)
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


class TestOptimizedMatchesUnoptimized:
    def test_long_flow_figure1(self):
        assert fingerprint(run_long(optimize=True)) == \
               fingerprint(run_long(optimize=False))

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
        assert fingerprint(run_short(optimize=True)) == \
               fingerprint(run_short(optimize=False))

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
