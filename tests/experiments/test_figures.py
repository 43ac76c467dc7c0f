"""Smoke tests for the per-figure experiment modules (tiny parameters).

These verify the experiment plumbing (parameterization, result shapes,
interpolation logic) — the scientific claims themselves are the report's
verdicts (repro.experiments.report), which
tests/integration/test_report_claims.py evaluates on real runs.
"""

import math
from types import SimpleNamespace

import pytest

from repro.experiments import common, long_flow_sweep
from repro.experiments.afct_comparison import compare_buffers, run_mixed_experiment
from repro.experiments.long_flow_sweep import min_buffer, min_buffer_sweep
from repro.experiments.multibottleneck import run_multibottleneck
from repro.experiments.production_network import production_table
from repro.experiments.short_flow_sweep import afct_buffer_sweep
from repro.experiments.single_flow import run_single_flow, sawtooth_figures
from repro.experiments.utilization_table import utilization_table
from repro.experiments.window_distribution import run_window_distribution
from repro.errors import ConfigurationError, InvariantViolation


class TestSingleFlowFigures:
    def test_exact_buffer_keeps_link_busy(self):
        trace = run_single_flow(1.0, pipe_packets=60, bottleneck_rate="5Mbps",
                                warmup=20, duration=40)
        assert trace.utilization > 0.99
        assert trace.model_utilization == 1.0

    def test_underbuffered_goes_idle(self):
        trace = run_single_flow(0.25, pipe_packets=60, bottleneck_rate="5Mbps",
                                warmup=20, duration=40)
        assert trace.link_ever_idle
        assert trace.utilization < 0.95

    def test_overbuffered_standing_queue(self):
        trace = run_single_flow(2.0, pipe_packets=60, bottleneck_rate="5Mbps",
                                warmup=25, duration=40)
        assert trace.standing_queue > 0
        assert trace.utilization > 0.99

    def test_traces_recorded(self):
        trace = run_single_flow(1.0, pipe_packets=40, bottleneck_rate="5Mbps",
                                warmup=10, duration=20)
        assert len(trace.cwnd) > 100
        assert len(trace.queue) > 100

    def test_sawtooth_figures_trio(self):
        traces = sawtooth_figures(pipe_packets=40, bottleneck_rate="5Mbps",
                                  warmup=10, duration=15)
        assert [t.buffer_fraction for t in traces] == [0.5, 1.0, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_single_flow(0.0)


class TestInterpolation:
    def test_exact_hit(self):
        curve = [(10, 0.9), (20, 0.95), (40, 0.99)]
        assert min_buffer(curve, 0.95) == 20.0

    def test_interpolated(self):
        curve = [(10, 0.90), (20, 0.98)]
        assert min_buffer(curve, 0.94) == pytest.approx(15.0)

    def test_unreachable_is_nan(self):
        assert math.isnan(min_buffer([(10, 0.9)], 0.99))

    def test_first_point_sufficient(self):
        assert min_buffer([(10, 0.999)], 0.99) == 10.0

    def test_interpolates_the_monotone_envelope(self):
        # The dip at 20 is noise: the envelope holds 0.96 from 10 on.
        curve = [(10, 0.96), (20, 0.90), (40, 0.98)]
        assert min_buffer(curve, 0.97) == pytest.approx(30.0)

    def test_a_failed_cell_ends_the_curve(self):
        curve = [(10, 0.90), (20, math.nan), (40, 0.999)]
        assert min_buffer(curve, 0.85) == 10.0
        assert math.isnan(min_buffer(curve, 0.95))


class TestSweepPlumbing:
    def test_min_buffer_sweep_shape(self):
        result = min_buffer_sweep(
            n_values=(9, 16), targets=(0.9,), factors=(0.25, 1.0, 3.0),
            pipe_packets=100.0, bottleneck_rate="10Mbps",
            warmup=8, duration=10, seed=1)
        assert len(result.points) == 2
        assert set(result.curves) == {9, 16}
        for point in result.points:
            assert point.model_packets == pytest.approx(
                100.0 / math.sqrt(point.n_flows))

    def test_failed_cell_ends_the_curve(self, monkeypatch):
        """A failed cell is never interpolated over: a target crossed
        before it keeps its value, one crossed after it is unknown."""
        utilization = {10: 0.90, 30: 0.995}

        def trial(n_flows, buffer_packets, seed, **_):
            if buffer_packets == 20:
                raise InvariantViolation("queue conservation broken")
            return SimpleNamespace(utilization=utilization[buffer_packets])

        monkeypatch.setattr(long_flow_sweep, "run_long_flow_experiment", trial)
        result = min_buffer_sweep(n_values=(1,), targets=(0.85, 0.95),
                                  factors=(1.0, 2.0, 3.0), pipe_packets=10.0)
        crossed, after = result.points
        assert crossed.buffer_packets == 10.0
        assert math.isnan(after.buffer_packets)  # not 25.3 from a made-up 0.90
        failed, = result.failed
        assert failed.params["buffer_packets"] == 20
        assert failed.params["seed"] == 3
        assert failed.error == "InvariantViolation: queue conservation broken"

    def test_factors_must_increase(self):
        with pytest.raises(ConfigurationError):
            min_buffer_sweep(n_values=(4,), factors=(2.0, 1.0))


class TestShortFlowSweepPlumbing:
    def test_sweep_returns_point_per_bandwidth(self):
        points = afct_buffer_sweep(
            bandwidths=("5Mbps", "10Mbps"), load=0.6,
            buffer_grid=(10, 40, 160), warmup=2, duration=10, seed=1,
            n_pairs=10)
        assert len(points) == 2
        for p in points:
            assert p.afct_infinite > 0
            assert p.model_buffer_packets > 0

    def test_grid_must_increase(self):
        with pytest.raises(ConfigurationError):
            afct_buffer_sweep(buffer_grid=(40, 10))


class TestWindowDistribution:
    def test_result_shape(self):
        result = run_window_distribution(
            n_flows=16, pipe_packets=100.0, bottleneck_rate="10Mbps",
            warmup=8, duration=15, seed=2)
        assert result.fit is not None
        assert result.fit.std > 0
        edges, counts = result.histogram
        assert sum(counts) > 0
        overlay = result.model_overlay()
        assert len(overlay) == len(counts)


class TestMixedExperiment:
    def test_runs_and_reports(self):
        result = run_mixed_experiment(
            buffer_packets=30, n_long=8,
            pipe_packets=100.0, bottleneck_rate="10Mbps",
            warmup=8, duration=12, seed=3, n_short_pairs=5)
        assert result.n_short_completed > 5
        assert result.afct > 0
        assert result.mean_queue >= 0


class TestTables:
    def test_utilization_table_rows(self):
        rows = utilization_table(
            n_values=(9,), factors=(0.5, 2.0), pipe_packets=100.0,
            bottleneck_rate="10Mbps", warmup=6, duration=10)
        assert len(rows) == 2
        assert all(0.0 < row.exp <= 1.0 for row in rows)
        assert rows[1].sim >= rows[0].sim - 0.02  # bigger buffer not worse

    def test_production_table_smoke(self):
        rows = production_table(
            buffers=(200, 20), warmup=5, duration=10, n_pairs=12, n_long=8)
        assert len(rows) == 2
        assert rows[0].utilization >= rows[1].utilization - 0.02
        assert rows[0].rule_multiple > rows[1].rule_multiple


class TestRefusedBeforeASimulatorIsBuilt:
    """Arguments that used to die in a ZeroDivisionError, an IndexError
    or a SchedulingError from deep inside flow start."""

    @pytest.mark.parametrize("call, names", [
        (lambda: compare_buffers(n_long=0), "n_long"),
        (lambda: production_table(n_pairs=8, n_long=8), "n_pairs"),
        (lambda: production_table(n_pairs=4, n_long=8), "n_long"),
        (lambda: production_table(n_concurrent=0), "n_concurrent"),
        (lambda: run_multibottleneck(n_e2e=0), "n_e2e"),
        (lambda: run_multibottleneck(n_cross_per_hop=0), "n_cross_per_hop"),
        (lambda: run_multibottleneck(warmup=-1), "warmup"),
        (lambda: run_single_flow(math.nan), "buffer_fraction"),
        (lambda: run_single_flow(math.inf), "buffer_fraction"),
        (lambda: run_single_flow(0.0), "buffer_fraction"),
        (lambda: run_single_flow(1.0, pipe_packets=math.nan), "pipe"),
        (lambda: run_single_flow(1.0, pipe_packets=0), "pipe"),
        (lambda: min_buffer_sweep(pipe_packets=math.nan), "pipe"),
        (lambda: utilization_table(pipe_packets=math.nan), "pipe"),
        (lambda: compare_buffers(pipe_packets=math.nan), "pipe"),
    ], ids=["compare-n_long=0", "table11-n_pairs=n_long",
            "table11-n_pairs<n_long", "table11-n_concurrent=0",
            "multibottleneck-n_e2e=0", "multibottleneck-n_cross=0",
            "multibottleneck-warmup<0", "single-fraction=nan",
            "single-fraction=inf", "single-fraction=0", "single-pipe=nan",
            "single-pipe=0", "fig7-pipe=nan", "table10-pipe=nan",
            "fig9-pipe=nan"])
    def test_configuration_error_names_the_argument(
            self, monkeypatch, call, names):
        def no_simulator(*args, **kwargs):
            raise AssertionError("a simulator was built")

        monkeypatch.setattr(common, "_make_simulator", no_simulator)
        with pytest.raises(ConfigurationError, match=names):
            call()
