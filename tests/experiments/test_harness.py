"""Smoke and behaviour tests for the experiment harness (small params)."""

import math

import pytest

from repro.experiments import common
from repro.experiments.ascii_plot import histogram_plot, line_plot
from repro.experiments.common import (
    PACKET_BYTES,
    run_long_flow_experiment,
    run_short_flow_experiment,
    rtt_for_pipe,
)
from repro.errors import ConfigurationError
from repro.traffic.sizes import FixedSize

FAST_LONG = dict(pipe_packets=100.0, bottleneck_rate="10Mbps",
                 warmup=8.0, duration=12.0, seed=1)


class TestRttForPipe:
    def test_inverse_of_pipe(self):
        rtt = rtt_for_pipe(125, "10Mbps")
        assert rtt == pytest.approx(0.1)

    def test_counts_packets_of_packet_bytes(self):
        assert rtt_for_pipe(100, "10Mbps") == pytest.approx(
            100 * PACKET_BYTES * 8 / 10e6)


class TestLongFlowRunner:
    def test_result_fields_populated(self):
        result = run_long_flow_experiment(n_flows=8, buffer_packets=30, **FAST_LONG)
        assert 0.0 <= result.utilization <= 1.0
        assert result.n_flows == 8
        assert result.buffer_packets == 30
        assert result.events_processed > 1000
        assert result.mean_queue >= 0.0

    def test_window_tracking_optional(self):
        result = run_long_flow_experiment(n_flows=8, buffer_packets=30,
                                          track_windows=True, **FAST_LONG)
        assert result.gaussian_fit is not None
        assert not math.isnan(result.sync_index)
        assert result.window_histogram is not None

    def test_no_tracking_by_default(self):
        result = run_long_flow_experiment(n_flows=4, buffer_packets=30, **FAST_LONG)
        assert result.gaussian_fit is None
        assert math.isnan(result.sync_index)

    def test_bigger_buffer_not_worse(self):
        small = run_long_flow_experiment(n_flows=8, buffer_packets=5, **FAST_LONG)
        large = run_long_flow_experiment(n_flows=8, buffer_packets=100, **FAST_LONG)
        assert large.utilization >= small.utilization - 0.02

    def test_deterministic_given_seed(self):
        a = run_long_flow_experiment(n_flows=6, buffer_packets=20, **FAST_LONG)
        b = run_long_flow_experiment(n_flows=6, buffer_packets=20, **FAST_LONG)
        assert a.utilization == b.utilization
        assert a.events_processed == b.events_processed

    def test_seed_changes_results(self):
        params = dict(FAST_LONG)
        params.pop("seed")
        a = run_long_flow_experiment(n_flows=6, buffer_packets=20, seed=1, **params)
        b = run_long_flow_experiment(n_flows=6, buffer_packets=20, seed=2, **params)
        assert a.utilization != b.utilization

    def test_red_variant_runs(self):
        result = run_long_flow_experiment(n_flows=8, buffer_packets=40,
                                          red=True, **FAST_LONG)
        assert 0.0 <= result.utilization <= 1.0

    def test_red_packet_time_is_one_serialization(self, monkeypatch):
        """RED ages its average over idle time in packet slots of
        ``mean_pkt_time`` seconds: one ``PACKET_BYTES`` packet clocked
        onto the bottleneck (bits over bit/s — bytes would make it 8x
        too short)."""
        built = []
        real_build = common.build_dumbbell

        def build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(common, "build_dumbbell", build)
        run_long_flow_experiment(n_flows=2, buffer_packets=20, red=True,
                                 **dict(FAST_LONG, warmup=0.5, duration=0.5))
        net, = built
        assert net.bottleneck_queue.mean_pkt_time == pytest.approx(
            PACKET_BYTES * 8.0 / net.bottleneck_link.rate)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_long_flow_experiment(n_flows=0, buffer_packets=10)
        with pytest.raises(ConfigurationError):
            run_long_flow_experiment(n_flows=1, buffer_packets=10, duration=0)


class TestShortFlowRunner:
    def test_result_fields(self):
        result = run_short_flow_experiment(
            load=0.5, buffer_packets=40, sizes=FixedSize(8),
            bottleneck_rate="10Mbps", warmup=3, duration=10, seed=2)
        assert result.n_completed > 10
        assert result.afct > 0
        assert 0.0 <= result.utilization <= 1.0
        assert result.p99_fct >= result.afct

    def test_infinite_buffer_baseline(self):
        result = run_short_flow_experiment(
            load=0.5, buffer_packets=None, sizes=FixedSize(8),
            bottleneck_rate="10Mbps", warmup=3, duration=10, seed=2)
        assert result.drop_rate == 0.0

    def test_load_validated(self):
        with pytest.raises(ConfigurationError):
            run_short_flow_experiment(load=1.2, buffer_packets=10,
                                      sizes=FixedSize(8))

    def test_utilization_tracks_load(self):
        result = run_short_flow_experiment(
            load=0.6, buffer_packets=None, sizes=FixedSize(8),
            bottleneck_rate="10Mbps", warmup=5, duration=20, seed=3)
        assert result.utilization == pytest.approx(0.6, abs=0.08)


class TestAsciiPlots:
    def test_line_plot_renders(self):
        out = line_plot({"a": [(1.0, 2.0), (2.0, 4.0)],
                         "b": [(1.0, 3.0), (2.0, 1.0)]},
                        title="t", xlabel="x", ylabel="y")
        assert "t" in out
        assert "o a" in out and "x b" in out

    def test_line_plot_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            line_plot({})

    def test_histogram_plot_renders(self):
        out = histogram_plot([0.0, 1.0, 2.0], [3, 5], overlay=[4.0, 4.0])
        assert "#" in out
        assert "|" in out

    def test_histogram_validates_shapes(self):
        with pytest.raises(ConfigurationError):
            histogram_plot([0.0, 1.0], [1, 2])
        with pytest.raises(ConfigurationError):
            histogram_plot([0.0, 1.0, 2.0], [1, 2], overlay=[1.0])
