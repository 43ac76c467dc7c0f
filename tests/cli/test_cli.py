"""Tests for the repro command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_size_args(self):
        args = build_parser().parse_args(
            ["size", "--capacity", "2.5Gbps", "--flows", "10000"])
        assert args.capacity == "2.5Gbps"
        assert args.flows == 10000
        assert args.rtt == "250ms"

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])

    @pytest.mark.parametrize("command", ["bench", "profile"])
    def test_removed_measurement_commands_are_usage_errors(self, command):
        # bench/run.py is the benchmark; neither name is a prefix match.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2

    @pytest.mark.parametrize("scenario", ["long-flows", "short-flows"])
    @pytest.mark.parametrize("flags", [["--scheduler", "calendar"],
                                       ["--burst"], ["--no-burst"]])
    def test_removed_engine_flags_are_usage_errors(self, scenario, flags):
        # The engines they chose between are bit-identical; library
        # callers still pick one with engine_opts=.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate", scenario, *flags])
        assert exc.value.code == 2


class TestSizeCommand:
    def test_headline_example(self, capsys):
        code, out = run_cli(capsys, "size", "--capacity", "2.5Gbps",
                            "--rtt", "250ms", "--flows", "10000")
        assert code == 0
        assert "rule-of-thumb" in out
        assert "78125" in out       # RTT x C in packets
        assert "781" in out         # sqrt(n) rule
        assert "99.0% saved" in out

    def test_short_flow_only(self, capsys):
        code, out = run_cli(capsys, "size", "--capacity", "1Gbps",
                            "--short-load", "0.8")
        assert code == 0
        assert "short-flow" in out

    def test_no_traffic_is_error(self, capsys):
        code, out = run_cli(capsys, "size", "--capacity", "1Gbps")
        assert code == 2
        assert "error" in out

    def test_bad_capacity_is_error(self, capsys):
        code, out = run_cli(capsys, "size", "--capacity", "fast",
                            "--flows", "10")
        assert code == 2

    def test_zero_capacity_is_error(self, capsys):
        # Used to exit 0 with "0 packets ... (nan% saved)".
        code, out = run_cli(capsys, "size", "--capacity", "0Gbps",
                            "--flows", "10")
        assert code == 2
        assert out == "error: capacity must be positive\n"

    @pytest.mark.parametrize("load", ["nan", "-0.5", "1.0", "inf"])
    @pytest.mark.parametrize("flows", [[], ["--flows", "100"]],
                             ids=["short-only", "mixed"])
    def test_short_load_outside_model_domain_is_error(self, capsys, load,
                                                      flows):
        # nan alone used to be a max() traceback; with --flows it (and a
        # negative load) was printed, then silently ignored, exit 0.
        code, out = run_cli(capsys, "size", "--capacity", "10Gbps",
                            "--rtt", "250ms", f"--short-load={load}", *flows)
        assert code == 2
        assert out == (f"error: short_flow_load must be 0 or in (0, 1), "
                       f"got {float(load)}\n")


class TestMemoryCommand:
    def test_rule_of_thumb_plan(self, capsys):
        code, out = run_cli(capsys, "memory", "--rate", "40Gbps",
                            "--buffer", "1.25GB")
        assert code == 0
        assert "SRAM" in out
        assert "TOO SLOW" in out        # DRAM at 40G
        assert "not feasible" in out

    def test_small_buffer_feasible(self, capsys):
        code, out = run_cli(capsys, "memory", "--rate", "10Gbps",
                            "--buffer", "10Mbit")
        assert code == 0
        assert "feasible" in out

    def test_bad_buffer_is_error(self, capsys):
        code, out = run_cli(capsys, "memory", "--rate", "10Gbps",
                            "--buffer", "big")
        assert code == 2

    def test_zero_rate_is_error(self, capsys):
        code, out = run_cli(capsys, "memory", "--rate", "0Gbps",
                            "--buffer", "1MB")
        assert code == 2
        assert out == "error: line rate must be positive\n"


class TestSimulateCommands:
    def test_long_flows(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "8", "--pipe", "100",
                            "--rate", "10Mbps", "--warmup", "8",
                            "--duration", "10")
        assert code == 0
        assert "utilization" in out
        assert "loss rate" in out

    def test_long_flows_absolute_buffer(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "4", "--buffer-packets", "17",
                            "--pipe", "100", "--rate", "10Mbps",
                            "--warmup", "5", "--duration", "8")
        assert code == 0
        assert "buffer 17 pkts" in out

    def test_short_flows(self, capsys):
        code, out = run_cli(capsys, "simulate", "short-flows",
                            "--load", "0.5", "--rate", "10Mbps",
                            "--duration", "10")
        assert code == 0
        assert "AFCT" in out

    def test_short_flows_none_completed_is_not_nan(self, capsys):
        code, out = run_cli(capsys, "simulate", "short-flows",
                            "--duration", "0.05")
        assert code == 0
        assert "  AFCT:        n/a (0 flows completed)\n" in out
        assert "nan" not in out

    def test_long_flows_nothing_offered_is_not_nan(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "2", "--rate", "1kbps",
                            "--warmup", "0.5", "--duration", "0.5")
        assert code == 0
        assert "  loss rate:   n/a (no packets offered)\n" in out
        assert "nan" not in out

    def test_single_flow(self, capsys):
        code, out = run_cli(capsys, "simulate", "single-flow",
                            "--fraction", "1.0", "--pipe", "50",
                            "--rate", "5Mbps", "--duration", "30")
        assert code == 0
        assert "correctly buffered" in out

    def test_single_flow_underbuffered_diagnosis(self, capsys):
        code, out = run_cli(capsys, "simulate", "single-flow",
                            "--fraction", "0.25", "--pipe", "50",
                            "--rate", "5Mbps", "--duration", "30")
        assert code == 0
        assert "underbuffered" in out


#: artefact module -> the report section that renders it
SECTION_OF = {
    "repro.experiments.single_flow": "fig2",
    "repro.experiments.window_distribution": "fig6",
    "repro.experiments.long_flow_sweep": "fig7",
    "repro.experiments.short_flow_sweep": "fig8",
    "repro.experiments.afct_comparison": "fig9",
    "repro.experiments.utilization_table": "table10",
    "repro.experiments.production_network": "table11",
    "repro.experiments.ablations": "ablations",
}


class TestFigureTableDispatch:
    """figure/table/ablations print their report section at the
    ``default`` preset and exit 3 on a false claim (every section's
    compute function is replaced by a canned result: no simulations)."""

    @pytest.fixture
    def ran(self, monkeypatch):
        """``(key, params)`` of every section compute call."""
        from tests.experiments.canned import stub_sections

        return stub_sections(monkeypatch)

    def check(self, capsys, ran, module_name, *argv):
        from repro.experiments import report

        key = SECTION_OF[module_name]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert ran == [(key, report.SCALES["default"][key])]
        assert out.startswith(f"## {report.SECTIONS[key].title}\n")
        assert "claims hold" in out and "**NO**" not in out

    @pytest.mark.parametrize("number,module_name", [
        (3, "repro.experiments.single_flow"),
        (6, "repro.experiments.window_distribution"),
        (7, "repro.experiments.long_flow_sweep"),
        (8, "repro.experiments.short_flow_sweep"),
        (9, "repro.experiments.afct_comparison"),
    ])
    def test_figure_dispatch(self, ran, capsys, number, module_name):
        self.check(capsys, ran, module_name, "figure", str(number))

    @pytest.mark.parametrize("number", [2, 4, 5])
    def test_figures_2_to_5_share_a_section(self, ran, capsys, number):
        self.check(capsys, ran, "repro.experiments.single_flow",
                   "figure", str(number))

    @pytest.mark.parametrize("number,module_name", [
        (10, "repro.experiments.utilization_table"),
        (11, "repro.experiments.production_network"),
    ])
    def test_table_dispatch(self, ran, capsys, number, module_name):
        self.check(capsys, ran, module_name, "table", str(number))

    def test_ablations_dispatch(self, ran, capsys):
        self.check(capsys, ran, "repro.experiments.ablations", "ablations")

    def test_false_claim_is_exit_3(self, monkeypatch, capsys):
        from tests.experiments.canned import CASES, stub_sections

        stub_sections(monkeypatch, fig7=CASES["fig7"][1][1])
        code, out = run_cli(capsys, "figure", "7")
        assert code == 3
        assert "**NO** — at the largest n that buffer is <= 3.0x " \
               "`RTT·C/sqrt(n)`: 98.0%: 3.50x the rule at n = 100" in out

    def test_configuration_error_is_exit_2(self, monkeypatch, capsys):
        from repro.experiments import report

        monkeypatch.setitem(report.SCALES["default"], "table10",
                            dict(n_values=(0,)))
        code, out = run_cli(capsys, "table", "10")
        assert code == 2
        assert out == "error: n_values must be positive flow counts\n"


class TestProfilesCommand:
    def test_lists_profiles(self, capsys):
        code, out = run_cli(capsys, "profiles")
        assert code == 0
        assert "OC48" in out
        assert "sqrt(n)" in out


class TestFeatureFlags:
    def test_sack_and_pacing_flags(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "8", "--pipe", "100",
                            "--rate", "10Mbps", "--warmup", "5",
                            "--duration", "8", "--sack", "--pacing")
        assert code == 0
        assert "(SACK)" in out and "(paced)" in out

    def test_ecn_implies_red(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "8", "--pipe", "100",
                            "--rate", "10Mbps", "--warmup", "5",
                            "--duration", "8", "--ecn")
        assert code == 0
        assert "(RED)" in out and "(ECN)" in out


class TestFaultFlags:
    def test_flap_runs_and_prints_fault_log(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "4", "--buffer-packets", "20",
                            "--pipe", "50", "--rate", "10Mbps",
                            "--warmup", "3", "--duration", "8",
                            "--flap", "6,1")
        assert code == 0
        assert "faults:" in out
        assert "down" in out and "up" in out

    def test_loss_burst_runs(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "4", "--buffer-packets", "20",
                            "--pipe", "50", "--rate", "10Mbps",
                            "--warmup", "3", "--duration", "8",
                            "--loss-burst", "4,2,0.05")
        assert code == 0
        assert "drop burst" in out

    def test_malformed_flap_is_error(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "4", "--pipe", "50",
                            "--rate", "10Mbps", "--flap", "6")
        assert code == 2
        assert "error" in out

    @pytest.mark.parametrize("flag,spec", [
        ("--flap", "a,b"),
        ("--flap", "6,"),
        ("--loss-burst", "1,2,x"),
    ])
    def test_non_numeric_fault_spec_is_error(self, capsys, flag, spec):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "4", "--pipe", "50",
                            "--rate", "10Mbps", flag, spec)
        assert code == 2
        assert out.startswith(f"error: {flag} wants ")
        assert repr(spec) in out and out.count("\n") == 1


class TestFlowCountValidation:
    """n < 1 has no sqrt(n) buffer: a typed error, never a traceback."""

    @pytest.mark.parametrize("flows", ["0", "-4"])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--buffer-factors", "1"],
        ["simulate", "long-flows"],
        ["trace", "long"],
        ["fluid"],
    ], ids=lambda argv: argv[0])
    def test_exit_2_with_one_line(self, capsys, tmp_path, monkeypatch,
                                  argv, flows):
        monkeypatch.chdir(tmp_path)  # `trace` defaults --out to the cwd
        code, out = run_cli(capsys, *argv, f"--flows={flows}")
        assert code == 2
        assert out == f"error: --flows must be >= 1, got {flows}\n"
        from repro.obs import runtime
        assert not runtime.enabled


class TestRateAndBufferFactorValidation:
    """A zero rate has no RTT and a factor <= 0 no buffer: exit 2, one
    ``error:`` line last, never a traceback or a clamped 2-packet row."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--buffer-factors", "1"],
        ["simulate", "long-flows"],
    ], ids=lambda argv: argv[0])
    def test_zero_rate(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--flows", "2", "--pipe", "20",
                            "--rate", "0Mbps")
        assert code == 2
        assert out.endswith("error: link rate must be positive\n")
        assert "computed" not in out

    def test_zero_rate_library_call(self):
        from repro.errors import ConfigurationError
        from repro.experiments.common import run_long_flow_experiment
        with pytest.raises(ConfigurationError, match="rate must be positive"):
            run_long_flow_experiment(n_flows=2, buffer_packets=10,
                                     pipe_packets=20, bottleneck_rate=0)

    @pytest.mark.parametrize("factor", ["nan", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--buffer-factors"],
        ["simulate", "long-flows", "--buffer-factor"],
        ["fluid", "--buffer-factor"],
    ], ids=lambda argv: argv[0])
    def test_bad_buffer_factor(self, capsys, argv, factor):
        code, out = run_cli(capsys, *argv[:-1], f"{argv[-1]}={factor}",
                            "--flows", "2", "--pipe", "20")
        assert code == 2
        assert out == (f"error: buffer factor must be finite and > 0, "
                       f"got {float(factor)}\n")

    @pytest.mark.parametrize("pipe", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "long-flows", "--flows", "2"],
        ["simulate", "long-flows", "--flows", "2", "--buffer-packets", "10"],
        ["sweep", "--flows", "2", "--buffer-factors", "1"],
        ["trace", "long", "--flows", "2"],
        ["trace", "long", "--flows", "2", "--buffer-packets", "10"],
    ], ids=["long-flows", "long-flows-buffer", "sweep", "trace",
            "trace-buffer"])
    def test_bad_pipe(self, capsys, tmp_path, argv, pipe):
        # nan and inf used to reach round() and die in a traceback; with
        # --buffer-packets, nan reached the clock as a bad *time* and 0
        # as an RTT too small for the bottleneck delay.
        if argv[0] == "trace":
            argv = [*argv, "--out", str(tmp_path / "t.jsonl")]
        code, out = run_cli(capsys, *argv, f"--pipe={pipe}",
                            "--duration", "1")
        assert code == 2
        assert out.endswith(
            f"error: pipe must be finite and > 0, got {float(pipe)}\n")
        assert "Traceback" not in out and "computed" not in out

    @pytest.mark.parametrize("flag, value", [
        ("--fraction", "nan"), ("--fraction", "inf"), ("--fraction", "0"),
        ("--pipe", "nan"), ("--pipe", "inf"), ("--pipe", "0"),
    ])
    def test_bad_single_flow_argument(self, capsys, flag, value):
        code, out = run_cli(capsys, "simulate", "single-flow",
                            f"{flag}={value}", "--duration", "1")
        assert code == 2
        name = "buffer_fraction" if flag == "--fraction" else "pipe"
        assert out == (f"error: {name} must be finite and > 0, "
                       f"got {float(value)}\n")


class TestWatchdogFlags:
    def test_event_budget_abort_is_exit_3(self, capsys):
        code, out = run_cli(capsys, "simulate", "long-flows",
                            "--flows", "4", "--pipe", "50",
                            "--rate", "10Mbps", "--warmup", "3",
                            "--duration", "8", "--max-events", "500")
        assert code == 3
        assert out.startswith("aborted (stalled):")
        assert out.count("\n") == 1  # one-line diagnostic

    def test_generous_budget_does_not_interfere(self, capsys):
        code, out = run_cli(capsys, "simulate", "short-flows",
                            "--load", "0.3", "--rate", "10Mbps",
                            "--duration", "5", "--max-events", "10000000",
                            "--timeout", "120")
        assert code == 0
        assert "AFCT" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "long-flows", "--flows", "2", "--duration", "1"],
        ["simulate", "short-flows", "--duration", "1"],
        ["trace", "long", "--flows", "2", "--duration", "1"],
    ], ids=["long-flows", "short-flows", "trace"])
    def test_unenforceable_wall_budget_is_error(self, capsys, tmp_path,
                                                argv, value):
        # nan and inf used to pass the "<= 0" check and then never
        # trip (monotonic() > nan is never true): the watchdog was off.
        if argv[0] == "trace":
            argv = [*argv, "--out", str(tmp_path / "t.jsonl")]
        code, out = run_cli(capsys, *argv, f"--timeout={value}")
        assert code == 2
        assert out == (f"error: max_wall_seconds must be a finite number "
                       f"> 0, got {float(value)}\n")


class TestSweepCommand:
    ARGS = ["sweep", "--flows", "3", "--buffer-factors", "1.0",
            "--pipe", "40", "--rate", "10Mbps",
            "--warmup", "2", "--duration", "4"]

    def test_sweep_runs_and_reports(self, capsys):
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "computed" in out

    def test_sweep_resumes_from_checkpoint(self, capsys, tmp_path):
        ckpt = str(tmp_path / "sweep.json")
        code, out = run_cli(capsys, *self.ARGS, "--checkpoint", ckpt)
        assert code == 0
        assert "computed" in out
        code, out = run_cli(capsys, *self.ARGS, "--checkpoint", ckpt)
        assert code == 0
        assert "resuming: 1 cell(s)" in out
        assert "checkpoint" in out
        assert "computed" not in out

    def test_sweep_failure_is_exit_3(self, capsys):
        code, out = run_cli(capsys, *self.ARGS, "--max-events", "100",
                            "--retries", "0")
        assert code == 3
        assert "FAILED" in out

    def test_bad_grid_spec_is_error(self, capsys):
        code, out = run_cli(capsys, "sweep", "--flows", "a,b")
        assert code == 2

    @pytest.mark.parametrize("axis", ["--cc", "--flows", "--buffer-factors"])
    def test_empty_grid_axis_is_error(self, capsys, monkeypatch, axis):
        # Nothing to run is a usage error, decided before any executor
        # (or the table header) exists.
        import repro.runner
        monkeypatch.setattr(repro.runner, "SweepSupervisor", None)
        code, out = run_cli(capsys, *self.ARGS, axis, "")
        assert code == 2
        assert out.startswith("error: ") and out.count("\n") == 1


class TestSweepRefusesBeforeRunning:
    """A flag that can only fail later fails now: exit 2, one ``error:``
    line last, and no cell has run (nothing says ``computed``)."""

    ARGS = [*TestSweepCommand.ARGS, "--workers", "2"]

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_lease_seconds(self, capsys, value):
        code, out = run_cli(capsys, *self.ARGS, f"--lease-seconds={value}")
        assert code == 2
        assert out.splitlines()[-1].startswith(
            "error: lease_seconds must be a finite number > 0")
        assert "computed" not in out and "Traceback" not in out

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_max_lease_failures(self, capsys, value):
        code, out = run_cli(capsys, *self.ARGS,
                            f"--max-lease-failures={value}")
        assert code == 2
        assert out.splitlines()[-1] == (
            f"error: max_lease_failures must be >= 1, got {value}")
        assert "computed" not in out

    @pytest.mark.parametrize("executor", [["--jobs", "1"], ["--workers", "2"]],
                             ids=["jobs1", "workers2"])
    def test_missing_checkpoint_directory(self, capsys, tmp_path, executor):
        ckpt = str(tmp_path / "missing" / "x.json")
        code, out = run_cli(capsys, *TestSweepCommand.ARGS, *executor,
                            "--checkpoint", ckpt)
        assert code == 2
        assert out.startswith("error: checkpoint directory ")
        assert str(tmp_path / "missing") in out and out.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    @pytest.mark.parametrize("executor", [["--jobs", "1"], ["--workers", "2"]],
                             ids=["jobs1", "workers2"])
    def test_unenforceable_wall_budget(self, capsys, tmp_path, executor,
                                       value):
        # --timeout nan used to run every cell with the watchdog off
        # (exit 0); 0 failed only once the first cell ran.
        ckpt = tmp_path / "ck.json"
        code, out = run_cli(capsys, *TestSweepCommand.ARGS, *executor,
                            "--checkpoint", str(ckpt), f"--timeout={value}")
        assert code == 2
        assert out == (f"error: max_wall_seconds must be a finite number "
                       f"> 0, got {float(value)}\n")
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no queue

    @pytest.mark.parametrize("flag,value,rule", [
        ("--warmup", "nan", ">= 0"), ("--warmup", "inf", ">= 0"),
        ("--warmup", "-1", ">= 0"), ("--duration", "nan", "> 0"),
        ("--duration", "inf", "> 0"), ("--duration", "0", "> 0"),
        ("--duration", "-1", "> 0"),
    ])
    @pytest.mark.parametrize("executor", [["--jobs", "1"], ["--jobs", "2"]],
                             ids=["jobs1", "jobs2"])
    def test_run_length(self, capsys, tmp_path, executor, flag, value, rule):
        # --duration nan used to fail in the first cell, naming "event
        # time", after --fresh had deleted the checkpoint; --jobs 2
        # quarantined it as a FAILED cell and exited 3.
        ckpt = tmp_path / "ck.json"
        ckpt.write_text('{"version": 1, "cells": {}}')
        code, out = run_cli(capsys, *TestSweepCommand.ARGS, *executor,
                            "--checkpoint", str(ckpt), "--fresh",
                            f"{flag}={value}")
        assert code == 2
        assert out == (f"error: {flag} must be finite and {rule}, "
                       f"got {float(value)}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["ck.json"]
        assert ckpt.read_text() == '{"version": 1, "cells": {}}'

    def test_uncreatable_queue_directory(self, capsys, tmp_path):
        (tmp_path / "file").write_text("not a directory")
        queue_dir = str(tmp_path / "file" / "queue")
        code, out = run_cli(capsys, *self.ARGS, "--queue-dir", queue_dir)
        assert code == 2
        assert out.splitlines()[-1].startswith(
            f"error: cannot create queue directory {queue_dir!r}")
        assert "computed" not in out


class TestFluidCommand:
    def test_desynchronized(self, capsys):
        code, out = run_cli(capsys, "fluid", "--flows", "16",
                            "--duration", "40")
        assert code == 0
        assert "desynchronized" in out
        assert "utilization" in out

    def test_synchronized_mode(self, capsys):
        code, out = run_cli(capsys, "fluid", "--flows", "16",
                            "--synchronized", "--duration", "40")
        assert code == 0
        assert "synchronized" in out

    @pytest.mark.parametrize("rtt, message", [
        ("0ms", "--rtt must be > 0, got 0ms"),
        ("soon", "cannot parse time 'soon'"),
    ], ids=["zero", "unparseable"])
    def test_bad_rtt_is_error(self, capsys, rtt, message):
        code, out = run_cli(capsys, "fluid", "--rtt", rtt)
        assert code == 2
        assert out == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--duration", "nan"], "duration must be finite and > 0, got nan"),
        (["--pipe", "nan"], "capacity must be finite and > 0, got nan"),
    ], ids=["duration-nan", "pipe-nan"])
    def test_non_finite_input_is_error(self, capsys, argv, message):
        # nan used to slip past the "<= 0" checks: exit 0 with
        # "mean queue: nan pkts".
        code, out = run_cli(capsys, "fluid", *argv)
        assert code == 2
        assert out == f"error: {message}\n"


class TestCcCompareCommand:
    def test_tiny_grid_report_artifact_and_exit_code(self, capsys, tmp_path):
        """Shape only — the physics needs CI's larger grid."""
        import json

        artifact = tmp_path / "cc.json"
        code, out = run_cli(capsys, "cc-compare", "--cc", "reno,bbr",
                            "--flows", "4", "--pipe", "40",
                            "--rate", "10Mbps", "--warmup", "1",
                            "--duration", "3", "--output", str(artifact))
        doc = json.loads(artifact.read_text())
        assert [(d["cc"], d["n_flows"]) for d in doc["dynamics"]] \
            == [("reno", 4), ("bbr", 4)]
        assert [(p["cc"], p["model_packets"]) for p in doc["min_buffers"]] \
            == [("reno", 20.0), ("bbr", 20.0)]
        assert {key: len(curve) for key, curve in doc["curves"].items()} \
            == {"reno:4": 6, "bbr:4": 6}
        assert set(doc["paced_needs_no_more_than_reno"]) == {"bbr"}
        holds = (doc["reno_fits_sqrt_rule"]
                 and all(doc["paced_needs_no_more_than_reno"].values()))
        assert code == (0 if holds else 3)
        assert "window dynamics at the reference buffer" in out
        verdict = "ok" if doc["reno_fits_sqrt_rule"] else "VIOLATED"
        assert f"sqrt(n) rule (reno within 2x of model): {verdict}" in out

    @pytest.mark.parametrize("argv, message", [
        (["--flows", "0"], "need flow counts >= 1, got [0]"),
        (["--flows=-4,8"], "need flow counts >= 1, got [-4, 8]"),
        (["--cc", ""], "need at least one congestion control"),
    ], ids=["flows-zero", "flows-negative", "cc-empty"])
    def test_empty_or_nonpositive_grid_is_error(self, capsys, argv, message):
        # --flows 0 used to be a ZeroDivisionError traceback; --cc ""
        # printed two empty tables and "sqrt(n) rule ...: ok", exit 0.
        code, out = run_cli(capsys, "cc-compare", *argv)
        assert code == 2
        assert out == f"error: {message}\n"

    def test_library_call_raises_typed_errors(self):
        from repro.errors import ConfigurationError
        from repro.experiments.cc_comparison import run_cc_comparison
        with pytest.raises(ConfigurationError, match="congestion control"):
            run_cc_comparison(ccs=[])
        with pytest.raises(ConfigurationError, match="flow counts"):
            run_cc_comparison(n_values=[])


class TestTraceCommand:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["trace", "short", "--kinds", "drop,cwnd", "--capacity", "128",
             "--out", "t.jsonl", "--seed", "9"])
        assert args.scenario == "short"
        assert args.kinds == "drop,cwnd"
        assert args.capacity == 128
        assert args.out == "t.jsonl"
        assert args.seed == 9

    def test_scenario_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "medium"])

    def test_trace_long_smoke(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code, out = run_cli(capsys, "trace", "long", "--flows", "2",
                            "--pipe", "20", "--buffer-packets", "10",
                            "--warmup", "0.5", "--duration", "1",
                            "--out", str(out_path))
        assert code == 0
        assert "event(s) recorded" in out
        assert f"wrote" in out and str(out_path) in out
        assert out_path.exists()
        # Observability is off again once the command returns.
        from repro.obs import runtime
        assert not runtime.enabled

    def test_unknown_kind_rejected(self, capsys, tmp_path):
        code, out = run_cli(capsys, "trace", "--kinds", "drop,warp",
                            "--out", str(tmp_path / "t.jsonl"))
        assert code == 2
        assert "warp" in out
        assert "enqueue" in out  # the valid-kinds list is printed

    def test_bad_capacity_rejected(self, capsys, tmp_path):
        code, out = run_cli(capsys, "trace", "--capacity", "0",
                            "--out", str(tmp_path / "t.jsonl"))
        assert code == 2


class TestObsReportCommand:
    def trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, "trace", "long", "--flows", "2",
                          "--pipe", "20", "--buffer-packets", "6",
                          "--warmup", "0.5", "--duration", "1",
                          "--out", str(out_path))
        assert code == 0
        return out_path

    def test_report_on_trace(self, capsys, tmp_path):
        path = self.trace(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", "report", str(path))
        assert code == 0
        assert "events by kind" in out

    def test_validate_flag(self, capsys, tmp_path):
        path = self.trace(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", "report", str(path), "--validate")
        assert code == 0
        assert "validated against the schema" in out

    def test_missing_file_is_error(self, capsys, tmp_path):
        code, out = run_cli(capsys, "obs", "report",
                            str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_garbage_file_is_error(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "obs", "report", str(path))
        assert code == 2

    def test_non_object_line_is_error(self, capsys, tmp_path):
        # Parses as JSON, is not an event: used to be an AttributeError
        # traceback from summarize_trace.
        path = tmp_path / "lists.jsonl"
        path.write_text('{"kind": "enqueue", "t": 0.1}\n[1, 2]\n')
        code, out = run_cli(capsys, "obs", "report", str(path))
        assert code == 2
        assert out == f"error: {path}:2: not a JSON object: [1, 2]\n"
