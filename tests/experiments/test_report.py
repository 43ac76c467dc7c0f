"""Tests for the report: every verdict word comes from a claim.

No simulation runs here except one tiny Figure 2–5 set: sections are
rendered from the canned results of ``tests/experiments/canned.py``.
The real runs of every section are
``tests/integration/test_report_claims.py``.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, InvariantViolation
from repro.experiments import long_flow_sweep, report, short_flow_sweep
from repro.experiments.long_flow_sweep import min_buffer_sweep
from repro.experiments.production_network import production_table
from repro.experiments.short_flow_sweep import afct_buffer_sweep
from repro.experiments.single_flow import sawtooth_figures
from repro.experiments.utilization_table import utilization_table
from tests.experiments.canned import (CASES, FIG7_OFF_GRID,
                                      FIG9_NO_SHORT_FLOWS, ZOO_FAILED,
                                      ZOO_NO_RENO, stub_sections)


class TestScales:
    def test_all_scales_have_every_section(self):
        for name, cfg in report.SCALES.items():
            assert list(cfg) == list(report.SECTIONS), name

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            report.generate_report("warp-speed")

    def test_paper_scale_is_biggest(self):
        quick = report.SCALES["quick"]["fig7"]["pipe_packets"]
        paper = report.SCALES["paper"]["fig7"]["pipe_packets"]
        assert paper > quick


@pytest.mark.parametrize("key", list(report.SECTIONS))
class TestClaims:
    def test_good_result_satisfies_every_claim(self, key):
        good, violations = CASES[key]
        rendered = report.render_section(report.SECTIONS[key], good)
        assert rendered.ok
        assert len(rendered.claims) == len(violations)
        assert f"{len(violations)} of {len(violations)} claims hold" in rendered.text
        assert "**NO**" not in rendered.text

    def test_each_claim_can_fail_and_says_what_it_measured(self, key):
        section = report.SECTIONS[key]
        for index, bad in enumerate(CASES[key][1]):
            rendered = report.render_section(section, bad)
            claim = rendered.claims[index]
            assert not claim.holds, (index, claim)
            assert claim.measured
            assert f"- **NO** — {claim.text}: {claim.measured}" in rendered.text
            assert not rendered.ok


def test_total_claims_across_all_sections():
    assert sum(len(violations) for _, violations in CASES.values()) == 53


class TestMissingInputs:
    """nan or absent inputs are a NO with the reason, never a formatted nan."""

    def test_no_short_flow_completed(self):
        rendered = report.render_section(report.SECTIONS["fig9"],
                                         FIG9_NO_SHORT_FLOWS)
        faster, speedup = rendered.claims[:2]
        assert not faster.holds and not speedup.holds
        assert "0 / 500 short flows completed" in faster.measured
        assert "nan" not in rendered.text

    def test_target_off_the_grid_at_every_n(self):
        rendered = report.render_section(report.SECTIONS["fig7"], FIG7_OFF_GRID)
        assert [c.holds for c in rendered.claims] == [False, False, False]
        assert "98.0% is >grid at n = 16, 100" in rendered.claims[0].measured
        assert "nan" not in rendered.text

    def test_zoo_without_reno_has_nothing_to_compare(self):
        # Both verdicts used to pass vacuously: no Reno point was "fits
        # the rule", and an n without Reno was skipped.
        rendered = report.render_section(report.SECTIONS["zoo"], ZOO_NO_RENO)
        assert [(c.holds, c.measured) for c in rendered.claims] == [
            (False, "nothing measured"),
            (False, "bbr at n = 8: no reno run at that n (and 1 more)")]

    def test_zoo_reno_off_the_grid_is_a_no_for_the_paced_claim(self):
        good, _ = CASES["zoo"]
        reno_8, reno_16, *paced = good.min_buffers
        off = replace(reno_16, buffer_packets=math.nan, buffer_factor=math.nan)
        rendered = report.render_section(report.SECTIONS["zoo"], replace(
            good, min_buffers=[reno_8, off, *paced]))
        assert [c.holds for c in rendered.claims] == [False, False]
        assert rendered.claims[1].measured == "bbr at n = 16: 6.9 pkts vs reno >grid"

    def test_zoo_minimum_at_the_grid_floor_is_a_bound(self):
        rendered = report.render_section(report.SECTIONS["zoo"], CASES["zoo"][0])
        assert "| bbr | yes | 8 | 84.00% | 35.4 | ≤ 9 pkts (grid floor) " \
               "| ≤ 0.25x |" in rendered.text
        assert "| reno | no | 8 | 100.00% | 35.4 | 65.2 pkts | 1.84x |" \
            in rendered.text

    @pytest.mark.parametrize("key,empty", [
        ("fig7", lambda: min_buffer_sweep(n_values=())),
        ("fig7", lambda: min_buffer_sweep(n_values=(4,), targets=(),
                                          factors=(), pipe_packets=20.0)),
        ("fig8", lambda: (afct_buffer_sweep(bandwidths=()), {}, {})),
        ("table10", lambda: utilization_table(n_values=())),
        ("table11", lambda: production_table(buffers=())),
    ])
    def test_empty_grid_is_a_header_only_table_with_a_verdict(self, key, empty):
        rendered = report.render_section(report.SECTIONS[key], empty())
        header, rule = [line for line in rendered.text.splitlines()
                        if line.startswith("|")]
        assert header.count("|") == rule.count("|")
        assert f"**Verdict:** 0 of {len(CASES[key][1])} claims hold." \
            in rendered.text

    @pytest.mark.parametrize("sweep", [min_buffer_sweep, utilization_table])
    def test_zero_flows_is_a_configuration_error(self, sweep):
        with pytest.raises(ConfigurationError, match="n_values"):
            sweep(n_values=(0,))


class TestFailedCells:
    """A cell that breaks an invariant is named, seed and error, in its
    section, and every claim that reads it is a NO."""

    def test_fig7_names_the_failed_cell(self, monkeypatch):
        by_factor = {0.5: 0.97, 1.0: 0.99, 2.0: 0.999}

        def trial(n_flows, buffer_packets, pipe_packets, seed, **_):
            if (n_flows, buffer_packets) == (16, 25):
                raise InvariantViolation("synthetic drop")
            factor = buffer_packets * n_flows ** 0.5 / pipe_packets
            return SimpleNamespace(utilization=by_factor[round(factor * 2) / 2])

        monkeypatch.setattr(long_flow_sweep, "run_long_flow_experiment", trial)
        section = report.SECTIONS["fig7"]
        rendered = report.render_section(section, section.run(
            n_values=(4, 16), targets=(0.98, 0.995), factors=(0.5, 1.0, 2.0),
            pipe_packets=100.0, seed=3))
        cell = "n=16, B=25, seed=3 FAILED: InvariantViolation: synthetic drop"
        assert f"- {cell}" in rendered.text
        row, = [line for line in rendered.text.splitlines()
                if line.startswith("| 16 |")]
        assert row.count("FAILED") == 2 and ">grid" not in row
        assert [c.holds for c in rendered.claims] == [False, False, False]
        assert all(c.measured == cell for c in rendered.claims)

    def test_fig8_names_the_failed_cell(self, monkeypatch):
        def trial(load, buffer_packets, bottleneck_rate, seed, **_):
            if (bottleneck_rate, buffer_packets) == ("20Mbps", 10):
                raise InvariantViolation("synthetic drop")
            afct = 0.30 * (1 + (2 / buffer_packets if buffer_packets else 0))
            return SimpleNamespace(load=load, buffer_packets=buffer_packets,
                                   afct=afct, drop_rate=0.05 * load)

        monkeypatch.setattr(short_flow_sweep, "run_short_flow_experiment", trial)
        monkeypatch.setattr(report, "run_short_flow_experiment", trial)
        section = report.SECTIONS["fig8"]
        rendered = report.render_section(section, section.run(
            bandwidths=("10Mbps", "20Mbps"), load=0.8,
            buffer_grid=(10, 20, 30), duration=30.0, seed=11))
        cell = "rate=20Mbps, B=10, seed=11 FAILED: InvariantViolation: synthetic drop"
        assert f"- {cell}" in rendered.text
        row, = [line for line in rendered.text.splitlines()
                if line.startswith("| 20Mb/s |")]
        assert "| FAILED |" in row and ">grid" not in row
        # The three sweep claims read the failed rate; the load and RTT
        # contrasts at the first rate do not.
        assert [c.holds for c in rendered.claims] == [False, False, False,
                                                      True, True]
        assert all(c.measured == cell for c in rendered.claims[:3])


    def test_zoo_canned_failed_cell(self):
        rendered = report.render_section(report.SECTIONS["zoo"], ZOO_FAILED)
        cell = "cc=bbr, n=16, B=25, seed=1 FAILED: InvariantViolation: synthetic drop"
        assert f"- {cell}" in rendered.text
        assert "| bbr | yes | 16 | n/a | 25.0 | FAILED | - |" in rendered.text
        assert [(c.holds, c.measured) for c in rendered.claims] == [
            (True, "reno at n = 8: 65.2 pkts = 1.84x the rule"), (False, cell)]

    def test_zoo_names_the_failed_cell(self, monkeypatch):
        by_factor = {0.25: 0.80, 0.5: 0.90, 1.0: 0.97, 1.5: 0.99, 2.0: 0.999,
                     3.0: 0.999}

        def trial(n_flows, buffer_packets, pipe_packets, seed, cc, **_):
            if (cc, buffer_packets) == ("bbr", 20):
                raise InvariantViolation("synthetic drop")
            factor = buffer_packets * n_flows ** 0.5 / pipe_packets
            return SimpleNamespace(
                utilization=by_factor[factor], sync_index=0.0,
                gaussian_fit=None, timeouts=1, loss_rate=0.01)

        monkeypatch.setattr(long_flow_sweep, "run_long_flow_experiment", trial)
        section = report.SECTIONS["zoo"]
        rendered = report.render_section(section, section.run(
            ccs=("reno", "bbr"), n_values=(4,), pipe_packets=40.0, bottleneck_rate="10Mbps", warmup=1.0,
            duration=1.0, seed=3))
        cell = "cc=bbr, n=4, B=20, seed=3 FAILED: InvariantViolation: synthetic drop"
        assert f"- {cell}" in rendered.text
        assert "| reno | 4 | 20 pkts | 97.00% |" in rendered.text
        assert "| bbr | 4 | 20 pkts |" not in rendered.text
        row, = [line for line in rendered.text.splitlines()
                if line.startswith("| bbr | yes | 4 |")]
        assert "| FAILED |" in row
        # Reno's minimum is still read; the paced claim reads bbr's.
        assert [(c.holds, c.measured) for c in rendered.claims] == [
            (True, "reno at n = 4: 24.5 pkts = 1.23x the rule"), (False, cell)]


class TestReport:
    def test_header_states_scale_sha_seeds_and_seconds(self, monkeypatch):
        stub_sections(monkeypatch)
        monkeypatch.setattr(report, "_git_sha", lambda: "abc1234")
        text = report.generate_report("quick").text
        assert text.startswith(report.BEGIN) and text.endswith(report.END + "\n")
        assert "--scale quick` at commit `abc1234` in 0 s" in text
        assert "| `fig7` | Figure 7: minimum buffer vs number of flows " \
               "| seed=3 | 0.0 | 3/3 |" in text
        assert "| seed=21, access_seed=23 |" in text

    def test_section_text_is_the_same_alone_and_in_the_report(self, monkeypatch):
        stub_sections(monkeypatch)
        alone = report.run_section("fig7", "default").text
        assert alone in report.generate_report("default").text

    def test_headline_row_flips_with_its_claim(self, monkeypatch):
        stub_sections(monkeypatch)
        good = report.generate_report("quick")
        assert good.ok and "**NO**" not in good.text
        assert "| small buffers *reduce* AFCT in mixes | yes | " \
               "AFCT 0.300 s vs 0.500 s; 1.67x |" in good.text
        stub_sections(monkeypatch, fig9=CASES["fig9"][1][1])
        bad = report.generate_report("quick")
        assert not bad.ok
        assert "| small buffers *reduce* AFCT in mixes | **NO** | " \
               "AFCT 0.480 s vs 0.500 s; 1.04x |" in bad.text
        assert "| `fig9` | Figure 9: AFCT with small vs large buffers " \
               "| seed=5 | 0.0 | 3/4 |" in bad.text


class TestMain:
    def test_stdout_path(self, capsys, monkeypatch):
        stub_sections(monkeypatch)
        assert report.main(["--scale", "quick"]) == 0
        assert "--scale quick`" in capsys.readouterr().out

    def test_false_claim_is_exit_3(self, capsys, monkeypatch):
        stub_sections(monkeypatch, table11=CASES["table11"][1][0])
        assert report.main([]) == 3
        assert "**NO** — the largest buffer saturates the link (> 99%): " \
               "98.50% at 500 pkts" in capsys.readouterr().out

    def test_output_file(self, tmp_path, monkeypatch, capsys):
        stub_sections(monkeypatch)
        target = tmp_path / "EXPERIMENTS.md"
        assert report.main(["--output", str(target)]) == 0
        assert target.read_text() == report.generate_report("quick").text

    def test_output_rewrites_only_the_marked_span(self, tmp_path, monkeypatch,
                                                  capsys):
        stub_sections(monkeypatch)
        target = tmp_path / "EXPERIMENTS.md"
        target.write_text(f"# by hand\n\n{report.BEGIN}\nstale\n{report.END}\n"
                          "\n## also by hand\n")
        assert report.main(["--output", str(target)]) == 0
        text = target.read_text()
        assert text.startswith(f"# by hand\n\n{report.BEGIN}\n## Paper artefacts")
        assert text.endswith(f"{report.END}\n\n## also by hand\n")
        assert "stale" not in text and text.count(report.BEGIN) == 1

    def test_output_refuses_a_file_without_the_span(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(report, "generate_report",
                            lambda scale: pytest.fail("ran the evaluation"))
        target = tmp_path / "EXPERIMENTS.md"
        target.write_text("# 900 hand-written lines\n")
        assert report.main(["--output", str(target)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1
        assert target.read_text() == "# 900 hand-written lines\n"

    def test_bad_scale_exits(self):
        with pytest.raises(SystemExit):
            report.main(["--scale", "nope"])


class TestSectionBuilders:
    def test_single_flow_section(self):
        traces = sawtooth_figures(pipe_packets=40.0, bottleneck_rate="5Mbps",
                                  warmup=10.0, duration=15.0)
        rendered = report.render_section(report.SECTIONS["fig2"], traces)
        assert "Figures 2–5" in rendered.text
        assert "**Verdict:** 7 of 7 claims hold." in rendered.text
        assert "| B / RTT·C | B pkts |" in rendered.text  # the trace table
        assert "Figure 3: window and queue evolution" in rendered.text
