"""Self-test of the benchmark at ``--scale smoke``.

Run with ``python -m pytest bench/tests -q`` (not part of tier-1:
``testpaths = ["tests"]``).  It checks the benchmark's own promises —
metric names and units, exact counts, well-formed spans, restored
rebindings, failure accounting — not the speed of anything.
"""

import json

import pytest

import bench
from bench import run as bench_run
from bench import tracing
from bench.workloads import SPECS

CONTRACT = bench.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
COUNTS = [m["name"] for m in CONTRACT["per_layer"] if m["unit"] == "count"]

_traced_cache = {}


def traced(workload, seed, tmp_path_factory, again=False):
    """A smoke-scale traced run, made once per (workload, seed, again)."""
    key = (workload, seed, again)
    if key not in _traced_cache:
        spans = tmp_path_factory.mktemp("spans") / f"{workload}-{seed}.json"
        outcome = tracing.run_traced(SPECS[workload], seed, 0.0, "smoke",
                                     str(spans))
        _traced_cache[key] = (outcome, json.loads(spans.read_text()))
    return _traced_cache[key]


def run_main(capsys, *args):
    """``run.py`` in-process: ``(exit code, result object)``."""
    code = bench_run.main(list(args))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_contract_lists_the_four_workloads():
    assert WORKLOADS == list(SPECS)
    assert CONTRACT["paths"] == ["bench"]
    assert [m["name"] for m in CONTRACT["end_to_end"]].count("setup_s") == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_e2e_emits_exactly_the_listed_metrics(workload, capsys):
    code, result = run_main(capsys, "--workload", workload, "--seed", "1",
                            "--seconds", "0.2", "--scale", "smoke",
                            "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_emits_exactly_the_listed_metrics(workload, capsys, tmp_path):
    spans = tmp_path / "spans.json"
    code, result = run_main(capsys, "--workload", workload, "--seed", "1",
                            "--seconds", "0", "--scale", "smoke",
                            "--trace", "1", "--spans-out", str(spans))
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == expected
    assert json.loads(spans.read_text())["spans"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_and_follow_the_seed(workload, tmp_path_factory):
    first, _ = traced(workload, 1, tmp_path_factory)
    second, _ = traced(workload, 1, tmp_path_factory, again=True)
    other, _ = traced(workload, 2, tmp_path_factory)
    assert first.tally.failed == second.tally.failed == other.tally.failed == 0
    assert ({name: first.metrics[name] for name in COUNTS}
            == {name: second.metrics[name] for name in COUNTS})
    assert first.metrics["sim.events_processed"] != other.metrics["sim.events_processed"]
    assert first.metrics["net.calls"] != other.metrics["net.calls"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_shares_sum_to_one(workload, tmp_path_factory):
    outcome, _ = traced(workload, 1, tmp_path_factory)
    total = sum(outcome.metrics[f"{layer}.self_share"]
                for layer in tracing.LAYERS)
    assert total == pytest.approx(1.0, abs=0.02)
    assert outcome.metrics["net.self_share"] > outcome.metrics["obs.self_share"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_form_a_forest_with_children_inside_parents(workload,
                                                          tmp_path_factory):
    _, trace = traced(workload, 1, tmp_path_factory)
    by_id = {span["id"]: span for span in trace["spans"]}
    assert len(by_id) == len(trace["spans"])
    names = set()
    for span in trace["spans"]:
        assert set(span) == {"name", "id", "parent", "run_id", "start", "end"}
        assert span["start"] <= span["end"]
        assert str(span["run_id"]) in trace["runs"]
        names.add(span["name"])
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["run_id"] == span["run_id"]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
    assert {"experiments.run", "net.build", "traffic.build", "sim.run",
            "runner.verify"} <= names
    if workload == "sweep_grid":
        assert {"cli.sweep", "runner.cell"} <= names


def test_rebindings_are_restored_after_a_traced_run(tmp_path_factory):
    import repro.cli
    import repro.experiments.common as common
    from repro.runner.supervisor import SweepSupervisor
    from repro.sim import Simulator
    from repro.traffic import ShortFlowWorkload

    def bound():
        return (common.build_dumbbell, common.LongLivedWorkload,
                common.verify_network, vars(ShortFlowWorkload)["for_load"],
                vars(Simulator)["run"], vars(SweepSupervisor)["run_cell"],
                repro.cli.main)

    before = bound()
    with tracing.phase_spans(tracing.SpanRecorder()):
        assert all(a is not b for a, b in zip(before, bound()))
    assert all(a is b for a, b in zip(before, bound()))
    traced("short_flows", 1, tmp_path_factory)
    assert all(a is b for a, b in zip(before, bound()))


def test_fingerprint_mismatch_fails_the_run(monkeypatch, capsys):
    import itertools

    from bench import e2e

    ticket = itertools.count()
    monkeypatch.setattr(e2e, "fingerprint", lambda result: str(next(ticket)))
    code, result = run_main(capsys, "--workload", "long_n128", "--seed", "1",
                            "--seconds", "0.2", "--scale", "smoke")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_traced_fingerprint_mismatch_is_counted(monkeypatch, tmp_path):
    import itertools

    ticket = itertools.count()
    monkeypatch.setattr(tracing, "fingerprint",
                        lambda result: str(next(ticket)))
    outcome = tracing.run_traced(SPECS["long_n128"], 1, 0.0, "smoke",
                                 str(tmp_path / "spans.json"))
    assert outcome.tally.failed > 0
    assert outcome.metrics["bench.fail_share"] > 0


def test_no_process_outlives_a_sweep_run():
    """The instant ``run.py`` exits, nothing it started is still alive."""
    import os
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, str(bench.ROOT / "bench" / "run.py"),
         "--workload", "sweep_grid", "--seed", "1", "--seconds", "0",
         "--scale", "smoke", "--trace", "0"],
        stdout=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait() == 0
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                state, _, _, session = fh.read().rsplit(")", 1)[1].split()[:4]
        except OSError:
            continue
        if int(session) == proc.pid and state != "Z":
            left.append(int(pid))
    assert left == []
