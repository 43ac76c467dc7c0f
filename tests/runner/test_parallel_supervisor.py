"""Executor equivalence through ``repro sweep``: --jobs 1, --jobs 2, --workers 2.

``--jobs 1`` runs the cells in-process and is the reference; ``--jobs 2``
and ``--workers 2`` lease them to worker processes from a queue
directory.  Rows, exit code and checkpoint must not tell them apart.
"""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.experiments.common import LongFlowResult
from repro.runner import SweepSupervisor

#: Small Figure-7-shaped grid: 2 flow counts x 2 buffer factors.
FIG7_ARGS = ["--buffer-factors", "0.5,1.0", "--pipe", "30",
             "--rate", "10Mbps", "--warmup", "1", "--duration", "2",
             "--seed", "3"]
EXECUTORS = {"jobs1": ["--jobs", "1"], "jobs2": ["--jobs", "2"],
             "workers2": ["--workers", "2"]}
PARALLEL = ("jobs2", "workers2")


def sweep(executor, *args, flows="3,5"):
    """One ``repro sweep`` of the grid: exit code, table rows, all output."""
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        code = main(["sweep", "--flows", flows, *FIG7_ARGS,
                     *EXECUTORS[executor], *args])
    out = captured.getvalue()
    return code, [row for row in out.splitlines() if " reno " in row], out


def checkpoint_cells(path):
    """key -> what a cell is: params, result, attempts (not its timing)."""
    with open(path) as fh:
        cells = json.load(fh)["cells"]
    return {key: (cell["params"], cell["result"], cell["attempts"])
            for key, cell in cells.items()}


def sources(rows):
    return [row.split()[-1] for row in rows]


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """The grid run once under each executor, each to its own checkpoint."""
    runs = {}
    for executor in EXECUTORS:
        path = str(tmp_path_factory.mktemp(executor) / "sweep.json")
        code, rows, _ = sweep(executor, "--checkpoint", path)
        runs[executor] = (code, rows, path)
    return runs


def _synthetic_long_flow_result(seed):
    return LongFlowResult(
        n_flows=4, buffer_packets=10, pipe_packets=40.0,
        utilization=0.9, throughput_bps=1e6, loss_rate=0.01,
        timeouts=2, fast_retransmits=5, mean_queue=3.5,
        window_histogram=([0.0, 1.0, 2.0], [4, 5, 6]),
        fault_log=[(1.5, "link bottleneck down"), (3.5, "link bottleneck up")],
        window_utilizations=[(1.0, 0.5), (2.0, 0.9)],
    )


class TestParallelBasics:
    def test_outcomes_in_grid_order(self, fresh_runs):
        _, serial_rows, _ = fresh_runs["jobs1"]
        assert len(serial_rows) == 4
        for executor in PARALLEL:
            code, rows, _ = fresh_runs[executor]
            assert code == 0
            assert rows == serial_rows  # same cells, same order, all computed

    def test_bad_jobs_rejected(self):
        for flag in ("--jobs", "--workers"):
            code, rows, out = sweep("jobs1", flag, "-1")
            assert code == 2 and not rows
            assert "must be >= 0" in out

    def test_duplicate_cells_run_once_and_share_outcome(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        code, rows, _ = sweep("jobs2", "--checkpoint", path, flows="3,5,3")
        assert code == 0
        assert len(rows) == 6  # both rows of each duplicate, in grid order
        assert rows[4:] == rows[:2]
        with open(path) as fh:
            payload = json.load(fh)
        assert len(payload["cells"]) == 4
        counters = payload["meta"]["fabric"]["counters"]
        assert counters["fabric.completions"] == 4

    def test_failed_cell_reported_not_fatal(self):
        """A failing cell reads the same from either executor: exit 3, a
        FAILED row with max_retries + 1 attempts and the last error."""
        budget = ["--max-events", "1000", "--retries", "1"]
        code, serial_rows, _ = sweep("jobs1", *budget)
        assert code == 3
        assert all(" 2  FAILED: SimulationStalledError" in row
                   for row in serial_rows)
        for executor in PARALLEL:
            code, rows, out = sweep(executor, *budget)
            assert code == 3
            assert rows == serial_rows
            assert "4 cell(s) failed after retries" in out

    def test_nothing_left_on_disk_without_checkpoint_or_queue_dir(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        code, rows, _ = sweep("jobs2", flows="3")
        assert code == 0 and len(rows) == 2
        assert list(tmp_path.iterdir()) == []


class TestParallelSerialEquivalence:
    def test_fig7_grid_bit_identical(self, fresh_runs):
        reference = checkpoint_cells(fresh_runs["jobs1"][2])
        assert len(reference) == 4
        for executor in PARALLEL:
            assert checkpoint_cells(fresh_runs[executor][2]) == reference


class TestParallelCheckpointing:
    def test_killed_parallel_sweep_resumes(self, fresh_runs, tmp_path):
        """What a killed sweep leaves — a checkpoint holding part of the
        grid — is resumed by the other executor, which runs only the rest."""
        for first, then in (("jobs1", "jobs2"), ("jobs2", "jobs1")):
            path = str(tmp_path / f"{first}-then-{then}.json")
            sweep(first, "--checkpoint", path, flows="3")
            code, rows, out = sweep(then, "--checkpoint", path)
            assert code == 0
            assert "resuming: 2 cell(s)" in out
            assert sources(rows) == ["checkpoint"] * 2 + ["computed"] * 2
            assert checkpoint_cells(path) == checkpoint_cells(
                fresh_runs["jobs1"][2])

    def test_parallel_and_serial_share_checkpoint_format(self, fresh_runs):
        """A finished checkpoint replays under every other executor."""
        for wrote in EXECUTORS:
            _, _, path = fresh_runs[wrote]
            before = checkpoint_cells(path)
            for reads in EXECUTORS:
                code, rows, out = sweep(reads, "--checkpoint", path)
                assert code == 0
                assert "resuming: 4 cell(s)" in out
                assert sources(rows) == ["checkpoint"] * 4
            assert checkpoint_cells(path) == before

    def test_long_flow_result_tuple_fields_roundtrip(self, tmp_path):
        """Worker-produced checkpoints rehydrate tuple fields faithfully."""
        path = str(tmp_path / "sweep.json")
        grid = [{"seed": 1}, {"seed": 2}]
        computed = SweepSupervisor(
            _synthetic_long_flow_result, workers=2,
            queue_dir=str(tmp_path / "queue"), checkpoint_path=path).run(grid)
        assert all(o.ok and not o.from_checkpoint for o in computed)

        resumed = SweepSupervisor(_synthetic_long_flow_result,
                                  checkpoint_path=path,
                                  deserialize=LongFlowResult.from_dict)
        outcomes = resumed.run(grid)
        assert all(o.from_checkpoint for o in outcomes)
        for outcome in outcomes:
            result = outcome.result
            assert isinstance(result, LongFlowResult)
            assert result.window_histogram == ([0.0, 1.0, 2.0], [4, 5, 6])
            assert result.fault_log == [(1.5, "link bottleneck down"),
                                        (3.5, "link bottleneck up")]
            assert result.window_utilizations == [(1.0, 0.5), (2.0, 0.9)]
