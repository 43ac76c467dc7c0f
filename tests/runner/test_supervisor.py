"""SweepSupervisor: budgets, failed cells, checkpoint resume."""

import json

import pytest

from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    SimulationStalledError,
)
from repro.runner import SweepSupervisor
from repro.runner.supervisor import cell_key
from repro.sim import Simulator


class TestBasics:
    def test_runs_and_returns_result(self):
        supervisor = SweepSupervisor(lambda x, y: x + y)
        outcome = supervisor.run_cell(x=2, y=3)
        assert outcome.ok
        assert outcome.result == 5
        assert not outcome.from_checkpoint

    def test_grid_run_collects_all_cells(self):
        supervisor = SweepSupervisor(lambda x: x * 10)
        outcomes = supervisor.run(grid=[{"x": 1}, {"x": 2}, {"x": 3}])
        assert [o.result for o in outcomes] == [10, 20, 30]

    def test_cell_key_is_order_insensitive(self):
        assert cell_key({"a": 1, "b": 2}) == cell_key({"b": 2, "a": 1})


class TestCellKeyIdentity:
    """Keys must be content-based: equal params => equal key, in any
    process — the property resume-across-restarts depends on."""

    def make_schedule(self):
        from repro.faults import FaultSchedule, LinkFlap, LossBurst

        return FaultSchedule([
            LinkFlap(at=30.0, duration=2.0),
            LossBurst(at=40.0, duration=5.0, probability=0.02),
        ])

    def test_fault_schedule_keys_by_content(self):
        assert (cell_key({"seed": 1, "faults": self.make_schedule()})
                == cell_key({"seed": 1, "faults": self.make_schedule()}))

    def test_different_fault_schedules_key_differently(self):
        from repro.faults import FaultSchedule, LinkFlap

        a = {"seed": 1, "faults": self.make_schedule()}
        b = {"seed": 1, "faults": FaultSchedule([LinkFlap(at=31.0, duration=2.0)])}
        assert cell_key(a) != cell_key(b)

    def test_fault_schedule_repr_is_stable(self):
        # The default object repr embeds the memory address; two
        # equal-content schedules must print identically.
        assert repr(self.make_schedule()) == repr(self.make_schedule())

    def test_dataclass_params_key_by_content(self):
        from repro.faults import LinkFlap

        assert (cell_key({"fault": LinkFlap(at=1.0, duration=2.0)})
                == cell_key({"fault": LinkFlap(at=1.0, duration=2.0)}))

    def test_flow_size_distributions_key_by_content(self):
        from repro.traffic.sizes import BoundedPareto, FixedSize

        assert (cell_key({"sizes": FixedSize(14)})
                == cell_key({"sizes": FixedSize(14)}))
        assert (cell_key({"sizes": FixedSize(14)})
                != cell_key({"sizes": FixedSize(15)}))
        assert (cell_key({"sizes": BoundedPareto(1.2, maximum=500)})
                != cell_key({"sizes": BoundedPareto(1.5, maximum=500)}))

    def test_non_json_param_rejected_with_clear_error(self):
        class Opaque:
            pass

        with pytest.raises(ConfigurationError, match="to_dict"):
            cell_key({"seed": 1, "thing": Opaque()})

    def test_fault_schedule_cell_resumes_across_supervisors(self, tmp_path):
        """The original bug: repr-keyed FaultSchedule params embedded a
        memory address, so resume never matched across processes."""
        path = str(tmp_path / "sweep.json")
        calls = []

        def fn(seed, faults):
            calls.append(seed)
            return seed

        first = SweepSupervisor(fn, checkpoint_path=path)
        first.run_cell(seed=1, faults=self.make_schedule())
        assert calls == [1]

        # New supervisor, new (equal-content) schedule object: the cell
        # must come back from the checkpoint, not recompute.
        second = SweepSupervisor(fn, checkpoint_path=path)
        outcome = second.run_cell(seed=1, faults=self.make_schedule())
        assert outcome.from_checkpoint
        assert calls == [1]


class TestBudgetForwarding:
    def test_budgets_injected_when_accepted(self):
        seen = {}

        def fn(seed, max_events=None, max_wall_seconds=None):
            seen.update(max_events=max_events,
                        max_wall_seconds=max_wall_seconds)
            return "ok"

        supervisor = SweepSupervisor(fn, max_events=1000, max_wall_seconds=5.0)
        supervisor.run_cell(seed=1)
        assert seen == {"max_events": 1000, "max_wall_seconds": 5.0}

    def test_budgets_omitted_when_not_accepted(self):
        def fn(seed):
            return seed

        supervisor = SweepSupervisor(fn, max_events=1000)
        assert supervisor.run_cell(seed=7).result == 7

    def test_explicit_param_wins_over_supervisor_default(self):
        def fn(seed, max_events=None):
            return max_events

        supervisor = SweepSupervisor(fn, max_events=1000)
        assert supervisor.run_cell(seed=1, max_events=50).result == 50

    def test_stalled_simulation_is_killed_and_reported(self):
        def hang(seed):
            sim = Simulator()

            def spin():
                sim.schedule(0.0, spin)  # zero-delay storm, never ends

            sim.schedule(0.0, spin)
            sim.run(max_events=5000)

        supervisor = SweepSupervisor(hang)
        outcome = supervisor.run_cell(seed=1)
        assert not outcome.ok
        assert "SimulationStalledError" in outcome.error


class TestFailedCell:
    """One run, at the requested seed: a stall or an invariant violation
    is the cell's FAILED outcome, never a result from another seed."""

    @pytest.fixture(autouse=True)
    def no_sleep(self, monkeypatch):
        import time

        def refuse(seconds):
            raise AssertionError(f"a failed cell slept {seconds} s")

        monkeypatch.setattr(time, "sleep", refuse)

    @pytest.mark.parametrize("exc_type", [SimulationStalledError,
                                          InvariantViolation])
    def test_one_attempt_failed_at_the_requested_seed(self, exc_type):
        seeds = []

        def fails_at_three(x, seed):
            seeds.append(seed)
            if seed == 3:
                raise exc_type("synthetic")
            return {"seed_used": seed}

        outcome = SweepSupervisor(fails_at_three).run_cell(x=1, seed=3)
        assert seeds == [3]
        assert not outcome.ok and outcome.result is None
        assert outcome.params == {"x": 1, "seed": 3}
        assert outcome.error == f"{exc_type.__name__}: synthetic"

    def test_configuration_error_is_fatal_not_retried(self):
        calls = []

        def broken(seed):
            calls.append(seed)
            raise ConfigurationError("bad parameters")

        supervisor = SweepSupervisor(broken)
        with pytest.raises(ConfigurationError):
            supervisor.run_cell(seed=1)
        assert len(calls) == 1

    def test_failed_cell_reported_not_raised(self, tmp_path):
        """The grid runs on past a failed cell, which has no record."""
        def stalls_at_two(x):
            if x == 2:
                raise SimulationStalledError("never converges")
            return x

        path = str(tmp_path / "sweep.json")
        outcomes = SweepSupervisor(stalls_at_two, checkpoint_path=path).run(
            [{"x": 1}, {"x": 2}, {"x": 3}])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "never converges" in outcomes[1].error
        with open(path) as fh:
            cells = json.load(fh)["cells"]
        assert sorted(cell["params"]["x"] for cell in cells.values()) == [1, 3]


class TestCheckpointing:
    def test_completed_cells_not_recomputed(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        calls = []

        def fn(x):
            calls.append(x)
            return {"value": x * 2}

        first = SweepSupervisor(fn, checkpoint_path=path)
        first.run(grid=[{"x": 1}, {"x": 2}])
        assert calls == [1, 2]

        # Fresh supervisor, same checkpoint: nothing recomputed.
        second = SweepSupervisor(fn, checkpoint_path=path)
        assert second.completed_cells == 2
        outcomes = second.run(grid=[{"x": 1}, {"x": 2}, {"x": 3}])
        assert calls == [1, 2, 3]
        assert [o.from_checkpoint for o in outcomes] == [True, True, False]
        assert outcomes[0].result == {"value": 2}

    @pytest.mark.parametrize("resume", [True, False])
    def test_missing_checkpoint_directory_refused_before_a_cell_runs(
            self, tmp_path, resume):
        # It used to surface as FileNotFoundError from the first cell's
        # checkpoint write, with that cell's work lost.
        path = str(tmp_path / "missing" / "sweep.json")
        calls = []
        with pytest.raises(ConfigurationError, match="does not exist") as err:
            SweepSupervisor(lambda x: calls.append(x), checkpoint_path=path,
                            resume=resume).run([{"x": 1}])
        assert str(tmp_path / "missing") in str(err.value)
        assert calls == []

    def test_killed_sweep_resumes_from_last_completed_cell(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        calls = []

        def dies_on_three(x):
            calls.append(x)
            if x == 3 and len(calls) <= 3:
                raise KeyboardInterrupt  # the sweep process gets killed
            return x

        grid = [{"x": 1}, {"x": 2}, {"x": 3}]
        supervisor = SweepSupervisor(dies_on_three, checkpoint_path=path)
        with pytest.raises(KeyboardInterrupt):
            supervisor.run(grid)
        assert calls == [1, 2, 3]

        resumed = SweepSupervisor(dies_on_three, checkpoint_path=path)
        outcomes = resumed.run(grid)
        assert calls == [1, 2, 3, 3]  # only the killed cell re-ran
        assert all(o.ok for o in outcomes)

    def test_failed_cells_never_checkpointed(self, tmp_path):
        path = str(tmp_path / "sweep.json")

        def always_stalls(x):
            raise SimulationStalledError("stall")

        SweepSupervisor(always_stalls, checkpoint_path=path).run_cell(x=1)
        follow_up = SweepSupervisor(always_stalls, checkpoint_path=path)
        assert follow_up.completed_cells == 0

    def test_fresh_ignores_existing_checkpoint(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        SweepSupervisor(lambda x: x, checkpoint_path=path).run_cell(x=1)
        fresh = SweepSupervisor(lambda x: x, checkpoint_path=path,
                                resume=False)
        assert fresh.completed_cells == 0

    def test_fresh_discards_checkpoint_file_up_front(self, tmp_path):
        """resume=False must delete the old file at construction: a crash
        before the first new cell completes must not leave stale cells
        for a later resume=True to silently load."""
        path = str(tmp_path / "sweep.json")
        SweepSupervisor(lambda x: x, checkpoint_path=path).run([{"x": 1}])
        assert (tmp_path / "sweep.json").exists()
        SweepSupervisor(lambda x: x, checkpoint_path=path, resume=False)
        # No cell has run yet — the stale file must already be gone.
        assert not (tmp_path / "sweep.json").exists()
        later = SweepSupervisor(lambda x: x, checkpoint_path=path)
        assert later.completed_cells == 0

    @staticmethod
    def damage(tmp_path, text):
        """A finished run whose checkpoint view is then overwritten."""
        path = tmp_path / "sweep.json"
        SweepSupervisor(double, checkpoint_path=str(path)).run([{"x": 1}])
        path.write_text(text)
        return path

    def assert_parked_and_rebuilt(self, path, text):
        # The damaged file is parked as evidence; the records rebuild
        # the view, so the finished cell is resumed, not re-run.
        resumed = SweepSupervisor(double, checkpoint_path=str(path))
        assert resumed.parked == str(path) + ".corrupt"
        assert (path.parent / "sweep.json.corrupt").read_text() == text
        assert resumed.completed_cells == 1
        outcome, = resumed.run([{"x": 1}])
        assert outcome.from_checkpoint and outcome.result == {"value": 2}
        assert len(json.loads(path.read_text())["cells"]) == 1

    def test_corrupt_checkpoint_is_a_clear_error(self, tmp_path):
        path = self.damage(tmp_path, "{not json")
        self.assert_parked_and_rebuilt(path, "{not json")

    def test_unknown_version_rejected(self, tmp_path):
        text = json.dumps({"version": 99, "cells": {}})
        path = self.damage(tmp_path, text)
        self.assert_parked_and_rebuilt(path, text)

    def test_a_run_writes_the_view_once(self, tmp_path, monkeypatch):
        """The view is written when the run ends, not after every cell:
        one write for 200 cells, each of them durable as its record."""
        import os

        path = str(tmp_path / "sweep.json")
        views = []
        real_replace = os.replace

        def replace(src, dst):
            if dst == path:
                views.append(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        grid = [{"x": x} for x in range(200)]
        SweepSupervisor(double, checkpoint_path=path).run(grid)
        assert len(views) == 1
        assert len(list((tmp_path / "sweep.json.queue").glob(
            "cells/*/*.json"))) == 200
        assert len(json.loads((tmp_path / "sweep.json").read_text())
                   ["cells"]) == 200

    def test_a_deleted_view_resumes_every_cell_from_the_records(
            self, tmp_path):
        path = tmp_path / "sweep.json"
        calls = []

        def fn(x):
            calls.append(x)
            return {"value": x}

        grid = [{"x": x} for x in range(4)]
        SweepSupervisor(fn, checkpoint_path=str(path)).run(grid)
        before = json.loads(path.read_text())["cells"]
        path.unlink()
        resumed = SweepSupervisor(fn, checkpoint_path=str(path))
        assert resumed.completed_cells == 4
        outcomes = resumed.run(grid)
        assert calls == [0, 1, 2, 3]
        assert all(outcome.from_checkpoint for outcome in outcomes)
        assert json.loads(path.read_text())["cells"] == before

    def test_dataclass_results_serialized(self, tmp_path):
        from repro.experiments.common import ShortFlowResult

        path = str(tmp_path / "sweep.json")

        def fn(seed):
            return ShortFlowResult(load=0.5, buffer_packets=10, afct=0.1,
                                   n_completed=5, drop_rate=0.0,
                                   utilization=0.9, p99_fct=0.2,
                                   flows_with_loss=0)

        SweepSupervisor(fn, checkpoint_path=path).run_cell(seed=1)
        resumed = SweepSupervisor(
            fn, checkpoint_path=path,
            deserialize=ShortFlowResult.from_dict)
        outcome = resumed.run_cell(seed=1)
        assert outcome.from_checkpoint
        assert isinstance(outcome.result, ShortFlowResult)
        assert outcome.result.utilization == 0.9


def double(x):
    return {"value": x * 2}


class TestCheckpointMeta:
    """The ``meta`` block embedded in every checkpoint write."""

    @staticmethod
    def read(path):
        return json.loads((path).read_text())

    def test_meta_records_provenance(self, tmp_path):
        path = tmp_path / "sweep.json"
        supervisor = SweepSupervisor(double, checkpoint_path=str(path),
                                     max_events=500)
        supervisor.run(grid=[{"x": 1}, {"x": 2}])
        payload = self.read(path)
        assert payload["version"] == 1
        meta = payload["meta"]
        spec = meta["supervisor"]
        assert spec["fn"] == f"{double.__module__}:double"  # format_fn_ref
        assert set(spec) == {"fn", "max_events", "max_wall_seconds"}
        assert spec["max_events"] == 500
        assert spec["max_wall_seconds"] is None
        # Content hash of the spec: 16 hex chars, stable across writes.
        assert len(meta["config_hash"]) == 16
        int(meta["config_hash"], 16)
        sha = meta["git_sha"]
        assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)
        assert meta["written_cells"] == 2
        assert meta["written_at"] > 0

    def test_checkpoint_bytes_are_what_json_dump_writes(self, tmp_path):
        # The writer serialises with json.dumps (one C-encoder pass); the
        # file must stay byte for byte what json.dump's iterator wrote.
        import io
        from dataclasses import dataclass

        @dataclass
        class Odd:
            ratio: float

        def fn(x):
            return {"sum": 0.1 + 0.2, "big": 1e300, "tiny": 5e-324,
                    "inf": float("inf"), "name": "caf\u00e9 \u2713",
                    "nested": [1, {"a": None, "b": True}], "odd": Odd(x / 3)}

        path = tmp_path / "sweep.json"
        SweepSupervisor(fn, checkpoint_path=str(path),
                        serialize=lambda result: result).run(
                            [{"x": 1}, {"x": 2}])
        text = path.read_text(encoding="utf-8")
        rewritten = io.StringIO()
        json.dump(json.loads(text), rewritten)
        assert rewritten.getvalue() == text

    def test_git_sha_resolved_once_per_process(self, tmp_path, monkeypatch):
        # Every checkpoint write embeds the SHA; a `git` spawn per
        # write would be ~3 ms of overhead on every cell.
        from repro.runner import supervisor as mod
        calls = []
        real_run = mod.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(mod.subprocess, "run", counting_run)
        mod._git_sha.cache_clear()
        path = tmp_path / "sweep.json"
        supervisor = SweepSupervisor(double, checkpoint_path=str(path))
        supervisor.run(grid=[{"x": x} for x in range(5)])
        assert self.read(path)["meta"]["written_cells"] == 5
        assert len(calls) == 1

    def test_config_hash_tracks_supervisor_spec(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        c = tmp_path / "c.json"
        SweepSupervisor(double, checkpoint_path=str(a)).run([{"x": 1}])
        SweepSupervisor(double, checkpoint_path=str(b)).run([{"x": 1}])
        SweepSupervisor(double, checkpoint_path=str(c),
                        max_events=500).run([{"x": 1}])
        hash_a = self.read(a)["meta"]["config_hash"]
        assert hash_a == self.read(b)["meta"]["config_hash"]
        assert hash_a != self.read(c)["meta"]["config_hash"]

    def test_metrics_snapshot_embedded_when_obs_enabled(self, tmp_path):
        from repro import obs

        path = tmp_path / "sweep.json"
        supervisor = SweepSupervisor(double, checkpoint_path=str(path))
        try:
            with obs.observed():
                obs.runtime.registry().counter("sweep.test_marker").inc(7)
                supervisor.run([{"x": 1}])
                metrics = self.read(path)["meta"]["metrics"]
        finally:
            obs.disable()
        assert metrics is not None
        assert metrics["version"] == 1
        assert metrics["counters"]["sweep.test_marker"] == 7

    def test_metrics_null_when_obs_disabled(self, tmp_path):
        path = tmp_path / "sweep.json"
        SweepSupervisor(double, checkpoint_path=str(path)).run([{"x": 1}])
        assert self.read(path)["meta"]["metrics"] is None

    def test_legacy_checkpoint_without_meta_loads(self, tmp_path):
        """Pre-meta checkpoints ({version, cells}) must keep resuming,
        also without the records that came after them."""
        import shutil

        path = tmp_path / "sweep.json"
        writer = SweepSupervisor(double, checkpoint_path=str(path))
        writer.run([{"x": 1}])
        payload = self.read(path)
        del payload["meta"]
        path.write_text(json.dumps(payload))
        shutil.rmtree(tmp_path / "sweep.json.queue")

        resumed = SweepSupervisor(double, checkpoint_path=str(path))
        assert resumed.completed_cells == 1
        outcome = resumed.run_cell(x=1)
        assert outcome.from_checkpoint
        assert outcome.result == {"value": 2}


class TestPinnedCellKeys:
    """A checkpoint written by an earlier build resumes only if the grid
    still builds the same params, so the digest of a `repro sweep` cell
    and of a `zoo` cell is pinned to a literal value for every algorithm
    either grid can hold.  Each grid is built by the real code path and
    captured at ``SweepSupervisor.run`` before any cell runs."""

    class _Captured(Exception):
        pass

    def _first_cell(self, monkeypatch, build):
        def capture(supervisor, grid, on_cell=None):
            raise self._Captured(list(grid))

        monkeypatch.setattr(SweepSupervisor, "run", capture)
        with pytest.raises(self._Captured) as caught:
            build()
        return caught.value.args[0][0]

    def _digest(self, params):
        from repro.fabric.queue import cell_digest
        return cell_digest(cell_key(params))

    @pytest.mark.parametrize("cc, digest", [
        ("tahoe", "ba86e08911904e0f"),
        ("reno", "271658accdbde9c4"),
        ("newreno", "176e9c45abe39b87"),
        ("compound", "5a1002d250159372"),
        ("scalable", "8c8370afa75bc103"),
        ("hstcp", "46a67ef483e78015"),
        ("bbr", "114c4c5b43547f7f"),
    ])
    def test_sweep_cell(self, monkeypatch, capsys, cc, digest):
        from repro.cli import main
        params = self._first_cell(monkeypatch, lambda: main([
            "sweep", "--cc", cc, "--flows", "4", "--buffer-factors", "1.0",
            "--pipe", "40", "--rate", "10Mbps", "--warmup", "2",
            "--duration", "4"]))
        assert params["cc"] == cc
        assert self._digest(params) == digest

    @pytest.mark.parametrize("cc, digest", [
        ("reno", "bbe748baaff28546"),
        ("compound", "90c7dae60dbca6ea"),
        ("scalable", "60a29818ebd736ce"),
        ("hstcp", "532a2e5baa407f63"),
        ("bbr", "51f3e269732edece"),
    ])
    def test_zoo_cell(self, monkeypatch, cc, digest):
        from repro.experiments.cc_comparison import run_cc_comparison
        from repro.experiments.report import SCALES
        params = self._first_cell(monkeypatch, lambda: run_cc_comparison(
            **dict(SCALES["quick"]["zoo"], ccs=(cc,))))
        assert params["cc"] == cc
        assert self._digest(params) == digest
