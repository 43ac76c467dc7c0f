"""End-to-end tests for SweepSupervisor.run with a worker fleet: spawn,
merge, resume, audit."""

import json
import os

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.fabric.queue import cell_digest
from repro.fabric.supervisor import fn_reference
from repro.runner.supervisor import SweepSupervisor, cell_key
from tests.fabric import fabric_fns

GRID = [{"x": i, "seed": 11} for i in range(6)]


def fleet_sweep(fn, grid, **options):
    """One sweep of ``grid`` on the supervisor that ``options`` build."""
    return SweepSupervisor(fn, **options).run(grid)


def fabric_kwargs(tmp_path, **overrides):
    kwargs = dict(
        grid=GRID,
        queue_dir=str(tmp_path / "queue"),
        workers=2,
        checkpoint_path=str(tmp_path / "sweep.ckpt.json"),
    )
    kwargs.update(overrides)
    return kwargs


class TestFnReference:
    def test_callable_round_trips(self):
        assert (fn_reference(fabric_fns.quadratic)
                == "tests.fabric.fabric_fns:quadratic")

    def test_string_ref_verified(self):
        assert (fn_reference("tests.fabric.fabric_fns:quadratic")
                == "tests.fabric.fabric_fns:quadratic")

    def test_lambda_rejected(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            fn_reference(lambda x: x)

    def test_main_module_rejected(self):
        def fake():
            return None

        fake.__module__ = "__main__"
        fake.__qualname__ = "fake"
        with pytest.raises(ConfigurationError, match="__main__"):
            fn_reference(fake)


class TestFabricSweep:
    def test_completes_grid_bit_identical_to_serial(self, tmp_path):
        outcomes = fleet_sweep(fabric_fns.quadratic,
                               **fabric_kwargs(tmp_path))
        serial = SweepSupervisor(fabric_fns.quadratic).run(GRID)
        assert all(outcome.ok for outcome in outcomes)
        fabric_results = [json.dumps(o.result, sort_keys=True)
                          for o in outcomes]
        serial_results = [json.dumps(s.result, sort_keys=True)
                          for s in serial]
        assert fabric_results == serial_results  # bit-identical, in order

    def test_checkpoint_carries_fabric_audit(self, tmp_path):
        kwargs = fabric_kwargs(tmp_path)
        fleet_sweep(fabric_fns.quadratic, **kwargs)
        with open(kwargs["checkpoint_path"]) as fh:
            payload = json.load(fh)
        assert payload["version"] == 1
        assert len(payload["cells"]) == len(GRID)
        fabric = payload["meta"]["fabric"]
        assert fabric["workers"] == 2
        assert fabric["counters"]["fabric.completions"] == len(GRID)
        assert fabric["quarantined"] == []
        # Counters are merged into meta.metrics even with obs disabled,
        # so `repro obs report <checkpoint>` audits the run directly.
        metrics = payload["meta"]["metrics"]
        assert metrics["counters"]["fabric.completions"] == len(GRID)

    def test_resume_skips_checkpointed_cells(self, tmp_path):
        kwargs = fabric_kwargs(tmp_path)
        first = fleet_sweep(fabric_fns.quadratic, **kwargs)
        assert not any(o.from_checkpoint for o in first)
        again = fleet_sweep(fabric_fns.quadratic,
                            **fabric_kwargs(tmp_path,
                                            queue_dir=str(tmp_path / "q2")))
        assert all(o.from_checkpoint for o in again)
        assert ([json.dumps(o.result, sort_keys=True) for o in again]
                == [json.dumps(o.result, sort_keys=True) for o in first])

    def test_fresh_run_discards_queue_state(self, tmp_path):
        """resume=False re-runs every cell, not just forgets the checkpoint."""
        grid = [{"x": i, "run_dir": str(tmp_path)} for i in range(3)]
        kwargs = fabric_kwargs(tmp_path, grid=grid, resume=False)
        for _ in range(2):
            outcomes = fleet_sweep(fabric_fns.marks_run, **kwargs)
            assert all(o.ok and not o.from_checkpoint for o in outcomes)
        for i in range(3):
            assert (tmp_path / f"cell-{i}.ran").read_text() == "1\n1\n"
        with open(kwargs["checkpoint_path"]) as fh:
            counters = json.load(fh)["meta"]["fabric"]["counters"]
        assert counters["fabric.completions"] == 3  # this run's, not both

    def test_no_more_workers_than_unresolved_cells(self, tmp_path):
        kwargs = fabric_kwargs(tmp_path, grid=GRID[:1], workers=3)
        fleet_sweep(fabric_fns.quadratic, **kwargs)
        with open(kwargs["checkpoint_path"]) as fh:
            assert json.load(fh)["meta"]["fabric"]["workers"] == 1

    def test_failing_cell_reads_as_the_serial_failed_row(self, tmp_path):
        """One run at the requested seed, then the verdict."""
        grid = [{"x": 1, "seed": 3}]
        serial, = SweepSupervisor(fabric_fns.always_stalls).run(grid)
        queued, = fleet_sweep(
            fabric_fns.always_stalls,
            **fabric_kwargs(tmp_path, grid=grid, workers=1))
        assert ((queued.ok, queued.params, queued.error)
                == (serial.ok, serial.params, serial.error)
                == (False, grid[0], "SimulationStalledError: cell x=1 "
                                    "seed=3 never converges"))
        with open(str(tmp_path / "sweep.ckpt.json")) as fh:
            fabric = json.load(fh)["meta"]["fabric"]
        assert fabric["counters"]["fabric.requeued"] == 0
        assert fabric["quarantined"] == []  # a verdict, not a poison cell

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("fn,exc_type,message", [
        (fabric_fns.misconfigured, ConfigurationError,
         "cell x=1 is malformed"),
        (fabric_fns.raises_bug, RuntimeError, "cell x=1 hit a bug"),
    ], ids=["misconfigured", "raises_bug"])
    def test_a_raising_cell_raises_the_same_with_or_without_workers(
            self, tmp_path, workers, fn, exc_type, message):
        grid = [{"x": 1, "seed": 3}]
        kwargs = fabric_kwargs(tmp_path, grid=grid, workers=workers)
        if not workers:
            del kwargs["queue_dir"]
        with pytest.raises(exc_type) as err:
            fleet_sweep(fn, **kwargs)
        assert type(err.value) is exc_type and str(err.value) == message

    def test_poison_cells_surface_as_failed_outcomes(self, tmp_path):
        """A cell that kills every worker it is handed to — three of
        them — is a FAILED row, not a wedged sweep."""
        grid = [{"x": 1, "seed": 3}]
        outcomes = fleet_sweep(
            fabric_fns.kills_itself,
            **fabric_kwargs(tmp_path, grid=grid, workers=1))
        assert len(outcomes) == 1
        assert not outcomes[0].ok
        assert outcomes[0].error == ("poison cell: its worker died 3 times "
                                     "(last exit code -9)")
        with open(str(tmp_path / "sweep.ckpt.json")) as fh:
            payload = json.load(fh)
        fabric = payload["meta"]["fabric"]
        assert len(fabric["quarantined"]) == 1  # never silently dropped
        assert fabric["quarantined"][0]["deaths"] == 3
        assert fabric["counters"]["fabric.quarantined"] == 1
        assert fabric["counters"]["fabric.requeued"] == 2
        assert payload["cells"] == {}

    def test_corrupt_checkpoint_recovers_from_queue_records(self, tmp_path):
        kwargs = fabric_kwargs(tmp_path)
        first = fleet_sweep(fabric_fns.quadratic, **kwargs)
        with open(kwargs["checkpoint_path"], "w") as fh:
            fh.write('{"version": 1, "cells": {"torn')  # simulated torn write
        again = fleet_sweep(fabric_fns.quadratic, **kwargs)
        assert all(o.ok for o in again)
        assert ([json.dumps(o.result, sort_keys=True) for o in again]
                == [json.dumps(o.result, sort_keys=True) for o in first])
        assert os.path.exists(kwargs["checkpoint_path"] + ".corrupt")
        with open(kwargs["checkpoint_path"]) as fh:
            rebuilt = json.load(fh)
        assert len(rebuilt["cells"]) == len(GRID)  # rebuilt from records

    def test_non_json_params_rejected_up_front(self, tmp_path):
        class Fancy:
            def to_dict(self):
                return {"v": 1}

        with pytest.raises(ConfigurationError, match="JSON-native"):
            fleet_sweep(fabric_fns.quadratic,
                        **fabric_kwargs(tmp_path,
                                        grid=[{"x": Fancy(), "seed": 1}]))

    def test_worker_count_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="workers"):
            fleet_sweep(fabric_fns.quadratic,
                        **fabric_kwargs(tmp_path, workers=-1))

    @pytest.mark.parametrize("option,value", [
        ("lease_seconds", 0), ("lease_seconds", -1),
        ("lease_seconds", float("nan")),
        ("max_lease_failures", 0), ("max_lease_failures", -2),
    ])
    def test_lease_options_validated_before_anything_starts(
            self, tmp_path, option, value):
        # The lease options are gone: passing one is an error before
        # anything starts, not a setting silently ignored.
        grid = [{"x": i, "run_dir": str(tmp_path)} for i in range(3)]
        kwargs = fabric_kwargs(tmp_path, grid=grid, **{option: value})
        with pytest.raises(TypeError, match=option):
            fleet_sweep(fabric_fns.marks_run, **kwargs)
        # No queue, no checkpoint, no cell: nothing was started.
        assert list(tmp_path.iterdir()) == []

    def test_uncreatable_queue_dir_is_a_fabric_error(self, tmp_path):
        (tmp_path / "file").write_text("not a directory")
        grid = [{"x": i, "run_dir": str(tmp_path)} for i in range(3)]
        kwargs = fabric_kwargs(tmp_path, grid=grid,
                               queue_dir=str(tmp_path / "file" / "queue"))
        with pytest.raises(FabricError, match="cannot create queue"):
            fleet_sweep(fabric_fns.marks_run, **kwargs)
        assert not list(tmp_path.glob("cell-*.ran"))


class TestOneStore:
    """Every executor writes each finished cell once, as its record, and
    resumes by one rule: the checkpoint's cells plus the records."""

    @staticmethod
    def store(tmp_path):
        checkpoint = str(tmp_path / "sweep.json")
        return {"checkpoint_path": checkpoint,
                "queue_dir": checkpoint + ".queue"}

    @staticmethod
    def marked_grid(tmp_path, xs):
        run_dir = tmp_path / "runs"
        run_dir.mkdir(exist_ok=True)
        return [{"x": x, "run_dir": str(run_dir)} for x in xs]

    @staticmethod
    def drop_from_view(store, params, record_too=False):
        """What a supervisor SIGKILLed before its one write leaves: the
        cell missing from the view (and, ``record_too``, not finished)."""
        path = store["checkpoint_path"]
        with open(path) as fh:
            payload = json.load(fh)
        del payload["cells"][cell_key(params)]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        if record_too:
            digest = cell_digest(cell_key(params))
            record = os.path.join(store["queue_dir"], "cells", digest[:2],
                                  f"{digest}.json")
            if os.path.exists(record):
                os.unlink(record)

    def test_fresh_without_workers_discards_the_fleets_records(
            self, tmp_path):
        store = self.store(tmp_path)
        grid = self.marked_grid(tmp_path, [1, 2])
        SweepSupervisor(fabric_fns.marks_run, workers=1, **store).run(grid)
        self.drop_from_view(store, grid[1])
        SweepSupervisor(fabric_fns.marks_run, resume=False,
                        checkpoint_path=store["checkpoint_path"]).run(grid[:1])
        outcomes = SweepSupervisor(fabric_fns.marks_run, workers=1,
                                   **store).run(grid)
        # --fresh discarded cell 2's record too, so it runs again.
        assert (tmp_path / "runs" / "cell-2.ran").read_text() == "1\n1\n"
        assert [o.from_checkpoint for o in outcomes] == [True, False]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_killed_runs_record_resumes_as_checkpointed(
            self, tmp_path, workers):
        store = self.store(tmp_path)
        grid = self.marked_grid(tmp_path, [1, 2])
        SweepSupervisor(fabric_fns.marks_run, workers=1, **store).run(grid)
        self.drop_from_view(store, grid[1])
        resumed = SweepSupervisor(fabric_fns.marks_run, workers=workers,
                                  **store)
        assert resumed.completed_cells == 2
        outcomes = resumed.run(grid)
        assert [o.from_checkpoint for o in outcomes] == [True, True]
        assert (tmp_path / "runs" / "cell-2.ran").read_text() == "1\n"

    @pytest.mark.parametrize("workers", [0, 1])
    def test_a_grown_grid_resumes_the_cells_it_shares(self, tmp_path,
                                                      workers):
        store = self.store(tmp_path)
        grid = self.marked_grid(tmp_path, [1, 2, 3])
        SweepSupervisor(fabric_fns.marks_run, workers=workers,
                        **store).run(grid[:2])
        grown = SweepSupervisor(fabric_fns.marks_run, workers=workers,
                                **store)
        assert grown.completed_cells == 2
        outcomes = grown.run(grid)
        assert [o.from_checkpoint for o in outcomes] == [True, True, False]
        for x in (1, 2, 3):
            assert (tmp_path / "runs" / f"cell-{x}.ran").read_text() == "1\n"
        with open(store["checkpoint_path"]) as fh:
            assert list(json.load(fh)["cells"]) == [cell_key(p) for p in grid]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_open_cells_run_under_the_resumes_budgets(self, tmp_path,
                                                      workers):
        store = self.store(tmp_path)
        grid = [{"x": 1}, {"x": 2}]
        SweepSupervisor(fabric_fns.echoes_max_events, workers=workers,
                        max_events=10, **store).run(grid)
        self.drop_from_view(store, grid[1], record_too=True)
        outcomes = SweepSupervisor(fabric_fns.echoes_max_events,
                                   workers=workers, max_events=99,
                                   **store).run(grid)
        assert [o.result["max_events"] for o in outcomes] == [10, 99]
        assert [o.from_checkpoint for o in outcomes] == [True, False]
