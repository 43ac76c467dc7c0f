"""End-to-end tests for SweepSupervisor.run with a worker fleet: spawn,
merge, resume, audit."""

import json

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.fabric.supervisor import fn_reference
from repro.runner.supervisor import SweepSupervisor
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
        lease_seconds=30.0,
        max_retries=2,
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
        """One retry budget: max_retries + 1 attempts, then the verdict."""
        grid = [{"x": 1, "seed": 3}]
        serial, = SweepSupervisor(fabric_fns.always_stalls, max_retries=2,
                                  retry_backoff=None).run(grid)
        queued, = fleet_sweep(
            fabric_fns.always_stalls,
            **fabric_kwargs(tmp_path, grid=grid, workers=1,
                            max_lease_failures=3, max_retries=2))
        assert ((queued.ok, queued.attempts, queued.error)
                == (serial.ok, serial.attempts, serial.error)
                == (False, 3, "SimulationStalledError: cell x=1 never "
                              "converges"))
        with open(str(tmp_path / "sweep.ckpt.json")) as fh:
            fabric = json.load(fh)["meta"]["fabric"]
        assert fabric["counters"]["fabric.leases_claimed"] == 1
        assert fabric["quarantined"][0]["failure_count"] == 1

    def test_poison_cells_surface_as_failed_outcomes(self, tmp_path):
        """Leases that end without a verdict burn the lease budget."""
        grid = [{"x": 1, "seed": 3}]
        outcomes = fleet_sweep(
            fabric_fns.raises_bug,
            **fabric_kwargs(tmp_path, grid=grid, workers=1,
                            max_lease_failures=2, max_retries=0))
        assert len(outcomes) == 1
        assert not outcomes[0].ok
        assert "quarantined after 2 failed lease" in outcomes[0].error
        with open(str(tmp_path / "sweep.ckpt.json")) as fh:
            payload = json.load(fh)
        quarantined = payload["meta"]["fabric"]["quarantined"]
        assert len(quarantined) == 1  # never silently dropped
        assert quarantined[0]["failure_count"] == 2

    def test_corrupt_checkpoint_recovers_from_queue_records(self, tmp_path):
        kwargs = fabric_kwargs(tmp_path)
        first = fleet_sweep(fabric_fns.quadratic, **kwargs)
        with open(kwargs["checkpoint_path"], "w") as fh:
            fh.write('{"version": 1, "cells": {"torn')  # simulated torn write
        again = fleet_sweep(fabric_fns.quadratic, **kwargs)
        assert all(o.ok for o in again)
        assert ([json.dumps(o.result, sort_keys=True) for o in again]
                == [json.dumps(o.result, sort_keys=True) for o in first])
        import os
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
        grid = [{"x": i, "run_dir": str(tmp_path)} for i in range(3)]
        kwargs = fabric_kwargs(tmp_path, grid=grid, **{option: value})
        with pytest.raises(ConfigurationError, match=option):
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
