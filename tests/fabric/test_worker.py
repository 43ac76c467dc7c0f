"""Tests for the in-process worker loop and trial-function resolution."""

import pytest

from repro.errors import FabricError
from repro.fabric.queue import WorkQueue
from repro.fabric.worker import Worker, resolve_fn
from repro.runner.supervisor import RESEED_STRIDE, cell_key
from tests.fabric import fabric_fns


def make_queue(tmp_path, grid, fn_ref="tests.fabric.fabric_fns:quadratic",
               **options):
    cells = {cell_key(p): p for p in grid}
    return WorkQueue.create(str(tmp_path / "q"), cells, fn_ref=fn_ref,
                            options=dict({"lease_seconds": 30.0}, **options))


def run_worker(queue, **kwargs):
    kwargs.setdefault("sleep", lambda seconds: None)  # no real sleeping
    worker = Worker(queue, **kwargs)
    return worker, worker.run()


class TestWorkerLoop:
    def test_drains_queue_and_publishes_results(self, tmp_path):
        grid = [{"x": i, "seed": 5} for i in range(5)]
        queue = make_queue(tmp_path, grid)
        _, stats = run_worker(queue, index=0)
        assert stats["completed"] == 5
        assert queue.drained()
        results = {record["params"]["x"]: record["result"]
                   for record in queue.completed().values()}
        assert results[3] == {"y": 14, "x": 3, "seed": 5}

    def test_resolves_fn_from_spec_when_not_injected(self, tmp_path):
        queue = make_queue(tmp_path, [{"x": 2, "seed": 0}])
        worker = Worker(queue, sleep=lambda s: None)
        assert worker.fn is fabric_fns.quadratic

    def test_transient_failure_retries_with_reseed_in_lease(self, tmp_path):
        grid = [{"x": 1, "seed": 7}]
        queue = make_queue(tmp_path, grid,
                           fn_ref="tests.fabric.fabric_fns:flaky_first_seed",
                           max_retries=2)
        _, stats = run_worker(queue, index=0)
        assert stats == {"completed": 1, "failed": 0, "quarantined": 0,
                         "leases_lost": 0}
        record = next(iter(queue.completed().values()))
        assert record["attempts"] == 2  # base seed stalled, reseed recovered
        assert record["result"]["recovered_seed"] == 7 + RESEED_STRIDE

    def test_exhausted_retries_park_the_cell_at_once(self, tmp_path):
        grid = [{"x": 1, "seed": 7}]
        queue = make_queue(tmp_path, grid,
                           fn_ref="tests.fabric.fabric_fns:always_stalls",
                           max_retries=1, max_lease_failures=3)
        _, stats = run_worker(queue, index=0)
        assert stats["quarantined"] == 1
        assert stats["failed"] == 0  # a verdict, not a lease to retry
        entry = next(iter(queue.quarantined().values()))
        assert entry["failure_count"] == 1
        assert entry["attempts"] == 2  # max_retries + 1, as the serial row
        assert "never converges" in entry["last_error"]
        assert queue.drained()  # quarantine resolves the cell; no hang

    def test_unexpected_exception_burns_leases_then_quarantines(
            self, tmp_path):
        grid = [{"x": 1, "seed": 7}]
        queue = make_queue(tmp_path, grid,
                           fn_ref="tests.fabric.fabric_fns:raises_bug",
                           max_lease_failures=3)
        _, stats = run_worker(queue, index=0)
        assert stats["quarantined"] == 1
        assert stats["failed"] == 2  # two failed leases before the third
        entry = next(iter(queue.quarantined().values()))
        assert entry["failure_count"] == 3
        assert entry["attempts"] is None

    def test_fatal_error_quarantines_without_burning_budget(self, tmp_path):
        grid = [{"x": 1, "seed": 7}]
        queue = make_queue(tmp_path, grid,
                           fn_ref="tests.fabric.fabric_fns:misconfigured",
                           max_lease_failures=5)
        _, stats = run_worker(queue, index=0)
        assert stats["quarantined"] == 1
        entry = next(iter(queue.quarantined().values()))
        assert entry["failure_count"] == 1
        assert entry["failures"][0]["kind"] == "fatal"

    def test_request_stop_drains_before_exit(self, tmp_path):
        grid = [{"x": i, "seed": 0} for i in range(4)]
        queue = make_queue(tmp_path, grid)
        worker = Worker(queue, sleep=lambda s: None, index=0)
        worker.request_stop()
        stats = worker.run()
        assert stats["completed"] == 0  # stop honored before first claim
        assert not queue.drained()

    def test_two_workers_split_the_grid_without_duplication(self, tmp_path):
        grid = [{"x": i, "seed": 0} for i in range(8)]
        queue = make_queue(tmp_path, grid)
        _, stats_a = run_worker(queue, index=0)
        _, stats_b = run_worker(queue, index=1)
        assert stats_a["completed"] == 8  # first worker drained everything
        assert stats_b["completed"] == 0
        assert queue.tally()["fabric.completions"] == 8


class TestResolveFn:
    def test_resolves_module_colon_qualname(self):
        assert (resolve_fn("tests.fabric.fabric_fns:quadratic")
                is fabric_fns.quadratic)

    def test_resolves_dotted_fallback(self):
        assert (resolve_fn("tests.fabric.fabric_fns.quadratic")
                is fabric_fns.quadratic)

    @pytest.mark.parametrize("ref,match", [
        (None, "no trial-function reference"),
        ("", "no trial-function reference"),
        ("justaname", "malformed"),
        ("no.such.module:fn", "cannot import"),
        ("tests.fabric.fabric_fns:nope", "no attribute"),
        ("tests.fabric.fabric_fns:RESEED_STRIDE", "non-callable"),
    ])
    def test_bad_refs_are_loud(self, ref, match):
        with pytest.raises(FabricError, match=match):
            resolve_fn(ref)
