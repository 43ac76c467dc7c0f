"""Tests for the record directory and for how the supervisor owns its cells.

The directory holds the trial function's spec and one record per
finished cell; which cells a sweep has, and which worker runs which,
live only in the supervisor (``repro.fabric.supervisor.FleetRun``).
The class names below keep the names of the protocol steps they
replaced: handing a cell out (was: claim), a dead worker's cell going
back (was: expiry and stealing), a cell's failures, torn records, and
resume.
"""

import os
import signal
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.fabric.queue import (
    WorkQueue,
    cell_digest,
    validate_plain_params,
)
from repro.fabric.supervisor import POISON_DEATHS, FleetRun
from repro.runner.supervisor import SweepSupervisor, cell_key
from tests.fabric import fabric_fns


def make_queue(tmp_path, n=3):
    grid = [{"x": i, "seed": 5} for i in range(n)]
    queue = WorkQueue.create(str(tmp_path / "q"),
                             fn_ref="tests.fabric.fabric_fns:quadratic")
    return queue, grid


def digest_of(params):
    return cell_digest(cell_key(params))


def record_for(params, result):
    return {"key": cell_key(params), "params": params, "result": result,
            "elapsed_seconds": 0.0}


def fleet_run(tmp_path, grid, checkpoint=None):
    """A FleetRun over ``grid`` whose workers are never started."""
    supervisor = SweepSupervisor(
        fabric_fns.quadratic, workers=1, queue_dir=str(tmp_path / "q"),
        checkpoint_path=checkpoint)
    return FleetRun(supervisor, grid)


class FakeConn:
    """The supervisor's end of a worker's pipe, recording what it sends."""

    def __init__(self, incoming=()):
        self.sent = []
        self.closed = False
        self._incoming = list(incoming)

    def send(self, obj):
        self.sent.append(obj)

    def recv(self):
        return self._incoming.pop(0)

    def close(self):
        self.closed = True


def fake_worker(index, cell=None):
    return SimpleNamespace(index=index, conn=FakeConn(), cell=cell,
                           ready=True)


class TestCreateOpen:
    def test_open_round_trips_spec(self, tmp_path):
        """The spec names the trial function and nothing else: no grid,
        no cells, no budgets."""
        from repro.fabric import records

        queue, _ = make_queue(tmp_path)
        reopened = WorkQueue.open(queue.root)
        assert reopened.fn_ref == queue.fn_ref
        assert records.read_record(os.path.join(queue.root, "spec.json")) \
            == {"version": 1, "fn": "tests.fabric.fabric_fns:quadratic"}

    def test_create_attaches_to_matching_queue(self, tmp_path):
        queue, grid = make_queue(tmp_path)
        queue.complete(digest_of(grid[1]), record_for(grid[1], {"y": 1}))
        again = WorkQueue.create(queue.root, fn_ref=queue.fn_ref)
        assert again.root == queue.root
        assert again.completed_record(digest_of(grid[1]))["params"] == grid[1]

    def test_create_rejects_different_grid(self, tmp_path):
        """Records are keyed by content, so another grid is not refused:
        it resumes the cells it shares."""
        grid = [{"x": i, "seed": 0} for i in range(3)]
        fleet_run(tmp_path, grid[:2]).queue.complete(
            digest_of(grid[1]), record_for(grid[1], {"y": 1}))
        grown = fleet_run(tmp_path, grid)
        assert list(grown.todo) == [digest_of(grid[0]), digest_of(grid[2])]
        assert grown.supervisor.completed_cells == 1

    def test_create_rejects_different_fn(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        with pytest.raises(FabricError, match="trial function"):
            WorkQueue.create(queue.root, fn_ref="other.module:fn")

    def test_open_missing_directory_is_clear(self, tmp_path):
        with pytest.raises(FabricError, match="not a fabric queue"):
            WorkQueue.open(str(tmp_path / "nope"))

    @pytest.mark.parametrize("options,match", [
        ({"lease_seconds": 0}, "lease_seconds"),
        ({"lease_seconds": -1.0}, "lease_seconds"),
        ({"lease_seconds": float("nan")}, "lease_seconds"),
        ({"lease_seconds": float("inf")}, "lease_seconds"),
        ({"max_lease_failures": 0}, "max_lease_failures"),
        ({"max_lease_failures": -2}, "max_lease_failures"),
    ])
    def test_create_rejects_leases_that_rob_live_workers(
            self, tmp_path, options, match):
        # The directory takes no options at all: a worker gets its
        # budgets from the supervisor that starts it.  Passing one is
        # refused before the directory is made.
        with pytest.raises(TypeError, match="options"):
            WorkQueue.create(str(tmp_path / "q"), fn_ref=None,
                             options=options)
        with pytest.raises(TypeError, match=match):
            SweepSupervisor(fabric_fns.quadratic,
                            checkpoint_path=str(tmp_path / "ck.json"),
                            **options)
        assert list(tmp_path.iterdir()) == []

    def test_create_names_a_directory_it_cannot_make(self, tmp_path):
        (tmp_path / "file").write_text("not a directory")
        root = str(tmp_path / "file" / "q")
        with pytest.raises(FabricError, match="cannot create queue") as err:
            WorkQueue.create(root, fn_ref=None)
        assert root in str(err.value)


class TestClaimCompleteLifecycle:
    def test_claim_returns_lease_with_params(self, tmp_path):
        """A worker is handed the cell's digest and its params."""
        grid = [{"x": 1, "seed": 0}]
        run = fleet_run(tmp_path, grid)
        worker = fake_worker(0)
        run.live = {0: worker}
        run._dispatch()
        assert worker.conn.sent == [(digest_of(grid[0]), grid[0])]

    def test_leased_cell_not_reclaimable(self, tmp_path):
        """One cell, two idle workers: exactly one is handed it, and the
        other waits (it is not sent away while the cell may come back)."""
        grid = [{"x": 1, "seed": 0}]
        run = fleet_run(tmp_path, grid)
        first, second = fake_worker(0), fake_worker(1)
        run.live = {0: first, 1: second}
        run._dispatch()
        run._dispatch()
        sent = first.conn.sent + second.conn.sent
        assert sent == [(digest_of(grid[0]), grid[0])]
        assert not first.conn.closed and not second.conn.closed
        assert not run.todo

    def test_complete_publishes_and_releases(self, tmp_path):
        queue, grid = make_queue(tmp_path, n=1)
        digest = digest_of(grid[0])
        assert queue.completed_record(digest) is None
        queue.complete(digest, record_for(grid[0], {"y": 42}))
        assert queue.completed_record(digest)["result"] == {"y": 42}
        shard = os.path.dirname(queue._cell_path(digest))
        assert os.listdir(shard) == [f"{digest}.json"]  # no tempfile

    def test_cell_completed_during_a_claim_is_not_claimed(self, tmp_path):
        """A record a killed supervisor's worker published is resumed
        when the next run starts; that cell is never handed out."""
        grid = [{"x": i, "seed": 0} for i in range(3)]
        run = fleet_run(tmp_path, grid)
        run.queue.complete(digest_of(grid[1]), record_for(grid[1], {"y": 1}))
        again = fleet_run(tmp_path, grid)
        assert list(again.todo) == [digest_of(grid[0]), digest_of(grid[2])]
        cached = again.supervisor._cells[cell_key(grid[1])]
        assert cached["result"] == {"y": 1}


class TestExpiryAndStealing:
    def test_expired_lease_is_stolen_with_crash_dump(self, tmp_path):
        """A worker SIGKILLed mid-cell leaves a crash dump naming the
        cell, and the cell runs again on its replacement."""
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        grid = [{"x": 1, "run_dir": str(run_dir)}]
        outcome, = SweepSupervisor(
            fabric_fns.dies_first_time, workers=1,
            queue_dir=str(tmp_path / "q"),
            checkpoint_path=str(tmp_path / "ck.json")).run(grid)
        assert outcome.ok and outcome.result == {"x": 1, "survived": True}
        from repro.fabric import records
        dump = records.read_record(
            str(tmp_path / "q" / "crashes" / "worker-0.json"))
        assert dump["signal"] == signal.SIGKILL
        assert dump["cell"] == digest_of(grid[0])
        import json
        with open(tmp_path / "ck.json") as fh:
            fabric = json.load(fh)["meta"]["fabric"]
        assert fabric["counters"]["fabric.requeued"] == 1
        assert fabric["counters"]["fabric.worker_deaths"] == 1
        assert fabric["quarantined"] == []

    def test_lease_budget_exhaustion_quarantines(self, tmp_path):
        """The third death running a cell makes it a FAILED poison cell."""
        grid = [{"x": 1, "seed": 0}]
        run = fleet_run(tmp_path, grid)
        digest = run.todo.popleft()
        for _ in range(POISON_DEATHS):
            assert digest not in run.verdicts
            run._settle(digest, -9)
            if digest in run.todo:
                run.todo.remove(digest)
        verdict = run.verdicts[digest]
        assert verdict == ("poison cell: its worker died 3 times "
                           "(last exit code -9)")
        assert POISON_DEATHS == 3
        assert run._audit()["counters"]["fabric.quarantined"] == 1
        assert run.quarantined == [{
            "digest": digest, "key": cell_key(grid[0]), "deaths": 3,
            "last_error": verdict}]


class TestFailures:
    def test_fail_then_retry_then_quarantine(self, tmp_path):
        """A death re-queues the cell at the head, so it runs next."""
        grid = [{"x": i, "seed": 0} for i in range(3)]
        run = fleet_run(tmp_path, grid)
        digest = run.todo.pop()  # the last cell, handed out and lost
        run._settle(digest, 1)
        assert run.todo[0] == digest
        assert run.counters["fabric.requeued"] == 1
        assert run.deaths_of == {digest: 1}

    def test_fatal_failure_quarantines_immediately(self, tmp_path):
        """A cell that raised is not re-queued or quarantined: the
        exception is its verdict, as it would be in-process."""
        grid = [{"x": 1, "seed": 0}]
        run = fleet_run(tmp_path, grid)
        digest = run.todo.popleft()
        error = ConfigurationError("cell x=1 is malformed")
        worker = fake_worker(0, cell=digest)
        worker.conn = FakeConn([("raised", digest, error)])
        run._receive(worker)
        assert run.verdicts == {digest: error}
        assert not run.todo and worker.cell is None
        assert run.counters["fabric.requeued"] == 0
        assert run.quarantined == []


class TestCorruptRecords:
    def test_torn_completion_quarantined_and_cell_rerunnable(self, tmp_path):
        grid = [{"x": 1, "seed": 0}]
        run = fleet_run(tmp_path, grid)
        queue = run.queue
        digest = digest_of(grid[0])
        queue.complete(digest, record_for(grid[0], {"y": 1}))
        path = queue._cell_path(digest)
        with open(path, "r+b") as fh:  # tear the record in place
            fh.truncate(20)
        again = fleet_run(tmp_path, grid)
        assert list(again.todo) == [digest]  # the cell is open again
        assert os.path.exists(path + ".corrupt")
        assert again.queue.corrupt_records == 1


class TestResumeSeeding:
    def test_seed_completed_marks_cell_done(self, tmp_path):
        """A cell the checkpoint holds is the supervisor's to resume:
        never queued, never handed out."""
        grid = [{"x": i, "seed": 5} for i in range(2)]
        checkpoint = str(tmp_path / "ck.json")
        SweepSupervisor(fabric_fns.quadratic,
                        checkpoint_path=checkpoint).run(grid[:1])
        run = fleet_run(tmp_path, grid, checkpoint=checkpoint)
        assert list(run.todo) == [digest_of(grid[1])]
        assert digest_of(grid[0]) not in run.open

    def test_seed_unknown_key_ignored(self, tmp_path):
        """A digest the directory holds no record of is an open cell."""
        queue, _ = make_queue(tmp_path)
        assert queue.completed_record(digest_of({"x": 404})) is None
        assert list(queue.completed_records()) == []


class TestParamValidation:
    def test_plain_json_params_accepted(self):
        validate_plain_params({"a": 1, "b": [1.5, "x"], "c": {"d": None}})

    def test_object_params_rejected_with_location(self):
        class Weird:
            def to_dict(self):
                return {"v": 1}

        with pytest.raises(ConfigurationError, match=r"sizes\['inner'\]"):
            validate_plain_params({"sizes": {"inner": Weird()}})


def test_cell_digest_is_stable_and_short():
    key = cell_key({"x": 1, "seed": 2})
    assert cell_digest(key) == cell_digest(key)
    assert len(cell_digest(key)) == 16
