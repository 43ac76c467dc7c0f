"""Tests for the leased work queue: claim/steal/complete/fail/quarantine."""

import json
import os

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.fabric import records
from repro.fabric.queue import (
    WorkQueue,
    cell_digest,
    validate_plain_params,
)
from repro.runner.supervisor import cell_key


def make_queue(tmp_path, n=3, **options):
    grid = [{"x": i, "seed": 5} for i in range(n)]
    cells = {cell_key(p): p for p in grid}
    queue = WorkQueue.create(
        str(tmp_path / "q"), cells,
        fn_ref="tests.fabric.fabric_fns:quadratic",
        options=dict({"lease_seconds": 30.0}, **options))
    return queue, grid


class TestCreateOpen:
    def test_open_round_trips_spec(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        reopened = WorkQueue.open(queue.root)
        assert reopened.fn_ref == queue.fn_ref
        assert sorted(reopened.digests) == sorted(queue.digests)
        assert reopened.lease_seconds == 30.0

    def test_create_attaches_to_matching_queue(self, tmp_path):
        queue, grid = make_queue(tmp_path)
        cells = {cell_key(p): p for p in grid}
        again = WorkQueue.create(queue.root, cells,
                                 fn_ref=queue.fn_ref)
        assert sorted(again.digests) == sorted(queue.digests)

    def test_create_rejects_different_grid(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        other = {cell_key({"x": 99}): {"x": 99}}
        with pytest.raises(FabricError, match="different grid"):
            WorkQueue.create(queue.root, other, fn_ref=queue.fn_ref)

    def test_create_rejects_different_fn(self, tmp_path):
        queue, grid = make_queue(tmp_path)
        cells = {cell_key(p): p for p in grid}
        with pytest.raises(FabricError, match="trial function"):
            WorkQueue.create(queue.root, cells, fn_ref="other.module:fn")

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
        # A lease born expired is stolen while its holder still runs.
        with pytest.raises(ConfigurationError, match=match):
            make_queue(tmp_path, **options)
        assert not (tmp_path / "q").exists()

    def test_create_names_a_directory_it_cannot_make(self, tmp_path):
        (tmp_path / "file").write_text("not a directory")
        root = str(tmp_path / "file" / "q")
        with pytest.raises(FabricError, match="cannot create queue") as err:
            WorkQueue.create(root, {}, fn_ref=None)
        assert root in str(err.value)


class TestClaimCompleteLifecycle:
    def test_claim_returns_lease_with_params(self, tmp_path):
        queue, grid = make_queue(tmp_path, n=1)
        lease = queue.claim("w1", 0)
        assert lease is not None
        assert lease.params == grid[0]
        assert lease.attempt == 0
        assert os.path.exists(lease.path)

    def test_leased_cell_not_reclaimable(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1)
        assert queue.claim("w1", 0) is not None
        assert queue.claim("w2", 1) is None  # validly held

    def test_complete_publishes_and_releases(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1)
        lease = queue.claim("w1", 0)
        queue.complete(lease, {"y": 42}, attempts=1, elapsed_seconds=0.5)
        assert not os.path.exists(lease.path)
        record = queue.completed_record(lease.digest)
        assert record["result"] == {"y": 42}
        assert record["key"] == lease.key
        assert queue.drained()
        assert queue.claim("w2", 1) is None

    def test_cell_completed_during_a_claim_is_not_claimed(
            self, tmp_path, monkeypatch):
        """w1 publishes and releases between w2's "completed?" check and
        w2's read of the lease: w2 must not run the cell a second time."""
        queue, _ = make_queue(tmp_path, n=1)
        lease = queue.claim("w1", 0)
        real_read = records.read_record
        window = [lease]  # open once, at w2's read of w1's lease

        def read(path):
            if path == lease.path and window:
                queue.complete(window.pop(), {"y": 1}, attempts=1,
                               elapsed_seconds=0.0)
            return real_read(path)

        monkeypatch.setattr(records, "read_record", read)
        assert queue.claim("w2", 1) is None
        assert not os.path.exists(lease.path)
        assert queue.tally()["fabric.leases_claimed"] == 1

    def test_renew_extends_and_checks_token(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1)
        lease = queue.claim("w1", 0)
        before = lease.expires_mono
        assert queue.renew(lease) is True
        assert lease.expires_mono >= before
        # A stolen/replaced lease (different token) must refuse to renew.
        records.write_record(lease.path, {"token": "someone-else",
                                          "expires_mono": 1e18})
        assert queue.renew(lease) is False

class TestExpiryAndStealing:
    def test_expired_lease_is_stolen_with_crash_dump(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1, lease_seconds=0.01)
        dead = queue.claim("doomed", 0)
        import time
        time.sleep(0.05)
        stolen = queue.claim("thief", 1)
        assert stolen is not None
        assert stolen.digest == dead.digest
        assert stolen.attempt == 1  # one failed lease on record
        failures = queue.failures(dead.digest)
        assert len(failures) == 1
        assert failures[0]["kind"] == "lease_expired"
        assert failures[0]["dead_lease"]["worker"] == "doomed"
        dumps = os.listdir(os.path.join(queue.root, "crashes"))
        assert any(".expired" in name for name in dumps)
        tally = queue.tally()
        assert tally["fabric.leases_stolen"] == 1
        assert tally["fabric.leases_expired"] == 1

    def test_lease_budget_exhaustion_quarantines(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1, lease_seconds=0.01,
                              max_lease_failures=2)
        import time
        queue.claim("w", 0)
        time.sleep(0.05)
        second = queue.claim("w", 0)  # steal #1 -> failure count 1
        assert second is not None
        time.sleep(0.05)
        third = queue.claim("w", 0)  # steal #2 -> budget hit -> quarantine
        assert third is None
        quarantined = queue.quarantined()
        assert len(quarantined) == 1
        entry = next(iter(quarantined.values()))
        assert entry["failure_count"] == 2
        assert queue.drained()  # quarantined counts as resolved


class TestFailures:
    def test_fail_then_retry_then_quarantine(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1, max_lease_failures=2)
        lease = queue.claim("w", 0)
        assert queue.fail(lease, "stalled", fatal=False) == "retry"
        lease = queue.claim("w", 0)
        assert lease.attempt == 1
        assert queue.fail(lease, "stalled again", fatal=False) == "quarantined"
        entry = next(iter(queue.quarantined().values()))
        assert entry["last_error"] == "stalled again"
        assert queue.claim("w", 0) is None

    def test_fatal_failure_quarantines_immediately(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1, max_lease_failures=5)
        lease = queue.claim("w", 0)
        assert queue.fail(lease, "bad config", traceback_text="tb",
                          fatal=True) == "quarantined"
        entry = next(iter(queue.quarantined().values()))
        assert entry["failure_count"] == 1
        assert entry["failures"][0]["kind"] == "fatal"


class TestCorruptRecords:
    def test_torn_completion_quarantined_and_cell_rerunnable(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1)
        lease = queue.claim("w", 0)
        queue.complete(lease, {"y": 1}, 1, 0.0)
        path = queue._cell_path(lease.digest)
        with open(path, "r+b") as fh:  # tear the record in place
            fh.truncate(20)
        assert queue.completed_record(lease.digest) is None
        assert os.path.exists(path + ".corrupt")
        assert not queue.drained()
        assert queue.claim("w2", 1) is not None  # cell is pending again
        assert queue.tally()["fabric.corrupt_records"] == 1


class TestResumeSeeding:
    def test_seed_completed_marks_cell_done(self, tmp_path):
        queue, grid = make_queue(tmp_path, n=2)
        key = cell_key(grid[0])
        assert queue.seed_completed(key, {
            "key": key, "params": grid[0], "result": {"y": 9},
            "attempts": 1, "elapsed_seconds": 0.0, "seeded": True,
        }) is True
        assert queue.status()["done"] == 1
        lease = queue.claim("w", 0)
        assert lease.key != key  # only the unseeded cell remains

    def test_seed_unknown_key_ignored(self, tmp_path):
        queue, _ = make_queue(tmp_path)
        assert queue.seed_completed(cell_key({"x": 404}), {"result": 1}) is False


class TestEventLog:
    def test_torn_tail_line_skipped(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1)
        queue.log_event("claim", cell="abc")
        with open(os.path.join(queue.root, "events.log"), "a") as fh:
            fh.write('{"ev": "torn')  # crash mid-append
        events = queue.events()
        assert [e["ev"] for e in events] == ["claim"]

    def test_events_are_json_lines(self, tmp_path):
        queue, _ = make_queue(tmp_path, n=1)
        queue.log_event("claim", cell="abc", worker="w")
        with open(os.path.join(queue.root, "events.log")) as fh:
            event = json.loads(fh.readline())
        assert event == {"ev": "claim", "cell": "abc", "worker": "w"}


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
