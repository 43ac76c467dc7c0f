"""The chaos suite: SIGKILL workers mid-sweep, prove nothing is lost.

This is the acceptance bar for the fabric (ISSUE 6): with every one of
the three original workers SIGKILLed at a protocol-critical point —
one mid-cell, one *inside a completed-cell record write* (the torn-
checkpoint window), one *mid-lease-renewal* — the sweep must still
complete, the merged grid must be bit-identical to a serial run, no
cell may exceed its retry budget, and each death must leave a crash
dump.  Respawned workers get fresh spawn indices, so the
``@worker_index`` chaos filters never re-kill the replacements.
"""

import json
import os
import signal

import pytest

from repro.fabric.chaos import ENV_VAR
from repro.fabric.queue import WorkQueue, cell_digest
from repro.runner.supervisor import SweepSupervisor, cell_key
from tests.fabric import fabric_fns

#: Figure-7-style grid: one row per (flow-count-like) parameter.  The
#: 0.6s delay keeps cells in flight across lease renewals (lease 0.75s
#: -> heartbeat every 0.25s) so the renewal kill window actually opens.
GRID = [{"x": i, "seed": 23, "delay": 0.6} for i in range(8)]
WORKERS = 3
MAX_LEASE_FAILURES = 3
#: All three original workers die: >= 30% of the fleet, as required.
CHAOS_SPEC = "run@0,complete-pre-rename@1,renew@2"


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """One chaos-injected fabric sweep, shared by every assertion."""
    tmp_path = tmp_path_factory.mktemp("chaos")
    queue_dir = str(tmp_path / "queue")
    checkpoint = str(tmp_path / "sweep.ckpt.json")
    os.environ[ENV_VAR] = CHAOS_SPEC
    try:
        outcomes = SweepSupervisor(
            fabric_fns.slow_quadratic,
            queue_dir=queue_dir,
            workers=WORKERS,
            checkpoint_path=checkpoint,
            lease_seconds=0.75,
            max_lease_failures=MAX_LEASE_FAILURES,
            max_retries=1,
            timeout=180.0,
        ).run(GRID)
    finally:
        os.environ.pop(ENV_VAR, None)
    return {
        "outcomes": outcomes,
        "queue": WorkQueue.open(queue_dir),
        "checkpoint": checkpoint,
    }


def test_sweep_completes_despite_the_killings(chaos_run):
    outcomes = chaos_run["outcomes"]
    assert len(outcomes) == len(GRID)
    assert all(outcome.ok for outcome in outcomes), [
        outcome.error for outcome in outcomes if not outcome.ok]


def test_grid_bit_identical_to_serial_run(chaos_run):
    serial = SweepSupervisor(fabric_fns.slow_quadratic, max_retries=1).run(GRID)
    fabric_results = [json.dumps(o.result, sort_keys=True)
                      for o in chaos_run["outcomes"]]
    serial_results = [json.dumps(s.result, sort_keys=True) for s in serial]
    assert fabric_results == serial_results


def test_all_three_workers_were_sigkilled(chaos_run):
    queue = chaos_run["queue"]
    tally = queue.tally()
    assert tally["fabric.worker_deaths"] >= WORKERS
    for index in range(WORKERS):
        dump_path = os.path.join(queue.root, "crashes",
                                 f"worker-{index}.json")
        assert os.path.exists(dump_path), f"no crash dump for worker {index}"
        from repro.fabric import records
        dump = records.read_record(dump_path)
        assert dump["exitcode"] == -signal.SIGKILL
        assert dump["signal"] == signal.SIGKILL


def test_killed_workers_cells_were_stolen_within_budget(chaos_run):
    queue = chaos_run["queue"]
    tally = queue.tally()
    # Each victim died holding a lease (mid-run, pre-rename, mid-renew),
    # so each of those cells had to be re-leased by a survivor.
    assert tally["fabric.leases_expired"] >= WORKERS
    assert tally["fabric.leases_stolen"] >= WORKERS
    for params in GRID:
        digest = cell_digest(cell_key(params))
        failures = queue.failures(digest)
        assert len(failures) < MAX_LEASE_FAILURES, (
            f"cell {params} burned its whole lease budget: {failures}")


def test_no_cell_was_poisoned_or_dropped(chaos_run):
    queue = chaos_run["queue"]
    assert queue.quarantined() == {}
    assert queue.drained()
    assert len(queue.completed()) == len(GRID)


def test_checkpoint_audits_the_chaos(chaos_run):
    with open(chaos_run["checkpoint"]) as fh:
        payload = json.load(fh)
    assert len(payload["cells"]) == len(GRID)
    fabric = payload["meta"]["fabric"]
    assert len(fabric["worker_deaths"]) >= WORKERS
    assert fabric["respawns"] >= WORKERS
    assert fabric["counters"]["fabric.completions"] == len(GRID)
    assert fabric["quarantined"] == []
    # The merged checkpoint is a valid obs report source.
    from repro.obs import load_report_source
    shape, snap = load_report_source(chaos_run["checkpoint"])
    assert shape == "snapshot"
    assert snap["counters"]["fabric.completions"] == len(GRID)
