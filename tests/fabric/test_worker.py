"""Tests for the worker loop and trial-function resolution.

``run_worker`` is driven in this process over a scripted pipe: the test
plays the supervisor, handing out ``(digest, params)`` and the budgets,
and reading what comes back.
"""

import json
import os
import signal

import pytest

from repro.errors import ConfigurationError, FabricError
from repro.fabric.queue import WorkQueue, cell_digest
from repro.fabric.worker import resolve_fn, run_worker
from repro.runner.supervisor import SweepSupervisor, cell_key
from tests.fabric import fabric_fns


def make_queue(tmp_path, fn_ref="tests.fabric.fabric_fns:quadratic"):
    return WorkQueue.create(str(tmp_path / "q"), fn_ref=fn_ref)


class ScriptedConn:
    """The worker's end of its pipe: hands out ``cells``, then EOF."""

    def __init__(self, cells, on_recv=None):
        self.inbox = list(cells)
        self.outbox = []
        self._on_recv = on_recv

    def send(self, message):
        self.outbox.append(message)

    def recv(self):
        if self._on_recv is not None:
            self._on_recv()
        if not self.inbox:
            raise EOFError
        return self.inbox.pop(0)


@pytest.fixture
def serve(monkeypatch):
    """Run the worker loop here; the drain handlers it installs go
    again afterwards."""
    saved = {signum: signal.getsignal(signum)
             for signum in (signal.SIGTERM, signal.SIGINT)}

    def run(queue, grid, budgets=None, **conn_options):
        conn = ScriptedConn([(cell_digest(cell_key(p)), p) for p in grid],
                            **conn_options)
        assert run_worker(queue.root, 0, conn, **(budgets or {})) == 0
        return conn.outbox

    yield run
    for signum, handler in saved.items():
        signal.signal(signum, handler)


def digests(grid):
    return [cell_digest(cell_key(p)) for p in grid]


class TestWorkerLoop:
    def test_drains_queue_and_publishes_results(self, tmp_path, serve):
        grid = [{"x": i, "seed": 5} for i in range(5)]
        queue = make_queue(tmp_path)
        sent = serve(queue, grid)
        assert sent == [("ready",)] + [("done", d) for d in digests(grid)]
        record = queue.completed_record(digests(grid)[3])
        assert record["result"] == {"y": 14, "x": 3, "seed": 5}
        assert record["key"] == cell_key(grid[3])
        assert set(record) == {"key", "params", "result", "elapsed_seconds"}

    def test_resolves_fn_from_spec_when_not_injected(self, tmp_path, serve):
        grid = [{"x": 2, "seed": 0}]
        queue = make_queue(tmp_path)
        assert resolve_fn(queue.fn_ref) is fabric_fns.quadratic
        serve(queue, grid)
        record = queue.completed_record(digests(grid)[0])
        assert record["result"] == fabric_fns.quadratic(**grid[0])

    def test_stalled_cell_goes_back_failed_at_its_own_seed(
            self, tmp_path, serve):
        """A stall is the serial FAILED row, from one run at the seed the
        cell asked for; no record, so a resume runs it again."""
        grid = [{"x": 1, "seed": 7}]
        queue = make_queue(tmp_path,
                           fn_ref="tests.fabric.fabric_fns:always_stalls")
        digest, = digests(grid)
        assert serve(queue, grid)[1:] == [
            ("failed", digest,
             "SimulationStalledError: cell x=1 seed=7 never converges")]
        assert queue.completed_record(digest) is None

    def test_unexpected_exception_burns_leases_then_quarantines(
            self, tmp_path, serve):
        """A bug in the trial function goes back as the exception; the
        worker then takes the next cell."""
        grid = [{"x": 1, "seed": 7}, {"x": 2, "seed": 7}]
        queue = make_queue(tmp_path, fn_ref="tests.fabric.fabric_fns:raises_bug")
        sent = serve(queue, grid)
        assert [message[:2] for message in sent[1:]] == [
            ("raised", d) for d in digests(grid)]
        exc = sent[1][2]
        assert type(exc) is RuntimeError and str(exc) == "cell x=1 hit a bug"
        assert all(queue.completed_record(d) is None for d in digests(grid))

    def test_fatal_error_quarantines_without_burning_budget(
            self, tmp_path, serve):
        """A configuration error is not a FAILED row: one run, then the
        exception, intact across the pipe."""
        import pickle

        grid = [{"x": 1, "seed": 7}]
        queue = make_queue(tmp_path,
                           fn_ref="tests.fabric.fabric_fns:misconfigured")
        (_, _, exc), = serve(queue, grid)[1:]
        rebuilt = pickle.loads(pickle.dumps(exc))
        assert type(rebuilt) is ConfigurationError
        assert str(rebuilt) == "cell x=1 is malformed"

    def test_request_stop_drains_before_exit(self, tmp_path, serve):
        """A drain signal while the worker waits: it leaves without
        running the cell it is then handed."""
        grid = [{"x": i, "run_dir": str(tmp_path)} for i in range(2)]
        queue = make_queue(tmp_path, fn_ref="tests.fabric.fabric_fns:marks_run")
        sent = serve(queue, grid,
                     on_recv=lambda: os.kill(os.getpid(), signal.SIGTERM))
        assert sent == [("ready",)]
        assert not list(tmp_path.glob("cell-*.ran"))

    def test_two_workers_split_the_grid_without_duplication(self, tmp_path):
        grid = [{"x": i, "run_dir": str(tmp_path)} for i in range(8)]
        checkpoint = str(tmp_path / "ck.json")
        outcomes = SweepSupervisor(
            fabric_fns.marks_run, workers=2, queue_dir=str(tmp_path / "q"),
            checkpoint_path=checkpoint).run(grid)
        assert all(outcome.ok for outcome in outcomes)
        for i in range(8):
            assert (tmp_path / f"cell-{i}.ran").read_text() == "1\n"
        with open(checkpoint) as fh:
            counters = json.load(fh)["meta"]["fabric"]["counters"]
        assert counters["fabric.completions"] == 8


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
        ("tests.fabric.fabric_fns:__doc__", "non-callable"),
    ])
    def test_bad_refs_are_loud(self, ref, match):
        with pytest.raises(FabricError, match=match):
            resolve_fn(ref)
