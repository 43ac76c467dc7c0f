"""How the fleet starts its workers, and what its poll loop costs.

``repro sweep --jobs N`` forks its workers from the supervisor when
that is safe and spawns them otherwise
(:func:`repro.fabric.supervisor._start_method`).  A forked worker is a
copy of the supervisor, so the first half of this file is about what a
copy could get wrong: inherited chaos hit counts, a live ``repro.obs``
session, inherited signal handlers, a parent that has threads.  The
second half pins the loop itself: each completed record is read once,
the checkpoint is written once per poll, and an idle worker or a
sleeping supervisor does not hold a finished sweep back.
"""

import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.experiments.common import run_long_flow_experiment
from repro.fabric import chaos
from repro.fabric import supervisor as fabric_supervisor
from repro.fabric.queue import WorkQueue, cell_digest
from repro.fabric.supervisor import _start_method
from repro.fabric.worker import Worker
from repro.obs import runtime as obs_runtime
from repro.runner.supervisor import SweepSupervisor, cell_key
from tests.fabric import fabric_fns

def require_fork():
    """Skip where the fleet would not fork even from this test: off
    Linux, or under a pytest plugin that keeps a watchdog thread."""
    if _start_method() != "fork":
        pytest.skip(f"no fork here: {sys.platform}, "
                    f"threads {threading.enumerate()}")


def fabric_kwargs(tmp_path, grid, **overrides):
    kwargs = dict(grid=grid, queue_dir=str(tmp_path / "queue"), workers=2,
                  checkpoint_path=str(tmp_path / "sweep.ckpt.json"),
                  lease_seconds=30.0, timeout=60.0)
    kwargs.update(overrides)
    return kwargs


def fleet_sweep(fn, grid, **options):
    """One sweep of ``grid`` on the supervisor that ``options`` build."""
    return SweepSupervisor(fn, **options).run(grid)


def results(outcomes):
    return [json.dumps(outcome.result, sort_keys=True) for outcome in outcomes]


@pytest.fixture
def start_methods(monkeypatch):
    """The start method of every worker process the test's sweeps start."""
    used = []
    real = fabric_supervisor.multiprocessing.get_context

    def recording(method=None):
        used.append(method)
        return real(method)

    monkeypatch.setattr(fabric_supervisor.multiprocessing, "get_context",
                        recording)
    return used


# ----------------------------------------------------------------------
# What a forked worker must not inherit
# ----------------------------------------------------------------------
class TestStartMethod:
    def test_single_threaded_parent_forks(self, tmp_path, start_methods):
        require_fork()
        grid = [{"x": i, "seed": 4} for i in range(4)]
        outcomes = fleet_sweep(fabric_fns.quadratic,
                               **fabric_kwargs(tmp_path, grid))
        assert start_methods == ["fork", "fork"]
        assert results(outcomes) == results(
            SweepSupervisor(fabric_fns.quadratic).run(grid))

    def test_parent_with_a_live_thread_spawns_the_same_grid(
            self, tmp_path, start_methods):
        grid = [{"x": i, "seed": 4} for i in range(4)]
        release = threading.Event()
        bystander = threading.Thread(target=release.wait, daemon=True)
        bystander.start()
        try:
            # A lock the bystander held at the fork would stay locked
            # in the child for ever: no fork while it lives.
            assert _start_method() == "spawn"
            spawned = fleet_sweep(fabric_fns.quadratic,
                                  **fabric_kwargs(tmp_path, grid))
        finally:
            release.set()
            bystander.join(timeout=5.0)
        assert not bystander.is_alive()
        assert start_methods == ["spawn", "spawn"]
        forked_or_not = fleet_sweep(
            fabric_fns.quadratic,
            **fabric_kwargs(tmp_path / "again", grid, checkpoint_path=None))
        assert results(spawned) == results(forked_or_not)


class TestForkedWorkerState:
    def test_parent_chaos_hits_do_not_disarm_worker_zero(
            self, tmp_path, monkeypatch):
        """``run@0`` counts worker 0's runs, not the supervisor's."""
        monkeypatch.setattr(chaos, "_hits", {})
        monkeypatch.setenv(chaos.ENV_VAR, "run@0")
        for _ in range(3):
            chaos.chaos_point("run")  # the parent: no index, so it lives
        assert chaos._hits == {"run": 3}
        grid = [{"x": i, "seed": 2, "delay": 0.2} for i in range(4)]
        kwargs = fabric_kwargs(tmp_path, grid, workers=3, lease_seconds=0.75)
        outcomes = fleet_sweep(fabric_fns.slow_quadratic, **kwargs)
        assert all(outcome.ok for outcome in outcomes)
        with open(kwargs["checkpoint_path"]) as fh:
            deaths = json.load(fh)["meta"]["fabric"]["worker_deaths"]
        assert {"worker_index": 0, "exitcode": -signal.SIGKILL} in deaths

    def test_observed_parent_gets_the_cells_an_unobserved_one_does(
            self, tmp_path):
        """An obs session in the supervisor must not leak into workers:
        it would add a metrics snapshot to every cell result."""
        fn = run_long_flow_experiment
        grid = [dict(n_flows=n, buffer_packets=10, pipe_packets=30,
                     bottleneck_rate="10Mbps", warmup=0.5, duration=1.0,
                     seed=3) for n in (2, 3)]
        plain = fleet_sweep(
            fn, **fabric_kwargs(tmp_path / "plain", grid,
                                checkpoint_path=None))
        obs_runtime.enable()
        try:
            observed = fleet_sweep(
                fn, **fabric_kwargs(tmp_path / "observed", grid,
                                    checkpoint_path=None))
        finally:
            obs_runtime.disable()
        assert all(outcome.ok for outcome in plain + observed)
        assert results(observed) == results(plain)
        assert all(outcome.result["metrics"] is None for outcome in observed)

    def test_sigterm_before_the_workers_handlers_is_held_not_lost(
            self, tmp_path, monkeypatch):
        """A drain signal in a forked worker's first instants meets the
        supervisor's inherited handler unless it is held back.  Held, it
        is delivered once the worker's own handler exists: the worker
        leaves without claiming and without counting as a death, and the
        supervisor finishes the grid itself."""
        parent = os.getpid()
        real_open = WorkQueue.open

        def open_after_sigterm(root):
            if os.getpid() != parent:  # in the worker, handlers not yet in
                os.kill(os.getpid(), signal.SIGTERM)
            return real_open(root)

        require_fork()  # a spawned worker would not inherit the patch
        monkeypatch.setattr(WorkQueue, "open",
                            staticmethod(open_after_sigterm))
        grid = [{"x": i, "seed": 9} for i in range(4)]
        kwargs = fabric_kwargs(tmp_path, grid, timeout=30.0)
        outcomes = fleet_sweep(fabric_fns.quadratic, **kwargs)
        assert all(outcome.ok for outcome in outcomes)
        with open(kwargs["checkpoint_path"]) as fh:
            fabric = json.load(fh)["meta"]["fabric"]
        assert fabric["worker_deaths"] == [] and fabric["respawns"] == 0
        # No worker published a cell: the supervisor ran all four.
        queue = real_open(kwargs["queue_dir"])
        assert queue.completed() == {}


class TestStopWakesAnIdleWorker:
    def test_stop_from_a_signal_handler_ends_the_idle_wait(self, tmp_path):
        """request_stop() runs in a signal handler on the thread that is
        idling; the wait must end there and then, not deadlock and not
        sleep the back-off out."""
        queue = WorkQueue.create(
            str(tmp_path / "q"), {cell_key({"x": 1}): {"x": 1}},
            fn_ref="tests.fabric.fabric_fns:quadratic")
        worker = Worker(queue, index=0)
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: worker.request_stop())
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.1)
            started = time.monotonic()
            worker._idle(30.0)
            waited = time.monotonic() - started
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert 0.05 < waited < 5.0
        worker.request_stop()  # a second request is harmless
        assert worker.run()["completed"] == 0  # and it stays requested

    def test_sweep_returns_when_its_last_cell_does(self, tmp_path):
        """Three slow cells on two workers: one worker idles through the
        third cell, deep into its back-off.  The drain signal must end
        that wait, and the supervisor must notice the exit."""
        grid = [{"x": i, "seed": 1, "delay": 2.0} for i in range(3)]
        kwargs = fabric_kwargs(tmp_path, grid)
        outcomes = fleet_sweep(fabric_fns.slow_quadratic, **kwargs)
        returned = time.time()
        assert all(outcome.ok for outcome in outcomes)
        queue = WorkQueue.open(kwargs["queue_dir"])
        last_completion = max(
            os.stat(queue._cell_path(cell_digest(cell_key(params)))).st_mtime
            for params in grid)
        assert returned - last_completion < 0.3


# ----------------------------------------------------------------------
# The merge loop
# ----------------------------------------------------------------------
class TestMergeLoop:
    @pytest.mark.parametrize("cells,delay", [(4, 0.15), (24, 0.05)])
    def test_each_record_read_once_and_one_write_per_merging_poll(
            self, tmp_path, monkeypatch, cells, delay):
        merging = []          # True while _merge_completed runs
        reads = {}            # digest -> completed records read by it
        polls = {"all": 0, "merged": 0}
        writes = []

        real_merge = SweepSupervisor._merge_completed
        real_read = WorkQueue.completed_record
        real_write = SweepSupervisor._write_checkpoint

        def merge(self, queue, pending):
            before = len(pending)
            merging.append(True)
            try:
                real_merge(self, queue, pending)
            finally:
                merging.pop()
            polls["all"] += 1
            polls["merged"] += len(pending) < before

        def read(self, digest):
            record = real_read(self, digest)
            if merging and record is not None:
                reads[digest] = reads.get(digest, 0) + 1
            return record

        def write(self):
            writes.append(len(self._cells))
            real_write(self)

        monkeypatch.setattr(SweepSupervisor, "_merge_completed", merge)
        monkeypatch.setattr(WorkQueue, "completed_record", read)
        monkeypatch.setattr(SweepSupervisor, "_write_checkpoint", write)

        grid = [{"x": i, "seed": 6, "delay": delay} for i in range(cells)]
        outcomes = fleet_sweep(fabric_fns.slow_quadratic,
                               **fabric_kwargs(tmp_path, grid))
        assert all(outcome.ok for outcome in outcomes)
        assert polls["all"] >= 3  # or "however many polls" says nothing
        assert sorted(reads.values()) == [1] * cells
        # One write per poll that merged something, plus the final one
        # that carries the audit block; each holds all cells so far.
        assert len(writes) == polls["merged"] + 1
        assert writes == sorted(writes) and writes[-1] == cells

    def test_checkpoint_equals_the_one_written_cell_by_cell(self, tmp_path):
        grid = [{"x": i, "seed": 6} for i in range(8)]
        kwargs = fabric_kwargs(tmp_path, grid)
        fleet_sweep(fabric_fns.quadratic, **kwargs)
        with open(kwargs["checkpoint_path"]) as fh:
            batched = json.load(fh)

        # Replay the same records through a write after every cell.
        queue = WorkQueue.open(kwargs["queue_dir"])
        path = str(tmp_path / "cell-by-cell.json")
        replay = SweepSupervisor(fabric_fns.quadratic, checkpoint_path=path)
        for params in grid:
            record = queue.completed_record(cell_digest(cell_key(params)))
            replay._merge_cell(record["key"], params, record["result"],
                               record["attempts"], record["elapsed_seconds"])
            replay._write_checkpoint()
        replay._fabric_meta = batched["meta"]["fabric"]
        replay._write_checkpoint()
        with open(path) as fh:
            cell_by_cell = json.load(fh)

        for payload in (batched, cell_by_cell):
            del payload["meta"]["written_at"]
        assert batched == cell_by_cell


# ----------------------------------------------------------------------
# When the fleet is gone
# ----------------------------------------------------------------------
class TestFleetExhausted:
    def test_open_cells_run_in_process_once_every_worker_is_dead(
            self, tmp_path, monkeypatch):
        """Every worker dies at once, and so does every replacement: the
        supervisor runs the grid itself through run_cell, and the
        checkpoint holds what a serial run's does."""
        monkeypatch.setattr(fabric_supervisor, "spawned_worker_entry",
                            fabric_fns.exits_at_once)
        ran = []
        real_run_cell = SweepSupervisor.run_cell

        def run_cell(self, **params):
            ran.append(params)
            return real_run_cell(self, **params)

        monkeypatch.setattr(SweepSupervisor, "run_cell", run_cell)
        grid = [{"x": i, "seed": 5} for i in range(4)]
        kwargs = fabric_kwargs(tmp_path, grid)
        outcomes = fleet_sweep(fabric_fns.quadratic, **kwargs)
        assert all(outcome.ok and not outcome.from_checkpoint
                   for outcome in outcomes)
        assert ran == grid

        serial_path = str(tmp_path / "serial.json")
        SweepSupervisor(fabric_fns.quadratic,
                        checkpoint_path=serial_path).run(grid)
        payloads = []
        for path in (kwargs["checkpoint_path"], serial_path):
            with open(path) as fh:
                payloads.append(json.load(fh))
        fleet, serial = ({key: (cell["params"], cell["result"],
                                cell["attempts"])
                          for key, cell in payload["cells"].items()}
                         for payload in payloads)
        assert len(fleet) == len(grid) and fleet == serial

        fabric = payloads[0]["meta"]["fabric"]
        workers = kwargs["workers"]
        assert fabric["workers"] == workers
        assert fabric["respawns"] == 2 * workers
        deaths = sorted(fabric["worker_deaths"],
                        key=lambda death: death["worker_index"])
        assert deaths == [{"worker_index": index, "exitcode": 1}
                          for index in range(workers + 2 * workers)]
