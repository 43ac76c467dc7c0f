"""Module-level trial functions for the fabric tests.

Spawned worker processes resolve the trial function from the record
directory spec's ``module:qualname`` reference and re-import it from scratch, so
every function the fabric tests sweep must live in an importable
module — this one — rather than inside a test function or ``__main__``.
All of them are pure functions of their parameters, which is what the
bit-identical-to-serial assertions rely on.
"""

from __future__ import annotations

import os
import signal
import time

from repro.errors import ConfigurationError, SimulationStalledError


def quadratic(x, seed=0):
    """Deterministic, instant: the baseline happy-path cell."""
    return {"y": x * x + seed, "x": x, "seed": seed}


def always_stalls(x, seed=0):
    """Stalls: the FAILED row, whose error names the seed that ran."""
    raise SimulationStalledError(f"cell x={x} seed={seed} never converges")


def raises_bug(x, seed=0):
    """An unexpected exception: the sweep raises it, as in-process."""
    raise RuntimeError(f"cell x={x} hit a bug")


def marks_run(x, run_dir, seed=0, delay=0.0):
    """Appends a line to a per-cell marker file, to count executions;
    ``delay`` seconds later, the result."""
    with open(os.path.join(run_dir, f"cell-{x}.ran"), "a") as fh:
        fh.write("1\n")
    time.sleep(delay)
    return {"y": x * 10, "x": x}


def misconfigured(x, seed=0):
    """Configuration error: the sweep raises it, as in-process."""
    raise ConfigurationError(f"cell x={x} is malformed")


def slow_quadratic(x, seed=0, delay=0.5):
    """Deterministic result after a real wall delay.

    The delay keeps cells in flight long enough for chaos triggers and
    signals to land mid-sweep; it cannot affect the result, which
    depends only on the parameters.
    """
    time.sleep(delay)
    return {"y": x * x + seed, "x": x, "seed": seed}


def dies_first_time(x, run_dir, seed=0):
    """SIGKILLs its process on the first run, returns on the second."""
    marker = os.path.join(run_dir, f"cell-{x}.died")
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"x": x, "survived": True}


def kills_itself(x, seed=0):
    """SIGKILLs the process that runs it: a poison cell."""
    os.kill(os.getpid(), signal.SIGKILL)


def echoes_max_events(x, seed=0, max_events=None):
    """The event budget the cell ran under."""
    return {"x": x, "max_events": max_events}


def exits_at_once(queue_root, index, conn, inherited=(), **budgets):
    """A fleet worker entry point that dies before it opens the queue."""
    raise SystemExit(1)
