"""Module-level trial functions for the fabric tests.

Spawned worker processes resolve the trial function from the queue
spec's ``module:qualname`` reference and re-import it from scratch, so
every function the fabric tests sweep must live in an importable
module — this one — rather than inside a test function or ``__main__``.
All of them are pure functions of their parameters, which is what the
bit-identical-to-serial assertions rely on.
"""

from __future__ import annotations

import os
import time

from repro.errors import ConfigurationError, SimulationStalledError
from repro.runner.supervisor import RESEED_STRIDE


def quadratic(x, seed=0):
    """Deterministic, instant: the baseline happy-path cell."""
    return {"y": x * x + seed, "x": x, "seed": seed}


def flaky_first_seed(x, seed):
    """Fails transiently on the base seed, succeeds once reseeded.

    Mirrors a pathological-draw simulation: attempt 1 (base seed)
    stalls, attempt 2 (``seed + RESEED_STRIDE``) completes.  Fully
    deterministic, so serial and fabric runs retry identically.
    """
    if seed % RESEED_STRIDE == seed:  # base seed, not yet reseeded
        raise SimulationStalledError(f"pathological draw for x={x}, seed={seed}")
    return {"y": x * 10, "x": x, "recovered_seed": seed}


def always_stalls(x, seed=0):
    """Every attempt stalls: exercises the poison-cell quarantine."""
    raise SimulationStalledError(f"cell x={x} never converges")


def raises_bug(x, seed=0):
    """An unexpected exception: the lease ends without a verdict."""
    raise RuntimeError(f"cell x={x} hit a bug")


def marks_run(x, run_dir, seed=0):
    """Appends a line to a per-cell marker file, to count executions."""
    with open(os.path.join(run_dir, f"cell-{x}.ran"), "a") as fh:
        fh.write("1\n")
    return {"y": x * 10, "x": x}


def misconfigured(x, seed=0):
    """Fatal configuration error: must quarantine without retries."""
    raise ConfigurationError(f"cell x={x} is malformed")


def slow_quadratic(x, seed=0, delay=0.5):
    """Deterministic result after a real wall delay.

    The delay keeps cells in flight long enough for lease renewals to
    fire and for chaos triggers to land mid-sweep; it cannot affect the
    result, which depends only on the parameters.
    """
    time.sleep(delay)
    return {"y": x * x + seed, "x": x, "seed": seed}


def exits_at_once(queue_root, index):
    """A fleet worker entry point that dies before it opens the queue."""
    raise SystemExit(1)
