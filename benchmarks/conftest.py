"""Shared benchmark configuration.

Every benchmark regenerates one section of
``repro.experiments.report`` at its ``default`` preset.  Simulations are
long-running and deterministic, so each benchmark executes exactly one
round — the timing numbers are honest wall-clock costs of regenerating
the result, and the section's text and claims land in ``extra_info``
(in the JSON saved by ``--benchmark-json``).
"""

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
