"""Experiment harness: one module per figure/table of the paper.

==============================  =======================================
module                          reproduces
==============================  =======================================
:mod:`~repro.experiments.single_flow`          Figures 2–5 (sawtooth, under/over-buffering)
:mod:`~repro.experiments.window_distribution`  Figure 6 (Gaussian aggregate window) + sync-vs-n
:mod:`~repro.experiments.long_flow_sweep`      Figure 7 (min buffer vs n for target utilization)
:mod:`~repro.experiments.short_flow_sweep`     Figure 8 (min buffer for AFCT, short flows)
:mod:`~repro.experiments.afct_comparison`      Figure 9 (AFCT: small vs large buffers)
:mod:`~repro.experiments.utilization_table`    Table 10 (model vs sim vs experiment)
:mod:`~repro.experiments.production_network`   Table 11 (mixed production-like traffic)
:mod:`~repro.experiments.ablations`            design-choice ablations (RED, delack, CC flavor, ...)
==============================  =======================================

Every module exposes a parameterized compute function returning typed
results; :mod:`~repro.experiments.report` is the one place a result
becomes text and a verdict (``repro figure N``, ``repro table N``,
``repro ablations`` and ``python -m repro.experiments.report`` all
print its sections).  Default parameters are scaled for laptop runtimes
while preserving the dimensionless quantities the theory depends on
(load, buffer in units of ``RTT*C/sqrt(n)``, pipe-per-flow); pass bigger
numbers to approach the paper's absolute scale.
"""

from repro.experiments.common import (
    LongFlowResult,
    ShortFlowResult,
    run_long_flow_experiment,
    run_short_flow_experiment,
)

__all__ = [
    "LongFlowResult",
    "ShortFlowResult",
    "run_long_flow_experiment",
    "run_short_flow_experiment",
]
