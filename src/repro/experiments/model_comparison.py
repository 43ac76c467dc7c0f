"""Where the sqrt(n) buffer requirement comes from: a bracket argument.

Three instruments compute the minimum buffer for a utilization target
as a function of flow count:

1. the **fluid integrator, synchronized mode** — all flows halve
   together.  Needs ~the full bandwidth-delay product at every ``n``:
   the rule-of-thumb's world.
2. the **fluid integrator, desynchronized mode** — one flow halves at a
   time, everything else is deterministic.  Needs almost *no* buffer at
   large ``n``: with statistics removed, the surviving flows' additive
   increase covers one victim's halving almost instantly.
3. the **Gaussian aggregate-window model** (Section 3) — tracks
   ``pipe/sqrt(n)``.

The bracket is the insight: the sqrt(n) requirement is *exactly the
statistical fluctuation term*.  Deterministic desynchronized AIMD needs
~zero buffer; full synchronization needs the whole BDP; real traffic —
desynchronized but random — sits between, and the CLT says the gap
scales as ``1/sqrt(n)``.  The packet-level answer for the same
question is Figure 7's sweep (:mod:`repro.experiments.long_flow_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.core import buffer_for_utilization
from repro.fluid.sweep import fluid_min_buffer

__all__ = ["ComparisonRow", "compare_models"]


@dataclass
class ComparisonRow:
    """Minimum buffer (packets) for one flow count, per instrument."""

    n_flows: int
    gaussian: float
    fluid_desync: float
    fluid_sync: float
    sqrt_rule: float


def compare_models(
    n_values: Sequence[int] = (16, 64, 256),
    target: float = 0.99,
    pipe_packets: float = 400.0,
    fluid_duration: float = 120.0,
) -> List[ComparisonRow]:
    """Compute the min-buffer curve with the three model instruments.

    Parameters
    ----------
    n_values:
        Flow counts.
    target:
        Utilization target.
    """
    rows: List[ComparisonRow] = []
    for n in n_values:
        rows.append(ComparisonRow(
            n_flows=n,
            gaussian=buffer_for_utilization(target, pipe_packets, n),
            fluid_desync=fluid_min_buffer(
                n, target, pipe_packets, synchronized=False,
                duration=fluid_duration, warmup=fluid_duration / 2),
            fluid_sync=fluid_min_buffer(
                n, target, pipe_packets, synchronized=True,
                duration=fluid_duration, warmup=fluid_duration / 2),
            sqrt_rule=pipe_packets / math.sqrt(n),
        ))
    return rows
