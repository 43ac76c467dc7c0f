"""Flow-completion-time collection: the AFCT metric of Figures 8 and 9.

A :class:`FctCollector` is handed to workload generators as the
``on_complete`` sink for :class:`~repro.tcp.flow.FlowRecord` objects and
offers the average (AFCT), percentiles, and per-size breakdowns used by
the short-flow experiments.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.tcp.flow import FlowRecord

__all__ = ["FctCollector"]


class FctCollector:
    """Accumulates flow-completion records.

    Parameters
    ----------
    t_start, t_end:
        Optional accounting window: only flows that *started* within the
        window count (this is how warm-up flows are excluded from AFCT).
    """

    def __init__(self, t_start: float = 0.0, t_end: Optional[float] = None):
        self.t_start = t_start
        self.t_end = t_end
        self.records: List[FlowRecord] = []
        self.ignored = 0

    def __call__(self, record: FlowRecord) -> None:
        """Record sink; pass the collector itself as ``on_complete``."""
        if record.start_time < self.t_start:
            self.ignored += 1
            return
        if self.t_end is not None and record.start_time > self.t_end:
            self.ignored += 1
            return
        self.records.append(record)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def completion_times(self) -> List[float]:
        """All recorded completion times, in completion order."""
        return [r.completion_time for r in self.records]

    @property
    def afct(self) -> float:
        """Average flow-completion time (the paper's AFCT)."""
        if not self.records:
            return math.nan
        return sum(r.completion_time for r in self.records) / len(self.records)

    def percentile(self, q: float) -> float:
        """FCT quantile ``q`` in [0, 1] (linear interpolation)."""
        times = sorted(self.completion_times())
        if not times:
            return math.nan
        if len(times) == 1:
            return times[0]
        rank = q * (len(times) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return times[low]
        frac = rank - low
        return times[low] * (1 - frac) + times[high] * frac

    @property
    def flows_with_loss(self) -> int:
        """Number of recorded flows that retransmitted at least once."""
        return sum(1 for r in self.records if r.retransmits > 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FctCollector(n={len(self.records)}, afct={self.afct:.4g})"
