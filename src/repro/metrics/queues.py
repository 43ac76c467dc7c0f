"""Queue-occupancy monitoring for the router buffer under study.

Wraps a :class:`~repro.net.queues.Queue` with a sampling probe and
windowed drop/arrival accounting, producing the Q(t) traces of
Figures 2–5 and the loss-rate numbers discussed in Section 5.1.1.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.net.queues import Queue
from repro.sim.trace import Probe, TimeSeries

__all__ = ["QueueMonitor"]


class QueueMonitor:
    """Samples queue length and accounts drops over a window.

    Parameters
    ----------
    sim:
        The simulator.
    queue:
        The queue to observe.
    sample_period:
        Sampling period for the occupancy trace (default 10 ms), or
        ``None`` to disable the occupancy trace entirely — the monitor
        then keeps only windowed drop/arrival accounting and schedules
        no per-sample events (null probe).
    t_start:
        When to begin sampling and windowed counting (default: now).
    t_end:
        Optional end of the accounting window.  Also bounds the probe:
        no occupancy sample is taken past it, even if the simulator is
        re-entered for a later phase.
    """

    def __init__(self, sim, queue: Queue, sample_period: Optional[float] = 0.01,
                 t_start: Optional[float] = None, t_end: Optional[float] = None):
        self.sim = sim
        self.queue = queue
        self.t_start = sim.now if t_start is None else t_start
        self.t_end = t_end
        self.series = TimeSeries("queue-occupancy")
        fn = None if sample_period is None else lambda: len(queue)
        period = 0.01 if sample_period is None else sample_period
        self._probe = Probe(sim, fn, period, series=self.series)
        self._arrivals_at_start = 0
        self._drops_at_start = 0
        self._arrivals_at_end: Optional[int] = None
        self._drops_at_end: Optional[int] = None
        sim.call_at(self.t_start, self._open)
        if t_end is not None:
            sim.call_at(t_end, self._close)

    def _open(self) -> None:
        self._arrivals_at_start = self.queue.arrivals
        self._drops_at_start = self.queue.drops
        self._probe.start(t_end=self.t_end)

    def _close(self) -> None:
        self._arrivals_at_end = self.queue.arrivals
        self._drops_at_end = self.queue.drops
        self._probe.stop()

    def _ensure_closed(self) -> None:
        if self._arrivals_at_end is None:
            self._arrivals_at_end = self.queue.arrivals
            self._drops_at_end = self.queue.drops

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def drops(self) -> int:
        """Packets dropped within the window."""
        self._ensure_closed()
        return self._drops_at_end - self._drops_at_start

    @property
    def arrivals(self) -> int:
        """Packets offered within the window."""
        self._ensure_closed()
        return self._arrivals_at_end - self._arrivals_at_start

    @property
    def loss_rate(self) -> float:
        """Windowed drop probability (NaN with no arrivals)."""
        self._ensure_closed()
        return self.drops / self.arrivals if self.arrivals else math.nan

    def mean_occupancy(self) -> float:
        """Mean sampled queue length in packets."""
        return self.series.mean()

    def max_occupancy(self) -> float:
        """Peak sampled queue length in packets."""
        return self.series.maximum()

    def min_occupancy(self) -> float:
        """Minimum sampled queue length in packets."""
        return self.series.minimum()
