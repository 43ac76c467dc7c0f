"""Time-series tracing.

Two small primitives used throughout the metrics layer:

* :class:`TimeSeries` — an append-only ``(time, value)`` record with
  mean/min/max, slicing, and a histogram.
* :class:`Probe` — schedules itself on a :class:`~repro.sim.engine.Simulator`
  to sample a callable at a fixed period into a :class:`TimeSeries`.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # import cycle: engine only needed for annotations
    from repro.sim.engine import Event, Simulator

__all__ = ["TimeSeries", "Probe"]


class TimeSeries:
    """An append-only series of ``(time, value)`` samples.

    Appends must be in non-decreasing time order (the simulator clock is
    monotonic, so this holds by construction).
    """

    __slots__ = ("times", "values", "name")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at ``time``; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ConfigurationError(
                f"TimeSeries {self.name!r}: time went backwards "
                f"({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Unweighted mean of the recorded values."""
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    def minimum(self) -> float:
        return min(self.values) if self.values else math.nan

    def maximum(self) -> float:
        return max(self.values) if self.values else math.nan

    # ------------------------------------------------------------------
    # Windowing / resampling
    # ------------------------------------------------------------------
    def slice(self, t_start: float, t_end: float) -> "TimeSeries":
        """Return the sub-series with ``t_start <= time <= t_end``."""
        lo = bisect.bisect_left(self.times, t_start)
        hi = bisect.bisect_right(self.times, t_end)
        out = TimeSeries(self.name)
        out.times = self.times[lo:hi]
        out.values = self.values[lo:hi]
        return out

    def histogram(self, nbins: int = 50) -> Tuple[List[float], List[int]]:
        """Equal-width histogram of values; returns (bin_edges, counts)."""
        if nbins <= 0:
            raise ConfigurationError("nbins must be positive")
        if not self.values:
            return [], []
        lo, hi = min(self.values), max(self.values)
        if hi == lo:
            return [lo, hi], [len(self.values)]
        width = (hi - lo) / nbins
        edges = [lo + i * width for i in range(nbins + 1)]
        counts = [0] * nbins
        for v in self.values:
            idx = min(int((v - lo) / width), nbins - 1)
            counts[idx] += 1
        return edges, counts


class Probe:
    """Samples ``fn()`` every ``period`` seconds into a :class:`TimeSeries`.

    Parameters
    ----------
    sim:
        The simulator providing the clock.
    fn:
        Zero-argument callable returning the current value, or ``None``
        for a *null probe*: :meth:`start` then schedules nothing at all,
        so untraced runs pay zero sampling events in the hot loop.
    period:
        Sampling period in seconds.
    series:
        Optional existing series to append into.
    """

    def __init__(self, sim: "Simulator", fn: Optional[Callable[[], float]],
                 period: float, series: Optional[TimeSeries] = None,
                 name: str = "") -> None:
        if period <= 0:
            raise ConfigurationError("probe period must be positive")
        self.sim = sim
        self.fn = fn
        self.period = period
        self.series = series if series is not None else TimeSeries(name)
        self._event: Optional["Event"] = None
        self._active = False
        self._t_end: Optional[float] = None
        self._append_time = self.series.times.append
        self._append_value = self.series.values.append

    def start(self, delay: float = 0.0, t_end: Optional[float] = None) -> "Probe":
        """Begin sampling ``delay`` seconds from now; returns self.

        ``t_end`` is a hard sampling horizon: no sample is recorded at a
        time strictly greater than it.  Without one, a probe whose next
        tick was scheduled past a ``run(until=...)`` pause keeps sampling
        when the loop is re-entered for a later phase — callers that run
        in phases should pass the horizon they care about.

        A null probe (``fn is None``) returns immediately without
        scheduling anything.
        """
        if self.fn is None:
            return self
        self._active = True
        self._t_end = t_end
        self._event = self.sim.schedule(delay, self._tick)
        return self

    def stop(self) -> None:
        """Stop sampling; the series keeps the samples taken so far."""
        self._active = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        fn = self.fn
        if not self._active or fn is None:
            return
        now = self.sim._now
        t_end = self._t_end
        if t_end is not None and now > t_end:
            # Past the horizon: a later run() phase re-entered the loop
            # with this tick still pending.  Stop cleanly.
            self._active = False
            self._event = None
            return
        # The engine clock is monotonic, so the ordering check in
        # TimeSeries.append is redundant here — append directly through
        # the cached bound methods (release-mode fast path).
        self._append_time(now)
        self._append_value(float(fn()))
        self._event = self.sim.schedule(self.period, self._tick)
