"""Link-utilization measurement over an explicit window.

The paper's central metric: the fraction of time the bottleneck link's
transmitter is busy between warm-up and the end of the run.  Implemented
by snapshotting the link's cumulative busy time and byte counters at the
window edges, so the measurement itself costs two scheduled events.
"""

from __future__ import annotations

import math
import warnings
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.link import Link

__all__ = ["UtilizationMonitor", "WindowedUtilizationProbe"]


class UtilizationMonitor:
    """Measures busy-fraction and throughput of one link in [t0, t1].

    Parameters
    ----------
    sim:
        The simulator.
    link:
        The link to observe (normally the bottleneck).
    t_start:
        Window start (absolute sim time); choose it past the slow-start
        transient.
    t_end:
        Window end, or ``None`` to read whenever :meth:`result` is called
        after the run.

    Notes
    -----
    The busy-time counter advances only at end-of-serialization, so a
    packet in flight at a window edge contributes its full serialization
    to the side where it finishes.  At the packet counts involved
    (tens of thousands per window) this edge effect is far below the
    paper's own +/-0.1% measurement accuracy.
    """

    def __init__(self, sim, link: Link, t_start: float, t_end: Optional[float] = None):
        if t_start < sim.now:
            raise ConfigurationError("measurement window starts in the past")
        if t_end is not None and t_end <= t_start:
            raise ConfigurationError("t_end must exceed t_start")
        self.sim = sim
        self.link = link
        self.t_start = t_start
        self.t_end = t_end
        self._busy_at_start: float = math.nan
        self._bytes_at_start: int = 0
        self._busy_at_end: float = math.nan
        self._bytes_at_end: int = 0
        self._closed = False
        sim.call_at(t_start, self._open)
        if t_end is not None:
            sim.call_at(t_end, self._close)

    def _open(self) -> None:
        self._busy_at_start = self.link.busy_time
        self._bytes_at_start = self.link.bytes_delivered

    def _close(self) -> None:
        self._busy_at_end = self.link.busy_time
        self._bytes_at_end = self.link.bytes_delivered
        self._closed = True

    def _ensure_closed(self) -> None:
        if not self._closed:
            if self.sim.now < self.t_start:
                raise ConfigurationError(
                    "utilization window has not started; run the simulation first"
                )
            self.t_end = self.sim.now
            self._close()

    def _measured_span(self) -> float:
        """Window span, or NaN (with a warning) for a degenerate window.

        A run aborted by a watchdog or fault at — or a hair past — the
        window start leaves a zero/near-zero span; dividing by it would
        turn one aborted cell into a ``ZeroDivisionError`` or an
        ``inf`` utilization that poisons downstream aggregation.
        """
        span = self.t_end - self.t_start
        if not span > 0.0 or math.isnan(self._busy_at_start):
            warnings.warn(
                f"utilization window [{self.t_start}, {self.t_end}] has "
                f"zero/unopened span (run aborted at the window edge?); "
                f"reporting nan",
                RuntimeWarning, stacklevel=3)
            return math.nan
        return span

    @property
    def utilization(self) -> float:
        """Busy fraction of the link in the window (0..1); NaN if the
        window never accumulated a positive span."""
        self._ensure_closed()
        span = self._measured_span()
        if math.isnan(span):
            return math.nan
        return (self._busy_at_end - self._busy_at_start) / span

    @property
    def throughput_bps(self) -> float:
        """Delivered goodput+overhead in bits/second over the window;
        NaN if the window never accumulated a positive span."""
        self._ensure_closed()
        span = self._measured_span()
        if math.isnan(span):
            return math.nan
        return (self._bytes_at_end - self._bytes_at_start) * 8.0 / span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "closed" if self._closed else "open"
        return f"UtilizationMonitor([{self.t_start}, {self.t_end}], {status})"


class WindowedUtilizationProbe:
    """Per-window busy fractions: the *trajectory* of utilization.

    Where :class:`UtilizationMonitor` gives one number for the whole
    measurement window, this probe samples the link's cumulative busy
    time every ``period`` seconds and records the busy fraction of each
    window.  That is what fault experiments need: the aggregate hides a
    two-second outage, the trajectory shows the dip and — the question
    that matters — whether utilization climbs back to its pre-fault
    level once the link returns.

    Attributes
    ----------
    windows:
        ``(window_end_time, busy_fraction)`` per completed window.
    """

    def __init__(self, sim, link: Link, period: float = 1.0,
                 t_start: float = 0.0, t_end: Optional[float] = None):
        if period <= 0:
            raise ConfigurationError(f"probe period must be positive, got {period}")
        if t_start < sim.now:
            raise ConfigurationError("probe window starts in the past")
        if t_end is not None and t_end <= t_start:
            raise ConfigurationError("t_end must exceed t_start")
        self.sim = sim
        self.link = link
        self.period = period
        self.t_start = t_start
        self.t_end = t_end
        self.windows: List[Tuple[float, float]] = []
        self._last_busy: float = math.nan
        self._last_tick_at: float = t_start
        sim.call_at(t_start, self._open)

    def _open(self) -> None:
        self._last_busy = self.link.busy_time
        self._last_tick_at = self.sim.now
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.t_end is None or self.sim.now + self.period <= self.t_end + 1e-12:
            self.sim.schedule(self.period, self._tick)
        elif self.sim.now + 1e-12 < self.t_end:
            # t_end is not a whole number of periods away: close the
            # trailing partial window exactly at t_end instead of
            # silently dropping it (it is often the window that shows
            # the tail of a fault recovery).
            self.sim.call_at(self.t_end, self._final_tick)

    def _tick(self) -> None:
        busy = self.link.busy_time
        self.windows.append((self.sim.now, (busy - self._last_busy) / self.period))
        self._last_busy = busy
        self._last_tick_at = self.sim.now
        self._schedule_next()

    def _final_tick(self) -> None:
        span = self.sim.now - self._last_tick_at
        if span <= 1e-12:
            return
        busy = self.link.busy_time
        # Scale by the window's actual span, not the nominal period: a
        # half-length window at full utilization is still utilization 1.
        self.windows.append((self.sim.now, (busy - self._last_busy) / span))
        self._last_busy = busy
        self._last_tick_at = self.sim.now
