"""The fluid AIMD integrator.

State: per-flow congestion windows ``W_i`` (packets, continuous) and
the bottleneck queue ``Q`` (packets, continuous, clamped to [0, B]).

Dynamics between loss events (classic TCP fluid approximation):

    RTT_i(t) = rtt_i + Q(t) / C
    rate_i(t) = W_i(t) / RTT_i(t)
    dW_i/dt = 1 / RTT_i(t)                (additive increase)
    dQ/dt   = sum_i rate_i(t) - C          (clamped at 0 and B)

Loss events fire when the queue is full and still rising; the reaction
depends on the synchronization mode:

* ``synchronized=True`` — every flow halves (the in-phase lockstep of
  Section 3's first case: the aggregate behaves like one big flow and
  needs the full bandwidth-delay product of buffer);
* ``synchronized=False`` — only the flow with the largest arrival rate
  halves (drop-tail hits the biggest sender with high probability);
  halvings spread out in time and the aggregate window smooths, which
  is the desynchronization the sqrt(n) rule rides on.

Utilization is the time-average of ``min(sum rate_i, C) / C``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ModelError

__all__ = ["FluidAimdModel", "FluidResult"]


@dataclass
class FluidResult:
    """Outcome of a fluid integration.

    Attributes
    ----------
    utilization:
        Time-average delivered fraction of capacity over the
        measurement window.
    loss_events:
        Number of halving events.
    mean_queue:
        Time-average queue (packets).
    queue_series, window_series:
        Optional coarse (t, value) traces for plotting.
    """

    utilization: float
    loss_events: int
    mean_queue: float
    queue_series: List[Tuple[float, float]] = field(default_factory=list)
    window_series: List[Tuple[float, float]] = field(default_factory=list)


class FluidAimdModel:
    """Fluid model of ``n`` AIMD flows through one bottleneck.

    Parameters
    ----------
    n_flows:
        Number of flows.
    capacity_pps:
        Bottleneck capacity in packets/second.
    buffer_packets:
        Buffer ``B`` in packets.
    rtts:
        Per-flow two-way propagation delays in seconds; a single value
        is broadcast.
    synchronized:
        Loss-reaction mode (see module docstring).
    initial_windows:
        Optional starting windows; defaults to a small spread around the
        fair share so the desynchronized mode starts asymmetric.
    """

    def __init__(
        self,
        n_flows: int,
        capacity_pps: float,
        buffer_packets: float,
        rtts: Sequence[float],
        synchronized: bool = False,
        initial_windows: Optional[Sequence[float]] = None,
    ):
        if n_flows < 1:
            raise ConfigurationError("need at least one flow")
        if not (math.isfinite(capacity_pps) and capacity_pps > 0):
            raise ConfigurationError(
                f"capacity must be finite and > 0, got {capacity_pps}")
        if not buffer_packets >= 0:  # nan fails too
            raise ConfigurationError("buffer must be >= 0")
        rtt_list = list(rtts)
        if len(rtt_list) == 1:
            rtt_list = rtt_list * n_flows
        if len(rtt_list) != n_flows:
            raise ConfigurationError(f"need 1 or {n_flows} RTTs")
        if not all(math.isfinite(r) and r > 0 for r in rtt_list):
            raise ConfigurationError("RTTs must be finite and > 0")
        self.n_flows = n_flows
        self.capacity = float(capacity_pps)
        self.buffer = float(buffer_packets)
        self.rtts = rtt_list
        self.synchronized = synchronized
        self._rtts_array = np.asarray(rtt_list, dtype=float)
        if initial_windows is not None:
            if len(initial_windows) != n_flows:
                raise ConfigurationError("initial_windows length mismatch")
            self._windows = np.asarray(initial_windows, dtype=float)
        else:
            # Stagger initial windows around the fair share: identical
            # starting points would keep the desynchronized mode
            # artificially symmetric.
            pipe = self.capacity * (sum(rtt_list) / n_flows)
            fair = max(pipe / n_flows, 1.0)
            self._windows = fair * (0.5 + (np.arange(n_flows) + 1.0)
                                    / (n_flows + 1.0))
        self.queue = 0.0
        self.time = 0.0
        self.loss_events = 0

    @property
    def windows(self) -> List[float]:
        """Per-flow windows as a plain list (the array is internal)."""
        return self._windows.tolist()

    @windows.setter
    def windows(self, values: Sequence[float]) -> None:
        if len(values) != self.n_flows:
            raise ConfigurationError("windows length mismatch")
        self._windows = np.asarray(values, dtype=float)

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def _rates(self) -> "np.ndarray":
        q_delay = self.queue / self.capacity
        return self._windows / (self._rtts_array + q_delay)

    def step(self, dt: float) -> float:
        """Advance by ``dt`` seconds; returns delivered fraction of C."""
        q_delay = self.queue / self.capacity
        effective_rtts = self._rtts_array + q_delay
        rates = self._windows / effective_rtts
        total = float(rates.sum())
        # Additive increase: one packet per RTT.
        self._windows += dt / effective_rtts
        # Queue evolution.
        self.queue += (total - self.capacity) * dt
        if self.queue < 0.0:
            self.queue = 0.0
        if self.queue >= self.buffer and total > self.capacity:
            self.queue = self.buffer
            self._loss_event(rates)
        delivered = min(total, self.capacity) / self.capacity
        self.time += dt
        return delivered

    def _loss_event(self, rates) -> None:
        self.loss_events += 1
        if self.synchronized:
            np.maximum(self._windows / 2.0, 1.0, out=self._windows)
        else:
            victim = int(np.argmax(rates))
            self._windows[victim] = max(self._windows[victim] / 2.0, 1.0)

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def run(self, duration: float, warmup: float = 0.0,
            dt: Optional[float] = None, trace_points: int = 0) -> FluidResult:
        """Integrate for ``warmup + duration`` seconds.

        Parameters
        ----------
        duration:
            Measured span (after ``warmup``).
        dt:
            Time step; defaults to ``min(rtt) / 100``.
        trace_points:
            If positive, record roughly this many (t, Q) and (t, sum W)
            samples in the result.

        Returns
        -------
        FluidResult with utilization and queue statistics over the
        measured span.
        """
        if not (math.isfinite(duration) and duration > 0):
            raise ModelError(f"duration must be finite and > 0, got {duration}")
        if dt is None:
            dt = min(self.rtts) / 50.0
        if not (math.isfinite(dt) and dt > 0):
            raise ModelError(f"dt must be finite and > 0, got {dt}")
        t_end = self.time + warmup + duration
        t_measure = self.time + warmup
        delivered_area = 0.0
        queue_area = 0.0
        measured = 0.0
        trace_q: List[Tuple[float, float]] = []
        trace_w: List[Tuple[float, float]] = []
        trace_gap = duration / trace_points if trace_points > 0 else math.inf
        next_trace = t_measure
        while self.time < t_end:
            step = min(dt, t_end - self.time)
            delivered = self.step(step)
            if self.time > t_measure:
                span = min(step, self.time - t_measure)
                delivered_area += delivered * span
                queue_area += self.queue * span
                measured += span
                if trace_points > 0 and self.time >= next_trace:
                    trace_q.append((self.time, self.queue))
                    trace_w.append((self.time, float(self._windows.sum())))
                    next_trace += trace_gap
        return FluidResult(
            utilization=delivered_area / measured if measured > 0 else math.nan,
            loss_events=self.loss_events,
            mean_queue=queue_area / measured if measured > 0 else math.nan,
            queue_series=trace_q,
            window_series=trace_w,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FluidAimdModel(n={self.n_flows}, C={self.capacity:.0f}pps, "
                f"B={self.buffer:.0f}pkt, "
                f"{'sync' if self.synchronized else 'desync'})")
