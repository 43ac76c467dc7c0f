"""Section 3: the Gaussian model of the aggregate congestion window.

With ``n`` desynchronized long-lived flows, the sum of the per-flow
sawtooths converges (CLT) to a Gaussian process.  Each flow's sawtooth
oscillates between ``(2/3) w_bar`` and ``(4/3) w_bar`` around its mean
``w_bar``; treating its phase as uniform gives a per-flow variance of
``w_bar^2 / 27`` (range ``(2/3) w_bar``, uniform variance range^2/12).
Summing independent flows:

    sigma_W = (P + B) / (3 * sqrt(3) * sqrt(n))

where ``P + B`` is the mean aggregate window (pipe plus buffer is where
the aggregate lives when the link is busy).  The ``1/sqrt(n)`` is the
whole story: the buffer must absorb aggregate-window fluctuations, and
those shrink with the square root of the flow count — hence
``B = RTT*C/sqrt(n)``.

The model's mean is pinned just below the overflow level: drops occur
when ``W`` reaches ``P + B``, so the stationary distribution hugs that
ceiling from below.  We place the mean at ``P + B - q * sigma`` with
``q`` (default 2.0) the "peak quantile": peaks about ``q`` standard
deviations above the mean touch the ceiling and cause the drops that
hold the aggregate in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelError
from repro.mathutils import finite, normal_partial_expectation

__all__ = ["AggregateWindowModel", "aggregate_window_std"]

#: 3 * sqrt(3): per-flow sawtooth std is w_bar / (3 sqrt 3).
_SAWTOOTH_FACTOR = 3.0 * math.sqrt(3.0)

#: Default peak quantile pinning the mean below the overflow ceiling.
DEFAULT_PEAK_QUANTILE = 2.0


def aggregate_window_std(pipe_packets: float, buffer_packets: float, n_flows: int) -> float:
    """Standard deviation of the aggregate window (packets)."""
    # Written so that nan fails them: it compares false with everything.
    if not (math.isfinite(n_flows) and n_flows >= 1):
        raise ModelError(f"n_flows must be finite and >= 1, got {n_flows}")
    if not (math.isfinite(pipe_packets) and pipe_packets > 0):
        raise ModelError(f"pipe_packets must be finite and > 0, got {pipe_packets}")
    if not (math.isfinite(buffer_packets) and buffer_packets >= 0):
        raise ModelError(f"buffer_packets must be finite and >= 0, got {buffer_packets}")
    return (finite(pipe_packets + buffer_packets, "pipe_packets + buffer_packets")
            / (_SAWTOOTH_FACTOR * math.sqrt(n_flows)))


@dataclass(frozen=True)
class AggregateWindowModel:
    """Gaussian model of ``W = sum(W_i)`` for ``n`` long-lived flows.

    Parameters
    ----------
    pipe_packets:
        ``P = 2 * mean(Tp) * C`` in packets.
    buffer_packets:
        Bottleneck buffer ``B`` in packets.
    n_flows:
        Number of concurrent long-lived flows.
    peak_quantile:
        How many sigma below the overflow ceiling the mean sits
        (see module docstring).
    """

    pipe_packets: float
    buffer_packets: float
    n_flows: int
    peak_quantile: float = DEFAULT_PEAK_QUANTILE

    def __post_init__(self):
        # Validation happens in aggregate_window_std.
        aggregate_window_std(self.pipe_packets, self.buffer_packets, self.n_flows)

    @property
    def std(self) -> float:
        """sigma_W in packets."""
        return aggregate_window_std(self.pipe_packets, self.buffer_packets, self.n_flows)

    @property
    def mean(self) -> float:
        """Model mean of the aggregate window in packets."""
        return self.pipe_packets + self.buffer_packets - self.peak_quantile * self.std

    def expected_shortfall(self) -> float:
        """``E[(P - W)+]`` in packets — the average unfilled pipe."""
        return normal_partial_expectation(self.pipe_packets, self.mean, self.std)

    def utilization(self) -> float:
        """Predicted link utilization.

        When ``W < P`` the link serves at rate ``(W/P) * C`` (the window
        limits the data in flight); otherwise at ``C``.  Hence

            util = E[min(W/P, 1)] = 1 - E[(P - W)+] / P.
        """
        return max(0.0, 1.0 - self.expected_shortfall() / self.pipe_packets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AggregateWindowModel(P={self.pipe_packets:.0f}pkt, "
            f"B={self.buffer_packets:.0f}pkt, n={self.n_flows}, "
            f"mu={self.mean:.1f}, sigma={self.std:.1f})"
        )
