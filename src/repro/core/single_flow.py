"""Section 2: the single long-lived flow and the rule-of-thumb.

A single TCP flow through a bottleneck of capacity ``C`` (packets/s)
with two-way propagation delay ``2*Tp`` has a pipe of ``P = 2*Tp*C``
packets.  With buffer ``B``, the AIMD sawtooth peaks at
``W_max = P + B`` and halves on each loss.  This module gives the
closed-form utilization of that cycle:

* ``B >= P`` keeps the link permanently busy (the rule-of-thumb, with
  equality the exact sufficient size);
* ``B < P`` idles the link while the halved window regrows to the pipe;
  the utilization follows from integrating the sawtooth (the classical
  75% appears at ``B = 0``).

All quantities are in packets; convert with :mod:`repro.units` at the
call site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelError

__all__ = ["SingleFlowModel"]

#: The cycle integral squares ``P`` and ``P + B``: outside
#: ``[1/_MAX_WINDOW, _MAX_WINDOW]`` the squares leave the float range.
_MAX_WINDOW = 1e150


@dataclass(frozen=True)
class SingleFlowModel:
    """Closed-form AIMD cycle geometry for one long-lived flow.

    Parameters
    ----------
    pipe_packets:
        ``P = 2 * Tp * C`` — the bandwidth-delay product in packets.
    buffer_packets:
        Router buffer ``B`` in packets.
    """

    pipe_packets: float
    buffer_packets: float

    def __post_init__(self):
        # Written so that nan fails them: it compares false with everything.
        if not (math.isfinite(self.pipe_packets) and self.pipe_packets > 0):
            raise ModelError(
                f"pipe_packets must be finite and > 0, got {self.pipe_packets}")
        if not (math.isfinite(self.buffer_packets) and self.buffer_packets >= 0):
            raise ModelError(f"buffer_packets must be finite and >= 0, "
                             f"got {self.buffer_packets}")
        if not self.pipe_packets >= 1.0 / _MAX_WINDOW:
            raise ModelError(f"pipe_packets must be >= {1.0 / _MAX_WINDOW:g}, "
                             f"got {self.pipe_packets}")
        if not self.w_max <= _MAX_WINDOW:
            raise ModelError(f"pipe_packets + buffer_packets must be "
                             f"<= {_MAX_WINDOW:g}, got {self.w_max}")

    # ------------------------------------------------------------------
    # Sawtooth geometry
    # ------------------------------------------------------------------
    @property
    def w_max(self) -> float:
        """Window at which the buffer overflows: ``P + B`` packets."""
        return self.pipe_packets + self.buffer_packets

    @property
    def w_after_loss(self) -> float:
        """Window right after multiplicative decrease: ``W_max / 2``."""
        return self.w_max / 2.0

    # ------------------------------------------------------------------
    # Utilization
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Link utilization over one steady-state AIMD cycle.

        For ``B >= P`` this is 1.  For ``B < P`` the cycle splits into a
        link-limited phase (window below the pipe, one round per ``2*Tp``
        delivering ``W`` packets) and a full-rate phase (window above the
        pipe, queue absorbing the excess).  Integrating both phases:

        ``util = [ (P^2 - a^2)/2 + (W_max^2 - P^2)/2 ]
                 / [ (P - a) * P + (W_max^2 - P^2)/2 ]``

        with ``a = W_max/2``.  At ``B = 0`` this gives the classical 3/4.
        """
        pipe = self.pipe_packets
        a = self.w_after_loss
        if a >= pipe:
            return 1.0
        w_max = self.w_max
        delivered_slow = (pipe ** 2 - a ** 2) / 2.0
        capacity_slow = (pipe - a) * pipe
        full_phase = (w_max ** 2 - pipe ** 2) / 2.0
        return (delivered_slow + full_phase) / (capacity_slow + full_phase)
