"""Section 5.1.1: the loss-rate cost of smaller buffers.

Shrinking the buffer shrinks the queueing delay, hence the RTT, hence
the average window ``W`` each flow sustains — and TCP's loss rate is
tied to the window by ``l ~= 0.76 / W^2`` (Morris 2000, the paper's
[16]).  These helpers quantify that trade so experiments can report the
loss-rate column alongside utilization.
"""

from __future__ import annotations

import math

from repro.errors import ModelError
from repro.mathutils import finite

__all__ = [
    "loss_rate_from_window",
    "average_window",
    "loss_rate",
]

#: Constant in Morris's square-root law, as quoted by the paper.
MORRIS_CONSTANT = 0.76


def loss_rate_from_window(window_packets: float) -> float:
    """``l = 0.76 / W^2`` — loss rate sustained at average window ``W``."""
    # Written so that nan fails it: it compares false with everything.
    if not (math.isfinite(window_packets) and window_packets > 0):
        raise ModelError(
            f"window_packets must be finite and > 0, got {window_packets}")
    square = window_packets * window_packets  # 0.0 once it underflows
    return finite(MORRIS_CONSTANT / square if square > 0.0 else math.inf,
                  "0.76 / window_packets^2")


def average_window(pipe_packets: float, buffer_packets: float, n_flows: int) -> float:
    """Average per-flow window when ``n`` flows share the link.

    The aggregate in-flight data is pipe plus (typically full-ish)
    buffer, split across flows: ``W_bar = (P + B) / n``.
    """
    if not (math.isfinite(n_flows) and n_flows >= 1):
        raise ModelError(f"n_flows must be finite and >= 1, got {n_flows}")
    if not (math.isfinite(pipe_packets) and pipe_packets > 0):
        raise ModelError(f"pipe_packets must be finite and > 0, got {pipe_packets}")
    if not (math.isfinite(buffer_packets) and buffer_packets >= 0):
        raise ModelError(
            f"buffer_packets must be finite and >= 0, got {buffer_packets}")
    return finite(pipe_packets + buffer_packets,
                  "pipe_packets + buffer_packets") / n_flows


def loss_rate(pipe_packets: float, buffer_packets: float, n_flows: int) -> float:
    """Predicted loss rate for ``n`` long flows and buffer ``B``.

    Combines :func:`average_window` with Morris's law.  The key
    qualitative behaviour: halving the buffer raises loss, but only
    through the (usually modest) reduction in ``P + B``.
    """
    return loss_rate_from_window(average_window(pipe_packets, buffer_packets, n_flows))
