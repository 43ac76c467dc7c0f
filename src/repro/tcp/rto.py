"""Retransmission-timeout estimation (Jacobson/Karels, RFC 6298).

Maintains the smoothed round-trip time ``srtt`` and variation ``rttvar``
and derives ``RTO = srtt + 4 * rttvar``, clamped to ``[min_rto,
MAX_RTO]``.  Exponential backoff doubles the RTO after each timeout and
is cleared by the next valid sample *or* by any ACK of new data
(:meth:`on_progress`).  Karn's algorithm forbids sampling retransmitted
segments — the *sender* enforces that by not calling :meth:`sample` for
them — which is exactly why progress alone must also clear the backoff:
under a loss pattern where every window contains a retransmission, no
valid sample ever arrives.

The default ``min_rto`` of 200 ms matches the ns-2 default used in the
paper's simulations (RFC 6298 recommends 1 s; that conservatism mostly
adds dead time at simulation scale).
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["RtoEstimator"]

# RFC 6298 gains.
_ALPHA = 1.0 / 8.0
_BETA = 1.0 / 4.0
_K = 4.0

#: RTO ceiling in seconds.
MAX_RTO = 60.0
#: RTO before the first sample (RFC 6298's 1 s; only the very first
#: drop of a flow sees it).
INITIAL_RTO = 1.0
#: Cap on the exponential-backoff multiplier (the BSD limit).  With
#: :data:`MAX_RTO` it bounds the retransmit interval during a long
#: blackout: probes settle at ``min(base * MAX_BACKOFF, MAX_RTO)``
#: seconds apart, so outages longer than the RTO cap produce a slow
#: trickle of probes rather than a retransmission storm.
MAX_BACKOFF = 64


class RtoEstimator:
    """RTT smoothing and RTO computation.

    Parameters
    ----------
    min_rto:
        RTO floor in seconds; the ceiling is :data:`MAX_RTO`.
    """

    __slots__ = ("min_rto", "srtt", "rttvar", "backoff", "samples")

    def __init__(self, min_rto: float = 0.2):
        if not 0 < min_rto <= MAX_RTO:
            raise ConfigurationError(f"need 0 < min_rto <= {MAX_RTO}")
        self.min_rto = min_rto
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self.backoff = 1
        self.samples = 0

    def sample(self, rtt: float) -> None:
        """Incorporate a valid (non-retransmitted) RTT measurement."""
        if rtt <= 0:
            raise ConfigurationError(f"RTT sample must be positive, got {rtt}")
        if self.samples == 0:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - _BETA) * self.rttvar + _BETA * abs(rtt - self.srtt)
            self.srtt = (1 - _ALPHA) * self.srtt + _ALPHA * rtt
        self.samples += 1
        self.backoff = 1

    @property
    def rto(self) -> float:
        """Current retransmission timeout in seconds (with backoff)."""
        if self.samples == 0:
            base = INITIAL_RTO
        else:
            base = self.srtt + _K * self.rttvar
        value = base * self.backoff
        return min(max(value, self.min_rto), MAX_RTO)

    def on_timeout(self) -> None:
        """Apply exponential backoff after a retransmission timeout."""
        self.backoff = min(self.backoff * 2, MAX_BACKOFF)

    def on_progress(self) -> None:
        """Clear exponential backoff on forward progress (new data acked).

        Karn's algorithm forbids *sampling* retransmitted segments, but
        a cumulative ACK that advances is still proof the path is
        delivering.  Without this, a flow whose every window contains a
        retransmission (so no valid sample ever arrives) keeps its
        backed-off RTO indefinitely and crawls through the transfer at
        one timeout per backed-off interval; BSD and Linux both clear
        the backoff shift on any ACK of new data.
        """
        self.backoff = 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RtoEstimator(srtt={self.srtt:.4f}, rttvar={self.rttvar:.4f}, "
                f"rto={self.rto:.4f}, backoff={self.backoff})")
