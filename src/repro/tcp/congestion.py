"""Pluggable congestion control: the AIMD family and the name lookup.

This module holds the hook interface every algorithm implements, the
classic loss-driven family (Tahoe, Reno, NewReno), and the name → class
table behind :func:`make_cc`.  The delay-based, scalable and rate-based
algorithms live in :mod:`repro.tcp.cc_zoo`, imported on the first zoo
name.  An algorithm is its name: its constants are class attributes,
not per-flow settings.

The congestion window ``cwnd`` is a float counted in packets.  The
classical dynamics the paper's theory relies on:

* **slow start** — ``cwnd += 1`` per newly-acknowledged packet while
  ``cwnd < ssthresh`` (exponential growth per RTT);
* **congestion avoidance** — ``cwnd += 1/cwnd`` per newly-acknowledged
  packet (one packet per RTT: the additive-increase ramp of the
  sawtooth);
* **multiplicative decrease** — on loss detection, ``ssthresh =
  max(flight/2, 2)`` and the window halves (fast recovery) or collapses
  to 1 (timeout, or any loss under Tahoe).

The variants differ only in loss recovery:

=========  ==========================  ==================================
algorithm  3 duplicate ACKs            during recovery
=========  ==========================  ==================================
Tahoe      retransmit, cwnd = 1        (no fast recovery)
Reno       fast retransmit + recovery  exit on first new ACK
NewReno    fast retransmit + recovery  stay until `recover` is acked;
                                       retransmit on each partial ACK
=========  ==========================  ==================================
"""

from __future__ import annotations

from typing import Dict, List, Type, Union

from repro.errors import ConfigurationError

__all__ = [
    "CongestionControl",
    "TahoeCC",
    "RenoCC",
    "NewRenoCC",
    "make_cc",
    "available_ccs",
]

#: Lower bound on ssthresh after a loss event, in packets (RFC 5681).
MIN_SSTHRESH = 2.0

#: Initial slow-start threshold in packets: effectively infinite, so a
#: fresh flow slow-starts until its first loss.
INITIAL_SSTHRESH = 1e9


class CongestionControl:
    """Shared slow-start / congestion-avoidance machinery.

    Subclasses set :attr:`has_fast_recovery` and
    :attr:`recovery_until_recover` and may refine the hook methods.
    Beyond the classic loss-driven hooks, the interface carries three
    extension points the zoo algorithms (:mod:`repro.tcp.cc_zoo`) use:

    * :meth:`bind` — called once by the sender so delay/rate-based
      algorithms can read sender state (simulation clock, ``snd_una``,
      flight size) without the sender special-casing them;
    * :meth:`on_rtt_sample` — every Karn-valid RTT measurement, the
      signal delay-based increase terms (Compound) and min-RTT filters
      (BBR) are built from;
    * :meth:`pacing_interval` + :attr:`rate_based` /
      :attr:`wants_pacing` — rate-based operation: the sender's paced
      departure path asks the algorithm for the inter-send gap instead
      of deriving it from ``srtt / cwnd``.

    Every hook has an AIMD-preserving default, so Tahoe/Reno/NewReno
    behaviour is bit-identical to the pre-zoo implementation.

    Parameters
    ----------
    initial_cwnd:
        Initial window in packets.  The paper's slow-start description
        ("each flow first sends out two packets, then four ...") uses 2.
        The slow-start threshold starts at :data:`INITIAL_SSTHRESH`.
    """

    # Slotted: one instance per flow.  The loss-driven family below adds
    # no state (``__slots__ = ()``); a zoo algorithm that declares no
    # slots gets a ``__dict__`` for its own.
    __slots__ = ("cwnd", "ssthresh", "fast_recoveries", "timeouts")

    #: Whether three duplicate ACKs trigger fast recovery (vs Tahoe collapse).
    has_fast_recovery = True
    #: Whether recovery persists until the pre-loss highest seq is acked.
    recovery_until_recover = False
    #: Rate-based algorithms compute their own pacing interval from a
    #: bandwidth estimate; ack-clocked ones are paced at srtt/cwnd.
    rate_based = False
    #: Whether the algorithm is meaningless without pacing (the sender
    #: forces its paced-departure path on regardless of the flag).
    wants_pacing = False

    def __init__(self, initial_cwnd: float = 2.0):
        if initial_cwnd < 1:
            raise ConfigurationError("initial_cwnd must be >= 1 packet")
        self.cwnd = float(initial_cwnd)
        self.ssthresh = INITIAL_SSTHRESH
        # Event counters for diagnostics / tests.
        self.fast_recoveries = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Hooks called by the sender
    # ------------------------------------------------------------------
    def bind(self, sender) -> None:
        """Attach the algorithm to its sender (called once, at sender
        construction).  Ack-clocked AIMD needs nothing from the sender;
        delay/rate-based algorithms override this to keep a reference.
        """

    def on_rtt_sample(self, rtt: float, now: float) -> None:
        """A Karn-valid RTT measurement ``rtt`` taken at simulation time
        ``now``.  Default: ignored (classic AIMD is delay-blind)."""

    def pacing_interval(self) -> float:
        """Seconds between paced sends for a :attr:`rate_based`
        algorithm; consulted by the sender only when ``rate_based`` is
        true.  Zero means "no estimate yet — send back-to-back"."""
        return 0.0

    def on_ack(self, newly_acked: int) -> None:
        """Window growth for ``newly_acked`` packets cumulatively ACKed
        (called outside recovery)."""
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start
            else:
                self.cwnd += 1.0 / self.cwnd  # congestion avoidance

    def enter_recovery(self, flight_size: float) -> None:
        """Three duplicate ACKs: halve, inflate by the three dup ACKs."""
        self.ssthresh = max(flight_size / 2.0, MIN_SSTHRESH)
        self.cwnd = self.ssthresh + 3.0
        self.fast_recoveries += 1

    def on_dup_ack_in_recovery(self) -> None:
        """Window inflation: each further dup ACK signals a departure."""
        self.cwnd += 1.0

    def on_partial_ack(self, newly_acked: int) -> None:
        """NewReno partial ACK: deflate by the amount acked, re-inflate by
        one for the retransmission that is about to go out."""
        self.cwnd = max(self.cwnd - newly_acked + 1.0, 1.0)

    def exit_recovery(self) -> None:
        """Recovery complete: deflate the window back to ssthresh."""
        self.cwnd = self.ssthresh

    def on_timeout(self, flight_size: float) -> None:
        """Retransmission timeout: multiplicative decrease and restart
        from slow start."""
        self.ssthresh = max(flight_size / 2.0, MIN_SSTHRESH)
        self.cwnd = 1.0
        self.timeouts += 1

    def on_tahoe_loss(self, flight_size: float) -> None:
        """Tahoe's reaction to three duplicate ACKs (no fast recovery)."""
        self.ssthresh = max(flight_size / 2.0, MIN_SSTHRESH)
        self.cwnd = 1.0

    @property
    def in_slow_start(self) -> bool:
        """True while the window grows exponentially.

        The paper's short/long flow taxonomy is exactly this predicate:
        a "short" flow is one that never leaves slow start.
        """
        return self.cwnd < self.ssthresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(cwnd={self.cwnd:.2f}, "
                f"ssthresh={self.ssthresh:.2f})")


class TahoeCC(CongestionControl):
    """TCP Tahoe: any loss collapses the window to one packet."""

    __slots__ = ()

    has_fast_recovery = False
    recovery_until_recover = False


class RenoCC(CongestionControl):
    """TCP Reno: fast recovery, exited by the first new ACK."""

    __slots__ = ()

    has_fast_recovery = True
    recovery_until_recover = False


class NewRenoCC(CongestionControl):
    """TCP NewReno (RFC 6582): fast recovery persists across partial ACKs
    until the entire pre-loss window is acknowledged."""

    __slots__ = ()

    has_fast_recovery = True
    recovery_until_recover = True


#: Algorithm name -> class.  A zoo name maps to its class's name in
#: :mod:`repro.tcp.cc_zoo`, imported only to build one: a Tahoe/Reno/
#: NewReno run never compiles the zoo.
_CC_BY_NAME: Dict[str, Union[str, Type[CongestionControl]]] = {
    "tahoe": TahoeCC,
    "reno": RenoCC,
    "newreno": NewRenoCC,
    "compound": "CompoundCC",
    "scalable": "ScalableCC",
    "hstcp": "HighSpeedCC",
    "bbr": "BbrLikeCC",
}


def available_ccs() -> List[str]:
    """Sorted names of every algorithm (zoo included)."""
    return sorted(_CC_BY_NAME)


def make_cc(name: str, initial_cwnd: float = 2.0) -> CongestionControl:
    """A fresh instance of the algorithm called ``name`` (any case).

    Raises :class:`~repro.errors.ConfigurationError` for an unknown
    name, listing the known ones.
    """
    key = name.lower()
    cls = _CC_BY_NAME.get(key)
    if cls is None:
        raise ConfigurationError(
            f"unknown congestion control {name!r}; "
            f"choose from {available_ccs()}")
    if isinstance(cls, str):
        from repro.tcp import cc_zoo
        cls = getattr(cc_zoo, cls)
    return cls(initial_cwnd)
