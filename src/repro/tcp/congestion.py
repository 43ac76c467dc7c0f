"""Pluggable congestion control: the AIMD family and the zoo registry.

This module holds the hook interface every algorithm implements, the
classic loss-driven family (Tahoe, Reno, NewReno), and the name
registry behind :func:`make_cc`.  The delay-based, scalable and
rate-based algorithms live in :mod:`repro.tcp.cc_zoo` and register
themselves here on first lookup.

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

import inspect
from functools import cache
from typing import Dict, Tuple, Type, Union

from repro.errors import ConfigurationError

__all__ = [
    "CongestionControl",
    "TahoeCC",
    "RenoCC",
    "NewRenoCC",
    "make_cc",
    "register_cc",
    "available_ccs",
    "CcSpec",
]

#: Lower bound on ssthresh after a loss event, in packets (RFC 5681).
MIN_SSTHRESH = 2.0

#: What :func:`make_cc` accepts: an algorithm name, a ``to_dict()``-style
#: spec (``{"name": ..., **params}``), or a pre-built instance.
CcSpec = Union[str, dict, "CongestionControl"]


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
    initial_ssthresh:
        Initial slow-start threshold in packets (effectively infinite by
        default, so a fresh flow slow-starts until its first loss).
    """

    #: Registry name; subclasses override (used by :meth:`to_dict`).
    name = "cc"
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

    def __init__(self, initial_cwnd: float = 2.0, initial_ssthresh: float = 1e9):
        if initial_cwnd < 1:
            raise ConfigurationError("initial_cwnd must be >= 1 packet")
        if initial_ssthresh < MIN_SSTHRESH:
            raise ConfigurationError(
                f"initial_ssthresh must be >= {MIN_SSTHRESH}, "
                f"got {initial_ssthresh}")
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float(initial_ssthresh)
        self.initial_cwnd = float(initial_cwnd)
        self.initial_ssthresh = float(initial_ssthresh)
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

    # ------------------------------------------------------------------
    # Config round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able constructor spec: ``make_cc(cc.to_dict())`` builds
        an equivalent fresh instance.

        The sweep fabric content-addresses cells by the JSON of their
        parameters (:func:`repro.runner.supervisor.cell_key`), so this
        must be *stable*: same configuration, same dict, every process.
        Only constructor parameters appear — never mutable run state.
        """
        spec = {
            "name": self.name,
            "initial_cwnd": self.initial_cwnd,
            "initial_ssthresh": self.initial_ssthresh,
        }
        spec.update(self._config_params())
        return spec

    def _config_params(self) -> dict:
        """Algorithm-specific constructor parameters for :meth:`to_dict`."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(cwnd={self.cwnd:.2f}, "
                f"ssthresh={self.ssthresh:.2f})")


class TahoeCC(CongestionControl):
    """TCP Tahoe: any loss collapses the window to one packet."""

    name = "tahoe"
    has_fast_recovery = False
    recovery_until_recover = False


class RenoCC(CongestionControl):
    """TCP Reno: fast recovery, exited by the first new ACK."""

    name = "reno"
    has_fast_recovery = True
    recovery_until_recover = False


class NewRenoCC(CongestionControl):
    """TCP NewReno (RFC 6582): fast recovery persists across partial ACKs
    until the entire pre-loss window is acknowledged."""

    name = "newreno"
    has_fast_recovery = True
    recovery_until_recover = True


_CC_BY_NAME: Dict[str, Type[CongestionControl]] = {
    "tahoe": TahoeCC,
    "reno": RenoCC,
    "newreno": NewRenoCC,
}

_zoo_loaded = False


def _load_zoo() -> None:
    """Import the zoo module so its algorithms self-register.

    Lazy because :mod:`repro.tcp.cc_zoo` imports this module for the
    base class — registering at first lookup instead of at import time
    breaks the cycle.  Only a name the built-ins lack loads it, so a
    Tahoe/Reno/NewReno run never compiles the zoo.
    """
    global _zoo_loaded
    if not _zoo_loaded:
        _zoo_loaded = True
        import repro.tcp.cc_zoo  # noqa: F401  (registers on import)


def register_cc(name: str, cls: Type[CongestionControl]) -> None:
    """Register a congestion-control class under ``name`` (lowercased).

    Re-registering a taken name is a configuration error: silently
    shadowing an algorithm would change what sweep cell keys mean.
    """
    _load_zoo()  # a name taken by the zoo is taken before it loads, too
    key = name.lower()
    if key in _CC_BY_NAME and _CC_BY_NAME[key] is not cls:
        raise ConfigurationError(
            f"congestion control name {name!r} already registered "
            f"to {_CC_BY_NAME[key].__name__}")
    _CC_BY_NAME[key] = cls


def available_ccs() -> list:
    """Sorted names of every registered algorithm (zoo included)."""
    _load_zoo()
    return sorted(_CC_BY_NAME)


@cache
def _constructor_params(cls: Type[CongestionControl]) -> Tuple[str, ...]:
    """Keyword names ``cls(...)`` accepts, in declaration order.

    Resolved once per class, at its first :func:`make_cc` — a class
    registered later is introspected when first built — because every
    flow birth passes through here.  ``*args`` / ``**kwargs`` catch-alls
    are not names a caller may pass, whatever they are called.
    """
    params = inspect.signature(cls).parameters.values()
    return tuple(p.name for p in params
                 if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))


def make_cc(spec: CcSpec, initial_cwnd: float = 2.0,
            initial_ssthresh: float = 1e9, **params) -> CongestionControl:
    """Construct a congestion-control instance from a spec.

    ``spec`` is one of

    * a case-insensitive name (``"reno"``, ``"compound"``, ``"bbr"``,
      ...) — extra keyword arguments become constructor parameters;
    * a dict ``{"name": ..., **params}``, the :meth:`to_dict` shape the
      sweep plumbing round-trips through JSON cell keys (dict entries
      win over the ``initial_cwnd`` / ``initial_ssthresh`` defaults);
    * an existing :class:`CongestionControl` instance, returned as-is
      (parameters may not be combined with a pre-built instance).

    Raises :class:`~repro.errors.ConfigurationError` for an unknown
    name, a parameter the algorithm does not take, or a parameter value
    its constructor rejects.
    """
    if isinstance(spec, CongestionControl):
        if params:
            raise ConfigurationError(
                f"cannot apply parameters {sorted(params)} to an existing "
                f"{type(spec).__name__} instance")
        return spec
    kwargs = {"initial_cwnd": initial_cwnd, "initial_ssthresh": initial_ssthresh}
    if isinstance(spec, dict):
        merged = dict(spec)
        name = merged.pop("name", None)
        if not isinstance(name, str):
            raise ConfigurationError(
                f"cc spec dict needs a 'name' string, got {spec!r}")
        kwargs.update(merged)
    elif isinstance(spec, str):
        name = spec
    else:
        raise ConfigurationError(
            f"cc spec must be a name, a dict with a 'name' key, or a "
            f"CongestionControl instance, got {type(spec).__name__}")
    kwargs.update(params)
    key = name.lower()
    if key not in _CC_BY_NAME:
        _load_zoo()
    try:
        cls = _CC_BY_NAME[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown congestion control {name!r}; "
            f"choose from {sorted(_CC_BY_NAME)}"
        ) from None
    accepted = _constructor_params(cls)
    unknown = sorted(k for k in kwargs if k not in accepted)
    if unknown:
        raise ConfigurationError(
            f"congestion control {name!r} does not take parameter(s) "
            f"{', '.join(unknown)}; accepted: {', '.join(accepted)}")
    return cls(**kwargs)
