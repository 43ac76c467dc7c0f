"""The user-facing buffer-sizing facade.

Three rules, straight from the paper:

1. **Rule-of-thumb** (Villamizar & Song; exact for one long flow):
   ``B = RTT x C``.
2. **Small-buffer rule** (the paper's contribution; ``n`` desynchronized
   long flows): ``B = RTT x C / sqrt(n)``.
3. **Short-flow rule** (load- and burst-dependent only):
   ``B`` such that ``P(Q >= B) <= target`` under the effective-bandwidth
   bound.

:func:`recommend_buffer` combines them for a traffic mix: long flows
dominate the requirement whenever any are present (the paper's
Section 5.1.3 finding), so the recommendation is the max of the
applicable rules, with the reasoning recorded in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from repro.core.short_flows import FIG8_OVERFLOW_TARGET, ShortFlowModel
from repro.errors import ModelError
from repro.mathutils import finite
from repro.units import Quantity, format_size, parse_bandwidth, parse_time

__all__ = [
    "rule_of_thumb_bytes",
    "rule_of_thumb_packets",
    "small_buffer_bytes",
    "small_buffer_packets",
    "BufferRecommendation",
    "recommend_buffer",
]


def _check_packet_bytes(packet_bytes: int) -> None:
    if not (math.isfinite(packet_bytes) and packet_bytes > 0):
        raise ModelError(
            f"packet_bytes must be finite and > 0, got {packet_bytes}")


def rule_of_thumb_bytes(rtt: Quantity, capacity: Quantity) -> float:
    """``B = RTT x C`` in bytes — the classical rule.

    >>> rule_of_thumb_bytes("250ms", "10Gbps") == 2.5e9 / 8
    True
    """
    rtt_s = parse_time(rtt)
    cap = parse_bandwidth(capacity)
    if rtt_s <= 0:
        raise ModelError("RTT must be positive")
    if cap <= 0:
        raise ModelError("capacity must be positive")
    return finite(rtt_s * cap / 8.0, "rtt x capacity")


def rule_of_thumb_packets(rtt: Quantity, capacity: Quantity,
                          packet_bytes: int = 1000) -> float:
    """``B = RTT x C`` expressed in packets of ``packet_bytes``."""
    _check_packet_bytes(packet_bytes)
    return finite(rule_of_thumb_bytes(rtt, capacity) / packet_bytes,
                  "rtt x capacity / packet_bytes")


def small_buffer_bytes(rtt: Quantity, capacity: Quantity, n_flows: int) -> float:
    """``B = RTT x C / sqrt(n)`` in bytes — the paper's rule.

    >>> small_buffer_bytes("250ms", "2.5Gbps", 10000) / rule_of_thumb_bytes("250ms", "2.5Gbps")
    0.01
    """
    if not (math.isfinite(n_flows) and n_flows >= 1):
        raise ModelError(f"n_flows must be finite and >= 1, got {n_flows}")
    return rule_of_thumb_bytes(rtt, capacity) / math.sqrt(n_flows)


def small_buffer_packets(rtt: Quantity, capacity: Quantity, n_flows: int,
                         packet_bytes: int = 1000) -> float:
    """``B = RTT x C / sqrt(n)`` in packets of ``packet_bytes``."""
    _check_packet_bytes(packet_bytes)
    return finite(small_buffer_bytes(rtt, capacity, n_flows) / packet_bytes,
                  "rtt x capacity / sqrt(n_flows) / packet_bytes")


@dataclass(frozen=True)
class BufferRecommendation:
    """Result of :func:`recommend_buffer`.

    Attributes
    ----------
    buffer_packets, buffer_bytes:
        The recommended buffer.
    rule:
        Which rule set the size: ``"long-flows"`` or ``"short-flows"``.
    long_flow_packets:
        The sqrt(n) rule's requirement (NaN when no long flows).
    short_flow_packets:
        The short-flow bound's requirement (NaN when not evaluated).
    rule_of_thumb_packets:
        The classical requirement, for comparison.
    savings_vs_rule_of_thumb:
        ``1 - recommended/rule_of_thumb`` (e.g. 0.99 = "remove 99% of
        the buffers").
    """

    buffer_packets: float
    buffer_bytes: float
    rule: str
    long_flow_packets: float
    short_flow_packets: float
    rule_of_thumb_packets: float

    @property
    def savings_vs_rule_of_thumb(self) -> float:
        if self.rule_of_thumb_packets <= 0:
            return math.nan
        return 1.0 - self.buffer_packets / self.rule_of_thumb_packets

    def summary(self) -> str:
        """One-paragraph human-readable rationale."""
        return (
            f"recommended buffer: {self.buffer_packets:.0f} packets "
            f"({format_size(self.buffer_bytes)}), set by the {self.rule} rule; "
            f"rule-of-thumb would be {self.rule_of_thumb_packets:.0f} packets "
            f"({self.savings_vs_rule_of_thumb * 100:.1f}% saved)"
        )


def recommend_buffer(
    capacity: Quantity,
    rtt: Quantity,
    n_long_flows: int = 0,
    short_flow_load: float = 0.0,
    short_flow_sizes: Union[None, Mapping[int, float], Sequence[int]] = None,
    packet_bytes: int = 1000,
    overflow_target: float = FIG8_OVERFLOW_TARGET,
    max_window: Optional[int] = None,
) -> BufferRecommendation:
    """Size a router buffer for a mixed workload, per the paper.

    Parameters
    ----------
    capacity:
        Bottleneck capacity ``C``.
    rtt:
        Mean round-trip propagation time of flows crossing the link.
    n_long_flows:
        Concurrent long-lived (congestion-avoidance) flows; 0 if the
        link carries only short flows.
    short_flow_load:
        Load offered by short (slow-start-only) flows, in (0, 1); 0 to
        skip the short-flow bound.
    short_flow_sizes:
        Flow-size mix for the short-flow bound (defaults to a typical
        web-like mix of 3–60 packet flows when a load is given).
    packet_bytes:
        Average packet size used for packet<->byte conversion.
    overflow_target:
        ``P(Q >= B)`` target for the short-flow bound.
    max_window:
        Cap on slow-start bursts (OS maximum window).

    Notes
    -----
    With both traffic classes present the requirement is the **max** of
    the two rules; the paper's Section 5.1.3 finding is that the long
    -flow term dominates in practice — and that is visible here, since
    the short-flow term is typically a few hundred packets regardless
    of line speed.
    """
    if not (math.isfinite(n_long_flows) and n_long_flows >= 0):
        raise ModelError(
            f"n_long_flows must be finite and >= 0, got {n_long_flows}")
    if short_flow_load != 0 and not (
            math.isfinite(short_flow_load) and 0 < short_flow_load < 1):
        # ShortFlowModel's domain; 0 means "no short flows".
        raise ModelError(
            f"short_flow_load must be 0 or in (0, 1), got {short_flow_load}")
    if n_long_flows == 0 and short_flow_load <= 0:
        raise ModelError("describe some traffic: long flows and/or short-flow load")

    rot = rule_of_thumb_packets(rtt, capacity, packet_bytes)

    long_req = math.nan
    if n_long_flows > 0:
        long_req = small_buffer_packets(rtt, capacity, n_long_flows, packet_bytes)

    short_req = math.nan
    if short_flow_load > 0:
        if short_flow_sizes is None:
            # A web-like default mix: mostly tiny transfers, some medium.
            short_flow_sizes = {3: 0.5, 8: 0.25, 20: 0.15, 60: 0.1}
        model = ShortFlowModel(load=short_flow_load, flow_sizes=short_flow_sizes,
                               max_window=max_window)
        short_req = model.required_buffer(overflow_target)

    candidates = []
    if not math.isnan(long_req):
        candidates.append((long_req, "long-flows"))
    if not math.isnan(short_req):
        candidates.append((short_req, "short-flows"))
    buffer_packets, rule = max(candidates, key=lambda pair: pair[0])

    return BufferRecommendation(
        buffer_packets=buffer_packets,
        buffer_bytes=buffer_packets * packet_bytes,
        rule=rule,
        long_flow_packets=long_req,
        short_flow_packets=short_req,
        rule_of_thumb_packets=rot,
    )
