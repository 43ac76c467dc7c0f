"""Canonical link and traffic profiles.

The buffer-sizing literature keeps returning to the same handful of
operating points; this module names them.  A :class:`LinkProfile` knows
its line rate and a typical RTT, and can answer the paper's questions
about itself (pipe size, rule-of-thumb and sqrt(n) buffers).

>>> OC48.pipe_packets()
78125.0
>>> round(OC48.small_buffer_packets(10_000))
781
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core import rule_of_thumb_packets, small_buffer_packets
from repro.units import format_bandwidth, parse_bandwidth

__all__ = [
    "LinkProfile",
    "T3",
    "OC3",
    "OC12",
    "OC48",
    "OC192",
    "TEN_GBE",
    "PROFILES",
]

#: Default packet size for packet-count arithmetic (bytes).
DEFAULT_PACKET_BYTES = 1000


@dataclass(frozen=True)
class LinkProfile:
    """A named link class with its customary operating parameters.

    Attributes
    ----------
    name:
        Human-readable label ("OC48").
    rate:
        Line rate (canonical payload rate for SONET links).
    rtt:
        The RTT customarily used when provisioning this class of link
        (the paper uses 250 ms for backbone headlines, ~80 ms for the
        OC3 experiments).
    typical_flows:
        Order-of-magnitude concurrent flow count from measurement
        studies, used by convenience methods when no count is given.
    """

    name: str
    rate: str
    rtt: str
    typical_flows: int

    @property
    def rate_bps(self) -> float:
        return parse_bandwidth(self.rate)

    def pipe_packets(self, packet_bytes: int = DEFAULT_PACKET_BYTES) -> float:
        """Bandwidth-delay product in packets — the rule-of-thumb buffer."""
        return rule_of_thumb_packets(self.rtt, self.rate, packet_bytes)

    def small_buffer_packets(self, n_flows: int = 0,
                             packet_bytes: int = DEFAULT_PACKET_BYTES) -> float:
        """The sqrt(n) rule's buffer; uses :attr:`typical_flows` if
        ``n_flows`` is 0."""
        n = n_flows or self.typical_flows
        return small_buffer_packets(self.rtt, self.rate, n, packet_bytes)

    def describe(self) -> str:
        """One-line summary used by examples and the CLI."""
        return (f"{self.name}: {format_bandwidth(self.rate_bps)}, "
                f"RTT {self.rtt}, ~{self.typical_flows} flows; "
                f"rule-of-thumb {self.pipe_packets():.0f} pkts, "
                f"sqrt(n) {self.small_buffer_packets():.0f} pkts")


T3 = LinkProfile("T3", rate="45Mbps", rtt="80ms", typical_flows=500)
OC3 = LinkProfile("OC3", rate="155Mbps", rtt="80ms", typical_flows=1_000)
OC12 = LinkProfile("OC12", rate="622Mbps", rtt="100ms", typical_flows=4_000)
OC48 = LinkProfile("OC48", rate="2.5Gbps", rtt="250ms", typical_flows=10_000)
OC192 = LinkProfile("OC192", rate="10Gbps", rtt="250ms", typical_flows=50_000)
TEN_GBE = LinkProfile("10GbE", rate="10Gbps", rtt="100ms", typical_flows=50_000)

PROFILES: Dict[str, LinkProfile] = {
    profile.name: profile
    for profile in (T3, OC3, OC12, OC48, OC192, TEN_GBE)
}
