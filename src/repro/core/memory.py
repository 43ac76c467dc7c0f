"""Section 1.3: why buffer size dictates router memory architecture.

The paper's hardware argument, made computable: given a line rate and a
buffer requirement, how many commodity memory chips does the line card
need, and can the technology keep up with minimum-size packets at line
rate?  The 2004-era devices the paper cites are provided as constants
(36 Mbit SRAM; 1 Gbit DRAM with 50 ns random access; 256 Mbit embedded
DRAM on a packet-processor ASIC).

The headline arithmetic reproduced by ``examples/router_design.py``:
a 10 Gb/s linecard under the rule-of-thumb needs 2.5 Gbit of buffer
(DRAM territory, too slow), while under the sqrt(n) rule with 50k flows
it needs ~10 Mbit — small enough for on-chip SRAM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ModelError
from repro.mathutils import finite
from repro.units import Quantity, parse_bandwidth, parse_size

__all__ = [
    "MemoryTechnology",
    "MemoryPlan",
    "SRAM_2004",
    "DRAM_2004",
    "EMBEDDED_DRAM_2004",
    "min_packet_interarrival",
    "plan_buffer_memory",
]

#: Minimum IP packet the paper uses for the access-time argument (bytes).
MIN_PACKET_BYTES = 40


@dataclass(frozen=True)
class MemoryTechnology:
    """A commodity memory device class.

    Attributes
    ----------
    name:
        Label ("SRAM", "DRAM", ...).
    chip_bits:
        Capacity of the largest commercial chip, in bits.
    access_time:
        Random access time in seconds.
    on_chip:
        True when the memory lives on the packet-processor die
        (no external bus, no per-chip pin cost).
    annual_speedup:
        Fractional access-time improvement per year (the paper: DRAM
        access times fall only ~7% per year).
    """

    name: str
    chip_bits: float
    access_time: float
    on_chip: bool = False
    annual_speedup: float = 0.07

    def __post_init__(self):
        # Written so that nan fails them: it compares false with everything.
        if not (math.isfinite(self.chip_bits) and self.chip_bits > 0):
            raise ModelError(
                f"chip_bits must be finite and > 0, got {self.chip_bits}")
        if not (math.isfinite(self.access_time) and self.access_time > 0):
            raise ModelError(
                f"access_time must be finite and > 0, got {self.access_time}")
        if not 0.0 <= self.annual_speedup < 1.0:
            raise ModelError(f"annual_speedup must be in [0, 1), "
                             f"got {self.annual_speedup}")

    def access_time_in(self, years: float) -> float:
        """Projected access time ``years`` from the 2004 baseline."""
        if not (math.isfinite(years) and years >= 0):
            raise ModelError(f"years must be finite and >= 0, got {years}")
        return self.access_time * (1.0 - self.annual_speedup) ** years


SRAM_2004 = MemoryTechnology("SRAM", chip_bits=36e6, access_time=4e-9)
DRAM_2004 = MemoryTechnology("DRAM", chip_bits=1e9, access_time=50e-9)
EMBEDDED_DRAM_2004 = MemoryTechnology(
    "embedded DRAM", chip_bits=256e6, access_time=10e-9, on_chip=True
)


def min_packet_interarrival(line_rate: Quantity,
                            packet_bytes: int = MIN_PACKET_BYTES) -> float:
    """Seconds between back-to-back minimum-size packets at line rate.

    The paper's example: 40-byte packets at 40 Gb/s arrive every 8 ns.
    A buffer memory must sustain one write and one read per packet
    time, so its access time must be at most *half* this interval.
    """
    rate = parse_bandwidth(line_rate)
    if rate <= 0:
        raise ModelError("line rate must be positive")
    if not (math.isfinite(packet_bytes) and packet_bytes > 0):
        raise ModelError(
            f"packet_bytes must be finite and > 0, got {packet_bytes}")
    return finite(packet_bytes * 8.0 / rate, "packet_bytes x 8 / line_rate")


@dataclass(frozen=True)
class MemoryPlan:
    """A buffer implementation sketch for one technology.

    Attributes
    ----------
    technology:
        The device class used.
    chips:
        Number of chips needed for capacity alone.
    fast_enough:
        Whether a single device's access time meets the per-packet
        read+write budget at line rate.
    access_budget:
        The per-operation time budget (half the min-packet interarrival).
    """

    technology: MemoryTechnology
    chips: int
    fast_enough: bool
    access_budget: float

    @property
    def feasible(self) -> bool:
        """Capacity-and-speed feasibility of a straightforward design.

        A plan is deemed practical when the device is fast enough and
        the chip count stays in single digits (the paper considers 300+
        SRAM chips "too large, too expensive and too hot"), or when the
        buffer fits on-chip entirely.
        """
        if self.technology.on_chip:
            return self.chips <= 1 and self.fast_enough
        return self.fast_enough and self.chips <= 10


def plan_buffer_memory(line_rate: Quantity, buffer_size: Quantity,
                       technologies: Optional[List[MemoryTechnology]] = None,
                       packet_bytes: int = MIN_PACKET_BYTES) -> List[MemoryPlan]:
    """Sketch implementations of ``buffer_size`` at ``line_rate``.

    Parameters
    ----------
    line_rate:
        Aggregate linecard rate (e.g. ``"40Gbps"``).
    buffer_size:
        Required buffer (bytes, or a string like ``"1.25GB"`` /
        ``"10Mbit"``).
    technologies:
        Candidate device classes (default: the paper's 2004 parts).

    Returns one :class:`MemoryPlan` per technology, in the given order.
    """
    buffer_bits = finite(parse_size(buffer_size) * 8.0, "buffer_size in bits")
    if buffer_bits <= 0:
        raise ModelError("buffer size must be positive")
    budget = min_packet_interarrival(line_rate, packet_bytes) / 2.0
    if technologies is None:
        technologies = [SRAM_2004, DRAM_2004, EMBEDDED_DRAM_2004]
    plans = []
    for tech in technologies:
        chips = int(math.ceil(finite(buffer_bits / tech.chip_bits,
                                     "buffer bits / chip_bits")))
        fast_enough = tech.access_time <= budget
        plans.append(MemoryPlan(tech, chips, fast_enough, budget))
    return plans
