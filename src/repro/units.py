"""Unit parsing and formatting for bandwidth, time, and data sizes.

The paper quotes quantities in mixed engineering units: link capacities in
Mb/s and Gb/s, delays in milliseconds, buffers in packets, Mbits, or
multiples of ``RTT x C``.  This module provides one canonical internal
representation — **bits per second**, **seconds**, and **bytes** as floats
— plus forgiving parsers so scenario files and examples can say
``"155Mbps"`` or ``"80ms"`` instead of ``155_000_000.0``.

All parsers accept either a number (passed through unchanged, assumed to
already be in canonical units) or a string with a unit suffix.

Examples
--------
>>> parse_bandwidth("155Mbps")
155000000.0
>>> parse_time("80ms")
0.08
>>> parse_size("1.25GB")
1250000000.0
>>> format_bandwidth(2.5e9)
'2.5Gb/s'
"""

from __future__ import annotations

import math
import re
from typing import Sequence, Tuple, Union

from repro.errors import UnitError

__all__ = [
    "Quantity",
    "parse_bandwidth",
    "parse_time",
    "parse_size",
    "format_bandwidth",
    "format_time",
    "format_size",
    "KILO",
    "MEGA",
    "GIGA",
]

Quantity = Union[int, float, str]

# Decimal (SI) multipliers.  Networking capacities are conventionally
# decimal: an OC3 is 155.52e6 b/s, a "1Gb/s" port is 1e9 b/s.
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

_BANDWIDTH_RE = re.compile(
    r"""^\s*
        (?P<value>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)
        \s*
        (?P<prefix>[kKmMgGtT]?)
        \s*
        (?P<unit>b(?:it)?s?(?:ps|/s)?|B(?:ytes?)?(?:ps|/s)?)
        \s*$""",
    re.VERBOSE,
)

_TIME_RE = re.compile(
    r"""^\s*
        (?P<value>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)
        \s*
        (?P<unit>ns|us|ms|s|sec|secs|seconds?|min|minutes?|h|hours?)
        \s*$""",
    re.VERBOSE,
)

_SIZE_RE = re.compile(
    r"""^\s*
        (?P<value>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)
        \s*
        (?P<prefix>[kKmMgGtT]?)(?P<binary>i?)
        \s*
        (?P<unit>B(?:ytes?)?|b(?:its?)?)
        \s*$""",
    re.VERBOSE,
)

_PREFIX_DECIMAL = {
    "": 1.0,
    "k": KILO,
    "K": KILO,
    "m": MEGA,
    "M": MEGA,
    "g": GIGA,
    "G": GIGA,
    "t": TERA,
    "T": TERA,
}

_TIME_FACTORS = {
    "ns": 1e-9,
    "us": 1e-6,
    "ms": 1e-3,
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "min": 60.0,
    "minute": 60.0,
    "minutes": 60.0,
    "h": 3600.0,
    "hour": 3600.0,
    "hours": 3600.0,
}


def _require_positive(value: float, what: str) -> float:
    if not math.isfinite(value) or value < 0:
        raise UnitError(f"{what} must be a finite non-negative number, got {value!r}")
    return value


def parse_bandwidth(value: Quantity) -> float:
    """Parse a bandwidth into bits per second.

    Accepts floats/ints (already in b/s) or strings such as ``"155Mbps"``,
    ``"2.5Gb/s"``, ``"40 Gbit/s"``, ``"10MB/s"`` (capital ``B`` means
    bytes and is multiplied by 8).

    Raises
    ------
    UnitError
        If the string cannot be parsed or the value is negative.
    """
    if isinstance(value, (int, float)):
        return _require_positive(float(value), "bandwidth")
    match = _BANDWIDTH_RE.match(value)
    if match is None:
        raise UnitError(f"cannot parse bandwidth {value!r}")
    magnitude = float(match.group("value")) * _PREFIX_DECIMAL[match.group("prefix")]
    if match.group("unit").startswith("B"):
        magnitude *= 8.0
    return _require_positive(magnitude, "bandwidth")


def parse_time(value: Quantity) -> float:
    """Parse a duration into seconds.

    Accepts floats/ints (already in seconds) or strings such as ``"80ms"``,
    ``"250 us"``, ``"2s"``, ``"5min"``.
    """
    if isinstance(value, (int, float)):
        return _require_positive(float(value), "time")
    match = _TIME_RE.match(value)
    if match is None:
        raise UnitError(f"cannot parse time {value!r}")
    seconds = float(match.group("value")) * _TIME_FACTORS[match.group("unit")]
    return _require_positive(seconds, "time")


def parse_size(value: Quantity) -> float:
    """Parse a data size into **bytes**.

    Accepts floats/ints (already in bytes) or strings such as ``"1500B"``,
    ``"64KiB"``, ``"10Mbit"`` (lowercase ``b`` means bits, divided by 8),
    ``"1.25GB"``.  The ``i`` infix selects binary multipliers (1024-based).
    """
    if isinstance(value, (int, float)):
        return _require_positive(float(value), "size")
    match = _SIZE_RE.match(value)
    if match is None:
        raise UnitError(f"cannot parse size {value!r}")
    prefix = match.group("prefix")
    if match.group("binary"):
        exponent = {"": 0, "k": 1, "K": 1, "m": 2, "M": 2, "g": 3, "G": 3, "t": 4, "T": 4}[prefix]
        factor = 1024.0 ** exponent
    else:
        factor = _PREFIX_DECIMAL[prefix]
    magnitude = float(match.group("value")) * factor
    if match.group("unit").startswith("b"):
        magnitude /= 8.0
    return _require_positive(magnitude, "size")


def _format_engineering(value: float, unit: str,
                        factors: Sequence[Tuple[float, str]]) -> str:
    for threshold, suffix in factors:
        if value >= threshold:
            scaled = value / threshold
            if scaled == int(scaled):
                return f"{int(scaled)}{suffix}{unit}"
            return f"{scaled:.4g}{suffix}{unit}"
    if value == int(value):
        return f"{int(value)}{unit}"
    return f"{value:.4g}{unit}"


def format_bandwidth(bps: float) -> str:
    """Render a bandwidth in b/s with an engineering prefix, e.g. ``'2.5Gb/s'``."""
    return _format_engineering(bps, "b/s", [(TERA, "T"), (GIGA, "G"), (MEGA, "M"), (KILO, "k")])


def format_size(nbytes: float) -> str:
    """Render a byte count with an engineering prefix, e.g. ``'1.25GB'``."""
    return _format_engineering(nbytes, "B", [(TERA, "T"), (GIGA, "G"), (MEGA, "M"), (KILO, "k")])


def format_time(seconds: float) -> str:
    """Render a duration with a convenient sub-second unit, e.g. ``'80ms'``."""
    if seconds == 0:
        return "0s"
    if seconds >= 1.0:
        if seconds == int(seconds):
            return f"{int(seconds)}s"
        return f"{seconds:.4g}s"
    for factor, suffix in [(1e-3, "ms"), (1e-6, "us"), (1e-9, "ns")]:
        if seconds >= factor:
            scaled = seconds / factor
            if abs(scaled - round(scaled)) < 1e-9:
                return f"{int(round(scaled))}{suffix}"
            return f"{scaled:.4g}{suffix}"
    return f"{seconds:.4g}s"
