"""Order statistics every number in the benchmark is reported with."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

median = statistics.median


def quartiles(values: Sequence[float], method: str = "inclusive") -> tuple:
    """``(q1, q3)``; inclusive by default, so they stay inside the data
    even for the three or four repeats a ``long_n1024`` run affords."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, q3


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, min, quartiles and median of ``values``."""
    q1, q3 = quartiles(values)
    return {"n": len(values), "min": min(values), "q1": q1,
            "median": median(values), "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, the way the
    driver takes it: ``statistics.quantiles(values, n=4)`` as is."""
    q1, q3 = quartiles(values, method="exclusive")
    return (q3 - q1) / median(values)
