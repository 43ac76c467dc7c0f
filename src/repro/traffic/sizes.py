"""Flow-size distributions, in packets.

The paper's workloads span fixed-size short flows (Figure 8), Pareto
-distributed lengths ("we ran similar experiments with Pareto
distributed flow lengths with essentially identical results"), and the
heavy-tailed production mix of Table 11 (bounded Pareto here).  Every
distribution exposes:

* ``sample(rng)`` — draw one flow length (>= 1 packet);
* ``mean()`` — analytic mean, used to convert a target load into a
  Poisson arrival rate;
* ``probability_map(cap)`` — a discretized ``{size: prob}`` view for
  the analytic short-flow model (exact where possible, sampled
  otherwise).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional

from repro.errors import ConfigurationError

__all__ = [
    "FlowSizeDistribution",
    "FixedSize",
    "UniformSize",
    "BoundedPareto",
]


class FlowSizeDistribution:
    """Interface for flow-length distributions (lengths in packets)."""

    def to_dict(self) -> Dict[str, object]:
        """Content-based identity for sweep checkpoints.

        The public configuration attributes fully determine every
        distribution here, so this default covers all subclasses.
        """
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def probability_map(self, cap: int = 10_000,
                        rng: Optional[random.Random] = None) -> Dict[int, float]:
        """``{size: probability}`` discretization for analytic models.

        The default implementation samples; exact subclasses override.
        Pass a seeded ``rng`` to control the sampling stream; the
        fallback is a fixed-seed stream so the discretization is
        reproducible run to run rather than entropy-seeded.
        """
        if rng is None:
            rng = random.Random(0xC0FFEE)
        counts: Dict[int, float] = {}
        n = 20_000
        for _ in range(n):
            size = min(self.sample(rng), cap)
            counts[size] = counts.get(size, 0.0) + 1.0
        return {size: c / n for size, c in sorted(counts.items())}


class FixedSize(FlowSizeDistribution):
    """Every flow has exactly ``packets`` packets."""

    def __init__(self, packets: int):
        if packets < 1:
            raise ConfigurationError("flow size must be >= 1 packet")
        self.packets = packets

    def sample(self, rng: random.Random) -> int:
        return self.packets

    def mean(self) -> float:
        return float(self.packets)

    def probability_map(self, cap: int = 10_000,
                        rng: Optional[random.Random] = None) -> Dict[int, float]:
        return {min(self.packets, cap): 1.0}

    def __repr__(self) -> str:
        return f"FixedSize({self.packets})"


class UniformSize(FlowSizeDistribution):
    """Uniform integer lengths in ``[low, high]`` inclusive."""

    def __init__(self, low: int, high: int):
        if not 1 <= low <= high:
            raise ConfigurationError("need 1 <= low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def probability_map(self, cap: int = 10_000,
                        rng: Optional[random.Random] = None) -> Dict[int, float]:
        n = self.high - self.low + 1
        return {min(size, cap): 1.0 / n for size in range(self.low, self.high + 1)}

    def __repr__(self) -> str:
        return f"UniformSize({self.low}, {self.high})"


class BoundedPareto(FlowSizeDistribution):
    """Pareto lengths truncated to ``[minimum, maximum]``.

    The classic heavy-tailed model for Internet flow sizes: most flows
    are near the minimum, but the mass of *packets* is in the tail.
    ``shape`` around 1.1–1.5 matches measurement studies; smaller means
    heavier.
    """

    def __init__(self, shape: float, minimum: int = 1, maximum: int = 100_000):
        if shape <= 0:
            raise ConfigurationError("shape must be positive")
        if not 1 <= minimum < maximum:
            raise ConfigurationError("need 1 <= minimum < maximum")
        self.shape = shape
        self.minimum = minimum
        self.maximum = maximum

    def sample(self, rng: random.Random) -> int:
        # Inverse-CDF sampling of the bounded Pareto.
        a, lo, hi = self.shape, float(self.minimum), float(self.maximum)
        u = rng.random()
        ratio = (lo / hi) ** a
        x = lo / (1.0 - u * (1.0 - ratio)) ** (1.0 / a)
        return max(self.minimum, min(int(round(x)), self.maximum))

    def mean(self) -> float:
        a, lo, hi = self.shape, float(self.minimum), float(self.maximum)
        if abs(a - 1.0) < 1e-12:
            return lo * math.log(hi / lo) / (1.0 - lo / hi)
        num = (lo ** a) * a / (a - 1.0) * (lo ** (1.0 - a) - hi ** (1.0 - a))
        den = 1.0 - (lo / hi) ** a
        return num / den

    def __repr__(self) -> str:
        return f"BoundedPareto(shape={self.shape}, min={self.minimum}, max={self.maximum})"
