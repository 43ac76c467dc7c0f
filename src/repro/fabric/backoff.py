"""Bounded exponential backoff with seeded jitter.

The policy separates the retry-with-reseed attempts of a
transiently-failing cell, in the supervisor's process and in a fabric
worker alike.  Delays grow geometrically from ``base`` and are capped
at ``max_delay``; jitter is a symmetric multiplicative band drawn from
an *injected, seeded* ``random.Random`` stream (see
:class:`~repro.sim.random.RngStreams`), never from the process-global
RNG, so a retry schedule is reproducible from the cell seed alone.
This module imports nothing above :mod:`repro.errors` and
:mod:`repro.sim.random`, so low layers (``repro.runner``) can use it
without a circular import.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.random import RngStreams

__all__ = ["BackoffPolicy", "backoff_stream"]

#: Exponent cap: 2**_MAX_EXPONENT already exceeds any sane max_delay,
#: and uncapped ``factor ** attempt`` overflows floats for long loops.
_MAX_EXPONENT = 52


@dataclass(frozen=True)
class BackoffPolicy:
    """Delay schedule ``min(max_delay, base * factor**attempt) * jitter``.

    Parameters
    ----------
    base:
        Delay before the first retry (seconds).  Zero disables sleeping
        entirely (useful in unit tests).
    factor:
        Geometric growth per attempt (>= 1).
    max_delay:
        Hard upper bound on a single delay (seconds).
    jitter:
        Half-width of the multiplicative jitter band in ``[0, 1)``:
        ``0.5`` scales each delay by a uniform draw from ``[0.5, 1.5]``.
        Jitter desynchronizes workers retrying on a contended host.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ConfigurationError(f"backoff base must be >= 0, got {self.base}")
        if self.factor < 1.0:
            raise ConfigurationError(
                f"backoff factor must be >= 1, got {self.factor}")
        if self.max_delay < 0:
            raise ConfigurationError(
                f"backoff max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"backoff jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay in seconds before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        raw = self.base * self.factor ** min(attempt, _MAX_EXPONENT)
        raw = min(self.max_delay, raw)
        if rng is not None and self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw)


def backoff_stream(scope: str, seed: int = 0) -> random.Random:
    """A seeded jitter stream for one retry loop.

    ``scope`` names the loop (a cell key); the stream seed derives from
    ``sha256(seed:scope)`` via :class:`RngStreams`, so two cells never
    share a jitter sequence yet every run
    with the same scope and seed reproduces the same schedule.
    """
    digest = hashlib.sha256(scope.encode("utf-8")).digest()
    master = seed ^ int.from_bytes(digest[:8], "big")
    return RngStreams(master).stream("fabric-backoff")
