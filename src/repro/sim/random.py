"""Named, independently-seeded random-number streams.

Reproducibility discipline: every stochastic component draws from its own
named stream derived deterministically from a single master seed.  Adding
a new random consumer (say, a jitter model) therefore never perturbs the
draws seen by existing components, so scenario results stay comparable
across code revisions — the same discipline ns-2/ns-3 use with per-object
RNG substreams.

Example
-------
>>> streams = RngStreams(master_seed=1)
>>> rtt_rng = streams.stream("rtt")
>>> start_rng = streams.stream("flow-starts")
>>> streams.stream("rtt") is rtt_rng   # streams are memoized by name
True
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngStreams"]


class RngStreams:
    """A registry of named ``random.Random`` instances.

    Each stream's seed is ``sha256(master_seed || name)``, so streams are
    statistically independent and stable across runs and platforms.

    Parameters
    ----------
    master_seed:
        The single integer controlling the whole experiment.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(self._derive_seed(name))
            self._streams[name] = rng
        return rng

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(master_seed={self.master_seed}, streams={sorted(self._streams)})"
