"""Section 4: buffer sizing for short (slow-start-only) flows.

A short flow is one that never leaves slow start.  Its traffic arrives
in exponentially growing bursts, and the queue those bursts build is
captured by the M[X]/D/1 effective-bandwidth bound implemented in
:mod:`repro.queueing.mg1`.  This module packages that bound as the
paper's buffer rule: ``B`` such that ``P(Q >= B) <= 0.025`` — the
Figure 8 model curve, independent of line rate, RTT, and flow count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.errors import ModelError
from repro.queueing.mg1 import (
    BurstMoments,
    buffer_for_overflow_probability,
    slow_start_burst_moments,
)

__all__ = ["ShortFlowModel"]

#: The overflow-probability target the paper uses for Figure 8's model.
FIG8_OVERFLOW_TARGET = 0.025


@dataclass
class ShortFlowModel:
    """Analytic short-flow buffer model.

    Parameters
    ----------
    load:
        Bottleneck load ``rho`` in (0, 1) offered by the short flows.
    flow_sizes:
        Flow-length mix in packets: either ``{size: probability}`` or a
        sequence of sampled sizes.
    initial_burst:
        Slow-start initial window (paper: 2).
    max_window:
        Maximum sender window in packets (the paper notes 12–43 for the
        era's operating systems); caps burst sizes.
    """

    load: float
    flow_sizes: Union[Mapping[int, float], Sequence[int]]
    initial_burst: int = 2
    max_window: Optional[int] = None
    _moments: BurstMoments = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.load < 1.0:
            raise ModelError(f"load must be in (0, 1), got {self.load}")
        self._moments = slow_start_burst_moments(
            self.flow_sizes, self.initial_burst, self.max_window
        )

    # ------------------------------------------------------------------
    # Buffer sizing
    # ------------------------------------------------------------------
    def required_buffer(self, target: float = FIG8_OVERFLOW_TARGET) -> float:
        """Minimum buffer (packets) with ``P(Q >= B) <= target``.

        With the default target (0.025) this is exactly the model curve
        plotted in Figure 8.  Note what is *absent* from the signature:
        line rate, RTT, flow count.
        """
        return buffer_for_overflow_probability(target, self.load, self._moments)
