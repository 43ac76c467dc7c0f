"""Fluid-model sweeps: instant buffer-sizing curves.

Because a fluid integration costs milliseconds, whole (n, buffer)
planes can be explored interactively.  These helpers generate the
fluid analogue of Figure 7 (minimum buffer for a target utilization vs
flow count) in both synchronization modes, which brackets the packet
-level truth from both sides: synchronized fluid needs ~the full BDP
regardless of n; desynchronized fluid tracks the sqrt(n) rule.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ModelError
from repro.fluid.model import FluidAimdModel

__all__ = ["fluid_utilization", "fluid_min_buffer"]


def _default_rtts(n_flows: int, rtt_mean: float,
                  spread: Tuple[float, float]) -> List[float]:
    lo, hi = spread
    if n_flows == 1:
        return [rtt_mean]
    return [rtt_mean * (lo + (hi - lo) * i / (n_flows - 1))
            for i in range(n_flows)]


def fluid_utilization(n_flows: int, pipe_packets: float, buffer_packets: float,
                      rtt_mean: float = 0.08,
                      rtt_spread: Tuple[float, float] = (0.5, 1.5),
                      synchronized: bool = False,
                      duration: float = 120.0, warmup: float = 60.0) -> float:
    """Utilization of ``n`` fluid AIMD flows at the given buffer."""
    capacity = pipe_packets / rtt_mean
    rtts = _default_rtts(n_flows, rtt_mean, rtt_spread)
    model = FluidAimdModel(n_flows, capacity, buffer_packets, rtts,
                           synchronized=synchronized)
    return model.run(duration=duration, warmup=warmup).utilization


def fluid_min_buffer(n_flows: int, target: float, pipe_packets: float = 400.0,
                     synchronized: bool = False,
                     tolerance_packets: float = 1.0,
                     **kwargs) -> float:
    """Minimum buffer reaching ``target`` utilization, by bisection.

    Fluid utilization is (noisily) nondecreasing in the buffer; the
    bisection keeps the largest insufficient and smallest sufficient
    buffer seen, so limit-cycle wobble cannot derail it.

    Returns the cap ``2 * pipe_packets`` when even that buffer misses
    the target (synchronized lockstep with heterogeneous RTTs can sit
    below a high target regardless of buffering) — callers comparing
    modes read the cap as "needs at least the whole BDP, twice over".
    """
    if not 0.0 < target < 1.0:
        raise ModelError("target must be in (0, 1)")
    lo, hi = 0.0, pipe_packets * 2.0
    if fluid_utilization(n_flows, pipe_packets, hi,
                         synchronized=synchronized, **kwargs) < target:
        return hi
    for _ in range(40):
        if hi - lo <= tolerance_packets:
            break
        mid = 0.5 * (lo + hi)
        util = fluid_utilization(n_flows, pipe_packets, mid,
                                 synchronized=synchronized, **kwargs)
        if util >= target:
            hi = mid
        else:
            lo = mid
    return hi
