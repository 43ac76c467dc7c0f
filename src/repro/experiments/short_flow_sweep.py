"""Figure 8: minimum buffer so short-flow AFCT inflates <= 12.5%.

For each bandwidth, the infinite-buffer AFCT baseline is measured
first; then buffers from an increasing grid are tried until measured
AFCT is within ``1 + MAX_INFLATION`` of the baseline.  The model value
— the effective-bandwidth bound inverted at ``P(Q >= B) = 0.025`` — is
reported alongside.

The paper's headline here: the required buffer is (nearly) the same at
40, 80, and 200 Mb/s, because the bound depends only on load and burst
sizes.  The same invariance shows up in the scaled sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core import ShortFlowModel
from repro.errors import ConfigurationError
from repro.experiments.common import (
    MAX_WINDOW_SHORT,
    ShortFlowResult,
    run_short_flow_experiment,
)
from repro.runner import SweepSupervisor, TrialOutcome
from repro.traffic.sizes import FixedSize, FlowSizeDistribution
from repro.units import Quantity, parse_bandwidth

__all__ = ["ShortFlowPoint", "afct_buffer_sweep"]

DEFAULT_BUFFER_GRID = (5, 10, 20, 30, 40, 60, 80, 120, 160, 240)

#: AFCT inflation tolerance over the infinite-buffer baseline (the
#: paper's 12.5%).
MAX_INFLATION = 0.125

#: Flow length when no size distribution is given: the paper's short
#: fixed-length flows, 14 packets = 3 slow-start bursts.
FLOW_PACKETS = 14


@dataclass
class ShortFlowPoint:
    """Figure 8 datum for one bandwidth."""

    bandwidth_bps: float
    load: float
    afct_infinite: float
    min_buffer_packets: float
    model_buffer_packets: float
    afct_at_min: float
    #: The cell that stalled or broke an invariant and ended the scan.
    failed: Optional[TrialOutcome] = None

    @property
    def achieved(self) -> bool:
        return not math.isnan(self.min_buffer_packets)


def afct_buffer_sweep(
    bandwidths: Sequence[Quantity] = ("10Mbps", "20Mbps", "40Mbps"),
    load: float = 0.8,
    buffer_grid: Sequence[int] = DEFAULT_BUFFER_GRID,
    warmup: float = 5.0,
    duration: float = 60.0,
    seed: int = 11,
    sizes: Optional[FlowSizeDistribution] = None,
    **kwargs,
) -> List[ShortFlowPoint]:
    """Measure Figure 8: min buffer for bounded AFCT inflation vs bandwidth.

    Parameters
    ----------
    bandwidths:
        Bottleneck rates (the paper: 40, 80, 200 Mb/s; scaled default).
    load:
        Offered load (the paper: 0.8).
    buffer_grid:
        Increasing buffer sizes to try; the scan stops at the first one
        meeting the threshold, or at a failed cell (a stall or a broken
        invariant), which leaves that rate's minimum unknown (NaN).
    """
    if list(buffer_grid) != sorted(buffer_grid):
        raise ConfigurationError("buffer_grid must be increasing")
    size_dist = sizes if sizes is not None else FixedSize(FLOW_PACKETS)
    model = ShortFlowModel(load=load, flow_sizes=size_dist.probability_map(),
                           max_window=MAX_WINDOW_SHORT)
    model_buffer = model.required_buffer()  # P(Q >= B) = 0.025

    supervisor = SweepSupervisor(run_short_flow_experiment,
                                 deserialize=ShortFlowResult.from_dict)

    def measure(bandwidth, buffer_packets) -> TrialOutcome:
        return supervisor.run_cell(
            load=load, buffer_packets=buffer_packets, sizes=size_dist,
            bottleneck_rate=bandwidth, warmup=warmup, duration=duration,
            seed=seed, **kwargs)

    points: List[ShortFlowPoint] = []
    for bandwidth in bandwidths:
        baseline = measure(bandwidth, None)
        failed = None if baseline.ok else baseline
        baseline_afct = baseline.result.afct if baseline.ok else math.nan
        threshold = baseline_afct * (1.0 + MAX_INFLATION)
        min_buffer = math.nan
        afct_at_min = math.nan
        for buffer_packets in buffer_grid if baseline.ok else ():
            outcome = measure(bandwidth, buffer_packets)
            if not outcome.ok:  # past it, the minimum is unknown
                failed = outcome
                break
            if outcome.result.afct <= threshold:
                min_buffer = float(buffer_packets)
                afct_at_min = outcome.result.afct
                break
        points.append(ShortFlowPoint(
            bandwidth_bps=parse_bandwidth(bandwidth),
            load=load,
            afct_infinite=baseline_afct,
            min_buffer_packets=min_buffer,
            model_buffer_packets=model_buffer,
            afct_at_min=afct_at_min,
            failed=failed,
        ))
    return points
