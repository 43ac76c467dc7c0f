"""Table 10: model vs simulation vs (emulated) experiment.

For each flow count and each buffer multiple of ``RTT*C/sqrt(n)``,
reports three utilization columns mirroring the paper's table:

* **Model** — the Gaussian aggregate-window prediction
  (:func:`repro.core.utilization.predicted_utilization`);
* **Sim** — the clean ns-2-style simulation
  (:func:`repro.experiments.common.run_long_flow_experiment`);
* **Exp** — the testbed emulation: same simulation plus per-packet host
  processing jitter, standing in for the paper's Cisco GSR + Harpoon
  measurements (see DESIGN.md's substitution table).  Host jitter is
  the physically-motivated difference between a real testbed and ns-2:
  interrupt coalescing and stack scheduling decorrelate flows, which is
  exactly why the paper's Exp column tends to *exceed* its Sim column.

Default parameters are scaled (pipe 400 packets, n up to 144) to keep
the 3-column table affordable; pass ``pipe_packets=1290`` and
``n_values=(100, 200, 300, 400)`` with longer durations for the paper's
absolute scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core import predicted_utilization
from repro.errors import ConfigurationError
from repro.experiments.common import (run_long_flow_experiment, rtt_for_pipe,
                                      sqrt_rule_packets)
from repro.units import Quantity

__all__ = ["TableRow", "utilization_table"]

DEFAULT_FACTORS = (0.5, 1.0, 2.0, 3.0)

#: Mean per-packet host jitter of the Exp column, as a fraction of the
#: mean RTT (testbed-like stack noise).
JITTER_FRACTION = 0.02


@dataclass
class TableRow:
    """One row of Table 10."""

    n_flows: int
    factor: float
    buffer_packets: int
    model: float
    sim: float
    exp: float


def utilization_table(
    n_values: Sequence[int] = (36, 64, 100, 144),
    factors: Sequence[float] = DEFAULT_FACTORS,
    pipe_packets: float = 400.0,
    bottleneck_rate: Quantity = "40Mbps",
    warmup: float = 20.0,
    duration: float = 40.0,
    seed: int = 9,
    **kwargs,
) -> List[TableRow]:
    """Generate Table 10 rows.

    Parameters
    ----------
    n_values, factors:
        The row grid: flow counts x buffer multiples of
        ``pipe/sqrt(n)``.

    The Exp column reruns each cell at the next seed with per-packet
    host jitter of mean :data:`JITTER_FRACTION` x the mean RTT.
    """
    if any(n < 1 for n in n_values):
        raise ConfigurationError("n_values must be positive flow counts")
    rows: List[TableRow] = []
    rtt_mean = rtt_for_pipe(pipe_packets, bottleneck_rate)
    for n in n_values:
        for factor in factors:
            buffer_packets = sqrt_rule_packets(pipe_packets, n, factor)
            model = predicted_utilization(pipe_packets, buffer_packets, n)
            sim_result = run_long_flow_experiment(
                n_flows=n, buffer_packets=buffer_packets,
                pipe_packets=pipe_packets, bottleneck_rate=bottleneck_rate,
                warmup=warmup, duration=duration, seed=seed, **kwargs,
            )
            exp_result = run_long_flow_experiment(
                n_flows=n, buffer_packets=buffer_packets,
                pipe_packets=pipe_packets, bottleneck_rate=bottleneck_rate,
                warmup=warmup, duration=duration, seed=seed + 1,
                proc_jitter_mean=JITTER_FRACTION * rtt_mean, **kwargs,
            )
            rows.append(TableRow(
                n_flows=n, factor=factor, buffer_packets=buffer_packets,
                model=model, sim=sim_result.utilization,
                exp=exp_result.utilization,
            ))
    return rows
