"""repro — a reproduction of "Sizing Router Buffers" (SIGCOMM 2004).

The library has two faces:

**The theory** (:mod:`repro.core`, :mod:`repro.queueing`): closed-form
buffer-sizing rules — the classical ``B = RTT x C`` rule-of-thumb, the
paper's ``B = RTT x C / sqrt(n)`` rule for many desynchronized flows,
and the load-only effective-bandwidth bound for short flows — plus the
Gaussian aggregate-window model, the AIMD single-flow geometry, the
loss-rate trade-off, and the router-memory feasibility arithmetic.

**The laboratory** (:mod:`repro.sim`, :mod:`repro.net`,
:mod:`repro.tcp`, :mod:`repro.traffic`, :mod:`repro.metrics`): a
packet-level discrete-event simulator with a full TCP implementation
(Tahoe/Reno/NewReno), drop-tail and RED queues, dumbbell topologies,
long-lived and Poisson short-flow workloads, and the measurement
machinery (utilization, queue occupancy, flow-completion times,
aggregate-window statistics) needed to check the theory — the ns-2
replacement used by :mod:`repro.experiments` to regenerate every figure
and table of the paper.

Quickstart
----------
>>> from repro import recommend_buffer
>>> rec = recommend_buffer(capacity="2.5Gbps", rtt="250ms", n_long_flows=10000)
>>> round(rec.savings_vs_rule_of_thumb, 2)
0.99

See ``examples/`` for end-to-end simulations and ``EXPERIMENTS.md`` for
the paper-vs-measured record.
"""

import importlib
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.units import format_bandwidth, format_size, format_time, parse_bandwidth, parse_size, parse_time

if TYPE_CHECKING:
    from repro.core import (
        AggregateWindowModel,
        BufferRecommendation,
        MemoryPlan,
        MemoryTechnology,
        ShortFlowModel,
        SingleFlowModel,
        buffer_for_utilization,
        loss_rate,
        min_packet_interarrival,
        plan_buffer_memory,
        predicted_utilization,
        recommend_buffer,
        rule_of_thumb_bytes,
        rule_of_thumb_packets,
        small_buffer_bytes,
        small_buffer_packets,
    )
    from repro.net import build_dumbbell
    from repro.scenarios import PROFILES, LinkProfile
    from repro.sim import Simulator
    from repro.tcp import TcpFlow

#: Re-exports resolved on first access (PEP 562), so importing one
#: subpackage -- a simulation, the CLI -- does not compile the theory,
#: the simulator and the scenarios with it.
_LAZY = {
    **dict.fromkeys((
        "AggregateWindowModel", "BufferRecommendation", "MemoryPlan",
        "MemoryTechnology", "ShortFlowModel", "SingleFlowModel",
        "buffer_for_utilization", "loss_rate", "min_packet_interarrival",
        "plan_buffer_memory", "predicted_utilization", "recommend_buffer",
        "rule_of_thumb_bytes", "rule_of_thumb_packets",
        "small_buffer_bytes", "small_buffer_packets"), "repro.core"),
    "build_dumbbell": "repro.net",
    "PROFILES": "repro.scenarios",
    "LinkProfile": "repro.scenarios",
    "Simulator": "repro.sim",
    "TcpFlow": "repro.tcp",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "__version__",
    # Theory.
    "rule_of_thumb_bytes",
    "rule_of_thumb_packets",
    "small_buffer_bytes",
    "small_buffer_packets",
    "recommend_buffer",
    "BufferRecommendation",
    "predicted_utilization",
    "buffer_for_utilization",
    "SingleFlowModel",
    "AggregateWindowModel",
    "ShortFlowModel",
    "loss_rate",
    "MemoryTechnology",
    "MemoryPlan",
    "plan_buffer_memory",
    "min_packet_interarrival",
    # Laboratory.
    "Simulator",
    "build_dumbbell",
    "TcpFlow",
    # Scenarios.
    "LinkProfile",
    "PROFILES",
    # Units & errors.
    "parse_bandwidth",
    "parse_time",
    "parse_size",
    "format_bandwidth",
    "format_time",
    "format_size",
    "ReproError",
]
