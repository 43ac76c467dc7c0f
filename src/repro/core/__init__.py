"""The paper's contribution: buffer-sizing theory.

* :mod:`repro.core.single_flow` — the Section 2 sawtooth analysis: why
  ``B = RTT x C`` is exactly right for one long-lived flow, and the
  closed-form utilization of an underbuffered link.
* :mod:`repro.core.aggregate` — the Section 3 Gaussian model of the
  summed congestion windows of ``n`` desynchronized flows.
* :mod:`repro.core.utilization` — utilization predicted from buffer
  size under the Gaussian model (the "Model" column of Table 10) and
  its inversion (the model curves of Figure 7).
* :mod:`repro.core.short_flows` — the Section 4 short-flow buffer rule
  (Figure 8's model curve).
* :mod:`repro.core.loss` — the loss-rate side effect of small buffers
  (``l ~= 0.76 / W^2``, Section 5.1.1).
* :mod:`repro.core.memory` — the Section 1.3 router-memory feasibility
  arithmetic (SRAM/DRAM chip counts and the access-time wall).
* :mod:`repro.core.sizing` — the user-facing facade tying it together:
  the rule-of-thumb, the ``RTT x C / sqrt(n)`` rule, and a combined
  recommendation for a traffic mix.
"""

from repro.core.aggregate import AggregateWindowModel
from repro.core.loss import average_window, loss_rate, loss_rate_from_window
from repro.core.memory import MemoryTechnology, SRAM_2004, DRAM_2004, EMBEDDED_DRAM_2004, MemoryPlan, plan_buffer_memory, min_packet_interarrival
from repro.core.short_flows import ShortFlowModel
from repro.core.single_flow import SingleFlowModel
from repro.core.sizing import (
    BufferRecommendation,
    recommend_buffer,
    rule_of_thumb_bytes,
    rule_of_thumb_packets,
    small_buffer_bytes,
    small_buffer_packets,
)
from repro.core.utilization import buffer_for_utilization, predicted_utilization

__all__ = [
    "SingleFlowModel",
    "AggregateWindowModel",
    "predicted_utilization",
    "buffer_for_utilization",
    "ShortFlowModel",
    "loss_rate",
    "loss_rate_from_window",
    "average_window",
    "MemoryTechnology",
    "MemoryPlan",
    "SRAM_2004",
    "DRAM_2004",
    "EMBEDDED_DRAM_2004",
    "plan_buffer_memory",
    "min_packet_interarrival",
    "rule_of_thumb_bytes",
    "rule_of_thumb_packets",
    "small_buffer_bytes",
    "small_buffer_packets",
    "BufferRecommendation",
    "recommend_buffer",
]
