"""`repro.obs`: zero-cost-when-disabled observability.

Three pieces, spanning the sim/net/tcp/runner layers:

* :mod:`repro.obs.metrics` — typed counters plus a
  :class:`MetricsRegistry` of per-component readers, snapshot-able at
  any simulation time (``queue.drops``, ``tcp.retransmits``,
  ``timer.lazy_deferrals``, ``pool.reuse_ratio``, ...).
* :mod:`repro.obs.recorder` — a bounded ring-buffer
  :class:`FlightRecorder` of structured events (enqueue/drop/mark, cwnd
  changes, RTOs, fault transitions) with pluggable filters, dumpable to
  JSONL; :mod:`repro.obs.schema` defines and validates the event shape.
* :mod:`repro.obs.runtime` — the module-level ``enabled`` flag the
  instrumented hot paths check, component registration, and the emit
  helpers.  Disabled (the default), instrumentation costs one attribute
  load and one branch per site and simulation results are bit-identical
  with observability on or off.

Typical use::

    from repro import obs

    with obs.observed(kinds={"drop", "cwnd", "rto"}) as recorder:
        result = run_long_flow_experiment(config)
    print(result.metrics["counters"]["queue.drops"])
    recorder.dump_jsonl("trace.jsonl")

or from the command line: ``repro trace long --flap 30,2`` and
``repro obs report trace.jsonl``.
"""

import importlib
from typing import TYPE_CHECKING, Any

from repro.obs import runtime
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder, read_jsonl
from repro.obs.runtime import (
    crash_dump,
    disable,
    enable,
    observed,
    recorder,
    registry,
    snapshot,
)

if TYPE_CHECKING:
    from repro.obs.export import (
        load_report_source,
        render_report,
        summarize_snapshot,
        summarize_trace,
    )
    from repro.obs.schema import (
        EVENT_KINDS,
        KIND_FIELDS,
        validate_event,
        validate_events,
    )

#: Re-exports resolved on first access (PEP 562): the instrumented hot
#: paths import :mod:`repro.obs.runtime`, and a run that never reports
#: or validates a trace need not compile the exporter and the schema.
_LAZY = {
    **dict.fromkeys(("load_report_source", "render_report",
                     "summarize_snapshot", "summarize_trace"),
                    "repro.obs.export"),
    **dict.fromkeys(("EVENT_KINDS", "KIND_FIELDS", "validate_event",
                     "validate_events"), "repro.obs.schema"),
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "runtime",
    "Counter",
    "MetricsRegistry",
    "FlightRecorder",
    "DEFAULT_CAPACITY",
    "read_jsonl",
    "EVENT_KINDS",
    "KIND_FIELDS",
    "validate_event",
    "validate_events",
    "enable",
    "disable",
    "observed",
    "registry",
    "recorder",
    "snapshot",
    "crash_dump",
    "load_report_source",
    "render_report",
    "summarize_snapshot",
    "summarize_trace",
]
