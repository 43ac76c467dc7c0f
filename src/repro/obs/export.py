"""Exporters: trace/snapshot loading and the ``repro obs report`` renderer.

Two artifact shapes come out of an observed run:

* **JSONL traces** — one schema event per line, written by
  :meth:`~repro.obs.recorder.FlightRecorder.dump_jsonl` (the ``repro
  trace`` CLI, or a crash dump).
* **Metrics snapshots** — the JSON dict produced by
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, embedded under a
  ``metrics`` key in experiment results and sweep-checkpoint metadata.

:func:`load_report_source` sniffs which one a path holds so ``repro obs
report`` accepts either, and the ``summarize_*`` functions render a
terminal-friendly per-run summary.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple, Union

from repro.errors import ObsError
from repro.obs.recorder import read_jsonl

__all__ = [
    "load_report_source",
    "summarize_snapshot",
    "summarize_trace",
    "render_report",
]

ReportSource = Union[List[Dict[str, Any]], Dict[str, Any]]


def load_report_source(path: str) -> Tuple[str, ReportSource]:
    """Load ``path`` as either a JSONL trace or a metrics snapshot.

    Returns ``("trace", events)`` or ``("snapshot", snapshot_dict)``.
    A result JSON carrying an embedded ``metrics`` dict is unwrapped to
    its snapshot.  Raises :class:`~repro.errors.ObsError` for anything
    unrecognizable.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise ObsError(f"{path}: empty file")
    try:
        payload = json.loads(stripped)
    except ValueError:
        payload = None  # multi-line JSONL does not parse as one document
    if isinstance(payload, dict):
        if "counters" in payload and "components" in payload:
            return "snapshot", payload
        metrics = payload.get("metrics")
        if isinstance(metrics, dict) and "counters" in metrics:
            return "snapshot", metrics
        # Sweep checkpoints nest the snapshot one level down, at
        # meta.metrics (fleet sweeps also merge their fabric counters
        # into it there) — unwrap so `repro obs report <checkpoint>`
        # audits a distributed run from its artifact alone.
        meta = payload.get("meta")
        if isinstance(meta, dict):
            metrics = meta.get("metrics")
            if isinstance(metrics, dict) and "counters" in metrics:
                return "snapshot", metrics
        if "kind" in payload and "t" in payload:
            return "trace", [payload]  # single-event trace
        raise ObsError(
            f"{path}: JSON document has neither a metrics snapshot nor an "
            f"embedded 'metrics' dict (top-level, or under 'meta')")
    events = read_jsonl(path)
    if not events:
        raise ObsError(f"{path}: no events found")
    return "trace", events


def summarize_trace(events: List[Dict[str, Any]]) -> str:
    """Human-readable summary of an event trace."""
    by_kind: Dict[str, int] = {}
    by_comp: Dict[str, int] = {}
    drops_by_comp: Dict[str, int] = {}
    cwnd_span: Dict[str, List[float]] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        comp = str(event.get("comp", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        by_comp[comp] = by_comp.get(comp, 0) + 1
        if kind == "drop":
            drops_by_comp[comp] = drops_by_comp.get(comp, 0) + 1
        elif kind == "cwnd":
            cwnd = float(event.get("cwnd", 0.0))
            span = cwnd_span.setdefault(comp, [cwnd, cwnd])
            span[0] = min(span[0], cwnd)
            span[1] = max(span[1], cwnd)
    t0 = min(float(e["t"]) for e in events)
    t1 = max(float(e["t"]) for e in events)
    lines = [
        f"trace: {len(events)} events over t=[{t0:.6f}, {t1:.6f}]s",
        "",
        "events by kind:",
    ]
    for kind, count in sorted(by_kind.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {kind:<10} {count}")
    lines.append("")
    lines.append("events by component:")
    for comp, count in sorted(by_comp.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"  {comp:<20} {count}")
    if drops_by_comp:
        lines.append("")
        lines.append("drops by component:")
        for comp, count in sorted(drops_by_comp.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {comp:<20} {count}")
    if cwnd_span:
        lines.append("")
        lines.append("cwnd range by flow:")
        for comp in sorted(cwnd_span):
            lo, hi = cwnd_span[comp]
            lines.append(f"  {comp:<20} [{lo:.2f}, {hi:.2f}]")
    return "\n".join(lines)


#: Headline counters surfaced first in snapshot reports (the ISSUE's
#: canonical names), when present.
_HEADLINE = (
    "queue.drops", "queue.arrivals", "queue.departures",
    "tcp.retransmits", "tcp.fast_retransmits", "tcp.segments_sent",
    "link.fault_drops", "link.down_count",
    "timer.lazy_deferrals", "sim.events_processed",
    "pool.reuse_ratio",
    "fabric.completions", "fabric.requeued", "fabric.quarantined",
    "fabric.worker_deaths",
)


def summarize_snapshot(snap: Dict[str, Any]) -> str:
    """Human-readable summary of a metrics snapshot."""
    counters = snap.get("counters", {})
    components = snap.get("components", {})
    t = snap.get("time")
    header = "metrics snapshot"
    if isinstance(t, (int, float)):
        header += f" at t={t:.6f}s"
    lines = [header, "", "headline counters:"]
    for name in _HEADLINE:
        if name in counters:
            value = counters[name]
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<24} {shown}")
    rest = sorted(name for name in counters if name not in _HEADLINE)
    if rest:
        lines.append("")
        lines.append("other counters:")
        for name in rest:
            value = counters[name]
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<24} {shown}")
    if components:
        lines.append("")
        lines.append(f"components ({len(components)}):")
        for name in sorted(components):
            fields = components[name]
            brief = ", ".join(f"{k}={v}" for k, v in list(fields.items())[:4])
            lines.append(f"  {name:<24} {brief}")
    return "\n".join(lines)


def render_report(path: str) -> str:
    """Render the report for a trace or snapshot file at ``path``."""
    shape, source = load_report_source(path)
    if shape == "trace":
        assert isinstance(source, list)
        return summarize_trace(source)
    assert isinstance(source, dict)
    return summarize_snapshot(source)
