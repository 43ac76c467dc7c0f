"""Process-wide observability runtime: the flag, the registry, the recorder.

This module is the single point the instrumented hot paths touch.  Every
instrumentation site in :mod:`repro.net`, :mod:`repro.tcp`,
:mod:`repro.faults` and the runners is written as::

    from repro.obs import runtime as _obs
    ...
    if _obs.enabled:
        _obs.queue_event("drop", self, packet, len(self._items))

so the **disabled** path costs exactly one module-attribute load and one
branch — no callable indirection, no per-packet allocation — and the
default state is disabled.  :func:`enable` installs a fresh
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.recorder.FlightRecorder`; components constructed
while enabled register themselves, and the emit helpers below translate
live objects into schema-conformant flight-recorder events.

Nothing here draws randomness or schedules simulator events, which is
what guarantees bit-identical simulation results with observability on
or off (the equivalence test in ``tests/obs/test_zero_cost.py`` holds
the line).

Layering note: this module must not import :mod:`repro.net`,
:mod:`repro.tcp` or :mod:`repro.sim` at module level — they import *us*.
The one cross-layer lookup (packet-pool statistics) happens lazily
inside :func:`register_pool`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder

__all__ = [
    "enabled",
    "enable",
    "disable",
    "observed",
    "registry",
    "recorder",
    "snapshot",
    "crash_dump",
    "label",
    "register_queue",
    "register_link",
    "register_sender",
    "register_sim",
    "register_pool",
    "queue_event",
    "link_drop",
    "link_event",
    "cwnd_event",
    "rto_event",
    "fast_retx_event",
    "fault_event",
]

#: THE flag.  Hot paths check this and nothing else.
enabled = False

_registry: Optional[MetricsRegistry] = None
_recorder: Optional[FlightRecorder] = None
_crash_dump_path: Optional[str] = None
#: Global flow id -> per-window ordinal, built at sender registration.
#: Event ``flow`` fields use the ordinal so traces stay deterministic
#: (the global flow-id allocator keeps counting across runs).
_flow_ordinals: Dict[int, int] = {}


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def enable(capacity: int = DEFAULT_CAPACITY,
           kinds: Optional[Iterable[str]] = None,
           filters: Optional[Iterable[Callable[[Dict[str, Any]], bool]]] = None,
           crash_dump_path: Optional[str] = None) -> None:
    """Turn observability on with a fresh registry and flight recorder.

    Components must be constructed *after* this call to self-register;
    enabling mid-simulation records events but misses per-component
    counters for objects that predate the call.  The packet pool is
    registered eagerly (it is a process singleton that always exists).
    """
    global enabled, _registry, _recorder, _crash_dump_path
    _registry = MetricsRegistry()
    _recorder = FlightRecorder(capacity=capacity, kinds=kinds, filters=filters)
    _crash_dump_path = crash_dump_path
    _flow_ordinals.clear()
    enabled = True
    register_pool()


def disable() -> None:
    """Turn observability off and drop all captured state."""
    global enabled, _registry, _recorder, _crash_dump_path
    enabled = False
    _registry = None
    _recorder = None
    _crash_dump_path = None
    _flow_ordinals.clear()


@contextmanager
def observed(**kwargs: Any) -> Iterator[FlightRecorder]:
    """Scope observability to a block; yields the flight recorder."""
    enable(**kwargs)
    try:
        assert _recorder is not None
        yield _recorder
    finally:
        disable()


def registry() -> Optional[MetricsRegistry]:
    return _registry


def recorder() -> Optional[FlightRecorder]:
    return _recorder


def snapshot(now: Optional[float] = None) -> Optional[Dict[str, Any]]:
    """Metrics snapshot at virtual time ``now`` (None while disabled)."""
    reg = _registry
    return reg.snapshot(now) if reg is not None else None


def crash_dump() -> Optional[str]:
    """Dump the flight recorder to the configured crash path, if any.

    Called by the experiment runners when a run dies (exception or
    watchdog abort) so the last events before the failure survive it.
    Returns the path written, or None when there was nothing to do.
    Never raises: a failing dump must not mask the original error.
    """
    rec = _recorder
    path = _crash_dump_path
    if rec is None or path is None or len(rec) == 0:
        return None
    try:
        rec.dump_jsonl(path)
    except OSError:
        return None
    return path


# ----------------------------------------------------------------------
# Component registration
# ----------------------------------------------------------------------
def _queue_reader(queue: Any) -> Dict[str, Any]:
    return {
        "arrivals": queue.arrivals,
        "departures": queue.departures,
        "drops": queue.drops,
        "bytes_in": queue.bytes_in,
        "bytes_out": queue.bytes_out,
        "bytes_dropped": queue.bytes_dropped,
        "depth": len(queue._items),
        "peak_packets": queue.peak_packets,
        "injected_drops": queue.injected_drops,
        "ecn_marks": getattr(queue, "ecn_marks", 0),
    }


def _link_reader(link: Any) -> Dict[str, Any]:
    return {
        "delivered": link.packets_delivered,
        "bytes_delivered": link.bytes_delivered,
        "fault_drops": link.packets_dropped,
        "down_count": link.down_count,
        "busy_time": link.busy_time,
        "down_time": link.down_time,
        "in_flight": link.in_flight,
    }


def _sender_reader(sender: Any) -> Dict[str, Any]:
    return {
        "segments_sent": sender.segments_sent,
        "retransmits": sender.retransmits,
        "fast_retransmits": sender.fast_retransmits,
        "ecn_reductions": sender.ecn_reductions,
        "cwnd": float(sender.cc.cwnd),
        "snd_una": sender.snd_una,
        "snd_nxt": sender.snd_nxt,
        "flight": sender.snd_nxt - sender.snd_una,
        "completed": sender.completed,
        "pacing_releases": sender.pacing_releases,
        # Zoo-specific counters: Compound's delay-based sheds and
        # BBR-like bandwidth-probe phase changes (0 for other CCs).
        "delay_backoffs": getattr(sender.cc, "delay_backoffs", 0),
        "bw_probe_transitions": getattr(sender.cc, "bw_probe_transitions", 0),
    }


def _sim_reader(sim: Any) -> Dict[str, Any]:
    stats = {
        "events_processed": sim.events_processed,
        "pending": sim.pending(),
        "scheduler": sim.scheduler,
        "peak_heap_size": sim.peak_heap_size,
        "compactions": sim.compactions,
    }
    if sim.scheduler == "calendar":
        # Calendar-backend health: ladder spills say whether the bucket
        # width matches the event horizon; peak bucket occupancy says
        # whether events are clumping into a few buckets.
        stats["ladder_spills"] = sim.ladder_spills
        stats["peak_bucket_occupancy"] = sim.peak_bucket_occupancy
        stats["bucket_width"] = sim.bucket_width
        if sim.calendar_fallback:
            stats["calendar_fallback"] = True
    if getattr(sim, "_burst", False):
        # Burst-mode census: how many scheduler pops the virtual
        # per-link streams absorbed.  events_processed above already
        # counts both, so the pair decomposes it.
        stats["burst_steps"] = sim.burst_steps
        stats["events_popped"] = sim.events_popped
    return stats


def _timer_reader(sim: Any) -> Dict[str, Any]:
    return {"lazy_deferrals": sim.lazy_deferrals}


def _pool_reader(_pool: Any) -> Dict[str, Any]:
    from repro.net.packet import pool_stats
    stats = pool_stats()
    acquired = stats["acquired"]
    return {
        "acquired": acquired,
        "reused": stats["reused"],
        "released": stats["released"],
        "reuse_ratio": stats["reused"] / acquired if acquired else 0.0,
    }


def register_queue(queue: Any) -> None:
    reg = _registry
    if reg is not None:
        reg.register("queue", queue, _queue_reader)


def register_link(link: Any) -> None:
    reg = _registry
    if reg is not None:
        reg.register("link", link, _link_reader, label=link.name or None)


def register_sender(sender: Any) -> None:
    """Register a TCP sender, labeled by registration order.

    ``flow<n>`` counts per observability window, NOT the sender's own
    ``flow_id`` — that one is a process-global allocator, and labels
    built from it would differ between two runs in the same process,
    breaking golden-trace determinism.
    """
    reg = _registry
    if reg is not None:
        n = reg.next_ordinal("tcp")
        _flow_ordinals[sender.flow_id] = n
        reg.register("tcp", sender, _sender_reader, label=f"flow{n}")


def register_sim(sim: Any) -> None:
    """Register a simulator (engine counters + the lazy-timer counter)."""
    reg = _registry
    if reg is not None:
        reg.register("sim", sim, _sim_reader)
        reg.register("timer", sim, _timer_reader, label="timers")


def register_pool() -> None:
    reg = _registry
    if reg is not None:
        from repro.net.packet import _POOL
        reg.register("pool", _POOL, _pool_reader, label="packets")


def label(obj: Any, name: str) -> None:
    """Attach a human-readable label to a registered component."""
    reg = _registry
    if reg is not None:
        reg.relabel(obj, name)


# ----------------------------------------------------------------------
# Event emitters (call sites guard on ``enabled`` first)
# ----------------------------------------------------------------------
def queue_event(kind: str, queue: Any, packet: Any, depth: int) -> None:
    """Record an enqueue/drop/mark at a queue."""
    rec = _recorder
    if rec is None:
        return
    rec.record({
        "t": queue.sim._now,
        "kind": kind,
        "comp": _registry.label_of(queue) if _registry else "queue",
        "flow": _flow_ordinals.get(packet.flow_id, packet.flow_id),
        "seq": packet.seq,
        "size": packet.size,
        "q": depth,
    })


def link_drop(link: Any, packet: Any) -> None:
    """Record a packet lost to a link fault."""
    rec = _recorder
    if rec is None:
        return
    rec.record({
        "t": link.sim._now,
        "kind": "drop",
        "comp": _registry.label_of(link) if _registry else "link",
        "flow": _flow_ordinals.get(packet.flow_id, packet.flow_id),
        "seq": packet.seq,
        "size": packet.size,
    })


def link_event(kind: str, link: Any) -> None:
    """Record a link carrier transition ("link_down" / "link_up")."""
    rec = _recorder
    if rec is None:
        return
    rec.record({
        "t": link.sim._now,
        "kind": kind,
        "comp": _registry.label_of(link) if _registry else "link",
    })


def cwnd_event(sender: Any, cwnd: float, why: str) -> None:
    """Record a congestion-window change at a TCP sender."""
    rec = _recorder
    if rec is None:
        return
    rec.record({
        "t": sender.sim._now,
        "kind": "cwnd",
        "comp": _registry.label_of(sender) if _registry else "tcp",
        "cwnd": round(float(cwnd), 6),
        "why": why,
    })


def rto_event(sender: Any) -> None:
    """Record a retransmission timeout firing."""
    rec = _recorder
    if rec is None:
        return
    rec.record({
        "t": sender.sim._now,
        "kind": "rto",
        "comp": _registry.label_of(sender) if _registry else "tcp",
        "rto": round(float(sender.rto.rto), 6),
        "una": sender.snd_una,
    })


def fast_retx_event(sender: Any) -> None:
    """Record a fast retransmit (third duplicate ACK)."""
    rec = _recorder
    if rec is None:
        return
    rec.record({
        "t": sender.sim._now,
        "kind": "fast_retx",
        "comp": _registry.label_of(sender) if _registry else "tcp",
        "seq": sender.snd_una,
    })


def fault_event(sim: Any, message: str) -> None:
    """Record a fault-schedule transition firing."""
    rec = _recorder
    if rec is None:
        return
    rec.record({
        "t": sim._now,
        "kind": "fault",
        "comp": "faults",
        "msg": message,
    })
