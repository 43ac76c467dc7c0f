"""The flight-recorder event schema.

Every event the :class:`~repro.obs.recorder.FlightRecorder` captures is
a flat dict with three common fields — ``t`` (virtual time), ``kind``
(one of :data:`EVENT_KINDS`), ``comp`` (the emitting component's label)
— plus kind-specific required fields listed in :data:`KIND_FIELDS`.
Extra fields are allowed (a queue drop carries the depth, a link drop
does not), so emitters can enrich events without a schema migration.

The schema is enforced in two places: the golden-trace tests validate
every replayed event, and the CI observability smoke job validates the
JSONL dump of a traced scenario end to end.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.errors import ObsError

__all__ = [
    "EVENT_KINDS",
    "KIND_FIELDS",
    "validate_event",
    "validate_events",
]

#: Every event kind the instrumented stack can emit.
EVENT_KINDS = frozenset({
    "enqueue",    # packet admitted to (or cut through) an output queue
    "drop",       # packet lost: queue overflow, RED, injector, link fault
    "mark",       # RED/ECN congestion-experienced mark
    "cwnd",       # congestion-window change at a TCP sender
    "rto",        # retransmission timeout fired
    "fast_retx",  # third duplicate ACK triggered a fast retransmit
    "fault",      # a scheduled fault transition fired
    "link_down",  # link carrier lost
    "link_up",    # link carrier restored
})

#: Required kind-specific fields (beyond the common ``t``/``kind``/``comp``).
KIND_FIELDS: Mapping[str, Tuple[str, ...]] = {
    "enqueue": ("flow", "seq", "size", "q"),
    "drop": ("flow", "seq", "size"),
    "mark": ("flow", "seq"),
    "cwnd": ("cwnd", "why"),
    "rto": ("rto", "una"),
    "fast_retx": ("seq",),
    "fault": ("msg",),
    "link_down": (),
    "link_up": (),
}

_COMMON = ("t", "kind", "comp")


def validate_event(event: Dict[str, Any]) -> None:
    """Raise :class:`~repro.errors.ObsError` unless ``event`` conforms.

    Checks the common fields, the kind registry, kind-specific required
    fields, and basic field types (``t`` numeric and finite-or-zero,
    ``kind``/``comp`` strings).
    """
    if not isinstance(event, dict):
        raise ObsError(f"event must be a dict, got {type(event).__name__}")
    for field in _COMMON:
        if field not in event:
            raise ObsError(f"event missing required field {field!r}: {event!r}")
    t = event["t"]
    if not isinstance(t, (int, float)) or isinstance(t, bool) or t != t:
        raise ObsError(f"event time must be a finite number, got {t!r}")
    kind = event["kind"]
    if kind not in EVENT_KINDS:
        raise ObsError(
            f"unknown event kind {kind!r}; known: {sorted(EVENT_KINDS)}")
    if not isinstance(event["comp"], str) or not event["comp"]:
        raise ObsError(f"event comp must be a non-empty string: {event!r}")
    for field in KIND_FIELDS[kind]:
        if field not in event:
            raise ObsError(
                f"{kind!r} event missing required field {field!r}: {event!r}")


def validate_events(events: Iterable[Dict[str, Any]]) -> int:
    """Validate a stream of events; returns the count checked."""
    count = 0
    for event in events:
        validate_event(event)
        count += 1
    return count
