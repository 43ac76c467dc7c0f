"""The flight recorder: a bounded ring buffer of structured events.

The recorder is deliberately dumb — it appends dicts to a
``collections.deque`` with a maximum length, so memory is bounded no
matter how long a simulation runs and recording an event is a couple of
attribute loads plus an append.  Selectivity comes from two layers:

* ``kinds`` — a frozenset of event kinds to keep (None keeps all).
  Checked first because it is by far the cheapest filter and the
  per-packet ``enqueue`` kind dominates raw event volume.
* ``filters`` — arbitrary pluggable predicates ``event -> bool``; an
  event is kept only if every filter accepts it.

Dumping renders the retained events to JSONL, one event per line, in
capture order.  The recorder tracks how many events it has seen in
total so a dump can report truncation honestly.
"""

from __future__ import annotations

import io
import json
import os
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

from repro.errors import ObsError

__all__ = ["FlightRecorder", "read_jsonl"]

EventFilter = Callable[[Dict[str, Any]], bool]

#: Default ring capacity — generous for the small traced scenarios the
#: CLI runs, bounded enough that an unattended sweep cannot blow memory.
DEFAULT_CAPACITY = 65536


class FlightRecorder:
    """Bounded ring buffer of structured simulation events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 kinds: Optional[Iterable[str]] = None,
                 filters: Optional[Iterable[EventFilter]] = None):
        if capacity <= 0:
            raise ObsError(f"recorder capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.filters: List[EventFilter] = list(filters) if filters else []
        self._events: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self.recorded = 0  # events accepted (including ones since evicted)

    def record(self, event: Dict[str, Any]) -> None:
        """Append ``event`` if it passes the kind set and every filter."""
        if self.kinds is not None and event["kind"] not in self.kinds:
            return
        for predicate in self.filters:
            if not predicate(event):
                return
        self._events.append(event)
        self.recorded += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def truncated(self) -> bool:
        """True if older events were evicted to respect the capacity."""
        return self.recorded > len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first (a copy)."""
        return list(self._events)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            kind = event["kind"]
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def dump_jsonl(self, path: str) -> int:
        """Write retained events to ``path`` as JSONL; returns the count.

        The write is atomic-enough for a crash handler: events are
        rendered to a buffer first so a serialization error cannot leave
        a half-written file behind.
        """
        buffer = io.StringIO()
        for event in self._events:
            buffer.write(json.dumps(event, sort_keys=True))
            buffer.write("\n")
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
        return len(self._events)


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace dump back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise ObsError(
                    f"{path}:{lineno}: not valid JSON: {exc}") from exc
            if not isinstance(event, dict):
                raise ObsError(
                    f"{path}:{lineno}: not a JSON object: {line[:40]}")
            events.append(event)
    return events
