"""Typed metrics: counters and the registry.

A :class:`MetricsRegistry` holds two kinds of state:

* **Explicit metrics** — :class:`Counter` objects created by name, for
  code that wants to record values directly (the fabric's audit
  counters).
* **Component readers** — ``(kind, label, object, reader)`` entries
  registered at object construction.  A reader is a plain function
  mapping the live object to a dict of numeric fields; nothing is
  accumulated per packet, so registration costs nothing on the hot path
  and a snapshot always reflects the component's own counters at the
  moment it is taken.

:meth:`MetricsRegistry.snapshot` renders both into one JSON-able dict.
Per-component fields appear under ``components`` namespaced as
``<kind>.<label>``; per-kind aggregates (the sum of each field across
components of that kind) appear under ``counters`` as
``<kind>.<field>`` — which is where the canonical names like
``queue.drops``, ``tcp.retransmits``, ``timer.lazy_deferrals`` and
``pool.reuse_ratio`` come from.

The registry keeps strong references to registered components; it is
scoped to one observability window (``obs.enable()`` installs a fresh
one) so a long-lived process does not accumulate dead simulations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ObsError

__all__ = ["Counter", "MetricsRegistry"]

Reader = Callable[[Any], Dict[str, Any]]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n


class MetricsRegistry:
    """Process-wide registry of metrics and component readers."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        # (kind, label, component, reader) in registration order.
        self._components: List[Tuple[str, str, Any, Reader]] = []
        self._label_counts: Dict[str, int] = {}
        self._labels: Dict[int, str] = {}
        self._held: List[Any] = []  # keep labeled objects alive (id stability)

    # ------------------------------------------------------------------
    # Explicit metrics (get-or-create by name)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    # ------------------------------------------------------------------
    # Component registration
    # ------------------------------------------------------------------
    def register(self, kind: str, obj: Any, reader: Reader,
                 label: Optional[str] = None) -> str:
        """Register a live component; returns its label.

        Called from component constructors while observability is
        enabled.  The default label is ``<kind><n>`` in registration
        order; :meth:`relabel` upgrades it once a better name is known
        (e.g. the owning interface's name).
        """
        if label is None:
            label = self._labels.get(id(obj))
        if label is None:
            n = self._label_counts.get(kind, 0) + 1
            self._label_counts[kind] = n
            label = f"{kind}{n}"
        self._labels[id(obj)] = label
        self._held.append(obj)
        self._components.append((kind, label, obj, reader))
        return label

    def next_ordinal(self, kind: str) -> int:
        """Reserve the next per-kind ordinal.

        Shares the counter behind the default ``<kind><n>`` labels, for
        callers that want a deterministic ordered label with a nicer
        prefix (e.g. TCP senders labeled ``flow<n>`` in registration
        order — a sender's own flow id is a process-global counter and
        would make labels differ between runs in one process).
        """
        n = self._label_counts.get(kind, 0) + 1
        self._label_counts[kind] = n
        return n

    def relabel(self, obj: Any, label: str) -> None:
        """Rename a component (no-op for objects never registered)."""
        key = id(obj)
        if key not in self._labels:
            return
        self._labels[key] = label
        self._components = [
            (kind, label if component is obj else old, component, reader)
            for kind, old, component, reader in self._components
        ]

    def label_of(self, obj: Any) -> str:
        """The component's label, assigning an anonymous one on demand."""
        label = self._labels.get(id(obj))
        if label is None:
            kind = type(obj).__name__.lower()
            n = self._label_counts.get(kind, 0) + 1
            self._label_counts[kind] = n
            label = f"{kind}{n}"
            self._labels[id(obj)] = label
            self._held.append(obj)
        return label

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Render everything into one JSON-able dict.

        ``counters`` holds explicit counters plus the per-kind
        aggregates summed across components; ``components`` holds each
        component's full field dict under ``<kind>.<label>``.
        """
        components: Dict[str, Dict[str, Any]] = {}
        aggregates: Dict[str, float] = {}
        for kind, label, obj, reader in self._components:
            fields = reader(obj)
            components[f"{kind}.{label}"] = fields
            for field, value in fields.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                name = f"{kind}.{field}"
                aggregates[name] = aggregates.get(name, 0) + value
        counters: Dict[str, Any] = dict(sorted(aggregates.items()))
        for name, counter in self._counters.items():
            counters[name] = counter.value
        return {
            "version": 1,
            "time": now,
            "counters": counters,
            "components": components,
        }
