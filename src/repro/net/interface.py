"""Output interface: the queue-plus-link pair that forms a router port.

An :class:`Interface` owns exactly one :class:`~repro.net.queues.Queue`
and one :class:`~repro.net.link.Link`.  Packets offered to the interface
go through the queue's admission decision (this is where router buffer
size bites); whenever the link transmitter is idle and the queue is
non-empty, the head packet is pulled and serialized.

This is the object experiments point their measurement at: the
bottleneck interface's queue statistics and link busy time are the
utilization/occupancy/drop data in every figure of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, Queue
from repro.obs import runtime as _obs

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = ["Interface"]


class Interface:
    """Binds a queue to a link and keeps the link fed.

    Parameters
    ----------
    sim:
        The simulator.
    queue:
        Admission/buffering discipline.
    link:
        Transmission medium toward the next node.
    name:
        Optional label for diagnostics.
    """

    __slots__ = ("sim", "queue", "link", "name", "_idle_cb", "_cut")

    def __init__(self, sim: "Simulator", queue: Queue, link: Link,
                 name: str = "") -> None:
        self.sim = sim
        self.queue = queue
        self.link = link
        self.name = name or link.name
        # Resume dequeuing when a downed link recovers; while it is
        # down, packets accumulate in (and overflow) the queue exactly
        # as they would in a real router whose port lost carrier.
        link.on_up = self._on_link_up
        # Let the link pull the next packet itself when serialization
        # ends with the queue non-empty (back-to-back fast path).  A
        # simulator built with fastpath=False (the honest unoptimized
        # benchmark arm) leaves this unwired, so serialization always
        # round-trips through the idle callback and the canonical
        # dequeue path.
        link._feed_queue = queue if sim._fastpath else None
        # Decided once: a self-feeding link over an exact DropTailQueue
        # (whose dequeue never declines) cannot go idle with packets
        # waiting, so its idle callback could only ever find the queue
        # empty — register none.  Everyone else (fastpath=False, RED,
        # any queue subclass) is pumped at end of serialization.
        # The same two facts are the static half of the cut-through guard.
        self._cut = sim._fastpath and queue.__class__ is DropTailQueue
        self._idle_cb: Optional[Callable[[], None]] = (
            None if self._cut else self._on_link_idle)
        if _obs.enabled and self.name:
            _obs.label(queue, self.name)
            _obs.label(link, self.name)

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet for output; returns False if the queue dropped it."""
        queue = self.queue
        link = self.link
        if (self._cut and not link.busy and link.is_up and not queue._items
                and not queue._injectors and link.dst is not None):
            # Cut-through: empty drop-tail queue, idle link.  The packet
            # would be dequeued again within this same instant, so only
            # the flow counters and the peak need touching.  Gated on
            # the exact class because subclasses put policy in _admit or
            # enqueue (RED state updates, scripted drops) that must see
            # every arrival, and on no injectors because those must too.
            size = packet.size
            queue.arrivals += 1
            queue.bytes_in += size
            queue.departures += 1
            queue.bytes_out += size
            if queue.peak_packets == 0:
                queue.peak_packets = 1
            if _obs.enabled:
                # The depth after admission, as Queue.enqueue reports it.
                _obs.queue_event("enqueue", queue, packet, 1)
            link._start(packet, None)  # transmit()'s checks, made above
            return True
        if not queue.enqueue(packet):
            return False
        if not link.busy:
            self._pump()
        return True

    def _pump(self) -> None:
        link = self.link
        if not link.is_up:
            return
        packet = self.queue.dequeue()
        if packet is not None:
            link.transmit(packet, on_idle=self._idle_cb)

    def _on_link_idle(self) -> None:
        # Registered only where the link may stop with packets waiting
        # (see _idle_cb): no _feed_queue, or a queue subclass whose
        # dequeue declined while items were present.
        if self.queue._items and self.link.is_up:
            self._pump()

    def _on_link_up(self) -> None:
        if self.queue._items and not self.link.busy:
            self._pump()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interface({self.name!r}, backlog={len(self.queue)}pkt)"
