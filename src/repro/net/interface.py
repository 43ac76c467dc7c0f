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

from heapq import heappush as _heappush
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

    __slots__ = ("sim", "queue", "link", "name", "_idle_cb")

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
        self._idle_cb: Optional[Callable[[], None]] = (
            None if sim._fastpath and queue.__class__ is DropTailQueue
            else self._on_link_idle)
        if _obs.enabled and self.name:
            _obs.label(queue, self.name)
            _obs.label(link, self.name)

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet for output; returns False if the queue dropped it."""
        # Inlined Queue.enqueue (never overridden — subclasses customize
        # _admit) followed by the pump: this is the hottest chain in the
        # simulator, one call per forwarded packet.  Runs with fault
        # injectors active — or on a fastpath=False simulator (the
        # honest unoptimized benchmark arm) — take the full checked
        # path through the canonical Queue.enqueue instead.
        queue = self.queue
        if queue._injectors or not self.sim._fastpath:
            accepted = queue.enqueue(packet)
            if accepted:
                link = self.link
                if not link.busy and link.is_up:
                    head = queue.dequeue()
                    if head is not None:
                        link.transmit(head, on_idle=self._idle_cb)
            return accepted
        size = packet.size
        link = self.link
        if (not link.busy and link.is_up and not queue._items
                and queue.__class__ is DropTailQueue
                and link.dst is not None
                and (queue.capacity_bytes is None
                     or size <= queue.capacity_bytes)):
            # Cut-through: empty drop-tail queue, idle link.  The packet
            # would be dequeued again within this same instant, so its
            # zero-length residency adds nothing to the occupancy
            # integral — only the flow counters need touching.  Gated on
            # the exact class because subclasses put policy in _admit
            # (RED state updates, scripted drops) that must see every
            # arrival.
            queue.arrivals += 1
            queue.bytes_in += size
            queue.departures += 1
            queue.bytes_out += size
            if queue.peak_packets == 0:
                queue.peak_packets = 1
            if size > queue.peak_bytes:
                queue.peak_bytes = size
            if _obs.enabled:
                # Zero residency: the packet goes straight to the wire.
                _obs.queue_event("enqueue", queue, packet, 0)
            # Inlined Link.transmit (idle, up, and wired — all just
            # checked).
            sim = link.sim
            now = sim._now
            link.busy = True
            link._busy_since = now
            link._on_idle = self._idle_cb
            if sim._burst:
                # Burst mode: virtual serialization stream instead of a
                # scheduled Event (see link._drain_burst).
                vseq = next(sim._seq_alloc)
                link._ser_time = time = now + size * 8.0 / link.rate
                link._ser_seq = vseq
                link._ser_packet = packet
                _heappush(sim._vheap, (time, vseq, link))
                sim._live += 1
                return True
            link._serializing = sim.schedule(
                size * 8.0 / link.rate, link._end_serialization, packet)
            return True
        queue.arrivals += 1
        queue.bytes_in += size
        if queue._admit(packet):
            items = queue._items
            now = queue.sim._now
            dt = now - queue._occ_time
            n = len(items)
            if dt > 0.0:
                queue._occ_area_pkts += n * dt
                queue._occ_area_bytes += queue._bytes * dt
                queue._occ_time = now
            items.append(packet)
            bytes_now = queue._bytes = queue._bytes + size
            n += 1
            if n > queue.peak_packets:
                queue.peak_packets = n
            if bytes_now > queue.peak_bytes:
                queue.peak_bytes = bytes_now
            if _obs.enabled:
                _obs.queue_event("enqueue", queue, packet, n)
            if not link.busy and link.is_up:
                head = queue.dequeue()
                if head is not None:
                    link.transmit(head, on_idle=self._idle_cb)
            return True
        queue._drop(packet)
        return False

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

    @property
    def backlog_packets(self) -> int:
        """Packets currently waiting (not counting the one on the wire)."""
        return len(self.queue)

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting (not counting the one on the wire)."""
        return self.queue.byte_occupancy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interface({self.name!r}, backlog={len(self.queue)}pkt)"
