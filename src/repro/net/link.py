"""Point-to-point links: rate, propagation delay, and busy-time accounting.

A :class:`Link` is unidirectional.  The owning
:class:`~repro.net.interface.Interface` hands it one packet at a time;
the link serializes it (``size * 8 / rate`` seconds), then propagates it
(``delay`` seconds), then delivers to the far node.  The interface is
called back at end-of-serialization so it can start the next packet —
this models an output port exactly: at most one packet on the wire's
transmitter at a time, back-to-back transmission when the queue is
non-empty.

Busy time is accumulated here, so link utilization is measured where it
physically occurs rather than inferred from packet counts.

Fault model
-----------
:meth:`Link.down` models a physical outage: the packet being serialized
and every packet propagating on the wire are lost (counted in
``packets_dropped``), and the transmitter refuses further work until
:meth:`Link.up`.  The interface that owns the link registers an
``on_up`` callback so dequeuing resumes as soon as the link recovers.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush, heapreplace as _heapreplace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError, QueueError, RoutingError
from repro.net.packet import MAX_HOPS, Packet
from repro.net.queues import DropTailQueue, Queue

if TYPE_CHECKING:
    from repro.net.node import Node
    from repro.sim.engine import Event, Simulator
from repro.obs import runtime as _obs
from repro.units import parse_bandwidth, parse_time, Quantity

__all__ = ["Link"]

# Sentinel sequence number larger than any the engine will ever
# allocate: used as the tie-break half of a "no real event before the
# horizon" drain bound.
_MAXSEQ = 1 << 62


class Link:
    """A unidirectional link with finite rate and fixed propagation delay.

    Parameters
    ----------
    sim:
        The simulator.
    rate:
        Capacity; float b/s or a string like ``"155Mbps"``.
    delay:
        One-way propagation delay; float seconds or a string like ``"10ms"``.
    dst:
        Node whose ``receive(packet)`` is invoked on delivery.
    name:
        Optional label used in reprs and error messages.
    """

    __slots__ = (
        "sim", "rate", "delay", "dst", "name", "busy", "is_up",
        "packets_delivered", "bytes_delivered", "packets_dropped",
        "bytes_dropped", "down_count", "busy_time", "down_time",
        "_busy_since", "_down_since", "_on_idle", "on_up",
        "_serializing", "_propagating", "_feed_queue",
        "_ser_time", "_ser_seq", "_ser_packet", "_head", "_tail",
    )

    def __init__(self, sim: "Simulator", rate: Quantity, delay: Quantity,
                 dst: Optional["Node"] = None, name: str = "") -> None:
        self.sim = sim
        self.rate = parse_bandwidth(rate)
        if self.rate <= 0:
            raise ConfigurationError("link rate must be positive")
        self.delay = parse_time(delay)
        self.dst = dst
        self.name = name
        self.busy = False
        self.is_up = True
        self.packets_delivered = 0
        self.bytes_delivered = 0
        #: Packets/bytes lost to link faults (down() while in flight, or
        #: transmit attempted on a downed link).
        self.packets_dropped = 0
        self.bytes_dropped = 0
        self.down_count = 0
        self.busy_time = 0.0
        self.down_time = 0.0
        self._busy_since: Optional[float] = None
        self._down_since: Optional[float] = None
        self._on_idle: Optional[Callable[[], None]] = None
        #: Set by the owning Interface: invoked when the link recovers.
        self.on_up: Optional[Callable[[], None]] = None
        # In-flight tracking so faults can kill the wire's contents: the
        # event serializing a packet (at most one) and the delivery event
        # of each propagating packet, keyed by packet uid.  The packet
        # itself rides in ``event.args[0]`` — no extra tuple per hop.
        # Only the per-event path (burst off) schedules these events, so
        # only it holds the dict.
        self._serializing: Optional["Event"] = None
        self._propagating: Optional[Dict[int, "Event"]] = (
            None if sim._burst else {})
        #: Set by the owning Interface: its output queue, so back-to-back
        #: serialization can continue without an idle round-trip.
        self._feed_queue: Optional[Queue] = None
        # Burst-mode virtual streams (sim._burst): instead of one Event
        # per serialization end and one per delivery, the link keeps the
        # packet being serialized in three slots and the wire contents in
        # a FIFO threaded through the packets themselves: _head and _tail
        # here, and on each packet its delivery time (_due), its seq
        # (_dseq) and its successor (_next).  Only the head of each
        # stream is mirrored into sim._vheap; seqs are drawn from the
        # engine's shared counter so ordering against real events is
        # bit-identical to the per-event scheduler.
        self._ser_time = 0.0
        self._ser_seq = -1
        self._ser_packet: Optional[Packet] = None
        self._head: Optional[Packet] = None
        self._tail: Optional[Packet] = None
        if _obs.enabled:
            _obs.register_link(self)

    @property
    def in_flight(self) -> int:
        """Packets currently on this link (serializing + propagating)."""
        serializing = self._serializing is not None or self._ser_packet is not None
        count = 1 if serializing else 0
        if self._propagating:
            count += len(self._propagating)
        packet = self._head
        while packet is not None:
            count += 1
            packet = packet._next
        return count

    def transmit(self, packet: Packet, on_idle: Optional[Callable[[], None]] = None) -> None:
        """Begin transmitting ``packet``.

        ``on_idle`` is invoked when serialization finishes (the
        transmitter is free again); delivery to ``dst`` happens one
        propagation delay later.  Calling transmit while busy is a
        programming error.  Transmitting on a downed link loses the
        packet silently (counted) — the transmitter is dead, so there is
        no completion callback until :meth:`up` restarts the interface.
        """
        if self.busy:
            raise ConfigurationError(f"link {self.name!r} is busy")
        if self.dst is None:
            raise ConfigurationError(f"link {self.name!r} has no destination node")
        if not self.is_up:
            self._count_fault_drop(packet)
            return
        self._start(packet, on_idle)

    def _start(self, packet: Packet, on_idle: Optional[Callable[[], None]]) -> None:
        """:meth:`transmit` past its checks (the cut-through makes them)."""
        sim = self.sim
        now = sim._now
        self.busy = True
        self._busy_since = now
        self._on_idle = on_idle
        if sim._burst:
            # Virtual serialization: no Event object, no backend push —
            # just slot the packet and mirror the stream head into the
            # burst heap.  The seq comes from the same counter a real
            # push would have consumed, so ordering is unchanged.
            vseq = next(sim._seq_alloc)
            self._ser_time = time = now + packet.size * 8.0 / self.rate
            self._ser_seq = vseq
            self._ser_packet = packet
            _heappush(sim._vheap, (time, vseq, self))
            sim._live += 1
            return
        self._serializing = sim.schedule(
            packet.size * 8.0 / self.rate, self._end_serialization, packet)

    def _end_serialization(self, packet: Packet) -> None:
        sim = self.sim
        now = sim._now
        propagating = self._propagating
        assert propagating is not None  # only the per-event path gets here
        propagating[packet.uid] = sim.schedule(self.delay, self._deliver, packet)
        # Back-to-back fast path: under saturation the queue almost
        # always has a successor, so the transmitter never goes idle —
        # busy state and busy_time carry over unchanged, and the idle
        # callback round-trip through the interface is skipped.  The
        # propagation event is scheduled before the next serialization,
        # matching the order the idle-callback path produced.  A downed
        # link cancels the serialization event, so this only runs while
        # the link is up.
        queue = self._feed_queue
        if queue is not None and queue._items:
            head = queue.dequeue()
            if head is not None:
                # busy_time still flushes per packet so probes sampling
                # mid-busy-period read the same value as the idle path.
                if self._busy_since is not None:
                    self.busy_time += now - self._busy_since
                self._busy_since = now
                self._serializing = sim.schedule(
                    head.size * 8.0 / self.rate, self._end_serialization, head)
                return
        self._serializing = None
        self.busy = False
        if self._busy_since is not None:
            self.busy_time += sim._now - self._busy_since
            self._busy_since = None
        on_idle = self._on_idle
        self._on_idle = None
        if on_idle is not None:
            on_idle()

    def _deliver(self, packet: Packet) -> None:
        propagating = self._propagating
        assert propagating is not None  # only the per-event path gets here
        propagating.pop(packet.uid, None)
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        packet.hops += 1
        dst = self.dst
        assert dst is not None  # transmit() rejects unwired links
        dst.receive(packet)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def down(self) -> None:
        """Take the link down, losing everything currently on it.

        Idempotent.  The serializing packet (if any) and all propagating
        packets are dropped and counted in :attr:`packets_dropped`; the
        owning interface stops dequeuing until :meth:`up`.
        """
        if not self.is_up:
            return
        self.is_up = False
        self.down_count += 1
        self._down_since = self.sim.now
        if _obs.enabled:
            _obs.link_event("link_down", self)
        if self._serializing is not None:
            event = self._serializing
            packet = event.args[0]
            event.cancel()
            self._serializing = None
            self.busy = False
            if self._busy_since is not None:
                self.busy_time += self.sim.now - self._busy_since
                self._busy_since = None
            self._on_idle = None
            self._count_fault_drop(packet)
        if self._ser_packet is not None:
            # Burst-mode twin of the block above.  There is no Event to
            # cancel: clearing the seq slot invalidates the stream-head
            # entry in sim._vheap, which the drain discards lazily.
            packet = self._ser_packet
            self._ser_packet = None
            self._ser_seq = -1
            self.sim._live -= 1
            self.busy = False
            if self._busy_since is not None:
                self.busy_time += self.sim.now - self._busy_since
                self._busy_since = None
            self._on_idle = None
            self._count_fault_drop(packet)
        propagating = self._propagating
        if propagating:
            for event in propagating.values():
                packet = event.args[0]
                event.cancel()
                self._count_fault_drop(packet)
            propagating.clear()
        packet = self._head
        if packet is not None:
            self._head = self._tail = None
            sim = self.sim
            while packet is not None:
                # Read the successor first: release() may hand the
                # packet back to the pool.
                nxt = packet._next
                sim._live -= 1
                self._count_fault_drop(packet)
                packet = nxt

    def up(self) -> None:
        """Bring the link back; the owning interface resumes dequeuing.

        Idempotent.  Invokes :attr:`on_up` (registered by the interface)
        so queued packets start flowing again immediately.
        """
        if self.is_up:
            return
        self.is_up = True
        if self._down_since is not None:
            self.down_time += self.sim.now - self._down_since
            self._down_since = None
        if _obs.enabled:
            _obs.link_event("link_up", self)
        if self.on_up is not None:
            self.on_up()

    def _count_fault_drop(self, packet: Packet) -> None:
        self.packets_dropped += 1
        self.bytes_dropped += packet.size
        if _obs.enabled:
            _obs.link_drop(self, packet)
        packet.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.is_up else "DOWN"
        return (f"Link({self.name!r}, rate={self.rate:.3g}b/s, "
                f"delay={self.delay:.4g}s, {state})")


# ----------------------------------------------------------------------
# Burst mode: virtual packet-event streams
# ----------------------------------------------------------------------
# With ``Simulator(burst=True)`` the per-packet serialization-end and
# delivery events never reach the scheduler backend.  Each link instead
# exposes two virtual streams — the serializing packet and the FIFO of
# propagating packets — and only the *head* of each stream lives in
# ``sim._vheap`` as a ``(time, seq, link)`` entry.  The propagating FIFO
# is a singly linked list through the packets (``Link._head`` ->
# ``Packet._next`` -> ... <- ``Link._tail``); each packet carries its own
# delivery key in ``_due``/``_dseq``, and the vheap tuple is built only
# when a packet becomes the head of its wire, so an idle link costs two
# ``None`` slots instead of an empty container.  Seq numbers are
# drawn from the backend's own counter at exactly the program points
# where the per-event code would have pushed, so merging virtual and
# real events by ``(time, seq)`` reproduces the per-event order bit for
# bit.  Stale entries (the stream advanced or a fault cleared it) are
# detected by seq mismatch and dropped lazily.
#
# :func:`_drain_burst` is the one implementation of a virtual step.  The
# scheduler run loops call it to process virtual events in a tight loop
# until the next *real* event's key (re-read every iteration, so a timer
# or cancellation landing mid-burst re-splits the burst).  Its oracle is
# behavioural, not structural: ``Simulator(burst=False)`` runs the
# per-event code (``Link._end_serialization``/``_deliver``) and must
# produce bit-identical results (tests/net/test_burst_identity.py).
# ``sim`` is deliberately ``Any``: the Optional slots the body reads
# (``_ser_packet``, ``dst``) are guaranteed by the stream protocol, not
# by narrowing mypy could follow.


def _drain_burst(sim: Any, peek: Optional[List[Any]], horizon: float,
                 limit: int, total: int, sched: Any = None) -> int:
    """Drain virtual events up to the next real event's key; returns total.

    ``peek`` is a list whose [0] is the backend's earliest raw entry
    (the scheduler's heap, or the calendar's active bucket) — re-read
    every iteration so pushes landing mid-burst (a timer re-key, a
    cancellation's compaction) re-split the burst at the right point.
    ``peek=None`` with ``sched`` set means the calendar backend is
    empty: drain until a virtual callback schedules something
    (``sched._size`` changes).  ``peek=None`` without ``sched`` never
    occurs; an *emptied* peek list with ``sched`` set means compaction
    cleared the active bucket mid-burst and the caller must advance the
    cursor.  Accounting is exact under mid-burst exceptions: steps are
    added to ``sim.burst_steps``/``sim.events_processed`` in a finally.
    """
    vh = sim._vheap
    steps = 0
    rem = limit - total if limit else -1
    watch = peek is None and sched is not None
    size0 = sched._size if watch else 0
    rebound = True
    try:
        while vh:
            if rebound:
                rebound = False
                if peek:
                    bound = peek[0]
                    bt = bound[0]
                    if bt > horizon:
                        bt = horizon
                        bs = _MAXSEQ
                    else:
                        bs = bound[1]
                elif sched is None or peek is None:
                    bt = horizon  # backend (or its relevant view) is empty
                    bs = _MAXSEQ
                else:
                    break  # calendar active bucket emptied by compaction
            entry = vh[0]
            t = entry[0]
            if t > bt:
                break
            s = entry[1]
            if t == bt and s > bs:
                break
            link = entry[2]
            if link._ser_seq == s:
                # --- serialization end (SER) ---
                packet = link._ser_packet
                sim._now = t
                seq = sim._seq_alloc
                dseq = next(seq)
                packet._due = due = t + link.delay
                packet._dseq = dseq
                packet._next = None
                tail = link._tail
                link._tail = packet
                if tail is None:
                    link._head = packet
                else:
                    tail._next = packet
                head = None
                queue = link._feed_queue
                if queue is not None and queue._items:
                    if queue.__class__ is DropTailQueue:
                        head = queue._items.popleft()
                        hsize = head.size
                        bytes_now = queue._bytes = queue._bytes - hsize
                        if bytes_now < 0:
                            raise QueueError("negative byte occupancy")
                        queue.departures += 1
                        queue.bytes_out += hsize
                    else:
                        head = queue.dequeue()
                if head is not None:
                    if link._busy_since is not None:
                        link.busy_time += t - link._busy_since
                    link._busy_since = t
                    sseq = next(seq)
                    link._ser_time = stime = t + head.size * 8.0 / link.rate
                    link._ser_seq = sseq
                    link._ser_packet = head
                    sim._live += 1
                    if tail is None:
                        # The packet is the wire's new head: its stream
                        # entry replaces the serialization entry.
                        _heapreplace(vh, (due, dseq, link))
                        _heappush(vh, (stime, sseq, link))
                    else:
                        _heapreplace(vh, (stime, sseq, link))
                else:
                    link._ser_packet = None
                    link._ser_seq = -1
                    link.busy = False
                    if link._busy_since is not None:
                        link.busy_time += t - link._busy_since
                        link._busy_since = None
                    if tail is None:
                        _heapreplace(vh, (due, dseq, link))
                    else:
                        _heappop(vh)
                    on_idle = link._on_idle
                    link._on_idle = None
                    if on_idle is not None:
                        on_idle()
            else:
                packet = link._head
                if packet is not None and packet._dseq == s:
                    # --- delivery (PROP) ---
                    nxt = link._head = packet._next
                    sim._now = t
                    sim._live -= 1
                    if nxt is not None:
                        _heapreplace(vh, (nxt._due, nxt._dseq, link))
                    else:
                        link._tail = None
                        _heappop(vh)
                    link.packets_delivered += 1
                    link.bytes_delivered += packet.size
                    hops = packet.hops = packet.hops + 1
                    dst = link.dst
                    try:
                        iface = dst._routes.get(packet.dst)
                    except AttributeError:
                        iface = None
                    if iface is not None:
                        if hops > MAX_HOPS:
                            raise RoutingError(f"routing loop detected for {packet!r}")
                        iface.enqueue(packet)
                    else:
                        dst.receive(packet)
                else:
                    # Stale entry: nothing ran and nothing was pushed, so
                    # the bound is still valid (rebound stays False).
                    _heappop(vh)
                    continue
            steps += 1
            if steps == rem:
                break
            rebound = True
            if watch and sched._size != size0:
                break
    finally:
        sim.burst_steps += steps
        sim.events_processed += steps
    return total + steps
