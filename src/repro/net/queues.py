"""Output-queue disciplines: drop-tail FIFO and RED.

The router buffer under study *is* one of these queues.  Capacity is
expressed in packets, the paper's unit.  Both disciplines keep running
counters (arrivals, drops, departures, byte totals) and the peak length;
occupancy over time is sampled by
:class:`~repro.metrics.queues.QueueMonitor`.

The paper's evaluation uses a single FIFO drop-tail queue and asserts the
results also hold under RED; :class:`REDQueue` implements the gentle RED
variant of Floyd & Jacobson so the ablation benchmark can test that
assertion.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, cast

from repro.errors import ConfigurationError, InvariantViolation, QueueError
from repro.net.packet import Packet, PacketFlags
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # import cycle: engine only needed for annotations
    import random

    from repro.sim.engine import Simulator

__all__ = ["Queue", "DropTailQueue", "REDQueue"]

# Plain-int flag masks (packet.flags is a plain int; see repro.net.packet).
_ECT = int(PacketFlags.ECT)
_CE = int(PacketFlags.CE)

#: Fault injector: returns "drop", "corrupt", or None for each arrival.
Injector = Callable[[Packet], Optional[str]]

#: ``Queue._items`` until the queue admits its first packet: one shared
#: empty tuple instead of an empty deque per queue (most access-link
#: queues never hold a packet).  Every reader before that point only
#: tests truth, takes ``len`` or iterates, which a tuple supports.
_NO_ITEMS = cast("Deque[Packet]", ())

#: ``Queue._injectors`` until the first :meth:`Queue.add_injector`: the
#: same shared-empty-tuple trick, since only a fault run attaches one.
_NO_INJECTORS = cast("List[Injector]", ())


class Queue:
    """Abstract FIFO queue with capacity accounting and statistics.

    Subclasses implement :meth:`_admit`, deciding whether an arriving
    packet is accepted (and possibly which packet to drop).

    Parameters
    ----------
    sim:
        Simulator.
    capacity_packets:
        Maximum queue length in packets; required unless
        ``unbounded=True``.
    unbounded:
        Explicitly allow an infinite queue (used for "infinite buffer"
        baselines such as the AFCT reference in Figure 8).
    """

    # Slotted: queue attribute access dominates the per-packet hot path.
    # Subclasses that add state without declaring __slots__ (e.g. test
    # fixtures) transparently get a __dict__ for their extras.
    __slots__ = (
        "sim", "capacity_packets", "_items", "_bytes",
        "arrivals", "departures", "drops", "bytes_in", "bytes_out",
        "bytes_dropped", "peak_packets",
        "_injectors", "injected_drops", "injected_corruptions", "flushed",
    )

    def __init__(
        self,
        sim: "Simulator",
        capacity_packets: Optional[int] = None,
        unbounded: bool = False,
    ) -> None:
        if not unbounded and capacity_packets is None:
            raise ConfigurationError(
                "queue needs capacity_packets "
                "(or unbounded=True for an explicit infinite buffer)"
            )
        if capacity_packets is not None and capacity_packets < 1:
            raise ConfigurationError(f"capacity_packets must be >= 1, got {capacity_packets}")
        self.sim = sim
        self.capacity_packets = capacity_packets
        self._items = _NO_ITEMS
        self._bytes = 0
        # Counters.
        self.arrivals = 0
        self.departures = 0
        self.drops = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.bytes_dropped = 0
        self.peak_packets = 0
        # Fault injection (see repro.faults.injectors).
        self._injectors = _NO_INJECTORS
        self.injected_drops = 0
        self.injected_corruptions = 0
        self.flushed = 0
        if _obs.enabled:
            _obs.register_queue(self)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def byte_occupancy(self) -> int:
        """Bytes currently queued."""
        return self._bytes

    def enqueue(self, packet: Packet) -> bool:
        """Offer ``packet`` to the queue.

        Returns ``True`` if the packet was accepted, ``False`` if dropped.
        """
        size = packet.size
        self.arrivals += 1
        self.bytes_in += size
        if self._injectors:
            for injector in self._injectors:
                action = injector(packet)
                if action == "drop":
                    self.injected_drops += 1
                    self._drop(packet)
                    return False
                if action == "corrupt":
                    # The payload is damaged but the packet still occupies
                    # buffer and wire; the destination host's checksum
                    # discards it (see Host.receive).
                    self.injected_corruptions += 1
                    if packet.meta is None:
                        packet.meta = {}
                    packet.meta["corrupted"] = True
        if self._admit(packet):
            items = self._items
            if items is _NO_ITEMS:
                items = self._items = deque()
            items.append(packet)
            self._bytes += size
            n = len(items)
            if n > self.peak_packets:
                self.peak_packets = n
            if _obs.enabled:
                _obs.queue_event("enqueue", self, packet, n)
            return True
        self._drop(packet)
        return False

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or ``None`` if empty."""
        # The burst drain in repro.net.link inlines this body for exact
        # DropTailQueue instances (subclasses keep the polymorphic
        # call): the popleft, the byte-occupancy update with its
        # negative check, and the departures/bytes_out counters.  Keep
        # the two in sync — the burst on/off identity tests compare them.
        items = self._items
        if not items:
            return None
        packet = items.popleft()
        size = packet.size
        bytes_now = self._bytes = self._bytes - size
        if bytes_now < 0:
            raise QueueError("negative byte occupancy")
        self.departures += 1
        self.bytes_out += size
        return packet

    def add_injector(self, injector: Injector) -> None:
        """Attach a fault injector consulted on every arrival.

        The injector returns ``"drop"`` (lose the packet before
        admission; counted in both ``drops`` and ``injected_drops``),
        ``"corrupt"`` (admit but mark the payload damaged), or ``None``
        (leave the packet alone).
        """
        if self._injectors is _NO_INJECTORS:
            self._injectors = []
        self._injectors.append(injector)

    def remove_injector(self, injector: Injector) -> None:
        """Detach a fault injector (idempotent)."""
        if injector in self._injectors:
            self._injectors.remove(injector)

    def flush(self) -> int:
        """Drop every queued packet (a router restart losing its buffer).

        Returns the number of packets flushed; they are counted in
        ``drops`` (and ``flushed``) so conservation accounting holds.
        """
        n = len(self._items)
        if n == 0:
            return 0
        while self._items:
            packet = self._items.popleft()
            self._bytes -= packet.size
            self._drop(packet)
        if self._bytes != 0:
            raise QueueError(
                f"queue flush left {self._bytes} bytes of phantom occupancy")
        self.flushed += n
        return n

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` unless the books balance.

        Every packet that ever arrived must be accounted for: departed,
        dropped, or still queued — in packets and in bytes.  Byte
        occupancy must be non-negative.
        """
        if self._bytes < 0:
            raise QueueError(f"negative byte occupancy ({self._bytes})")
        resident = len(self._items)
        expected = self.departures + self.drops + resident
        if self.arrivals != expected:
            raise InvariantViolation(
                f"queue conservation broken: arrivals={self.arrivals} != "
                f"departures={self.departures} + drops={self.drops} "
                f"+ queued={resident}"
            )
        expected_bytes = self.bytes_out + self.bytes_dropped + self._bytes
        if self.bytes_in != expected_bytes:
            raise InvariantViolation(
                f"queue byte conservation broken: in={self.bytes_in} != "
                f"out={self.bytes_out} + dropped={self.bytes_dropped} "
                f"+ queued={self._bytes}"
            )

    # ------------------------------------------------------------------
    # Subclass contract & internals
    # ------------------------------------------------------------------
    def _admit(self, packet: Packet) -> bool:
        raise NotImplementedError

    def _fits(self) -> bool:
        """True if one more packet keeps the capacity limit."""
        cap = self.capacity_packets
        return cap is None or len(self._items) < cap

    def _drop(self, packet: Packet) -> None:
        self.drops += 1
        self.bytes_dropped += packet.size
        if _obs.enabled:
            _obs.queue_event("drop", self, packet, len(self._items))
        # A dropped packet is dead once counted and recorded.
        packet.release()


class DropTailQueue(Queue):
    """Plain FIFO: accept while there is room, drop the arriving packet
    otherwise.  This is the discipline the paper's theory and evaluation
    assume."""

    __slots__ = ()

    def _admit(self, packet: Packet) -> bool:
        # _fits, inlined: this is the admission test for every packet on
        # the bottleneck hot path.
        cap = self.capacity_packets
        return cap is None or len(self._items) < cap


class REDQueue(Queue):
    """Random Early Detection (gentle variant, Floyd & Jacobson 1993).

    Maintains an EWMA of the queue length and drops arriving packets with
    a probability that rises linearly from 0 at ``min_thresh`` to
    ``max_p`` at ``max_thresh``, then (always gentle) from ``max_p`` to 1
    at ``2 * max_thresh``.  Above that — or when the instantaneous queue
    is physically full — arrivals are force-dropped.

    Parameters
    ----------
    min_thresh, max_thresh:
        Average-queue thresholds in packets.  Defaults follow the common
        ns-2 guidance: ``min = capacity/4``, ``max = 3*capacity/4``.
    max_p:
        Drop probability at ``max_thresh`` (default 0.1).
    weight:
        EWMA weight ``w_q`` (default 0.002).
    rng:
        ``random.Random`` used for drop decisions; pass a seeded stream
        for reproducibility.
    mean_pkt_time:
        Estimated transmission time of one packet on the outgoing link,
        in seconds; used to decay the average over idle periods (ns-2
        passes the link bandwidth to RED for exactly this).  Default
        1 ms.
    ecn:
        Mark ECN-capable packets (``ECT`` flag set) with ``CE`` instead
        of early-dropping them (RFC 3168).  Forced drops — physical
        overflow — still drop, and non-ECT packets are dropped as in
        plain RED.
    """

    __slots__ = (
        "min_thresh", "max_thresh", "max_p", "weight", "rng",
        "mean_pkt_time", "ecn", "ecn_marks", "avg", "_count_since_drop",
        "_idle_since", "early_drops", "forced_drops",
    )

    def __init__(
        self,
        sim: "Simulator",
        capacity_packets: int,
        min_thresh: Optional[float] = None,
        max_thresh: Optional[float] = None,
        max_p: float = 0.1,
        weight: float = 0.002,
        rng: Optional["random.Random"] = None,
        mean_pkt_time: float = 1e-3,
        ecn: bool = False,
    ) -> None:
        super().__init__(sim, capacity_packets=capacity_packets)
        if rng is None:
            raise ConfigurationError("REDQueue requires an explicit rng stream")
        self.min_thresh = capacity_packets / 4.0 if min_thresh is None else float(min_thresh)
        self.max_thresh = 3.0 * capacity_packets / 4.0 if max_thresh is None else float(max_thresh)
        if not 0 < self.min_thresh < self.max_thresh:
            raise ConfigurationError(
                f"RED thresholds must satisfy 0 < min < max, got "
                f"min={self.min_thresh}, max={self.max_thresh}"
            )
        if not 0 < max_p <= 1:
            raise ConfigurationError(f"max_p must be in (0, 1], got {max_p}")
        if not 0 < weight <= 1:
            raise ConfigurationError(f"weight must be in (0, 1], got {weight}")
        if mean_pkt_time <= 0:
            raise ConfigurationError("mean_pkt_time must be positive")
        self.max_p = max_p
        self.weight = weight
        self.rng = rng
        self.mean_pkt_time = mean_pkt_time
        self.ecn = ecn
        self.ecn_marks = 0
        self.avg = 0.0
        self._count_since_drop = -1
        self._idle_since: Optional[float] = sim.now
        self.early_drops = 0
        self.forced_drops = 0

    def _admit(self, packet: Packet) -> bool:
        self._update_average()
        if not self._fits():
            self.forced_drops += 1
            self._count_since_drop = 0
            return False
        if self._should_early_drop():
            self._count_since_drop = 0
            if self.ecn and packet.flags & _ECT:
                # Congestion signal without loss: mark and admit.
                packet.flags |= _CE
                self.ecn_marks += 1
                if _obs.enabled:
                    _obs.queue_event("mark", self, packet, len(self._items))
                return True
            self.early_drops += 1
            return False
        self._count_since_drop += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        packet = super().dequeue()
        if packet is not None and not self._items:
            self._idle_since = self.sim.now
        return packet

    # ------------------------------------------------------------------
    # RED internals
    # ------------------------------------------------------------------
    def _update_average(self) -> None:
        q = len(self._items)
        if q == 0 and self._idle_since is not None:
            # Decay the average over the idle period as if the link had
            # kept serving empty slots: (1-w)^m with m idle packet times
            # (Floyd & Jacobson's idle-period correction).
            idle = self.sim.now - self._idle_since
            slots = int(idle / self.mean_pkt_time)
            if slots > 0:
                self.avg *= (1.0 - self.weight) ** min(slots, 100_000)
        self._idle_since = None if q > 0 else self._idle_since
        self.avg = (1.0 - self.weight) * self.avg + self.weight * q
        if q > 0:
            self._idle_since = None

    def _should_early_drop(self) -> bool:
        avg = self.avg
        if avg < self.min_thresh:
            return False
        if avg < self.max_thresh:
            frac = (avg - self.min_thresh) / (self.max_thresh - self.min_thresh)
            p_b = self.max_p * frac
        elif avg < 2.0 * self.max_thresh:
            frac = (avg - self.max_thresh) / self.max_thresh
            p_b = self.max_p + (1.0 - self.max_p) * frac
        else:
            return True
        if p_b <= 0:
            return False
        # Uniformize inter-drop spacing (Floyd & Jacobson, section 7).
        denom = 1.0 - self._count_since_drop * p_b
        p_a = p_b / denom if denom > 0 else 1.0
        return self.rng.random() < p_a
