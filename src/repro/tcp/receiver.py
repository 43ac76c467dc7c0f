"""The TCP receiver (sink) agent.

Generates cumulative ACKs, buffers out-of-order segments, and — when
out-of-order data arrives — emits immediate duplicate ACKs so the sender
can fast-retransmit.  Delayed ACKs (one ACK per two in-order segments,
with a flush timer) are supported as an option; the paper's simulations
follow the ns-2 default of ACKing every segment, which is also the
default here.

The receiver records the arrival time of the last byte, which is the
endpoint of the paper's flow-completion-time metric ("the time from when
the first packet is sent until the last packet reaches the
destination").
"""

from __future__ import annotations

import math
from typing import Callable, FrozenSet, Optional, Set, Union

from repro.net.node import Host
from repro.net.packet import Packet, PacketFlags, TCP_HEADER_BYTES
from repro.sim.engine import Timer

__all__ = ["TcpReceiver"]

#: Flush timer, in seconds, for a pending delayed ACK.
DELACK_TIMEOUT = 0.1

# Plain-int flag masks: packet.flags is a plain int (see repro.net.packet),
# and int & int keeps these per-segment tests off the enum slow path.
_ACK = int(PacketFlags.ACK)
_CE = int(PacketFlags.CE)
_CWR = int(PacketFlags.CWR)
_ECE = int(PacketFlags.ECE)

#: ``TcpReceiver._out_of_order`` while nothing is buffered out of order:
#: one shared empty frozenset.  A set's table never shrinks, so a set
#: kept after its hole fills would hold the table its largest gap grew.
_NO_SEGMENTS: FrozenSet[int] = frozenset()


class TcpReceiver:
    """Receiver half of a TCP connection.

    Parameters
    ----------
    sim:
        The simulator.
    host:
        Local host; the receiver binds to ``port`` on it.
    port:
        Local port data segments arrive on.
    expected_packets:
        Total segments the flow will carry (``None`` if unknown/infinite);
        used only to timestamp completion for FCT measurement.
    delayed_ack:
        Enable RFC 1122 delayed ACKs (ACK every second in-order segment
        or after :data:`DELACK_TIMEOUT`).
    on_complete:
        Callback ``fn(receiver)`` when segment ``expected_packets - 1``
        has been received in order.
    sack:
        Attach selective-acknowledgement blocks (up to 3 ranges of
        buffered out-of-order data, most recent first) to every ACK via
        ``packet.meta["sack"]``; consumed by
        :class:`repro.tcp.sack.TcpSackSender`.
    """

    # Slotted like the sender: a receiver is built for every flow.
    __slots__ = (
        "sim", "host", "port", "expected_packets", "delayed_ack",
        "on_complete", "sack", "rcv_nxt", "_last_arrival_seq",
        "_out_of_order", "_ece_pending", "ce_marks_seen",
        "_unacked_segments", "_delack_timer", "_reply_to",
        "segments_received", "duplicate_segments", "acks_sent",
        "completed", "complete_time", "first_arrival",
    )

    def __init__(
        self,
        sim,
        host: Host,
        port: int,
        expected_packets: Optional[int] = None,
        delayed_ack: bool = False,
        on_complete: Optional[Callable[["TcpReceiver"], None]] = None,
        sack: bool = False,
    ):
        self.sim = sim
        self.host = host
        self.port = port
        self.expected_packets = expected_packets
        self.delayed_ack = delayed_ack
        self.on_complete = on_complete

        self.sack = sack
        self.rcv_nxt = 0  # next expected in-order segment
        self._last_arrival_seq = -1
        self._out_of_order: Union[Set[int], FrozenSet[int]] = _NO_SEGMENTS
        # RFC 3168 echo state: set by a CE-marked data packet, cleared
        # when the sender confirms its reduction with CWR.
        self._ece_pending = False
        self.ce_marks_seen = 0
        self._unacked_segments = 0  # in-order segments since last ACK
        # Only a delayed-ACK receiver ever arms the flush timer.
        self._delack_timer: Optional[Timer] = (
            Timer(sim, self._flush_ack) if delayed_ack else None)
        # Reply path for a deferred ACK: (src, flow_id, sport) of the
        # last in-order data segment.  Stored as scalars because the
        # packet object itself may be recycled by the pool the moment
        # delivery returns — the timer must never retain a packet.
        self._reply_to: Optional[tuple] = None

        self.segments_received = 0
        self.duplicate_segments = 0
        self.acks_sent = 0
        self.completed = False
        self.complete_time: float = math.nan
        self.first_arrival: float = math.nan

        host.bind(port, self)

    def close(self) -> None:
        """Tear down: cancel the delayed-ACK timer and release the port."""
        if self._delack_timer is not None:
            self._delack_timer.cancel()
        self.host.unbind(self.port)

    # ------------------------------------------------------------------
    # Segment processing
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Entry point for arriving data segments."""
        flags = packet.flags  # int tests: is_ack/is_data are properties
        if flags & _ACK or packet.payload <= 0:
            return
        self.segments_received += 1
        if math.isnan(self.first_arrival):
            self.first_arrival = self.sim.now
        seq = packet.seq
        self._last_arrival_seq = seq
        if flags & _CE:
            self._ece_pending = True
            self.ce_marks_seen += 1
        if flags & _CWR:
            self._ece_pending = False
        if seq < self.rcv_nxt or seq in self._out_of_order:
            # Duplicate (spurious retransmission): re-ACK immediately so
            # the sender's state converges.
            self.duplicate_segments += 1
            self._emit_ack(packet.src, packet.flow_id, packet.sport)
            return
        if seq == self.rcv_nxt:
            self.rcv_nxt += 1
            ooo = self._out_of_order
            if ooo:
                # Drain any contiguous buffered segments.
                while self.rcv_nxt in ooo:
                    ooo.discard(self.rcv_nxt)
                    self.rcv_nxt += 1
                if not ooo:
                    self._out_of_order = _NO_SEGMENTS
            self._maybe_complete()
            if self.delayed_ack:
                self._ack_in_order(packet)
            else:
                self._emit_ack(packet.src, packet.flow_id, packet.sport)
        else:
            # Out of order: buffer and duplicate-ACK immediately.
            ooo = self._out_of_order
            if ooo is _NO_SEGMENTS:
                ooo = self._out_of_order = set()
            ooo.add(seq)
            self._emit_ack(packet.src, packet.flow_id, packet.sport)

    def _ack_in_order(self, packet: Packet) -> None:
        """Delayed ACK (RFC 1122): every second segment, or on the timer."""
        self._unacked_segments += 1
        self._reply_to = (packet.src, packet.flow_id, packet.sport)
        if self._unacked_segments >= 2:
            self._flush_ack()
        elif not self._delack_timer.armed:
            self._delack_timer.arm(DELACK_TIMEOUT)

    def _flush_ack(self) -> None:
        self._delack_timer.cancel()
        self._unacked_segments = 0
        if self._reply_to is not None:
            self._emit_ack(*self._reply_to)

    def _emit_ack(self, dst: int, flow_id: int, dport: int) -> None:
        meta = None
        if self.sack:
            blocks = self._sack_blocks()
            if blocks:
                meta = {"sack": blocks}
        flags = _ACK
        if self._ece_pending:
            flags |= _ECE
        ack = Packet.acquire(self.host.address, dst, 0, TCP_HEADER_BYTES, 0,
                             self.rcv_nxt, flags, flow_id, self.port, dport,
                             meta)
        self.acks_sent += 1
        self.host.inject(ack)

    def _sack_blocks(self, max_blocks: int = 3):
        """Contiguous ranges of buffered out-of-order data.

        Returned as ``[(start, end_exclusive), ...]`` with the block
        containing the most recent arrival first (RFC 2018's ordering),
        capped at ``max_blocks``.
        """
        if not self._out_of_order:
            return []
        ordered = sorted(self._out_of_order)
        blocks = []
        start = prev = ordered[0]
        for seq in ordered[1:]:
            if seq == prev + 1:
                prev = seq
                continue
            blocks.append((start, prev + 1))
            start = prev = seq
        blocks.append((start, prev + 1))
        # Most-recent-first ordering.
        recent = self._last_arrival_seq
        blocks.sort(key=lambda blk: 0 if blk[0] <= recent < blk[1] else 1)
        return blocks[:max_blocks]

    def _maybe_complete(self) -> None:
        if (
            not self.completed
            and self.expected_packets is not None
            and self.rcv_nxt >= self.expected_packets
        ):
            self.completed = True
            self.complete_time = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpReceiver(port={self.port}, rcv_nxt={self.rcv_nxt}, "
            f"ooo={len(self._out_of_order)})"
        )
