"""Selective acknowledgement: a SACK-capable TCP sender (RFC 2018 /
simplified RFC 6675).

The base :class:`~repro.tcp.sender.TcpSender` infers exactly one loss
per recovery from duplicate ACKs; with several segments lost from one
window Reno stalls into timeouts.  A SACK sender keeps a *scoreboard*
of selectively-acknowledged segments, so during recovery it can

* retransmit precisely the holes (lowest unSACKed segments that have at
  least ``DupThresh`` SACKed segments above them — the RFC 6675 "lost"
  test), one per ACK as the pipe allows;
* estimate the data actually in flight as
  ``pipe = flight_size - sacked - lost_not_retransmitted`` and keep
  ``pipe < cwnd``, instead of Reno's blind window inflation.

The matching receiver is :class:`~repro.tcp.receiver.TcpReceiver` with
``sack=True``, which attaches up to three SACK blocks to each ACK.

This extension is used by the ablation suite to show the paper's
results are not an artifact of Reno's fragile multi-loss recovery.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.net.packet import Packet
from repro.tcp.sender import DUPACK_THRESHOLD, TcpSender

__all__ = ["TcpSackSender"]


class TcpSackSender(TcpSender):
    """A :class:`TcpSender` with a SACK scoreboard.

    Accepts the same constructor arguments.  The peer receiver must be
    created with ``sack=True`` or this sender degenerates to plain
    Reno/NewReno behaviour (no blocks ever arrive — a correct, if
    wasteful, fallback).
    """

    # SACK-based recovery persists until the pre-loss highest sequence
    # is cumulatively acknowledged (RFC 6675), regardless of the
    # congestion-control flavour plugged in.
    recovery_until_recover = True

    __slots__ = ("_sacked", "_retx_this_recovery", "sack_retransmits")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sacked: Set[int] = set()
        self._retx_this_recovery: Set[int] = set()
        self.sack_retransmits = 0

    # ------------------------------------------------------------------
    # Scoreboard
    # ------------------------------------------------------------------
    def _absorb_sack(self, packet: Packet) -> None:
        meta = packet.meta
        if not meta:
            return
        blocks: List[Tuple[int, int]] = meta.get("sack") or []
        for start, end in blocks:
            for seq in range(max(start, self.snd_una), min(end, self.snd_nxt)):
                self._sacked.add(seq)

    def _sacked_above(self, seq: int) -> int:
        """SACKed segments with a higher sequence number than ``seq``."""
        return sum(1 for s in self._sacked if s > seq)

    def _is_lost(self, seq: int) -> bool:
        """RFC 6675 IsLost: DupThresh SACKed segments lie above ``seq``."""
        return self._sacked_above(seq) >= DUPACK_THRESHOLD

    def _next_hole(self) -> Optional[int]:
        """Lowest lost, unSACKed, not-yet-retransmitted segment."""
        for seq in range(self.snd_una, self.snd_nxt):
            if seq in self._sacked or seq in self._retx_this_recovery:
                continue
            if self._is_lost(seq):
                return seq
            # Segments are examined in order; if this one is not lost,
            # higher ones have even fewer SACKs above them.
            return None
        return None

    @property
    def pipe(self) -> int:
        """Estimated packets actually in flight (scoreboard-aware)."""
        lost = sum(
            1 for seq in range(self.snd_una, self.snd_nxt)
            if seq not in self._sacked and self._is_lost(seq)
            and seq not in self._retx_this_recovery
        )
        return self.flight_size - len(self._sacked) - lost

    # ------------------------------------------------------------------
    # ACK processing overrides
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        if packet.is_ack and not self.completed:
            self._absorb_sack(packet)
        super().deliver(packet)

    def _handle_new_ack(self, ackno: int) -> None:
        for seq in range(self.snd_una, ackno):
            self._sacked.discard(seq)
            self._retx_this_recovery.discard(seq)
        super()._handle_new_ack(ackno)
        if self.in_recovery:
            # Use the partial ACK to clock out further hole repairs.
            self._sack_transmit()
        else:
            self._retx_this_recovery.clear()

    def _handle_dup_ack(self) -> None:
        if self.in_recovery:
            # SACK recovery: retransmit the next hole while the pipe has
            # room, then fill with new data.
            self._sack_transmit()
            return
        self.dup_acks += 1
        lost_head = self._is_lost(self.snd_una)
        if self.dup_acks < DUPACK_THRESHOLD and not lost_head:
            return
        self.fast_retransmits += 1
        self.in_recovery = True
        self.recover = self.snd_nxt
        self._retx_this_recovery.clear()
        self.cc.enter_recovery(self.pipe + len(self._sacked))
        self._retransmit_hole(self.snd_una)
        self._arm_rto()
        self._sack_transmit()

    def _sack_transmit(self) -> None:
        """Send retransmissions/new data while the pipe is below cwnd."""
        budget = int(self.cc.cwnd)
        while self.pipe < budget:
            hole = self._next_hole()
            if hole is not None:
                self._retransmit_hole(hole)
                continue
            if self.total_packets is not None and self.snd_nxt >= self.total_packets:
                break
            if self.snd_nxt - self.snd_una >= self.max_window:
                break
            self._emit(self.snd_nxt, retransmission=self.snd_nxt < self.high_water)
            self.snd_nxt += 1

    def _retransmit_hole(self, seq: int) -> None:
        self._retx_this_recovery.add(seq)
        self.sack_retransmits += 1
        self._emit(seq, retransmission=True)

    def _retransmit_head(self) -> None:
        # Route the base class's head retransmissions (partial ACKs)
        # through the scoreboard so _sack_transmit doesn't repeat them.
        self._retransmit_hole(self.snd_una)

    def _on_rto(self) -> None:
        # A timeout invalidates the scoreboard's usefulness for the
        # go-back-N restart; RFC 6675 keeps SACK info, but the base
        # sender's rollback logic re-learns it quickly and correctness
        # is easier to see with a clean slate.
        self._sacked.clear()
        self._retx_this_recovery.clear()
        super()._on_rto()
