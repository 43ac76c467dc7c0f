"""The TCP sender agent.

Implements the sender side of a packet-counted TCP connection: window
-limited transmission, cumulative-ACK processing, duplicate-ACK fast
retransmit, fast recovery (delegated to the pluggable congestion-control
object), retransmission timeouts with Karn-safe RTT sampling, and flow
-completion bookkeeping.

This is the ns-2 ``Agent/TCP`` equivalent.  One instance = one direction
of one connection; the receiving side is
:class:`repro.tcp.receiver.TcpReceiver`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

from repro.errors import ConfigurationError
from repro.net.node import Host
from repro.net.packet import Packet, PacketFlags, TCP_HEADER_BYTES
from repro.obs import runtime as _obs
from repro.sim.engine import Timer
from repro.tcp.congestion import CongestionControl, RenoCC
from repro.tcp.rto import RtoEstimator

__all__ = ["TcpSender"]

# Plain-int flag masks (packet.flags is a plain int; int & int stays off
# the enum slow path on the per-ACK hot loop).
_ACK = int(PacketFlags.ACK)
_ECE = int(PacketFlags.ECE)
_ECT = int(PacketFlags.ECT)
_CWR = int(PacketFlags.CWR)

#: Duplicate-ACK threshold for fast retransmit (RFC 5681).
DUPACK_THRESHOLD = 3


class TcpSender:
    """Sender half of a TCP connection.

    Parameters
    ----------
    sim:
        The simulator.
    host:
        Local :class:`~repro.net.node.Host`; the sender binds to
        ``sport`` on it to receive ACKs.
    dst_address, dport:
        Remote address and port of the matching receiver.
    sport:
        Local port.
    flow_id:
        Identifier stamped on every packet (per-flow accounting).
    cc:
        A :class:`~repro.tcp.congestion.CongestionControl` instance;
        defaults to a fresh Reno with initial window 2.
    mss:
        Payload bytes per segment (default 960, giving 1000-byte packets
        with the 40-byte header — the paper's round number).
    max_window:
        Receiver/advertised window in packets; caps the effective window.
        The short-flow analysis (Section 4) keys on this being 12–43 for
        contemporary stacks.
    total_packets:
        Number of segments to transfer, or ``None`` for an unbounded
        (long-lived) flow.
    rto:
        Optional pre-configured :class:`~repro.tcp.rto.RtoEstimator`.
    """

    # Slotted: a sender has more attributes than CPython shares dict
    # keys for (30), so without slots each one carries its own 1.6 kB
    # ``__dict__`` and every per-ACK attribute access is a dict lookup.
    # A subclass that declares no slots of its own (a test fixture)
    # gets a ``__dict__`` for its extras.
    __slots__ = (
        "sim", "host", "dst_address", "dport", "sport", "flow_id", "cc",
        "mss", "max_window", "total_packets", "rto", "pacing",
        "_pace_timer", "pacing_releases", "ecn", "_ecn_recover",
        "_cwr_pending", "ecn_reductions", "snd_una", "snd_nxt",
        "high_water", "dup_acks", "in_recovery", "recover",
        "_send_times", "_timed_base", "_rto_timer", "started", "completed",
        "start_time", "complete_time", "segments_sent", "retransmits",
        "fast_retransmits",
    )

    #: Whether fast recovery lasts until ``recover`` is acked whatever
    #: the algorithm's own ``recovery_until_recover`` says (set by the
    #: SACK sender, whose RFC 6675 recovery always does).
    recovery_until_recover = False

    def __init__(
        self,
        sim,
        host: Host,
        dst_address: int,
        dport: int,
        sport: int,
        flow_id: int = 0,
        cc: Optional[CongestionControl] = None,
        mss: int = 960,
        max_window: int = 10_000,
        total_packets: Optional[int] = None,
        rto: Optional[RtoEstimator] = None,
        pacing: bool = False,
        ecn: bool = False,
    ):
        if mss <= 0:
            raise ConfigurationError("mss must be positive")
        if max_window < 1:
            raise ConfigurationError("max_window must be >= 1")
        if total_packets is not None and total_packets < 1:
            raise ConfigurationError("total_packets must be >= 1 (or None)")
        self.sim = sim
        self.host = host
        self.dst_address = dst_address
        self.dport = dport
        self.sport = sport
        self.flow_id = flow_id
        self.cc = cc if cc is not None else RenoCC()
        self.mss = mss
        self.max_window = max_window
        self.total_packets = total_packets
        self.rto = rto if rto is not None else RtoEstimator()
        # Rate-based algorithms are meaningless ack-clocked: they force
        # the paced-departure path on.
        self.pacing = bool(pacing) or self.cc.wants_pacing
        # Paced departures run on the Timer facility (same lazy-deferral
        # machinery as the RTO timer), not raw schedule/cancel events;
        # an unpaced sender never arms one, so it holds none.
        self._pace_timer: Optional[Timer] = (
            Timer(sim, self._pace_fire) if self.pacing else None)
        self.pacing_releases = 0
        # RFC 3168 sender state: ECT is stamped on data when enabled;
        # one window reduction per RTT of ECE feedback, confirmed to the
        # receiver via CWR on the next new segment.
        self.ecn = ecn
        self._ecn_recover = 0  # reductions quiesce until this seq is acked
        self._cwr_pending = False
        self.ecn_reductions = 0

        # Sequence state (in segments).
        self.snd_una = 0  # oldest unacknowledged
        self.snd_nxt = 0  # next segment to send
        self.high_water = 0  # one past the highest segment ever sent
        self.dup_acks = 0
        self.in_recovery = False
        self.recover = 0  # highest seq outstanding when recovery began

        # Timing state.  The RTO is a Timer so per-ACK restarts are an
        # in-place deadline update instead of cancel-plus-push churn.
        # Send times of the timed run [_timed_base, high_water), oldest
        # first: see _emit and _sample_rtt.
        self._send_times: Deque[float] = deque()
        self._timed_base = 0
        self._rto_timer = Timer(sim, self._on_rto)
        self.started = False
        self.completed = False
        self.start_time: float = math.nan
        self.complete_time: float = math.nan

        # Statistics.
        self.segments_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0

        # Bind last: delay/rate-based algorithms read sender state
        # (sim clock, snd_una, flight size) through this reference.
        self.cc.bind(self)

        host.bind(sport, self)
        if _obs.enabled:
            _obs.register_sender(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (sends the initial window immediately)."""
        if self.started:
            raise ConfigurationError("sender already started")
        self.started = True
        self.start_time = self.sim.now
        self._try_send()

    def close(self) -> None:
        """Tear the agent down: cancel timers and release the port."""
        self._rto_timer.cancel()
        if self._pace_timer is not None:
            self._pace_timer.cancel()
        self.host.unbind(self.sport)

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def flight_size(self) -> int:
        """Packets sent but not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    @property
    def effective_window(self) -> int:
        """min(cwnd, advertised window), floored to whole packets."""
        return min(int(self.cc.cwnd), self.max_window)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        """Send as many new segments as the window (and pacing) permit."""
        if self.completed:
            return
        if self.pacing and self._pacing_interval() > 0.0:
            self._pace_pump()
        else:
            limit = self.total_packets
            window = self.effective_window
            # Local sequence cursors: the property reads (flight_size)
            # and attribute round-trips are measurable in this loop.
            snd_nxt = self.snd_nxt
            snd_una = self.snd_una
            high_water = self.high_water
            while snd_nxt - snd_una < window:
                if limit is not None and snd_nxt >= limit:
                    break
                # After a timeout, snd_nxt is rolled back (go-back-N), so
                # segments below high_water are retransmissions.
                self.snd_nxt = snd_nxt + 1
                self._emit(snd_nxt, retransmission=snd_nxt < high_water)
                snd_nxt += 1
        if self.snd_nxt > self.snd_una and not self._rto_timer.armed:
            self._arm_rto()

    # ------------------------------------------------------------------
    # Pacing
    # ------------------------------------------------------------------
    def _pacing_interval(self) -> float:
        """Seconds between paced transmissions.

        Ack-clocked algorithms spread one window over one smoothed RTT
        (``srtt / cwnd``); rate-based algorithms supply their own
        interval from their bandwidth model
        (:meth:`~repro.tcp.congestion.CongestionControl.pacing_interval`).
        Zero before the first estimate, which makes the first window go
        out back-to-back (nothing to pace against — the same
        bootstrapping behaviour real paced stacks exhibit).
        """
        if self.cc.rate_based:
            return self.cc.pacing_interval()
        if self.rto.samples == 0:
            return 0.0
        return self.rto.srtt / max(self.cc.cwnd, 1.0)

    def _window_allows_send(self) -> bool:
        if self.flight_size >= self.effective_window:
            return False
        if self.total_packets is not None and self.snd_nxt >= self.total_packets:
            return False
        return True

    def _pace_pump(self) -> None:
        """Send at most one segment now; arm the pace timer for the next."""
        if self._pace_timer.armed:
            return  # the running pace timer owns transmission
        if not self._window_allows_send():
            return
        self._emit(self.snd_nxt, retransmission=self.snd_nxt < self.high_water)
        self.snd_nxt += 1
        self.pacing_releases += 1
        self._pace_timer.arm(self._pacing_interval())

    def _pace_fire(self) -> None:
        if self.completed:
            return
        if self._window_allows_send():
            self._pace_pump()

    def _emit(self, seq: int, retransmission: bool) -> None:
        flags = 0
        if self.ecn:
            flags |= _ECT
            if self._cwr_pending:
                flags |= _CWR
                self._cwr_pending = False
        packet = Packet.acquire(self.host.address, self.dst_address, self.mss,
                                TCP_HEADER_BYTES, seq, 0, flags, self.flow_id,
                                self.sport, self.dport)
        self.segments_sent += 1
        if seq + 1 > self.high_water:
            self.high_water = seq + 1
        if retransmission:
            self.retransmits += 1
            # Karn: never time a retransmit — and cancel *every* timing
            # in progress.  Each outstanding segment's cumulative ACK
            # can now only arrive after this loss is repaired, so its
            # send-to-ACK interval measures the recovery stall, not the
            # path RTT; feeding those into srtt compounds into an RTO
            # spiral under repeated single losses.  (BSD cancels the
            # in-flight timing, t_rtttime = 0, at every retransmission
            # for the same reason.)
            self._send_times.clear()
            self._timed_base = self.high_water
        else:
            self._send_times.append(self.sim._now)
        self.host.inject(packet)

    def _retransmit_head(self) -> None:
        """Retransmit the oldest unacknowledged segment."""
        self._emit(self.snd_una, retransmission=True)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Entry point for packets arriving on the bound port (ACKs)."""
        # Inline flag test and flight check (is_ack / flight_size are
        # properties, and this runs once per ACK on the clocking path).
        if not packet.flags & _ACK or self.completed:
            return
        if self.ecn and packet.flags & _ECE:
            self._on_ecn_echo()
        ackno = packet.ack
        snd_una = self.snd_una
        if ackno > snd_una:
            self._handle_new_ack(ackno)
        elif ackno == snd_una and self.snd_nxt > snd_una:
            self._handle_dup_ack()

    def _on_ecn_echo(self) -> None:
        """ECE on an ACK: multiplicative decrease without a loss.

        At most one reduction per window of data (RFC 3168 section
        6.1.2): further ECEs are ignored until everything outstanding at
        reduction time has been acknowledged.
        """
        if self.snd_una < self._ecn_recover or self.in_recovery:
            return
        self.cc.ssthresh = max(self.flight_size / 2.0, 2.0)
        self.cc.cwnd = self.cc.ssthresh
        self._ecn_recover = self.snd_nxt
        self._cwr_pending = True
        self.ecn_reductions += 1
        if _obs.enabled:
            _obs.cwnd_event(self, self.cc.cwnd, "ecn")

    def _handle_new_ack(self, ackno: int) -> None:
        newly_acked = ackno - self.snd_una
        cwnd_before = self.cc.cwnd if _obs.enabled else -1.0
        self._sample_rtt(ackno)
        self.rto.on_progress()
        self.snd_una = ackno
        if self.snd_nxt < self.snd_una:
            # A cumulative ACK jumped past the go-back-N resend point
            # (the receiver had those segments buffered all along).
            self.snd_nxt = self.snd_una

        if self.in_recovery:
            if ((self.recovery_until_recover or self.cc.recovery_until_recover)
                    and ackno < self.recover):
                # NewReno partial ACK: the next hole is lost too.
                self.cc.on_partial_ack(newly_acked)
                self._retransmit_head()
                self.dup_acks = 0
                self._arm_rto()
            else:
                self.in_recovery = False
                self.dup_acks = 0
                self.cc.exit_recovery()
        else:
            self.dup_acks = 0
            self.cc.on_ack(newly_acked)

        if cwnd_before >= 0.0 and int(self.cc.cwnd) != int(cwnd_before):
            # Only whole-packet changes are recorded: per-ACK fractional
            # congestion-avoidance growth would flood the ring buffer.
            _obs.cwnd_event(self, self.cc.cwnd, "new_ack")

        if self.snd_nxt == self.snd_una:  # flight_size == 0, inlined
            self._rto_timer.cancel()
        else:
            self._arm_rto()

        if self.total_packets is not None and self.snd_una >= self.total_packets:
            self._complete()
            return
        self._try_send()

    def _handle_dup_ack(self) -> None:
        if self.in_recovery:
            self.cc.on_dup_ack_in_recovery()
            self._try_send()
            return
        self.dup_acks += 1
        if self.dup_acks < DUPACK_THRESHOLD:
            return
        # Third duplicate ACK: loss detected.
        self.fast_retransmits += 1
        if _obs.enabled:
            _obs.fast_retx_event(self)
        if self.cc.has_fast_recovery:
            self.in_recovery = True
            self.recover = self.snd_nxt
            self.cc.enter_recovery(self.flight_size)
            if _obs.enabled:
                _obs.cwnd_event(self, self.cc.cwnd, "fast_recovery")
            self._retransmit_head()
            self._arm_rto()
            self._try_send()
        else:
            # Tahoe: collapse to slow start and go back to the hole.
            self.cc.on_tahoe_loss(self.flight_size)
            if _obs.enabled:
                _obs.cwnd_event(self, self.cc.cwnd, "tahoe_loss")
            self.dup_acks = 0
            self.snd_nxt = self.snd_una
            self._try_send()
            self._arm_rto()

    # ------------------------------------------------------------------
    # RTT sampling (Karn's algorithm)
    # ------------------------------------------------------------------
    def _sample_rtt(self, ackno: int) -> None:
        """Sample RTT from the newest acked, never-retransmitted segment:
        ``ackno - 1`` if the ACK reaches into the timed run, whose only
        segments are new ones (Karn)."""
        acked = ackno - self._timed_base
        if acked <= 0:
            return  # nothing timed below ackno
        self._timed_base = ackno
        times = self._send_times
        if acked < len(times):
            while acked > 1:
                times.popleft()
                acked -= 1
            sent_at = times.popleft()
        elif times:
            # The ACK covers the whole run (or more: hand-built ACKs).
            sent_at = times[-1]
            times.clear()
        else:
            return
        rtt = self.sim._now - sent_at
        if rtt > 0:
            self.rto.sample(rtt)
            self.cc.on_rtt_sample(rtt, self.sim._now)

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        # Timer.arm defers in place when the new deadline is later than
        # the pending one — the common case for per-ACK RTO restarts —
        # so this is O(1) with no heap garbage on an optimized engine.
        self._rto_timer.arm(self.rto.rto)

    def _on_rto(self) -> None:
        if self.completed or self.flight_size == 0:
            return
        self.in_recovery = False
        self.dup_acks = 0
        self.cc.on_timeout(self.flight_size)
        self.rto.on_timeout()
        if _obs.enabled:
            _obs.rto_event(self)
            _obs.cwnd_event(self, self.cc.cwnd, "timeout")
        # Go-back-N: treat everything outstanding as lost and resume from
        # the hole.  Cumulative ACKs jump over segments the receiver
        # already buffered, so little is actually resent twice.
        self.snd_nxt = self.snd_una
        self._try_send()
        self._arm_rto()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete(self) -> None:
        self.completed = True
        self.complete_time = self.sim.now
        self._rto_timer.cancel()

    @property
    def duration(self) -> float:
        """Sender-side flow duration (NaN until complete)."""
        return self.complete_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpSender(flow={self.flow_id}, una={self.snd_una}, "
            f"nxt={self.snd_nxt}, cwnd={self.cc.cwnd:.2f}, "
            f"{'rec' if self.in_recovery else 'open'})"
        )
