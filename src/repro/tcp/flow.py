"""One TCP connection wired onto a topology.

:class:`TcpFlow` pairs a :class:`~repro.tcp.sender.TcpSender` on one host
with a :class:`~repro.tcp.receiver.TcpReceiver` on another, allocates
ports, schedules the start time, and captures a :class:`FlowRecord` on
completion.  Workload generators (:mod:`repro.traffic.flows`) create
these in bulk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.node import Host
from repro.tcp.congestion import CongestionControl, make_cc
from repro.tcp.receiver import TcpReceiver
from repro.tcp.rto import RtoEstimator
from repro.tcp.sender import TcpSender

__all__ = ["TcpFlow", "FlowRecord"]

_port_allocator = itertools.count(10_000)
_flow_id_allocator = itertools.count(1)


@dataclass
class FlowRecord:
    """Completion record for one finished flow.

    Attributes
    ----------
    flow_id:
        The flow's identifier.
    size_packets:
        Transfer length in segments (``None`` for unbounded flows, which
        never produce a record).
    start_time:
        When the sender transmitted its first segment.
    end_time:
        When the last segment arrived at the receiver (the paper's FCT
        endpoint).
    retransmits:
        Total retransmitted segments.
    timeouts:
        RTO events experienced.
    """

    flow_id: int
    size_packets: Optional[int]
    start_time: float
    end_time: float
    retransmits: int
    timeouts: int

    @property
    def completion_time(self) -> float:
        """Flow completion time (the paper's FCT metric)."""
        return self.end_time - self.start_time


class TcpFlow:
    """A sender/receiver pair forming one connection.

    Parameters
    ----------
    sim:
        The simulator.
    src, dst:
        Sender-side and receiver-side hosts.
    size_packets:
        Segments to transfer, or ``None`` for a long-lived flow.
    cc:
        Congestion-control name (``"reno"`` etc.) or a pre-built
        :class:`~repro.tcp.congestion.CongestionControl` instance.
    start_time:
        Absolute simulation time at which the sender starts.
    mss, max_window, delayed_ack, min_rto:
        Forwarded to the endpoint agents.
    on_complete:
        Callback ``fn(record)`` with the :class:`FlowRecord` when the
        receiver has all data.
    """

    __slots__ = (
        "sim", "flow_id", "size_packets", "on_complete", "_user_record",
        "receiver", "sender", "start_time", "_start_event",
    )

    def __init__(
        self,
        sim,
        src: Host,
        dst: Host,
        size_packets: Optional[int] = None,
        cc="reno",
        start_time: float = 0.0,
        mss: int = 960,
        max_window: int = 10_000,
        initial_cwnd: float = 2.0,
        delayed_ack: bool = False,
        min_rto: float = 0.2,
        pacing: bool = False,
        sack: bool = False,
        ecn: bool = False,
        on_complete: Optional[Callable[[FlowRecord], None]] = None,
    ):
        self.sim = sim
        self.flow_id = next(_flow_id_allocator)
        self.size_packets = size_packets
        self.on_complete = on_complete
        self._user_record: Optional[FlowRecord] = None

        sport = next(_port_allocator)
        dport = next(_port_allocator)
        if isinstance(cc, CongestionControl):
            cc_obj = cc
        else:
            cc_obj = make_cc(cc, initial_cwnd=initial_cwnd)

        self.receiver = TcpReceiver(
            sim,
            host=dst,
            port=dport,
            expected_packets=size_packets,
            delayed_ack=delayed_ack,
            sack=sack,
            on_complete=self._on_receiver_complete,
        )
        sender_cls = TcpSender
        if sack:
            from repro.tcp.sack import TcpSackSender
            sender_cls = TcpSackSender
        self.sender = sender_cls(
            sim,
            host=src,
            dst_address=dst.address,
            dport=dport,
            sport=sport,
            flow_id=self.flow_id,
            cc=cc_obj,
            mss=mss,
            max_window=max_window,
            total_packets=size_packets,
            rto=RtoEstimator(min_rto=min_rto),
            pacing=pacing,
            ecn=ecn,
        )
        self.start_time = start_time
        self._start_event = sim.call_at(start_time, self._start)

    def _start(self) -> None:
        self._start_event = None
        self.sender.start()

    def _on_receiver_complete(self, receiver: TcpReceiver) -> None:
        record = FlowRecord(
            flow_id=self.flow_id,
            size_packets=self.size_packets,
            start_time=self.sender.start_time,
            end_time=receiver.complete_time,
            retransmits=self.sender.retransmits,
            timeouts=self.sender.cc.timeouts,
        )
        self._user_record = record
        if self.on_complete is not None:
            self.on_complete(record)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cc(self) -> CongestionControl:
        """The sender's congestion-control state (cwnd, ssthresh, ...)."""
        return self.sender.cc

    @property
    def cwnd(self) -> float:
        """Current congestion window in packets."""
        return self.sender.cc.cwnd

    @property
    def completed(self) -> bool:
        """True once the receiver has every segment."""
        return self.receiver.completed

    @property
    def record(self) -> Optional[FlowRecord]:
        """The completion record, or ``None`` while in progress."""
        return self._user_record

    def teardown(self) -> None:
        """Release both endpoints' ports and timers (for flow churn)."""
        if self._start_event is not None:
            self._start_event.cancel()
            self._start_event = None
        self.sender.close()
        self.receiver.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = self.size_packets if self.size_packets is not None else "inf"
        return f"TcpFlow(#{self.flow_id}, size={size}, cwnd={self.cwnd:.1f})"
