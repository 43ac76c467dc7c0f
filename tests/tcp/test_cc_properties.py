"""Derandomized property suite over the whole congestion-control zoo.

A seeded (``derandomize=True``) hypothesis generator draws small lossy
transfer scenarios — algorithm, transfer size, bottleneck buffer, and a
burst of scripted drops — and asserts invariants every algorithm must
uphold regardless of its window dynamics:

* the congestion window never drops below one packet and ``ssthresh``
  never drops below the RFC 5681 floor;
* the receiver's reassembled byte stream is exactly the sent sequence,
  in order, each segment once (monotone sequence delivery);
* packet conservation at the bottleneck queue under loss bursts, and
  at the sender (``segments_sent = size + retransmits``);
* for ack-clocked algorithms, pacing changes *when* packets leave but
  never *what* the application receives: pacing-on and pacing-off
  deliver bit-identical byte streams.
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import Simulator
from repro.tcp import TcpFlow
from repro.tcp.congestion import MIN_SSTHRESH, make_cc

from tests.tcp.helpers import build_path

FAST = dict(max_examples=15, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow])

ZOO = ("compound", "scalable", "hstcp", "bbr")
ALL_CCS = ("tahoe", "reno", "newreno") + ZOO
#: Algorithms whose dynamics don't depend on pacing being on.
ACK_CLOCKED = tuple(name for name in ALL_CCS
                    if not make_cc(name).rate_based)

scenarios = st.fixed_dictionaries({
    "cc": st.sampled_from(ALL_CCS),
    "size": st.integers(20, 60),
    "buffer": st.integers(4, 32),
    # Loss bursts: adjacent seqs routinely drawn together, so multiple
    # losses per window (the NewReno/zoo recovery hazard) are common.
    "drops": st.sets(st.integers(0, 40), max_size=6),
})

paced_scenarios = st.fixed_dictionaries({
    "cc": st.sampled_from(ACK_CLOCKED),
    "size": st.integers(20, 50),
    "buffer": st.integers(6, 32),
    "drops": st.sets(st.integers(0, 30), max_size=4),
})


def run_scenario(cc, size, buffer, drops, pacing=False):
    """One transfer; returns (flow, queue, mins, delivered_stream)."""
    sim = Simulator()
    a, b, queue = build_path(sim, drop_seqs=drops, buffer_packets=buffer)
    flow = TcpFlow(sim, a, b, size_packets=size, cc=cc, pacing=pacing)
    mins = {"cwnd": math.inf, "ssthresh": math.inf}
    stream = []
    receiver = flow.receiver

    class StreamTap:
        """Bound to the receiver's port in its place."""

        def deliver(self, packet):
            receiver.deliver(packet)
            # Everything newly reassembled in order is what the
            # application reads: the delivered byte stream, timing-free.
            while len(stream) < receiver.rcv_nxt:
                stream.append(len(stream))

    b.unbind(receiver.port)
    b.bind(receiver.port, StreamTap())

    def probe():
        mins["cwnd"] = min(mins["cwnd"], flow.sender.cc.cwnd)
        mins["ssthresh"] = min(mins["ssthresh"], flow.sender.cc.ssthresh)
        if not flow.completed:
            sim.schedule(0.005, probe)

    sim.schedule(0.0, probe)
    sim.run(until=300.0)
    return flow, queue, mins, stream


class TestCcInvariants:
    @given(s=scenarios)
    @settings(**FAST)
    def test_window_floors_hold(self, s):
        flow, _, mins, _ = run_scenario(**s)
        assert flow.completed, s
        assert mins["cwnd"] >= 1.0
        assert mins["ssthresh"] >= MIN_SSTHRESH

    @given(s=scenarios)
    @settings(**FAST)
    def test_monotone_sequence_delivery(self, s):
        flow, _, _, stream = run_scenario(**s)
        assert flow.completed, s
        assert flow.receiver.rcv_nxt == s["size"]
        assert stream == list(range(s["size"]))

    @given(s=scenarios)
    @settings(**FAST)
    def test_packet_conservation_under_loss_bursts(self, s):
        flow, queue, _, _ = run_scenario(**s)
        assert flow.completed, s
        sender = flow.sender
        # Sender ledger: every segment sent was either the original copy
        # of one of `size` segments or a counted retransmission.
        assert sender.segments_sent == s["size"] + sender.retransmits
        # Queue ledger: arrivals all accounted for.
        assert queue.arrivals == (queue.departures + queue.drops
                                  + len(queue._items))
        assert queue.drops >= queue.scripted_drops


class TestPacingTransparency:
    @given(s=paced_scenarios)
    @settings(**FAST)
    def test_paced_and_unpaced_deliver_identical_streams(self, s):
        paced_flow, _, _, paced = run_scenario(**s, pacing=True)
        unpaced_flow, _, _, unpaced = run_scenario(**s, pacing=False)
        assert paced_flow.completed and unpaced_flow.completed, s
        assert paced == unpaced == list(range(s["size"]))
