"""Per-flow memory footprint of the TCP endpoints.

The network half of a flow is budgeted in ``tests/net/test_footprint.py``;
this is the other half: the sender, receiver, flow, RTO estimator and
congestion control built for every long-lived flow.  They are slotted,
because a sender has more attributes than CPython shares dict keys for
(30) and would otherwise carry its own 1.6 kB ``__dict__``; and they
build no state that a run never reads: no pace timer on an unpaced
sender, no flush timer without delayed ACKs, and no out-of-order set
while nothing is out of order.
"""

import random
import sys
import tracemalloc

import pytest

from repro.net import build_dumbbell
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.tcp import RenoCC, RtoEstimator, TcpFlow, TcpReceiver, TcpSender
from repro.traffic.flows import LongLivedWorkload

from tests.tcp.helpers import build_path

#: Traced bytes per long-lived flow at build; about 2.3 kB now, 4.36 kB
#: with a ``__dict__`` per endpoint and both timers on every flow.
MAX_BYTES_PER_FLOW = 3_200


def bytes_per_flow(n):
    sim = Simulator()
    net = build_dumbbell(sim, n_pairs=n, bottleneck_rate="400Mbps",
                         buffer_packets=128, rtts=["80ms"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload = LongLivedWorkload(net, rng=random.Random(1))
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(workload.flows) == n
    return (after - before) / n


class TestFootprint:
    def test_a_long_lived_flow_fits_its_budget(self):
        assert bytes_per_flow(256) <= MAX_BYTES_PER_FLOW

    def test_endpoints_hold_no_instance_dict(self):
        sim = Simulator()
        a, b, _ = build_path(sim)
        flow = TcpFlow(sim, a, b, size_packets=None)
        for obj in (flow, flow.sender, flow.receiver, flow.sender.rto,
                    flow.sender.cc):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert type(flow.sender) is TcpSender
        assert type(flow.receiver) is TcpReceiver
        assert type(flow.sender.rto) is RtoEstimator
        assert type(flow.sender.cc) is RenoCC

    @pytest.mark.parametrize("delayed_ack", [False, True])
    def test_out_of_order_set_is_empty_again_after_the_hole_fills(
            self, delayed_ack):
        sim = Simulator()
        a, b, _ = build_path(sim)
        receiver = TcpReceiver(sim, b, port=7, delayed_ack=delayed_ack)
        empty = sys.getsizeof(set())
        assert sys.getsizeof(receiver._out_of_order) == empty

        def data(seq):
            return Packet(src=a.address, dst=b.address, payload=960,
                          seq=seq, sport=5, dport=7)

        # A 200-segment hole behind segment 0 grows the set's table ...
        for seq in range(1, 201):
            receiver.deliver(data(seq))
        assert len(receiver._out_of_order) == 200
        assert sys.getsizeof(receiver._out_of_order) > empty
        # ... and the retransmission that fills it hands the table back.
        receiver.deliver(data(0))
        assert receiver.rcv_nxt == 201
        assert len(receiver._out_of_order) == 0
        assert sys.getsizeof(receiver._out_of_order) == empty
        # The next gap still buffers and drains.
        receiver.deliver(data(202))
        assert len(receiver._out_of_order) == 1
        receiver.deliver(data(201))
        assert receiver.rcv_nxt == 203
        assert sys.getsizeof(receiver._out_of_order) == empty
