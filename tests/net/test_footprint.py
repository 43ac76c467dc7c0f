"""Per-flow memory footprint of a built dumbbell.

The paper's result is about large n, so what one more flow costs at
set-up bounds the n a run can reach.  An idle link keeps its wire FIFO
in two ``None`` slots and a queue gets its ``deque`` only when it first
admits a packet; an empty container per link and per queue would cost
six kilobytes a pair.
"""

import tracemalloc
from collections import deque

from repro.net import DropTailQueue, build_dumbbell
from repro.net.packet import Packet
from repro.sim import Simulator

#: Traced bytes per sender/receiver pair at build; about 4.7 kB now,
#: 10.7 kB with an empty deque in every link and queue.
MAX_BYTES_PER_PAIR = 6_000


def bytes_per_pair(n):
    sim = Simulator()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net = build_dumbbell(sim, n_pairs=n, bottleneck_rate="400Mbps",
                             buffer_packets=128, rtts=["80ms"])
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(net.senders) == n
    return (after - before) / n


class TestFootprint:
    def test_a_dumbbell_pair_fits_its_budget(self):
        assert bytes_per_pair(256) <= MAX_BYTES_PER_PAIR

    def test_a_queue_that_admitted_nothing_holds_no_deque(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=4)
        assert not isinstance(queue._items, deque)
        assert len(queue) == 0 and queue.dequeue() is None
        assert queue.flush() == 0
        queue.check_invariants()

        assert queue.enqueue(Packet(src=1, dst=2, payload=100))
        assert isinstance(queue._items, deque)
        assert queue.dequeue().payload == 100
        # Kept once made: re-allocating per busy period is churn.
        assert isinstance(queue._items, deque)
