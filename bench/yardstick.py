"""A fixed pure-Python kernel that measures how fast the host is *now*.

The reference box is a 2-vCPU guest on a shared host.  Its speed drifts
by 20-40 % between regimes that last minutes (the same 128-flow repeat
reads 2.5 s or 3.8 s depending on when it starts; CPU time tracks wall
time and steal stays flat, so it is a neighbour on the cache, and it
slows every instruction stream in the guest — including this kernel).
Raw wall time therefore cannot hold any bound the benchmark contract
allows: ten back-to-back ``long_n128`` runs that straddled one regime
change spread by 25-29 % (interquartile distance over median) against a
largest permitted bound of 25 %, and two commits measured an hour apart
would differ by the regime, not by the code.

So every timed section of an end-to-end run is followed by one pass of
the kernel, and its wall time is multiplied by ``NOMINAL_S / (mean of
the kernel passes before and after it)``: seconds as a box on which the
kernel takes ``NOMINAL_S`` would have read them.  Bracketing each
section beats one factor per run (the speed also moves from second to
second), and on the same runs it cut ``long_n128``'s run-to-run spread
from 10-26 % to 4.5-5.4 %.  It buys immunity to regime changes, not
precision: a single pass is itself 7-12 % noisy, and a workload with a
much larger working set than the kernel's (``long_n1024``) is corrected
only in part.  Raw host seconds and every kernel time are kept in
``--detail`` and the ledger.

The kernel is the simulator's instruction mix in miniature — heap
push/pop of ``(time, seq, object)`` tuples, slotted-object allocation,
attribute stores, a method call, dict writes, float arithmetic — and
builds no reference cycles.  It lives under ``bench/`` and must not
change with the code under test.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Tuple

#: Kernel size; 0.18-0.25 s on the reference box.
STEPS = 150_000
#: Events kept pending: a ~1 MB working set, so the kernel adds nothing
#: visible to ``peak_rss_mb`` of the process it runs in.
PENDING = 4096
#: Scaled seconds are host seconds on a box where the kernel takes this
#: long.  A fixed constant: changing it rescales every committed number.
NOMINAL_S = 0.25


class _Node:
    __slots__ = ("key", "time", "peer", "count")

    def __init__(self, key: int, time: float) -> None:
        self.key = key
        self.time = time
        self.peer = None
        self.count = 0

    def touch(self, other: "_Node") -> float:
        self.peer = other
        self.count += 1
        return self.time + other.time * 0.5


def spin(steps: int = STEPS) -> float:
    """The kernel: deterministic, allocation-heavy, cycle-free."""
    heap: List[Tuple[float, int, _Node]] = []
    push, pop = heapq.heappush, heapq.heappop
    table = {}
    now = acc = 0.0
    for i in range(steps):
        node = _Node(i, now)
        push(heap, (now + ((i * 7919) % 1009) * 1e-3, i, node))
        if len(heap) > PENDING:
            now, _, done = pop(heap)
            acc += done.touch(node)
            table[i & 1023] = done
    return acc + len(heap)


def measure() -> float:
    """Wall time of one kernel pass."""
    started = time.perf_counter()
    spin()
    return time.perf_counter() - started


class Yardstick:
    """Kernel passes taken between the timed sections of one run."""

    def __init__(self) -> None:
        #: Every kernel time taken, in order (kept for ``--detail``).
        self.passes = [measure()]

    def factor(self) -> float:
        """Close the section that just ended: host seconds -> scaled.

        Takes one kernel pass; it also opens the next section.
        """
        self.passes.append(measure())
        return NOMINAL_S / ((self.passes[-2] + self.passes[-1]) / 2.0)
