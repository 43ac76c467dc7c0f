"""Cross-backend scheduler equivalence: heap vs calendar, bit for bit.

The pluggable scheduler backends share one contract: identical pop
order for identical push order, including FIFO tie-break within a
timestamp, and identical surfacing of lazily-deferred timer entries.  A
seeded (``derandomize=True``, so deterministic across runs) hypothesis
suite drives both backends with the same op scripts — zero-delay FIFO
ties, cancel-while-pending, lazy re-arm past bucket boundaries,
overflow-ladder spills, run horizons landing between and on events —
and asserts the observable histories match.

The calendar wheel under test is deliberately tiny (8 buckets of 50 ms)
so scripts routinely cross bucket boundaries, wrap the wheel, spill to
the overflow ladder, and force cursor rebases across idle gaps.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import Simulator, Timer

FAST = dict(max_examples=60, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow])

#: Delays crossing every interesting boundary of the tiny test wheel:
#: zero (FIFO ties), sub-bucket, exactly one bucket, mid-window, just
#: inside the window (8 * 0.05 = 0.4), and far past it (ladder spills).
DELAYS = (0.0, 0.013, 0.05, 0.1, 0.27, 0.39, 2.0, 37.5)

#: Where a "split" op ends one ``run(until=...)`` call, past its own
#: tick: on the tick itself (its own event sits exactly on the
#: horizon), mid-bucket, one bucket later, and about one tick later.
SPLITS = (0.0, 0.013, 0.05, 0.07)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from(DELAYS)),
        st.tuples(st.just("zero"), st.integers(1, 4)),
        st.tuples(st.just("arm"), st.integers(0, 2), st.sampled_from(DELAYS)),
        st.tuples(st.just("cancel"), st.integers(0, 2)),
        st.tuples(st.just("split"), st.sampled_from(SPLITS)),
    ),
    min_size=1, max_size=40,
)


def execute(ops, scheduler, split=True, **engine_opts):
    """Run one op script; return its full observable history.

    Each op executes inside its own driver event (one tick per op, at
    deliberately bucket-misaligned times), so arms and cancels happen
    at simulated time exactly as real workloads issue them.  Each
    "split" op ends one ``run(until=...)`` call at its horizon; the
    clock, event count and pending count there join the history.
    ``split=False`` runs the same script in one ``run()`` call.
    """
    if scheduler == "calendar":
        engine_opts.setdefault("bucket_width", 0.05)
        engine_opts.setdefault("wheel_buckets", 8)
    sim = Simulator(scheduler=scheduler, **engine_opts)
    log = []
    tags = itertools.count()

    def fire(tag):
        log.append(("ev", tag, round(sim.now, 9)))

    timers = [
        Timer(sim, lambda i=i: log.append(("timer", i, round(sim.now, 9))))
        for i in range(3)
    ]

    def apply(op):
        kind = op[0]
        if kind == "schedule":
            sim.schedule(op[1], fire, next(tags))
        elif kind == "zero":
            for _ in range(op[1]):
                sim.schedule(0.0, fire, next(tags))
        elif kind == "arm":
            timers[op[1]].arm(op[2])
        elif kind == "cancel":
            timers[op[1]].cancel()

    for index, op in enumerate(ops):
        sim.call_at(index * 0.07, apply, op)
    horizons = sorted(index * 0.07 + op[1]
                      for index, op in enumerate(ops) if op[0] == "split")
    for until in horizons if split else ():
        sim.run(until=until)
        log.append(("split", round(sim.now, 9), sim.events_processed,
                    sim.pending()))
    sim.run()
    return log, sim.events_processed, round(sim.now, 9), sim.pending()


class TestBackendsAgree:
    @given(ops=_ops)
    @settings(**FAST)
    def test_calendar_matches_heap(self, ops):
        assert execute(ops, "calendar") == execute(ops, "heap")

    @given(ops=_ops)
    @settings(**FAST)
    def test_coarse_wheel_matches_heap(self, ops):
        """Coarse-bucket extreme: nearly every delay shares the cursor
        bucket or spills, so intra-bucket FIFO and the ladder carry
        the whole ordering contract."""
        coarse = execute(ops, "calendar", bucket_width=1.0, wheel_buckets=8)
        assert coarse == execute(ops, "heap")

    @given(ops=_ops)
    @settings(**FAST)
    def test_split_runs_match_one_run(self, ops):
        """Ending ``run(until=...)`` at the horizons and resuming leaves
        the dispatch history exactly as one uninterrupted ``run()`` does
        on either backend: a horizon cuts between events, never through
        the order."""
        def dispatched(scheduler, split):
            log, processed, _, pending = execute(ops, scheduler, split=split)
            return [entry for entry in log if entry[0] != "split"], \
                processed, pending

        reference = dispatched("heap", split=False)
        for scheduler in ("heap", "calendar"):
            assert dispatched(scheduler, split=True) == reference
