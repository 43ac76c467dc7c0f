"""Cross-backend scheduler equivalence: heap vs calendar, bit for bit.

The pluggable scheduler backends share one contract: identical pop
order for identical push order, including FIFO tie-break within a
timestamp, identical surfacing of lazily-deferred timer entries, and
identical ``peek_time`` answers.  A seeded (``derandomize=True``, so
deterministic across runs) hypothesis suite drives both backends with
the same op scripts — zero-delay FIFO ties, cancel-while-pending, lazy
re-arm past bucket boundaries, overflow-ladder spills, stop()-from-
callback, mid-run peeks — and asserts the observable histories match.

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

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from(DELAYS)),
        st.tuples(st.just("zero"), st.integers(1, 4)),
        st.tuples(st.just("arm"), st.integers(0, 2), st.sampled_from(DELAYS)),
        st.tuples(st.just("cancel"), st.integers(0, 2)),
        st.tuples(st.just("peek")),
        st.tuples(st.just("stop")),
    ),
    min_size=1, max_size=40,
)


def execute(ops, scheduler, drive="run", **engine_opts):
    """Run one op script; return its full observable history.

    Each op executes inside its own driver event (one tick per op, at
    deliberately bucket-misaligned times), so arms/cancels/peeks happen
    at simulated time exactly as real workloads issue them.
    ``drive="step"`` dispatches through ``Simulator.step()`` instead of
    ``run()``.
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
        elif kind == "peek":
            at = sim.peek_time()
            log.append(("peek", None if at is None else round(at, 9)))
        else:  # stop
            sim.stop()

    for index, op in enumerate(ops):
        sim.call_at(index * 0.07, apply, op)
    if drive == "step":
        while sim.step():
            pass
    else:
        sim.run()
        while sim.pending():  # resume after stop()-from-callback
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
    def test_step_to_exhaustion_matches_run(self, ops):
        """``step()`` — the backends' ``next_key``/``step_raw`` pair —
        replays the history ``run()`` produces: dead entries dropped,
        stale timers re-keyed at the same point in the order."""
        reference = execute(ops, "heap")
        for scheduler in ("heap", "calendar"):
            for burst in (False, True):
                stepped = execute(ops, scheduler, drive="step", burst=burst)
                assert stepped == reference


class TestPeekRegression:
    """peek_time must report the authoritative deadline of a lazily
    deferred timer — and observing must never change the schedule."""

    def make(self, scheduler):
        if scheduler == "calendar":
            return Simulator(scheduler="calendar", bucket_width=0.05,
                             wheel_buckets=8)
        return Simulator()

    def test_peek_reports_deferred_deadline(self):
        for scheduler in ("heap", "calendar"):
            sim = self.make(scheduler)
            timer = Timer(sim, lambda: None)
            timer.arm(1.0)
            timer.arm(3.0)  # deferred in place; stale key still at 1.0
            assert sim.peek_time() == 3.0, scheduler

    def test_peek_sees_fresh_event_behind_stale_key(self):
        for scheduler in ("heap", "calendar"):
            sim = self.make(scheduler)
            timer = Timer(sim, lambda: None)
            timer.arm(1.0)
            timer.arm(3.0)
            sim.schedule(2.0, lambda: None)
            assert sim.peek_time() == 2.0, scheduler

    def test_peek_does_not_perturb_fifo_ties_at_deferred_deadline(self):
        """The observer-effect regression: re-keying a stale head during
        peek used to consume a tie-break sequence number early, firing
        the deferred timer *before* a same-instant event scheduled
        after the re-arm.  Peeking must leave the order unchanged."""

        def run(scheduler, peek):
            sim = self.make(scheduler)
            log = []
            timer = Timer(sim, lambda: log.append("timer"))
            timer.arm(1.0)
            timer.arm(2.0)     # stale key at 1.0, real deadline 2.0
            sim.schedule(2.0, lambda: log.append("event"))
            if peek:
                assert sim.peek_time() == 2.0
            sim.run()
            return log

        for scheduler in ("heap", "calendar"):
            unobserved = run(scheduler, peek=False)
            observed = run(scheduler, peek=True)
            # The deferred timer re-keys at dispatch time, which is
            # *after* the t=2.0 event was scheduled — so the event wins
            # the tie, peeked or not.
            assert unobserved == ["event", "timer"], scheduler
            assert observed == unobserved, scheduler

    def test_repeated_peeks_are_idempotent(self):
        for scheduler in ("heap", "calendar"):
            sim = self.make(scheduler)
            timer = Timer(sim, lambda: None)
            timer.arm(0.5)
            timer.arm(37.5)  # defer clear out of the wheel window
            first = sim.peek_time()
            assert all(sim.peek_time() == first for _ in range(3)), scheduler
            assert first == 37.5, scheduler
