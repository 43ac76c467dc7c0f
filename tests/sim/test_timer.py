"""Tests for Timer: in-place reschedule, lazy deferral, and heap hygiene."""

import pytest

from repro.errors import SchedulingError
from repro.sim import Simulator, Timer


class TestTimerBasics:
    def test_fires_with_constructor_args(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, fired.append, "x")
        timer.arm(1.0)
        sim.run()
        assert fired == ["x"]
        assert sim.now == 1.0

    def test_arm_args_replace_constructor_args(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, fired.append, "x")
        timer.arm(1.0, "y")
        sim.run()
        assert fired == ["y"]

    def test_cancel_disarms(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, fired.append, 1)
        timer.arm(1.0)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_cancel_idempotent(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.cancel()
        timer.arm(1.0)
        timer.cancel()
        timer.cancel()
        assert not timer.armed

    def test_armed_and_deadline(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        # None (not NaN) when disarmed: comparing against a disarmed
        # deadline must raise, not silently evaluate false.
        assert timer.deadline is None
        timer.arm(2.5)
        assert timer.armed
        assert timer.deadline == 2.5
        timer.cancel()
        assert timer.deadline is None
        with pytest.raises(TypeError):
            timer.deadline < 1.0  # noqa: B015 - the poisoning regression

    def test_rearm_after_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(1.0)
        sim.run()
        timer.arm(1.0)
        sim.run()
        assert fired == [1.0, 2.0]

    def test_validation(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        with pytest.raises(SchedulingError):
            timer.arm(-0.1)
        with pytest.raises(SchedulingError):
            timer.arm(float("inf"))
        with pytest.raises(SchedulingError):
            timer.arm(float("nan"))


class TestLazyDeferral:
    def test_rearm_later_updates_in_place(self):
        """The RTO-restart pattern: re-arm to a later deadline reuses
        the pending event instead of pushing a new heap entry."""
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.arm(1.0)
        event = timer._event
        assert sim.heap_size == 1
        for i in range(1, 100):
            timer.arm(1.0 + i * 0.01)
        assert timer._event is event  # same heap entry throughout
        assert sim.heap_size == 1
        assert timer.deadline == pytest.approx(1.99)

    def test_deferred_timer_fires_at_final_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(1.0)
        timer.arm(3.0)  # deferred in place; heap key still says 1.0
        sim.run()
        assert fired == [3.0]

    def test_rearm_earlier_falls_back_to_cancel_and_push(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(5.0)
        first = timer._event
        timer.arm(1.0)
        assert timer._event is not first
        assert first.cancelled
        sim.run()
        assert fired == [1.0]

    def test_rekey_not_counted_as_dispatch(self):
        """Surfacing a deferred entry re-keys it without touching the
        event counter, so optimized and unoptimized runs report the
        same events_processed."""
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.arm(1.0)
        timer.arm(2.0)  # stale heap key at t=1.0
        sim.schedule(1.5, lambda: None)
        sim.run()
        # Three heap pops happened (stale key, filler, real deadline)
        # but only two callbacks ran.
        assert sim.events_processed == 2

    #: The two lazy engines and the eager oracle (cancel-plus-push on
    #: every re-arm).
    ENGINES = ["heap", "calendar", "eager"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deferred_timer_keeps_its_rearm_place_in_a_tie(self, engine):
        """The re-arm to 2.0 happens before the t=2.0 event is
        scheduled, so the timer wins the FIFO tie — under every engine,
        although the lazy ones re-key the entry only when its stale key
        surfaces, after that event was scheduled."""
        sim = self._sim(engine)
        log = []
        timer = Timer(sim, lambda: log.append("timer"))
        timer.arm(1.0)
        timer.arm(2.0)     # lazy: stale key at 1.0, real deadline 2.0
        sim.schedule(2.0, lambda: log.append("event"))
        sim.run()
        assert log == ["timer", "event"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rearm_to_the_same_deadline_goes_behind_a_tie(self, engine):
        """Re-arming to the deadline the timer already has is a fresh
        arm after the t=1.0 event, as cancel-plus-push makes it."""
        sim = self._sim(engine)
        log = []
        timer = Timer(sim, lambda: log.append("timer"))
        timer.arm(1.0)
        sim.schedule(1.0, lambda: log.append("event"))
        timer.arm(1.0)
        sim.run()
        assert log == ["event", "timer"]

    @staticmethod
    def _sim(engine):
        if engine == "eager":
            return Simulator(lazy_timers=False)
        opts = {"bucket_width": 0.05, "wheel_buckets": 8} \
            if engine == "calendar" else {}
        return Simulator(scheduler=engine, **opts)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_horizon_does_not_perturb_fifo_tie_at_deferred_deadline(
            self, engine):
        """Stopping at a horizon between the stale key and the deadline
        re-keys the deferred entry early, but on the same terms as an
        uninterrupted run: the timer re-armed before the t=2.0 event
        was scheduled still wins the tie."""
        sim = self._sim(engine)
        log = []
        timer = Timer(sim, lambda: log.append("timer"))
        timer.arm(1.0)
        timer.arm(2.0)     # lazy: stale key at 1.0, real deadline 2.0
        sim.schedule(2.0, lambda: log.append("event"))
        sim.run(until=1.5)
        assert log == []
        sim.run()
        assert log == ["timer", "event"]

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_stale_key_does_not_fire_at_a_horizon_past_it(self, scheduler):
        """A ``run(until=...)`` horizon between the stale key and the
        real deadline surfaces the entry but fires nothing; the clock
        stops at the horizon and the timer stays armed for its
        deadline."""
        sim = self._sim(scheduler)
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(1.0)
        timer.arm(3.0)  # deferred in place; stale key still at 1.0
        sim.run(until=2.0)
        assert fired == [] and sim.now == 2.0
        assert timer.armed and timer.deadline == 3.0
        assert sim.pending() == 1 and sim.events_processed == 0
        sim.run()
        assert fired == [3.0]

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_fresh_event_behind_stale_key_fires_first(self, scheduler):
        sim = self._sim(scheduler)
        log = []
        timer = Timer(sim, lambda: log.append(("timer", sim.now)))
        timer.arm(1.0)
        timer.arm(3.0)
        sim.schedule(2.0, lambda: log.append(("event", sim.now)))
        sim.run(until=2.5)
        assert log == [("event", 2.0)]
        sim.run()
        assert log == [("event", 2.0), ("timer", 3.0)]

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_deferral_past_the_wheel_window_fires_at_deadline(
            self, scheduler):
        """Re-arming from inside the tiny wheel's 0.4 s window to far
        past it moves the entry out to the overflow ladder on the
        calendar; it still fires once, at the final deadline."""
        sim = self._sim(scheduler)
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(0.5)
        timer.arm(37.5)
        for until in (0.5, 1.0, 37.0):
            sim.run(until=until)
            assert fired == [] and timer.deadline == 37.5
        sim.run()
        assert fired == [37.5]
        assert sim.events_processed == 1

    def test_lazy_timers_off_matches_historical_behaviour(self):
        sim = Simulator(lazy_timers=False)
        timer = Timer(sim, lambda: None)
        timer.arm(1.0)
        first = timer._event
        timer.arm(2.0)
        assert timer._event is not first  # cancel + push every re-arm
        assert first.cancelled

    def test_same_firing_times_with_and_without_lazy_timers(self):
        def run(lazy):
            sim = Simulator(lazy_timers=lazy)
            fired = []
            timer = Timer(sim, lambda: fired.append(sim.now))
            # Churn: re-arm from inside a competing event stream.
            for i in range(10):
                sim.schedule(0.1 * i, timer.arm, 0.35)
            sim.run()
            return fired

        assert run(True) == run(False)

    def test_deferral_keeps_clock_monotonic_under_churn(self):
        sim = Simulator()
        times = []
        timer = Timer(sim, lambda: times.append(sim.now))
        timer.arm(0.5)
        for i in range(50):
            sim.schedule(0.02 * i, timer.arm, 0.5)
        sim.run()
        assert times == sorted(times)
