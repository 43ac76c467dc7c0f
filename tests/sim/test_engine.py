"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_ties_broken_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_zero_delay_runs_after_current(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "nested")

        sim.schedule(1.0, first)
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_call_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(4.0, lambda: None)

    def test_start_time(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [101.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_cancel_from_inside_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_event_marked_consumed_after_run(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        # A dispatched event is *consumed*, not cancelled: the two fates
        # are distinguishable after the fact.
        assert event.consumed
        assert not event.cancelled
        assert not event.pending

    def test_cancelled_event_is_not_consumed(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.run()
        assert event.cancelled
        assert not event.consumed
        assert not event.pending


class TestRunControl:
    def test_until_executes_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        sim.schedule(3.0, fired.append, 3)
        sim.run(until=2.0)
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_until_advances_clock_when_queue_short(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        sim.run()
        assert fired == [1, 5]

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_cancelled_head_is_skipped_not_counted(self, scheduler):
        """A cancelled entry at the head is dropped without a dispatch:
        a horizon past it fires nothing and counts nothing, and the
        live event behind it runs on resume."""
        sim = Simulator(scheduler=scheduler)
        fired = []
        event = sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        event.cancel()
        sim.run(until=1.5)
        assert fired == [] and sim.now == 1.5
        assert sim.events_processed == 0 and sim.pending() == 1
        sim.run()
        assert fired == ["b"] and sim.events_processed == 1

    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_horizon_before_a_tie_keeps_fifo_order(self, scheduler):
        """The head entry a horizon hands back keeps its tie-break key:
        stopping just short of a same-instant pair must not let the
        later-scheduled one overtake on resume."""
        sim = Simulator(scheduler=scheduler)
        fired = []
        sim.schedule(2.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run(until=1.5)
        assert fired == [] and sim.pending() == 2
        sim.run()
        assert fired == ["a", "b"]

    def test_not_reentrant(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestIntrospection:
    def test_pending_counts_live_events(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        e1.cancel()
        assert sim.pending() == 1

    def test_cascading_events(self):
        """Each event schedules the next; the chain runs to completion."""
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 100:
                sim.schedule(0.1, tick)

        sim.schedule(0.1, tick)
        sim.run()
        assert count[0] == 100
        assert sim.now == pytest.approx(10.0)
