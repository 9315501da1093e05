"""Unit tests for the discrete-event kernel and cycle budget."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    CAT_COPY,
    CAT_GUEST,
    CAT_WORLD_SWITCH,
    CycleBudget,
    EventQueue,
    cycles_for_seconds,
    seconds_for_cycles,
)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule_at(30, lambda: order.append("c"))
        queue.schedule_at(10, lambda: order.append("a"))
        queue.schedule_at(20, lambda: order.append("b"))
        queue.run()
        assert order == ["a", "b", "c"]
        assert queue.now == 30

    def test_same_time_events_fire_in_insertion_order(self):
        queue = EventQueue()
        order = []
        for tag in "abcd":
            queue.schedule_at(5, lambda t=tag: order.append(t))
        queue.run()
        assert order == ["a", "b", "c", "d"]

    def test_schedule_in_is_relative(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(100, lambda: queue.schedule_in(
            50, lambda: seen.append(queue.now)))
        queue.run()
        assert seen == [150]

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.schedule_at(10, lambda: None)
        queue.run()
        with pytest.raises(SimulationError):
            queue.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule_in(-1, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule_at(10, lambda: fired.append(1))
        event.cancel()
        queue.run()
        assert not fired
        assert event.cancelled
        assert not event.fired

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        keep = queue.schedule_at(10, lambda: None)
        drop = queue.schedule_at(20, lambda: None)
        drop.cancel()
        assert len(queue) == 1
        assert keep is not None

    def test_run_until_stops_at_deadline(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(10, lambda: fired.append(10))
        queue.schedule_at(30, lambda: fired.append(30))
        queue.run_until(20)
        assert fired == [10]
        assert queue.now == 20
        queue.run_until(40)
        assert fired == [10, 30]

    def test_run_until_inclusive_of_deadline(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(20, lambda: fired.append(20))
        queue.run_until(20)
        assert fired == [20]

    def test_run_until_calls_after_event_once_per_fired_event(self):
        queue = EventQueue()
        log = []
        queue.schedule_at(10, lambda: log.append("event 10"))
        queue.schedule_at(15, lambda: log.append("event 15")).cancel()
        # An event the callback's work schedules, due before the
        # deadline, fires in the same run.
        queue.schedule_at(20, lambda: queue.schedule_at(
            25, lambda: log.append("event 25")))
        queue.schedule_at(40, lambda: log.append("event 40"))
        queue.run_until(30, lambda: log.append(f"after {queue.now}"))
        assert log == ["event 10", "after 10", "after 20",
                       "event 25", "after 25"]
        assert queue.now == 30
        queue.run_until(35, lambda: log.append("never"))
        assert log[-1] == "after 25"

    def test_runaway_detection(self):
        queue = EventQueue()

        def reschedule():
            queue.schedule_in(1, reschedule)

        queue.schedule_in(1, reschedule)
        with pytest.raises(SimulationError):
            queue.run(max_events=100)

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.schedule_at(5, lambda: None)
        queue.schedule_at(9, lambda: None)
        first.cancel()
        assert queue.peek_time() == 9


class TestCycleConversion:
    def test_round_trip(self):
        hz = 1.26e9
        cycles = cycles_for_seconds(0.5, hz)
        assert cycles == int(round(0.5 * hz))
        assert seconds_for_cycles(cycles, hz) == pytest.approx(0.5)

    def test_negative_seconds_rejected(self):
        with pytest.raises(SimulationError):
            cycles_for_seconds(-1, 1e9)


class TestCycleBudget:
    def test_charges_accumulate_by_category(self):
        budget = CycleBudget()
        budget.charge(100, CAT_GUEST)
        budget.charge(50, CAT_COPY)
        budget.charge(25, CAT_GUEST)
        assert budget.total == 175
        assert budget.by_category() == {CAT_GUEST: 125, CAT_COPY: 50}

    def test_load_is_clamped(self):
        budget = CycleBudget()
        budget.charge(2000, CAT_GUEST)
        assert budget.load(1000) == 1.0
        assert budget.demanded_load(1000) == pytest.approx(2.0)

    def test_load_fraction(self):
        budget = CycleBudget()
        budget.charge(250, CAT_WORLD_SWITCH)
        assert budget.load(1000) == pytest.approx(0.25)

    def test_negative_charge_rejected(self):
        budget = CycleBudget()
        with pytest.raises(SimulationError):
            budget.charge(-1)

    def test_zero_window_rejected(self):
        budget = CycleBudget()
        with pytest.raises(SimulationError):
            budget.load(0)

    def test_snapshot_delta(self):
        budget = CycleBudget()
        budget.charge(10, CAT_GUEST)
        before = budget.snapshot()
        budget.charge(5, CAT_GUEST)
        budget.charge(7, CAT_COPY)
        assert budget.delta_since(before) == {CAT_GUEST: 5, CAT_COPY: 7}

    def test_reset(self):
        budget = CycleBudget()
        budget.charge(10)
        budget.reset()
        assert budget.total == 0

    def test_bad_frequency_rejected(self):
        with pytest.raises(SimulationError):
            CycleBudget(hz=0)
