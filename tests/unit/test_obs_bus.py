"""Unit tests: the structured trace bus and the multicast tap points."""

import pytest

from repro.obs.bus import (
    CAT_DEVICE,
    CAT_IRQ,
    CAT_MONITOR,
    CAT_TRAP,
    PH_BEGIN,
    PH_COMPLETE,
    PH_END,
    PH_INSTANT,
    TraceBus,
)
from repro.obs.taps import TapPoint


class TestTapPoint:
    def test_empty_tap_is_falsy_and_callable(self):
        tap = TapPoint()
        assert not tap
        assert len(tap) == 0
        tap(1, 2)  # no observers: a no-op, not an error

    def test_subscribers_notified_in_subscription_order(self):
        class Observer:
            def __init__(self, name, calls):
                self.name, self.calls = name, calls

            def on_event(self, *args):
                self.calls.append((self.name, args))

        tap = TapPoint()
        calls = []
        first, second = Observer("a", calls), Observer("b", calls)
        tap.subscribe(first.on_event)
        tap.subscribe(second.on_event)
        assert tap and len(tap) == 2
        tap(7)
        # A fresh bound-method reference unsubscribes: no handle kept.
        tap.unsubscribe(first.on_event)
        tap(8)
        assert calls == [("a", (7,)), ("b", (7,)), ("b", (8,))]

    def test_subscribe_returns_callback_for_unsubscribe(self):
        tap = TapPoint()
        seen = []
        callback = tap.subscribe(seen.append)
        tap(1)
        tap.unsubscribe(callback)
        tap(2)
        assert seen == [1]
        tap.unsubscribe(callback)  # second unsubscribe is a no-op

    def test_clear_drops_everything(self):
        tap = TapPoint()
        tap.subscribe(lambda: None)
        tap.subscribe(lambda: None)
        tap.clear()
        assert not tap

    def test_taps_compare_and_hash_by_identity(self):
        first, second = TapPoint(), TapPoint()
        assert first != second and not first == second
        assert len({first, second}) == 2
        assert first == first
        first.subscribe(print)
        assert first.subscribers is first and list(first) == [print]


class TestTraceBusRing:
    def test_disabled_bus_records_nothing(self):
        bus = TraceBus()
        bus.instant(CAT_IRQ, "x", cycle=1)
        bus.begin(CAT_MONITOR, "run", cycle=1)
        bus.end("run")
        assert len(bus) == 0
        assert bus.total_recorded == 0
        assert bus.unbalanced_ends == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBus(capacity=0)

    def test_ring_wraparound_keeps_newest(self):
        bus = TraceBus(capacity=4)
        bus.enabled = True
        for index in range(10):
            bus.instant(CAT_DEVICE, f"e{index}", cycle=index)
        assert len(bus) == 4
        assert bus.total_recorded == 10
        assert bus.dropped == 6
        assert [e.name for e in bus.events()] == \
            ["e6", "e7", "e8", "e9"]
        assert [e.seq for e in bus.events()] == [6, 7, 8, 9]

    def test_tail_and_filters(self):
        bus = TraceBus()
        bus.enabled = True
        bus.instant(CAT_IRQ, "a", cycle=1)
        bus.instant(CAT_DEVICE, "b", cycle=2)
        bus.instant(CAT_IRQ, "c", cycle=3)
        assert [e.name for e in bus.tail(2)] == ["b", "c"]
        assert bus.tail(0) == []
        assert bus.tail(-2) == []
        assert [e.name for e in bus.by_category(CAT_IRQ)] == ["a", "c"]
        assert bus.counts_by_category() == {"device": 1, "irq": 2}

    def test_complete_carries_duration(self):
        bus = TraceBus()
        bus.enabled = True
        bus.complete(CAT_TRAP, "trap", cycle=100, dur=11860)
        (event,) = bus.events()
        assert event.phase == PH_COMPLETE
        assert event.dur == 11860
        assert "dur=11860" in event.format()

    def test_stats_shape(self):
        bus = TraceBus(capacity=8)
        bus.enabled = True
        bus.instant(CAT_IRQ, "x", cycle=0)
        assert bus.stats() == {
            "capacity": 8, "retained": 1, "recorded": 1,
            "dropped": 0, "open_spans": 0, "unbalanced_ends": 0,
        }


class TestSpanNesting:
    def _bus(self):
        bus = TraceBus()
        bus.enabled = True
        return bus

    def test_begin_end_pairs_nest(self):
        bus = self._bus()
        bus.begin(CAT_MONITOR, "outer", cycle=1)
        bus.begin(CAT_TRAP, "inner", cycle=2)
        bus.end("inner", cycle=3)
        bus.end("outer", cycle=4)
        phases = [(e.phase, e.name) for e in bus.events()]
        assert phases == [(PH_BEGIN, "outer"), (PH_BEGIN, "inner"),
                          (PH_END, "inner"), (PH_END, "outer")]
        assert bus.open_spans == []
        assert bus.unbalanced_ends == 0

    def test_end_of_outer_implicitly_closes_inner(self):
        bus = self._bus()
        bus.begin(CAT_MONITOR, "outer", cycle=1)
        bus.begin(CAT_TRAP, "inner", cycle=2)
        bus.end("outer", cycle=9)
        events = bus.events()
        assert [(e.phase, e.name) for e in events] == [
            (PH_BEGIN, "outer"), (PH_BEGIN, "inner"),
            (PH_END, "inner"), (PH_END, "outer")]
        assert events[2].args == {"implicit-close": 1}
        # the implicit close keeps the inner span's own category
        assert events[2].category == CAT_TRAP
        assert bus.open_spans == []

    def test_unbalanced_end_is_counted_not_recorded(self):
        bus = self._bus()
        bus.end("never-opened", cycle=5)
        assert bus.unbalanced_ends == 1
        assert len(bus) == 0

    def test_end_closes_innermost_matching_name(self):
        bus = self._bus()
        bus.begin(CAT_MONITOR, "run", cycle=1)
        bus.begin(CAT_MONITOR, "run", cycle=2)
        bus.end("run", cycle=3)
        assert bus.open_spans == ["run"]
        bus.end("run", cycle=4)
        assert bus.open_spans == []

    def test_span_context_manager(self):
        bus = self._bus()
        with bus.span(CAT_MONITOR, "slice", cycle=10):
            bus.instant(CAT_IRQ, "mid", cycle=11)
        assert [e.phase for e in bus.events()] == \
            [PH_BEGIN, PH_INSTANT, PH_END]

    def test_end_without_cycle_uses_last_event_cycle(self):
        bus = self._bus()
        bus.begin(CAT_MONITOR, "run", cycle=10)
        bus.instant(CAT_IRQ, "x", cycle=42)
        bus.end("run")
        assert bus.events()[-1].cycle == 42

    def test_open_span_entries_report_name_and_category(self):
        bus = self._bus()
        bus.begin(CAT_MONITOR, "outer", cycle=1)
        bus.begin(CAT_TRAP, "inner", cycle=2)
        assert bus.open_span_entries() == [
            ("outer", CAT_MONITOR), ("inner", CAT_TRAP)]

    def test_clear_resets_window_and_stack(self):
        bus = self._bus()
        bus.begin(CAT_MONITOR, "run", cycle=1)
        bus.clear()
        assert len(bus) == 0 and bus.open_spans == []
        # sequence numbering (and thus dropped accounting) survives
        assert bus.total_recorded == 1


class TestRingHardening:
    """Satellite hardening: exact capacity boundaries and observable
    span loss (the ``obs.bus.dropped`` counter)."""

    def test_exact_capacity_boundary_drops_nothing(self):
        bus = TraceBus(capacity=4)
        bus.enabled = True
        for index in range(4):
            bus.instant(CAT_DEVICE, f"e{index}", cycle=index)
        assert len(bus) == 4
        assert bus.dropped == 0
        assert bus.stats()["dropped"] == 0

    def test_one_past_capacity_drops_exactly_one(self):
        bus = TraceBus(capacity=4)
        bus.enabled = True
        for index in range(5):
            bus.instant(CAT_DEVICE, f"e{index}", cycle=index)
        assert len(bus) == 4
        assert bus.dropped == 1
        assert [e.name for e in bus.events()] == \
            ["e1", "e2", "e3", "e4"]

    def test_capacity_one_ring(self):
        bus = TraceBus(capacity=1)
        bus.enabled = True
        bus.instant(CAT_IRQ, "first", cycle=0)
        bus.instant(CAT_IRQ, "second", cycle=1)
        assert [e.name for e in bus.events()] == ["second"]
        assert bus.dropped == 1

    def test_end_with_no_begin_never_emits(self):
        bus = TraceBus()
        bus.enabled = True
        bus.end("phantom")
        bus.end("phantom")
        assert len(bus) == 0
        assert bus.unbalanced_ends == 2
        # The bus stays usable: a real span still records cleanly.
        bus.begin(CAT_MONITOR, "real", cycle=1)
        bus.end("real", cycle=2)
        assert [e.phase for e in bus.events()] == [PH_BEGIN, PH_END]
        assert bus.unbalanced_ends == 2

    def test_dropped_metric_created_lazily_on_first_wrap(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        bus = TraceBus(capacity=2)
        bus.bind_metrics(registry)
        bus.enabled = True
        bus.instant(CAT_IRQ, "a", cycle=0)
        bus.instant(CAT_IRQ, "b", cycle=1)
        # At exact capacity: no wrap yet, registry untouched (golden
        # metrics snapshots depend on this).
        assert "obs.bus.dropped" not in registry.snapshot()
        bus.instant(CAT_IRQ, "c", cycle=2)
        bus.instant(CAT_IRQ, "d", cycle=3)
        assert registry.counter("obs.bus.dropped").value == 2
        assert bus.dropped == 2

    def test_unbound_bus_wraps_without_metrics(self):
        bus = TraceBus(capacity=1)
        bus.enabled = True
        bus.instant(CAT_IRQ, "a", cycle=0)
        bus.instant(CAT_IRQ, "b", cycle=1)
        assert bus.dropped == 1   # no registry bound: count-only
