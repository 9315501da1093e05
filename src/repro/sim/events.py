"""Discrete-event simulation kernel.

The performance experiments (E1--E3 and the ablations) are driven by a
classic event-queue simulation: device completions, timer ticks and
pacing deadlines are events ordered by simulated time.  Simulated time is
measured in **CPU cycles** of the modelled 1.26 GHz Pentium III so that
CPU-load accounting and event scheduling share one clock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.taps import TapPoint


class Event:
    """A scheduled callback.

    Events are single-shot; cancelling an already-fired or already-cancelled
    event is a silent no-op, which keeps device models simple (they can
    unconditionally cancel a pending completion when reset).
    """

    __slots__ = ("callback", "name", "time", "_cancelled", "_fired")

    def __init__(self, callback: Callable[[], None], name: str = "") -> None:
        self.callback = callback
        self.name = name or getattr(callback, "__name__", "event")
        #: Absolute due cycle, set by the queue at scheduling time.  Device
        #: snapshot/restore uses it to re-arm timers with the remaining
        #: delay (due - now) since simulated time never rewinds.
        self.time = 0
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired


class EventQueue:
    """Priority queue of events keyed by (simulated cycle, insertion order).

    Ties are broken by insertion order so the simulation is deterministic:
    two events scheduled for the same cycle fire in the order they were
    scheduled.
    """

    def __init__(self) -> None:
        #: Heap of ``(time, seq, event)``: ``seq`` is unique, so tuple
        #: order never compares two events.
        self._heap: List[Tuple[int, int, Event]] = []
        self._counter = itertools.count()
        self.now: int = 0
        #: Multicast observation point notified as ``taps(time, name)``
        #: for every scheduled event.  The flight recorder journals
        #: device-completion scheduling as cross-check evidence; the
        #: tracer subscribes alongside it.  Observers must only observe
        #: (never schedule or mutate device state).
        self.schedule_taps = TapPoint()

    def __len__(self) -> int:
        return sum(1 for _time, _seq, event in self._heap
                   if not event._cancelled)

    def schedule_at(self, time: int, callback: Callable[[], None],
                    name: str = "") -> Event:
        """Schedule ``callback`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event {name!r} at cycle {time}, "
                f"already at cycle {self.now}")
        event = Event(callback, name)
        event.time = time
        heapq.heappush(self._heap, (time, next(self._counter), event))
        if self.schedule_taps:
            self.schedule_taps(time, event.name)
        return event

    def schedule_in(self, delay: int, callback: Callable[[], None],
                    name: str = "") -> Event:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {name!r}")
        return self.schedule_at(self.now + delay, callback, name)

    def peek_time(self) -> Optional[int]:
        """Cycle of the next live event, or None when the queue is drained."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2]._cancelled:
                return entry[0]
            heapq.heappop(heap)
        return None

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if event._cancelled:
                continue
            self.now = time
            event._fired = True
            event.callback()
            return True
        return False

    def run_until(self, deadline: int,
                  after_event: Optional[Callable[[], None]] = None) -> None:
        """Fire events up to and including ``deadline``, then set now=deadline.

        ``after_event``, when given, is called after each fired event:
        the performance layer passes its dispatcher's
        ``dispatch_pending`` so that interrupts an event raised reach
        the guest's ISRs before the next event fires.
        """
        heap = self._heap
        # The head is the earliest entry, live or cancelled: when it is
        # not yet due, nothing is.
        while heap:
            head = heap[0]
            if head[0] > deadline:
                break
            if head[2]._cancelled:
                heapq.heappop(heap)
            else:
                self.step()
                if after_event is not None:
                    after_event()
        if deadline > self.now:
            self.now = deadline

    def run(self, max_events: int = 10_000_000) -> int:
        """Drain the queue; returns the number of events fired.

        ``max_events`` guards against runaway self-rescheduling models.
        """
        fired = 0
        while self.step():
            fired += 1
            if fired >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; "
                    "a model is probably rescheduling itself unconditionally")
        return fired


def cycles_for_seconds(seconds: float, hz: float) -> int:
    """Convert wall seconds of the modelled machine into cycles."""
    if seconds < 0:
        raise SimulationError(f"negative duration {seconds}")
    return int(round(seconds * hz))


def seconds_for_cycles(cycles: int, hz: float) -> float:
    """Convert cycles back to modelled seconds."""
    return cycles / hz
