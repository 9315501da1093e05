"""The structured trace bus.

A bounded ring buffer of typed trace events.  Timestamps are the
machine's own clocks — simulated **cycles** and retired
**instructions** — never wall-clock, so two runs of a deterministic
scenario produce byte-identical traces (the golden-file property every
other subsystem in this tree already relies on).

Two event shapes:

* **instants** (:meth:`TraceBus.instant`) — a point event: an IRQ was
  raised, a journal frame was appended, a fault fired;
* **spans** (:meth:`TraceBus.begin` / :meth:`TraceBus.end`, or the
  :meth:`TraceBus.span` context manager) — a nested duration: a trap
  emulation, a monitor run slice, an RSP packet being serviced.  Spans
  nest on an explicit stack; an unbalanced ``end`` is counted and
  dropped rather than corrupting the nesting, and spans still open
  when the ring is exported are closed virtually by the exporter.

Events carry a *category* (``trap``, ``irq``, ``device``, ``rsp``,
``fault``, ``watchdog``, ``replay``, ``monitor``, ``profile``) used by
the exporters to group Perfetto tracks.

The bus itself has no knowledge of the machine.  The lightweight
monitor owns one as its event ring (``LightweightVmm.trace``, read back
by ``monitor trace``); the :class:`repro.obs.tracer.Tracer` feeds
another from the tree's tap points, including the monitor ring's
:attr:`TraceBus.taps`.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Deque, Dict, Iterator, List, Mapping, NamedTuple, Optional

from repro.obs.taps import TapPoint

#: Event phases (mirroring the Chrome trace_event vocabulary).
PH_INSTANT = "i"
PH_BEGIN = "B"
PH_END = "E"
PH_COMPLETE = "X"

#: Categories the instrumentation layer emits.
CAT_TRAP = "trap"
CAT_IRQ = "irq"
CAT_DEVICE = "device"
CAT_RSP = "rsp"
CAT_FAULT = "fault"
CAT_WATCHDOG = "watchdog"
CAT_REPLAY = "replay"
CAT_MONITOR = "monitor"
CAT_PROFILE = "profile"
CAT_NET = "net"
CAT_FLEET = "fleet"
CAT_SLO = "slo"

#: ``args`` of a record built without any: empty, and read-only because
#: every such record shares it.
_NO_ARGS: Mapping = MappingProxyType({})


class TraceRecord(NamedTuple):
    """One trace-bus event.

    ``dur`` is only meaningful for ``PH_COMPLETE`` events (a span whose
    duration was known at emission time, e.g. a cost-model charge).
    A named tuple, not a frozen dataclass: just as immutable, and about
    three times cheaper to build, which every emitted event pays.
    """

    seq: int
    phase: str
    category: str
    name: str
    cycle: int
    instret: int
    pc: int = 0
    ring: int = 0
    dur: int = 0
    args: Mapping = _NO_ARGS

    def format(self) -> str:
        extra = f" dur={self.dur}" if self.phase == PH_COMPLETE else ""
        args = " ".join(f"{k}={v}" for k, v in sorted(self.args.items()))
        return (f"[{self.seq:6d}] cyc={self.cycle:<12d} "
                f"i={self.instret:<10d} {self.phase} "
                f"{self.category}:{self.name}{extra}"
                f"{' ' + args if args else ''}")


class SpanHandle:
    """Context manager closing one span (see :meth:`TraceBus.span`)."""

    __slots__ = ("_bus", "_name")

    def __init__(self, bus: "TraceBus", name: str) -> None:
        self._bus = bus
        self._name = name

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self._bus.end(self._name)


class TraceBus:
    """Bounded ring of :class:`TraceRecord` with span nesting."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"trace bus capacity must be >= 1, "
                             f"got {capacity}")
        self.capacity = capacity
        self._events: Deque[TraceRecord] = deque(maxlen=capacity)
        self._sequence = 0
        #: Recording gate: instant()/begin()/end() are no-ops when False.
        self.enabled = False
        #: (name, category, begin-sequence) of currently open spans.
        self._span_stack: List[tuple] = []
        #: ``end`` calls that matched no open span (observability of the
        #: instrumentation itself — a nonzero count means a hook fired
        #: out of order somewhere).
        self.unbalanced_ends = 0
        #: Registry the ``obs.bus.dropped`` counter is created in when
        #: the ring first wraps (see :meth:`bind_metrics`).
        self._registry = None
        self._dropped_counter = None
        #: Notified as ``taps(record)`` with every record emitted.
        self.taps = TapPoint()

    def bind_metrics(self, registry) -> None:
        """Surface ring wraparound as the ``obs.bus.dropped`` counter.

        The counter is created lazily on the first actual drop, so a
        bus that never wraps leaves the registry untouched (golden
        metrics snapshots stay byte-identical).
        """
        self._registry = registry

    # -- emission ------------------------------------------------------------

    def _emit(self, phase: str, category: str, name: str, cycle: int,
              instret: int, pc: int, ring: int, dur: int,
              args: Optional[Dict]) -> TraceRecord:
        record = TraceRecord(self._sequence, phase, category, name,
                             cycle, instret, pc, ring, dur, args or {})
        if len(self._events) == self.capacity \
                and self._registry is not None:
            # The append below evicts the oldest record: make the loss
            # observable (counter created on first wrap only).
            if self._dropped_counter is None:
                self._dropped_counter = self._registry.counter(
                    "obs.bus.dropped",
                    help="trace events evicted by ring wraparound")
            self._dropped_counter.inc()
        self._events.append(record)
        self._sequence += 1
        if self.taps:
            self.taps(record)
        return record

    def instant(self, category: str, name: str, cycle: int,
                instret: int = 0, pc: int = 0, ring: int = 0,
                args: Optional[Dict] = None) -> None:
        """A point event."""
        if not self.enabled:
            return
        self._emit(PH_INSTANT, category, name, cycle, instret, pc,
                   ring, 0, args)

    def complete(self, category: str, name: str, cycle: int, dur: int,
                 instret: int = 0, pc: int = 0, ring: int = 0,
                 args: Optional[Dict] = None) -> None:
        """A span whose duration is already known (cost-model charges)."""
        if not self.enabled:
            return
        self._emit(PH_COMPLETE, category, name, cycle, instret, pc,
                   ring, dur, args)

    def forward(self, record: TraceRecord) -> None:
        """Re-emit an instant or complete record from another bus."""
        if not self.enabled:
            return
        self._emit(record.phase, record.category, record.name,
                   record.cycle, record.instret, record.pc, record.ring,
                   record.dur, record.args)

    def begin(self, category: str, name: str, cycle: int,
              instret: int = 0, pc: int = 0, ring: int = 0,
              args: Optional[Dict] = None) -> None:
        """Open a nested span (close with :meth:`end`)."""
        if not self.enabled:
            return
        record = self._emit(PH_BEGIN, category, name, cycle, instret,
                            pc, ring, 0, args)
        self._span_stack.append((name, category, record.seq))

    def end(self, name: str, cycle: Optional[int] = None,
            instret: int = 0, args: Optional[Dict] = None) -> None:
        """Close the innermost open span named ``name``.

        Spans opened inside it that were never closed are closed
        implicitly (their ``E`` events are emitted in stack order), the
        way Chrome's trace machinery unwinds abandoned nesting.  An
        ``end`` that matches no open span is counted in
        :attr:`unbalanced_ends` and otherwise ignored.
        """
        if not self.enabled:
            return
        names = [entry[0] for entry in self._span_stack]
        if name not in names:
            self.unbalanced_ends += 1
            return
        index = len(names) - 1 - names[::-1].index(name)
        cycle = self._last_cycle() if cycle is None else cycle
        while len(self._span_stack) > index:
            open_name, open_category, _seq = self._span_stack.pop()
            self._emit(PH_END, open_category, open_name, cycle,
                       instret, 0, 0, 0,
                       args if open_name == name else
                       {"implicit-close": 1})

    def span(self, category: str, name: str, cycle: int,
             instret: int = 0, pc: int = 0, ring: int = 0,
             args: Optional[Dict] = None) -> SpanHandle:
        """``with bus.span(...):`` convenience around begin/end."""
        self.begin(category, name, cycle, instret, pc, ring, args)
        return SpanHandle(self, name)

    def _last_cycle(self) -> int:
        return self._events[-1].cycle if self._events else 0

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._events)

    @property
    def total_recorded(self) -> int:
        return self._sequence

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by wraparound."""
        return self._sequence - len(self._events)

    @property
    def open_spans(self) -> List[str]:
        return [entry[0] for entry in self._span_stack]

    def open_span_entries(self) -> List[tuple]:
        """(name, category) of open spans, outermost first."""
        return [(entry[0], entry[1]) for entry in self._span_stack]

    def events(self) -> List[TraceRecord]:
        """The retained window, oldest first."""
        return list(self._events)

    def tail(self, count: int = 32) -> List[TraceRecord]:
        """The newest ``count`` events; none when ``count <= 0``."""
        return list(self._events)[-count:] if count > 0 else []

    def by_category(self, category: str) -> List[TraceRecord]:
        return [e for e in self._events if e.category == category]

    def counts_by_category(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return dict(sorted(counts.items()))

    def clear(self) -> None:
        self._events.clear()
        self._span_stack.clear()

    def stats(self) -> Dict:
        """Bus health counters (``repro.perf`` shape)."""
        return {
            "capacity": self.capacity,
            "retained": len(self._events),
            "recorded": self._sequence,
            "dropped": self.dropped,
            "open_spans": len(self._span_stack),
            "unbalanced_ends": self.unbalanced_ends,
        }
