"""Trace and metrics exporters.

Three output formats, all dependency-free:

* **Chrome trace_event JSON** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) — the object form with a ``traceEvents``
  array, loadable in Perfetto (https://ui.perfetto.dev) and Chrome's
  ``about:tracing``.  The ``ts`` field is the **simulated cycle**
  count, not microseconds; since the modelled CPU is 1.26 GHz the
  numbers read as "cycles" on the timeline and, critically, they are
  deterministic — the golden-trace test depends on two runs producing
  byte-identical files.  Each event category gets its own named thread
  track.
* **collapsed-stack text** (:func:`collapsed_stacks`) — one
  ``frame;frame;frame count`` line per profiler sample site, the input
  format of flamegraph.pl / speedscope / inferno.
* **metrics JSON** (:func:`metrics_json`) — the registry snapshot.

:func:`validate_chrome_trace` is the schema gate CI runs against
recorded traces: structural checks only (required keys, known phases,
balanced B/E nesting per track), no external schema library.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.bus import (
    PH_BEGIN,
    PH_COMPLETE,
    PH_END,
    PH_INSTANT,
    TraceBus,
)

#: Category -> thread id of its Perfetto track (stable ordering).
TRACK_IDS = {
    "trap": 1,
    "irq": 2,
    "device": 3,
    "rsp": 4,
    "monitor": 5,
    "fault": 6,
    "watchdog": 7,
    "replay": 8,
    "profile": 9,
}
_PID = 1
_PHASES = (PH_BEGIN, PH_END, PH_INSTANT, PH_COMPLETE, "M")


def _track_id(category: str) -> int:
    return TRACK_IDS.get(category, 15)


def chrome_trace(bus: TraceBus, profiler=None, symbols=None,
                 registry=None, label: str = "repro") -> Dict:
    """The full trace document (a plain dict, ready for json.dump).

    Spans still open on the bus are closed virtually at the last
    event's cycle so viewers never see dangling ``B`` events.  When a
    profiler / registry is given, the symbolized profile and the
    metrics snapshot ride along as extra top-level keys (the
    trace_event object form permits them; viewers ignore them).
    """
    events: List[Dict] = []
    events.append({"ph": "M", "pid": _PID, "tid": 0, "ts": 0,
                   "name": "process_name",
                   "args": {"name": label}})
    for category, tid in sorted(TRACK_IDS.items(),
                                key=lambda item: item[1]):
        events.append({"ph": "M", "pid": _PID, "tid": tid, "ts": 0,
                       "name": "thread_name",
                       "args": {"name": category}})
    last_cycle = 0
    #: Per-track stacks of B names seen in the *retained* window, so a
    #: wrapped ring (whose oldest B events were evicted) never emits an
    #: E without its B — Perfetto rejects such traces.
    retained_open: Dict[int, List[str]] = {}
    orphan_ends = 0
    for record in bus:
        tid = _track_id(record.category)
        if record.phase == PH_BEGIN:
            retained_open.setdefault(tid, []).append(record.name)
        elif record.phase == PH_END:
            stack = retained_open.get(tid)
            if not stack or record.name not in stack:
                # Its B fell out of the ring: drop the E rather than
                # exporting an unbalanced track.
                orphan_ends += 1
                continue
            stack.reverse()
            stack.remove(record.name)
            stack.reverse()
        event = {
            "name": record.name,
            "cat": record.category,
            "ph": record.phase,
            "ts": record.cycle,
            "pid": _PID,
            "tid": tid,
        }
        args = dict(record.args)
        if record.pc:
            args["pc"] = f"{record.pc:#010x}"
            if symbols is not None:
                near = symbols.nearest(record.pc)
                if near is not None:
                    name, offset = near
                    args["sym"] = name if offset == 0 \
                        else f"{name}+{offset:#x}"
        args["instret"] = record.instret
        event["args"] = args
        if record.phase == PH_COMPLETE:
            event["dur"] = record.dur
        if record.phase == PH_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        events.append(event)
        if record.cycle > last_cycle:
            last_cycle = record.cycle
    for name, category in reversed(bus.open_span_entries()):
        # Virtual close: the span was still open when we exported.
        # Skip spans whose B was evicted by wraparound — closing them
        # would orphan the E the same way.
        tid = _track_id(category)
        stack = retained_open.get(tid)
        if not stack or name not in stack:
            orphan_ends += 1
            continue
        stack.reverse()
        stack.remove(name)
        stack.reverse()
        events.append({"name": name, "cat": category, "ph": PH_END,
                       "ts": last_cycle, "pid": _PID,
                       "tid": tid,
                       "args": {"virtual-close": 1}})
    document: Dict = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "simulated-cycles",
            "events_recorded": bus.total_recorded,
            "events_dropped": bus.dropped,
            "unbalanced_ends": bus.unbalanced_ends,
        },
    }
    if orphan_ends:
        # Key present only when the ring actually wrapped mid-span, so
        # golden traces recorded without wraparound stay byte-stable.
        document["otherData"]["orphan_ends"] = orphan_ends
    if profiler is not None:
        document["guestProfile"] = {
            "stride": profiler.stride,
            "total_samples": profiler.total_samples,
            "cumulative": [
                {"symbol": name, "samples": count}
                for name, count in profiler.cumulative(symbols)],
            "flat": [
                {"pc": f"{pc:#010x}", "ring": ring, "reason": reason,
                 "samples": count}
                for pc, ring, reason, count in profiler.flat()],
        }
    if registry is not None:
        document["metrics"] = registry.snapshot()
    return document


def write_chrome_trace(path, bus: TraceBus, profiler=None,
                       symbols=None, registry=None,
                       label: str = "repro") -> Path:
    """Write the trace document; byte-stable for identical inputs."""
    path = Path(path)
    document = chrome_trace(bus, profiler=profiler, symbols=symbols,
                            registry=registry, label=label)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


#: Fleet export pid layout: the supervisor is process 1 (one thread
#: lane per trace); worker ``w`` is process ``10 + w``.
FLEET_SUPERVISOR_PID = 1
FLEET_WORKER_PID_BASE = 10


def fleet_chrome_trace(collector, aggregated=None, slo=None,
                       label: str = "fleet") -> Dict:
    """Multi-process trace document for one fleet run.

    ``collector`` is a :class:`~repro.obs.distributed.collector
    .SpanCollector`; the supervisor's per-trace logical-tick events
    land on process 1 with one named thread lane per trace (labelled
    by job id), and each worker's clock-aligned spans land on their
    own process.  One JSON file opens in Perfetto as the whole fleet.

    Events are emitted sorted by ``(pid, tid, ts, name, trace)`` so
    the document is byte-stable no matter what order heartbeats
    arrived in.  ``aggregated`` (the merged fleet metrics) and ``slo``
    (the SLO panel) ride along as extra top-level keys when given.
    """
    from repro.obs.distributed.context import TraceContext

    events: List[Dict] = []
    events.append({"ph": "M", "pid": FLEET_SUPERVISOR_PID, "tid": 0,
                   "ts": 0, "name": "process_name",
                   "args": {"name": f"{label}-supervisor"}})
    for trace_id, ordinal in sorted(collector.trace_order.items(),
                                    key=lambda item: item[1]):
        events.append({"ph": "M", "pid": FLEET_SUPERVISOR_PID,
                       "tid": ordinal + 1, "ts": 0,
                       "name": "thread_name",
                       "args": {"name": collector.label(trace_id)}})
    for worker_index in collector.worker_indices():
        pid = FLEET_WORKER_PID_BASE + worker_index
        events.append({"ph": "M", "pid": pid, "tid": 0, "ts": 0,
                       "name": "process_name",
                       "args": {"name": f"{label}-worker-"
                                        f"{worker_index}"}})
        events.append({"ph": "M", "pid": pid, "tid": 1, "ts": 0,
                       "name": "thread_name",
                       "args": {"name": "timeline"}})

    def _wire_to_event(wire: Dict, pid: int, tid: int) -> Dict:
        event = {"name": wire["name"], "cat": wire["cat"],
                 "ph": wire["ph"], "ts": wire["ts"], "pid": pid,
                 "tid": tid}
        args = dict(wire.get("args", {}))
        args["trace"] = wire["trace"]
        args["instret"] = wire.get("instret", 0)
        event["args"] = args
        if wire["ph"] == PH_COMPLETE:
            event["dur"] = wire.get("dur", 0)
        if wire["ph"] == PH_INSTANT:
            event["s"] = "t"
        return event

    body: List[Dict] = []
    for wire in collector.supervisor:
        ctx = TraceContext.decode(wire["trace"])
        tid = collector.trace_order[ctx.trace_id] + 1
        body.append(_wire_to_event(wire, FLEET_SUPERVISOR_PID, tid))
    for worker_index in collector.worker_indices():
        pid = FLEET_WORKER_PID_BASE + worker_index
        for wire in collector.worker_events(worker_index):
            body.append(_wire_to_event(wire, pid, 1))
    body.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], e["name"],
                             e["args"]["trace"]))
    events.extend(body)

    document: Dict = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "simulated-cycles (per-worker aligned)",
            "collector": collector.stats(),
        },
    }
    if aggregated is not None:
        document["fleetMetrics"] = aggregated
    if slo is not None:
        document["slo"] = slo
    return document


def write_fleet_trace(path, collector, aggregated=None, slo=None,
                      label: str = "fleet") -> Path:
    """Write the fleet trace document; byte-stable for equal inputs."""
    path = Path(path)
    document = fleet_chrome_trace(collector, aggregated=aggregated,
                                  slo=slo, label=label)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def collapsed_stacks(profiler, symbols=None) -> str:
    """Flamegraph collapsed-stack text (newline-terminated lines)."""
    lines = profiler.collapsed_stacks(symbols)
    return "".join(line + "\n" for line in lines)


def write_collapsed(path, profiler, symbols=None) -> Path:
    path = Path(path)
    path.write_text(collapsed_stacks(profiler, symbols))
    return path


def export_stats_json(path, experiment: str, stats: Dict,
                      extra: Optional[Dict] = None) -> Path:
    """Write one collected stats dict as an experiment JSON document.

    Pair it with a ``collect_*`` function from
    :mod:`repro.obs.metrics` (``export_stats_json(path, "interp-fast-
    path", collect_interp(cpu))``).  ``extra`` keys merge into the
    top-level document.
    """
    path = Path(path)
    document: Dict = {"experiment": experiment, "stats": stats}
    if extra:
        document.update(extra)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
    return path


def metrics_json(registry) -> Dict:
    """The registry snapshot wrapped with a format marker."""
    return {"format": "repro-metrics-v1",
            "metrics": registry.snapshot()}


def write_metrics(path, registry) -> Path:
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(metrics_json(registry), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    return path


def validate_chrome_trace(document) -> List[str]:
    """Structural schema check; returns problems (empty = valid).

    Checks the properties Perfetto's importer actually depends on:
    ``traceEvents`` is a list; every event has name/ph/ts/pid/tid with
    the right types; phases are known; ``X`` events carry a
    non-negative ``dur``; ``B``/``E`` nest and balance per (pid, tid)
    track.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, not an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    open_stacks: Dict[tuple, List[str]] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kinds in (("name", str), ("ph", str),
                           ("ts", (int, float)), ("pid", int),
                           ("tid", int)):
            if not isinstance(event.get(key), kinds):
                problems.append(f"{where}: bad or missing {key!r}")
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase == PH_COMPLETE:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        track = (event.get("pid"), event.get("tid"))
        if phase == PH_BEGIN:
            open_stacks.setdefault(track, []).append(event.get("name"))
        elif phase == PH_END:
            stack = open_stacks.get(track)
            if not stack:
                problems.append(f"{where}: E without matching B "
                                f"on track {track}")
            else:
                stack.pop()
    for track, stack in sorted(open_stacks.items()):
        if stack:
            problems.append(
                f"track {track}: {len(stack)} unclosed B event(s): "
                f"{stack}")
    return problems
