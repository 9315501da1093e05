"""Unified observability layer.

One cross-cutting layer answers "where does the time go?" for every
other subsystem:

* :mod:`repro.obs.taps` — the one tap API.  Devices and the monitor
  expose :class:`~repro.obs.taps.TapPoint` hooks so the flight
  recorder and the tracer (and anything else) subscribe to the same
  boundary simultaneously.
* :mod:`repro.obs.bus` — the one event ring: a bounded ring of typed
  trace events (instants and nestable spans) timestamped in simulated
  cycles and retired instructions, never wall-clock.  The monitor's
  own event ring (``monitor trace``) is a :class:`TraceBus` too.
* :mod:`repro.obs.metrics` — the metrics registry
  (counter/gauge/histogram) and the ``collect_*`` functions that put
  every subsystem's counters behind one API.
* :mod:`repro.obs.profiler` — a sampling guest-PC profiler driven from
  the monitor run loop at a configurable instruction stride.
* :mod:`repro.obs.tracer` — the instrumentation glue: subscribes
  guarded hooks across the monitor, devices, RSP stub, faults, replay
  and watchdog, and turns what they observe into trace-bus events and
  registry metrics.
* :mod:`repro.obs.exporters` — Chrome ``trace_event`` JSON (loads in
  Perfetto / about:tracing), collapsed-stack text for flamegraph
  tooling, and metrics snapshots.
* :mod:`repro.obs.cli` — the ``repro-trace`` command
  (record / report / export / top).

Everything here is zero-cost when disabled: hooks are guarded tap
points that cost one truthiness check at the observation site, and the
profiler's per-instruction cost is the run loop's single integer
compare, paid with or without one (gated in
``benchmarks/bench_host_budgets.py``).
"""

from repro.obs.bus import SpanHandle, TraceBus, TraceRecord
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.profiler import GuestProfiler
from repro.obs.taps import TapPoint
from repro.obs.tracer import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "GuestProfiler",
    "Histogram",
    "MetricsRegistry",
    "SpanHandle",
    "TapPoint",
    "TraceBus",
    "TraceRecord",
    "Tracer",
    "global_registry",
]
