"""The metrics registry.

Every subsystem's counters live behind one API:

* :class:`Counter` — a monotonically increasing count;
* :class:`Gauge` — a value that can go up and down;
* :class:`Histogram` — observation counts over **fixed** bucket
  boundaries (fixed so two runs of a deterministic scenario bucket
  identically, which keeps metrics snapshots golden-file stable).

:class:`MetricsRegistry` hands out metrics by dotted name with
get-or-create semantics; :func:`global_registry` returns the process
default the tracer and the collectors share.

The ``collect_*`` functions are the one metrics-collection path: each
walks one subsystem's live counters into registry gauges (dotted
names, e.g. ``interp.decode_cache.hits``) *and* returns them as a
nested stats dict, which :func:`repro.obs.exporters.export_stats_json`
writes out.  Fleet-wide sums of the workers' registries come from
:class:`repro.obs.distributed.aggregate.MetricsAggregator`.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram buckets for cycle-cost style observations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1000, 2000, 5000, 10000, 50000, 100000,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def snapshot(self) -> Dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Observation counts over fixed, sorted bucket boundaries.

    ``bucket_counts[i]`` counts observations ``<= boundaries[i]``
    (cumulative-upper-bound semantics, the Prometheus convention);
    observations above the last boundary land in the overflow bucket.
    Boundary membership is inclusive: ``observe(10)`` with a boundary
    at 10 lands in the 10-bucket, not the next one.

    ``observe(value, exemplar=...)`` attaches an *exemplar* — an
    opaque string (in the fleet: an encoded trace context) remembered
    per bucket, linking a percentile straight back to one contributing
    causal trace.  Exemplars appear in :meth:`snapshot` only when at
    least one was recorded, so exemplar-free snapshots keep their
    exact legacy shape (golden files depend on it).
    """

    __slots__ = ("name", "help", "boundaries", "bucket_counts",
                 "overflow", "count", "sum", "min", "max", "exemplars")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[Number] = DEFAULT_BUCKETS) -> None:
        boundaries = tuple(buckets)
        if not boundaries:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket")
        if list(boundaries) != sorted(set(boundaries)):
            raise ValueError(f"histogram {name!r} buckets must be "
                             f"strictly increasing: {boundaries}")
        self.name = name
        self.help = help
        self.boundaries = boundaries
        self.bucket_counts = [0] * len(boundaries)
        self.overflow = 0
        self.count = 0
        self.sum: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        #: bucket key ("10" / "overflow") -> last exemplar string.
        self.exemplars: Dict[str, str] = {}

    def observe(self, value: Number,
                exemplar: Optional[str] = None) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bisect.bisect_left(self.boundaries, value)
        if index == len(self.boundaries):
            self.overflow += 1
            key = "overflow"
        else:
            self.bucket_counts[index] += 1
            key = str(self.boundaries[index])
        if exemplar is not None:
            self.exemplars[key] = exemplar

    def snapshot(self) -> Dict:
        snap = {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(boundary): count for boundary, count
                        in zip(self.boundaries, self.bucket_counts)},
            "overflow": self.overflow,
        }
        if self.exemplars:
            # Key present only when an exemplar was attached, so
            # exemplar-free snapshots keep their legacy golden shape.
            snap["exemplars"] = dict(sorted(self.exemplars.items()))
        return snap


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Asking for an existing name returns the existing instance; asking
    for it with a different type (or different histogram buckets)
    raises, so two subsystems cannot silently shadow each other.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get_or_create(self, name: str, kind, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not kind:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}")
            buckets = kwargs.get("buckets")
            if buckets is not None and \
                    existing.boundaries != tuple(buckets):
                raise ValueError(
                    f"histogram {name!r} already registered with "
                    f"buckets {existing.boundaries}")
            return existing
        metric = kind(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[Number] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(name, Histogram, help=help,
                                   buckets=buckets)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def clear(self) -> None:
        self._metrics.clear()

    def snapshot(self) -> Dict:
        """All metrics as a plain sorted dict (JSON-ready)."""
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())}


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-default registry the tracer and collectors share."""
    return _GLOBAL


def _publish(registry: MetricsRegistry, prefix: str, tree: Dict) -> None:
    """Flatten a nested stats dict into dotted gauges.

    Only numeric leaves become gauges (booleans count as 0/1); string
    leaves are skipped — the stats dicts keep them, the registry does
    not pretend text is a metric.
    """
    for key, value in tree.items():
        name = f"{prefix}.{key}"
        if isinstance(value, dict):
            _publish(registry, name, value)
        elif isinstance(value, bool):
            registry.gauge(name).set(int(value))
        elif isinstance(value, (int, float)):
            registry.gauge(name).set(value)


def collect_interp(cpu, registry: Optional[MetricsRegistry] = None
                   ) -> dict:
    """Interpreter fast-path counters → registry + stats dict."""
    stats = {
        "instret": cpu.instret,
        "decode_cache": cpu.decode_cache_stats(),
        "block_cache": cpu.block_cache_stats(),
        "tlb": cpu.mmu.tlb.stats(),
    }
    _publish(registry if registry is not None else _GLOBAL, "interp", stats)
    return stats


def collect_tv(cpu, registry: Optional[MetricsRegistry] = None) -> dict:
    """Translation-validator counters → ``analysis.tv.*`` gauges.

    Publishes the numeric fields of the superblock engine's
    ``tv_stats()`` (enabled as 0/1, blocks validated, blocks rejected);
    the failure-message list stays in the returned dict only.
    """
    engine = getattr(cpu, "_sb_engine", None)
    if engine is None:
        stats = {"enabled": False, "validated": 0, "rejected": 0,
                 "failures": []}
    else:
        stats = engine.tv_stats()
    _publish(registry if registry is not None else _GLOBAL, "analysis.tv",
             {key: value for key, value in stats.items()
              if key != "failures"})
    return stats


def collect_analysis(report, registry: Optional[MetricsRegistry] = None
                     ) -> dict:
    """Static-analyzer counters → registry + stats dict."""
    stats = {
        "image": {"origin": report.origin, "end": report.end,
                  "entry_ring": report.entry_ring,
                  "monitor_base": report.monitor_base},
        "coverage": dict(report.stats),
        "findings_by_severity": report.counts_by_severity(),
        "findings_by_check": report.counts_by_check(),
        "clean": report.clean,
    }
    _publish(registry if registry is not None else _GLOBAL, "analysis", stats)
    return stats


def collect_fault(plan, client=None, monitor=None,
                  devices: Optional[dict] = None,
                  registry: Optional[MetricsRegistry] = None) -> dict:
    """Fault-injection and recovery counters → registry + stats dict."""
    stats = {"plan": plan.stats()}
    if client is not None:
        stats["client"] = {
            "acks_seen": client.acks_seen,
            "naks_seen": client.naks_seen,
            "recoveries": dict(sorted(client.recoveries.items())),
        }
    if monitor is not None:
        mon = {
            "degradation_level": monitor.degradation_level,
            "wild_writes_injected": monitor.stats.wild_writes_injected,
            "spurious_interrupts_injected":
                monitor.stats.spurious_interrupts_injected,
            "resumes_refused": monitor.stats.resumes_refused,
            "debug_stops": monitor.stats.debug_stops,
            "guest_dead": monitor.guest_dead,
        }
        if monitor.watchdog is not None:
            mon["watchdog"] = dict(monitor.watchdog.stats)
        stats["monitor"] = mon
    if devices:
        counters = ("faults_injected", "rx_faults_injected",
                    "frames_dropped", "bytes_dropped", "bytes_corrupted")
        stats["devices"] = {
            name: {counter: getattr(device, counter)
                   for counter in counters if hasattr(device, counter)}
            for name, device in sorted(devices.items())}
    _publish(registry if registry is not None else _GLOBAL, "fault", stats)
    return stats


def collect_net(endpoint=None, result=None,
                registry: Optional[MetricsRegistry] = None) -> dict:
    """TCP endpoint / streaming-run counters → ``net.*`` gauges.

    ``endpoint`` is a :class:`repro.net.tcp.TcpEndpoint`; ``result`` a
    :class:`repro.workloads.streaming.TcpStreamResult`.  Either (or
    both) may be given; the server endpoint's aggregate TCP counters
    land under ``net.tcp.*`` (retransmits, rto_expirations, dupacks,
    ...), the streaming-ladder outcome under ``net.stream.*``.  The
    ``net.tcp.cwnd`` histogram and the ``net.rx.malformed`` counter
    are maintained live by their owners and are not touched here.
    """
    stats: dict = {}
    if endpoint is not None:
        stats["tcp"] = endpoint.stats()
    if result is not None:
        if "tcp" not in stats:
            stats["tcp"] = dict(result.server_stats)
        stats["stream"] = {
            "sessions": len(result.sessions),
            "sessions_shed": result.sessions_shed,
            "level": result.level,
            "counts": result.counts(),
            "aggregate_rate_bps": result.aggregate_rate_bps,
            "downlink": dict(result.downlink),
            "uplink": dict(result.uplink),
        }
    _publish(registry if registry is not None else _GLOBAL, "net", stats)
    return stats


def collect_replay(recorder=None, result=None, minimize=None,
                   store=None,
                   registry: Optional[MetricsRegistry] = None) -> dict:
    """Record/replay counters → registry + stats dict."""
    stats: dict = {}
    if recorder is not None:
        stats["recorder"] = recorder.stats()
    if result is not None:
        stats["replay"] = result.stats()
    if minimize is not None:
        stats["minimize"] = minimize.stats()
    if store is not None:
        stats["checkpoint_store"] = store.stats()
    _publish(registry if registry is not None else _GLOBAL, "replay", stats)
    return stats
