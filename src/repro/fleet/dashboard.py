"""Fleet dashboard: the control plane and fleet metrics in one export.

Every heartbeat carries the worker's whole
:func:`~repro.obs.metrics.global_registry` snapshot, so the supervisor
holds a recent metrics view of every worker without any extra RPC;
its :class:`~repro.obs.distributed.aggregate.MetricsAggregator` sums
them (``"fleet_metrics"``).  :func:`build_dashboard` merges that with
the supervisor's own ``fleet.*`` gauges into one JSON document;
:func:`format_status` renders the human view the ``repro-fleet
status`` verb prints — including the degradation-ladder state, which
is part of the fleet's operational contract.
"""

from __future__ import annotations

import json
import time
from typing import Dict

from repro.obs.metrics import global_registry


def build_dashboard(fleet) -> Dict:
    """The whole control plane as one JSON-ready document."""
    return {
        "level": fleet.level,
        "workers": {
            str(slot.index): {
                "status": slot.status,
                "pid": slot.pid,
                "restarts": slot.restarts,
                "job": slot.job.id if slot.job else None,
                "progress": slot.progress,
                "heartbeats": slot.heartbeat_seq,
                "metrics": slot.metrics,
            } for slot in fleet.slots
        },
        "jobs": fleet.queue.counts(),
        "dead_letter": [record.id
                        for record in fleet.queue.dead_letter],
        "shed": [record.id for record in fleet.queue.shed],
        "transitions": [{"from": src, "to": dst, "reason": reason}
                        for _, src, dst, reason in fleet.transitions],
        "fleet_metrics": fleet.obs.fleet_metrics(),
        "percentiles": fleet.obs.percentile_summary(),
        "slo": fleet.obs.slo_status(time.monotonic()),
        "supervisor_metrics": {
            name: metric for name, metric
            in global_registry().snapshot().items()
            if name.startswith("fleet.")},
    }


def export_dashboard(fleet, path) -> Dict:
    dashboard = build_dashboard(fleet)
    with open(path, "w") as handle:
        json.dump(dashboard, handle, indent=2, sort_keys=True)
    return dashboard


def format_status(fleet) -> str:
    """Human-readable control-plane state (``repro-fleet status``)."""
    counts = fleet.queue.counts()
    lines = [f"ladder: {fleet.level}",
             f"workers: {fleet.healthy_workers()}/{len(fleet.slots)} "
             f"healthy"]
    for slot in fleet.slots:
        job = slot.job.id if slot.job else "-"
        lines.append(f"  worker {slot.index}: {slot.status:<9} "
                     f"pid={slot.pid} restarts={slot.restarts} "
                     f"job={job} progress={slot.progress}")
    lines.append("jobs: " + " ".join(f"{status}={count}"
                                     for status, count
                                     in sorted(counts.items())))
    if fleet.queue.dead_letter:
        lines.append("dead-letter: " + ", ".join(
            record.id for record in fleet.queue.dead_letter))
    if fleet.queue.shed:
        lines.append("shed: " + ", ".join(
            record.id for record in fleet.queue.shed))
    for _, src, dst, reason in fleet.transitions:
        lines.append(f"  transition: {src} -> {dst} ({reason})")
    firing = sorted(name for name, on
                    in fleet.obs.evaluator.firing.items() if on)
    if firing:
        lines.append("slo firing: " + ", ".join(firing))
    return "\n".join(lines)
