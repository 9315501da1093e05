"""Worker-side span recording and the span wire shape.

A fleet worker owns a local :class:`~repro.obs.bus.TraceBus`; the
:class:`WorkerSpanRecorder` binds the job's :class:`~repro.obs
.distributed.context.TraceContext` into it so the worker's spans
(slice execution, RSP servicing, watchdog transitions) land on the
same causal tree as the supervisor's (enqueue, dispatch, retry,
resume).  Timestamps are the job machine's own simulated cycles —
deterministic, like every other clock in this tree.

Spans leave the worker as plain dicts (the *wire shape*) riding the
existing pipe protocol: a batch on every heartbeat, a final flush on
the result event.  The recorder drains the bus incrementally by
sequence number, so a span is shipped exactly once; spans that fall
out of the ring before a drain are visible as the bus's
``obs.bus.dropped`` metric, never silently lost.

Wire shape (one dict per span)::

    {"trace": "<TraceContext.encode()>", "name": "slice",
     "cat": "fleet", "ph": "X" | "i", "ts": <cycle>, "dur": <cycles>,
     "instret": <retired>, "args": {...}}
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.bus import (CAT_FLEET, PH_COMPLETE, PH_INSTANT, TraceBus,
                           TraceRecord)
from repro.obs.distributed.context import (SpanAllocator, TraceContext,
                                           worker_site)
from repro.obs.metrics import MetricsRegistry, global_registry

#: Histogram buckets for slice/job latency in simulated cycles.
LATENCY_BUCKETS = (100, 200, 500, 1000, 2000, 5000, 10_000, 20_000,
                   50_000, 100_000, 200_000, 500_000, 1_000_000)

#: Merged-histogram names the aggregator derives percentiles from.
SLICE_LATENCY_METRIC = "fleet.slice.cycles"
JOB_LATENCY_METRIC = "fleet.job.cycles"


def record_to_wire(record: TraceRecord) -> Dict:
    """One bus record (carrying a ``trace`` arg) -> wire dict."""
    args = dict(record.args)
    trace = args.pop("trace", "")
    wire = {"trace": trace, "name": record.name, "cat": record.category,
            "ph": record.phase, "ts": record.cycle,
            "instret": record.instret}
    if record.phase == PH_COMPLETE:
        wire["dur"] = record.dur
    if args:
        wire["args"] = args
    return wire


class WorkerSpanRecorder:
    """Bind fleet trace contexts into one worker's local trace bus."""

    def __init__(self, worker_index: int,
                 bus: Optional[TraceBus] = None,
                 registry: Optional[MetricsRegistry] = None,
                 capacity: int = 65536) -> None:
        self.worker_index = worker_index
        self.alloc = SpanAllocator(worker_site(worker_index))
        self.bus = bus if bus is not None else TraceBus(capacity=capacity)
        self.registry = registry if registry is not None \
            else global_registry()
        self.bus.bind_metrics(self.registry)
        self.bus.enabled = True
        self._slice_hist = self.registry.histogram(
            SLICE_LATENCY_METRIC, buckets=LATENCY_BUCKETS,
            help="one exec slice, simulated cycles")
        self._job_hist = self.registry.histogram(
            JOB_LATENCY_METRIC, buckets=LATENCY_BUCKETS,
            help="one whole job on this worker, simulated cycles")
        #: Everything below this bus sequence number has been shipped.
        self._drained = 0
        #: The running job's span context (parent of slice spans).
        self.job_ctx: Optional[TraceContext] = None
        self._job_start_cycle = 0
        self._job_id: Optional[str] = None
        #: The mux client's context (parent of RSP service spans).
        self.rsp_ctx: Optional[TraceContext] = None

    # -- clocks --------------------------------------------------------------

    @staticmethod
    def clock(machine) -> int:
        if machine is None:
            return 0
        cycle = machine.cpu.cycle_count
        return max(cycle, machine.queue.now)

    # -- job lifecycle -------------------------------------------------------

    def start_job(self, encoded: str, job_id: str, machine=None) -> None:
        """Open the worker-side job span under the supervisor's span."""
        parent = TraceContext.decode(encoded)
        self.job_ctx = self.alloc.child(parent)
        self._job_id = job_id
        self._job_start_cycle = self.clock(machine)
        self.bus.instant(
            CAT_FLEET, "job-start", self._job_start_cycle,
            args={"trace": self.job_ctx.encode(), "job": job_id,
                  "worker": self.worker_index})

    def note_slice(self, index: int, start_cycle: int, end_cycle: int,
                   instret: int = 0) -> None:
        """One executed slice: a complete span + a latency observation
        carrying the trace id as its exemplar."""
        if self.job_ctx is None:
            return
        ctx = self.alloc.child(self.job_ctx)
        dur = max(0, end_cycle - start_cycle)
        self.bus.complete(
            CAT_FLEET, "slice", start_cycle, dur, instret,
            args={"trace": ctx.encode(), "slice": index,
                  "worker": self.worker_index})
        self._slice_hist.observe(dur, exemplar=ctx.encode())

    def finish_job(self, ok: bool, machine=None) -> None:
        """Close the job span (a complete span over the whole job)."""
        if self.job_ctx is None:
            return
        end = self.clock(machine)
        dur = max(0, end - self._job_start_cycle)
        self.bus.complete(
            CAT_FLEET, "job-run", self._job_start_cycle, dur,
            args={"trace": self.job_ctx.encode(), "job": self._job_id,
                  "worker": self.worker_index, "ok": int(ok)})
        self._job_hist.observe(dur, exemplar=self.job_ctx.encode())
        self.job_ctx = None
        self._job_id = None

    # -- RSP servicing -------------------------------------------------------

    def bind_rsp(self, encoded: str) -> None:
        """Adopt the mux client's context for RSP service spans."""
        parent = TraceContext.decode(encoded)
        self.rsp_ctx = self.alloc.child(parent)

    def note_rsp(self, direction: str, nbytes: int, machine=None) -> None:
        if self.rsp_ctx is None:
            return
        ctx = self.alloc.child(self.rsp_ctx)
        self.bus.instant(
            CAT_FLEET, f"rsp-{direction}", self.clock(machine),
            args={"trace": ctx.encode(), "bytes": nbytes,
                  "worker": self.worker_index})

    # -- shipping ------------------------------------------------------------

    def drain(self) -> List[Dict]:
        """Wire dicts for every span not yet shipped (may be empty)."""
        batch = [record_to_wire(record) for record in self.bus
                 if record.seq >= self._drained
                 and record.phase in (PH_COMPLETE, PH_INSTANT)]
        self._drained = self.bus.total_recorded
        return batch
