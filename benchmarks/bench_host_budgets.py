"""Host-time budgets: every host-cost gate of the system, as paired runs.

The paper's claims are in simulated time, and the paper benches check
them.  This module answers the host-time questions: what each
interpreter tier buys, and what an observer, the translation validator
and the flight recorder cost.  Every gate runs through one function,
:func:`paired`, on the measurement core of ``perfbench/harness.py``:

* a gate compares two sides, A and B, over :data:`PAIRS` pairs; the
  side that runs first alternates from pair to pair;
* each side is a :func:`harness.closed_loop` of short ops, each timed in
  thread CPU and scaled by the probe, after untimed warm-up ops; the
  side's median op latency is taken;
* the gate reads the median of the per-pair B/A latency ratios, and
  prints it with its min, max, IQR and pair count.

For an overhead gate A is the baseline, so B/A is B's cost.  For a tier
gate A is the faster tier, so B/A is A's speed-up over B.

Each side's op checks that it did its work (instructions retired,
events traced, spans collected, frames recorded, blocks validated) and
fails otherwise, and a gate fails on any failed op: no gate can pass
on a side that skipped its work.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_host_budgets.py
"""

from __future__ import annotations

import gc
import signal
import statistics
import sys
from pathlib import Path

from repro.asm import assemble
from repro.core import DebugSession
from repro.faults.campaign import run_scenario
from repro.fleet.jobs import Job, JobQueue
from repro.fleet.worker import FleetWorker
from repro.hw import Cpu, IoBus, PhysicalMemory
from repro.hw import firmware
from repro.obs.bus import TraceBus
from repro.obs.distributed.service import FleetObservability
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import GuestProfiler
from repro.obs.tracer import Tracer
from repro.replay import FlightRecorder

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from harness import PYTHON_PROBE, OpResult, closed_loop, spread  # noqa: E402
from workloads import ExecSlicesJob, GuestKernel  # noqa: E402

#: A/B pairs per gate, and timed ops per side after the untimed
#: warm-up ops.
PAIRS = 10
OPS = 15
WARMUP = 3
#: For a bound within a few percent of 1 on ops of a few milliseconds:
#: on a shared host one op's time spreads by 10-30%, and more samples
#: keep the median ratio's own error well inside the bound.
MANY_PAIRS = 20
MANY_OPS = 45
#: Wall-clock cap of one side's loop; ``OPS`` ends it long before.
SIDE_DEADLINE_S = 120.0
SEED = 1234

ORIGIN = 0x4000


def tight_loop(iterations: int):
    """An ALU and branch loop: the source and the instructions it
    retires."""
    return f"""
    MOVI R0, {iterations}
loop:
    ADDI R1, 3
    XORI R2, 0x55
    SUBI R0, 1
    JNZ  loop
    HLT
""", iterations * 4 + 2


def streaming_loop(iterations: int):
    """Read-modify-write marching through a 16 KiB buffer at 0x8000
    (wrapped with ANDI), accumulating a checksum: the shape of a memcpy
    or checksum kernel.  9 instructions per iteration, 4 of them memory
    operations.  Returns the source and the instructions it retires."""
    return f"""
    MOVI R0, {iterations}
    MOVI R2, 0x8000
loop:
    LD   R1, [R2+0]
    ADDI R1, 0x9E3779B9
    ST   [R2+0], R1
    ADD  R3, R1
    ADDI R2, 4
    ANDI R2, 0xBFFC
    ORI  R2, 0x8000
    SUBI R0, 1
    JNZ  loop
    HLT
""", iterations * 9 + 3


LOOPS = {
    "tight": tight_loop(2_500),
    "streaming": streaming_loop(5_000),
}

#: The verify-on-compile gate's run.  A proof is a one-off cost per
#: block (~3 ms on the streaming loop, whose 5k iterations take ~50 ms
#: compiled), so the run is long enough to amortise it as a guest does.
VERIFY_LOOP = streaming_loop(16_000)

#: The spin guest of the recorder hot-path gate, and its slices per op.
SPIN_GUEST = ("loop:\n    ADDI R1, 3\n    XORI R2, 0x55\n"
              "    JMP loop\n")
RECORDER_SLICES = 6
RECORDER_SLICE_INSNS = 2_000


class Side:
    """One side of a gate: ``op`` is timed, ``settle`` runs untimed
    after each op."""

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def settle(self) -> None:
        gc.collect()   # built machines sit in reference cycles


def paired(gate: str, make_a, make_b, pairs: int = PAIRS,
           ops: int = OPS) -> float:
    """The median over ``pairs`` A/B pairs of the ratio of B's median op
    latency to A's; ``make_a``/``make_b`` build a fresh :class:`Side`."""
    ratios = []
    for pair in range(pairs):
        order = [("A", make_a), ("B", make_b)]
        if pair % 2:
            order.reverse()
        medians = {}
        for label, make in order:
            side = make()
            for index in range(WARMUP):
                result = side.op(index)
                assert result.ok, f"{gate} {label} warm-up: {result.error}"
                side.settle()
            log = closed_loop(lambda index: side.op(WARMUP + index),
                              SIDE_DEADLINE_S, PYTHON_PROBE, max_ops=ops,
                              settle=side.settle)
            assert log.failed == 0 and len(log.latencies_s) == ops, \
                f"{gate} {label}: {log.failed} of {log.attempted} ops failed"
            medians[label] = statistics.median(log.latencies_s)
        ratios.append(medians["B"] / medians["A"])
    ratio = statistics.median(ratios)
    print(f"\n{gate}: B/A median {ratio:.3f}  range {min(ratios):.3f}-"
          f"{max(ratios):.3f}  IQR {spread(ratios):.1%}  pairs {pairs}")
    return ratio


# ----------------------------------------------------------------------
# Interpreter tiers and verify-on-compile: a bare CPU runs a loop to HLT
# ----------------------------------------------------------------------

class LoopRun(Side):
    """One op: a fresh CPU (built untimed, after the previous op) runs a
    loop from its first instruction to HLT, compiling its superblocks on
    the way when the tier translates."""

    def __init__(self, loop, tier: str, verify: bool = False) -> None:
        source, self.insns = loop
        self.program = assemble(source, origin=ORIGIN)
        self.tier = tier
        self.verify = verify
        self.cpu = self._build()

    def _build(self) -> Cpu:
        memory = PhysicalMemory(1 << 20)
        cpu = Cpu(memory, IoBus(), decode_cache=self.tier != "interp",
                  translate=self.tier == "superblock",
                  verify_translations=self.verify)
        firmware.install_flat_firmware(cpu)
        self.program.load_into(memory)
        cpu.pc = ORIGIN
        return cpu

    def op(self, index: int) -> OpResult:
        cpu = self.cpu
        executed = cpu.run(self.insns + 16)
        if not cpu.halted or executed != self.insns:
            return OpResult(ok=False, error=f"retired {executed} of "
                                            f"{self.insns} instructions")
        if self.tier == "superblock" \
                and not cpu.block_cache_stats()["blocks_compiled"]:
            return OpResult(ok=False, error="no superblock compiled")
        if self.verify:
            # A rejected block falls back to the interpreter, which
            # would time something else than validation.
            stats = cpu._sb_engine.tv_stats()
            if stats["validated"] < 1 or stats["rejected"]:
                return OpResult(ok=False, error=f"validator {stats}")
        return OpResult(guest_insns=executed)

    def settle(self) -> None:
        super().settle()
        self.cpu = self._build()


def tier_speedup(loop: str, fast: str, slow: str) -> float:
    """``fast``'s speed-up over ``slow`` on ``loop``."""
    return paired(f"{fast}/{slow} speed-up, {loop} loop",
                  lambda: LoopRun(LOOPS[loop], fast),
                  lambda: LoopRun(LOOPS[loop], slow))


def test_tier_decode_over_interp():
    """The decoded-instruction cache at least doubles the raw
    interpreter's speed on the tight loop."""
    assert tier_speedup("tight", "decode", "interp") >= 2.0


def test_tier_superblock_over_decode_streaming():
    """Superblocks at least double the decode cache's speed on the
    load/store-heavy streaming loop."""
    assert tier_speedup("streaming", "superblock", "decode") >= 2.0


def test_tier_superblock_over_decode_tight():
    """Translation wins on the tight loop too (the streaming loop is
    gated at >= 2.0 above)."""
    assert tier_speedup("tight", "superblock", "decode") > 1.0


def test_verify_on_compile():
    """Proving each superblock before it is installed costs at most 10%
    of a cold streaming run that compiles its blocks: each op builds a
    fresh CPU."""
    ratio = paired("verify-on-compile on/off, streaming loop",
                   lambda: LoopRun(VERIFY_LOOP, "superblock"),
                   lambda: LoopRun(VERIFY_LOOP, "superblock", verify=True))
    assert ratio <= 1.10


# ----------------------------------------------------------------------
# Observers on the LVMM: GuestKernel slices
# ----------------------------------------------------------------------

class KernelSlices(Side):
    """One op: one ``GuestKernel`` slice (E9's preemptive kernel under
    the LVMM) with no observer ever created (``never``), a tracer
    attached and detached before the run (``detached``), or a tracer
    and a guest profiler live (``tracing``)."""

    def __init__(self, mode: str) -> None:
        self.workload = GuestKernel(SEED)
        self.workload.adopt(self.workload.build())
        monitor = self.workload.monitor
        self.tracer = self.profiler = None
        if mode != "never":
            tracer = Tracer(TraceBus(), MetricsRegistry())
            tracer.attach(monitor=monitor)
            if mode == "detached":
                tracer.detach()
            else:
                self.tracer = tracer
                self.profiler = monitor.attach_profiler(
                    GuestProfiler(stride=4096))

    def op(self, index: int) -> OpResult:
        if self.tracer is None:
            return self.workload.op(index)
        events = self.tracer.bus.total_recorded
        samples = self.profiler.total_samples
        result = self.workload.op(index)
        if result.ok and (self.tracer.bus.total_recorded == events
                          or self.profiler.total_samples == samples):
            return OpResult(ok=False, error="the slice traced nothing")
        return result

    def settle(self) -> None:
        pass   # one long-lived machine; ops allocate little


def test_observer_detached():
    """Observability that was attached and detached is free."""
    ratio = paired("detached/never observer, guest-kernel slices",
                   lambda: KernelSlices("never"),
                   lambda: KernelSlices("detached"), MANY_PAIRS, MANY_OPS)
    assert ratio <= 1.02


def test_observer_tracing():
    """A live tracer plus the guest profiler cost at most 10%."""
    ratio = paired("tracing+profiler/never observer, guest-kernel slices",
                   lambda: KernelSlices("never"),
                   lambda: KernelSlices("tracing"), MANY_PAIRS, MANY_OPS)
    assert ratio <= 1.10


# ----------------------------------------------------------------------
# Fleet tracing: one exec-slices job, worker and supervisor side
# ----------------------------------------------------------------------

class Outbox(list):
    """The worker's end of its command pipe: each event it sends is
    appended."""
    send = list.append


class FleetJob(Side):
    """One op: a fleet ``exec-slices`` job (record on) submitted and
    dispatched as the supervisor dispatches it, run by a real
    :class:`FleetWorker` slice by slice, and its result event taken in
    as the supervisor takes it in, all in this thread.  Traced, the
    worker records a span per slice and per job and ships them in the
    result event, and the supervisor collects them
    (``FleetObservability.ingest_spans``)."""

    def __init__(self, traced: bool) -> None:
        self.workload = ExecSlicesJob(SEED)
        self.queue = JobQueue()
        self.obs = FleetObservability(trace=traced,
                                      registry=MetricsRegistry())
        self.outbox = Outbox()
        # The worker installs its process's SIGTERM handler; this
        # process keeps its own.
        handler = signal.getsignal(signal.SIGTERM)
        self.worker = FleetWorker(self.outbox, 0, {"trace": traced})
        signal.signal(signal.SIGTERM, handler)
        self.traced = traced

    def op(self, index: int) -> OpResult:
        record = self.queue.submit(Job(kind="exec-slices",
                                       params=self.workload.jobs[0]))
        self.obs.on_enqueue(record)
        message = {"op": "job", "id": record.id, "kind": record.job.kind,
                   "params": record.job.params, "attempt": 1}
        encoded = self.obs.on_dispatch(record, 0)
        if encoded is not None:
            message["trace"] = encoded
        worker = self.worker
        worker._handle(message)
        slices = worker.job.slices if worker.job is not None else 0
        while worker.job is not None:
            worker._step_job()
        event = self.outbox.pop()
        ingested = self.obs.collector.ingested
        self.obs.ingest_spans(0, event.get("spans", []), float(index))
        if not event["ok"]:
            return OpResult(ok=False, error=event["error"])
        self.obs.on_complete(record, float(index))
        digests = len(event["value"]["digests"])
        if not slices or digests != slices:
            return OpResult(ok=False, error=f"the job took {digests} "
                                            f"digests of {slices} slices")
        if self.traced and self.obs.collector.ingested - ingested < slices:
            return OpResult(ok=False, error="the supervisor collected "
                                            f"{len(event['spans'])} spans")
        return OpResult(guest_insns=event["value"]["instret"])


def test_fleet_tracing():
    """Distributed tracing of a fleet job costs at most 10%."""
    ratio = paired("traced/untraced fleet job, exec-slices",
                   lambda: FleetJob(traced=False),
                   lambda: FleetJob(traced=True), MANY_PAIRS, MANY_OPS)
    assert ratio <= 1.10


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------

class SpinSlices(Side):
    """One op: ``RECORDER_SLICES`` slices of a spin loop through an
    attached debug session, with or without a flight recorder; the
    recorder takes no periodic checkpoints, so only its per-event hot
    path runs."""

    def __init__(self, record: bool) -> None:
        self.session = DebugSession(monitor="lvmm")
        program = assemble(f".org {firmware.GUEST_KERNEL_BASE}\n"
                           f"{SPIN_GUEST}\n")
        self.recorder = None
        if record:
            self.recorder = FlightRecorder(
                self.session.machine, self.session.monitor,
                program=program, scenario="bench", seed=SEED,
                checkpoint_every=0)
        self.session.load_and_boot(program)
        self.session.attach()

    def op(self, index: int) -> OpResult:
        frames = len(self.recorder.frames) if self.recorder else 0
        for _ in range(RECORDER_SLICES):
            executed = self.session.run_guest(RECORDER_SLICE_INSNS)
            if executed != RECORDER_SLICE_INSNS:
                return OpResult(ok=False, error=f"a slice retired "
                                                f"{executed} instructions")
        if self.recorder is not None \
                and len(self.recorder.frames) == frames:
            return OpResult(ok=False, error="the recorder took no frames")
        return OpResult(guest_insns=RECORDER_SLICES * RECORDER_SLICE_INSNS)

    def settle(self) -> None:
        pass   # one long-lived machine; ops allocate little


class WildWrites(Side):
    """One op: the ``wild-writes`` chaos scenario, unrecorded, or
    recorded and its journal written the way ``repro.replay.cli
    record`` writes it (digests included)."""

    def __init__(self, journal_dir=None) -> None:
        self.journal_dir = journal_dir

    def op(self, index: int) -> OpResult:
        if self.journal_dir is None:
            result = run_scenario("wild-writes", SEED, record=False)
            ok = "recorder" not in result["fault_stats"]
        else:
            result = run_scenario("wild-writes", SEED, strict_guest=True,
                                  journal_dir=self.journal_dir)
            ok = "journal" in result \
                and result["fault_stats"]["recorder"]["checkpoints"] > 0
        return OpResult(ok=ok, error="" if ok else "recording state wrong")


def test_recorder_hot_path():
    """Recording costs under 1.5x on its hot path, cheap enough to be
    on by default in the chaos campaign."""
    ratio = paired("recorder on/off hot path, spin slices",
                   lambda: SpinSlices(record=False),
                   lambda: SpinSlices(record=True), MANY_PAIRS, MANY_OPS)
    assert ratio < 1.5


def test_recorder_scenario(tmp_path):
    """A recorded scenario, state digests and journal included, costs
    under 10x an unrecorded one: a guard against a quadratic recorder."""
    ratio = paired("recorded/unrecorded wild-writes scenario",
                   lambda: WildWrites(),
                   lambda: WildWrites(journal_dir=str(tmp_path)))
    assert ratio < 10.0
