"""The four workloads.  Each is a closed loop with one client (or one
job) in flight: the next op starts when the previous one finished.

A workload builds its system to a ready state (``build``, timed for
``setup_s``), adopts one build for measurement (``adopt``), then runs
``op(i)`` back to back.  ``counters()`` returns the simulated counters
that must repeat exactly (from run to run, and between the traced and
untraced phases); ``stats()`` returns cumulative simulator counters the
per-layer metrics are computed from.
"""

from __future__ import annotations

import pickle
import random
import time
from typing import Dict, List, Optional

from harness import PYTHON_PROBE, OpResult, Probe
from harness import cpu_clock as clock


class Workload:
    name = ""
    #: The probe host times are scaled by (None: raw host time).
    probe: Optional[Probe] = PYTHON_PROBE
    #: Peak memory includes the largest child process (fleet workers).
    child_processes = False
    #: Tail percentile: the highest one with ten samples beyond it at
    #: the op rate this workload reaches in a run.
    tail_pct = 90.0
    setup_repeats = 41
    #: Collect garbage after every op (untimed): for ops whose objects
    #: only a full collection frees.
    collect_between_ops = False
    warmup_ops = 10
    #: Ops (warm-up included) after which ``counters()`` is taken.
    check_after = 20
    #: Fixed values ``counters()`` must equal, when they do not depend on
    #: the seed.
    expected: Optional[Dict] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self):
        raise NotImplementedError

    def adopt(self, built) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def counters(self) -> Dict:
        raise NotImplementedError

    def stats(self) -> Dict[str, float]:
        return {}


def _cpu_stats(machine, monitor) -> Dict[str, float]:
    """Cumulative CPU, interpreter, monitor and budget counters."""
    cpu = machine.cpu
    blocks = cpu.block_cache_stats()
    tlb = cpu.mmu.tlb
    stats = {
        "instret": cpu.instret,
        "cycles": cpu.cycle_count,
        "decode_hits": cpu.decode_cache_hits,
        "decode_misses": cpu.decode_cache_misses,
        "block_hits": blocks["hits"],
        "block_insns": blocks["insns_translated"],
        "compiles": blocks["blocks_compiled"],
        "guard_failures": blocks["guard_failures"],
        "tlb_hits": tlb.hits,
        "tlb_misses": tlb.misses,
        "traps": monitor.stats.traps_emulated,
        "irqs": monitor.stats.interrupts_reflected,
        "uart_in": monitor.stats.uart_bytes_in,
        "uart_out": monitor.stats.uart_bytes_out,
    }
    for category, cycles in machine.budget.by_category().items():
        stats[f"budget.{category}"] = cycles
    return stats


# ----------------------------------------------------------------------
# debug-roundtrip
# ----------------------------------------------------------------------

class DebugRoundtrip(Workload):
    """One op is one pass over a fixed packet mix from a single RSP
    client to the asm mini-kernel under the LVMM:

    ``Z0``+``c``+``z0`` (continue to the timer-ISR breakpoint), ``g``,
    ``m`` (256 bytes of kernel image at a seeded address), ``M`` (64
    seeded bytes at a seeded scratch address, read back untimed),
    ``s``, ``qRcmd`` (``monitor stats``)."""

    name = "debug-roundtrip"
    warmup_ops = 20
    check_after = 40
    #: Scratch area the mini-kernel never touches.
    SCRATCH = 0x40_0000

    def build(self):
        from repro.core import DebugSession
        from repro.guest import KernelConfig, build_kernel
        session = DebugSession(monitor="lvmm")
        kernel = build_kernel(KernelConfig(ticks_to_run=1_000_000_000))
        session.load_and_boot(kernel)
        session.attach()
        return session, kernel

    def adopt(self, built) -> None:
        self.session, self.kernel = built
        self.client = self.session.client
        self.isr = self.kernel.symbol("timer_isr")
        image = self.kernel.image
        rng = random.Random(self.seed)
        # 64 distinct (read address, write address, data) triples.
        self.inputs = []
        for _ in range(64):
            offset = rng.randrange(0, len(image) - 256) & ~3
            waddr = self.SCRATCH + (rng.randrange(0, 0x1000) & ~3)
            data = bytes(rng.randrange(256) for _ in range(64))
            self.inputs.append((offset, waddr, data))

    def op(self, index: int) -> OpResult:
        from repro.rsp.target import REG_PC_INDEX
        client = self.client
        machine = self.session.machine
        offset, waddr, data = self.inputs[index % len(self.inputs)]
        cycles0, insns0 = machine.cpu.cycle_count, machine.cpu.instret
        parts = {}
        errors = []

        start = clock()
        client.set_breakpoint(self.isr)
        stop = client.cont()
        client.clear_breakpoint(self.isr)
        parts["c"] = clock() - start
        if not stop.startswith(b"S05"):
            errors.append(f"stop reply {stop!r}")

        start = clock()
        regs = client.read_registers()
        parts["g"] = clock() - start
        if regs[REG_PC_INDEX] != self.isr:
            errors.append(f"pc {regs[REG_PC_INDEX]:#x} != timer_isr")

        start = clock()
        blob = client.read_memory(self.kernel.origin + offset, 256)
        parts["m"] = clock() - start
        if blob != self.kernel.image[offset:offset + 256]:
            errors.append("m bytes differ from the kernel image")

        start = clock()
        client.write_memory(waddr, data)
        parts["M"] = clock() - start
        if client.read_memory(waddr, len(data)) != data:
            errors.append("M write did not read back")

        start = clock()
        stop = client.step()
        parts["s"] = clock() - start
        if not stop.startswith(b"S05"):
            errors.append(f"step reply {stop!r}")

        start = clock()
        text = client.monitor_command("stats")
        parts["qRcmd"] = clock() - start
        if "traps emulated" not in text:
            errors.append("monitor stats reply lacks the trap line")

        hz = machine.config.cpu_hz
        return OpResult(ok=not errors, error="; ".join(errors),
                        sim_s=(machine.cpu.cycle_count - cycles0) / hz,
                        guest_insns=machine.cpu.instret - insns0,
                        parts_s=parts)

    def counters(self) -> Dict:
        stats = _cpu_stats(self.session.machine, self.session.monitor)
        return {key: stats[key] for key in
                ("instret", "cycles", "traps", "irqs", "uart_in",
                 "uart_out")}

    def stats(self) -> Dict[str, float]:
        stats = _cpu_stats(self.session.machine, self.session.monitor)
        stats["retransmits"] = sum(self.client.recoveries.values())
        return stats


# ----------------------------------------------------------------------
# guest-kernel
# ----------------------------------------------------------------------

class GuestKernel(Workload):
    """One op is a fixed slice of guest instructions of E9's preemptive
    three-task kernel under the LVMM.  The PIT rate sets the IRQ
    density (each tick is a reflected IRQ plus a context switch); it is
    fixed here at about one IRQ per 2k instructions."""

    name = "guest-kernel"
    #: A slice that lands in a burst of host contention can take twice
    #: its time even probe-scaled, and bursts covering more than a tenth
    #: of a run happen: p90 followed them, p75 does not.
    tail_pct = 75.0
    SLICE = 20_000
    TIMER_HZ = 600_000
    BUSY_LOOPS = 2_000
    warmup_ops = 20
    check_after = 60
    #: The kernel state after ``check_after`` slices from boot.
    expected = {"instret": 1198811, "cycles": 1240843, "traps": 602,
                "irqs": 587, "task_counters": [98, 98, 98], "console": 294}

    def build(self):
        from repro.asm import assemble
        from repro.guest.asmthreads import threaded_kernel_source
        from repro.hw.machine import Machine
        from repro.vmm import LightweightVmm
        machine = Machine()
        program = assemble(threaded_kernel_source(
            3, 1_000_000_000, preemptive=True, timer_hz=self.TIMER_HZ,
            busy_loops=self.BUSY_LOOPS))
        program.load_into(machine.memory)
        monitor = LightweightVmm(machine)
        monitor.install()
        monitor.boot_guest(program.origin)
        return machine, monitor

    def adopt(self, built) -> None:
        self.machine, self.monitor = built

    def op(self, index: int) -> OpResult:
        cpu = self.machine.cpu
        cycles0 = cpu.cycle_count
        executed = self.monitor.run(self.SLICE)
        ok = executed == self.SLICE and not self.monitor.guest_dead
        return OpResult(ok=ok, error="" if ok else
                        f"slice retired {executed} instructions",
                        sim_s=(cpu.cycle_count - cycles0)
                        / self.machine.config.cpu_hz,
                        guest_insns=executed)

    def counters(self) -> Dict:
        from repro.guest.asmthreads import read_counters
        stats = _cpu_stats(self.machine, self.monitor)
        out = {key: stats[key] for key in
               ("instret", "cycles", "traps", "irqs")}
        out["task_counters"] = read_counters(self.machine.memory, 3)
        out["console"] = len(self.monitor.console)
        return out

    def stats(self) -> Dict[str, float]:
        return _cpu_stats(self.machine, self.monitor)


# ----------------------------------------------------------------------
# exec-slices
# ----------------------------------------------------------------------

#: Op ids of the fleet jobs a traced run records: below the ids of the
#: measured ops (>= 0) and of set-up (-1).
FLEET_OP_BASE = -2


class ExecSlicesJob(Workload):
    """One op is one fleet ``exec-slices`` job (record on) run the way
    the fleet worker runs it: :class:`repro.fleet.worker.ExecSlices`
    built, stepped to the end, its result taken.  It runs in the
    benchmark's thread so its CPU time can be measured; timed
    submit-to-result over a worker process, the job time was dominated
    by host scheduling.  The job's guest is seeded: four variants per
    run.

    Before each measured phase the variants also run, untimed, as real
    jobs on a 1-worker fleet: every op's digests must equal the
    worker's, and in the traced run those jobs give the supervisor-side
    metrics (queue wait, dispatch to result, polls)."""

    name = "exec-slices"
    #: Raw CPU time: the job is ~95% state digests (16 MiB copy plus
    #: sha256), which no probe tracked; scaled by a 1 MiB or a 16 MiB
    #: copy-plus-sha256 probe, its median drifted 12-21% between runs.
    probe = None
    #: ~4 jobs/s: a run holds ~90 ops, too few for ten beyond p90.
    tail_pct = 75.0
    #: Peak memory includes the fleet worker.
    child_processes = True
    #: Each job's 16 MiB machine sits in reference cycles.
    collect_between_ops = True
    warmup_ops = 4
    check_after = 5
    POLL_S = 0.0005
    VARIANTS = 4
    #: Fleet jobs per variant before each measured phase.
    FLEET_ROUNDS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.jobs: List[Dict] = []
        for _ in range(self.VARIANTS):
            start = rng.randrange(1 << 16)
            body = (f"    MOVI R1, {start}\nloop:\n    ADDI R1, 1\n"
                    f"    JMP loop")
            self.jobs.append({"slices": 4, "slice_insns": 2000,
                              "record": True, "seed": start,
                              "guest_body": body})
        #: Per variant: the fleet worker's result.
        self.fleet_results: List[Dict] = []
        #: Set by the traced run.
        self.tracer = None
        self.last_job = None
        #: CPU, interpreter and monitor counters summed over all ops.
        self.totals: Dict[str, float] = {}

    def build(self):
        """A job ready to run: machine, LVMM, recorder, booted guest."""
        from repro.fleet.worker import ExecSlices
        return ExecSlices(dict(self.jobs[0]))

    def adopt(self, built) -> None:
        self._run_fleet()

    def _run_fleet(self) -> None:
        """Run every variant ``FLEET_ROUNDS`` times on a 1-worker fleet;
        the rounds must agree."""
        from repro.fleet.jobs import (STATUS_DEAD_LETTER, STATUS_DONE,
                                      STATUS_SHED, Job)
        from repro.fleet.supervisor import Fleet, FleetConfig
        finished = (STATUS_DONE, STATUS_DEAD_LETTER, STATUS_SHED)
        tracer = self.tracer
        results: List[Dict] = []
        fleet = Fleet(FleetConfig(workers=1, hang_timeout=60.0)).start()
        try:
            if not fleet.wait_ready(timeout=120.0):
                raise RuntimeError("fleet worker never became ready")
            for index in range(self.FLEET_ROUNDS * self.VARIANTS):
                variant = index % self.VARIANTS
                if tracer is not None:
                    tracer.begin_op(FLEET_OP_BASE - index)
                try:
                    record = fleet.submit(Job(
                        kind="exec-slices", params=dict(self.jobs[variant]),
                        priority=9, timeout_s=60.0))
                    deadline = time.perf_counter() + 60.0
                    while time.perf_counter() < deadline:
                        fleet.poll()
                        if record.status in finished:
                            break
                        self._wait()
                finally:
                    if tracer is not None:
                        tracer.end_op()
                if record.status != STATUS_DONE:
                    raise RuntimeError(f"fleet job {record.status}: "
                                       f"{record.error}")
                if index < self.VARIANTS:
                    results.append(record.result)
                elif record.result["digests"] != results[variant]["digests"]:
                    raise RuntimeError("two fleet runs of one job gave "
                                       "different digests")
            self.result_bytes = len(pickle.dumps(record.result))
            self.snapshot_bytes = len(pickle.dumps(fleet.slots[0].metrics))
        finally:
            fleet.shutdown()
        self.fleet_results = results

    def _wait(self) -> None:
        """Idle while the worker runs the job (traced as ``fleet.wait``)."""
        time.sleep(self.POLL_S)

    def op(self, index: int) -> OpResult:
        from repro.fleet.worker import ExecSlices
        variant = index % self.VARIANTS
        job = ExecSlices(dict(self.jobs[variant]))
        while not job.finished:
            job.step()
        result = job.result()
        self.last_job = job
        for key, value in _cpu_stats(job.machine, job.monitor).items():
            self.totals[key] = self.totals.get(key, 0) + value
        worker = self.fleet_results[variant]
        if (result["digests"], result["instret"]) \
                != (worker["digests"], worker["instret"]):
            return OpResult(ok=False, error="job digests differ from the "
                                            "fleet worker's")
        machine = job.machine
        return OpResult(sim_s=machine.cpu.cycle_count
                        / machine.config.cpu_hz,
                        guest_insns=result["instret"])

    def counters(self) -> Dict:
        return {"digests": [r["digests"] for r in self.fleet_results],
                "instret": [r["instret"] for r in self.fleet_results]}

    def stats(self) -> Dict[str, float]:
        return dict(self.totals)


# ----------------------------------------------------------------------
# fig31-transfer
# ----------------------------------------------------------------------

class Fig31Transfer(Workload):
    """One op is one Fig. 3.1 point: a fresh LVMM data transfer at
    150 Mbps over 0.4 simulated seconds, long enough to reach the
    steady rate.  Deterministic: the seed is unused."""

    name = "fig31-transfer"
    RATE_BPS = 150e6
    WINDOW_S = 0.4
    #: Set-up window: 10 simulated microseconds.
    SETUP_WINDOW_S = 1e-5
    #: One op is ~0.4 s of host time, so a run holds ~50 ops: p75 is
    #: the highest percentile with ten samples beyond it.
    tail_pct = 75.0
    warmup_ops = 2
    check_after = 4
    expected = {"demanded_load": 0.8390350218253968,
                "achieved_rate_bps": 148556200.0,
                "segments_sent": 7, "interrupts": 5318}

    def build(self):
        """A built, started stack: ``measure_load`` over a window too
        short for the first segment."""
        from repro.perf import load
        return load.measure_load("lvmm", self.RATE_BPS, self.SETUP_WINDOW_S)

    def adopt(self, built) -> None:
        self.sample = None

    def op(self, index: int) -> OpResult:
        from repro.perf import load
        sample = load.measure_load("lvmm", self.RATE_BPS, self.WINDOW_S)
        self.sample = sample
        got = self._outputs(sample)
        if got != self.expected:
            return OpResult(ok=False, error=f"fig31 outputs {got} != "
                                            f"{self.expected}")
        return OpResult(sim_s=self.WINDOW_S)

    @staticmethod
    def _outputs(sample) -> Dict:
        return {"demanded_load": sample.demanded_load,
                "achieved_rate_bps": sample.achieved_rate_bps,
                "segments_sent": sample.segments_sent,
                "interrupts": sample.interrupts}

    def counters(self) -> Dict:
        return self._outputs(self.sample)


WORKLOADS = {cls.name: cls for cls in
             (DebugRoundtrip, GuestKernel, ExecSlicesJob, Fig31Transfer)}
