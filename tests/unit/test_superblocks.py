"""Superblock translation: the tracing JIT must be observably invisible.

Every test here is differential at heart — the same guest runs on a
translating CPU and a plain decode-cache CPU, and *all* architectural
state (registers, flags, PC, instret, cycle count, memory) must match
instruction-for-instruction.  The invalidation tests then prove that
self-modifying code, host/DMA writes and breakpoint mutation tear
blocks down through exactly the machinery the decode cache uses."""

import random

import pytest

from repro.asm import assemble
from repro.errors import TripleFault
from repro.hw import Cpu, IoBus, PhysicalMemory
from repro.hw import firmware
from repro.hw.isa import VEC_DB
from repro.hw.machine import Machine, MachineConfig
from repro.obs.metrics import MetricsRegistry, collect_interp
from repro.obs.profiler import GuestProfiler
from repro.vmm import LightweightVmm

ORIGIN = 0x4000
SCRATCH = 0x9000


def make_cpu(translate=True, decode_cache=True):
    memory = PhysicalMemory(1 << 20)
    cpu = Cpu(memory, IoBus(), decode_cache=decode_cache,
              translate=translate)
    firmware.install_flat_firmware(cpu)
    return cpu


def load(cpu, source, origin=ORIGIN):
    program = assemble(source, origin=origin)
    program.load_into(cpu.memory)
    cpu.pc = origin
    return program


def run_pair(source, max_instructions=1_000_000, prepare=None):
    """Run ``source`` with translation on and off; return both CPUs."""
    cpus = []
    for translate in (True, False):
        cpu = make_cpu(translate=translate)
        load(cpu, source)
        if prepare is not None:
            prepare(cpu)
        executed = cpu.run(max_instructions)
        cpus.append((cpu, executed))
    return cpus


def assert_architecturally_equal(fast, slow):
    (a, executed_a), (b, executed_b) = fast, slow
    assert a.regs == b.regs
    assert a.flags == b.flags
    assert a.pc == b.pc
    assert a.halted == b.halted
    assert a.instret == b.instret
    assert a.cycle_count == b.cycle_count
    assert executed_a == executed_b
    assert a.memory.read(SCRATCH, 256) == b.memory.read(SCRATCH, 256)


HOT_LOOP = """
    MOVI R0, 500
loop:
    ADDI R1, 3
    XORI R2, 0x55
    CMPI R1, 900
    SUBI R0, 1
    JNZ  loop
    HLT
"""


TIGHT_LOOP = """
    MOVI R0, 5000
loop:
    ADDI R1, 3
    XORI R2, 0x55
    SUBI R0, 1
    JNZ  loop
    HLT
"""


#: A hot loop whose DIV faults mid-block once R5 drops to 0.
FAULTING_LOOP = """
    MOVI R0, 300
    MOVI R5, 1
loop:
    ADDI R1, 1
    DIV  R2, R5
    SUBI R0, 1
    JNZ  loop
    MOVI R5, 0
    MOVI R0, 4
    JMP  loop
"""


def small_machine():
    return Machine(MachineConfig(memory_size=1 << 20, disks=[],
                                 with_nic=False))


def run_bare():
    cpu = make_cpu(translate=True)
    load(cpu, HOT_LOOP)
    cpu.run(600)  # compile the loop
    return cpu


def run_machine():
    machine = small_machine()
    load(machine.cpu, HOT_LOOP)
    machine.run(600)
    return machine.cpu


def run_monitor_profiled():
    machine = Machine()
    monitor = LightweightVmm(machine)
    monitor.install()
    load(machine.cpu, HOT_LOOP, origin=firmware.GUEST_KERNEL_BASE)
    monitor.boot_guest(firmware.GUEST_KERNEL_BASE)
    profiler = monitor.attach_profiler(GuestProfiler(stride=64))
    monitor.run(600)
    assert profiler.total_samples
    return machine.cpu


def run_machine_to_triple_fault():
    """No IDT, so the in-block #DE and then #DF cannot be delivered."""
    machine = small_machine()
    load(machine.cpu, FAULTING_LOOP)
    with pytest.raises(TripleFault):
        machine.run(100_000)
    # A divisor and a count the loop can be stepped with.
    machine.cpu.regs[0], machine.cpu.regs[5] = 100, 1
    return machine.cpu


class TestEquivalence:
    def test_hot_loop_matches_interpreter_exactly(self):
        # (loop, hit-rate floor): a long tight loop must run almost
        # entirely inside its block, which no guard ever rejects.
        for source, floor in ((HOT_LOOP, 0.5), (TIGHT_LOOP, 0.99)):
            pair = run_pair(source)
            assert_architecturally_equal(*pair)
            (fast, _), _ = pair
            stats = fast.block_cache_stats()
            assert stats["blocks_compiled"] >= 1
            assert stats["insns_translated"] > 0
            assert stats["hit_rate"] > floor
            assert stats["guard_failures"] == 0

    def test_memory_loop_matches_interpreter_exactly(self):
        pair = run_pair(f"""
            MOVI R0, 200
            MOVI R6, {SCRATCH}
        loop:
            LD   R1, [R6+0]
            ADDI R1, 7
            ST   [R6+0], R1
            ADD  R3, R1
            SUBI R0, 1
            JNZ  loop
            HLT
        """)
        assert_architecturally_equal(*pair)

    def test_run_cap_lands_on_the_same_instruction(self):
        """Stopping mid-loop must stop at the identical instruction:
        blocks may never overshoot ``max_instructions``."""
        for cap in (7, 64, 129, 333, 1000):
            pair = run_pair(HOT_LOOP, max_instructions=cap)
            assert_architecturally_equal(*pair)
            (_, executed), _ = pair
            assert executed <= cap

    def test_division_and_fault_free_alu_mix(self):
        pair = run_pair("""
            MOVI R0, 100
            MOVI R1, 1000000
        loop:
            DIVI R1, 3
            ADDI R1, 500
            MULI R2, 7
            ADDI R2, 1
            NOT  R3
            NEG  R4
            SUBI R0, 1
            JNZ  loop
            HLT
        """)
        assert_architecturally_equal(*pair)

    def test_divide_fault_inside_block_is_exact(self):
        """#DE raised by a handler mid-block: the fault must see the
        per-instruction instret/cycles and the faulting PC."""
        source = """
            MOVI R0, 60
            MOVI R5, 2
        loop:
            ADDI R1, 1
            DIV  R2, R5
            SUBI R0, 1
            JNZ  loop
            MOVI R5, 0
            MOVI R0, 4
            JMP  loop
        """
        results = []
        for translate in (True, False):
            cpu = make_cpu(translate=translate)
            load(cpu, source)
            faults = []

            def hook(c, vector, error, faults=faults):
                faults.append((vector, c.pc, c.instret, c.cycle_count))
                c.halted = True
                return True

            cpu.exception_hook = hook
            cpu.run(100_000)
            results.append((faults, cpu.regs[:], cpu.instret,
                            cpu.cycle_count))
        assert results[0] == results[1]
        assert results[0][0], "the #DE must actually fire"


class TestDifferentialRandomPrograms:
    """Seeded random guest loops over the translatable subset: ALU,
    shifts, memory traffic, compares and forward branches."""

    REGS = (1, 2, 3, 4, 5)

    def _random_body(self, rng, index):
        kind = rng.randrange(8)
        r = rng.choice(self.REGS)
        s = rng.choice(self.REGS)
        if kind == 0:
            op = rng.choice(("ADDI", "SUBI", "XORI", "ANDI", "ORI",
                             "MULI"))
            return [f"    {op} R{r}, {rng.randrange(1, 1 << 16)}"]
        if kind == 1:
            op = rng.choice(("ADD", "SUB", "AND", "OR", "XOR", "MOV"))
            return [f"    {op} R{r}, R{s}"]
        if kind == 2:
            op = rng.choice(("SHLI", "SHRI"))
            return [f"    {op} R{r}, {rng.randrange(0, 8)}"]
        if kind == 3:
            return [f"    LD R{r}, [R6+{4 * rng.randrange(0, 16)}]"]
        if kind == 4:
            return [f"    ST [R6+{4 * rng.randrange(0, 16)}], R{r}"]
        if kind == 5:
            op = rng.choice(("CMPI", "CMP", "TEST"))
            if op == "CMPI":
                return [f"    CMPI R{r}, {rng.randrange(1 << 12)}"]
            return [f"    {op} R{r}, R{s}"]
        if kind == 6:
            cond = rng.choice(("JZ", "JNZ", "JC", "JNC", "JG", "JGE",
                               "JL", "JLE", "JS", "JNS"))
            # Offset the inner index so nested branches get fresh labels.
            body = self._random_body(rng, index + 100)
            return ([f"    {cond} skip_{index}"] + body
                    + [f"skip_{index}:"])
        return [f"    {rng.choice(('NOT', 'NEG'))} R{r}"]

    def _random_program(self, seed):
        rng = random.Random(seed)
        lines = [f"    MOVI R0, {rng.randrange(40, 200)}",
                 f"    MOVI R6, {SCRATCH}"]
        for r in self.REGS:
            lines.append(f"    MOVI R{r}, {rng.randrange(1 << 31)}")
        lines.append("loop:")
        for index in range(rng.randrange(3, 12)):
            lines.extend(self._random_body(rng, index))
        lines += ["    SUBI R0, 1", "    JNZ loop", "    HLT"]
        return "\n".join(lines)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_program_equivalence(self, seed):
        pair = run_pair(self._random_program(seed))
        assert_architecturally_equal(*pair)

    def test_random_batch_actually_translates(self):
        translated = 0
        for seed in range(20):
            cpu = make_cpu(translate=True)
            load(cpu, self._random_program(seed))
            cpu.run(1_000_000)
            translated += cpu.block_cache_stats()["insns_translated"]
        assert translated > 0, \
            "differential batch never exercised a superblock"


SMC_PATCHER = f"""
    MOVI R0, 40
    MOVI R6, {ORIGIN + 0x0E}
loop:
    MOVI R5, 0x1111
    ADD  R4, R5
    LD   R1, [R6+0]
    ADDI R1, 1
    ST   [R6+0], R1
    SUBI R0, 1
    JNZ  loop
    HLT
"""
# R6 points at the imm32 of "MOVI R5": ORIGIN + MOVI(6) + MOVI(6) +
# opcode/reg bytes(2) = ORIGIN+0x0E.  Every iteration increments the
# immediate the *next* iteration will execute — self-modifying code
# striking inside the compiled block itself.


class TestInvalidation:
    def test_store_into_own_block_matches_interpreter(self):
        pair = run_pair(SMC_PATCHER)
        assert_architecturally_equal(*pair)
        (fast, _), _ = pair
        assert fast.regs[4] != 0

    def test_host_write_over_block_recompiles(self):
        cpu = make_cpu(translate=True)
        load(cpu, """
            MOVI R0, 60
        loop:
            ADDI R1, 1
            SUBI R0, 1
            JNZ  loop
            HLT
        """)
        cpu.run(10_000)
        assert cpu.halted and cpu.regs[1] == 60
        warm = cpu.block_cache_stats()
        assert warm["blocks_compiled"] >= 1
        assert warm["insns_translated"] > 0
        # DMA-style host write: patch the ADDI immediate in RAM.
        cpu.memory.write(ORIGIN + 8, (2).to_bytes(4, "little"))
        cpu.halted = False
        cpu.pc = ORIGIN
        cpu.regs[1] = 0
        cpu.run(10_000)
        assert cpu.regs[1] == 120, "stale superblock executed old code"
        stats = cpu.block_cache_stats()
        assert stats["guard_failures"] >= 1 \
            or stats["invalidations"] >= 1

    def test_breakpoint_mutation_flushes_blocks(self):
        """Inserting a breakpoint into a compiled hot loop must fire
        #DB at exactly the breakpointed PC with exact state — on both
        the translating and the plain CPU."""
        source = """
            MOVI R0, 400
        loop:
            ADDI R1, 1
            XORI R2, 9
            SUBI R0, 1
            JNZ  loop
            HLT
        """
        bp_pc = ORIGIN + 6 + 6  # the XORI
        results = []
        for translate in (True, False):
            cpu = make_cpu(translate=translate)
            load(cpu, source)
            cpu.run(600)  # warm: well past the hot threshold
            assert not cpu.halted
            if translate:
                assert cpu.block_cache_stats()["blocks_compiled"] >= 1
            hits = []

            def hook(c, vector, error, hits=hits):
                hits.append((vector, c.pc, c.instret))
                c.halted = True
                return True

            cpu.exception_hook = hook
            cpu.code_breakpoints.add(bp_pc)
            if translate:
                assert cpu.block_cache_stats()["entries"] == 0, \
                    "breakpoint insertion must flush every block"
            cpu.run(10_000)
            assert hits and hits[0][0] == VEC_DB
            assert hits[0][1] == bp_pc
            results.append((hits[0], cpu.regs[:], cpu.instret,
                            cpu.cycle_count))
        assert results[0] == results[1]

    SMC_FINAL = """
        MOVI R0, 200
        MOVI R6, final
    loop:
        ADDI R1, 1
        LD   R2, [R6+0]
        ST   [R6+0], R2
        SUBI R0, 1
    final:
        JNZ  loop
        HLT
    """
    # The store rewrites the block's *final* instruction (the JNZ)
    # with its own bytes: architecturally a no-op, but the write bumps
    # the code page's generation, so the in-block SMC re-check must
    # exit, tear the block down and re-translate — the guard boundary
    # sits exactly on the last instruction of the trace.

    def test_smc_on_final_instruction_of_block(self):
        pair = run_pair(self.SMC_FINAL)
        assert_architecturally_equal(*pair)
        (fast, _), _ = pair
        assert fast.regs[1] == 200
        stats = fast.block_cache_stats()
        assert stats["blocks_compiled"] >= 2, \
            "SMC on the final instruction must force re-translation"
        assert stats["guard_failures"] >= 1 \
            or stats["invalidations"] >= 1

    def test_breakpoint_removal_retranslates(self):
        """After a #DB inside a formerly-cached block, removing the
        breakpoint must let the loop re-translate and finish with the
        exact interpreter-tier state."""
        source = """
            MOVI R0, 400
        loop:
            ADDI R1, 1
            XORI R2, 9
            SUBI R0, 1
            JNZ  loop
            HLT
        """
        bp_pc = ORIGIN + 6 + 6  # the XORI
        results = []
        for translate in (True, False):
            cpu = make_cpu(translate=translate)
            load(cpu, source)
            cpu.run(600)
            assert not cpu.halted
            hits = []

            def hook(c, vector, error, hits=hits):
                hits.append((vector, c.pc))
                c.halted = True
                return True

            cpu.exception_hook = hook
            cpu.code_breakpoints.add(bp_pc)
            cpu.run(10_000)
            assert hits and hits[0] == (VEC_DB, bp_pc)
            compiled_at_bp = cpu.block_cache_stats()["blocks_compiled"]
            cpu.code_breakpoints.discard(bp_pc)
            cpu.exception_hook = None
            cpu.halted = False
            cpu.run(100_000)
            assert cpu.halted, "loop must run to HLT after bp removal"
            if translate:
                assert cpu.block_cache_stats()["blocks_compiled"] \
                    > compiled_at_bp, \
                    "hot loop must re-translate once the bp is gone"
            results.append((cpu.regs[:], cpu.flags, cpu.pc,
                            cpu.instret, cpu.cycle_count))
        assert results[0] == results[1]

    def test_jit_disabled_cpu_has_no_engine(self):
        cpu = make_cpu(translate=False)
        load(cpu, HOT_LOOP)
        cpu.run(100_000)
        stats = cpu.block_cache_stats()
        assert stats == {
            "enabled": False, "entries": 0, "blocks_compiled": 0,
            "hits": 0, "guard_failures": 0, "invalidations": 0,
            "insns_translated": 0, "hit_rate": 0.0,
        }

    @pytest.mark.parametrize("run", [
        run_bare, run_machine, run_monitor_profiled,
        run_machine_to_triple_fault,
    ], ids=["cpu", "machine", "monitor-profiled", "machine-triple-fault"])
    def test_bare_step_never_enters_blocks(self, run):
        """Every run leaves the pacing fields at 0, including one that
        ends in an exception, so single-step debugging always uses the
        interpreter path."""
        cpu = run()
        stats = cpu.block_cache_stats()
        assert stats["blocks_compiled"] >= 1
        hits_before = stats["hits"]
        assert cpu.block_instret_limit == 0
        assert cpu.block_cycle_limit == 0
        assert cpu.block_extra_steps == 0
        for _ in range(50):
            cpu.step()
        assert cpu.block_cache_stats()["hits"] == hits_before


class TestStats:
    def test_metrics_gauges_mirror_block_cache_stats(self):
        cpu = make_cpu(translate=True)
        load(cpu, HOT_LOOP)
        cpu.run(100_000)
        registry = MetricsRegistry()
        stats = collect_interp(cpu, registry)
        assert stats["block_cache"] == cpu.block_cache_stats()
        for key in ("enabled", "entries", "blocks_compiled", "hits",
                    "guard_failures", "invalidations",
                    "insns_translated", "hit_rate"):
            gauge = registry.get(f"interp.block_cache.{key}")
            assert gauge is not None, key
        assert registry.get("interp.block_cache.hits").value \
            == cpu.block_cache_stats()["hits"]


class TestSharedBlockCode:
    """Compiled block code is shared by every CPU in the process; the
    handlers and operands it calls stay bound per CPU."""

    def _run_fresh_cpus(self, monkeypatch, **kwargs):
        from repro.interp import translate
        compiled = []

        def counting_compile(*args, **kw):
            compiled.append(args[1])
            return compile(*args, **kw)

        monkeypatch.setattr(translate, "_FACTORIES", {})
        monkeypatch.setattr(translate, "compile", counting_compile,
                            raising=False)
        cpus = []
        for _ in range(2):
            cpu = Cpu(PhysicalMemory(1 << 20), IoBus(), translate=True,
                      **kwargs)
            firmware.install_flat_firmware(cpu)
            load(cpu, HOT_LOOP)
            cpu.run(100_000)
            assert cpu.block_cache_stats()["blocks_compiled"] == 1
            cpus.append(cpu)
        return compiled, cpus

    def test_fresh_cpus_compile_a_loop_once(self, monkeypatch):
        compiled, cpus = self._run_fresh_cpus(monkeypatch)
        assert len(compiled) == 1
        first, second = cpus
        assert second.regs == first.regs
        assert (second.flags, second.pc, second.instret,
                second.cycle_count) == (first.flags, first.pc,
                                        first.instret, first.cycle_count)
        assert second.budget.by_category() == first.budget.by_category()
        plain, _ = run_pair(HOT_LOOP)[1]
        assert second.regs == plain.regs
        assert second.instret == plain.instret

    def test_verify_on_compile_still_validates_every_block(
            self, monkeypatch):
        compiled, cpus = self._run_fresh_cpus(monkeypatch,
                                              verify_translations=True)
        assert len(compiled) == 1
        for cpu in cpus:
            assert cpu._sb_engine.tv_validated == 1
            assert cpu._sb_engine.tv_rejected == 0
