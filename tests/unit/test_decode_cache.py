"""The decoded-instruction cache: hit accounting and — more importantly —
its three invalidation triggers: code writes (self-modifying code, DMA),
CR3 / TLB flushes, and breakpoint mutation.  Every test asserts on
architectural outcomes, not just counters: a stale cache entry would
produce the wrong register values or miss a #DB."""

from repro.asm import assemble
from repro.hw import Cpu, IoBus, PhysicalMemory
from repro.hw import firmware
from repro.hw.isa import BY_MNEMONIC, VEC_DB
from repro.hw.paging import PageTableBuilder


def make_cpu(decode_cache=True, memory_size=1 << 20, translate=None):
    memory = PhysicalMemory(memory_size)
    cpu = Cpu(memory, IoBus(), decode_cache=decode_cache,
              translate=translate)
    firmware.install_flat_firmware(cpu)
    return cpu


def load(cpu, source, origin=0x4000):
    program = assemble(source, origin=origin)
    program.load_into(cpu.memory)
    cpu.pc = origin
    return program


LOOP = """
    MOVI R0, 50
loop:
    ADDI R1, 1
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


class TestHitPath:
    def test_hot_loop_mostly_hits(self):
        # (loop, run cap, R1 at HLT, translate, miss cap, hit-rate
        # floor).  LOOP runs on the default CPU, superblocks and all;
        # the long tight loop runs on the decode cache alone and must
        # amortise its compulsory misses to near nothing.
        for source, cap, total, translate, max_misses, floor in (
                (LOOP, 10_000, 50, None, 5, 0.9),
                (TIGHT_LOOP, 100_000, 15_000, False, 6, 0.999)):
            cpu = make_cpu(translate=translate)
            load(cpu, source)
            cpu.run(cap)
            assert cpu.halted and cpu.regs[1] == total
            stats = cpu.decode_cache_stats()
            assert stats["hits"] > stats["misses"]
            # One per distinct instruction.
            assert stats["misses"] <= max_misses
            assert stats["hit_rate"] > floor

    def test_ablation_flag_disables_but_preserves_semantics(self):
        fast = make_cpu(decode_cache=True)
        slow = make_cpu(decode_cache=False)
        for cpu in (fast, slow):
            load(cpu, LOOP)
            cpu.run(10_000)
        assert fast.regs == slow.regs
        assert fast.flags == slow.flags
        assert fast.instret == slow.instret
        assert fast.cycle_count == slow.cycle_count
        assert slow.decode_cache_stats()["hits"] == 0
        assert slow.decode_cache_stats()["misses"] == 0


class TestCodeWriteInvalidation:
    def test_guest_store_into_own_code_redecodes(self):
        """A guest ST into its own code page must re-decode: the patched
        immediate (not the cached one) executes on the second pass."""
        cpu = make_cpu()
        # patch_me's imm32 lives at 0x4006 + 2 = 0x4008.
        load(cpu, """
            MOVI R3, 0
        patch_me:
            MOVI R5, 0x11111111
            CMPI R3, 0
            JNZ  done
            MOVI R3, 1
            MOVI R1, 0x4008
            MOVI R2, 0x22222222
            ST   [R1+0], R2
            JMP  patch_me
        done:
            HLT
        """)
        cpu.sp = 0x3000
        cpu.run(1_000)
        assert cpu.halted
        assert cpu.regs[5] == 0x22222222

    def test_host_write_over_cached_instruction(self):
        """Any PhysicalMemory write (monitor pokes, DMA) invalidates."""
        cpu = make_cpu()
        load(cpu, "MOVI R0, 1\nHLT\n")
        cpu.run(10)
        assert cpu.regs[0] == 1
        # Overwrite the imm32 of the cached MOVI directly in RAM.
        cpu.memory.write(0x4002, (7).to_bytes(4, "little"))
        cpu.halted = False
        cpu.pc = 0x4000
        cpu.run(10)
        assert cpu.regs[0] == 7


class TestBreakpointInvalidation:
    def _warmed(self):
        cpu = make_cpu()
        load(cpu, "MOVI R0, 1\nMOVI R1, 2\nHLT\n")
        cpu.run(10)          # all three instructions now cached
        assert cpu.decode_cache_stats()["hits"] == 0  # first pass: misses
        cpu.halted = False
        cpu.pc = 0x4000
        cpu.regs[0] = cpu.regs[1] = 0
        return cpu

    def test_breakpoint_set_on_cached_instruction_fires(self):
        cpu = self._warmed()
        hits = []
        cpu.exception_hook = lambda c, vec, err: hits.append(vec) or True
        before = cpu.decode_cache_invalidations
        cpu.code_breakpoints.add(0x4006)
        assert cpu.decode_cache_invalidations == before + 1
        cpu.step()           # MOVI R0 executes (re-decoded)
        cpu.step()           # breakpoint fires, MOVI R1 does NOT execute
        assert hits == [VEC_DB]
        assert cpu.regs[1] == 0
        assert cpu.pc == 0x4006

    def test_breakpoint_clear_resumes_normally(self):
        cpu = self._warmed()
        cpu.exception_hook = lambda c, vec, err: True
        cpu.code_breakpoints.add(0x4006)
        cpu.step()
        cpu.step()           # stops at the breakpoint
        cpu.code_breakpoints.discard(0x4006)
        cpu.step()           # now executes
        assert cpu.regs[1] == 2

    def test_resume_flag_suppresses_cached_breakpoint(self):
        """RF semantics must survive the fast path: resuming over a
        breakpointed, already-cached instruction makes progress."""
        cpu = self._warmed()
        cpu.exception_hook = lambda c, vec, err: True
        cpu.code_breakpoints.add(0x4006)
        cpu.step()           # MOVI R0; also re-warms the cache
        cpu.pc = 0x4006
        cpu.resume_flag = True
        cpu.step()           # suppressed: MOVI R1 executes
        assert cpu.regs[1] == 2

    def test_watchpoint_overlapping_cached_code_fires_on_fetch(self):
        cpu = self._warmed()
        hits = []
        cpu.exception_hook = lambda c, vec, err: hits.append(vec) or True
        cpu.watchpoints.append((0x4006, 1, False))
        cpu.step()           # MOVI R0 (no overlap)
        assert hits == []
        cpu.step()           # fetch of MOVI R1 trips the read watch
        assert hits == [VEC_DB]
        assert cpu.regs[1] == 0


class TestCr3Invalidation:
    def test_cr3_switch_to_alias_mapping_executes_new_code(self):
        """Same virtual PC, two address spaces, different code behind
        each: the decode cache must not leak code across the switch."""
        cpu = make_cpu()
        memory = cpu.memory
        movi = BY_MNEMONIC["MOVI"]
        hlt = BY_MNEMONIC["HLT"]
        # Frame A: MOVI R0, 1; HLT.  Frame B: MOVI R0, 2; HLT.
        for frame, value in ((0x20000, 1), (0x21000, 2)):
            memory.write(frame, bytes([movi.opcode, 0])
                         + value.to_bytes(4, "little")
                         + bytes([hlt.opcode]))
        space_a = PageTableBuilder(memory, alloc_base=0x40000)
        space_a.identity_map(0, 0x10000)
        space_a.map(0x80000, 0x20000)
        space_b = PageTableBuilder(memory, alloc_base=0x50000)
        space_b.identity_map(0, 0x10000)
        space_b.map(0x80000, 0x21000)

        cpu.crs[0] |= 1 << 31
        cpu.crs[3] = space_a.directory
        cpu.mmu.set_cr3(space_a.directory)
        cpu.pc = 0x80000
        cpu.run(10)
        assert cpu.halted and cpu.regs[0] == 1
        # Warm pass in space A so the entry is definitely cached.
        cpu.halted = False
        cpu.pc = 0x80000
        cpu.run(10)
        assert cpu.decode_cache_stats()["hits"] > 0

        cpu.crs[3] = space_b.directory
        cpu.mmu.set_cr3(space_b.directory)   # flush: the invalidation
        cpu.halted = False
        cpu.pc = 0x80000
        cpu.run(10)
        assert cpu.halted and cpu.regs[0] == 2
