"""The HX32 CPU interpreter.

This is the functional heart of the reproduction: a ring-aware,
segment-checking, paging, trap-delivering interpreter.  Monitors embed
themselves through two hooks:

* :attr:`Cpu.exception_hook` — called before any exception is delivered
  through the guest IDT.  The lightweight VMM uses this exactly the way a
  real monitor owns the hardware IDT: privileged-instruction #GPs become
  emulation, #DB/#BP become debugger events, and everything else is
  *reflected* into the guest.
* :attr:`Cpu.interrupt_hook` — called when an external interrupt is about
  to be accepted, so a monitor can virtualise the interrupt controller.

Running bare metal means leaving both hooks unset: the guest's own IDT
(loaded with LIDT at ring 0) receives every event, as on real hardware.
"""

from __future__ import annotations

import struct

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import CpuHalted, TripleFault
from repro.hw import isa
from repro.hw.isa import (
    CR0_PG,
    FLAG_CF,
    FLAG_IF,
    FLAG_OF,
    FLAG_SF,
    FLAG_TF,
    FLAG_ZF,
    IOPL_SHIFT,
    NUM_GPRS,
    REG_SP,
    SEG_CS,
    SEG_DS,
    SEG_SS,
    VEC_BP,
    VEC_DB,
    VEC_DE,
    VEC_DF,
    VEC_GP,
    VEC_PF,
    VEC_SS,
    VEC_UD,
    VEC_VMCALL,
    ERROR_CODE_VECTORS,
    mask32,
    signed32,
)
from repro.hw.paging import Mmu, PAGE_SHIFT, PageFault, span_pages
from repro.hw.seg import (
    GdtView,
    SegmentDescriptor,
    selector_index,
    selector_rpl,
)
from repro.sim.budget import CAT_GUEST, CAT_INTERRUPT, CycleBudget

IDT_ENTRY_SIZE = 8
GATE_TYPE_INTERRUPT = 0  # clears IF on entry
GATE_TYPE_TRAP = 1       # leaves IF alone


@dataclass(frozen=True)
class CpuFault(Exception):
    """An architectural exception raised mid-instruction."""

    vector: int
    error_code: int = 0
    fault_address: Optional[int] = None  # CR2 value for #PF

    def __str__(self) -> str:
        return (f"CPU fault vector={self.vector} "
                f"error={self.error_code:#x}")


@dataclass(frozen=True)
class IdtGate:
    """A decoded IDT entry."""

    offset: int
    selector: int
    present: bool
    dpl: int
    gate_type: int

    def pack(self) -> bytes:
        flags = (1 if self.present else 0) | ((self.dpl & 0b11) << 1) \
            | ((self.gate_type & 1) << 3)
        return struct.pack("<IHH", self.offset & 0xFFFFFFFF,
                           self.selector & 0xFFFF, flags)

    @classmethod
    def unpack(cls, raw: bytes) -> "IdtGate":
        offset, sel, flags = struct.unpack("<IHH", raw)
        return cls(offset=offset, selector=sel,
                   present=bool(flags & 1),
                   dpl=(flags >> 1) & 0b11,
                   gate_type=(flags >> 3) & 1)


class SegmentCache:
    """A loaded segment register: visible selector + hidden descriptor."""

    __slots__ = ("selector", "descriptor")

    def __init__(self, sel: int, descriptor: SegmentDescriptor) -> None:
        self.selector = sel
        self.descriptor = descriptor


class _ObservedSet(set):
    """A set that notifies its owner on every mutation.

    ``Cpu.code_breakpoints`` is one of these: inserting or removing a
    breakpoint must drop decoded-instruction cache entries, the same way
    inserting an INT3 into real code invalidates any trace cache built
    over those bytes (cf. the virtual-breakpoint literature).
    """

    __slots__ = ("_on_change",)

    def __init__(self, on_change: Callable[[], None], iterable=()) -> None:
        super().__init__(iterable)
        self._on_change = on_change

    def add(self, element) -> None:
        super().add(element)
        self._on_change()

    def discard(self, element) -> None:
        super().discard(element)
        self._on_change()

    def remove(self, element) -> None:
        super().remove(element)
        self._on_change()

    def clear(self) -> None:
        super().clear()
        self._on_change()

    def update(self, *others) -> None:
        super().update(*others)
        self._on_change()

    def pop(self):
        element = super().pop()
        self._on_change()
        return element


class Cpu:
    """One HX32 processor attached to memory and an I/O bus."""

    #: The decode cache is flushed wholesale (trace-cache style) rather
    #: than evicted entry-by-entry when it grows past this bound.
    DECODE_CACHE_CAPACITY = 1 << 16

    #: Default for the ``translate`` constructor argument — whether hot
    #: traces are compiled into superblocks (requires the decode cache).
    #: Class-level so determinism regressions can ablate it globally.
    TRANSLATE_DEFAULT = True

    #: Default for the ``verify_translations`` constructor argument —
    #: whether every compiled superblock must pass the translation
    #: validator before it is installed (repro.analysis.tv).
    #: Class-level so determinism tests can force it globally.
    VERIFY_DEFAULT = False

    def __init__(self, memory, bus, budget: Optional[CycleBudget] = None,
                 decode_cache: bool = True,
                 translate: Optional[bool] = None,
                 verify_translations: Optional[bool] = None) -> None:
        self.memory = memory
        self.bus = bus
        self.budget = budget or CycleBudget()
        self.mmu = Mmu(memory)
        self.gdt = GdtView(memory)

        # -- superblock translation state (created last, but the fields
        #    must exist before anything can call invalidate_decode_cache).
        self._sb_engine = None
        self._sb_blocks: Dict[int, tuple] = {}
        #: Run-loop pacing: a block may only execute while it provably
        #: stays at or below both limits (instret cap / profiler stride,
        #: and the next device-event due time).  Only :meth:`run` sets
        #: them; both are 0 outside it, so bare ``step()`` never enters
        #: a block.
        self.block_instret_limit = 0
        self.block_cycle_limit = 0
        #: Instructions retired by the last dispatch beyond the usual
        #: one; :meth:`run` adds it to ``executed`` and resets it.
        self.block_extra_steps = 0

        self.regs: List[int] = [0] * NUM_GPRS
        self.pc = 0
        self.flags = 0
        self.crs = [0, 0, 0, 0]
        self.idtr_base = 0
        self.idtr_limit = 0
        self.tss_base = 0
        # Boot state: flat ring-0 segments covering all of memory, like the
        # fiction of x86 "unreal" flat mode; real code reloads them early.
        boot = SegmentDescriptor(base=0, limit=memory.size, dpl=0,
                                 code=True, writable=True)
        boot_data = SegmentDescriptor(base=0, limit=memory.size, dpl=0,
                                      code=False, writable=True)
        self.segments = [SegmentCache(0, boot),
                         SegmentCache(0, boot_data),
                         SegmentCache(0, boot_data)]

        self.halted = False
        self.instret = 0
        self.cycle_count = 0
        #: Set of linear addresses that trigger #DB on fetch (debug regs).
        #: Mutations invalidate the decoded-instruction cache.
        self.code_breakpoints: Set[int] = _ObservedSet(
            self.invalidate_decode_cache)
        #: (addr, length, on_write) watchpoints checked on data access.
        self.watchpoints: List[Tuple[int, int, bool]] = []

        # -- decoded-instruction cache + per-opcode dispatch table ------
        # Dispatch: opcode byte -> (bound handler, operand decoder, spec),
        # built once so execution never string-compares mnemonics.
        self._dispatch: Dict[int, tuple] = {
            opcode: (getattr(self, "_op_" + spec.mnemonic.lower()),
                     isa.OPERAND_DECODERS[spec.fmt], spec)
            for opcode, spec in isa.SPECS.items()
        }
        #: Ablation flag: False forces full fetch/decode on every step.
        self.decode_cache_enabled = decode_cache
        # linear PC -> (handler, operands, length, cycles, spec,
        #               CS descriptor, ((phys page, generation), ...),
        #               needs privilege check, paging enabled at fill).
        self._decode_cache: Dict[int, tuple] = {}
        self._decode_tlb_gen = self.mmu.tlb.generation
        self.decode_cache_hits = 0
        self.decode_cache_misses = 0
        self.decode_cache_invalidations = 0

        #: Monitor hooks; return True to claim the event.
        self.exception_hook: Optional[
            Callable[["Cpu", int, int], bool]] = None
        self.interrupt_hook: Optional[Callable[["Cpu", int], bool]] = None
        self.vmcall_hook: Optional[Callable[["Cpu"], bool]] = None
        #: Interrupt source (the PIC): .has_pending() / .acknowledge().
        self.irq_source = None
        # STI inhibits interrupts for one instruction, like x86.
        self._interrupt_shadow = False
        #: x86 RF-flag semantics: suppress the instruction breakpoint at
        #: the current PC for one instruction (set when resuming from a
        #: breakpoint so the guest makes progress).
        self.resume_flag = False
        #: I/O permission bitmap: ports listed here are accessible even
        #: when CPL > IOPL (the TSS I/O-bitmap mechanism monitors use to
        #: pass high-throughput devices straight through to the guest).
        #: None means "no bitmap" — IN/OUT strictly gated by IOPL.
        self.io_allowed_ports: Optional[Set[int]] = None

        if translate is None:
            translate = self.TRANSLATE_DEFAULT
        if verify_translations is None:
            verify_translations = self.VERIFY_DEFAULT
        if translate and decode_cache:
            # Imported here: repro.interp.translate imports CpuFault
            # from this module at its top level.
            from repro.interp.translate import SuperblockEngine
            self._sb_engine = SuperblockEngine(self)
            self._sb_engine.verify = verify_translations
            self._sb_blocks = self._sb_engine.blocks

    # ------------------------------------------------------------------
    # Convenience state accessors
    # ------------------------------------------------------------------

    @property
    def cpl(self) -> int:
        return self.segments[SEG_CS].descriptor.dpl

    @property
    def iopl(self) -> int:
        return (self.flags >> IOPL_SHIFT) & 0b11

    @property
    def interrupts_enabled(self) -> bool:
        return bool(self.flags & FLAG_IF)

    @property
    def sp(self) -> int:
        return self.regs[REG_SP]

    @sp.setter
    def sp(self, value: int) -> None:
        self.regs[REG_SP] = mask32(value)

    @property
    def paging_enabled(self) -> bool:
        return bool(self.crs[0] & CR0_PG)

    def _set_flag(self, flag: int, on: bool) -> None:
        if on:
            self.flags |= flag
        else:
            self.flags &= ~flag

    # ------------------------------------------------------------------
    # Address translation and memory access
    # ------------------------------------------------------------------

    def linear(self, seg: int, offset: int, length: int, write: bool) -> int:
        """Segment-check ``offset`` and return the linear address."""
        cache = self.segments[seg]
        descriptor = cache.descriptor
        if not descriptor.contains(offset, length):
            vec = VEC_SS if seg == SEG_SS else VEC_GP
            raise CpuFault(vec, error_code=0)
        if write and not descriptor.writable:
            raise CpuFault(VEC_GP, error_code=0)
        return mask32(descriptor.base + offset)

    def _physical(self, linear_addr: int, write: bool) -> int:
        if not self.paging_enabled:
            return linear_addr
        user = self.cpl == 3
        try:
            return self.mmu.translate(linear_addr, write=write, user=user)
        except PageFault as fault:
            self.crs[2] = fault.address
            raise CpuFault(VEC_PF, error_code=fault.error_code,
                           fault_address=fault.address) from fault

    def _check_watchpoints(self, linear_addr: int, length: int,
                           write: bool) -> None:
        for addr, wlen, on_write in self.watchpoints:
            if write != on_write:
                continue
            if linear_addr < addr + wlen and addr < linear_addr + length:
                raise CpuFault(VEC_DB, error_code=0)

    def read_virtual(self, seg: int, offset: int, length: int) -> bytes:
        """Data read through segmentation + paging (+MMIO routing)."""
        linear_addr = self.linear(seg, offset, length, write=False)
        self._check_watchpoints(linear_addr, length, write=False)
        chunks = []
        for vaddr, chunk in span_pages(linear_addr, length):
            paddr = self._physical(vaddr, write=False)
            if self.bus.is_mmio(paddr):
                if chunk not in (1, 2, 4):
                    raise CpuFault(VEC_GP, error_code=0)
                value = self.bus.mmio_read(paddr, chunk)
                chunks.append(value.to_bytes(chunk, "little"))
            else:
                chunks.append(self.memory.read(paddr, chunk))
        return b"".join(chunks)

    def write_virtual(self, seg: int, offset: int, data: bytes) -> None:
        linear_addr = self.linear(seg, offset, len(data), write=True)
        self._check_watchpoints(linear_addr, len(data), write=True)
        cursor = 0
        for vaddr, chunk in span_pages(linear_addr, len(data)):
            paddr = self._physical(vaddr, write=True)
            piece = data[cursor:cursor + chunk]
            if self.bus.is_mmio(paddr):
                if chunk not in (1, 2, 4):
                    raise CpuFault(VEC_GP, error_code=0)
                self.bus.mmio_write(paddr, int.from_bytes(piece, "little"),
                                    chunk)
            else:
                self.memory.write(paddr, piece)
            cursor += chunk

    # -- debugger-grade access: bypasses watchpoints, never faults -----

    def peek_virtual(self, seg: int, offset: int, length: int) -> Optional[bytes]:
        """Best-effort read for the debug stub; None if unmapped."""
        try:
            return self.read_virtual(seg, offset, length)
        except CpuFault:
            return None

    # ------------------------------------------------------------------
    # Stack helpers
    # ------------------------------------------------------------------

    def push32(self, value: int) -> None:
        new_sp = mask32(self.sp - 4)
        self.write_virtual(SEG_SS, new_sp, mask32(value).to_bytes(4, "little"))
        self.sp = new_sp

    def pop32(self) -> int:
        value = int.from_bytes(self.read_virtual(SEG_SS, self.sp, 4), "little")
        self.sp = mask32(self.sp + 4)
        return value

    # ------------------------------------------------------------------
    # Segment loading
    # ------------------------------------------------------------------

    def _descriptor_for(self, sel: int) -> SegmentDescriptor:
        index = selector_index(sel)
        try:
            descriptor = self.gdt.read(index)
        except IndexError:
            raise CpuFault(VEC_GP, error_code=sel) from None
        if not descriptor.present:
            raise CpuFault(VEC_GP, error_code=sel)
        return descriptor

    def load_segment(self, seg: int, sel: int) -> None:
        """MOVSEG semantics with x86-style privilege checks."""
        if seg == SEG_CS:
            # CS changes only via interrupt delivery and IRET.
            raise CpuFault(VEC_UD)
        descriptor = self._descriptor_for(sel)
        rpl = selector_rpl(sel)
        if seg == SEG_SS:
            if descriptor.code or not descriptor.writable:
                raise CpuFault(VEC_GP, error_code=sel)
            if rpl != self.cpl or descriptor.dpl != self.cpl:
                raise CpuFault(VEC_GP, error_code=sel)
        else:
            if descriptor.code:
                raise CpuFault(VEC_GP, error_code=sel)
            if descriptor.dpl < max(self.cpl, rpl):
                raise CpuFault(VEC_GP, error_code=sel)
        self.segments[seg] = SegmentCache(sel, descriptor)

    def force_segment(self, seg: int, sel: int,
                      descriptor: SegmentDescriptor) -> None:
        """Monitor backdoor: install a segment without privilege checks.

        Used by monitors for world switches — the hardware analogue is the
        monitor running its own ring-0 code that is allowed to do this.
        """
        self.segments[seg] = SegmentCache(sel, descriptor)

    # ------------------------------------------------------------------
    # Interrupt / exception delivery
    # ------------------------------------------------------------------

    def read_idt_gate(self, vector: int, idt_base: Optional[int] = None,
                      idt_limit: Optional[int] = None) -> IdtGate:
        base = self.idtr_base if idt_base is None else idt_base
        limit = self.idtr_limit if idt_limit is None else idt_limit
        offset = vector * IDT_ENTRY_SIZE
        if offset + IDT_ENTRY_SIZE > limit:
            raise CpuFault(VEC_GP, error_code=vector * 8 + 2)
        raw = self.memory.read(base + offset, IDT_ENTRY_SIZE)
        return IdtGate.unpack(raw)

    def deliver(self, vector: int, error_code: int = 0,
                software: bool = False,
                idt_base: Optional[int] = None,
                idt_limit: Optional[int] = None) -> None:
        """Deliver an interrupt/exception through an IDT.

        ``software`` marks INT n, which is subject to the gate-DPL check
        (that is how ring-3 code is prevented from invoking arbitrary
        gates).  ``idt_base``/``idt_limit`` let a monitor deliver through
        the guest's *virtual* IDT when reflecting events.
        """
        gate = self.read_idt_gate(vector, idt_base, idt_limit)
        if not gate.present:
            raise CpuFault(VEC_GP, error_code=vector * 8 + 2)
        if software and gate.dpl < self.cpl:
            raise CpuFault(VEC_GP, error_code=vector * 8 + 2)

        target = self._descriptor_for(gate.selector)
        if not target.code:
            raise CpuFault(VEC_GP, error_code=gate.selector)
        target_ring = target.dpl
        if target_ring > self.cpl:
            # Gates never transfer outward.
            raise CpuFault(VEC_GP, error_code=gate.selector)

        old_cs = self.segments[SEG_CS].selector
        old_ss = self.segments[SEG_SS].selector
        old_sp = self.sp
        old_flags = self.flags

        if target_ring < self.cpl:
            new_sp, new_ss = self._ring_stack(target_ring)
            ss_descriptor = self._descriptor_for(new_ss)
            self.segments[SEG_SS] = SegmentCache(new_ss, ss_descriptor)
            self.sp = new_sp
            self.segments[SEG_CS] = SegmentCache(gate.selector, target)
            self.push32(old_ss)
            self.push32(old_sp)
        else:
            self.segments[SEG_CS] = SegmentCache(gate.selector, target)

        self.push32(old_flags)
        self.push32(old_cs)
        self.push32(self.pc)
        if vector in ERROR_CODE_VECTORS and not software:
            self.push32(error_code)

        self.pc = gate.offset
        self._set_flag(FLAG_TF, False)
        if gate.gate_type == GATE_TYPE_INTERRUPT:
            self._set_flag(FLAG_IF, False)
        self.halted = False
        self.budget.charge(40, CAT_INTERRUPT)
        self.cycle_count += 40

    def _ring_stack(self, ring: int) -> Tuple[int, int]:
        """Read the (SP, SS) pair for ``ring`` from the TSS."""
        base = self.tss_base + ring * 8
        sp = self.memory.read_u32(base)
        ss = self.memory.read_u32(base + 4)
        return sp, ss

    def _stack_word(self, index: int) -> int:
        """Read the ``index``-th word of the stack without popping."""
        return int.from_bytes(
            self.read_virtual(SEG_SS, mask32(self.sp + 4 * index), 4),
            "little")

    def _do_iret(self) -> None:
        # Like hardware: validate the whole frame before committing any
        # state, so a faulting IRET leaves SP (and the frame) intact for
        # the fault handler / monitor to inspect and emulate.
        new_pc = self._stack_word(0)
        new_cs = self._stack_word(1)
        new_flags = self._stack_word(2)
        target_rpl = selector_rpl(new_cs)
        if target_rpl < self.cpl:
            raise CpuFault(VEC_GP, error_code=new_cs)
        descriptor = self._descriptor_for(new_cs)
        if not descriptor.code or descriptor.dpl != target_rpl:
            raise CpuFault(VEC_GP, error_code=new_cs)
        outward = target_rpl > self.cpl
        new_sp = new_ss = ss_descriptor = None
        frame_words = 3
        if outward:
            new_sp = self._stack_word(3)
            new_ss = self._stack_word(4)
            frame_words = 5
            ss_descriptor = self._descriptor_for(new_ss)
            if ss_descriptor.dpl != target_rpl:
                raise CpuFault(VEC_GP, error_code=new_ss)

        # All checks passed: commit atomically from here on.
        self.sp = mask32(self.sp + 4 * frame_words)

        # IF (and IOPL) are privileged: only CPL <= IOPL may change IF, and
        # only ring 0 may change IOPL.  Silently preserved otherwise — the
        # classic x86 virtualisation hole the LVMM works around with its
        # shadow interrupt state.
        preserved = 0
        if self.cpl > self.iopl:
            preserved |= FLAG_IF
        if self.cpl != 0:
            preserved |= isa.IOPL_MASK
        new_flags = (new_flags & ~preserved) | (self.flags & preserved)

        self.segments[SEG_CS] = SegmentCache(new_cs, descriptor)
        self.flags = new_flags
        self.pc = new_pc
        if outward:
            self.segments[SEG_SS] = SegmentCache(new_ss, ss_descriptor)
            self.sp = new_sp

    # ------------------------------------------------------------------
    # Fault handling with double/triple fault semantics
    # ------------------------------------------------------------------

    def _handle_fault(self, fault: CpuFault, saved_pc: int) -> None:
        # Faults restart the instruction: report the faulting PC.
        if fault.vector in isa.FAULT_VECTORS:
            self.pc = saved_pc
        if self.exception_hook is not None:
            if self.exception_hook(self, fault.vector, fault.error_code):
                return
        try:
            self.deliver(fault.vector, fault.error_code)
        except CpuFault:
            try:
                self.deliver(VEC_DF, 0)
            except CpuFault as third:
                raise TripleFault(
                    f"triple fault delivering vector {fault.vector} "
                    f"then #DF: {third}") from third

    # ------------------------------------------------------------------
    # Fetch / decode / execute
    # ------------------------------------------------------------------

    def _fetch(self, length: int) -> bytes:
        return self.read_virtual(SEG_CS, self.pc, length)

    # -- decoded-instruction cache ------------------------------------

    def invalidate_decode_cache(self) -> None:
        """Drop every cached decode (breakpoint/PG-toggle safety).

        Compiled superblocks ride the exact same triggers: whatever
        invalidates a decoded instruction invalidates every block."""
        if self._decode_cache:
            self._decode_cache.clear()
            self.decode_cache_invalidations += 1
        if self._sb_engine is not None:
            self._sb_engine.invalidate()

    def _fill_decode_cache(self, linear_pc: int, descriptor, spec,
                           handler, operands) -> None:
        """Cache one successfully fetched+decoded instruction.

        Records the physical page(s) backing the instruction bytes and
        their current write generations; a later hit revalidates those
        generations, which is what makes self-modifying code (and DMA
        into code pages) re-decode.  MMIO-backed code is never cached:
        a device can change its contents without a memory write.
        """
        cache = self._decode_cache
        if len(cache) >= self.DECODE_CACHE_CAPACITY:
            self.invalidate_decode_cache()
        pages = []
        page_gens = self.memory.page_gens
        for vaddr, _chunk in span_pages(linear_pc, spec.length):
            paddr = self._physical(vaddr, write=False)
            if self.bus.is_mmio(paddr):
                return
            page = paddr >> PAGE_SHIFT
            pages.append((page, page_gens[page]))
        cache[linear_pc] = (handler, operands, spec.length, spec.cycles,
                           spec, descriptor, tuple(pages),
                           spec.privilege != isa.PRIV_NONE,
                           self.paging_enabled)

    def decode_cache_stats(self) -> dict:
        """Counter snapshot for the perf-export layer."""
        total = self.decode_cache_hits + self.decode_cache_misses
        return {
            "enabled": self.decode_cache_enabled,
            "entries": len(self._decode_cache),
            "hits": self.decode_cache_hits,
            "misses": self.decode_cache_misses,
            "invalidations": self.decode_cache_invalidations,
            "hit_rate": (self.decode_cache_hits / total) if total else 0.0,
        }

    def block_cache_stats(self) -> dict:
        """Superblock counter snapshot (zeros when translation is off)."""
        if self._sb_engine is None:
            return {
                "enabled": False,
                "entries": 0,
                "blocks_compiled": 0,
                "hits": 0,
                "guard_failures": 0,
                "invalidations": 0,
                "insns_translated": 0,
                "hit_rate": 0.0,
            }
        return self._sb_engine.stats()

    def step(self) -> None:
        """Execute one instruction (or accept one interrupt)."""
        if self._maybe_take_interrupt():
            return
        if self.halted:
            if not self.interrupts_enabled and self.irq_source is None \
                    and self.exception_hook is None:
                raise CpuHalted("HLT with interrupts disabled and no "
                                "interrupt source: machine is dead")
            self.cycle_count += 1
            return
        self._step_insn()

    def _step_insn(self) -> None:
        """Fetch/decode/execute one instruction (not halted, IRQs polled).

        Fast path: a decode-cache hit skips the segment check, the MMU
        walk and all byte slicing for both the opcode and body fetch.  A
        hit is valid only when (a) the CS descriptor equals the one at
        fill time (same base/limit/DPL, hence same linear address and
        privilege context; identity is tried first, value equality
        second — interrupt delivery and IRET rebuild the descriptor
        object from the GDT), (b) paging was in the same on/off state,
        (c) the backing physical pages' write generations are unchanged
        (self-modifying code, DMA), and (d) the TLB flush generation is
        unchanged (CR3 writes, explicit flushes).  Breakpoint and
        watchpoint checks still run on every execution, so #DB delivery
        and `resume_flag` suppression are byte-for-byte identical to the
        uncached interpreter.
        """
        saved_pc = self.pc
        take_tf = bool(self.flags & FLAG_TF)
        self._interrupt_shadow = False
        suppress_bp = self.resume_flag
        self.resume_flag = False
        try:
            descriptor = self.segments[SEG_CS].descriptor
            entry = None
            if self.decode_cache_enabled:
                tlb_gen = self.mmu.tlb.generation
                if tlb_gen != self._decode_tlb_gen:
                    self._decode_tlb_gen = tlb_gen
                    self.invalidate_decode_cache()
                linear_pc = (descriptor.base + saved_pc) & 0xFFFFFFFF
                blocks = self._sb_blocks
                if blocks and not take_tf and not self.watchpoints:
                    # Superblock dispatch.  Static guards mirror the
                    # decode cache (descriptor, paging state, code-page
                    # generation); a static miss evicts the stale block
                    # so the hot counter can rebuild it.  The limit
                    # check is pacing, not staleness: the block runs
                    # only while it provably cannot overshoot the run
                    # cap, the next profiler stride or the next device
                    # event, so per-instruction observables stay
                    # byte-identical to the interpreter.
                    block = blocks.get(linear_pc)
                    if block is not None:
                        if (block[3] is descriptor
                                or block[3] == descriptor) \
                                and block[4] == self.paging_enabled \
                                and self.memory.page_gens[block[5]] \
                                == block[6]:
                            if self.instret + block[1] \
                                    <= self.block_instret_limit \
                                    and self.cycle_count + block[2] \
                                    <= self.block_cycle_limit:
                                engine = self._sb_engine
                                engine.hits += 1
                                block[0](self)
                                engine.insns_translated += \
                                    self.block_extra_steps + 1
                                return
                        else:
                            self._sb_engine.evict(linear_pc)
                entry = self._decode_cache.get(linear_pc)
            if entry is not None \
                    and (entry[5] is descriptor or entry[5] == descriptor) \
                    and entry[8] == self.paging_enabled:
                page_gens = self.memory.page_gens
                for page, generation in entry[6]:
                    if page_gens[page] != generation:
                        entry = None
                        break
            else:
                entry = None
            if entry is not None:
                self.decode_cache_hits += 1
                linear_pc = (descriptor.base + saved_pc) & 0xFFFFFFFF
                if linear_pc in self.code_breakpoints and not suppress_bp:
                    raise CpuFault(VEC_DB, error_code=0)
                # Mirror the uncached check order: opcode fetch,
                # privilege, body fetch.
                if self.watchpoints:
                    self._check_watchpoints(linear_pc, 1, write=False)
                if entry[7]:
                    self._check_privilege(entry[4])
                if self.watchpoints:
                    self._check_watchpoints(linear_pc, entry[2],
                                            write=False)
                self.pc = (saved_pc + entry[2]) & 0xFFFFFFFF
                entry[0](entry[1])
                cycles = entry[3]
            else:
                linear_pc = self.linear(SEG_CS, saved_pc, 1, write=False)
                if linear_pc in self.code_breakpoints and not suppress_bp:
                    raise CpuFault(VEC_DB, error_code=0)
                opcode = self._fetch(1)[0]
                dispatch = self._dispatch.get(opcode)
                if dispatch is None:
                    raise CpuFault(VEC_UD)
                handler, decoder, spec = dispatch
                self._check_privilege(spec)
                body = self._fetch(spec.length)[1:]
                operands = decoder(body) if decoder is not None else None
                if self.decode_cache_enabled:
                    self.decode_cache_misses += 1
                    self._fill_decode_cache(linear_pc, descriptor, spec,
                                            handler, operands)
                self.pc = (saved_pc + spec.length) & 0xFFFFFFFF
                handler(operands)
                cycles = spec.cycles
            self.instret += 1
            self.budget.charge(cycles, CAT_GUEST)
            self.cycle_count += cycles
            if self.pc < saved_pc and self._sb_engine is not None:
                # Taken backward transfer: the classic hot-loop signal.
                self._sb_engine.note_backward(
                    self.pc, self.segments[SEG_CS].descriptor)
        except CpuFault as fault:
            self._handle_fault(fault, saved_pc)
            return
        if take_tf and (self.flags & FLAG_TF):
            # Single-step trap fires after the instruction completes.
            try:
                raise CpuFault(VEC_DB, error_code=0)
            except CpuFault as fault:
                self._handle_fault(fault, self.pc)

    def run(self, max_instructions: int = 1_000_000,
            until: Optional[Callable[[], bool]] = None,
            events=None, hook=None) -> int:
        """The one run loop: a bare CPU, ``Machine.run`` and the LVMM all
        run here.  Returns the steps taken: :meth:`step` calls plus the
        extra instructions blocks retired, not counting a step that a
        triple fault ends.

        ``events`` is the device side (a ``Machine``):
        ``events.sync_events()`` fires every event due at the cycle
        count and ``events.queue.peek_time()`` is the next due time.
        ``hook`` is a monitor's work between instructions:
        ``hook.between_instructions()`` returns True to end the run,
        ``hook.take_sample(cpu)`` runs once instret reaches
        ``hook.next_sample`` and returns the next threshold, and
        ``hook.triple_fault(fault)`` takes a triple fault, which
        otherwise propagates.

        Between two instructions, in order: the sample, the cap,
        ``until``, the hook, ``sync_events``, the halt, the pacing
        limits.  A halted CPU ends the run unless a device event can
        wake it, in which case the clock fast-forwards to that event.
        Superblock pacing: a block runs only while it cannot cross the
        run cap, the next sample or the next device event, so every
        per-instruction observable (samples, timer IRQs, replay frames)
        lands on the same instruction as in the interpreter.  An
        ``until`` predicate inspects state between single instructions,
        so it disables translation.
        """
        executed = 0
        engine = self._sb_engine
        translate = engine is not None and until is None
        inf = float("inf")
        next_sample = inf if hook is None else hook.next_sample
        sync = next_event = None
        if events is not None:
            sync = events.sync_events
            next_event = events.queue.peek_time
        # With no interrupt source the per-step poll can never accept
        # anything, so it is skipped (``_step_insn`` still clears the
        # STI shadow).
        step = self._step_insn if self.irq_source is None else self.step
        if translate:
            self.block_cycle_limit = inf
        try:
            while executed < max_instructions:
                if until is not None and until():
                    break
                if hook is not None and hook.between_instructions():
                    break
                if sync is not None:
                    sync()
                if self.halted:
                    if sync is None:
                        break  # no device can wake it
                    if not self.irq_source.has_pending():
                        if not self.interrupts_enabled \
                                and self.interrupt_hook is None:
                            break  # HLT with IF=0 and no monitor: dead
                        wake = next_event()
                        if wake is None:
                            break  # halted forever: nothing will wake us
                        # Fast-forward: HLT burns no budget while waiting.
                        self.cycle_count = wake
                        continue
                if translate:
                    limit = self.instret + (max_instructions - executed)
                    self.block_instret_limit = \
                        limit if limit < next_sample else next_sample
                    if next_event is not None:
                        due = next_event()
                        self.block_cycle_limit = inf if due is None else due
                try:
                    step()
                except TripleFault as fault:
                    if hook is None:
                        raise
                    executed += self.block_extra_steps
                    hook.triple_fault(fault)
                    break
                executed += 1 + self.block_extra_steps
                self.block_extra_steps = 0
                if self.instret >= next_sample:
                    next_sample = hook.take_sample(self)
                    if engine is not None:
                        engine.note_sample(self)
        finally:
            self.block_instret_limit = 0
            self.block_cycle_limit = 0
            self.block_extra_steps = 0
        return executed

    def _maybe_take_interrupt(self) -> bool:
        if self._interrupt_shadow:
            self._interrupt_shadow = False
            return False
        if self.irq_source is None:
            return False
        if not self.irq_source.has_pending():
            return False
        if self.interrupt_hook is not None:
            # A monitor owns interrupt acceptance outright: it decides
            # whether/when to reflect regardless of the guest's IF, since
            # the guest's IF is virtualised.
            vector = self.irq_source.acknowledge()
            self.halted = False
            if self.interrupt_hook(self, vector):
                return True
            self.deliver(vector)
            return True
        if not self.interrupts_enabled:
            return False
        vector = self.irq_source.acknowledge()
        self.halted = False
        self.deliver(vector)
        return True

    #: IN/OUT defer their privilege check to execution time, when the
    #: port number is known and the I/O bitmap can be consulted.
    _IO_MNEMONICS = frozenset({"INB", "OUTB", "INW", "OUTW"})

    def _check_privilege(self, spec: isa.InsnSpec) -> None:
        if spec.privilege == isa.PRIV_RING0 and self.cpl != 0:
            raise CpuFault(VEC_GP, error_code=0)
        if spec.privilege == isa.PRIV_IOPL and self.cpl > self.iopl \
                and spec.mnemonic not in self._IO_MNEMONICS:
            raise CpuFault(VEC_GP, error_code=0)

    def _check_io_permission(self, port: int) -> None:
        if self.cpl <= self.iopl:
            return
        if self.io_allowed_ports is not None \
                and port in self.io_allowed_ports:
            return
        raise CpuFault(VEC_GP, error_code=0)

    # -- ALU flag helpers ------------------------------------------------

    def _set_zsf(self, result: int) -> None:
        self._set_flag(FLAG_ZF, result == 0)
        self._set_flag(FLAG_SF, bool(result & 0x80000000))

    def _alu_add(self, a: int, b: int) -> int:
        result = a + b
        masked = mask32(result)
        self._set_flag(FLAG_CF, result > 0xFFFFFFFF)
        self._set_flag(
            FLAG_OF,
            (signed32(a) >= 0) == (signed32(b) >= 0)
            and (signed32(masked) >= 0) != (signed32(a) >= 0))
        self._set_zsf(masked)
        return masked

    def _alu_sub(self, a: int, b: int) -> int:
        result = a - b
        masked = mask32(result)
        self._set_flag(FLAG_CF, a < b)
        self._set_flag(
            FLAG_OF,
            (signed32(a) >= 0) != (signed32(b) >= 0)
            and (signed32(masked) >= 0) != (signed32(a) >= 0))
        self._set_zsf(masked)
        return masked

    def _alu_logic(self, result: int) -> int:
        masked = mask32(result)
        self._set_flag(FLAG_CF, False)
        self._set_flag(FLAG_OF, False)
        self._set_zsf(masked)
        return masked

    # -- table dispatch ------------------------------------------------------
    #
    # One handler per opcode, bound into ``self._dispatch`` at construction
    # and called with pre-decoded operands (see isa.OPERAND_DECODERS), so
    # the hot loop never string-compares mnemonics and a decode-cache hit
    # never touches the instruction bytes again.

    # -- control -------------------------------------------------------------

    def _op_nop(self, operands) -> None:
        pass

    def _op_hlt(self, operands) -> None:
        self.halted = True

    def _op_cli(self, operands) -> None:
        self._set_flag(FLAG_IF, False)

    def _op_sti(self, operands) -> None:
        self._set_flag(FLAG_IF, True)
        self._interrupt_shadow = True

    def _op_iret(self, operands) -> None:
        self._do_iret()

    def _op_ret(self, operands) -> None:
        self.pc = self.pop32()

    def _op_bkpt(self, operands) -> None:
        raise CpuFault(VEC_BP)

    def _op_vmcall(self, operands) -> None:
        if self.vmcall_hook is not None and self.vmcall_hook(self):
            return
        raise CpuFault(VEC_VMCALL)

    # -- data movement -------------------------------------------------------

    def _op_movi(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = imm

    def _op_mov(self, operands) -> None:
        ra, rb = operands
        self.regs[ra] = self.regs[rb]

    def _load(self, operands, size: int) -> None:
        ra, rb, imm = operands
        offset = (self.regs[rb] + imm) & 0xFFFFFFFF
        data = self.read_virtual(SEG_DS, offset, size)
        self.regs[ra] = int.from_bytes(data, "little")

    def _store(self, operands, size: int) -> None:
        ra, rb, imm = operands
        offset = (self.regs[rb] + imm) & 0xFFFFFFFF
        self.write_virtual(SEG_DS, offset,
                           (self.regs[ra] & ((1 << (8 * size)) - 1))
                           .to_bytes(size, "little"))

    def _op_ld(self, operands) -> None:
        self._load(operands, 4)

    def _op_ld8(self, operands) -> None:
        self._load(operands, 1)

    def _op_ld16(self, operands) -> None:
        self._load(operands, 2)

    def _op_st(self, operands) -> None:
        self._store(operands, 4)

    def _op_st8(self, operands) -> None:
        self._store(operands, 1)

    def _op_st16(self, operands) -> None:
        self._store(operands, 2)

    def _op_lea(self, operands) -> None:
        ra, rb, imm = operands
        self.regs[ra] = (self.regs[rb] + imm) & 0xFFFFFFFF

    def _op_push(self, operands) -> None:
        self.push32(self.regs[operands])

    def _op_pushi(self, operands) -> None:
        self.push32(operands)

    def _op_pop(self, operands) -> None:
        self.regs[operands] = self.pop32()

    def _op_pushf(self, operands) -> None:
        self.push32(self.flags)

    def _op_popf(self, operands) -> None:
        new_flags = self.pop32()
        # IA-32 semantics: IF only changes when CPL <= IOPL, IOPL
        # only at ring 0 — silently preserved otherwise.  This is
        # the famous virtualisation hole: deprivileged kernels
        # *think* they toggled IF.  Monitors here survive it because
        # all interrupt delivery is virtualised through them anyway.
        preserved = 0
        if self.cpl > self.iopl:
            preserved |= FLAG_IF
        if self.cpl != 0:
            preserved |= isa.IOPL_MASK
        self.flags = (new_flags & ~preserved) | (self.flags & preserved)

    def _op_xchg(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra], regs[rb] = regs[rb], regs[ra]

    # -- ALU -----------------------------------------------------------------

    def _op_add(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra] = self._alu_add(regs[ra], regs[rb])

    def _op_addi(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = self._alu_add(self.regs[ra], imm)

    def _op_sub(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra] = self._alu_sub(regs[ra], regs[rb])

    def _op_subi(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = self._alu_sub(self.regs[ra], imm)

    def _op_and(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra] = self._alu_logic(regs[ra] & regs[rb])

    def _op_andi(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = self._alu_logic(self.regs[ra] & imm)

    def _op_or(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra] = self._alu_logic(regs[ra] | regs[rb])

    def _op_ori(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = self._alu_logic(self.regs[ra] | imm)

    def _op_xor(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra] = self._alu_logic(regs[ra] ^ regs[rb])

    def _op_xori(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = self._alu_logic(self.regs[ra] ^ imm)

    def _op_shl(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra] = self._alu_logic(regs[ra] << (regs[rb] & 31))

    def _op_shli(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = self._alu_logic(self.regs[ra] << (imm & 31))

    def _op_shr(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra] = self._alu_logic(regs[ra] >> (regs[rb] & 31))

    def _op_shri(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = self._alu_logic(self.regs[ra] >> (imm & 31))

    def _op_mul(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        regs[ra] = self._alu_logic(regs[ra] * regs[rb])

    def _op_muli(self, operands) -> None:
        ra, imm = operands
        self.regs[ra] = self._alu_logic(self.regs[ra] * imm)

    def _op_div(self, operands) -> None:
        ra, rb = operands
        regs = self.regs
        if regs[rb] == 0:
            raise CpuFault(VEC_DE)
        regs[ra] = self._alu_logic(regs[ra] // regs[rb])

    def _op_divi(self, operands) -> None:
        ra, imm = operands
        if imm == 0:
            raise CpuFault(VEC_DE)
        self.regs[ra] = self._alu_logic(self.regs[ra] // imm)

    def _op_cmp(self, operands) -> None:
        ra, rb = operands
        self._alu_sub(self.regs[ra], self.regs[rb])

    def _op_cmpi(self, operands) -> None:
        ra, imm = operands
        self._alu_sub(self.regs[ra], imm)

    def _op_test(self, operands) -> None:
        ra, rb = operands
        self._alu_logic(self.regs[ra] & self.regs[rb])

    def _op_not(self, operands) -> None:
        self.regs[operands] = self._alu_logic(~self.regs[operands])

    def _op_neg(self, operands) -> None:
        self.regs[operands] = self._alu_sub(0, self.regs[operands])

    # -- control flow --------------------------------------------------------
    # ``operands`` is the pre-sign-extended rel32; PC has already been
    # advanced past the instruction when a handler runs.

    def _op_jmp(self, rel) -> None:
        self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jz(self, rel) -> None:
        if self.flags & FLAG_ZF:
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jnz(self, rel) -> None:
        if not self.flags & FLAG_ZF:
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jc(self, rel) -> None:
        if self.flags & FLAG_CF:
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jnc(self, rel) -> None:
        if not self.flags & FLAG_CF:
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jg(self, rel) -> None:
        flags = self.flags
        if not flags & FLAG_ZF \
                and bool(flags & FLAG_SF) == bool(flags & FLAG_OF):
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jge(self, rel) -> None:
        flags = self.flags
        if bool(flags & FLAG_SF) == bool(flags & FLAG_OF):
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jl(self, rel) -> None:
        flags = self.flags
        if bool(flags & FLAG_SF) != bool(flags & FLAG_OF):
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jle(self, rel) -> None:
        flags = self.flags
        if flags & FLAG_ZF \
                or bool(flags & FLAG_SF) != bool(flags & FLAG_OF):
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_js(self, rel) -> None:
        if self.flags & FLAG_SF:
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_jns(self, rel) -> None:
        if not self.flags & FLAG_SF:
            self.pc = (self.pc + rel) & 0xFFFFFFFF

    def _op_call(self, rel) -> None:
        target = (self.pc + rel) & 0xFFFFFFFF
        self.push32(self.pc)
        self.pc = target

    def _op_jmpr(self, operands) -> None:
        self.pc = self.regs[operands]

    def _op_callr(self, operands) -> None:
        self.push32(self.pc)
        self.pc = self.regs[operands]

    # -- traps and I/O -------------------------------------------------------

    def _op_int(self, operands) -> None:
        self.deliver(operands, software=True)

    def _op_inb(self, operands) -> None:
        ra, rb = operands
        port = self.regs[rb] & 0xFFFF
        self._check_io_permission(port)
        self.regs[ra] = self.bus.port_read(port, 1)

    def _op_inw(self, operands) -> None:
        ra, rb = operands
        port = self.regs[rb] & 0xFFFF
        self._check_io_permission(port)
        self.regs[ra] = self.bus.port_read(port, 4)

    def _op_outb(self, operands) -> None:
        ra, rb = operands
        port = self.regs[rb] & 0xFFFF
        self._check_io_permission(port)
        self.bus.port_write(port, self.regs[ra], 1)

    def _op_outw(self, operands) -> None:
        ra, rb = operands
        port = self.regs[rb] & 0xFFFF
        self._check_io_permission(port)
        self.bus.port_write(port, self.regs[ra], 4)

    # -- system state --------------------------------------------------------

    def _op_movcr(self, operands) -> None:
        crn, reg = operands
        value = self.regs[reg]
        self.crs[crn] = value
        if crn == 3:
            self.mmu.set_cr3(value)
        elif crn == 0:
            # A CR0.PG toggle changes the fetch address space without
            # touching CR3: drop decoded code outright.
            self.invalidate_decode_cache()

    def _op_movrc(self, operands) -> None:
        crn, reg = operands
        self.regs[reg] = self.crs[crn]

    def _op_lgdt(self, operands) -> None:
        pseudo = self.regs[operands & 0x7]
        limit = int.from_bytes(self.read_virtual(SEG_DS, pseudo, 4),
                               "little")
        base = int.from_bytes(self.read_virtual(SEG_DS, pseudo + 4, 4),
                              "little")
        self.gdt.load(base, limit)

    def _op_lidt(self, operands) -> None:
        pseudo = self.regs[operands & 0x7]
        self.idtr_limit = int.from_bytes(
            self.read_virtual(SEG_DS, pseudo, 4), "little")
        self.idtr_base = int.from_bytes(
            self.read_virtual(SEG_DS, pseudo + 4, 4), "little")

    def _op_ltss(self, operands) -> None:
        self.tss_base = self.regs[operands & 0x7]

    def _op_movseg(self, operands) -> None:
        segn, reg = operands
        self.load_segment(segn, self.regs[reg] & 0xFFFF)

    def _op_movsgr(self, operands) -> None:
        segn, reg = operands
        self.regs[reg] = self.segments[segn].selector
