"""The lightweight virtual machine monitor.

This class is the paper's contribution: a monitor embedded on the target
machine, independent of the guest OS, that

1. runs the unmodified guest kernel **deprivileged at ring 1** and
   emulates the privileged operations that trap (trap-and-emulate);
2. emulates **only** the interrupt controller, the timer and the debug
   UART — the SCSI HBA and NIC are accessed directly by the guest (the
   I/O permission bitmap plus uninterposed MMIO);
3. hosts the GDB remote stub, servicing the host-side debugger over the
   UART it owns, so debugging keeps working no matter what the guest
   does;
4. protects its own memory with ring compression + segment truncation
   (see :mod:`repro.vmm.protect`), giving the three protection levels.

In the reproduction the monitor's "ring-0 code" is Python attached to
the CPU's exception/interrupt hooks — the architectural contract (what
traps, what state is readable, what is reflected) is identical to a
native monitor's.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.report import Report
    from repro.asm.assembler import Program

from repro.asm.disasm import decode_one
from repro.errors import DisassemblerError, MonitorError, TripleFault
from repro.hw import firmware
from repro.hw.cpu import Cpu, CpuFault, IDT_ENTRY_SIZE, IdtGate
from repro.hw.isa import (
    FLAG_IF,
    FLAG_TF,
    IOPL_MASK,
    SEG_CS,
    SEG_DS,
    SEG_SS,
    VEC_BP,
    VEC_DB,
    VEC_GP,
)
from repro.hw.machine import Machine
from repro.hw.pic import standard_setup
from repro.hw.scsi import PORT_BASE_SCSI, PORT_SPAN
from repro.hw.seg import DESCRIPTOR_SIZE, selector_index
from repro.hw.uart import IRQ_COM1, PORT_BASE_COM1
from repro.obs.bus import CAT_TRAP, TraceBus
from repro.obs.profiler import NEVER, GuestProfiler
from repro.obs.taps import TapPoint
from repro.rsp.stub import DebugStub
from repro.rsp.target import CpuTargetAdapter, SIGSEGV, SIGTRAP
from repro.sim.budget import CAT_EMULATION, CAT_WORLD_SWITCH
from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.vmm.commands import dispatch
from repro.vmm.intercept import LvmmIntercept
from repro.vmm.protect import ShadowGdt, compress_selector
from repro.vmm.reflect import InterruptReflection
from repro.vmm.watchdog import DEGRADE_FULL
from repro.vmm.shadow import ShadowState

#: Offsets of monitor structures inside the monitor region.
OFF_SHADOW_GDT = 0x0000
OFF_SHADOW_IDT = 0x1000
OFF_REAL_TSS = 0x2000

#: Guest kernel-visible console written via VMCALL (function 0).
VMCALL_PUTC = 0
VMCALL_MAGIC = 1
VMCALL_PANIC = 2
#: Register the guest's task table (R1 = header address) so the debug
#: stub can enumerate and inspect threads.
VMCALL_SET_TASK_TABLE = 3
MONITOR_MAGIC = 0x4C564D4D  # "LVMM"

#: Event-ring kinds recorded as complete spans, mapped to the
#: cost-model attribute charged for one such event.  Every other kind
#: (exc, debug, death) is an instant.
_SPAN_COSTS = {
    "trap": "world_switch_cycles",
    "irq": "interrupt_deliver_cycles",
    "reflect": "pic_emulation_cycles",
    "vmcall": "world_switch_cycles",
}


@dataclass
class MonitorStats:
    traps_emulated: int = 0
    traps_by_mnemonic: Dict[str, int] = field(default_factory=dict)
    interrupts_fielded: int = 0
    interrupts_reflected: int = 0
    exceptions_reflected: int = 0
    debug_stops: int = 0
    vmcalls: int = 0
    uart_bytes_in: int = 0
    uart_bytes_out: int = 0
    wild_writes_injected: int = 0
    spurious_interrupts_injected: int = 0
    resumes_refused: int = 0


class GuestImageRejected(MonitorError):
    """A strict monitor refused to load a statically-flagged image."""

    def __init__(self, report: "Report") -> None:
        errors = report.errors
        lines = "\n".join(f.format() for f in errors)
        super().__init__(
            f"guest image rejected: {len(errors)} error finding(s)\n"
            f"{lines}")
        self.report = report


class GuestImageWarning(UserWarning):
    """Emitted when a non-strict monitor loads a flagged image."""


#: Task states in the guest<->monitor task-table ABI
#: (see repro.guest.asmthreads).
TASK_EMPTY, TASK_READY, TASK_RUNNING, TASK_EXITED = 0, 1, 2, 3
_TASK_STATE_NAMES = {0: "empty", 1: "ready", 2: "running", 3: "exited"}
#: Parked-frame layout below a task's saved SP (ascending words).
_FRAME_REGS = ("R6", "R5", "R4", "R3", "R2", "R1", "R0",
               "PC", "CS", "FLAGS")


class LvmmTargetAdapter(CpuTargetAdapter):
    """Debug-stub view of the guest, mediated by the monitor.

    When the guest has registered a task table (VMCALL 3), the adapter
    exposes every task as a GDB thread: parked tasks' registers are
    read straight out of their switch frames in guest memory.
    """

    def __init__(self, monitor: "LightweightVmm") -> None:
        super().__init__(monitor.machine.cpu)
        self._monitor = monitor

    def resume(self, step: bool) -> None:
        self._monitor.resume_guest(step)

    def monitor_command(self, text: str) -> str:
        return self._monitor.monitor_command(text)

    # -- threads --------------------------------------------------------------

    def _table(self):
        """(current_index, [(state, saved_sp), ...]) or None."""
        base = self._monitor.task_table_addr
        if base is None:
            return None
        memory = self._monitor.machine.memory
        current = memory.read_u32(base)
        count = memory.read_u32(base + 4)
        if not 0 < count <= 64:
            return None
        tasks = [(memory.read_u32(base + 8 + index * 8),
                  memory.read_u32(base + 12 + index * 8))
                 for index in range(count)]
        return current, tasks

    def thread_ids(self):
        table = self._table()
        if table is None:
            return [1]
        _, tasks = table
        return [index + 1 for index, (state, _) in enumerate(tasks)
                if state != TASK_EMPTY]

    def current_thread_id(self):
        table = self._table()
        if table is None:
            return 1
        current, _ = table
        return current + 1

    def thread_registers(self, thread_id: int):
        table = self._table()
        if table is None:
            return super().thread_registers(thread_id)
        current, tasks = table
        index = thread_id - 1
        if not 0 <= index < len(tasks):
            return None
        if index == current:
            return self.read_registers()
        state, saved_sp = tasks[index]
        if state == TASK_EMPTY:
            return None
        # Decode the parked switch frame.
        memory = self._monitor.machine.memory
        words = [memory.read_u32(saved_sp + 4 * i) for i in range(10)]
        r6, r5, r4, r3, r2, r1, r0, pc, _cs, flags = words
        sp_after_switch = (saved_sp + 40) & 0xFFFFFFFF
        return [r0, r1, r2, r3, r4, r5, r6, sp_after_switch, pc, flags]

    def thread_extra_info(self, thread_id: int) -> str:
        table = self._table()
        if table is None:
            return "single-threaded target"
        current, tasks = table
        index = thread_id - 1
        if not 0 <= index < len(tasks):
            return "no such task"
        state, saved_sp = tasks[index]
        name = _TASK_STATE_NAMES.get(state, f"state{state}")
        marker = " (current)" if index == current else ""
        return f"task {index}: {name}{marker}"


class LightweightVmm:
    """The LVMM bound to one :class:`Machine`."""

    name = "lvmm"

    def __init__(self, machine: Machine,
                 cost_model: Optional[CostModel] = None,
                 strict: bool = False) -> None:
        self.machine = machine
        self.cost = cost_model or DEFAULT_COST_MODEL
        #: When True, :meth:`load_guest` refuses statically-flagged
        #: images instead of merely warning.
        self.strict = strict
        #: Report produced by the last :meth:`load_guest` gate.
        self.last_verify_report: Optional["Report"] = None
        self.shadow = ShadowState()
        self.stats = MonitorStats()
        self.monitor_base = firmware.monitor_base(machine.memory.size)
        self.shadow_gdt = ShadowGdt(
            machine.memory, self.monitor_base + OFF_SHADOW_GDT,
            self.monitor_base)
        self.console = bytearray()
        #: Event ring: every trapped instruction, exception, fielded and
        #: reflected interrupt, VMCALL, debug stop and guest death, as a
        #: ``trap``-category record whose ``args["detail"]`` describes
        #: it.  ``monitor trace`` reads it back; the structured tracer
        #: and the profiler subscribe to its ``taps``.
        self.trace = TraceBus(capacity=1024)
        self.trace.enabled = True
        #: Guest task-table header (set via VMCALL 3); None = no
        #: thread-aware debugging.
        self.task_table_addr: Optional[int] = None
        self.guest_dead = False
        self.guest_dead_reason = ""
        self.stopped = False        # guest frozen for the debugger
        self.stepping = False
        self.installed = False
        #: Service level (see repro.vmm.watchdog): full-service lets the
        #: guest run; stub-only / frozen-snapshot refuse resumes.
        self.degradation_level = DEGRADE_FULL
        #: Attached :class:`~repro.vmm.watchdog.MonitorWatchdog`, if any.
        self.watchdog = None
        #: Multicast observation point notified as ``taps(kind,
        #: payload)`` at the nondeterminism boundary (run begin/end,
        #: debugger service, fault triggers, stops, guest death).  The
        #: :class:`repro.replay.FlightRecorder` (or a replayer) and the
        #: structured tracer subscribe here.  Observers must only
        #: observe.
        self.record_taps = TapPoint()
        #: Attached FlightRecorder / replayer status (``monitor record``
        #: and ``monitor replay`` qRcmds report these).
        self.recorder = None
        self.replay_status = None
        #: Attached :class:`repro.obs.profiler.GuestProfiler`, sampled
        #: from :meth:`run` (see :meth:`attach_profiler`).
        self.profiler = None
        self._profiler_reason_cb = None
        #: Live structured tracer started via ``monitor trace start``.
        self.obs_tracer = None
        self.intercept = LvmmIntercept(
            self.shadow, machine.bus, machine.budget, self.cost,
            include_world_switch=False,
            on_virtual_eoi=self._after_virtual_eoi)
        self.reflection = InterruptReflection(
            self.shadow, machine.bus, machine.budget, self.cost)
        self.adapter = LvmmTargetAdapter(self)
        self.stub = DebugStub(self.adapter, send_bytes=self._uart_send)

    # ------------------------------------------------------------------
    # Observability (profiler + structured trace)
    # ------------------------------------------------------------------

    def attach_profiler(self, profiler: GuestProfiler) -> GuestProfiler:
        """Sample guest PCs from the run loop at the profiler's stride.

        Also feeds the profiler's trap-reason channel from the monitor
        event ring so samples carry "what last happened" context.
        """
        if self.profiler is not None:
            raise MonitorError("a profiler is already attached")
        self.profiler = profiler
        self._profiler_reason_cb = self.trace.taps.subscribe(
            lambda record: profiler.note_reason(record.name))
        profiler.start(self.machine.cpu.instret)
        return profiler

    def detach_profiler(self) -> None:
        """Stop sampling (idempotent); keeps collected samples."""
        if self.profiler is None:
            return
        self.profiler.stop()
        self.trace.taps.unsubscribe(self._profiler_reason_cb)
        self._profiler_reason_cb = None
        self.profiler = None

    # ------------------------------------------------------------------
    # Installation / guest boot
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Take ownership of the machine: hooks, intercepts, real PIC."""
        if self.installed:
            raise MonitorError("monitor already installed")
        cpu = self.machine.cpu
        cpu.exception_hook = self._on_exception
        cpu.interrupt_hook = self._on_interrupt
        cpu.vmcall_hook = self._on_vmcall
        self.machine.bus.intercept = self.intercept
        # The monitor owns the real PIC: canonical bases, all unmasked.
        standard_setup(self.machine.pic)
        # The monitor owns the debug UART: RX interrupts on.
        self.machine.bus.raw_port_write(PORT_BASE_COM1 + 1, 0x01, 1)
        # High-throughput passthrough: the guest may touch SCSI ports
        # directly even at ring 1 (the I/O permission bitmap).
        cpu.io_allowed_ports = set(range(PORT_BASE_SCSI,
                                         PORT_BASE_SCSI + PORT_SPAN))
        # Real TSS (ring-transition stacks) lives in monitor memory.
        cpu.tss_base = self.monitor_base + OFF_REAL_TSS
        self.installed = True

    def boot_guest(self, entry_pc: int, guest_memory_limit: int = None) -> None:
        """Start the guest kernel, deprivileged, at ``entry_pc``.

        The guest image believes it boots at ring 0 with flat segments;
        the monitor gives it ring-1 flat segments truncated below the
        monitor region.  Every privileged instruction in its boot path
        traps and is emulated.
        """
        if not self.installed:
            raise MonitorError("install() the monitor before booting")
        cpu = self.machine.cpu
        limit = guest_memory_limit if guest_memory_limit is not None \
            else self.monitor_base
        limit = min(limit, self.monitor_base)
        # Seed a boot shadow GDT from the firmware flat layout.
        selectors = firmware.build_gdt(self.machine.memory, limit)
        self.shadow.gdtr.base = firmware.GDT_BASE
        self.shadow.gdtr.limit = firmware.GDT_DESCRIPTORS * DESCRIPTOR_SIZE
        self.shadow_gdt.rebuild(self.shadow.gdtr.base,
                                self.shadow.gdtr.limit)
        cpu.gdt.load(self.shadow_gdt.base, self.shadow_gdt.limit)

        code1 = self.shadow_gdt.read(firmware.IDX_CODE0)
        data1 = self.shadow_gdt.read(firmware.IDX_DATA0)
        cpu.force_segment(SEG_CS, compress_selector(selectors.code0), code1)
        cpu.force_segment(SEG_DS, compress_selector(selectors.data0), data1)
        cpu.force_segment(SEG_SS, compress_selector(selectors.data0), data1)
        cpu.sp = firmware.RING1_STACK_TOP
        cpu.pc = entry_pc
        cpu.flags = 0  # IOPL 0: every CLI/STI/HLT/IN/OUT gated
        # Default ring-transition stacks until the guest's LTSS traps in.
        firmware.write_tss(
            self.machine.memory,
            {1: (firmware.RING1_STACK_TOP,
                 compress_selector(selectors.data0))},
            tss_base=self.machine.cpu.tss_base)

    def load_guest(self, program: "Program",
                   entry_pc: Optional[int] = None,
                   guest_memory_limit: Optional[int] = None,
                   strict: Optional[bool] = None) -> "Report":
        """Verify, load and boot an assembled guest image in one step.

        :func:`repro.analysis.analyze_image` checks the image before it
        touches guest memory.  Error findings raise
        :class:`GuestImageRejected` when the monitor is strict (ctor
        ``strict=True`` or the ``strict`` override here); otherwise
        they are reported as :class:`GuestImageWarning` warnings and
        the guest boots anyway — the monitor survives whatever the
        image does, that is the whole point of the paper.
        """
        from repro.analysis import analyze_image

        report = analyze_image(program.image, program.origin,
                               monitor_base=self.monitor_base)
        self.last_verify_report = report
        effective_strict = self.strict if strict is None else strict
        if report.errors:
            if effective_strict:
                raise GuestImageRejected(report)
            for finding in report.errors:
                warnings.warn(
                    f"guest image: {finding.format()}",
                    GuestImageWarning, stacklevel=2)
        program.load_into(self.machine.memory)
        if not self.installed:
            self.install()
        self.boot_guest(program.origin if entry_pc is None else entry_pc,
                        guest_memory_limit)
        return report

    # ------------------------------------------------------------------
    # Exception handling (the trap-and-emulate core)
    # ------------------------------------------------------------------

    def _on_exception(self, cpu: Cpu, vector: int, error: int) -> bool:
        if vector in (VEC_DB, VEC_BP):
            self.debug_stop(SIGTRAP)
            return True
        if vector == VEC_GP and cpu.cpl >= 1:
            if self._try_emulate(cpu):
                return True
        return self._reflect_exception(cpu, vector, error)

    def _try_emulate(self, cpu: Cpu) -> bool:
        """Decode the faulting instruction; emulate it if it is one of
        the privileged operations the monitor virtualises."""
        code = cpu.peek_virtual(SEG_CS, cpu.pc, 8)
        if not code:
            return False
        try:
            insn = decode_one(code, 0, cpu.pc)
        except DisassemblerError:
            return False
        handler = getattr(self, f"_emulate_{insn.mnemonic.lower()}", None)
        if handler is None:
            return False
        self._charge_trap()
        self._skip_pc_advance = False
        if not handler(cpu, insn):
            return False
        self.stats.traps_emulated += 1
        by = self.stats.traps_by_mnemonic
        by[insn.mnemonic] = by.get(insn.mnemonic, 0) + 1
        self._trace_event("trap", insn.text)
        if not self._skip_pc_advance:
            cpu.pc = (cpu.pc + insn.length) & 0xFFFFFFFF
        if self.stepping:
            self.debug_stop(SIGTRAP)
        return True

    #: Control-transfer emulations (IRET) set their own PC.
    _skip_pc_advance = False

    def _charge_trap(self, emulation: int = 0) -> None:
        self.machine.budget.charge(self.cost.world_switch_cycles,
                                   CAT_WORLD_SWITCH)
        if emulation:
            self.machine.budget.charge(emulation, CAT_EMULATION)

    # -- individual privileged-instruction emulations ---------------------------

    def _emulate_cli(self, cpu: Cpu, insn) -> bool:
        self.shadow.vif = False
        return True

    def _emulate_sti(self, cpu: Cpu, insn) -> bool:
        self.shadow.vif = True
        # Delivery of anything pending happens *after* PC advances; the
        # caller advances PC, so schedule via the post-emulation check.
        self._pending_sti_window = True
        return True

    _pending_sti_window = False

    def _emulate_hlt(self, cpu: Cpu, insn) -> bool:
        if self.shadow.pending_virtual_vector() is not None:
            # An interrupt is already waiting: HLT falls through.
            return True
        self.shadow.halted = True
        cpu.halted = True
        return True

    def _emulate_iret(self, cpu: Cpu, insn) -> bool:
        """IRET through a guest-fabricated frame.

        Ring compression makes frames the guest built itself (initial
        task contexts, hand-rolled returns) carry RPL-0 selectors; the
        hardware IRET refuses them from ring 1, so the monitor performs
        the return with the selectors compressed — the classic
        IRET-emulation every ring-compression monitor ships.
        """
        try:
            new_pc = cpu.pop32()
            new_cs = cpu.pop32()
            new_flags = cpu.pop32()
            sel = compress_selector(new_cs)
            index = selector_index(sel)
            if index * DESCRIPTOR_SIZE >= self.shadow_gdt.limit:
                return False
            descriptor = self.shadow_gdt.read(index)
            if not descriptor.present or not descriptor.code:
                return False
            outward = descriptor.dpl > cpu.cpl
            if outward:
                new_sp = cpu.pop32()
                new_ss = cpu.pop32()
                ss_sel = compress_selector(new_ss)
                ss_descriptor = self.shadow_gdt.read(
                    selector_index(ss_sel))
                cpu.force_segment(SEG_SS, ss_sel, ss_descriptor)
                cpu.sp = new_sp
            cpu.force_segment(SEG_CS, sel, descriptor)
            cpu.pc = new_pc
            # The guest's IF intent lands on the virtual flag; the real
            # IF stays monitor-owned.  Arithmetic flags pass through.
            self.shadow.vif = bool(new_flags & FLAG_IF)
            cpu.flags = (cpu.flags & (FLAG_IF | IOPL_MASK)) | \
                (new_flags & ~(FLAG_IF | IOPL_MASK))
        except CpuFault:
            return False
        self._skip_pc_advance = True
        if self.shadow.vif:
            self._pending_sti_window = True
        return True

    def _emulate_lidt(self, cpu: Cpu, insn) -> bool:
        pointer = cpu.regs[insn.raw[1] & 0x7]
        raw = cpu.peek_virtual(SEG_DS, pointer, 8)
        if raw is None:
            return False
        self.shadow.idtr.limit = int.from_bytes(raw[0:4], "little")
        self.shadow.idtr.base = int.from_bytes(raw[4:8], "little")
        self._rebuild_shadow_idt()
        return True

    def _emulate_lgdt(self, cpu: Cpu, insn) -> bool:
        pointer = cpu.regs[insn.raw[1] & 0x7]
        raw = cpu.peek_virtual(SEG_DS, pointer, 8)
        if raw is None:
            return False
        self.shadow.gdtr.limit = int.from_bytes(raw[0:4], "little")
        self.shadow.gdtr.base = int.from_bytes(raw[4:8], "little")
        self.shadow_gdt.rebuild(self.shadow.gdtr.base,
                                self.shadow.gdtr.limit)
        cpu.gdt.load(self.shadow_gdt.base, self.shadow_gdt.limit)
        return True

    def _emulate_ltss(self, cpu: Cpu, insn) -> bool:
        guest_tss = cpu.regs[insn.raw[1] & 0x7]
        self.shadow.tss_base = guest_tss
        # The guest's "ring 0" stack is the real ring-1 stack.
        memory = self.machine.memory
        guest_sp0 = memory.read_u32(guest_tss)
        guest_ss0 = memory.read_u32(guest_tss + 4)
        firmware.write_tss(
            memory,
            {1: (guest_sp0, compress_selector(guest_ss0)),
             2: (memory.read_u32(guest_tss + 8),
                 memory.read_u32(guest_tss + 12))},
            tss_base=cpu.tss_base)
        return True

    def _emulate_movcr(self, cpu: Cpu, insn) -> bool:
        crn = (insn.raw[1] >> 4) & 0x3
        value = cpu.regs[insn.raw[1] & 0x7]
        if crn == 0:
            self.shadow.cr0 = value
            cpu.crs[0] = value  # PG bit takes real effect
        elif crn == 3:
            self.shadow.cr3 = value
            cpu.mmu.set_cr3(value)
            cpu.crs[3] = value
        else:
            cpu.crs[crn] = value
        return True

    def _emulate_movrc(self, cpu: Cpu, insn) -> bool:
        crn = (insn.raw[1] >> 4) & 0x3
        reg = insn.raw[1] & 0x7
        if crn == 0:
            cpu.regs[reg] = self.shadow.cr0
        elif crn == 3:
            cpu.regs[reg] = self.shadow.cr3
        else:
            cpu.regs[reg] = cpu.crs[crn]
        return True

    def _emulate_movseg(self, cpu: Cpu, insn) -> bool:
        segn = (insn.raw[1] >> 4) & 0x3
        reg = insn.raw[1] & 0x7
        sel = cpu.regs[reg] & 0xFFFF
        index = selector_index(sel)
        if index * DESCRIPTOR_SIZE >= self.shadow_gdt.limit:
            return False
        descriptor = self.shadow_gdt.read(index)
        if not descriptor.present:
            return False
        cpu.force_segment(segn, compress_selector(sel), descriptor)
        return True

    def _emulate_inb(self, cpu: Cpu, insn) -> bool:
        return self._emulate_io(cpu, insn, size=1, write=False)

    def _emulate_inw(self, cpu: Cpu, insn) -> bool:
        return self._emulate_io(cpu, insn, size=4, write=False)

    def _emulate_outb(self, cpu: Cpu, insn) -> bool:
        return self._emulate_io(cpu, insn, size=1, write=True)

    def _emulate_outw(self, cpu: Cpu, insn) -> bool:
        return self._emulate_io(cpu, insn, size=4, write=True)

    def _emulate_io(self, cpu: Cpu, insn, size: int, write: bool) -> bool:
        ra = (insn.raw[1] >> 4) & 0x7
        rb = insn.raw[1] & 0x7
        port = cpu.regs[rb] & 0xFFFF
        # The bus consults the intercept: PIC/PIT/UART are virtualised,
        # anything else is the guest touching a port outside its bitmap.
        if write:
            self.machine.bus.port_write(port, cpu.regs[ra], size)
        else:
            cpu.regs[ra] = self.machine.bus.port_read(port, size)
        return True

    # ------------------------------------------------------------------
    # Shadow IDT
    # ------------------------------------------------------------------

    def _rebuild_shadow_idt(self) -> None:
        """Mirror the guest's virtual IDT into the real (monitor) IDT.

        Gate target selectors keep their indices (the shadow GDT mirrors
        indices) so handlers execute at ring 1 automatically.
        """
        cpu = self.machine.cpu
        memory = self.machine.memory
        shadow_base = self.monitor_base + OFF_SHADOW_IDT
        entries = min(self.shadow.idtr.limit // IDT_ENTRY_SIZE,
                      firmware.IDT_ENTRIES)
        for vector in range(entries):
            raw = memory.read(self.shadow.idtr.base
                              + vector * IDT_ENTRY_SIZE, IDT_ENTRY_SIZE)
            gate = IdtGate.unpack(raw)
            if gate.present:
                # Gate DPLs are ring-compressed like descriptor DPLs:
                # a DPL-0 gate must stay invocable by the ring-1 guest
                # kernel (its own INT instructions), while DPL-3 gates
                # stay open to applications.
                gate = IdtGate(offset=gate.offset,
                               selector=compress_selector(gate.selector),
                               present=True, dpl=max(gate.dpl, 1),
                               gate_type=gate.gate_type)
            memory.write(shadow_base + vector * IDT_ENTRY_SIZE, gate.pack())
        cpu.idtr_base = shadow_base
        cpu.idtr_limit = entries * IDT_ENTRY_SIZE

    # ------------------------------------------------------------------
    # Exception reflection
    # ------------------------------------------------------------------

    def _reflect_exception(self, cpu: Cpu, vector: int, error: int) -> bool:
        """Deliver a guest-caused exception through the guest's IDT.

        Returning False lets the CPU deliver through the (shadow) IDT
        with full double-fault semantics.  If the guest has no usable
        IDT at all, the guest is dead — but the monitor (and therefore
        the debugger) lives on, which is experiment E4.
        """
        self.stats.exceptions_reflected += 1
        self._charge_trap()
        self._trace_event("exc", f"vector={vector} error={error:#x}")
        if self.shadow.idtr.limit == 0:
            self._guest_died(f"unhandled exception {vector} before LIDT")
            return True
        try:
            gate = cpu.read_idt_gate(vector)
            if not gate.present:
                self._guest_died(f"no handler for exception {vector}")
                return True
        except CpuFault:
            self._guest_died(f"unreadable IDT for exception {vector}")
            return True
        return False  # let hardware-style delivery proceed

    def _guest_died(self, reason: str) -> None:
        self.guest_dead = True
        self.guest_dead_reason = reason
        if self.record_taps:
            self.record_taps("death", {"reason": reason})
        self._trace_event("death", reason)
        self.machine.cpu.halted = True
        self.debug_stop(SIGSEGV)

    # ------------------------------------------------------------------
    # External interrupts
    # ------------------------------------------------------------------

    def _on_interrupt(self, cpu: Cpu, vector: int) -> bool:
        self.stats.interrupts_fielded += 1
        line = self.reflection.field(vector)
        self._trace_event("irq", f"irq={line} vector={vector}")
        if line == IRQ_COM1:
            self.service_debugger()
            return True
        # A guest-owned device: latch into the virtual PIC and reflect
        # when the guest's virtual IF allows.
        self.reflection.latch(line)
        if not self.stopped:
            self._reflect_pending_interrupt()
        # HLT semantics: the guest wakes only when an interrupt is
        # actually *delivered* to it; a latched-but-masked interrupt
        # leaves it parked (reflection clears shadow.halted).
        if self.shadow.halted:
            cpu.halted = True
        return True

    def _reflect_pending_interrupt(self) -> None:
        if self.guest_dead or self.stopped:
            return
        vector = self.shadow.pending_virtual_vector()
        if vector is None or self.shadow.idtr.limit == 0:
            return  # nothing deliverable, or guest has no IDT yet
        cpu = self.machine.cpu
        try:
            gate = cpu.read_idt_gate(vector)
        except CpuFault:
            self._guest_died(f"bad IDT reflecting vector {vector}")
            return
        if not gate.present:
            return  # guest has no handler: leave it pending
        self.reflection.take()
        self.shadow.halted = False
        cpu.halted = False
        self.stats.interrupts_reflected += 1
        self._trace_event("reflect", f"vector={vector}")
        # Interrupt-gate semantics on the *virtual* IF.
        self.shadow.vif_before_reflect = True
        self.shadow.vif = False
        try:
            cpu.deliver(vector)
        except CpuFault:
            self._guest_died(f"fault delivering vector {vector}")

    def _after_virtual_eoi(self) -> None:
        """The guest EOI'd its virtual PIC: restore the virtual IF saved
        at reflection (the practical approximation of restoring it at
        IRET; both guests in this repo EOI immediately before IRET), and
        reflect what that makes deliverable before the next instruction."""
        shadow = self.shadow
        if shadow.vif_before_reflect is not None:
            shadow.vif = shadow.vif_before_reflect
            shadow.vif_before_reflect = None
        if shadow.vif:
            self._pending_sti_window = True

    # ------------------------------------------------------------------
    # VMCALL services
    # ------------------------------------------------------------------

    def _on_vmcall(self, cpu: Cpu) -> bool:
        self.stats.vmcalls += 1
        self._charge_trap()
        function = cpu.regs[0]
        self._trace_event("vmcall", f"fn={function} arg={cpu.regs[1]:#x}")
        if function == VMCALL_PUTC:
            self.console.append(cpu.regs[1] & 0xFF)
            return True
        if function == VMCALL_MAGIC:
            cpu.regs[1] = MONITOR_MAGIC
            return True
        if function == VMCALL_PANIC:
            self._guest_died(f"guest panic code {cpu.regs[1]:#x}")
            return True
        if function == VMCALL_SET_TASK_TABLE:
            self.task_table_addr = cpu.regs[1]
            return True
        return False  # unknown hypercall: #GP-like reflection

    # ------------------------------------------------------------------
    # Debugger service
    # ------------------------------------------------------------------

    def _uart_send(self, data: bytes) -> None:
        self.machine.uart.transmit(data)
        self.stats.uart_bytes_out += len(data)

    def service_debugger(self) -> None:
        """Drain debugger bytes from the UART into the stub."""
        received = self.machine.uart.drain(self.machine.bus)
        if received:
            self.stats.uart_bytes_in += len(received)
            was_running = self.stub.running
            self.stub.feed(received)
            if was_running and not self.stub.running:
                # ^C from the debugger interrupted the guest.
                self.stopped = True
        if self.record_taps:
            self.record_taps("svc", {"drained": len(received)})

    def debug_stop(self, signal: int) -> None:
        self.stopped = True
        self.stepping = False
        self.machine.cpu.flags &= ~FLAG_TF
        self.stats.debug_stops += 1
        self._trace_event("debug", f"stop signal={signal}")
        if self.record_taps:
            self.record_taps("stop", {"signal": signal,
                                      "pc": self.machine.cpu.pc})
        self.stub.report_stop(signal)

    def monitor_command(self, text: str) -> str:
        """Service a host-side ``monitor <cmd>`` (see repro.vmm.commands)."""
        return dispatch(self, text)

    def _trace_event(self, kind: str, detail: str) -> None:
        """Append one monitor event to the :attr:`trace` ring."""
        cpu = self.machine.cpu
        cost_attr = _SPAN_COSTS.get(kind)
        dur = getattr(self.cost, cost_attr, 0) if cost_attr else 0
        args = {"detail": detail}
        if dur:
            self.trace.complete(CAT_TRAP, kind, cpu.cycle_count, dur,
                                cpu.instret, pc=cpu.pc, args=args)
        else:
            self.trace.instant(CAT_TRAP, kind, cpu.cycle_count,
                               cpu.instret, pc=cpu.pc, args=args)

    # ------------------------------------------------------------------
    # Fault triggers (repro.faults campaign hooks)
    # ------------------------------------------------------------------

    def inject_wild_write(self, addr: int, data: bytes) -> bool:
        """Simulate a rampaging guest writing through a stray pointer.

        Bytes below the monitor region land in guest memory like any
        guest store would.  A write reaching ``monitor_base`` is the
        case the paper's protection mechanism exists for: the monitor
        refuses the bytes and declares the guest dead instead of
        letting its own code/data be corrupted.  Returns True when the
        write stayed entirely within guest memory.
        """
        if self.record_taps:
            self.record_taps("wild-write", {"addr": addr,
                                            "data": data.hex()})
        memory = self.machine.memory
        self.stats.wild_writes_injected += 1
        end = addr + len(data)
        landed = max(0, min(end, self.monitor_base) - addr)
        if landed:
            memory.write(addr, data[:landed])
        if end > self.monitor_base:
            self._guest_died(
                f"wild write into monitor region at {addr:#x}")
            return False
        return True

    def inject_spurious_interrupt(self, line: int) -> None:
        """Raise a hardware interrupt the guest never asked for."""
        if self.record_taps:
            self.record_taps("spurious-irq", {"line": line})
        self.stats.spurious_interrupts_injected += 1
        self.machine.pic.raise_irq(line)

    def monitor_region_hash(self) -> str:
        """sha256 over the protected monitor region.

        The campaign invariant: this hash is identical before and
        after any fault schedule — nothing the guest or the injected
        faults do may touch the monitor's half of memory.
        """
        memory = self.machine.memory
        blob = memory.read(self.monitor_base,
                           memory.size - self.monitor_base)
        return hashlib.sha256(blob).hexdigest()

    def resume_guest(self, step: bool) -> None:
        if self.degradation_level != DEGRADE_FULL:
            # Degraded service (watchdog verdict): refuse to hand the
            # CPU back.  The stub marked itself running before calling
            # us, so the stop below reaches the debugger as an
            # immediate stop reply — queries keep working, c/s bounce.
            self.stats.resumes_refused += 1
            self.debug_stop(SIGTRAP)
            return
        self.stopped = False
        self.stepping = step
        # RF semantics: stepping off/over a breakpointed instruction.
        self.machine.cpu.resume_flag = True
        if step:
            self.machine.cpu.flags |= FLAG_TF

    # ------------------------------------------------------------------
    # Run loop: the CPU runs the guest (``Cpu.run``); the monitor steps
    # in only between instructions, through the hook methods below
    # ------------------------------------------------------------------

    def run(self, max_instructions: int = 1_000_000,
            until=None) -> int:
        """Run the guest under the monitor until it stops or dies.

        ``until`` is an optional zero-argument predicate checked between
        instructions (e.g. "guest reached its done state").
        """
        if self.record_taps:
            self.record_taps("run-begin", {"max": max_instructions,
                                           "pre_stopped": self.stopped})
        executed = self.machine.cpu.run(max_instructions, until,
                                        events=self.machine, hook=self)
        if self.record_taps:
            self.record_taps("run-end", {"max": max_instructions,
                                         "executed": executed})
        return executed

    def between_instructions(self) -> bool:
        """End the run once the guest is stopped or dead; otherwise
        reflect an interrupt the last STI/IRET/EOI made deliverable."""
        if self.stopped or self.guest_dead:
            return True
        if self._pending_sti_window:
            self._pending_sti_window = False
            self._reflect_pending_interrupt()
        return False

    @property
    def next_sample(self) -> float:
        """Instret of the attached profiler's next sample."""
        return NEVER if self.profiler is None else self.profiler.next_sample

    def take_sample(self, cpu: Cpu) -> float:
        """Sample the guest PC; returns the next threshold."""
        if self.profiler is None:
            return NEVER  # detached during this run
        return self.profiler.sample(cpu)

    def triple_fault(self, fault: TripleFault) -> None:
        """The guest's #DF delivery faulted: the guest is dead, the
        monitor and its debugger stub live on."""
        self._guest_died(str(fault))


#: Short alias used throughout the docs and tests.
Monitor = LightweightVmm
