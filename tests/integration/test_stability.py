"""Integration: experiment E4 — the debugging environment stays stable
while the guest OS misbehaves (the paper's first claim).

Contrast class: the conventional embedded stub (bare metal) dies with
the guest; the LVMM stub keeps servicing the host debugger through every
failure mode we inject."""

import pytest

from repro.asm import assemble
from repro.baremetal import BareMetalRunner
from repro.core.session import DebugSession
from repro.guest.asmkernel import KernelConfig, build_kernel
from repro.hw import Cpu, firmware
from repro.hw.machine import Machine
from repro.hw.uart import HostSerialPort
from repro.rsp.client import RspClient


def crashing_guest(body: str):
    return assemble(f".org {firmware.GUEST_KERNEL_BASE}\n{body}\n")


class TestLvmmSurvivesGuestCrashes:
    def _session_with(self, body: str):
        sess = DebugSession(monitor="lvmm")
        sess.load_and_boot(crashing_guest(body))
        sess.attach()
        return sess

    def _run_to_crash(self, sess, limit=50_000):
        sess.monitor.resume_guest(step=False)
        sess.monitor.run(limit)

    def test_wild_write_into_monitor_region(self):
        sess = self._session_with("""
            MOVI R1, 0xF00000
            MOVI R0, 0xDEAD
        smash:
            ST   [R1+0], R0
            ADDI R1, 4
            JMP  smash
        """)
        self._run_to_crash(sess)
        assert sess.monitor.guest_dead
        # The debugger still works: full register/memory service.
        regs = sess.client.read_registers()
        assert len(regs) == 10
        assert sess.client.read_memory(firmware.GUEST_KERNEL_BASE, 4)

    def test_cli_hang_can_be_interrupted(self):
        sess = self._session_with("""
            CLI
        hang:
            JMP hang
        """)
        sess.client.send_async(b"c")
        for _ in range(5):
            sess._pump()
        sess.client.send_interrupt()
        reply = sess.client.wait_for_stop()
        assert reply == b"S02"
        # We can inspect the wedged guest.
        regs = sess.client.read_registers()
        assert regs[8] != 0

    def test_triple_fault_pattern(self):
        # No IDT at all: the first INT is unservicable.
        sess = self._session_with("""
            INT 0x21
            HLT
        """)
        self._run_to_crash(sess)
        assert sess.monitor.guest_dead
        assert "exception" in sess.monitor.guest_dead_reason
        assert sess.client.read_registers()

    def test_stack_destruction(self):
        sess = self._session_with("""
            MOVI SP, 0          ; demolish the stack, then fault
            PUSH R0
            HLT
        """)
        self._run_to_crash(sess)
        assert sess.monitor.guest_dead
        assert sess.client.read_registers()

    def test_monitor_memory_intact_after_rampage(self):
        sess = self._session_with("""
            MOVI R1, 0xE00000   ; sweep from below the monitor up
            MOVI R0, 0xFFFFFFFF
        sweep:
            ST   [R1+0], R0
            ADDI R1, 4
            JMP  sweep
        """)
        monitor_base = sess.monitor.monitor_base
        shadow_gdt_before = sess.machine.memory.read(
            sess.monitor.shadow_gdt.base, 64)
        # 1 MiB of 4-byte stores at 3 instructions each: ~800k to reach
        # the monitor boundary and fault.
        self._run_to_crash(sess, limit=900_000)
        shadow_gdt_after = sess.machine.memory.read(
            sess.monitor.shadow_gdt.base, 64)
        assert shadow_gdt_before == shadow_gdt_after
        assert sess.monitor.guest_dead
        # Memory *below* the monitor really was trashed (the sweep ran).
        assert sess.machine.memory.read_u32(0xE00000) == 0xFFFFFFFF
        assert monitor_base == 0xF00000


#: A guest whose exception delivery faults and whose #DF delivery
#: faults too: its #DE and #DF gates are present, but SP is 0, so
#: pushing either frame leaves the stack segment.  The #DE comes from a
#: DIV inside a hot loop, so with translation on it faults mid-block.
TRIPLE_FAULT_GUEST = f"""
    .equ IDT, {firmware.GUEST_KERNEL_BASE + 0x10000}
    .equ IDTR, {firmware.GUEST_KERNEL_BASE + 0x18000}
    MOVI R1, IDT
    MOVI R0, handler
    ST   [R1+0], R0
    ST   [R1+64], R0
    MOVI R0, {firmware.IDX_CODE0 << 2}
    ST16 [R1+4], R0
    ST16 [R1+68], R0
    MOVI R0, 1
    ST16 [R1+6], R0
    ST16 [R1+70], R0
    MOVI R2, IDTR
    MOVI R0, {256 * 8}
    ST   [R2+0], R0
    MOVI R0, IDT
    ST   [R2+4], R0
    MOV  R0, R2
    LIDT R0
    MOVI SP, 0
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
handler:
    HLT
"""


class TestLvmmSurvivesTripleFault:
    """A triple fault inside ``cpu.step`` kills the guest, not the
    monitor: no exception escapes the run, and the run's count is the
    same in both execution tiers."""

    def _session(self, monkeypatch, translate):
        monkeypatch.setattr(Cpu, "TRANSLATE_DEFAULT", translate)
        sess = DebugSession(monitor="lvmm")
        sess.load_and_boot(crashing_guest(TRIPLE_FAULT_GUEST))
        sess.attach()
        run_ends = []
        sess.monitor.record_taps.subscribe(
            lambda kind, payload: kind == "run-end"
            and run_ends.append(payload["executed"]))
        return sess, run_ends

    def _assert_died_of_triple_fault(self, sess, translate):
        monitor = sess.monitor
        cpu = sess.machine.cpu
        assert monitor.guest_dead
        assert "triple fault" in monitor.guest_dead_reason
        assert (cpu.block_instret_limit, cpu.block_cycle_limit,
                cpu.block_extra_steps) == (0, 0, 0)
        if translate:
            assert cpu.block_cache_stats()["hits"] > 0

    def _both_tiers(self, monkeypatch, drive):
        counts = []
        for translate in (True, False):
            sess, run_ends = self._session(monkeypatch, translate)
            executed = drive(sess)
            self._assert_died_of_triple_fault(sess, translate)
            counts.append((executed, run_ends, sess.machine.cpu.instret))
        assert counts[0] == counts[1]
        return counts[0]

    def test_monitor_run(self, monkeypatch):
        def drive(sess):
            sess.monitor.resume_guest(step=False)
            return sess.monitor.run(50_000)

        executed, run_ends, _ = self._both_tiers(monkeypatch, drive)
        assert run_ends == [executed]

    def test_debug_session_pump(self, monkeypatch):
        def drive(sess):
            assert sess.client.cont() == b"S0b"  # SIGSEGV: guest died
            return None

        _, run_ends, _ = self._both_tiers(monkeypatch, drive)
        assert run_ends


class TestEmbeddedStubDiesWithGuest:
    """The conventional-approach contrast: an in-OS stub stops being
    serviced the moment the guest stops cooperating."""

    def _bare_with_stub(self, body: str):
        machine = Machine()
        runner = BareMetalRunner(machine, with_embedded_stub=True)
        program = crashing_guest(body)
        program.load_into(machine.memory)
        runner.boot_guest(program.origin)
        host = HostSerialPort(machine.serial_link)
        return machine, runner, host

    def test_healthy_guest_services_stub(self):
        machine, runner, host = self._bare_with_stub("""
        loop:
            NOP
            JMP loop
        """)
        client = RspClient(send=host.send, recv=host.recv,
                           pump=runner.embedded_stub.poll, max_pumps=50)
        assert client.query_halt_reason() == 5

    def test_hung_guest_never_services_stub(self):
        machine, runner, host = self._bare_with_stub("""
            CLI
        hang:
            JMP hang
        """)
        # The guest hangs with interrupts off; its idle loop (which
        # would poll the stub) never runs again.
        machine.run(10_000)
        client = RspClient(send=host.send, recv=host.recv,
                           pump=lambda: None, max_pumps=20)
        from repro.errors import ProtocolError
        with pytest.raises(ProtocolError):
            client.query_halt_reason()

    def test_triple_fault_resets_machine_and_stub(self):
        machine, runner, host = self._bare_with_stub("""
            INT 0x21
            HLT
        """)
        runner.run(1000)
        assert runner.guest_dead
        assert runner.embedded_stub is None  # reset took the stub down


class TestStubLatencyWhileGuestCrashed:
    def test_many_exchanges_after_crash(self):
        """Round-trip robustness: 50 debugger exchanges against a dead
        guest all succeed (feeds the E4 bench)."""
        sess = DebugSession(monitor="lvmm")
        sess.load_and_boot(crashing_guest("INT 0x21\nHLT\n"))
        sess.attach()
        sess.monitor.resume_guest(step=False)
        sess.monitor.run(1000)
        assert sess.monitor.guest_dead
        for _ in range(50):
            assert len(sess.client.read_registers()) == 10
