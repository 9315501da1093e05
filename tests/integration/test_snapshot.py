"""Integration: checkpoint/restore of a stopped guest (the simulator-
enabled extension — wind the guest back past its own crash)."""

import pytest

from repro.asm import assemble
from repro.core import DebugSession
from repro.baremetal import BareMetalRunner
from repro.core.snapshot import CLOCK_KEYS, capture, machine_state, restore
from repro.errors import MonitorError
from repro.guest.asmkernel import (
    DATA_BASE,
    KernelConfig,
    build_kernel,
    read_ticks,
)
from repro.hw import firmware
from repro.hw.machine import Machine
from repro.hw.scsi import (
    CMD_START,
    IRQ_SCSI,
    PORT_BASE_SCSI,
    REG_COMMAND,
    REG_INTSTAT,
    REG_MAILBOX,
    cdb_test_unit_ready,
    encode_request_block,
)


@pytest.fixture
def session():
    sess = DebugSession(monitor="lvmm")
    kernel = build_kernel(KernelConfig(ticks_to_run=50))
    sess.load_and_boot(kernel)
    sess.attach()
    return sess, kernel


class TestCheckpointRestore:
    def test_restore_rewinds_registers_and_memory(self, session):
        sess, kernel = session
        isr = kernel.symbol("timer_isr")
        sess.client.set_breakpoint(isr)
        sess.client.cont()
        ticks_at_checkpoint = read_ticks(sess.machine.memory)
        regs_at_checkpoint = sess.client.read_registers()
        sess.checkpoint("at-isr")

        # Run three more interrupts past the checkpoint.
        for _ in range(3):
            sess.client.cont()
        assert read_ticks(sess.machine.memory) > ticks_at_checkpoint

        sess.restore("at-isr")
        assert read_ticks(sess.machine.memory) == ticks_at_checkpoint
        assert sess.client.read_registers() == regs_at_checkpoint

    def test_rerun_from_checkpoint_is_deterministic(self, session):
        sess, kernel = session
        isr = kernel.symbol("timer_isr")
        sess.client.set_breakpoint(isr)
        sess.client.cont()
        sess.checkpoint()

        sess.client.cont()
        regs_first = sess.client.read_registers()

        sess.restore()
        sess.client.cont()
        regs_second = sess.client.read_registers()
        # PC and general registers replay identically.
        assert regs_second[:9] == regs_first[:9]

    def test_restore_resurrects_crashed_guest(self):
        sess = DebugSession(monitor="lvmm")
        program = assemble(f"""
        .org {firmware.GUEST_KERNEL_BASE}
        start:
            MOVI R3, 0x11
            BKPT              ; checkpoint here
            MOVI R1, 0xF80000 ; then walk into the monitor region
            ST   [R1+0], R0
            HLT
        """)
        sess.load_and_boot(program)
        sess.attach()
        sess.client.cont()           # stops at BKPT
        sess.checkpoint("before-crash")

        sess.monitor.resume_guest(step=False)
        sess.monitor.run(100)
        assert sess.monitor.guest_dead

        sess.restore("before-crash")
        assert not sess.monitor.guest_dead
        regs = sess.client.read_registers()
        assert regs[3] == 0x11       # back before the crash

    def test_monitor_shadow_state_restored(self, session):
        sess, kernel = session
        sess.client.set_breakpoint(kernel.symbol("timer_isr"))
        sess.client.cont()
        vif_at_checkpoint = sess.monitor.shadow.vif
        idtr_at_checkpoint = sess.monitor.shadow.idtr.base
        sess.checkpoint()
        sess.client.cont()
        sess.restore()
        assert sess.monitor.shadow.vif == vif_at_checkpoint
        assert sess.monitor.shadow.idtr.base == idtr_at_checkpoint

    def test_unknown_checkpoint_rejected(self, session):
        sess, _ = session
        with pytest.raises(MonitorError):
            sess.restore("never-saved")

    def test_size_mismatch_rejected(self, session):
        sess, _ = session
        sess.checkpoint("here")
        from repro.hw.machine import MachineConfig
        other = Machine(MachineConfig(memory_size=8 << 20))
        with pytest.raises(MonitorError):
            restore(other, sess.checkpoints.get("here"))

    def test_snapshot_refuses_inflight_dma(self):
        machine = Machine()
        from repro.hw.scsi import cdb_read10
        block = encode_request_block(0, cdb_read10(0, 8), 0x8000,
                                     8 * 512)
        machine.memory.write(0x700, block)
        machine.bus.port_write(PORT_BASE_SCSI + REG_MAILBOX, 0x700, 4)
        machine.bus.port_write(PORT_BASE_SCSI + REG_COMMAND, CMD_START, 4)
        with pytest.raises(MonitorError):
            capture(machine)

    def test_debugger_cli_commands(self, session):
        sess, kernel = session
        from repro.debugger import Debugger, SymbolTable
        symbols = SymbolTable()
        symbols.add_program(kernel)
        debugger = Debugger(sess, symbols)
        assert "saved" in debugger.execute("checkpoint boot")
        debugger.execute("break timer_isr")
        debugger.execute("continue")
        text = debugger.execute("restore boot")
        assert "restored" in text
        assert read_ticks(sess.machine.memory) == 0

    def test_disk_writes_rewound(self, session):
        sess, _ = session
        disk = sess.machine.disks[0]
        original = disk.read_blocks(5, 1)
        sess.checkpoint("clean")
        disk.write_blocks(5, b"\xAB" * 512)
        assert disk.read_blocks(5, 1) != original
        sess.restore("clean")
        assert disk.read_blocks(5, 1) == original

    def test_scsi_completion_rewound(self):
        """A completion the guest has not yet taken survives a restore:
        the adapter's queue, its registers and its IRQ line come back."""
        machine = Machine()
        machine.program_pic_defaults()
        hba = machine.hba
        machine.memory.write(0x700, encode_request_block(
            0, cdb_test_unit_ready(), 0x8000, 0))
        machine.bus.port_write(PORT_BASE_SCSI + REG_MAILBOX, 0x700, 4)
        machine.bus.port_write(PORT_BASE_SCSI + REG_COMMAND, CMD_START, 4)
        machine.queue.run_until(machine.queue.now + 10_000)
        assert hba._completions == [0x700]
        snapshot = capture(machine)
        pic_at_capture = machine.pic.state()

        assert hba.pop_completion() == 0x700
        machine.bus.port_write(PORT_BASE_SCSI + REG_MAILBOX, 0x1234, 4)
        assert not machine.pic.slave.irr & (1 << (IRQ_SCSI - 8))

        restore(machine, snapshot)
        assert hba._completions == [0x700]
        assert machine.bus.port_read(PORT_BASE_SCSI + REG_MAILBOX, 4) \
            == 0x700
        assert machine.bus.port_read(PORT_BASE_SCSI + REG_INTSTAT, 4) == 1
        assert machine.pic.slave.irr & (1 << (IRQ_SCSI - 8))
        assert machine.pic.state() == pic_at_capture


def without_clock(state: dict) -> dict:
    """A ``machine_state`` map minus the keys restore leaves alone."""
    return {key: value for key, value in state.items()
            if key not in CLOCK_KEYS}


class TestRoundTripOracle:
    """Restore is the inverse of capture: after running on and winding
    back, the machine reads exactly as captured, clock keys aside."""

    @pytest.mark.parametrize("monitor", ["lvmm", "fullvmm"])
    def test_monitored_round_trip(self, monitor):
        sess = DebugSession(monitor=monitor)
        kernel = build_kernel(KernelConfig(ticks_to_run=50))
        sess.load_and_boot(kernel)
        sess.attach()
        isr = kernel.symbol("timer_isr")
        sess.client.set_breakpoint(isr)
        sess.client.cont()
        sess.client.clear_breakpoint(isr)
        snapshot = capture(sess.machine, sess.monitor)
        captured = without_clock(snapshot.state)

        assert sess.run_guest(5_000) == 5_000
        assert without_clock(machine_state(sess.machine, sess.monitor)) \
            != captured
        restore(sess.machine, snapshot, sess.monitor)
        assert without_clock(machine_state(sess.machine, sess.monitor)) \
            == captured

    def test_bare_metal_round_trip(self):
        machine = Machine()
        runner = BareMetalRunner(machine)
        kernel = build_kernel(KernelConfig(ticks_to_run=1_000))
        kernel.load_into(machine.memory)
        runner.boot_guest(kernel.origin)
        runner.run(500)
        snapshot = capture(machine)
        captured = without_clock(snapshot.state)

        assert runner.run(5_000) == 5_000
        assert without_clock(machine_state(machine)) != captured
        restore(machine, snapshot)
        assert without_clock(machine_state(machine)) == captured
