"""Property-based tests: snapshot round-trips and disassembler fuzz."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.disasm import disassemble
from repro.core.snapshot import capture, restore
from repro.errors import DisassemblerError
from repro.hw.machine import Machine, MachineConfig


class TestDisassemblerFuzz:
    @given(code=st.binary(min_size=0, max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_non_strict_never_raises(self, code):
        decoded = disassemble(code, strict=False)
        # Whatever decoded must tile a prefix of the buffer.
        total = sum(insn.length for insn in decoded)
        assert total <= len(code)

    @given(code=st.binary(min_size=1, max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_strict_raises_or_tiles_exactly(self, code):
        try:
            decoded = disassemble(code, strict=True)
        except DisassemblerError:
            return
        assert sum(insn.length for insn in decoded) == len(code)


def _small_machine():
    return Machine(MachineConfig(memory_size=1 << 20, disks=[(64, 1)],
                                 with_nic=False))


class TestSnapshotProperties:
    @given(regs=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                         min_size=8, max_size=8),
           pc=st.integers(min_value=0, max_value=0xFFFFF),
           pokes=st.dictionaries(
               st.integers(min_value=0x4000, max_value=0xFFFF),
               st.integers(min_value=0, max_value=0xFF),
               max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_capture_restore_capture_is_identity(self, regs, pc, pokes):
        machine = _small_machine()
        machine.cpu.regs[:] = regs
        machine.cpu.pc = pc
        for addr, value in pokes.items():
            machine.memory.write_u8(addr, value)
        first = capture(machine)

        # Scramble everything the snapshot covers.
        machine.cpu.regs[:] = [0xAA] * 8
        machine.cpu.pc = 0
        machine.memory.fill(0x4000, 0x1000, 0xEE)
        machine.pic.raise_irq(3)

        restore(machine, first)
        second = capture(machine)
        assert second.state["regs"] == first.state["regs"]
        assert second.state["pc"] == first.state["pc"]
        assert second.memory == first.memory
        assert second.state["pic"] == first.state["pic"]

    @given(writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60),
                  st.integers(min_value=0, max_value=255)),
        min_size=0, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_disk_overlay_round_trips(self, writes):
        machine = _small_machine()
        disk = machine.disks[0]
        snapshot = capture(machine)
        for lba, fill in writes:
            disk.write_blocks(lba, bytes([fill]) * 512)
        restore(machine, snapshot)
        # Restored contents equal a pristine twin disk, byte for byte.
        twin = _small_machine().disks[0]
        for lba, _ in writes:
            assert disk.read_blocks(lba, 1) == twin.read_blocks(lba, 1)
