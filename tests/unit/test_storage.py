"""Unit tests for the disk model and the SCSI HBA."""

import struct

import pytest

from repro.errors import DeviceError
from repro.hw.disk import BLOCK_SIZE, Disk, _pattern_block
from repro.hw.mem import PhysicalMemory
from repro.hw.scsi import (
    COMP_BAD_LBA,
    COMP_BAD_TARGET,
    COMP_CHECK_CONDITION,
    COMP_GOOD,
    REG_COMMAND,
    REG_INTSTAT,
    REG_MAILBOX,
    REG_STATUS,
    CMD_START,
    ScsiFault,
    ScsiHba,
    cdb_inquiry,
    cdb_read10,
    cdb_read_capacity,
    cdb_test_unit_ready,
    cdb_write10,
    encode_request_block,
)
from repro.sim.events import EventQueue

CPU_HZ = 1.26e9


class TestDisk:
    def test_contents_deterministic(self):
        disk_a = Disk(1000, seed=7)
        disk_b = Disk(1000, seed=7)
        assert disk_a.read_blocks(5, 2) == disk_b.read_blocks(5, 2)

    def test_different_seeds_differ(self):
        assert Disk(10, seed=1).read_blocks(0, 1) != \
            Disk(10, seed=2).read_blocks(0, 1)

    def test_write_overlay_persists(self):
        disk = Disk(100)
        payload = b"\xAA" * BLOCK_SIZE
        disk.write_blocks(3, payload)
        assert disk.read_blocks(3, 1) == payload
        # Neighbouring blocks untouched.
        assert disk.read_blocks(4, 1) != payload

    def test_read_straddling_overlay_is_per_block_concatenation(self):
        disk = Disk(100, seed=9)
        disk.write_blocks(4, bytes(range(256)) * 4)
        disk.write_blocks(7, b"\x5A" * BLOCK_SIZE)
        reads, bytes_read = disk.reads, disk.bytes_read
        overlay = {4: bytes(range(256)) * 2, 5: bytes(range(256)) * 2,
                   7: b"\x5A" * BLOCK_SIZE}
        expected = b"".join(
            overlay[lba] if lba in overlay else _pattern_block(9, lba)
            for lba in range(2, 10))
        assert disk.read_blocks(2, 8) == expected
        assert disk.reads == reads + 1
        assert disk.bytes_read == bytes_read + 8 * BLOCK_SIZE

    def test_unaligned_write_rejected(self):
        disk = Disk(100)
        with pytest.raises(DeviceError):
            disk.write_blocks(0, b"short")

    def test_out_of_range_rejected(self):
        disk = Disk(10)
        with pytest.raises(DeviceError):
            disk.read_blocks(8, 4)

    def test_sequential_access_skips_seek(self):
        disk = Disk(10000, sustained_bytes_per_sec=50e6,
                    seek_seconds=0.005)
        first = disk.service_seconds(100, 64)   # head at 0: seek needed
        second = disk.service_seconds(164, 64)  # head is already there
        third = disk.service_seconds(5000, 64)  # long seek
        assert first > second
        assert third == pytest.approx(second + 0.005)

    def test_transfer_time_scales_with_size(self):
        disk = Disk(100000, sustained_bytes_per_sec=40e6, seek_seconds=0)
        small = disk.service_seconds(0, 8)
        large = disk.service_seconds(8, 64)
        assert large == pytest.approx(small * 8)


class _HbaFixture:
    def __init__(self, blocks=4096):
        self.queue = EventQueue()
        self.memory = PhysicalMemory(1 << 20)
        self.irqs = []
        self.hba = ScsiHba(self.queue, self.memory, CPU_HZ,
                           raise_irq=lambda: self.irqs.append("+"),
                           lower_irq=lambda: self.irqs.append("-"))
        self.disk = Disk(blocks, seed=9)
        self.hba.attach(0, self.disk)

    def submit(self, target, cdb, buffer=0x8000, length=0x10000,
               block_addr=0x700):
        block = encode_request_block(target, cdb, buffer, length)
        self.memory.write(block_addr, block)
        self.hba.port_write(REG_MAILBOX, block_addr, 4)
        self.hba.port_write(REG_COMMAND, CMD_START, 4)
        return block_addr

    def completion_code(self, block_addr=0x700):
        return self.memory.read_u32(block_addr + 28)


class TestScsiHba:
    def test_read10_dma_matches_disk_contents(self):
        fix = _HbaFixture()
        addr = fix.submit(0, cdb_read10(lba=10, count=4),
                          buffer=0x8000, length=4 * BLOCK_SIZE)
        assert fix.hba.port_read(REG_STATUS, 4) == 1  # in flight
        fix.queue.run()
        assert fix.completion_code(addr) == COMP_GOOD
        assert fix.memory.read(0x8000, 4 * BLOCK_SIZE) == \
            fix.disk.read_blocks(10, 4)
        assert fix.hba.port_read(REG_STATUS, 4) == 0

    def test_write10_persists_to_disk(self):
        fix = _HbaFixture()
        payload = bytes(range(256)) * 2  # one block
        fix.memory.write(0x9000, payload)
        fix.submit(0, cdb_write10(lba=20, count=1),
                   buffer=0x9000, length=BLOCK_SIZE)
        fix.queue.run()
        assert fix.disk.read_blocks(20, 1) == payload

    def test_completion_raises_irq_and_ack_clears(self):
        fix = _HbaFixture()
        fix.submit(0, cdb_test_unit_ready())
        fix.queue.run()
        assert "+" in fix.irqs
        assert fix.hba.port_read(REG_INTSTAT, 4) == 1
        fix.hba.port_write(REG_INTSTAT, 0, 4)
        assert fix.hba.port_read(REG_INTSTAT, 4) == 0
        assert fix.irqs[-1] == "-"

    def test_inquiry_payload(self):
        fix = _HbaFixture()
        fix.submit(0, cdb_inquiry(), buffer=0xA000, length=36)
        fix.queue.run()
        data = fix.memory.read(0xA000, 36)
        assert b"REPRO" in data
        assert b"ULTRA160" in data

    def test_read_capacity(self):
        fix = _HbaFixture(blocks=4096)
        fix.submit(0, cdb_read_capacity(), buffer=0xA000, length=8)
        fix.queue.run()
        last_lba, block_size = struct.unpack(">II",
                                             fix.memory.read(0xA000, 8))
        assert last_lba == 4095
        assert block_size == BLOCK_SIZE

    def test_bad_target(self):
        fix = _HbaFixture()
        addr = fix.submit(5, cdb_test_unit_ready())
        fix.queue.run()
        assert fix.completion_code(addr) == COMP_BAD_TARGET

    def test_bad_lba(self):
        fix = _HbaFixture(blocks=100)
        addr = fix.submit(0, cdb_read10(lba=90, count=20))
        fix.queue.run()
        assert fix.completion_code(addr) == COMP_BAD_LBA

    def test_error_injection_and_request_sense(self):
        fix = _HbaFixture()
        pending = [ScsiFault(kind="medium", sense=0x03)]  # MEDIUM ERROR

        def one_shot(request, disk):
            return pending.pop() if pending else None

        fix.hba.fault_hook = one_shot
        addr = fix.submit(0, cdb_read10(lba=0, count=1))
        fix.queue.run()
        assert fix.completion_code(addr) == COMP_CHECK_CONDITION
        addr = fix.submit(0, bytes([0x03]) + bytes(5),
                          buffer=0xB000, length=18)
        fix.queue.run()
        sense = fix.memory.read(0xB000, 3)
        assert sense[2] == 0x03

    def test_read_timing_reflects_disk_rate(self):
        fix = _HbaFixture()
        fix.disk.sustained_bytes_per_sec = 40e6
        fix.disk.seek_seconds = 0.0
        fix.submit(0, cdb_read10(lba=0, count=128),
                   length=128 * BLOCK_SIZE)
        expected_cycles = int(128 * BLOCK_SIZE / 40e6 * CPU_HZ)
        fix.queue.run()
        assert fix.queue.now == pytest.approx(expected_cycles, rel=0.01)

    def test_duplicate_target_rejected(self):
        fix = _HbaFixture()
        with pytest.raises(DeviceError):
            fix.hba.attach(0, Disk(10))

    def test_reset_clears_completions(self):
        fix = _HbaFixture()
        fix.submit(0, cdb_test_unit_ready())
        fix.queue.run()
        fix.hba.port_write(REG_COMMAND, 2, 4)  # reset
        assert fix.hba.port_read(REG_INTSTAT, 4) == 0

    def test_pop_completion_order(self):
        fix = _HbaFixture()
        first = fix.submit(0, cdb_test_unit_ready(), block_addr=0x700)
        fix.queue.run()
        second = fix.submit(0, cdb_test_unit_ready(), block_addr=0x740)
        fix.queue.run()
        assert fix.hba.pop_completion() == first
        assert fix.hba.pop_completion() == second
        assert fix.hba.pop_completion() is None
