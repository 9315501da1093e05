"""Unit tests for physical memory, segmentation and paging."""

import os
import subprocess
import sys

import pytest

from repro.errors import MemoryError_
from repro.hw.mem import PhysicalMemory
from repro.hw.paging import (
    PAGE_SIZE,
    PF_PRESENT,
    PF_USER,
    PF_WRITE,
    Mmu,
    PageFault,
    Tlb,
    PageTableBuilder,
    make_pte,
    span_pages,
    split_vaddr,
)
from repro.hw.seg import (
    DESCRIPTOR_SIZE,
    GdtView,
    SegmentDescriptor,
    selector,
    selector_index,
    selector_rpl,
)


class TestPhysicalMemory:
    def test_read_write_round_trip(self):
        mem = PhysicalMemory(4096)
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_scalar_little_endian(self):
        mem = PhysicalMemory(4096)
        mem.write_u32(0, 0x11223344)
        assert mem.read(0, 4) == b"\x44\x33\x22\x11"
        assert mem.read_u16(0) == 0x3344
        assert mem.read_u8(3) == 0x11

    def test_out_of_range_rejected(self):
        mem = PhysicalMemory(128)
        with pytest.raises(MemoryError_):
            mem.read(120, 16)
        with pytest.raises(MemoryError_):
            mem.write(-1, b"x")

    def test_fill(self):
        mem = PhysicalMemory(64)
        mem.fill(8, 8, 0xAB)
        assert mem.read(8, 8) == b"\xab" * 8

    def test_zero_size_rejected(self):
        with pytest.raises(MemoryError_):
            PhysicalMemory(0)

    def test_untouched_ram_is_not_resident(self):
        """Eight default 16 MiB machines held at once stay well under
        64 MiB of peak RSS growth: only pages something writes become
        resident (zeroing them up front costs at least 128 MiB)."""
        pytest.importorskip("resource")
        script = (
            "import resource\n"
            "from repro.hw.machine import Machine, MachineConfig\n"
            "Machine(MachineConfig())\n"
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "held = [Machine(MachineConfig()) for _ in range(8)]\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(peak - base)\n")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        growth = int(out.stdout.strip())
        # ru_maxrss is KiB on Linux, bytes on macOS.
        mib = growth / (1 << 20 if sys.platform == "darwin" else 1 << 10)
        assert mib < 64, f"8 machines grew peak RSS by {mib:.1f} MiB"


class TestSegmentDescriptor:
    def test_pack_unpack_round_trip(self):
        descriptor = SegmentDescriptor(base=0x1000, limit=0x2000, dpl=1,
                                       code=True, writable=False)
        assert SegmentDescriptor.unpack(descriptor.pack()) == descriptor

    def test_contains(self):
        descriptor = SegmentDescriptor(base=0, limit=100, dpl=0)
        assert descriptor.contains(0)
        assert descriptor.contains(96, 4)
        assert not descriptor.contains(97, 4)
        assert not descriptor.contains(100)

    def test_truncated_lowers_limit_only(self):
        descriptor = SegmentDescriptor(base=5, limit=100, dpl=1, code=True)
        cut = descriptor.truncated(40)
        assert cut.limit == 40
        assert cut.base == 5 and cut.dpl == 1 and cut.code
        assert descriptor.truncated(200).limit == 100

    def test_selector_helpers(self):
        sel = selector(7, rpl=3)
        assert selector_index(sel) == 7
        assert selector_rpl(sel) == 3


class TestGdtView:
    def test_read_write_descriptor(self):
        mem = PhysicalMemory(4096)
        gdt = GdtView(mem, base=0x100, limit=4 * DESCRIPTOR_SIZE)
        descriptor = SegmentDescriptor(base=0x8000, limit=0x400, dpl=2)
        gdt.write(2, descriptor)
        assert gdt.read(2) == descriptor

    def test_index_beyond_limit_rejected(self):
        mem = PhysicalMemory(4096)
        gdt = GdtView(mem, base=0, limit=2 * DESCRIPTOR_SIZE)
        with pytest.raises(IndexError):
            gdt.read(2)

    def test_reads_are_interned_by_raw_entry(self):
        """Unchanged entries read back as one shared object (the CPU's
        CS guards test identity); a rewritten entry as a new one."""
        mem = PhysicalMemory(4096)
        gdt = GdtView(mem, base=0x100, limit=4 * DESCRIPTOR_SIZE)
        other_view = GdtView(mem, base=0x100, limit=4 * DESCRIPTOR_SIZE)
        code = SegmentDescriptor(base=0, limit=0x1000, dpl=1, code=True)
        gdt.write(1, code)
        gdt.write(3, code)
        first = gdt.read(1)
        assert first is gdt.read(1) is gdt.read(3) is other_view.read(1)
        gdt.write(1, code.truncated(0x800))
        assert gdt.read(1) is not first
        assert gdt.read(1) == code.truncated(0x800)
        assert gdt.read(3) is first


class TestSplitVaddr:
    def test_split(self):
        directory, table, offset = split_vaddr(0xC0ABC123)
        assert directory == 0xC0ABC123 >> 22
        assert table == (0xC0ABC123 >> 12) & 0x3FF
        assert offset == 0x123


class TestSpanPages:
    def test_within_page(self):
        assert list(span_pages(100, 50)) == [(100, 50)]

    def test_crossing_boundary(self):
        chunks = list(span_pages(PAGE_SIZE - 10, 30))
        assert chunks == [(PAGE_SIZE - 10, 10), (PAGE_SIZE, 20)]

    def test_multiple_pages(self):
        chunks = list(span_pages(0, 3 * PAGE_SIZE))
        assert len(chunks) == 3
        assert sum(length for _, length in chunks) == 3 * PAGE_SIZE


def _build_mmu(user=False, writable=True):
    mem = PhysicalMemory(1 << 20)
    builder = PageTableBuilder(mem, alloc_base=0x10000)
    builder.map(0x400000, 0x20000, writable=writable, user=user)
    mmu = Mmu(mem)
    mmu.set_cr3(builder.directory)
    return mem, mmu


class TestMmu:
    def test_translate_mapped_page(self):
        _, mmu = _build_mmu()
        assert mmu.translate(0x400123, write=False, user=False) == 0x20123

    def test_not_present_faults(self):
        _, mmu = _build_mmu()
        with pytest.raises(PageFault) as info:
            mmu.translate(0x500000, write=False, user=False)
        assert not info.value.error_code & PF_PRESENT

    def test_user_cannot_touch_supervisor_page(self):
        _, mmu = _build_mmu(user=False)
        with pytest.raises(PageFault) as info:
            mmu.translate(0x400000, write=False, user=True)
        code = info.value.error_code
        assert code & PF_PRESENT and code & PF_USER

    def test_write_to_readonly_faults(self):
        _, mmu = _build_mmu(writable=False)
        with pytest.raises(PageFault) as info:
            mmu.translate(0x400000, write=True, user=False)
        assert info.value.error_code & PF_WRITE

    def test_supervisor_can_read_user_page(self):
        _, mmu = _build_mmu(user=True)
        assert mmu.translate(0x400000, write=False, user=False) == 0x20000

    def test_tlb_hit_counted(self):
        _, mmu = _build_mmu()
        mmu.translate(0x400000, write=False, user=False)
        misses = mmu.tlb.misses
        mmu.translate(0x400004, write=False, user=False)
        assert mmu.tlb.hits >= 1
        assert mmu.tlb.misses == misses

    def test_cr3_write_flushes_tlb(self):
        mem, mmu = _build_mmu()
        mmu.translate(0x400000, write=False, user=False)
        # Remap the page elsewhere and reload CR3.
        builder = PageTableBuilder(mem, alloc_base=0x40000)
        builder.map(0x400000, 0x30000)
        mmu.set_cr3(builder.directory)
        assert mmu.translate(0x400000, write=False, user=False) == 0x30000

    def test_stale_tlb_without_flush(self):
        # Documents the hazard monitors must handle: changing a PTE
        # without a flush leaves the old translation live.
        mem, mmu = _build_mmu()
        assert mmu.translate(0x400000, write=False, user=False) == 0x20000
        builder = PageTableBuilder(mem, alloc_base=0x40000)
        builder.map(0x400000, 0x30000)
        mem.write_u32(mmu.cr3 + (0x400000 >> 22) * 4,
                      mem.read_u32(builder.directory + (0x400000 >> 22) * 4))
        assert mmu.translate(0x400000, write=False, user=False) == 0x20000
        mmu.tlb.flush()
        assert mmu.translate(0x400000, write=False, user=False) == 0x30000

    def test_accessed_and_dirty_bits_set(self):
        mem = PhysicalMemory(1 << 20)
        builder = PageTableBuilder(mem, alloc_base=0x10000)
        builder.map(0x400000, 0x20000)
        mmu = Mmu(mem)
        mmu.set_cr3(builder.directory)
        mmu.translate(0x400010, write=True, user=False)
        pde = mem.read_u32(builder.directory + (0x400000 >> 22) * 4)
        pte_base = pde & 0xFFFFF000
        pte = mem.read_u32(pte_base + ((0x400000 >> 12) & 0x3FF) * 4)
        assert pte & (1 << 5)  # accessed
        assert pte & (1 << 6)  # dirty

    def test_effective_rights_are_and_of_levels(self):
        # PDE says writable, PTE says read-only -> read-only overall.
        mem = PhysicalMemory(1 << 20)
        builder = PageTableBuilder(mem, alloc_base=0x10000)
        builder.map(0x400000, 0x20000, writable=False)
        mmu = Mmu(mem)
        mmu.set_cr3(builder.directory)
        with pytest.raises(PageFault):
            mmu.translate(0x400000, write=True, user=False)


class TestPageTableBuilder:
    def test_map_range_contiguous(self):
        mem = PhysicalMemory(1 << 20)
        builder = PageTableBuilder(mem, alloc_base=0x10000)
        builder.map_range(0x0, 0x80000, 3 * PAGE_SIZE)
        mmu = Mmu(mem)
        mmu.set_cr3(builder.directory)
        for page in range(3):
            assert mmu.translate(page * PAGE_SIZE, False, False) \
                == 0x80000 + page * PAGE_SIZE

    def test_unmap(self):
        mem = PhysicalMemory(1 << 20)
        builder = PageTableBuilder(mem, alloc_base=0x10000)
        builder.identity_map(0x20000, PAGE_SIZE)
        mmu = Mmu(mem)
        mmu.set_cr3(builder.directory)
        assert mmu.translate(0x20000, False, False) == 0x20000
        builder.unmap(0x20000)
        mmu.tlb.flush()
        with pytest.raises(PageFault):
            mmu.translate(0x20000, False, False)

    def test_make_pte_bits(self):
        entry = make_pte(0x12345000, writable=True, user=True)
        assert entry & 1          # present
        assert entry & 2          # writable
        assert entry & 4          # user
        assert entry & 0xFFFFF000 == 0x12345000


class TestTlbLru:
    def _full_tlb(self, capacity=4):
        tlb = Tlb(capacity=capacity)
        for vpn in range(capacity):
            tlb.insert(vpn, vpn << 12, True, False)
        return tlb

    def test_eviction_is_least_recently_used(self):
        tlb = self._full_tlb()
        # Touch vpn 0 so it becomes most-recently used; vpn 1 is now LRU.
        assert tlb.lookup(0) is not None
        tlb.insert(99, 0x99000, True, False)
        assert tlb.lookup(0) is not None     # survived (recently used)
        assert tlb.lookup(1) is None         # evicted (LRU)
        assert tlb.lookup(99) is not None

    def test_default_capacity_raised(self):
        assert Tlb().capacity == Tlb.DEFAULT_CAPACITY >= 256

    def test_flush_bumps_generation(self):
        tlb = self._full_tlb()
        generation = tlb.generation
        tlb.flush()
        assert tlb.generation == generation + 1
        assert len(tlb) == 0

    def test_flush_page_bumps_generation(self):
        tlb = self._full_tlb()
        generation = tlb.generation
        tlb.flush_page(2)
        assert tlb.generation == generation + 1
        assert tlb.lookup(3) is not None     # others untouched

    def test_capacity_eviction_does_not_bump_generation(self):
        tlb = self._full_tlb()
        generation = tlb.generation
        tlb.insert(99, 0x99000, True, False)
        assert tlb.generation == generation

    def test_stats_shape(self):
        tlb = self._full_tlb()
        tlb.lookup(0)
        tlb.lookup(1234)
        stats = tlb.stats()
        assert stats["hits"] == tlb.hits and stats["misses"] == tlb.misses
        assert 0.0 < stats["hit_rate"] < 1.0
        assert stats["entries"] == len(tlb)


class TestPageGenerations:
    def test_write_bumps_only_touched_pages(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        before = list(mem.page_gens)
        mem.write(PAGE_SIZE + 8, b"\x01\x02")
        assert mem.page_generation(1) == before[1] + 1
        assert mem.page_generation(0) == before[0]
        assert mem.page_generation(2) == before[2]

    def test_straddling_write_bumps_both_pages(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.write(PAGE_SIZE - 2, b"\xAA" * 4)
        assert mem.page_generation(0) == 1
        assert mem.page_generation(1) == 1

    def test_scalar_writes_bump(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.write_u8(0, 1)
        mem.write_u16(PAGE_SIZE, 2)
        mem.write_u32(2 * PAGE_SIZE, 3)
        mem.fill(3 * PAGE_SIZE, 16, 0xFF)
        assert [mem.page_generation(page) for page in range(4)] \
            == [1, 1, 1, 1]

    def test_reads_do_not_bump(self):
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.read(0, 64)
        mem.read_u32(PAGE_SIZE)
        assert mem.page_generation(0) == 0
        assert mem.page_generation(1) == 0
