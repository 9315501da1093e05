"""Property-based tests: paging, segmentation protection, the CPU's
flat data path, cycle budget, the event queue and the PIC."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.hw.bus import IoBus, MmioDevice
from repro.hw.cpu import Cpu, CpuFault
from repro.hw.isa import CR0_PG, SEG_DS, SEG_SS, VEC_GP
from repro.hw.mem import PhysicalMemory
from repro.hw.paging import (
    PAGE_SIZE,
    Mmu,
    PageFault,
    PageTableBuilder,
    span_pages,
)
from repro.hw.pic import (
    MASTER_CMD,
    MASTER_DATA,
    SLAVE_CMD,
    SLAVE_DATA,
    PicPair,
    standard_setup,
)
from repro.hw.pit import Pit8254
from repro.hw.seg import SegmentDescriptor
from repro.perf.costmodel import DEFAULT_COST_MODEL
from repro.sim.budget import CycleBudget
from repro.sim.events import EventQueue
from repro.vmm.intercept import LvmmIntercept
from repro.vmm.protect import compress_descriptor, guest_can_reach
from repro.vmm.shadow import ShadowState

import pytest


class TestSpanPages:
    @given(addr=st.integers(min_value=0, max_value=1 << 30),
           length=st.integers(min_value=1, max_value=5 * PAGE_SIZE))
    def test_chunks_tile_exactly(self, addr, length):
        chunks = list(span_pages(addr, length))
        assert chunks[0][0] == addr
        assert sum(size for _, size in chunks) == length
        cursor = addr
        for start, size in chunks:
            assert start == cursor
            # No chunk crosses a page boundary.
            assert (start // PAGE_SIZE) == ((start + size - 1) // PAGE_SIZE)
            cursor += size


class TestPagingProperties:
    @given(mappings=st.dictionaries(
        st.integers(min_value=0, max_value=200),      # virtual page no.
        st.integers(min_value=16, max_value=200),     # physical frame no.
        min_size=1, max_size=24),
        probe_offset=st.integers(min_value=0, max_value=PAGE_SIZE - 1))
    @settings(max_examples=100, deadline=None)
    def test_translation_matches_mapping(self, mappings, probe_offset):
        memory = PhysicalMemory(4 << 20)
        builder = PageTableBuilder(memory, alloc_base=0x1000)
        for vpn, frame in mappings.items():
            builder.map(vpn * PAGE_SIZE, frame * PAGE_SIZE)
        mmu = Mmu(memory)
        mmu.set_cr3(builder.directory)
        for vpn, frame in mappings.items():
            got = mmu.translate(vpn * PAGE_SIZE + probe_offset,
                                write=False, user=False)
            assert got == frame * PAGE_SIZE + probe_offset

    @given(mapped=st.sets(st.integers(min_value=0, max_value=100),
                          min_size=1, max_size=10),
           probe=st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_unmapped_pages_always_fault(self, mapped, probe):
        assume(probe not in mapped)
        memory = PhysicalMemory(4 << 20)
        builder = PageTableBuilder(memory, alloc_base=0x1000)
        for vpn in mapped:
            builder.map(vpn * PAGE_SIZE, 0x200000)
        mmu = Mmu(memory)
        mmu.set_cr3(builder.directory)
        with pytest.raises(PageFault):
            mmu.translate(probe * PAGE_SIZE, write=False, user=False)


class TestProtectionProperties:
    @given(base=st.integers(min_value=0, max_value=0xF0_0000),
           limit=st.integers(min_value=0, max_value=0x100_0000),
           dpl=st.integers(min_value=0, max_value=3),
           code=st.booleans(),
           probe=st.integers(min_value=0, max_value=0x200_0000))
    @settings(max_examples=300)
    def test_compressed_descriptor_never_reaches_monitor(self, base,
                                                         limit, dpl,
                                                         code, probe):
        """THE protection invariant: no offset through any compressed
        descriptor lands in the monitor region, and the compressed DPL
        is never ring 0."""
        monitor_base = 0xF0_0000
        descriptor = SegmentDescriptor(base, limit, dpl, code=code)
        shadowed = compress_descriptor(descriptor, monitor_base)
        assert shadowed.dpl >= 1
        assert not guest_can_reach(shadowed, probe, monitor_base)

    @given(base=st.integers(min_value=0, max_value=0xE0_0000),
           limit=st.integers(min_value=1, max_value=0x10_0000),
           dpl=st.integers(min_value=0, max_value=3))
    @settings(max_examples=100)
    def test_compression_preserves_guest_reachable_space(self, base,
                                                         limit, dpl):
        """Compression must not steal space the guest legitimately has
        (anything already below the monitor)."""
        monitor_base = 0xF0_0000
        descriptor = SegmentDescriptor(base, limit, dpl)
        shadowed = compress_descriptor(descriptor, monitor_base)
        reachable_before = min(limit, max(monitor_base - base, 0))
        assert shadowed.limit == reachable_before


# -- the flat data path ---------------------------------------------------

def reference_read(cpu, seg, offset, length):
    """``Cpu.read_virtual`` as it was before the flat data path: every
    access walks its pages, translating and routing each one."""
    linear_addr = cpu.linear(seg, offset, length, write=False)
    cpu._check_watchpoints(linear_addr, length, write=False)
    chunks = []
    for vaddr, chunk in span_pages(linear_addr, length):
        paddr = cpu._physical(vaddr, write=False)
        if cpu.bus.is_mmio(paddr):
            if chunk not in (1, 2, 4):
                raise CpuFault(VEC_GP, error_code=0)
            value = cpu.bus.mmio_read(paddr, chunk)
            chunks.append(value.to_bytes(chunk, "little"))
        else:
            chunks.append(cpu.memory.read(paddr, chunk))
    return b"".join(chunks)


def reference_write(cpu, seg, offset, data):
    """``Cpu.write_virtual`` as it was before the flat data path."""
    linear_addr = cpu.linear(seg, offset, len(data), write=True)
    cpu._check_watchpoints(linear_addr, len(data), write=True)
    cursor = 0
    for vaddr, chunk in span_pages(linear_addr, len(data)):
        paddr = cpu._physical(vaddr, write=True)
        piece = data[cursor:cursor + chunk]
        if cpu.bus.is_mmio(paddr):
            if chunk not in (1, 2, 4):
                raise CpuFault(VEC_GP, error_code=0)
            cpu.bus.mmio_write(paddr, int.from_bytes(piece, "little"),
                               chunk)
        else:
            cpu.memory.write(paddr, piece)
        cursor += chunk


class _LoggingMmio(MmioDevice):
    def __init__(self) -> None:
        self.calls = []

    def mmio_read(self, offset, size):
        self.calls.append(("read", offset, size))
        return (offset * 0x01010101 + size) & ((1 << (8 * size)) - 1)

    def mmio_write(self, offset, value, size):
        self.calls.append(("write", offset, value, size))


#: Installed RAM of the differential machines, and where their page
#: tables live (above every page the tests map).
_RAM = 64 * PAGE_SIZE
_TABLES = 56 * PAGE_SIZE


def _flat_machine(descriptor, seg, mmio, watchpoints, paging, hole):
    memory = PhysicalMemory(_RAM)
    memory.write(0, bytes(range(256)) * (_TABLES // 256))
    bus = IoBus()
    device = _LoggingMmio()
    if mmio is not None:
        bus.register_mmio(mmio[0], mmio[1], device, "probe")
    cpu = Cpu(memory, bus, translate=False)
    cpu.force_segment(seg, 0x10, descriptor)
    cpu.watchpoints.extend(watchpoints)
    if paging:
        builder = PageTableBuilder(memory, alloc_base=_TABLES)
        for page in range(_TABLES // PAGE_SIZE + 8):
            if page != hole:
                builder.map(page * PAGE_SIZE, page * PAGE_SIZE)
        cpu.mmu.set_cr3(builder.directory)
        cpu.crs[3] = builder.directory
        cpu.crs[0] |= CR0_PG
    return cpu, device


def _outcome(action):
    try:
        return ("ok", action())
    except CpuFault as fault:
        return ("fault", fault.vector, fault.error_code,
                fault.fault_address)
    except MemoryError_:
        return ("ram",)


_near = st.integers(min_value=-8, max_value=8)


@st.composite
def _accesses(draw):
    base = draw(st.integers(min_value=0, max_value=40)) * PAGE_SIZE \
        + draw(st.sampled_from([0, 1, 2, 3, 0x7FE, PAGE_SIZE - 2]))
    limit = draw(st.one_of(
        st.sampled_from([_RAM, _RAM + 0x10000, 0x1000, 0x1FFF]),
        st.integers(min_value=0, max_value=_RAM + PAGE_SIZE)))
    length = draw(st.one_of(st.sampled_from([1, 2, 4]),
                            st.integers(min_value=0,
                                        max_value=2 * PAGE_SIZE + 8)))
    # Offsets cluster where behaviour changes: the segment limit and the
    # page boundaries of the linear address.
    offset = draw(st.one_of(
        st.integers(min_value=0, max_value=max(0, limit - length)),
        st.integers(min_value=0, max_value=limit + 8),
        _near.map(lambda d: limit - length + d),
        st.tuples(st.integers(min_value=0, max_value=24), _near).map(
            lambda pd: pd[0] * PAGE_SIZE - base % PAGE_SIZE + pd[1])))
    assume(offset >= 0)
    # MMIO ranges and watchpoints land on or near the access itself, or
    # anywhere in RAM.
    linear = base + offset
    near = st.integers(min_value=-16, max_value=length + 16).map(
        lambda d: max(0, linear + d))
    mmio = draw(st.one_of(st.none(), st.tuples(
        st.one_of(near, st.integers(min_value=0, max_value=_RAM)),
        st.sampled_from([1, 2, 4, 16, PAGE_SIZE, 3 * PAGE_SIZE]))))
    watchpoints = draw(st.lists(st.tuples(
        st.one_of(near, st.integers(min_value=0, max_value=_RAM)),
        st.integers(min_value=1, max_value=16), st.booleans()),
        max_size=2))
    return dict(
        descriptor=SegmentDescriptor(base=base, limit=limit, dpl=0,
                                     writable=draw(st.booleans())),
        seg=draw(st.sampled_from([SEG_DS, SEG_SS])),
        offset=offset, length=length, mmio=mmio,
        watchpoints=watchpoints, paging=draw(st.booleans()),
        hole=draw(st.integers(min_value=0, max_value=_TABLES // PAGE_SIZE)))


class TestFlatDataPath:
    """``read_virtual``/``write_virtual`` equal the page-walking path on
    every input: bytes, fault vector and error code, RAM contents, page
    write generations and MMIO device calls.  Inputs mix paging on and
    off, watchpoints, an MMIO range and accesses across segment limits
    and page boundaries, so both the flat path and every way out of it
    are taken."""

    @staticmethod
    def _pair(access):
        keys = ("descriptor", "seg", "mmio", "watchpoints", "paging",
                "hole")
        config = {key: access[key] for key in keys}
        return _flat_machine(**config), _flat_machine(**config)

    @staticmethod
    def _same_state(flat, reference):
        (cpu_a, dev_a), (cpu_b, dev_b) = flat, reference
        assert dev_a.calls == dev_b.calls
        assert cpu_a.bus.mmio_accesses == cpu_b.bus.mmio_accesses
        assert cpu_a.memory.page_gens == cpu_b.memory.page_gens
        assert bytes(cpu_a.memory.view()) == bytes(cpu_b.memory.view())
        assert cpu_a.crs == cpu_b.crs

    @given(access=_accesses())
    @settings(max_examples=300, deadline=None)
    def test_read_matches_reference(self, access):
        flat, reference = self._pair(access)
        seg, offset, length = access["seg"], access["offset"], \
            access["length"]
        got = _outcome(lambda: flat[0].read_virtual(seg, offset, length))
        want = _outcome(lambda: reference_read(reference[0], seg, offset,
                                               length))
        assert got == want
        self._same_state(flat, reference)

    @given(access=_accesses(), fill=st.integers(min_value=0, max_value=255))
    @settings(max_examples=300, deadline=None)
    def test_write_matches_reference(self, access, fill):
        flat, reference = self._pair(access)
        seg, offset = access["seg"], access["offset"]
        data = bytes((fill + i) & 0xFF for i in range(access["length"]))
        got = _outcome(lambda: flat[0].write_virtual(seg, offset, data))
        want = _outcome(lambda: reference_write(reference[0], seg, offset,
                                                data))
        assert got == want
        self._same_state(flat, reference)

    def test_inputs_reach_the_flat_path(self):
        """The flat path is taken at all: a plain in-page read under a
        flat segment never walks the pages."""
        cpu, _device = _flat_machine(
            SegmentDescriptor(base=0, limit=_RAM, dpl=0), SEG_DS,
            (_RAM, PAGE_SIZE), [], False, 0)
        cpu._physical = None   # any page walk would fail loudly
        assert cpu.read_virtual(SEG_DS, 0x1FFC, 4) == bytes(
            [0xFC, 0xFD, 0xFE, 0xFF])


class TestBudgetProperties:
    @given(charges=st.lists(
        st.tuples(st.sampled_from(["guest", "copy", "world_switch",
                                   "emulation", "interrupt"]),
                  st.integers(min_value=0, max_value=10**9)),
        min_size=0, max_size=50))
    def test_total_is_sum_of_categories(self, charges):
        budget = CycleBudget()
        for category, cycles in charges:
            budget.charge(cycles, category)
        assert budget.total == sum(budget.by_category().values())
        assert budget.total == sum(c for _, c in charges)

    @given(charges=st.lists(st.integers(min_value=0, max_value=10**6),
                            min_size=1, max_size=20),
           window=st.integers(min_value=1, max_value=10**7))
    def test_load_clamped_demand_unclamped(self, charges, window):
        budget = CycleBudget()
        for cycles in charges:
            budget.charge(cycles)
        assert 0 <= budget.load(window) <= 1
        assert budget.demanded_load(window) * window == \
            pytest.approx(budget.total)


class TestEventQueueProperties:
    @given(times=st.lists(st.integers(min_value=0, max_value=10**6),
                          min_size=1, max_size=50))
    def test_events_fire_in_nondecreasing_time_order(self, times):
        queue = EventQueue()
        fired = []
        for time in times:
            queue.schedule_at(time, lambda t=time: fired.append(t))
        queue.run()
        assert fired == sorted(times)
        assert len(fired) == len(times)

    @given(times=st.lists(st.integers(min_value=0, max_value=1000),
                          min_size=1, max_size=30),
           cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30))
    def test_cancelled_events_never_fire(self, times, cancel_mask):
        queue = EventQueue()
        fired = []
        events = [queue.schedule_at(t, lambda t=t: fired.append(t))
                  for t in times]
        expected = []
        for event, time, cancel in zip(events, times,
                                       cancel_mask * len(times)):
            if cancel:
                event.cancel()
            else:
                expected.append(time)
        queue.run()
        assert fired == sorted(expected)

    @given(times=st.lists(st.integers(min_value=0, max_value=20),
                          min_size=1, max_size=30))
    def test_same_time_events_fire_in_insertion_order(self, times):
        queue = EventQueue()
        fired = []
        for index, time in enumerate(times):
            queue.schedule_at(time, lambda i=index: fired.append(i))
        queue.run()
        assert fired == sorted(range(len(times)),
                               key=lambda i: (times[i], i))

    @given(times=st.lists(st.integers(min_value=0, max_value=1000),
                          min_size=1, max_size=30),
           cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30),
           deadline=st.integers(min_value=0, max_value=1100))
    def test_cancelled_heads_are_dropped(self, times, cancel_mask,
                                         deadline):
        """``peek_time`` skips cancelled entries, ``run_until`` fires
        exactly the live events due by its deadline, and ``__len__``
        counts the live events left."""
        queue = EventQueue()
        fired = []
        events = [queue.schedule_at(t, lambda t=t: fired.append(t))
                  for t in times]
        live = []
        for event, time, cancel in zip(events, times,
                                       cancel_mask * len(times)):
            if cancel:
                event.cancel()
            else:
                live.append(time)
        assert len(queue) == len(live)
        assert queue.peek_time() == (min(live) if live else None)
        queue.run_until(deadline)
        assert fired == sorted(t for t in live if t <= deadline)
        assert queue.now == max([deadline] + fired)
        later = sorted(t for t in live if t > deadline)
        assert len(queue) == len(later)
        assert queue.peek_time() == (later[0] if later else None)
        assert all(event.fired == (event.time in fired
                                   and not event.cancelled)
                   for event in events)

    @given(reload=st.integers(min_value=2, max_value=0xFFFF),
           run_to=st.integers(min_value=0, max_value=10**6),
           later=st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None)
    def test_restore_rearms_timer_from_event_time(self, reload, run_to,
                                                  later):
        """A PIT snapshot carries its armed expiry as ``Event.time``
        minus the queue clock; restoring on a queue further ahead
        re-arms exactly that far into the new future."""
        queue = EventQueue()
        pit = Pit8254(queue, 1.26e9, lambda: None)
        pit.port_write(3, 0x34, 1)
        pit.port_write(0, reload & 0xFF, 1)
        pit.port_write(0, reload >> 8, 1)
        queue.run_until(run_to)
        armed = pit._pending
        state = pit.state()
        assert state["pending_in"] == armed.time - queue.now
        assert 0 < state["pending_in"] <= pit._period_cycles(pit._channels[0])

        target = EventQueue()
        target.run_until(run_to + later)
        restored = Pit8254(target, 1.26e9, lambda: None)
        restored.load_state(state)
        assert restored.state() == state
        assert restored._pending.time == target.now + state["pending_in"]
        assert target.peek_time() == restored._pending.time
        assert len(target) == 1


def _ref_highest(irr, imr, isr, skip=0):
    """Reference 8259 priority, bit by bit from IRQ0; lines in ``skip``
    request nothing."""
    pending = irr & ~imr & ~skip
    if not pending:
        return None
    for line in range(8):
        bit = 1 << line
        if isr & bit:
            return None   # a higher- or equal-priority line in service
        if pending & bit:
            return line
    return None


def _ref_eoi(isr, command):
    """Reference OCW2 end-of-interrupt: the new ISR."""
    if command & 0x40:   # specific
        return isr & ~(1 << (command & 7))
    for line in range(8):   # non-specific: the highest in service
        if isr & (1 << line):
            return isr & ~(1 << line)
    return isr


def _ref_line(master, slave):
    """Reference pair resolution over (irr, imr, isr) tuples: 0-7 on
    the master, 8-15 on the slave, None.  The cascade line (2) requests
    only while the slave has a deliverable request."""
    line = _ref_highest(*master)
    if line == 2:
        slave_line = _ref_highest(*slave)
        if slave_line is not None:
            return 8 + slave_line
        line = _ref_highest(*master, skip=1 << 2)
    return line


_chip_regs = st.tuples(*[st.integers(min_value=0, max_value=255)] * 3)


def _pair(master, slave, bases=(0, 0)):
    pic = PicPair()
    for chip, (irr, imr, isr), base in ((pic.master, master, bases[0]),
                                        (pic.slave, slave, bases[1])):
        chip.irr, chip.imr, chip.isr = irr, imr, isr
        chip.vector_base = base
    return pic


class TestPicProperties:
    @given(master=_chip_regs, slave=_chip_regs,
           bases=st.tuples(*[st.integers(min_value=0, max_value=31)] * 2))
    @settings(max_examples=300)
    def test_resolution_and_acknowledge_match_reference(self, master, slave,
                                                        bases):
        """Random IRR/IMR/ISR on both chips: each chip's
        ``highest_pending``, the pair's vector and the IRR/ISR left by
        an acknowledge equal the bit-by-bit reference."""
        bases = (bases[0] * 8, bases[1] * 8)
        pic = _pair(master, slave, bases)
        assert pic.master.highest_pending() == _ref_highest(*master)
        assert pic.slave.highest_pending() == _ref_highest(*slave)
        line = _ref_line(master, slave)
        if line is None:
            assert not pic.has_pending()
            assert pic.pending_vector() is None
            with pytest.raises(RuntimeError):
                pic.acknowledge()
            return
        vector = bases[0] + line if line < 8 else bases[1] + line - 8
        assert pic.has_pending()
        assert pic.pending_vector() == vector
        assert pic.acknowledge() == vector
        (m_irr, _, m_isr), (s_irr, _, s_isr) = master, slave
        if line >= 8:
            s_irr &= ~(1 << (line - 8))
            s_isr |= 1 << (line - 8)
            m_isr |= 1 << 2
            if not s_irr:   # the cascade requests while the slave does
                m_irr &= ~(1 << 2)
        else:
            m_irr &= ~(1 << line)
            m_isr |= 1 << line
        assert (pic.master.irr, pic.master.isr) == (m_irr, m_isr)
        assert (pic.slave.irr, pic.slave.isr) == (s_irr, s_isr)
        assert pic.delivered == 1

    @given(regs=_chip_regs, command=st.integers(min_value=0, max_value=255))
    @settings(max_examples=300)
    def test_command_byte_matches_reference(self, regs, command):
        """Any command byte: ICW1 resets the chip, OCW3 only selects the
        read-back register, OCW2 with the EOI bit ends an interrupt as
        the reference does, and any other OCW2 changes nothing."""
        irr, imr, isr = regs
        pic = _pair(regs, (0, 0xFF, 0))
        pic.master.write_command(command)
        chip = pic.master
        if command & 0x10:
            expected = (0, 0, 0)
        elif command & 0x08 or not command & 0x20:
            expected = (irr, imr, isr)
        else:
            expected = (irr, imr, _ref_eoi(isr, command))
        assert (chip.irr, chip.imr, chip.isr) == expected

    @given(ops=st.lists(st.tuples(
        st.sampled_from(["read", "write", "raise", "ack"]),
        st.sampled_from([MASTER_CMD, MASTER_DATA, SLAVE_CMD, SLAVE_DATA]),
        st.integers(min_value=0, max_value=0x1FF)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_intercepted_ports_match_port_adapters(self, ops):
        """Guest PIC reads and writes emulated by ``LvmmIntercept`` on
        the virtual PIC leave it, and every value read, exactly as the
        chips' own bus port interface leaves a twin; EOI commands are
        the ones that restore the virtual IF."""
        shadow = ShadowState()
        eois = []
        intercept = LvmmIntercept(shadow, None, CycleBudget(),
                                  DEFAULT_COST_MODEL,
                                  on_virtual_eoi=lambda: eois.append(1))
        pic, twin = shadow.virtual_pic, PicPair()
        standard_setup(pic)
        standard_setup(twin)
        twin_eois = 0
        for op, port, value in ops:
            adapter = twin.master if port < SLAVE_CMD else twin.slave
            if op == "read":
                assert intercept.emulate_port_read(port, 1) == \
                    adapter.port_read(port & 1, 1)
            elif op == "write":
                intercept.emulate_port_write(port, value, 1)
                adapter.port_write(port & 1, value, 1)
                if not port & 1 and value & 0x20 and not value & 0x10:
                    twin_eois += 1
            elif op == "raise":
                pic.raise_irq(value & 15)
                twin.raise_irq(value & 15)
            elif twin.has_pending():
                assert pic.acknowledge() == twin.acknowledge()
            else:
                assert not pic.has_pending()
            assert pic.state() == twin.state()
        assert len(eois) == twin_eois
        assert intercept.pic_accesses == sum(
            op in ("read", "write") for op, _, _ in ops)

    @given(master=st.tuples(*[st.integers(min_value=0, max_value=255)] * 3),
           slave=st.tuples(*[st.integers(min_value=0, max_value=255)] * 3))
    def test_has_pending_agrees_with_pending_vector(self, master, slave):
        """The quick ``has_pending`` (no unmasked master request means
        nothing pending) agrees with the full priority resolution,
        cascade included."""
        pic = PicPair()
        for chip, (irr, imr, isr) in ((pic.master, master),
                                      (pic.slave, slave)):
            chip.irr, chip.imr, chip.isr = irr, imr, isr
        assert pic.has_pending() == (pic.pending_vector() is not None)
