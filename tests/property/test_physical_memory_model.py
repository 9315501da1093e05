"""Property-based tests: ``PhysicalMemory`` against a plain reference.

Random sequences of bulk writes (``bytes``, ``bytearray`` and
``memoryview`` payloads), fills, scalar stores (page-crossing ones too)
and out-of-range accesses run on a ``PhysicalMemory`` and on a
``bytearray`` with a hand-kept generation list.  After every step the
two must agree on each byte, on ``page_gens`` and on ``page_root()``,
which must be the sha256 over the sha256 of each reference page.

The image is a private anonymous mapping; a forked child's writes must
stay in the child.
"""

import os
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.hw.mem import GEN_PAGE_SHIFT, GEN_PAGE_SIZE, PhysicalMemory

#: Scalar accessors and their store widths.
SCALARS = {"u8": 1, "u16": 2, "u32": 4}
PAYLOADS = {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview}


class _Reference:
    """A bytearray plus the generation bumps the model promises."""

    def __init__(self, size: int) -> None:
        self.data = bytearray(size)
        self.gens = [0] * ((size + GEN_PAGE_SIZE - 1) >> GEN_PAGE_SHIFT)

    def store(self, addr: int, payload: bytes) -> None:
        self.data[addr:addr + len(payload)] = payload
        if payload:
            first = addr >> GEN_PAGE_SHIFT
            last = (addr + len(payload) - 1) >> GEN_PAGE_SHIFT
            for page in range(first, last + 1):
                self.gens[page] += 1

    def root(self) -> bytes:
        data = bytes(self.data)
        return sha256(b"".join(
            sha256(data[start:start + GEN_PAGE_SIZE]).digest()
            for start in range(0, len(data), GEN_PAGE_SIZE))).digest()


def _address(data, size: int, width: int) -> int:
    """An address for a ``width``-byte access, often across a page edge."""
    edges = [edge - shift
             for edge in range(GEN_PAGE_SIZE, size, GEN_PAGE_SIZE)
             for shift in range(1, width)]
    edges = [addr for addr in edges if 0 <= addr <= size - width]
    if edges and data.draw(st.booleans()):
        return data.draw(st.sampled_from(edges))
    return data.draw(st.integers(0, size - width))


def _out_of_range(data, size: int):
    """An (address, length) span that does not fit in RAM."""
    return data.draw(st.one_of(
        st.tuples(st.integers(-64, -1), st.integers(0, 8)),
        st.tuples(st.integers(0, size), st.integers(size + 1, size + 64)),
        st.tuples(st.integers(size - 3, size + 8), st.integers(4, 16)),
    ).filter(lambda span: span[0] < 0 or span[0] + span[1] > size))


def _step(data, memory: PhysicalMemory, ref: _Reference) -> None:
    size = memory.size
    op = data.draw(st.sampled_from(
        ["write", "fill", "store", "load", "read", "out-of-range"]))
    if op == "write":
        length = data.draw(st.integers(0, min(size, 2 * GEN_PAGE_SIZE)))
        addr = data.draw(st.integers(0, size - length))
        payload = data.draw(st.binary(min_size=length, max_size=length))
        kind = data.draw(st.sampled_from(sorted(PAYLOADS)))
        memory.write(addr, PAYLOADS[kind](payload))
        ref.store(addr, payload)
    elif op == "fill":
        length = data.draw(st.integers(0, min(size, 2 * GEN_PAGE_SIZE)))
        addr = data.draw(st.integers(0, size - length))
        value = data.draw(st.integers(0, 0x1FF))
        memory.fill(addr, length, value)
        ref.store(addr, bytes([value & 0xFF]) * length)
    elif op in ("store", "load"):
        name = data.draw(st.sampled_from(
            [name for name, width in SCALARS.items() if width <= size]))
        width = SCALARS[name]
        addr = _address(data, size, width)
        if op == "store":
            value = data.draw(st.integers(0, (1 << 33) - 1))
            getattr(memory, "write_" + name)(addr, value)
            ref.store(addr, (value & ((1 << 8 * width) - 1)).to_bytes(
                width, "little"))
        else:
            expected = int.from_bytes(ref.data[addr:addr + width], "little")
            assert getattr(memory, "read_" + name)(addr) == expected
    elif op == "read":
        length = data.draw(st.integers(0, size))
        addr = data.draw(st.integers(0, size - length))
        got = memory.read(addr, length)
        assert type(got) is bytes
        assert got == ref.data[addr:addr + length]
    else:
        access = data.draw(st.sampled_from(
            ["read", "write", "fill", "scalar"]))
        addr, length = _out_of_range(data, size)
        if access == "scalar":
            name = data.draw(st.sampled_from(sorted(SCALARS)))
            addr = data.draw(st.one_of(
                st.integers(-64, -1),
                st.integers(size - SCALARS[name] + 1, size + 64)))
        with pytest.raises(MemoryError_):
            if access == "read":
                memory.read(addr, length)
            elif access == "write":
                memory.write(addr, bytes(length))
            elif access == "fill":
                memory.fill(addr, length, 0xEE)
            elif data.draw(st.booleans()):
                getattr(memory, "read_" + name)(addr)
            else:
                getattr(memory, "write_" + name)(addr, 0xFFFFFFFF)


class TestAgainstReference:
    @given(size=st.integers(min_value=1, max_value=4 * GEN_PAGE_SIZE + 77),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_sequences_match_bytearray(self, size, data):
        memory = PhysicalMemory(size)
        ref = _Reference(size)
        assert memory.page_root() == ref.root()
        for _ in range(data.draw(st.integers(1, 16))):
            _step(data, memory, ref)
            assert memory.read(0, size) == ref.data
            assert bytes(memory.view()) == ref.data
            assert memory.page_gens == ref.gens
            assert memory.page_root() == ref.root()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_stay_in_the_child():
    memory = PhysicalMemory(4 * GEN_PAGE_SIZE)
    memory.write(GEN_PAGE_SIZE, b"parent")
    before = memory.read(0, memory.size)
    root = memory.page_root()
    pid = os.fork()
    if pid == 0:
        try:
            memory.fill(GEN_PAGE_SIZE, GEN_PAGE_SIZE, 0xAB)
            memory.write_u32(0, 0xDEADBEEF)
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert memory.read(0, memory.size) == before
    # The cached root must still describe the bytes the parent holds.
    ref = _Reference(memory.size)
    ref.store(0, before)
    assert memory.page_root() == root == ref.root()


class TestReleasedImages:
    """A freed memory's image is reused by the next memory of its size,
    which must still start out as all zero bytes."""

    @given(size=st.integers(min_value=1, max_value=4 * GEN_PAGE_SIZE + 77),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_reused_image_starts_zeroed(self, size, data):
        memory = PhysicalMemory(size)
        ref = _Reference(size)
        for _ in range(data.draw(st.integers(1, 16))):
            _step(data, memory, ref)
        image = id(memory._data)
        del memory
        fresh = PhysicalMemory(size)
        assert id(fresh._data) == image
        assert fresh.read(0, size) == bytes(size)
        assert fresh.page_root() == _Reference(size).root()

    def test_an_image_with_a_live_view_is_not_reused(self):
        memory = PhysicalMemory(3 * GEN_PAGE_SIZE + 5)
        memory.write(0, b"kept")
        view = memory.view()
        image = id(memory._data)
        del memory
        fresh = PhysicalMemory(3 * GEN_PAGE_SIZE + 5)
        fresh.write(0, b"next")
        assert id(fresh._data) != image
        assert bytes(view[:4]) == b"kept"
