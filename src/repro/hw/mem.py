"""Physical memory for the simulated target machine."""

from __future__ import annotations

import mmap
import struct
import sys
from hashlib import sha256
from itertools import compress
from operator import ne
from typing import List, Optional

from repro.errors import MemoryError_

#: Page granularity of the write-generation bookkeeping (matches the MMU).
GEN_PAGE_SHIFT = 12
GEN_PAGE_SIZE = 1 << GEN_PAGE_SHIFT
_ZERO_PAGE = bytes(GEN_PAGE_SIZE)
#: sha256 of a page that was never written (all zero bytes).
_ZERO_PAGE_HASH = sha256(_ZERO_PAGE).digest()

#: Images of released memories, every written page zeroed again: the
#: next memory of the same size takes one instead of mapping and
#: faulting in fresh pages (see :meth:`PhysicalMemory.__del__`).
_free_images: List[mmap.mmap] = []
#: Released images kept at most.
FREE_IMAGES = 2


def _take_image(size: int) -> mmap.mmap:
    try:
        image = _free_images.pop()
    except IndexError:
        image = None
    if image is not None and len(image) == size:
        return image
    # An image of another size is dropped: the pool follows the size
    # that machines are being built with now.
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


class PhysicalMemory:
    """A flat byte-addressable RAM with bounds checking.

    All CPU, DMA and monitor accesses ultimately land here.  Accessors are
    little-endian, matching the PC/AT heritage of the modelled platform.

    Every write bumps a per-page generation counter (:attr:`page_gens`).
    Translation-cache-style consumers — the CPU's decoded-instruction
    cache — snapshot the generation of the pages an entry depends on and
    treat a mismatch as "this code may have been overwritten", which
    makes self-modifying code and DMA into code pages correct without
    interposing on the read path at all.  :meth:`page_root` uses the
    same counters to rehash only the pages written since its last call.

    The image is a private anonymous mapping, not a ``bytearray``: the
    kernel supplies zero pages on first touch, so a machine's resident
    RAM follows what the guest, the monitor and DMA actually write.
    ``MAP_PRIVATE`` is explicit because ``mmap`` defaults to
    ``MAP_SHARED``, under which a forked child would write the parent's
    guest RAM.  A released image is zeroed where it was written and
    reused by the next memory of its size, so a process that builds a
    machine per job maps and faults in its RAM once, not per machine.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise MemoryError_(f"memory size must be positive, got {size}")
        self.size = size
        self._data = _take_image(size)
        #: Write-generation counter per physical page, bumped on any
        #: store that touches the page (CPU, DMA or monitor alike).
        pages = (size + GEN_PAGE_SIZE - 1) >> GEN_PAGE_SHIFT
        self.page_gens = [0] * pages
        # page_root() cache: each page's sha256 as of ``_hashed_gens``.
        # A page still at generation 0 was never written, so it starts
        # out as the hash of its length in zero bytes.
        self._page_hashes = [_ZERO_PAGE_HASH] * pages
        tail = size & (GEN_PAGE_SIZE - 1)
        if tail:
            self._page_hashes[-1] = sha256(bytes(tail)).digest()
        self._hashed_gens = list(self.page_gens)
        self._root: Optional[bytes] = None

    def __del__(self) -> None:
        data = self.__dict__.get("_data")
        # Only this object may hold the image: a view that outlived the
        # memory would otherwise see the next owner's bytes.  (The
        # other two references are ``data`` and getrefcount's argument.)
        if data is None or sys.getrefcount(data) > 3:
            return
        try:
            if len(_free_images) >= FREE_IMAGES:
                return
            # A page still at generation 0 was never written and is
            # still zero; every other page is zeroed again here.
            size = self.size
            for page in compress(range(len(self.page_gens)),
                                 self.page_gens):
                start = page << GEN_PAGE_SHIFT
                end = min(start + GEN_PAGE_SIZE, size)
                data[start:end] = _ZERO_PAGE[:end - start]
            _free_images.append(data)
        except (AttributeError, TypeError):
            pass   # interpreter shutdown: module globals are gone

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise MemoryError_(
                f"physical access [{addr:#x}, {addr + length:#x}) outside "
                f"installed RAM of {self.size:#x} bytes")

    def _bump(self, addr: int, length: int) -> None:
        gens = self.page_gens
        first = addr >> GEN_PAGE_SHIFT
        last = (addr + length - 1) >> GEN_PAGE_SHIFT if length > 1 else first
        gens[first] += 1
        if last != first:
            for page in range(first + 1, last + 1):
                gens[page] += 1

    def page_generation(self, page: int) -> int:
        """Current write generation of physical page ``page``."""
        return self.page_gens[page]

    def page_root(self) -> bytes:
        """sha256 over the sha256 of every 4 KiB page, in address order.

        The last page hashes its real length when ``size`` is not a page
        multiple.  Only pages whose generation moved since the previous
        call are rehashed, so the cost follows what was written, not
        the installed RAM.
        """
        gens = self.page_gens
        seen = self._hashed_gens
        if gens != seen or self._root is None:
            hashes = self._page_hashes
            with memoryview(self._data) as view:
                for page in compress(range(len(gens)), map(ne, gens, seen)):
                    start = page << GEN_PAGE_SHIFT
                    hashes[page] = sha256(
                        view[start:start + GEN_PAGE_SIZE]).digest()
            self._hashed_gens = list(gens)
            self._root = sha256(b"".join(hashes)).digest()
        return self._root

    def view(self) -> memoryview:
        """A read-only view of the whole image, without copying it."""
        return memoryview(self._data).toreadonly()

    # -- bulk accessors ------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        return self._data[addr:addr + length]

    def write(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self._data[addr:addr + len(data)] = data
        if data:
            self._bump(addr, len(data))

    def fill(self, addr: int, length: int, value: int = 0) -> None:
        self._check(addr, length)
        self._data[addr:addr + length] = bytes([value & 0xFF]) * length
        if length:
            self._bump(addr, length)

    # -- scalar accessors ------------------------------------------------------

    def read_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return self._data[addr]

    def write_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self._data[addr] = value & 0xFF
        self.page_gens[addr >> GEN_PAGE_SHIFT] += 1

    def read_u16(self, addr: int) -> int:
        self._check(addr, 2)
        return struct.unpack_from("<H", self._data, addr)[0]

    def write_u16(self, addr: int, value: int) -> None:
        self._check(addr, 2)
        struct.pack_into("<H", self._data, addr, value & 0xFFFF)
        self._bump(addr, 2)

    def read_u32(self, addr: int) -> int:
        self._check(addr, 4)
        return struct.unpack_from("<I", self._data, addr)[0]

    def write_u32(self, addr: int, value: int) -> None:
        self._check(addr, 4)
        struct.pack_into("<I", self._data, addr, value & 0xFFFFFFFF)
        self._bump(addr, 4)
