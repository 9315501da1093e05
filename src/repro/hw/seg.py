"""Segmentation: descriptors, the GDT, and segment-limit checking.

Segmentation is the architectural lever the paper's "lightweight memory
protection mechanism" pulls.  x86 paging distinguishes only supervisor
from user; by running the guest kernel in ring 1 with **truncated segment
limits**, the monitor makes its own memory unreachable from the guest
kernel even though both are "supervisor" to the paging unit.  That is the
third protection level.

Descriptors here are a simplified flat model: base + limit + DPL +
type (code/data) + writable flag, serialised to 12 bytes in the GDT:

    offset 0: base   (u32)
    offset 4: limit  (u32, byte-granular; highest *valid* offset + 1)
    offset 8: flags  (u32: bit0 present, bit1 code, bit2 writable,
                      bits 4-5 DPL)

A selector is ``(index << 2) | RPL`` with a 2-bit requested privilege
level, mirroring x86's ``(index << 3) | TI | RPL`` without the LDT bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict

from repro.errors import MemoryError_

DESCRIPTOR_SIZE = 12

_F_PRESENT = 1 << 0
_F_CODE = 1 << 1
_F_WRITABLE = 1 << 2
_DPL_SHIFT = 4
_DPL_MASK = 0b11 << _DPL_SHIFT


@dataclass(frozen=True)
class SegmentDescriptor:
    """An in-memory segment descriptor, decoded."""

    base: int
    limit: int          # first *invalid* offset; limit==0 means empty segment
    dpl: int
    code: bool = False
    writable: bool = True
    present: bool = True

    def pack(self) -> bytes:
        flags = 0
        if self.present:
            flags |= _F_PRESENT
        if self.code:
            flags |= _F_CODE
        if self.writable:
            flags |= _F_WRITABLE
        flags |= (self.dpl & 0b11) << _DPL_SHIFT
        return struct.pack("<III", self.base & 0xFFFFFFFF,
                           self.limit & 0xFFFFFFFF, flags)

    @classmethod
    def unpack(cls, raw: bytes) -> "SegmentDescriptor":
        if len(raw) != DESCRIPTOR_SIZE:
            raise MemoryError_(
                f"descriptor must be {DESCRIPTOR_SIZE} bytes, got {len(raw)}")
        base, limit, flags = struct.unpack("<III", raw)
        return cls(
            base=base,
            limit=limit,
            dpl=(flags & _DPL_MASK) >> _DPL_SHIFT,
            code=bool(flags & _F_CODE),
            writable=bool(flags & _F_WRITABLE),
            present=bool(flags & _F_PRESENT),
        )

    def contains(self, offset: int, length: int = 1) -> bool:
        """True when [offset, offset+length) lies inside the limit."""
        return 0 <= offset and offset + length <= self.limit

    def truncated(self, new_limit: int) -> "SegmentDescriptor":
        """A copy with the limit clamped to ``new_limit`` (monitor trick)."""
        return SegmentDescriptor(
            base=self.base,
            limit=min(self.limit, new_limit),
            dpl=self.dpl,
            code=self.code,
            writable=self.writable,
            present=self.present,
        )


#: Every descriptor read from a table, by raw entry: one shared frozen
#: object per distinct 12 bytes.  Process-wide, because the monitor's
#: shadow GDT and the CPU's GDTR read the same table through two views.
_INTERNED: Dict[bytes, SegmentDescriptor] = {}
#: Distinct raw entries interned before the table starts over.
_INTERN_CAPACITY = 256


def intern_descriptor(raw: bytes) -> SegmentDescriptor:
    """The one shared descriptor decoded from the raw entry ``raw``.

    Descriptors are frozen, so every read of the same raw entry can
    return the same object, and the CPU's CS guards (decode cache and
    superblocks) then match on identity.
    """
    descriptor = _INTERNED.get(raw)
    if descriptor is None:
        descriptor = SegmentDescriptor.unpack(raw)
        if len(_INTERNED) >= _INTERN_CAPACITY:
            _INTERNED.clear()
        _INTERNED[raw] = descriptor
    return descriptor


def selector(index: int, rpl: int = 0) -> int:
    """Build a selector from a GDT index and requested privilege level."""
    return ((index & 0x3FFF) << 2) | (rpl & 0b11)


def selector_index(sel: int) -> int:
    return (sel >> 2) & 0x3FFF


def selector_rpl(sel: int) -> int:
    return sel & 0b11


class GdtView:
    """Reads descriptors out of guest physical memory given GDTR contents.

    The CPU re-reads descriptors on every segment-register load, exactly
    like the hidden-cache reload on x86 — which is what lets a monitor
    rewrite the GDT under the guest (limit truncation) and have the new
    limits take effect on the next reload.  Reads are interned
    (:func:`intern_descriptor`): a rewritten entry reads back as a new
    descriptor, an unchanged one as the same object.
    """

    def __init__(self, memory, base: int = 0, limit: int = 0) -> None:
        self._memory = memory
        self.base = base
        self.limit = limit  # number of valid descriptor *bytes*

    def load(self, base: int, limit: int) -> None:
        self.base = base
        self.limit = limit

    def read(self, index: int) -> SegmentDescriptor:
        offset = index * DESCRIPTOR_SIZE
        if offset + DESCRIPTOR_SIZE > self.limit:
            raise IndexError(f"GDT index {index} beyond limit {self.limit}")
        raw = self._memory.read(self.base + offset, DESCRIPTOR_SIZE)
        return intern_descriptor(raw)

    def write(self, index: int, descriptor: SegmentDescriptor) -> None:
        offset = index * DESCRIPTOR_SIZE
        if offset + DESCRIPTOR_SIZE > self.limit:
            raise IndexError(f"GDT index {index} beyond limit {self.limit}")
        self._memory.write(self.base + offset, descriptor.pack())
