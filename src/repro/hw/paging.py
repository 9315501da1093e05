"""Two-level paging: page directory / page table walks and a TLB.

This mirrors 32-bit x86 non-PAE paging: a 10/10/12 split, 4-byte entries,
present / writable / user bits, accessed / dirty bookkeeping.  Page faults
carry the IA-32 error-code bit layout so the guest OS and the monitors
can share fault-decoding logic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

PAGE_SIZE = 4096
PAGE_SHIFT = 12
ENTRIES_PER_TABLE = 1024

# Page-table entry bits (IA-32 layout).
PTE_P = 1 << 0   # present
PTE_W = 1 << 1   # writable
PTE_U = 1 << 2   # user accessible
PTE_A = 1 << 5   # accessed
PTE_D = 1 << 6   # dirty
PTE_FRAME_MASK = 0xFFFFF000

# Page-fault error code bits (IA-32 layout).
PF_PRESENT = 1 << 0   # fault caused by a protection violation (not non-present)
PF_WRITE = 1 << 1     # faulting access was a write
PF_USER = 1 << 2      # faulting access came from user mode (CPL == 3)


@dataclass(frozen=True)
class PageFault(Exception):
    """Raised by the walker; the CPU converts it into a #PF delivery."""

    address: int
    error_code: int

    def __str__(self) -> str:
        kind = "protection" if self.error_code & PF_PRESENT else "not-present"
        access = "write" if self.error_code & PF_WRITE else "read"
        mode = "user" if self.error_code & PF_USER else "supervisor"
        return (f"page fault at {self.address:#010x} "
                f"({kind}, {access}, {mode})")


def split_vaddr(vaddr: int) -> Tuple[int, int, int]:
    """Split a virtual address into (directory index, table index, offset)."""
    return (vaddr >> 22) & 0x3FF, (vaddr >> 12) & 0x3FF, vaddr & 0xFFF


def make_pte(frame: int, writable: bool = True, user: bool = False,
             present: bool = True) -> int:
    """Build a page-table or page-directory entry."""
    entry = frame & PTE_FRAME_MASK
    if present:
        entry |= PTE_P
    if writable:
        entry |= PTE_W
    if user:
        entry |= PTE_U
    return entry


class Tlb:
    """An LRU translation cache keyed by virtual page number.

    Real TLBs are the reason monitors must flush on CR3 writes; we model
    the flush requirement so the monitors exercise it.  Entries record the
    *effective* permissions from the combined PDE/PTE walk.

    :attr:`generation` counts flushes (full or per-page).  Consumers that
    cache anything derived from a translation — the CPU's decoded-
    instruction cache — compare it to discover that the address space
    may have changed underneath them, which is exactly the contract a
    hardware TLB shoot-down gives a trace cache.
    """

    DEFAULT_CAPACITY = 256

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[int, Tuple[int, bool, bool]]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Bumped on every flush/flush_page; never on ordinary eviction
        #: (eviction drops a still-valid translation, a flush signals
        #: that existing translations may now be *wrong*).
        self.generation = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, vpn: int) -> Optional[Tuple[int, bool, bool]]:
        entry = self._entries.get(vpn)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(vpn)
        return entry

    def insert(self, vpn: int, frame: int, writable: bool, user: bool) -> None:
        if len(self._entries) >= self.capacity:
            # True LRU: drop the least recently used translation.
            self._entries.popitem(last=False)
        self._entries[vpn] = (frame, writable, user)

    def flush(self) -> None:
        self._entries.clear()
        self.generation += 1

    def flush_page(self, vpn: int) -> None:
        self._entries.pop(vpn, None)
        self.generation += 1

    def stats(self) -> dict:
        """Counter snapshot for the perf-export layer."""
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


class Mmu:
    """Walks page tables in physical memory.

    ``translate`` returns a physical address or raises :class:`PageFault`.
    When paging is disabled the caller should bypass the MMU entirely;
    the CPU takes care of that via CR0.PG.
    """

    def __init__(self, memory) -> None:
        self._memory = memory
        self.tlb = Tlb()
        self.cr3 = 0

    def set_cr3(self, value: int) -> None:
        self.cr3 = value & PTE_FRAME_MASK
        self.tlb.flush()

    def translate(self, vaddr: int, write: bool, user: bool,
                  update_flags: bool = True) -> int:
        """Translate one byte address.  Callers must not cross page
        boundaries in a single call; use :func:`span_pages` to split."""
        vpn = vaddr >> PAGE_SHIFT
        cached = self.tlb.lookup(vpn)
        if cached is not None:
            frame, can_write, is_user = cached
            self._check_rights(vaddr, write, user, can_write, is_user,
                               present=True)
            return frame | (vaddr & 0xFFF)

        dir_index, table_index, offset = split_vaddr(vaddr)
        pde_addr = self.cr3 + dir_index * 4
        pde = self._memory.read_u32(pde_addr)
        if not pde & PTE_P:
            raise PageFault(vaddr, self._error_code(write, user, present=False))

        pte_addr = (pde & PTE_FRAME_MASK) + table_index * 4
        pte = self._memory.read_u32(pte_addr)
        if not pte & PTE_P:
            raise PageFault(vaddr, self._error_code(write, user, present=False))

        # Effective rights are the AND of both levels, as on x86.
        can_write = bool(pde & PTE_W) and bool(pte & PTE_W)
        is_user = bool(pde & PTE_U) and bool(pte & PTE_U)
        self._check_rights(vaddr, write, user, can_write, is_user, present=True)

        if update_flags:
            self._memory.write_u32(pde_addr, pde | PTE_A)
            new_pte = pte | PTE_A | (PTE_D if write else 0)
            if new_pte != pte:
                self._memory.write_u32(pte_addr, new_pte)

        frame = pte & PTE_FRAME_MASK
        self.tlb.insert(vpn, frame, can_write, is_user)
        return frame | offset

    @staticmethod
    def _error_code(write: bool, user: bool, present: bool) -> int:
        code = 0
        if present:
            code |= PF_PRESENT
        if write:
            code |= PF_WRITE
        if user:
            code |= PF_USER
        return code

    def _check_rights(self, vaddr: int, write: bool, user: bool,
                      can_write: bool, is_user: bool, present: bool) -> None:
        if user and not is_user:
            raise PageFault(vaddr, self._error_code(write, user, present))
        if write and not can_write:
            raise PageFault(vaddr, self._error_code(write, user, present))


def span_pages(addr: int, length: int):
    """Yield (addr, length) chunks of an access split at page boundaries."""
    remaining = length
    cursor = addr
    while remaining > 0:
        in_page = PAGE_SIZE - (cursor & (PAGE_SIZE - 1))
        chunk = min(in_page, remaining)
        yield cursor, chunk
        cursor += chunk
        remaining -= chunk


class PageTableBuilder:
    """Helper for constructing page tables directly in physical memory.

    Used by the monitors and the guest bootstrap to set up identity or
    offset mappings without hand-computing entry addresses.
    """

    def __init__(self, memory, alloc_base: int) -> None:
        self._memory = memory
        self._next_free = alloc_base
        self.directory = self._alloc_table()

    def _alloc_table(self) -> int:
        addr = self._next_free
        self._next_free += PAGE_SIZE
        self._memory.fill(addr, PAGE_SIZE, 0)
        return addr

    def map(self, vaddr: int, paddr: int, writable: bool = True,
            user: bool = False) -> None:
        """Map one 4 KiB page."""
        dir_index, table_index, _ = split_vaddr(vaddr)
        pde_addr = self.directory + dir_index * 4
        pde = self._memory.read_u32(pde_addr)
        if not pde & PTE_P:
            table = self._alloc_table()
            # Directory entries get maximal rights; the PTE is authoritative.
            pde = make_pte(table, writable=True, user=True)
            self._memory.write_u32(pde_addr, pde)
        pte_addr = (pde & PTE_FRAME_MASK) + table_index * 4
        self._memory.write_u32(
            pte_addr, make_pte(paddr, writable=writable, user=user))

    def map_range(self, vaddr: int, paddr: int, length: int,
                  writable: bool = True, user: bool = False) -> None:
        """Map a page-aligned range."""
        pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        for i in range(pages):
            self.map(vaddr + i * PAGE_SIZE, paddr + i * PAGE_SIZE,
                     writable=writable, user=user)

    def identity_map(self, start: int, length: int, writable: bool = True,
                     user: bool = False) -> None:
        self.map_range(start, start, length, writable=writable, user=user)

    def unmap(self, vaddr: int) -> None:
        dir_index, table_index, _ = split_vaddr(vaddr)
        pde = self._memory.read_u32(self.directory + dir_index * 4)
        if not pde & PTE_P:
            return
        pte_addr = (pde & PTE_FRAME_MASK) + table_index * 4
        self._memory.write_u32(pte_addr, 0)
