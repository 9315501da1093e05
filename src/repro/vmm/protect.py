"""The lightweight three-level memory-protection mechanism.

x86 paging alone distinguishes two privilege classes (supervisor/user).
The paper's monitor adds a third level so that *its* memory survives a
buggy guest kernel.  The mechanism reproduced here is the classic
ring-compression + segment-truncation combination:

* the guest kernel, written for ring 0, is run at **ring 1** — its
  privileged instructions trap to the monitor (ring 0);
* every descriptor the guest loads into the GDT is rewritten into a
  **shadow GDT**: DPL 0 becomes DPL 1, and the limit is clamped below
  the monitor's region at the top of the address space;
* ring 3 (guest applications) is left untouched — paging still provides
  the guest-kernel/application split.

Result: monitor (ring 0, full address space) / guest kernel (ring 1,
address space minus the monitor) / guest applications (ring 3, pages the
guest kernel grants) — three levels, no hardware support beyond stock
IA-32 segmentation.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.seg import (
    DESCRIPTOR_SIZE,
    SegmentDescriptor,
    intern_descriptor,
    selector_index,
    selector_rpl,
)


def compress_descriptor(descriptor: SegmentDescriptor,
                        monitor_base: int) -> SegmentDescriptor:
    """Rewrite one guest descriptor for the shadow GDT.

    Ring compression maps DPL 0 -> 1 (rings 1..3 keep their DPL) and the
    limit is clamped so no guest segment can reach the monitor region.
    A descriptor whose *base* already sits at or above the monitor
    region cannot be truncated into anything usable — it is marked not
    present, so any guest load of it takes a clean #NP-style fault
    instead of silently dereferencing a zero-limit segment.
    """
    new_dpl = 1 if descriptor.dpl == 0 else descriptor.dpl
    reachable = descriptor.base < monitor_base
    return SegmentDescriptor(
        base=descriptor.base,
        limit=min(descriptor.limit, max(monitor_base - descriptor.base, 0)),
        dpl=new_dpl,
        code=descriptor.code,
        writable=descriptor.writable,
        present=descriptor.present and reachable,
    )


def compress_selector(sel: int) -> int:
    """Adjust a guest selector's RPL for ring compression (RPL 0 -> 1)."""
    rpl = selector_rpl(sel)
    if rpl == 0:
        rpl = 1
    return (selector_index(sel) << 2) | rpl


class ShadowGdt:
    """The monitor-owned real GDT mirroring the guest's table.

    Indices are preserved one-to-one so guest selectors keep working;
    only DPL and limit change.  The shadow lives inside the monitor
    region, where the guest cannot reach it.
    """

    def __init__(self, memory, shadow_base: int, monitor_base: int,
                 max_descriptors: int = 64) -> None:
        self._memory = memory
        self.base = shadow_base
        self.monitor_base = monitor_base
        self.max_descriptors = max_descriptors
        self.limit = 0
        self.rebuilds = 0

    def rebuild(self, guest_base: int, guest_limit: int) -> None:
        """Re-shadow the guest GDT after the guest's LGDT."""
        count = min(guest_limit // DESCRIPTOR_SIZE, self.max_descriptors)
        for index in range(count):
            raw = self._memory.read(guest_base + index * DESCRIPTOR_SIZE,
                                    DESCRIPTOR_SIZE)
            descriptor = SegmentDescriptor.unpack(raw)
            shadowed = compress_descriptor(descriptor, self.monitor_base)
            self._memory.write(self.base + index * DESCRIPTOR_SIZE,
                               shadowed.pack())
        self.limit = count * DESCRIPTOR_SIZE
        self.rebuilds += 1

    def read(self, index: int) -> SegmentDescriptor:
        raw = self._memory.read(self.base + index * DESCRIPTOR_SIZE,
                                DESCRIPTOR_SIZE)
        return intern_descriptor(raw)


def guest_can_reach(descriptor: SegmentDescriptor, offset: int,
                    monitor_base: int) -> bool:
    """Would a guest access at ``offset`` through ``descriptor`` touch
    monitor memory?  (Used by tests to assert the invariant.)"""
    if not descriptor.contains(offset):
        return False
    return descriptor.base + offset >= monitor_base
