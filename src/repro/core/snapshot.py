"""Guest checkpoint/restore — a simulator-enabled debugging extension.

A classic pain of OS debugging is that the bug destroys the state you
needed to see.  Because this target is simulated, the debug session can
checkpoint the *whole guest* (CPU, memory, PIC, monitor shadow state,
disk write overlays) while it is stopped, let it run into the weeds,
and wind it back.

Scope: snapshots are taken at **quiescent stop points** — the guest is
stopped and no device operation is in flight.  In-flight DMA or pending
wire events are deliberately not captured (the capture refuses, rather
than recording a half-truth); this matches the stop-the-world
checkpoint discipline of record/replay debuggers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MonitorError
from repro.hw.seg import SegmentDescriptor


@dataclass
class _PicChipState:
    irr: int
    isr: int
    imr: int
    vector_base: int


@dataclass
class MachineSnapshot:
    """Everything needed to put a stopped guest back exactly here."""

    label: str
    cycle: int
    # CPU
    regs: List[int] = field(default_factory=list)
    pc: int = 0
    flags: int = 0
    crs: List[int] = field(default_factory=list)
    segments: List[Tuple[int, bytes]] = field(default_factory=list)
    gdtr: Tuple[int, int] = (0, 0)
    idtr: Tuple[int, int] = (0, 0)
    tss_base: int = 0
    halted: bool = False
    # Memory + device state
    memory: bytes = b""
    pic: List[_PicChipState] = field(default_factory=list)
    disk_overlays: List[Dict[int, bytes]] = field(default_factory=list)
    # Timer/queue devices (None on snapshots from before these existed).
    # Armed timers are stored as remaining delays relative to the queue
    # clock: restore never rewinds simulated time, so ``restore`` re-arms
    # them that far into the new future.
    pit: Optional[dict] = None
    rtc: Optional[dict] = None
    uart: Optional[dict] = None
    serial: Optional[dict] = None
    nic: Optional[dict] = None
    # Monitor shadow state (None when captured on bare metal)
    shadow: Optional[dict] = None

    @property
    def size_bytes(self) -> int:
        return len(self.memory)


def _quiesce_check(machine) -> None:
    if machine.hba._in_flight:
        raise MonitorError(
            "cannot snapshot: SCSI requests in flight — let the guest "
            "reach a quiescent stop first")
    next_event = machine.queue.peek_time()
    if next_event is not None and machine.nic is not None \
            and machine.nic._tx_busy_until > machine.queue.now:
        raise MonitorError(
            "cannot snapshot: NIC transmission in flight")


def capture(machine, monitor=None, label: str = "") -> MachineSnapshot:
    """Snapshot a stopped guest."""
    _quiesce_check(machine)
    cpu = machine.cpu
    snapshot = MachineSnapshot(
        label=label or f"cycle-{cpu.cycle_count}",
        cycle=cpu.cycle_count,
        regs=list(cpu.regs),
        pc=cpu.pc,
        flags=cpu.flags,
        crs=list(cpu.crs),
        segments=[(cache.selector, cache.descriptor.pack())
                  for cache in cpu.segments],
        gdtr=(cpu.gdt.base, cpu.gdt.limit),
        idtr=(cpu.idtr_base, cpu.idtr_limit),
        tss_base=cpu.tss_base,
        halted=cpu.halted,
        memory=bytes(machine.memory.view()),
        pic=[_PicChipState(chip.irr, chip.isr, chip.imr,
                           chip.vector_base)
             for chip in (machine.pic.master, machine.pic.slave)],
        disk_overlays=[dict(disk._overlay) for disk in machine.disks],
        pit=machine.pit.state(),
        rtc=machine.rtc.state(),
        uart=machine.uart.state(),
        serial=machine.serial_link.state(),
        nic=machine.nic.state() if machine.nic is not None else None,
    )
    if monitor is not None:
        shadow = monitor.shadow
        snapshot.shadow = {
            "vif": shadow.vif,
            "vif_before_reflect": shadow.vif_before_reflect,
            "idtr": (shadow.idtr.base, shadow.idtr.limit),
            "gdtr": (shadow.gdtr.base, shadow.gdtr.limit),
            "tss_base": shadow.tss_base,
            "cr0": shadow.cr0,
            "cr3": shadow.cr3,
            "halted": shadow.halted,
            "vpic": [(chip.irr, chip.isr, chip.imr, chip.vector_base)
                     for chip in (shadow.virtual_pic.master,
                                  shadow.virtual_pic.slave)],
            "guest_dead": monitor.guest_dead,
            "guest_dead_reason": monitor.guest_dead_reason,
        }
    return snapshot


def restore(machine, snapshot: MachineSnapshot, monitor=None) -> None:
    """Rewind a machine to a snapshot taken on it (or a twin of it)."""
    if len(snapshot.memory) != machine.memory.size:
        raise MonitorError(
            f"snapshot is for a {len(snapshot.memory):#x}-byte machine, "
            f"this one has {machine.memory.size:#x}")
    cpu = machine.cpu
    machine.memory.write(0, snapshot.memory)
    cpu.regs[:] = snapshot.regs
    cpu.pc = snapshot.pc
    cpu.flags = snapshot.flags
    cpu.crs[:] = snapshot.crs
    for index, (selector, raw) in enumerate(snapshot.segments):
        cpu.force_segment(index, selector,
                          SegmentDescriptor.unpack(raw))
    cpu.gdt.load(*snapshot.gdtr)
    cpu.idtr_base, cpu.idtr_limit = snapshot.idtr
    cpu.tss_base = snapshot.tss_base
    cpu.halted = snapshot.halted
    cpu.mmu.set_cr3(cpu.crs[3])  # also flushes the TLB

    # Devices first (the UART's load_state recomputes its IRQ line),
    # then the PIC chips so the snapshot's latched request bits win.
    if snapshot.serial is not None:
        machine.serial_link.load_state(snapshot.serial)
    if snapshot.uart is not None:
        machine.uart.load_state(snapshot.uart)
    if snapshot.pit is not None:
        machine.pit.load_state(snapshot.pit)
    if snapshot.rtc is not None:
        machine.rtc.load_state(snapshot.rtc)
    if snapshot.nic is not None and machine.nic is not None:
        machine.nic.load_state(snapshot.nic)

    for chip, state in zip((machine.pic.master, machine.pic.slave),
                           snapshot.pic):
        chip.irr, chip.isr = state.irr, state.isr
        chip.imr, chip.vector_base = state.imr, state.vector_base

    for disk, overlay in zip(machine.disks, snapshot.disk_overlays):
        disk._overlay = dict(overlay)

    if monitor is not None and snapshot.shadow is not None:
        shadow = monitor.shadow
        data = snapshot.shadow
        shadow.vif = data["vif"]
        shadow.vif_before_reflect = data["vif_before_reflect"]
        shadow.idtr.base, shadow.idtr.limit = data["idtr"]
        shadow.gdtr.base, shadow.gdtr.limit = data["gdtr"]
        shadow.tss_base = data["tss_base"]
        shadow.cr0 = data["cr0"]
        shadow.cr3 = data["cr3"]
        shadow.halted = data["halted"]
        for chip, state in zip((shadow.virtual_pic.master,
                                shadow.virtual_pic.slave),
                               data["vpic"]):
            chip.irr, chip.isr, chip.imr, chip.vector_base = state
        monitor.guest_dead = data["guest_dead"]
        monitor.guest_dead_reason = data["guest_dead_reason"]
        # The guest is back from the dead at a stop point.
        monitor.stopped = True


class CheckpointStore:
    """Named snapshots for a debug session, bounded by an LRU cap.

    Each snapshot holds a full memory image, so an unbounded store is a
    session-length memory leak.  Eviction policy: when ``save`` pushes
    the store over ``max_snapshots`` entries or ``max_bytes`` held
    bytes, the least-recently-used snapshots are dropped (``get`` and
    ``save`` both refresh recency; the snapshot just saved is never the
    victim, so one checkpoint always survives even if it alone exceeds
    ``max_bytes``).  Pass ``max_snapshots=None``/``max_bytes=None`` to
    lift either cap.
    """

    def __init__(self, max_snapshots: Optional[int] = 32,
                 max_bytes: Optional[int] = None) -> None:
        if max_snapshots is not None and max_snapshots < 1:
            raise MonitorError("max_snapshots must be >= 1 (or None)")
        self.max_snapshots = max_snapshots
        self.max_bytes = max_bytes
        self.evictions = 0
        self._snapshots: "OrderedDict[str, MachineSnapshot]" = OrderedDict()

    def save(self, name: str, snapshot: MachineSnapshot) -> None:
        self._snapshots.pop(name, None)
        self._snapshots[name] = snapshot
        self._evict()

    def get(self, name: str) -> MachineSnapshot:
        try:
            snapshot = self._snapshots[name]
        except KeyError:
            raise MonitorError(f"no checkpoint named {name!r}") from None
        self._snapshots.move_to_end(name)
        return snapshot

    def names(self) -> List[str]:
        return sorted(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    @property
    def held_bytes(self) -> int:
        """Memory-image bytes currently held (the dominant cost)."""
        return sum(snapshot.size_bytes
                   for snapshot in self._snapshots.values())

    def _evict(self) -> None:
        while len(self._snapshots) > 1 and (
                (self.max_snapshots is not None
                 and len(self._snapshots) > self.max_snapshots)
                or (self.max_bytes is not None
                    and self.held_bytes > self.max_bytes)):
            self._snapshots.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict:
        """Occupancy counters in the ``repro.perf`` accounting shape."""
        return {
            "snapshots": len(self._snapshots),
            "held_bytes": self.held_bytes,
            "max_snapshots": self.max_snapshots,
            "max_bytes": self.max_bytes,
            "evictions": self.evictions,
        }
