"""Guest checkpoint/restore — a simulator-enabled debugging extension.

A classic pain of OS debugging is that the bug destroys the state you
needed to see.  Because this target is simulated, the debug session can
checkpoint the *whole guest* while it is stopped, let it run into the
weeds, and wind it back.  :func:`machine_state` is the one list of what
that covers (CPU, PIC, PIT, RTC, UART, SCSI adapter, NIC, monitor
shadow state); a snapshot adds the memory image, the disk write
overlays and both queues of the debug link.

Scope: snapshots are taken at **quiescent stop points** — the guest is
stopped and no device operation is in flight.  In-flight DMA or pending
wire events are deliberately not captured (the capture refuses, rather
than recording a half-truth); this matches the stop-the-world
checkpoint discipline of record/replay debuggers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import MonitorError
from repro.hw.seg import intern_descriptor

#: The ``machine_state`` keys :func:`restore` skips.
CLOCK_KEYS = ("instret", "cycle", "now")


def machine_state(machine, monitor=None) -> dict:
    """The one map of machine state: CPU, devices and monitor shadow.

    Capture stores it, restore loads it back, and
    :func:`repro.replay.digest.state_digest` hashes it.  It leaves out
    the two terms each of them handles its own way: the memory image
    and the disk overlays.  Timer devices store armed events as delays
    relative to the queue clock, so the map reads the same before and
    after a restore.
    """
    cpu = machine.cpu
    state = {
        "regs": list(cpu.regs),
        "pc": cpu.pc,
        "flags": cpu.flags,
        "crs": list(cpu.crs),
        "segments": [[cache.selector, cache.descriptor.pack().hex()]
                     for cache in cpu.segments],
        "gdtr": [cpu.gdt.base, cpu.gdt.limit],
        "idtr": [cpu.idtr_base, cpu.idtr_limit],
        "tss_base": cpu.tss_base,
        "halted": cpu.halted,
        "instret": cpu.instret,
        "cycle": cpu.cycle_count,
        "now": machine.queue.now,
        "pic": machine.pic.state(),
        "pit": machine.pit.state(),
        "rtc": machine.rtc.state(),
        "uart": machine.uart.state(),
        "link_b_to_a": list(machine.serial_link.b_to_a),
        "hba": machine.hba.state(),
    }
    if machine.nic is not None:
        state["nic"] = machine.nic.state()
    if monitor is not None:
        shadow = monitor.shadow
        state["monitor"] = {
            "stopped": monitor.stopped,
            "guest_dead": monitor.guest_dead,
            "guest_dead_reason": monitor.guest_dead_reason,
            "vif": shadow.vif,
            "vif_before_reflect": shadow.vif_before_reflect,
            "idtr": [shadow.idtr.base, shadow.idtr.limit],
            "gdtr": [shadow.gdtr.base, shadow.gdtr.limit],
            "tss_base": shadow.tss_base,
            "cr0": shadow.cr0,
            "cr3": shadow.cr3,
            "halted": shadow.halted,
            "vpic": shadow.virtual_pic.state(),
        }
    return state


@dataclass
class MachineSnapshot:
    """Everything needed to put a stopped guest back exactly here.

    ``serial`` holds both queues of the debug link; ``state`` keeps
    only the host-to-target one (the digest leaves the other out on
    purpose, see :mod:`repro.replay.digest`).
    """

    label: str
    state: dict
    memory: bytes
    disk_overlays: List[Dict[int, bytes]]
    serial: dict

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
    return MachineSnapshot(
        label=label or f"cycle-{machine.cpu.cycle_count}",
        state=machine_state(machine, monitor),
        memory=bytes(machine.memory.view()),
        disk_overlays=[dict(disk._overlay) for disk in machine.disks],
        serial=machine.serial_link.state(),
    )


def restore(machine, snapshot: MachineSnapshot, monitor=None) -> None:
    """Rewind a machine to a snapshot taken on it (or a twin of it).

    Every key of the snapshot's state is loaded back except
    :data:`CLOCK_KEYS`: restore never rewinds simulated time.
    """
    if len(snapshot.memory) != machine.memory.size:
        raise MonitorError(
            f"snapshot is for a {len(snapshot.memory):#x}-byte machine, "
            f"this one has {machine.memory.size:#x}")
    state = snapshot.state
    cpu = machine.cpu
    machine.memory.write(0, snapshot.memory)
    cpu.regs[:] = state["regs"]
    cpu.pc = state["pc"]
    cpu.flags = state["flags"]
    cpu.crs[:] = state["crs"]
    for index, (selector, raw) in enumerate(state["segments"]):
        cpu.force_segment(index, selector,
                          intern_descriptor(bytes.fromhex(raw)))
    cpu.gdt.load(*state["gdtr"])
    cpu.idtr_base, cpu.idtr_limit = state["idtr"]
    cpu.tss_base = state["tss_base"]
    cpu.halted = state["halted"]
    cpu.mmu.set_cr3(cpu.crs[3])  # also flushes the TLB

    # Devices first (the UART's load_state recomputes its IRQ line),
    # then the PIC chips so the snapshot's latched request bits win.
    machine.serial_link.load_state(snapshot.serial)
    machine.uart.load_state(state["uart"])
    machine.pit.load_state(state["pit"])
    machine.rtc.load_state(state["rtc"])
    machine.hba.load_state(state["hba"])
    if "nic" in state and machine.nic is not None:
        machine.nic.load_state(state["nic"])
    machine.pic.load_state(state["pic"])

    for disk, overlay in zip(machine.disks, snapshot.disk_overlays):
        disk._overlay = dict(overlay)

    if monitor is not None and "monitor" in state:
        shadow = monitor.shadow
        data = state["monitor"]
        shadow.vif = data["vif"]
        shadow.vif_before_reflect = data["vif_before_reflect"]
        shadow.idtr.base, shadow.idtr.limit = data["idtr"]
        shadow.gdtr.base, shadow.gdtr.limit = data["gdtr"]
        shadow.tss_base = data["tss_base"]
        shadow.cr0 = data["cr0"]
        shadow.cr3 = data["cr3"]
        shadow.halted = data["halted"]
        shadow.virtual_pic.load_state(data["vpic"])
        monitor.stopped = data["stopped"]
        monitor.guest_dead = data["guest_dead"]
        monitor.guest_dead_reason = data["guest_dead_reason"]


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
