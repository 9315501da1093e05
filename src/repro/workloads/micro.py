"""Microworkloads isolating one device path at a time.

The ablation benches use these to show *where* each stack's overhead
lives: the disk-only workload exercises the SCSI passthrough claim in
isolation; the net-only workload isolates the NIC path (and removes
disk-side interrupts from the picture).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.guest.os import HiTactix
from repro.hw.machine import MachineConfig
from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.perf.load import build_stack
from repro.sim.events import cycles_for_seconds


@dataclass
class MicroResult:
    stack: str
    demanded_load: float
    bytes_moved: int
    interrupts: int

    @property
    def load(self) -> float:
        return min(1.0, self.demanded_load)


def disk_only(stack_name: str, sim_seconds: float = 0.3,
              cost: Optional[CostModel] = None) -> MicroResult:
    """Stream reads from all disks as fast as they go; no network."""
    cost = cost or DEFAULT_COST_MODEL
    machine, stack, dispatcher = build_stack(
        stack_name, cost, MachineConfig(cpu_hz=cost.cpu_hz, with_nic=False))

    from repro.guest.drivers.scsi import GuestScsiDriver
    driver = GuestScsiDriver(machine, stack)
    chunk_blocks = 2 * 1024 * 1024 // 512
    state = {"bytes": 0, "lba": [0] * len(machine.disks)}

    def issue(target: int) -> None:
        disk = machine.disks[target]
        if state["lba"][target] + chunk_blocks > disk.blocks:
            state["lba"][target] = 0
        lba = state["lba"][target]
        state["lba"][target] += chunk_blocks

        def complete(status: int, target=target) -> None:
            if status == 0:
                state["bytes"] += chunk_blocks * 512
            issue(target)

        driver.read(target, lba, chunk_blocks, 0x40_0000 + target * 0x20_0000,
                    complete)

    dispatcher.register(11, driver.handle_interrupt)
    for target in range(len(machine.disks)):
        issue(target)
    deadline = cycles_for_seconds(sim_seconds, cost.cpu_hz)
    machine.queue.run_until(deadline, dispatcher.dispatch_pending)
    return MicroResult(stack_name,
                       machine.budget.demanded_load(deadline),
                       state["bytes"], dispatcher.dispatched)


def net_only(stack_name: str, rate_bps: float,
             sim_seconds: float = 0.3,
             cost: Optional[CostModel] = None) -> MicroResult:
    """Paced UDP transmit from a prefilled buffer; no disk reads."""
    cost = cost or DEFAULT_COST_MODEL
    machine, stack, dispatcher = build_stack(
        stack_name, cost, MachineConfig(cpu_hz=cost.cpu_hz, disks=[]))
    guest = HiTactix(machine, stack, rate_bps, cost)
    guest.register_handlers(dispatcher)
    # No disks: hand the sender an inexhaustible pre-read buffer.
    from repro.guest.os import SEGMENT_SIZE, STREAM_BUFFER_BASE

    class _Infinite(list):
        def pop(self, index=0):
            return (STREAM_BUFFER_BASE, SEGMENT_SIZE)

        def __bool__(self):
            return True

        def __len__(self):
            return 1

    if not guest.streams:
        from repro.guest.os import _DiskStream
        guest.streams = [_DiskStream(target=0, buffer=STREAM_BUFFER_BASE)]
    guest.streams = guest.streams[:1]
    guest.streams[0].ready = _Infinite()
    # Mark the stream permanently busy so the sender never tries to
    # refill it from a (non-existent) disk.
    guest.streams[0].busy = True
    deadline = cycles_for_seconds(sim_seconds, cost.cpu_hz)
    machine.queue.run_until(deadline, dispatcher.dispatch_pending)
    return MicroResult(stack_name,
                       machine.budget.demanded_load(deadline),
                       guest.bytes_sent, dispatcher.dispatched)


def compare(workload: str, sim_seconds: float = 0.3,
            rate_bps: float = 100e6,
            cost: Optional[CostModel] = None) -> Dict[str, MicroResult]:
    """Run one microworkload on all three stacks."""
    out = {}
    for stack in ("bare", "lvmm", "fullvmm"):
        if workload == "disk":
            out[stack] = disk_only(stack, sim_seconds, cost)
        elif workload == "net":
            out[stack] = net_only(stack, rate_bps, sim_seconds, cost)
        else:
            raise ValueError(f"unknown microworkload {workload!r}")
    return out
