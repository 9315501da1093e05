"""Bare-metal guest execution — the paper's "real hardware" baseline.

The guest boots at ring 0, owns the real GDT/IDT/PIC/PIT/UART, and no
monitor interposes on anything.  This is the fastest stack and also the
one with **no debugging safety net**: the optional
:class:`EmbeddedStub` reproduces the conventional "software debugger
embedded in the OS" approach the paper criticises — it is serviced only
when the guest cooperates (polls), so a crashed or wedged guest takes
the debugger down with it.  Experiment E4 contrasts this with the LVMM.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TripleFault
from repro.hw import firmware
from repro.hw.machine import Machine
from repro.rsp.stub import DebugStub
from repro.rsp.target import CpuTargetAdapter


class EmbeddedStub:
    """A debug stub living *inside* the guest (the conventional design).

    It only makes progress when the guest calls :meth:`poll` — typically
    from its idle loop.  If the guest never reaches the idle loop again
    (hang, crash, interrupt storm), the debugger is gone.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.adapter = CpuTargetAdapter(machine.cpu)
        self.stub = DebugStub(self.adapter,
                              send_bytes=machine.uart.transmit)
        self.polls = 0

    def poll(self) -> None:
        """Service pending debugger traffic (guest-cooperative)."""
        self.polls += 1
        received = self.machine.uart.drain(self.machine.bus)
        if received:
            self.stub.feed(received)


class BareMetalRunner:
    """Boots and runs a guest directly on the simulated hardware."""

    name = "bare"

    def __init__(self, machine: Machine,
                 with_embedded_stub: bool = False) -> None:
        self.machine = machine
        self.guest_dead = False
        self.guest_dead_reason = ""
        self.embedded_stub: Optional[EmbeddedStub] = (
            EmbeddedStub(machine) if with_embedded_stub else None)

    def boot_guest(self, entry_pc: int) -> None:
        """Ring-0 boot with the firmware flat layout pre-installed.

        Real firmware would run the guest's own boot assembly; the guest
        images in this repo do their own LGDT/LIDT anyway, so the
        pre-install only mirrors what the BIOS leaves behind.
        """
        cpu = self.machine.cpu
        firmware.install_flat_firmware(cpu)
        cpu.pc = entry_pc
        cpu.flags = 0

    def run(self, max_instructions: int = 1_000_000) -> int:
        try:
            return self.machine.run(max_instructions)
        except TripleFault as fault:
            # On real hardware this is a machine reset; the (embedded)
            # debugger does not survive it.
            self.guest_dead = True
            self.guest_dead_reason = str(fault)
            self.embedded_stub = None
            return 0
