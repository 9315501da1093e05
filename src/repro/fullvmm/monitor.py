"""The full virtual machine monitor — the VMware Workstation 4 baseline.

Architecturally this reuses the LVMM's trap-and-emulate machinery (ring
compression, shadow tables, virtual PIC) but drops the defining
shortcut: **nothing passes through**.  Every device-register access —
SCSI HBA ports, NIC MMIO, everything — is intercepted and serviced on a
hosted-I/O path, and all DMA data is copied through bounce buffers, the
cost structure Sugerman et al. (USENIX ATC'01, the paper's reference
[2]) describe for VMware's hosted architecture:

* each intercepted access costs a **host round trip** (guest trap ->
  world switch -> host-OS context -> device emulation -> back), tens of
  microseconds on period hardware;
* packet and block data is copied between guest memory and the
  emulation layer (per-byte cost), once in each direction;
* interrupts make the double hop host -> VMM -> guest.

Functionally the guest still works — accesses are *forwarded* to the
same device models — so the same guest image produces the same output
on both monitors, only slower.  That is exactly the property Fig. 3.1
measures.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.hw.machine import Machine
from repro.hw.nic import MMIO_SPAN, REG_TDT, DESCRIPTOR_SIZE
from repro.hw.scsi import (
    CMD_START,
    PORT_BASE_SCSI,
    PORT_SPAN,
    REG_COMMAND,
    REG_MAILBOX,
)
from repro.sim.budget import CAT_COPY, CAT_EMULATION
from repro.perf.costmodel import CostModel
from repro.vmm.intercept import LVMM_INTERCEPTED_PORTS, LvmmIntercept
from repro.vmm.monitor import LightweightVmm
from repro.vmm.reflect import HostedReflection


class FullVmmIntercept(LvmmIntercept):
    """Intercepts *everything* and charges the hosted-I/O cost."""

    def __init__(self, shadow, bus, budget, cost_model, machine,
                 include_world_switch: bool = False,
                 on_virtual_eoi=None) -> None:
        super().__init__(shadow, bus, budget, cost_model,
                         include_world_switch=include_world_switch,
                         on_virtual_eoi=on_virtual_eoi)
        self._machine = machine
        self._last_mailbox = 0
        self.hosted_accesses = 0
        self.bytes_copied = 0

    # -- policy: everything traps --------------------------------------------

    def intercepts_port(self, port: int) -> bool:
        return True

    def intercepts_mmio(self, addr: int) -> bool:
        base = self._machine.nic_mmio_base
        return base <= addr < base + MMIO_SPAN

    # -- hosted path ------------------------------------------------------------

    def _charge_hosted(self) -> None:
        self.hosted_accesses += 1
        self._budget.charge(self._cost.host_switch_cycles, CAT_EMULATION)

    def _charge_copy(self, length: int) -> None:
        """Bounce-buffer copy: guest -> emulation layer -> backend."""
        self.bytes_copied += length
        self._budget.charge(
            int(length * self._cost.emulation_copy_byte_cycles), CAT_COPY)

    def emulate_port_read(self, port: int, size: int) -> int:
        if port in LVMM_INTERCEPTED_PORTS:
            return super().emulate_port_read(port, size)
        self._charge_hosted()
        return self._bus.raw_port_read(port, size)

    def emulate_port_write(self, port: int, value: int, size: int) -> None:
        if port in LVMM_INTERCEPTED_PORTS:
            super().emulate_port_write(port, value, size)
            return
        self._charge_hosted()
        if PORT_BASE_SCSI <= port < PORT_BASE_SCSI + PORT_SPAN:
            self._track_scsi(port - PORT_BASE_SCSI, value)
        self._bus.raw_port_write(port, value, size)

    def emulate_mmio_read(self, addr: int, size: int) -> int:
        self._charge_hosted()
        return self._bus.raw_mmio_read(addr, size)

    def emulate_mmio_write(self, addr: int, value: int, size: int) -> None:
        self._charge_hosted()
        offset = addr - self._machine.nic_mmio_base
        if offset == REG_TDT:
            self._track_nic_tx(value)
        self._bus.raw_mmio_write(addr, value, size)

    # -- DMA copy tracking ------------------------------------------------------

    def _track_scsi(self, register: int, value: int) -> None:
        if register == REG_MAILBOX:
            self._last_mailbox = value
            return
        if register == REG_COMMAND and value == CMD_START:
            # The emulated HBA copies the data buffer both ways.
            raw = self._machine.memory.read(self._last_mailbox + 24, 4)
            length = struct.unpack("<I", raw)[0]
            self._charge_copy(2 * length)

    def _track_nic_tx(self, new_tail: int) -> None:
        nic = self._machine.nic
        if nic is None or nic.tdlen == 0:
            return
        index = nic.tdh
        while index != new_tail:
            raw = self._machine.memory.read(
                nic.tdba + index * DESCRIPTOR_SIZE + 4, 4)
            length = struct.unpack("<I", raw)[0]
            # Guest frame -> VMM bounce buffer -> host NIC queue.
            self._charge_copy(2 * length)
            index = (index + 1) % nic.tdlen


class FullVmm(LightweightVmm):
    """The trap-everything monitor."""

    name = "fullvmm"

    def __init__(self, machine: Machine,
                 cost_model: Optional[CostModel] = None) -> None:
        super().__init__(machine, cost_model)
        # Replace the partial intercept with the total one.
        self.intercept = FullVmmIntercept(
            self.shadow, machine.bus, machine.budget, self.cost, machine,
            include_world_switch=False,
            on_virtual_eoi=self._after_virtual_eoi)
        self.reflection = HostedReflection(
            self.shadow, machine.bus, machine.budget, self.cost)

    def install(self) -> None:
        super().install()
        # No passthrough: the I/O bitmap grants the guest nothing, so
        # every IN/OUT traps and lands in the intercept above.
        self.machine.cpu.io_allowed_ports = set()
