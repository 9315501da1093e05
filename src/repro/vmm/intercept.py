"""The LVMM's I/O interception policy: *partial* hardware emulation.

Only the devices the remote-debugging function itself depends on are
claimed — the interrupt controller, the timer, and the debug UART.
Everything else (SCSI HBA, NIC, and any device added later) passes
straight through to real hardware, which is both the efficiency claim
and the customisability claim of the paper: a new high-throughput device
needs **zero** monitor changes.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.hw.bus import IoIntercept
from repro.hw.pic import MASTER_CMD, MASTER_DATA, SLAVE_CMD, SLAVE_DATA
from repro.hw.pit import PORT_BASE as PIT_BASE
from repro.hw.uart import PORT_BASE_COM1
from repro.sim.budget import CAT_EMULATION, CAT_WORLD_SWITCH
from repro.vmm.shadow import ShadowState

#: Ports the lightweight monitor claims (and nothing else).
LVMM_INTERCEPTED_PORTS: Set[int] = (
    {MASTER_CMD, MASTER_DATA, SLAVE_CMD, SLAVE_DATA}
    | set(range(PIT_BASE, PIT_BASE + 4))
    | set(range(PORT_BASE_COM1, PORT_BASE_COM1 + 8))
)

_PIC_PORTS = (MASTER_CMD, MASTER_DATA, SLAVE_CMD, SLAVE_DATA)
_EOI_BIT = 0x20
_ICW1_BIT = 0x10


class LvmmIntercept(IoIntercept):
    """Routes guest PIC/PIT/UART accesses to virtual/forwarded devices.

    ``include_world_switch`` distinguishes the two callers:

    * the functional monitor reaches here *after* a #GP trap it already
      charged for, so only emulation time is added;
    * the performance-layer guest model calls the bus directly, so the
      trap cost must be charged here.
    """

    def __init__(self, shadow: ShadowState, bus, budget, cost_model,
                 include_world_switch: bool = False,
                 on_virtual_eoi: Optional[Callable[[], None]] = None) -> None:
        self._shadow = shadow
        self._bus = bus
        self._budget = budget
        self._cost = cost_model
        self._include_world_switch = include_world_switch
        self._on_virtual_eoi = on_virtual_eoi
        self.pic_accesses = 0
        self.pit_accesses = 0
        self.uart_denied = 0

    # -- policy ------------------------------------------------------------

    def intercepts_port(self, port: int) -> bool:
        return port in LVMM_INTERCEPTED_PORTS

    def intercepts_mmio(self, addr: int) -> bool:
        return False  # the NIC and any MMIO device pass through

    # -- accounting ------------------------------------------------------------

    def _charge(self, emulation_cycles: int) -> None:
        if self._include_world_switch:
            self._budget.charge(self._cost.world_switch_cycles,
                                CAT_WORLD_SWITCH)
        self._budget.charge(emulation_cycles, CAT_EMULATION)

    # -- emulation ------------------------------------------------------------

    def _virtual_chip(self, port: int):
        """The guest's virtual 8259 behind a PIC port."""
        pic = self._shadow.virtual_pic
        return pic.master if port < SLAVE_CMD else pic.slave

    def emulate_port_read(self, port: int, size: int) -> int:
        if port in _PIC_PORTS:
            self.pic_accesses += 1
            self._charge(self._cost.pic_emulation_cycles)
            chip = self._virtual_chip(port)
            return chip.read_data() if port & 1 else chip.read_command()
        if PIT_BASE <= port < PIT_BASE + 4:
            self.pit_accesses += 1
            self._charge(self._cost.pit_emulation_cycles)
            # Reads reflect the real PIT (guest time is real time).
            return self._bus.raw_port_read(port, size)
        # Debug UART: the guest does not own it; reads are harmless 0.
        self.uart_denied += 1
        self._charge(self._cost.pic_emulation_cycles)
        return 0

    def emulate_port_write(self, port: int, value: int, size: int) -> None:
        if port in _PIC_PORTS:
            self.pic_accesses += 1
            self._charge(self._cost.pic_emulation_cycles)
            chip = self._virtual_chip(port)
            value &= 0xFF
            if port & 1:
                chip.write_data(value)
                return
            chip.write_command(value)
            if (value & _EOI_BIT and not value & _ICW1_BIT
                    and self._on_virtual_eoi is not None):
                self._on_virtual_eoi()
            return
        if PIT_BASE <= port < PIT_BASE + 4:
            self.pit_accesses += 1
            self._charge(self._cost.pit_emulation_cycles)
            # Forward: the guest's tick programming drives the real PIT
            # (the monitor multiplexes the same time base).
            self._bus.raw_port_write(port, value, size)
            return
        # Debug UART writes from the guest are discarded.
        self.uart_denied += 1
        self._charge(self._cost.pic_emulation_cycles)
