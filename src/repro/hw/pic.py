"""8259A programmable interrupt controller (master/slave pair).

The PIC is the most important device in this reproduction: it is exactly
the resource the paper's lightweight VMM *must* emulate, because the
remote-debugging stub depends on interrupts (serial, timer) continuing to
work while the guest OS misbehaves.  The model implements the programming
interface the LVMM and the guest both use:

* the ICW1..ICW4 initialisation sequence on ports 0x20/0x21 (master) and
  0xA0/0xA1 (slave), with the vector base taken from ICW2;
* OCW1 (interrupt mask register) reads/writes on the data port;
* OCW2 EOI handling (non-specific and specific);
* OCW3 IRR/ISR read-back selection;
* fixed-priority resolution (IRQ0 highest), slave cascaded on IRQ2;
* level/edge behaviour reduced to edge-triggered latching into the IRR,
  which is how the PC/AT wires the devices we model.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.hw.bus import PortDevice
from repro.obs.taps import TapPoint

MASTER_CMD, MASTER_DATA = 0x20, 0x21
SLAVE_CMD, SLAVE_DATA = 0xA0, 0xA1
CASCADE_IRQ = 2

_OCW2_EOI = 0x20
_OCW2_SPECIFIC = 0x40
_OCW3_MARKER = 0x08
_ICW1_MARKER = 0x10
_ICW1_NEED_ICW4 = 0x01


def _priority_line(pending: int, isr: int) -> int:
    """Fixed-priority resolution (IRQ0 highest) for one chip.

    The lowest set bit of requests and in-service lines together
    decides: a request there is delivered (its line is returned), an
    in-service line there blocks every line below it, itself included
    (-1, as when nothing is requested).
    """
    active = pending | isr
    lowest = active & -active
    if not pending or isr & lowest:
        return -1
    return lowest.bit_length() - 1


class _Pic8259(PortDevice):
    """One 8259A chip, on the bus at offsets 0 (command) and 1 (data)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.irr = 0          # interrupt request register (latched requests)
        self.isr = 0          # in-service register
        self.imr = 0xFF       # interrupt mask register (all masked at reset)
        self.vector_base = 0
        self._init_state = 0  # how many ICWs still expected
        self._need_icw4 = False
        self._read_isr = False

    # -- priority logic ------------------------------------------------------

    def highest_pending(self) -> Optional[int]:
        """Highest-priority unmasked request not blocked by in-service."""
        line = _priority_line(self.irr & ~self.imr & 0xFF, self.isr)
        return line if line >= 0 else None

    def eoi(self, command: int) -> None:
        if command & _OCW2_SPECIFIC:
            line = command & 0x07
            self.isr &= ~(1 << line)
            return
        # Non-specific: clear the highest-priority (lowest) in-service bit.
        isr = self.isr & 0xFF
        self.isr &= ~(isr & -isr)

    # -- register interface ------------------------------------------------------

    def write_command(self, value: int) -> None:
        if value & _ICW1_MARKER:  # ICW1: begin initialisation
            self._init_state = 1
            self._need_icw4 = bool(value & _ICW1_NEED_ICW4)
            self.imr = 0
            self.isr = 0
            self.irr = 0
            self._read_isr = False
            return
        if value & _OCW3_MARKER:  # OCW3
            select = value & 0x03
            if select == 0x03:
                self._read_isr = True
            elif select == 0x02:
                self._read_isr = False
            return
        if value & _OCW2_EOI:  # OCW2
            self.eoi(value)

    def write_data(self, value: int) -> None:
        if self._init_state == 1:  # ICW2: vector base
            self.vector_base = value & 0xF8
            self._init_state = 2
            return
        if self._init_state == 2:  # ICW3: cascade wiring (recorded, unused)
            self._init_state = 3 if self._need_icw4 else 0
            return
        if self._init_state == 3:  # ICW4: mode bits (recorded, unused)
            self._init_state = 0
            return
        self.imr = value & 0xFF  # OCW1

    def read_command(self) -> int:
        return self.isr if self._read_isr else self.irr

    def read_data(self) -> int:
        return self.imr

    def port_read(self, offset: int, size: int) -> int:
        return self.read_data() if offset else self.read_command()

    def port_write(self, offset: int, value: int, size: int) -> None:
        if offset:
            self.write_data(value & 0xFF)
        else:
            self.write_command(value & 0xFF)


class PicPair:
    """The PC/AT master+slave 8259A pair (ports 0x20-0x21, 0xA0-0xA1).

    IRQ lines 0-7 go to the master, 8-15 to the slave via the cascade.
    """

    def __init__(self) -> None:
        self.master = _Pic8259("master")
        self.slave = _Pic8259("slave")
        #: Total interrupts delivered through :meth:`acknowledge` (stats).
        self.delivered = 0
        #: Multicast observation point notified as ``taps(irq)`` on
        #: every device-side :meth:`raise_irq`.  The flight recorder
        #: journals IRQ assertion instants as cross-check evidence; the
        #: tracer subscribes alongside.  Observers must only observe.
        self.raise_taps = TapPoint()

    # -- IRQ line interface (device side) -----------------------------------

    def raise_irq(self, irq: int) -> None:
        if self.raise_taps:
            self.raise_taps(irq)
        if irq < 8:
            self.master.irr |= 1 << irq
        else:
            self.slave.irr |= 1 << (irq - 8)
            self.master.irr |= 1 << CASCADE_IRQ

    def lower_irq(self, irq: int) -> None:
        if irq < 8:
            self.master.irr &= ~(1 << irq)
        else:
            slave = self.slave
            slave.irr &= ~(1 << (irq - 8))
            if not slave.irr:
                self.master.irr &= ~(1 << CASCADE_IRQ)

    # -- CPU interface -----------------------------------------------------------

    def _resolve(self) -> int:
        """The line an INTA cycle would deliver now: 0-7 on the master,
        8-15 on the slave, or -1 when nothing is deliverable.

        The cascade line requests only while the slave has a
        deliverable request, so a masked or blocked slave request does
        not hold back the master's lower-priority lines 3-7.
        """
        master = self.master
        pending = master.irr & ~master.imr & 0xFF
        line = _priority_line(pending, master.isr)
        if line == CASCADE_IRQ:
            slave = self.slave
            slave_line = _priority_line(slave.irr & ~slave.imr & 0xFF,
                                        slave.isr)
            if slave_line >= 0:
                return slave_line + 8
            line = _priority_line(pending & ~(1 << CASCADE_IRQ), master.isr)
        return line

    def has_pending(self) -> bool:
        master = self.master
        if not master.irr & ~master.imr:
            return False   # the common case: nothing requested at all
        return self._resolve() >= 0

    def pending_vector(self) -> Optional[int]:
        line = self._resolve()
        if line < 0:
            return None
        if line < 8:
            return self.master.vector_base + line
        return self.slave.vector_base + line - 8

    def acknowledge(self) -> int:
        """INTA cycle: commit the pending interrupt and return its vector.

        A slave line also puts the cascade line in service on the master;
        the cascade line keeps requesting while the slave holds another
        request, as in :meth:`lower_irq`.
        """
        line = self._resolve()
        if line < 0:
            raise RuntimeError("spurious acknowledge: no pending interrupt")
        self.delivered += 1
        chip = self.master
        if line >= 8:
            chip.isr |= 1 << CASCADE_IRQ
            chip = self.slave
            line -= 8
        chip.irr &= ~(1 << line)
        chip.isr |= 1 << line
        if chip is self.slave and not chip.irr:
            self.master.irr &= ~(1 << CASCADE_IRQ)
        return chip.vector_base + line

    # -- snapshot support ----------------------------------------------------------

    def state(self) -> dict:
        return {
            "master": {"irr": self.master.irr, "isr": self.master.isr,
                       "imr": self.master.imr,
                       "base": self.master.vector_base},
            "slave": {"irr": self.slave.irr, "isr": self.slave.isr,
                      "imr": self.slave.imr,
                      "base": self.slave.vector_base},
        }

    def load_state(self, state: dict) -> None:
        for chip in (self.master, self.slave):
            data = state[chip.name]
            chip.irr, chip.isr = data["irr"], data["isr"]
            chip.imr, chip.vector_base = data["imr"], data["base"]


def standard_setup(pic: PicPair, master_base: int = 32,
                   slave_base: int = 40) -> None:
    """Program the pair the way PC/AT firmware does (vectors 32..47)."""
    for chip, base in ((pic.master, master_base), (pic.slave, slave_base)):
        chip.port_write(0, 0x11, 1)        # ICW1: edge, cascade, need ICW4
        chip.port_write(1, base, 1)        # ICW2: vector base
        chip.port_write(1, 0x04, 1)        # ICW3
        chip.port_write(1, 0x01, 1)        # ICW4: 8086 mode
        chip.port_write(1, 0x00, 1)        # OCW1: unmask everything
