"""Interrupt reflection, shared by the functional monitors and the
performance-layer stacks: **field** a real interrupt (world switch, real
EOI, vector to line), **latch** it in the guest's virtual PIC, **take**
it (virtual acknowledge, reflection charged).  When to take is the
caller's policy (INTERNALS.md §2).
"""

from __future__ import annotations

from repro.hw.pic import MASTER_CMD, SLAVE_CMD
from repro.sim.budget import CAT_EMULATION, CAT_INTERRUPT, CAT_WORLD_SWITCH

_OCW2_EOI = 0x20


def line_for_vector(vector: int) -> int:
    """The IRQ line behind a real-PIC vector: the monitor programs the
    pair at the PC/AT bases (master 32, slave 40 = 32 + 8)."""
    return vector - 32


class InterruptReflection:
    """The lightweight monitor's reflection path for one guest."""

    def __init__(self, shadow, bus, budget, cost_model) -> None:
        self._shadow = shadow
        self._bus = bus
        self._budget = budget
        self._cost = cost_model

    def field(self, vector: int) -> int:
        """Enter the monitor, EOI the real PIC; returns the line."""
        self._budget.charge(self._cost.world_switch_cycles,
                            CAT_WORLD_SWITCH)
        line = line_for_vector(vector)
        if line >= 8:
            self._bus.raw_port_write(SLAVE_CMD, _OCW2_EOI, 1)
        self._bus.raw_port_write(MASTER_CMD, _OCW2_EOI, 1)
        return line

    def latch(self, line: int) -> None:
        self._shadow.virtual_pic.raise_irq(line)

    def take(self) -> None:
        """Acknowledge the virtual PIC and charge the reflection (nothing
        happens while no virtual interrupt is deliverable)."""
        pic = self._shadow.virtual_pic
        if pic.has_pending():
            pic.acknowledge()
            self._budget.charge(self._cost.pic_emulation_cycles
                                + self._cost.interrupt_reflect_cycles,
                                CAT_INTERRUPT)


class HostedReflection(InterruptReflection):
    """The hosted (full) VMM: each interrupt first makes the double hop
    host -> VMM -> guest."""

    def field(self, vector: int) -> int:
        hop = (self._cost.fullvmm_interrupt_cost()
               - self._cost.lvmm_interrupt_cost())
        if hop > 0:
            self._budget.charge(hop, CAT_EMULATION)
        return super().field(vector)
