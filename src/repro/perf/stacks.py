"""Execution stacks for the performance experiments.

The performance layer runs the paper's streaming workload as a
discrete-event simulation: the guest OS model drives the *real* device
models through the bus, and the stack object charges the virtualisation
costs exactly where they occur —

* **BarePerfStack** — nothing interposed; only hardware costs.
* **LvmmPerfStack** — PIC/PIT/UART accesses trap into the monitor's
  emulation (`LvmmIntercept` with trap cost); interrupts are fielded by
  the monitor and reflected at once; CLI/STI-class operations trap.
  SCSI and NIC accesses pass through untouched.
* **FullVmmPerfStack** — every device access takes the hosted-I/O round
  trip and DMA data is copied through bounce buffers
  (`FullVmmIntercept`); interrupts make the host double-hop.

This mirrors the functional monitors one-to-one (same intercept and
`repro.vmm.reflect` classes, same cost model) without interpreting guest
machine code, which is what makes minute-long simulated transfer runs
tractable.  Only the timing of a reflection differs: this guest model's
CLI/STI do not drive the virtual IF, so nothing is ever deferred.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.fullvmm.monitor import FullVmmIntercept
from repro.hw.machine import Machine
from repro.obs.taps import TapPoint
from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.budget import (
    CAT_DRIVER,
    CAT_EMULATION,
    CAT_GUEST,
    CAT_INTERRUPT,
    CAT_WORLD_SWITCH,
)
from repro.vmm.intercept import LvmmIntercept
from repro.vmm.reflect import (HostedReflection, InterruptReflection,
                               line_for_vector)
from repro.vmm.shadow import ShadowState


class PerfStack:
    """Bare metal: the 'real hardware' row of Fig. 3.1."""

    name = "bare"

    def __init__(self, machine: Machine,
                 cost: CostModel = DEFAULT_COST_MODEL) -> None:
        self.machine = machine
        self.cost = cost
        self.budget = machine.budget

    def install(self) -> None:
        """Attach interception (none for bare metal) + access charging."""
        self.machine.bus.access_charger = self._charge_access

    def _charge_access(self, intercepted: bool) -> None:
        """Hardware access latency for passthrough accesses; intercepted
        ones are monitor memory operations and charge via the intercept."""
        if not intercepted:
            self.budget.charge(self.cost.device_access_cycles, CAT_DRIVER)

    # -- cost hooks the guest model calls --------------------------------------

    def privileged_op(self) -> None:
        """One CLI/STI-class interrupt-management operation."""
        self.budget.charge(3, CAT_GUEST)

    def on_interrupt_fielded(self, vector: int) -> int:
        """Between PIC acknowledge and the guest ISR; returns the line."""
        self.budget.charge(self.cost.interrupt_deliver_cycles,
                           CAT_INTERRUPT)
        return line_for_vector(vector)

    def guest_cycles(self, cycles: int) -> None:
        self.budget.charge(cycles, CAT_GUEST)

    def touch_bytes(self, count: int) -> None:
        """Guest data-path work per byte (checksum pass etc.)."""
        self.budget.charge(int(count * self.cost.guest_byte_cycles),
                           CAT_GUEST)


class LvmmPerfStack(PerfStack):
    """The lightweight VMM row."""

    name = "lvmm"

    def __init__(self, machine: Machine,
                 cost: CostModel = DEFAULT_COST_MODEL) -> None:
        super().__init__(machine, cost)
        self.shadow = ShadowState()
        self.intercept = LvmmIntercept(
            self.shadow, machine.bus, machine.budget, cost,
            include_world_switch=True)
        self.reflection = InterruptReflection(
            self.shadow, machine.bus, machine.budget, cost)

    def install(self) -> None:
        super().install()
        self.machine.bus.intercept = self.intercept
        from repro.hw.pic import standard_setup
        standard_setup(self.shadow.virtual_pic)

    def privileged_op(self) -> None:
        # CLI/STI/similar traps: world switch + tiny flag emulation.
        self.budget.charge(self.cost.world_switch_cycles, CAT_WORLD_SWITCH)
        self.budget.charge(150, CAT_EMULATION)

    def on_interrupt_fielded(self, vector: int) -> int:
        # The monitor fields the interrupt and reflects it at once.
        reflection = self.reflection
        line = reflection.field(vector)
        reflection.latch(line)
        reflection.take()
        return line


class FullVmmPerfStack(LvmmPerfStack):
    """The VMware Workstation 4 row."""

    name = "fullvmm"

    def __init__(self, machine: Machine,
                 cost: CostModel = DEFAULT_COST_MODEL) -> None:
        super().__init__(machine, cost)
        self.intercept = FullVmmIntercept(
            self.shadow, machine.bus, machine.budget, cost, machine,
            include_world_switch=True)
        self.reflection = HostedReflection(
            self.shadow, machine.bus, machine.budget, cost)


STACKS: Dict[str, Callable[..., PerfStack]] = {
    "bare": PerfStack,
    "lvmm": LvmmPerfStack,
    "fullvmm": FullVmmPerfStack,
}


def make_stack(name: str, machine: Machine,
               cost: CostModel = DEFAULT_COST_MODEL) -> PerfStack:
    try:
        factory = STACKS[name]
    except KeyError:
        raise ValueError(
            f"unknown stack {name!r}; pick from {sorted(STACKS)}") from None
    stack = factory(machine, cost)
    stack.install()
    return stack


class InterruptDispatcher:
    """Perf-layer interrupt plumbing: PIC -> stack costs -> guest ISRs."""

    def __init__(self, machine: Machine, stack: PerfStack) -> None:
        self.machine = machine
        self.stack = stack
        self._handlers: Dict[int, Callable[[], None]] = {}
        self.dispatched = 0
        #: Multicast observation point notified as ``taps(line,
        #: vector)`` for every interrupt delivered to a guest ISR.  The
        #: tracer subscribes here; observers must only observe.
        self.deliver_taps = TapPoint()

    def register(self, line: int, handler: Callable[[], None]) -> None:
        self._handlers[line] = handler

    def dispatch_pending(self) -> None:
        pic = self.machine.pic
        while pic.has_pending():
            vector = pic.acknowledge()
            line = self.stack.on_interrupt_fielded(vector)
            if self.deliver_taps:
                self.deliver_taps(line, vector)
            self.stack.guest_cycles(self.stack.cost.guest_interrupt_cycles)
            handler = self._handlers.get(line)
            if handler is not None:
                handler()
            self.dispatched += 1
