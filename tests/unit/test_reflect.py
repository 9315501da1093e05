"""One price per reflected interrupt on both execution layers.

The functional monitors (which run guest machine code) and the
performance-layer stacks (which run the Fig. 3.1 guest model) field and
reflect real interrupts through the same :mod:`repro.vmm.reflect` path,
so one interrupt must cost the same world-switch, interrupt and
emulation cycles on both.
"""

import pytest

from repro.fullvmm.monitor import FullVmm
from repro.guest.asmkernel import KernelConfig, build_kernel
from repro.hw.machine import Machine, MachineConfig
from repro.perf.costmodel import DEFAULT_COST_MODEL as COST
from repro.perf.stacks import InterruptDispatcher, make_stack
from repro.sim.budget import CAT_EMULATION, CAT_INTERRUPT, CAT_WORLD_SWITCH
from repro.vmm import LightweightVmm
from repro.vmm.reflect import line_for_vector

CATEGORIES = (CAT_WORLD_SWITCH, CAT_INTERRUPT, CAT_EMULATION)
REFLECT_PRICE = COST.pic_emulation_cycles + COST.interrupt_reflect_cycles
TIMER_LINE = 0

LAYERS = [(LightweightVmm, "lvmm"), (FullVmm, "fullvmm")]


def ledger_delta(budget, action):
    before = budget.snapshot()
    action()
    delta = budget.delta_since(before)
    return {category: delta.get(category, 0) for category in CATEGORIES}


def monitor_delta(machine, action):
    """The ledger delta of ``action`` less the CPU's own vectoring.

    ``Cpu.deliver`` charges the hardware's interrupt entry; that is the
    guest CPU's cost, not the monitor's price, and the perf layer's
    guest model does not charge it, so it is measured and taken out.
    """
    cpu = machine.cpu
    vectoring = dict.fromkeys(CATEGORIES, 0)
    deliver = cpu.deliver

    def measured_deliver(*args, **kwargs):
        for category, cycles in ledger_delta(
                machine.budget, lambda: deliver(*args, **kwargs)).items():
            vectoring[category] += cycles

    cpu.deliver = measured_deliver
    try:
        delta = ledger_delta(machine.budget, action)
    finally:
        del cpu.deliver
    return {category: delta[category] - vectoring[category]
            for category in CATEGORIES}


def booted(monitor_cls, until):
    """The asm kernel under ``monitor_cls``, run until ``until(vmm)``.

    The slowest timer keeps real ticks out of the measured window.
    """
    machine = Machine()
    vmm = monitor_cls(machine)
    kernel = build_kernel(KernelConfig(timer_hz=19))
    kernel.load_into(machine.memory)
    vmm.install()
    vmm.boot_guest(kernel.origin)
    vmm.run(100_000, until=lambda: until(vmm))
    assert until(vmm)
    return machine, vmm


def field_timer_on_monitor(machine, vmm):
    """One real timer interrupt, acknowledged and handed to the monitor."""
    machine.pic.raise_irq(TIMER_LINE)
    vector = machine.pic.acknowledge()
    return monitor_delta(
        machine, lambda: machine.cpu.interrupt_hook(machine.cpu, vector))


def field_timer_on_stack(name):
    machine = Machine(MachineConfig())
    machine.program_pic_defaults()
    dispatcher = InterruptDispatcher(machine, make_stack(name, machine))
    dispatcher.register(TIMER_LINE, lambda: None)
    machine.pic.raise_irq(TIMER_LINE)
    return ledger_delta(machine.budget, dispatcher.dispatch_pending)


def test_line_for_vector_covers_both_chips():
    assert [line_for_vector(v) for v in (32, 39, 40, 47)] == [0, 7, 8, 15]


@pytest.mark.parametrize("monitor_cls,stack", LAYERS)
def test_one_reflected_interrupt_costs_the_same_on_both_layers(
        monitor_cls, stack):
    machine, vmm = booted(monitor_cls, lambda vmm: vmm.shadow.vif)
    on_monitor = field_timer_on_monitor(machine, vmm)
    assert vmm.stats.interrupts_reflected == 1
    assert on_monitor == field_timer_on_stack(stack)
    assert on_monitor[CAT_WORLD_SWITCH] == COST.world_switch_cycles
    assert on_monitor[CAT_INTERRUPT] == REFLECT_PRICE
    if stack == "lvmm":
        assert on_monitor[CAT_EMULATION] == 0
    else:   # the hosted double hop
        assert on_monitor[CAT_EMULATION] > 0


@pytest.mark.parametrize("monitor_cls,stack", LAYERS)
def test_reflection_is_charged_when_sti_delivers(monitor_cls, stack):
    # The kernel's last intercepted access before its STI is the third
    # PIT write: the IDT is loaded, the PIC programmed, virtual IF clear.
    machine, vmm = booted(monitor_cls,
                          lambda vmm: vmm.intercept.pit_accesses == 3)
    assert not vmm.shadow.vif
    fielded = field_timer_on_monitor(machine, vmm)
    assert fielded[CAT_INTERRUPT] == 0
    assert vmm.stats.interrupts_reflected == 0
    assert vmm.shadow.virtual_pic.master.irr & (1 << TIMER_LINE)
    delivered = monitor_delta(machine, lambda: vmm.run(
        10, until=lambda: vmm.stats.interrupts_reflected == 1))
    assert vmm.stats.traps_by_mnemonic["STI"] == 1
    assert vmm.stats.interrupts_reflected == 1
    assert delivered[CAT_INTERRUPT] == REFLECT_PRICE
    on_stack = field_timer_on_stack(stack)
    assert fielded[CAT_WORLD_SWITCH] == on_stack[CAT_WORLD_SWITCH]
    assert fielded[CAT_EMULATION] == on_stack[CAT_EMULATION]
