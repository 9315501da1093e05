"""CPU-load measurement: run the streaming workload on one stack at one
target rate for a window of simulated time and account every cycle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.guest.os import HiTactix
from repro.hw.machine import Machine, MachineConfig
from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.perf.stacks import InterruptDispatcher, PerfStack, make_stack
from repro.sim.events import cycles_for_seconds


def build_stack(stack_name: str, cost: Optional[CostModel] = None,
                machine_config: Optional[MachineConfig] = None
                ) -> Tuple[Machine, PerfStack, InterruptDispatcher]:
    """A machine with its PIC programmed, one stack over it, and the
    dispatcher that delivers the machine's interrupts through that stack.

    Attach injectors, tracers or a NIC wire to the machine before the
    guest starts; then run a window with
    ``machine.queue.run_until(deadline, dispatcher.dispatch_pending)``.
    """
    cost = cost or DEFAULT_COST_MODEL
    machine = Machine(machine_config or MachineConfig(cpu_hz=cost.cpu_hz))
    machine.program_pic_defaults()
    stack = make_stack(stack_name, machine, cost)
    return machine, stack, InterruptDispatcher(machine, stack)


@dataclass
class LoadSample:
    """One measured point of Fig. 3.1."""

    stack: str
    target_rate_bps: float
    achieved_rate_bps: float
    demanded_load: float     # unclamped: >1 means unsustainable
    breakdown: Dict[str, int] = field(default_factory=dict)
    segments_sent: int = 0
    interrupts: int = 0

    @property
    def load(self) -> float:
        """Clamped CPU load, as the paper's y-axis reports it."""
        return min(1.0, self.demanded_load)

    @property
    def sustainable(self) -> bool:
        return self.demanded_load <= 1.0

    @property
    def target_mbps(self) -> float:
        return self.target_rate_bps / 1e6

    @property
    def achieved_mbps(self) -> float:
        return self.achieved_rate_bps / 1e6


def measure_load(stack_name: str, rate_bps: float,
                 sim_seconds: float = 0.4,
                 cost: Optional[CostModel] = None,
                 machine_config: Optional[MachineConfig] = None,
                 guest_kwargs: Optional[dict] = None,
                 debug_poll_hz: float = 0.0) -> LoadSample:
    """Run the paper's data-transfer workload and sample the CPU load.

    ``rate_bps`` is the *transfer rate* of Fig. 3.1's x-axis (payload
    bits per second over UDP).  The run uses real device-model timing
    (disk service, NIC line rate) with the chosen stack's interception
    costs; the returned demanded load may exceed 1.0 — the knee where
    it crosses 1.0 is a stack's maximum sustainable rate.

    ``debug_poll_hz`` models an attached host debugger polling the
    monitor's stub (register/state reads) that many times per second
    while the workload runs — the paper's "monitoring the OS status
    even while the OS is executing high-throughput I/O operations".
    Each poll costs a UART interrupt into the monitor plus the stub's
    service time; on bare metal there is no monitor, so the embedded
    stub steals the same service time from the guest directly.
    """
    cost = cost or DEFAULT_COST_MODEL
    machine, stack, dispatcher = build_stack(stack_name, cost,
                                             machine_config)
    wire_bytes = [0]
    if machine.nic is None:
        raise ValueError("the data-transfer workload needs a NIC")
    machine.nic.wire = lambda frame: wire_bytes.__setitem__(
        0, wire_bytes[0] + len(frame))
    guest = HiTactix(machine, stack, rate_bps, cost,
                     **(guest_kwargs or {}))
    guest.register_handlers(dispatcher)
    guest.start()
    dispatcher.dispatch_pending()

    if debug_poll_hz > 0:
        from repro.sim.budget import CAT_EMULATION, CAT_GUEST
        interval = max(1, int(cost.cpu_hz / debug_poll_hz))

        def poll() -> None:
            if stack_name == "bare":
                # Embedded stub: the guest itself services the request.
                machine.budget.charge(
                    cost.interrupt_deliver_cycles
                    + cost.stub_service_cycles, CAT_GUEST)
            else:
                # Monitor stub: a UART interrupt into the monitor.
                machine.budget.charge(
                    cost.world_switch_cycles + cost.stub_service_cycles,
                    CAT_EMULATION)
            machine.queue.schedule_in(interval, poll, name="debug-poll")

        machine.queue.schedule_in(interval, poll, name="debug-poll")

    deadline = cycles_for_seconds(sim_seconds, cost.cpu_hz)
    machine.queue.run_until(deadline, dispatcher.dispatch_pending)

    demanded = machine.budget.demanded_load(deadline)
    achieved = wire_bytes[0] * 8 / sim_seconds
    return LoadSample(
        stack=stack_name,
        target_rate_bps=rate_bps,
        achieved_rate_bps=achieved,
        demanded_load=demanded,
        breakdown=machine.budget.by_category(),
        segments_sent=guest.segments_sent,
        interrupts=dispatcher.dispatched,
    )
