#!/usr/bin/env python3
"""Chaos demo: seeded fault injection with replayable schedules.

Three acts:

1. **A fault plan in isolation** — declarative rules over a seeded RNG,
   producing a byte-identical fault trace for the same seed.
2. **Disk errors mid-stream** — the streaming workload keeps its rate
   while the plan injects medium errors, and the driver's bounded
   retries show up in the recovery counters.
3. **The watchdog** — a guest spins with interrupts off; the monitor's
   watchdog detects the hang, forces the stub in, and degrades to
   stub-only: queries still answer, resumes bounce straight back.

The full campaign (all eight scenarios + invariant checks) is
``repro-chaos``; this example walks the pieces it is made of.
"""

from repro.asm import assemble
from repro.core import DebugSession
from repro.faults import DiskInjector, FaultPlan, FaultRule
from repro.guest.os import HiTactix
from repro.hw import firmware
from repro.perf.costmodel import DEFAULT_COST_MODEL
from repro.obs.metrics import collect_fault
from repro.perf.load import build_stack
from repro.sim.events import cycles_for_seconds
from repro.vmm.watchdog import DEGRADE_FULL, MonitorWatchdog


def act_one_determinism() -> None:
    print("=" * 64)
    print("1) a fault plan is a pure function of its seed")

    def run(seed):
        plan = FaultPlan(seed, rules=[
            FaultRule("disk*", "medium-error", probability=0.2),
            FaultRule("nic.tx", "drop", every=5),
        ])
        for index in range(40):
            plan.decide("disk0" if index % 2 else "nic.tx",
                        "medium-error" if index % 2 else "drop",
                        detail=f"op{index}")
        return plan

    first, second = run(1234), run(1234)
    print(f"   seed 1234, twice: digests "
          f"{first.trace.digest()[:16]}... == "
          f"{second.trace.digest()[:16]}... -> "
          f"{first.trace.format() == second.trace.format()}")
    other = run(4321)
    print(f"   seed 4321 differs: {other.trace.digest()[:16]}...")
    print("   trace excerpt:")
    for line in first.trace.format().splitlines()[:3]:
        print(f"     {line}")


def act_two_disk_errors() -> None:
    print("=" * 64)
    print("2) disk errors mid-stream: the workload degrades gracefully")
    machine, stack, dispatcher = build_stack("lvmm")
    guest = HiTactix(machine, stack, 100e6)
    plan = FaultPlan(1234, rules=[
        FaultRule("disk*", "medium-error", probability=0.1,
                  max_fires=8)])
    DiskInjector(plan, machine.hba)

    guest.register_handlers(dispatcher)
    guest.start()
    dispatcher.dispatch_pending()
    deadline = cycles_for_seconds(0.3, DEFAULT_COST_MODEL.cpu_hz)
    machine.queue.run_until(deadline, dispatcher.dispatch_pending)

    stats = collect_fault(plan, devices={"hba": machine.hba})
    print(f"   faults injected: {stats['plan']['injected']}")
    print(f"   driver: {guest.read_errors} errors seen, "
          f"{guest.read_retries} retries, "
          f"{guest.segments_sent} segments still sent")


def act_three_watchdog() -> None:
    print("=" * 64)
    print("3) the watchdog catches a CLI hang and degrades to stub-only")
    sess = DebugSession(monitor="lvmm")
    program = assemble(f"""
.org {firmware.GUEST_KERNEL_BASE}
    CLI                     ; interrupts off...
hang:
    JMP  hang               ; ...and spin forever
""")
    sess.load_and_boot(program)
    sess.attach()
    watchdog = MonitorWatchdog(sess.monitor, spin_checks=3)

    sess.client.send_async(b"c")
    for _ in range(10):
        sess._pump()
        if watchdog.check() != DEGRADE_FULL:
            break
    print(f"   verdict: {watchdog.transitions[0][3]}")
    print(f"   degradation level: {watchdog.level}")
    stop = sess.client.wait_for_stop(max_pumps=100)
    print(f"   forced stop reply: {stop.decode()}")
    regs = sess.client.read_registers()
    print(f"   stub still serves: PC={regs[8]:#x}")
    bounce = sess.client.cont()
    print(f"   'continue' refused, bounced as: {bounce.decode()} "
          f"(resumes refused: {sess.monitor.stats.resumes_refused})")
    print(f"   monitor watchdog report:")
    for line in sess.client.monitor_command("watchdog").splitlines():
        print(f"     {line}")


if __name__ == "__main__":
    act_one_determinism()
    act_two_disk_errors()
    act_three_watchdog()
    print("=" * 64)
    print("done; run the full campaign with: repro-chaos --seed 1234")
