"""Chaos campaign: seeded fault schedules against the whole stack.

The paper's stability claim (experiment E4) is qualitative: the
debugging environment keeps working while the guest OS misbehaves.  The
campaign makes it mechanical.  Each *scenario* runs a workload under a
seeded :class:`~repro.faults.plan.FaultPlan` — disk errors mid-stream,
NIC loss and corruption, noise on the debug UART, RSP transport chaos,
TCP streaming under drop/delay/reorder, guest wild writes, a hung
guest, a triple fault — and then asserts the survivability invariants:

* the debug stub is still reachable: the RSP client reads registers and
  memory and gets well-formed replies;
* the monitor region hash is unchanged (functional scenarios);
* the workload either recovered or degraded gracefully (stream still
  made progress; a dead guest is frozen at ``frozen-snapshot``, a hung
  one forced into the stub at ``stub-only``).

Determinism: a campaign is a pure function of ``(seed, scenarios)``.
Two runs with the same seed produce byte-identical fault traces and
identical ``fault_stats`` — replay a chaos finding by replaying its
seed.

Run it as ``python -m repro.faults.campaign`` or via the
``repro-chaos`` console script::

    repro-chaos --seed 1234 --runs 3 --json chaos.json --trace chaos.trace
    repro-chaos --golden tests/golden/chaos_seed1234.trace
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.asm import assemble
from repro.core.session import DebugSession
from repro.errors import ProtocolError
from repro.faults.injectors import (
    DiskInjector,
    NicInjector,
    RspTransportInjector,
    UartInjector,
)
from repro.faults.plan import FaultPlan, FaultRule
from repro.guest.os import HiTactix
from repro.hw import firmware
from repro.hw.machine import Machine
from repro.hw.uart import HostSerialPort
from repro.perf.costmodel import DEFAULT_COST_MODEL
from repro.obs.metrics import collect_fault
from repro.replay import FlightRecorder, save_journal
from repro.perf.load import build_stack
from repro.rsp.client import RetryPolicy, RspClient
from repro.rsp.stub import DebugStub
from repro.rsp.target import NUM_REPORTED_REGS, CpuTargetAdapter
from repro.sim.events import cycles_for_seconds
from repro.workloads.streaming import mixed_rate_specs, run_tcp_streaming
from repro.vmm.watchdog import (
    DEGRADE_FROZEN,
    DEGRADE_FULL,
    MonitorWatchdog,
)

DEFAULT_SEED = 1234
#: Streaming window per perf-layer scenario (simulated seconds).
SIM_SECONDS = 0.25
STREAM_RATE_BPS = 100e6

#: The hardened policy chaos runs use: more attempts than the default,
#: with bounded backoff — all in simulated pump quanta.
HARDENED_POLICY = RetryPolicy(max_attempts=8, pumps_per_attempt=64,
                              backoff_base_pumps=2, backoff_max_pumps=32)


# ----------------------------------------------------------------------
# Perf-layer harness
# ----------------------------------------------------------------------

class StubConsole:
    """A standalone debug stub over the machine's real UART.

    Perf-layer scenarios have no monitor; the stub attaches directly to
    the CPU and is serviced the way the monitor services it — raw port
    reads drain the UART RX FIFO into the stub, replies go out through
    the UART's transmit.  This is the "is the debugger still reachable?"
    probe after a fault window.
    """

    def __init__(self, machine, plan: Optional[FaultPlan] = None,
                 rsp_faults: bool = False) -> None:
        self.machine = machine
        self.stub = DebugStub(CpuTargetAdapter(machine.cpu),
                              machine.uart.transmit)
        host = HostSerialPort(machine.serial_link)
        send, recv = host.send, host.recv
        self.injector: Optional[RspTransportInjector] = None
        if rsp_faults and plan is not None:
            self.injector = RspTransportInjector(plan, send, recv)
            send, recv = self.injector.send, self.injector.recv
        self.client = RspClient(send=send, recv=recv, pump=self._pump,
                                retry_policy=HARDENED_POLICY)
        if plan is not None:
            self.client.on_recovery = plan.recovery_recorder("rsp")

    def _pump(self) -> None:
        received = self.machine.uart.drain(self.machine.bus)
        if received:
            self.stub.feed(received)

    def drain(self, pumps: int = 32) -> None:
        """Flush in-flight bytes and stale packets (post-fault resync)."""
        if self.injector is not None:
            self.injector.flush()
        for _ in range(pumps):
            self._pump()
            self.client._drain()
        while self.client._decoder.next_packet() is not None:
            pass


def _run_streaming(attach: Callable[[Machine], None]) -> Tuple[Machine,
                                                               HiTactix]:
    """One streaming window on the lvmm stack with injectors attached."""
    cost = DEFAULT_COST_MODEL
    machine, stack, dispatcher = build_stack("lvmm", cost)
    guest = HiTactix(machine, stack, STREAM_RATE_BPS, cost)
    attach(machine)
    guest.register_handlers(dispatcher)
    guest.start()
    dispatcher.dispatch_pending()
    deadline = cycles_for_seconds(SIM_SECONDS, cost.cpu_hz)
    machine.queue.run_until(deadline, dispatcher.dispatch_pending)
    return machine, guest


def _check_stub_service(client: RspClient, violations: List[str],
                        memory_addr: int, label: str) -> None:
    """The survivability probe: registers and memory still readable."""
    try:
        regs = client.read_registers()
        if len(regs) != NUM_REPORTED_REGS:
            violations.append(f"{label}: short register read")
        data = client.read_memory(memory_addr, 16)
        if len(data) != 16:
            violations.append(f"{label}: short memory read")
    except ProtocolError as exc:
        violations.append(f"{label}: stub unreachable ({exc})")


# ----------------------------------------------------------------------
# Perf-layer scenarios
# ----------------------------------------------------------------------

def _scenario_disk_errors(seed: int):
    plan = FaultPlan(seed, rules=[
        FaultRule("disk*", "medium-error", probability=0.08, max_fires=6),
        FaultRule("disk*", "transport-error", at_count=5, max_fires=1),
        FaultRule("disk*", "dma-corrupt", probability=0.05, max_fires=4),
    ])
    machine, guest = _run_streaming(
        lambda m: DiskInjector(plan, m.hba))
    violations: List[str] = []
    if guest.segments_sent == 0:
        violations.append("stream made no progress under disk faults")
    if guest.read_errors == 0:
        violations.append("driver observed none of the injected errors")
    if not plan.trace.events:
        violations.append("no faults fired (vacuous scenario)")
    plan.disarm()
    console = StubConsole(machine, plan)
    _check_stub_service(console.client, violations, 0x40_0000,
                        "disk-errors")
    return plan, violations, {"client": console.client,
                              "devices": {"hba": machine.hba}}


def _scenario_nic_loss(seed: int):
    plan = FaultPlan(seed, rules=[
        FaultRule("nic.tx", "drop", probability=0.05, max_fires=12),
        FaultRule("nic.tx", "delay", probability=0.03, max_fires=6,
                  params={"delay_cycles": 50_000}),
        FaultRule("nic.tx", "stall", at_count=40, max_fires=1,
                  params={"delay_cycles": 250_000}),
    ])
    machine, guest = _run_streaming(
        lambda m: NicInjector(plan, m.nic))
    violations: List[str] = []
    if guest.segments_sent == 0:
        violations.append("stream made no progress under NIC loss")
    if machine.nic.frames_sent == 0:
        violations.append("no frames made it to the wire")
    if not plan.trace.events:
        violations.append("no faults fired (vacuous scenario)")
    plan.disarm()
    console = StubConsole(machine, plan)
    _check_stub_service(console.client, violations, 0x40_0000, "nic-loss")
    return plan, violations, {"client": console.client,
                              "devices": {"nic": machine.nic}}


def _scenario_nic_corrupt(seed: int):
    plan = FaultPlan(seed, rules=[
        FaultRule("nic.tx", "corrupt", probability=0.08, max_fires=20),
        FaultRule("nic.tx", "duplicate", probability=0.04, max_fires=10),
        FaultRule("nic.tx", "corrupt", at_count=3, max_fires=1),
    ])
    machine, guest = _run_streaming(
        lambda m: NicInjector(plan, m.nic))
    violations: List[str] = []
    if guest.segments_sent == 0:
        violations.append("stream made no progress under corruption")
    if not plan.trace.events:
        violations.append("no faults fired (vacuous scenario)")
    plan.disarm()
    console = StubConsole(machine, plan)
    _check_stub_service(console.client, violations, 0x40_0000,
                        "nic-corrupt")
    return plan, violations, {"client": console.client,
                              "devices": {"nic": machine.nic}}


def _exercise_noisy_stub(plan: FaultPlan, console: StubConsole,
                         violations: List[str], label: str,
                         exchanges: int = 12) -> None:
    """Debug traffic during the fault window.

    Every exchange must end in a well-formed reply or a *typed* error —
    the retry policy guarantees it terminates; an exhausted exchange is
    graceful degradation, recorded, not a violation.  The hard check
    (clean service) happens after the window closes.
    """
    for index in range(exchanges):
        try:
            if index % 3 == 2:
                console.client.read_memory(0x40_0000 + index * 4, 4)
            else:
                console.client.read_registers()
        except ProtocolError:
            plan.record_recovery("rsp", "exchange-abandoned")
    plan.disarm()
    console.drain()
    _check_stub_service(console.client, violations, 0x40_0000, label)


def _scenario_uart_noise(seed: int):
    plan = FaultPlan(seed, rules=[
        FaultRule("uart.*", "drop", probability=0.002),
        FaultRule("uart.*", "noise", probability=0.004),
    ])
    machine, guest = _run_streaming(
        lambda m: UartInjector(plan, m.serial_link))
    violations: List[str] = []
    if guest.segments_sent == 0:
        violations.append("stream made no progress")
    console = StubConsole(machine, plan)
    _exercise_noisy_stub(plan, console, violations, "uart-noise")
    link = machine.serial_link
    if not plan.trace.events:
        violations.append("no faults fired (vacuous scenario)")
    return plan, violations, {"client": console.client,
                              "devices": {"uart-link": link}}


def _scenario_rsp_chaos(seed: int):
    plan = FaultPlan(seed, rules=[
        FaultRule("rsp.h2t", "drop", probability=0.1),
        FaultRule("rsp.h2t", "corrupt", probability=0.1),
        FaultRule("rsp.h2t", "duplicate", probability=0.05),
        FaultRule("rsp.h2t", "reorder", probability=0.05),
        FaultRule("rsp.t2h", "drop", probability=0.1),
        FaultRule("rsp.t2h", "corrupt", probability=0.1),
    ])
    machine, guest = _run_streaming(lambda m: None)
    violations: List[str] = []
    if guest.segments_sent == 0:
        violations.append("stream made no progress")
    console = StubConsole(machine, plan, rsp_faults=True)
    _exercise_noisy_stub(plan, console, violations, "rsp-chaos")
    if not plan.trace.events:
        violations.append("no faults fired (vacuous scenario)")
    return plan, violations, {"client": console.client}


# ----------------------------------------------------------------------
# TCP streaming scenarios (multi-client workload over the chaos wires)
# ----------------------------------------------------------------------

def _tcp_devices(result) -> dict:
    """The wire counters, shaped for ``collect_fault(devices=...)``."""
    from types import SimpleNamespace
    return {"downlink": SimpleNamespace(**result.downlink),
            "uplink": SimpleNamespace(**result.uplink)}


def _scenario_tcp_retransmit(seed: int):
    """Seeded loss on both directions: every accepted stream must still
    arrive byte-identical, recovered by retransmission alone."""
    plan = FaultPlan(seed, rules=[
        FaultRule("nic.tx", "drop", probability=0.02, max_fires=40),
        FaultRule("nic.rx", "drop", probability=0.01, max_fires=20),
    ])
    specs = mixed_rate_specs(48, bytes_total=24_000)
    result = run_tcp_streaming(specs, plan=plan, sim_seconds=0.5,
                               grace_seconds=2.0)
    plan.disarm()
    violations: List[str] = []
    counts = result.counts()
    if counts.get("completed", 0) != len(specs):
        violations.append(f"sessions did not all complete under "
                          f"drop: {counts}")
    if not result.intact:
        violations.append("a delivered stream did not hash-match")
    if result.server_stats["retransmits"] == 0:
        violations.append("loss recovered without retransmits "
                          "(vacuous scenario)")
    if not plan.trace.events:
        violations.append("no faults fired (vacuous scenario)")
    return plan, violations, {"devices": _tcp_devices(result)}


def _scenario_tcp_churn(seed: int):
    """Subscriber churn while the wire delays frames: departures must
    not disturb the surviving streams."""
    plan = FaultPlan(seed, rules=[
        FaultRule("nic.tx", "delay", probability=0.02, max_fires=30,
                  params={"delay_cycles": 60_000}),
        FaultRule("nic.rx", "drop", probability=0.01, max_fires=15),
    ])
    specs = mixed_rate_specs(36, bytes_total=20_000, churn_every=6)
    result = run_tcp_streaming(specs, plan=plan, sim_seconds=0.5,
                               grace_seconds=2.0)
    plan.disarm()
    violations: List[str] = []
    counts = result.counts()
    finished = counts.get("completed", 0) + counts.get("churned", 0)
    if finished != len(specs):
        violations.append(f"sessions neither completed nor churned "
                          f"cleanly: {counts}")
    if counts.get("churned", 0) == 0:
        violations.append("no subscriber churned (vacuous scenario)")
    if not result.intact:
        violations.append("a surviving stream did not hash-match")
    if not plan.trace.events:
        violations.append("no faults fired (vacuous scenario)")
    return plan, violations, {"devices": _tcp_devices(result)}


def _scenario_tcp_slow_consumer(seed: int):
    """Slow consumers shrink their advertised windows while the data
    path reorders frames: flow control must stall, probe and resume."""
    plan = FaultPlan(seed, rules=[
        FaultRule("nic.tx", "reorder", probability=0.03, max_fires=30,
                  params={"delay_cycles": 60_000}),
        FaultRule("nic.rx", "duplicate", probability=0.01, max_fires=10),
    ])
    specs = mixed_rate_specs(32, bytes_total=16_000, slow_every=4)
    result = run_tcp_streaming(specs, plan=plan, sim_seconds=0.5,
                               grace_seconds=3.0)
    plan.disarm()
    violations: List[str] = []
    counts = result.counts()
    if counts.get("completed", 0) != len(specs):
        violations.append(f"sessions did not all complete: {counts}")
    if not result.intact:
        violations.append("a delivered stream did not hash-match")
    stats = result.server_stats
    if stats["zero_window_stalls"] == 0 and stats["window_probes"] == 0:
        violations.append("slow consumers never exercised flow "
                          "control (vacuous scenario)")
    # A swap on the shared wire usually crosses *different* sessions,
    # so assert at the wire: frames really were held back and overtaken.
    if result.downlink["frames_reordered"] == 0:
        violations.append("the wire never reordered a frame "
                          "(vacuous scenario)")
    if not plan.trace.events:
        violations.append("no faults fired (vacuous scenario)")
    return plan, violations, {"devices": _tcp_devices(result)}


# ----------------------------------------------------------------------
# Functional scenarios (guest under the LVMM, faults via the monitor)
# ----------------------------------------------------------------------

def _functional_session(body: str, plan=None, scenario: str = "",
                        seed: Optional[int] = None,
                        record: bool = False) -> DebugSession:
    sess = DebugSession(monitor="lvmm")
    program = assemble(f".org {firmware.GUEST_KERNEL_BASE}\n{body}\n")
    if record:
        # Attach before boot so boot-time device scheduling is part of
        # the record; the replayer mirrors this order.  The recorder is
        # reachable afterwards as sess.monitor.recorder.
        FlightRecorder(sess.machine, sess.monitor, program=program,
                       plan=plan, scenario=scenario, seed=seed)
    sess.load_and_boot(program)
    sess.attach()
    return sess


def _scenario_wild_writes(seed: int, record: bool = False):
    plan = FaultPlan(seed, rules=[
        FaultRule("guest.mem", "wild-write", every=3, max_fires=8),
        FaultRule("guest.irq", "spurious", every=4, max_fires=4),
    ])
    sess = _functional_session("loop:\n    NOP\n    JMP loop",
                               plan=plan, scenario="wild-writes",
                               seed=seed, record=record)
    monitor = sess.monitor
    sess.run_guest(2_000)
    baseline = monitor.monitor_region_hash()
    violations: List[str] = []
    for index in range(24):
        if not monitor.guest_dead:
            sess.run_guest(500)
        rule = plan.decide("guest.mem", "wild-write",
                           detail=f"slice={index}")
        if rule is not None:
            # Aim around the monitor boundary: some writes land in
            # guest memory, some try to cross into the monitor region.
            addr = monitor.monitor_base - 0x1000 + plan.rand_range(0x2000)
            monitor.inject_wild_write(addr, b"\xde\xad\xbe\xef")
        rule = plan.decide("guest.irq", "spurious",
                           detail=f"slice={index}")
        if rule is not None:
            monitor.inject_spurious_interrupt(plan.rand_range(16))
    plan.disarm()
    if monitor.stats.wild_writes_injected == 0:
        violations.append("no wild writes injected (vacuous scenario)")
    if monitor.monitor_region_hash() != baseline:
        violations.append("monitor region corrupted by wild writes")
    _check_stub_service(sess.client, violations,
                        firmware.GUEST_KERNEL_BASE, "wild-writes")
    return plan, violations, {"client": sess.client, "monitor": monitor,
                              "monitor_baseline": baseline}


def _scenario_guest_hang(seed: int, record: bool = False):
    plan = FaultPlan(seed, rules=[
        FaultRule("guest.irq", "spurious", every=2, max_fires=6),
    ])
    sess = _functional_session("    CLI\nhang:\n    JMP hang",
                               plan=plan, scenario="guest-hang",
                               seed=seed, record=record)
    monitor = sess.monitor
    baseline = monitor.monitor_region_hash()
    watchdog = MonitorWatchdog(monitor, spin_checks=3)
    violations: List[str] = []
    sess.client.send_async(b"c")
    for index in range(40):
        sess._pump()
        rule = plan.decide("guest.irq", "spurious",
                           detail=f"check={index}")
        if rule is not None:
            monitor.inject_spurious_interrupt(plan.rand_range(16))
        if watchdog.check() != DEGRADE_FULL:
            break
    plan.disarm()
    if watchdog.level == DEGRADE_FULL:
        violations.append("watchdog never detected the CLI hang")
    try:
        sess.client.wait_for_stop(max_pumps=200)
    except ProtocolError:
        violations.append("no stop reply after forced stub entry")
    _check_stub_service(sess.client, violations,
                        firmware.GUEST_KERNEL_BASE, "guest-hang")
    refused_before = monitor.stats.resumes_refused
    try:
        sess.client.cont()   # must bounce straight back, not hang
    except ProtocolError:
        violations.append("continue against a degraded monitor hung")
    if monitor.stats.resumes_refused == refused_before:
        violations.append("resume was not refused in stub-only mode")
    if monitor.monitor_region_hash() != baseline:
        violations.append("monitor region corrupted during hang")
    return plan, violations, {"client": sess.client, "monitor": monitor,
                              "monitor_baseline": baseline}


def _scenario_triple_fault(seed: int, record: bool = False):
    # The fault is the guest's own: INT with no IDT — unservicable.
    plan = FaultPlan(seed)
    sess = _functional_session("    INT 0x21\n    HLT",
                               plan=plan, scenario="triple-fault",
                               seed=seed, record=record)
    monitor = sess.monitor
    baseline = monitor.monitor_region_hash()
    watchdog = MonitorWatchdog(monitor)
    violations: List[str] = []
    sess.client.send_async(b"c")
    for _ in range(20):
        sess._pump()
        if monitor.guest_dead:
            break
    if not monitor.guest_dead:
        violations.append("guest survived its unservicable INT")
    try:
        sess.client.wait_for_stop(max_pumps=200)
    except ProtocolError:
        violations.append("no stop reply after guest death")
    if watchdog.check() != DEGRADE_FROZEN:
        violations.append("dead guest did not freeze to a snapshot")
    if watchdog.snapshot is None:
        violations.append("no post-mortem snapshot captured")
    plan.record_recovery("monitor", "guest-death-contained")
    _check_stub_service(sess.client, violations,
                        firmware.GUEST_KERNEL_BASE, "triple-fault")
    if monitor.monitor_region_hash() != baseline:
        violations.append("monitor region corrupted by the crash")
    return plan, violations, {"client": sess.client, "monitor": monitor,
                              "monitor_baseline": baseline}


SCENARIOS: Dict[str, Callable[[int], tuple]] = {
    "disk-errors": _scenario_disk_errors,
    "nic-loss": _scenario_nic_loss,
    "nic-corrupt": _scenario_nic_corrupt,
    "uart-noise": _scenario_uart_noise,
    "rsp-chaos": _scenario_rsp_chaos,
    "tcp-retransmit": _scenario_tcp_retransmit,
    "tcp-churn": _scenario_tcp_churn,
    "tcp-slow-consumer": _scenario_tcp_slow_consumer,
    "wild-writes": _scenario_wild_writes,
    "guest-hang": _scenario_guest_hang,
    "triple-fault": _scenario_triple_fault,
}


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------

#: Scenarios that run a guest under the LVMM — the ones the flight
#: recorder can journal (the others exercise machines with no monitor).
RECORDABLE = ("wild-writes", "guest-hang", "triple-fault")


def run_scenario(name: str, seed: int, record: bool = True,
                 strict_guest: bool = False,
                 journal_dir: Optional[str] = None,
                 journal_all: bool = False) -> dict:
    """One scenario under one seed; returns its result record.

    Functional scenarios record a replay journal by default
    (``record=False`` turns the flight recorder off).  With
    ``strict_guest`` a dead guest is itself a violation — the knob that
    turns fault-tolerant chaos runs into reproducible failure captures.
    When the scenario ends with violations (or always, under
    ``journal_all``) and ``journal_dir`` is set, the sealed journal is
    written there as ``chaos_<scenario>_seed<seed>.journal``.
    """
    recordable = name in RECORDABLE
    if recordable:
        plan, violations, collected = SCENARIOS[name](seed, record=record)
    else:
        plan, violations, collected = SCENARIOS[name](seed)
    baseline = collected.pop("monitor_baseline", None)
    monitor = collected.get("monitor")
    if strict_guest and monitor is not None and monitor.guest_dead:
        violations.append("guest died under fault load: "
                          f"{monitor.guest_dead_reason}")
    journal = None
    recorder = getattr(monitor, "recorder", None) if monitor else None
    if recorder is not None and not recorder.finished:
        checks = []
        if monitor.guest_dead:
            checks.append({"check": "guest-dead"})
        if baseline is not None \
                and monitor.monitor_region_hash() != baseline:
            checks.append({"check": "monitor-corrupt",
                           "baseline": baseline})
        journal = recorder.finish(violations=violations, checks=checks)
    result = {
        "scenario": name,
        "seed": seed,
        "ok": not violations,
        "violations": violations,
        "fault_stats": collect_fault(plan, **collected),
        "trace": plan.trace.format(),
        "trace_digest": plan.trace.digest(),
    }
    if recorder is not None:
        result["fault_stats"]["recorder"] = recorder.stats()
    if journal is not None and journal_dir \
            and (violations or journal_all):
        os.makedirs(journal_dir, exist_ok=True)
        path = os.path.join(journal_dir,
                            f"chaos_{name}_seed{seed}.journal")
        save_journal(journal, path)
        result["journal"] = path
    return result


def campaign_trace(results: List[dict]) -> str:
    """The canonical campaign-wide fault trace (golden-file format)."""
    parts = []
    for result in results:
        parts.append(f"== scenario={result['scenario']} "
                     f"seed={result['seed']} ==\n")
        parts.append(result["trace"])
    return "".join(parts)


def run_campaign(seed: int = DEFAULT_SEED, runs: int = 1,
                 scenarios: Optional[List[str]] = None,
                 record: bool = True, strict_guest: bool = False,
                 journal_dir: Optional[str] = None,
                 journal_all: bool = False) -> dict:
    names = list(scenarios) if scenarios else list(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}; "
                             f"pick from {sorted(SCENARIOS)}")
    results = []
    for run_index in range(runs):
        for name in names:
            results.append(run_scenario(
                name, seed + run_index, record=record,
                strict_guest=strict_guest, journal_dir=journal_dir,
                journal_all=journal_all))
    trace = campaign_trace(results)
    return {
        "experiment": "chaos-campaign",
        "seed": seed,
        "runs": runs,
        "scenarios": names,
        "ok": all(result["ok"] for result in results),
        "results": results,
        "trace": trace,
        "trace_digest": hashlib.sha256(
            trace.encode("ascii")).hexdigest(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Run seeded fault-injection scenarios and check the "
                    "debugger survivability invariants.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base seed (run N uses seed+N)")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per scenario")
    parser.add_argument("--scenario", action="append", default=None,
                        choices=sorted(SCENARIOS), dest="scenarios",
                        help="run only this scenario (repeatable)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full campaign record as JSON")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the campaign fault trace")
    parser.add_argument("--golden", metavar="PATH",
                        help="compare the trace against a golden file")
    parser.add_argument("--strict-guest", action="store_true",
                        help="treat a dead guest as a violation "
                             "(capture it as a replay journal)")
    parser.add_argument("--no-record", action="store_true",
                        help="disable the flight recorder")
    parser.add_argument("--journal-dir", metavar="DIR",
                        help="write replay journals of failing "
                             "scenarios to this directory")
    parser.add_argument("--journal-all", action="store_true",
                        help="with --journal-dir, keep journals of "
                             "passing scenarios too")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0

    campaign = run_campaign(args.seed, args.runs, args.scenarios,
                            record=not args.no_record,
                            strict_guest=args.strict_guest,
                            journal_dir=args.journal_dir,
                            journal_all=args.journal_all)
    for result in campaign["results"]:
        stats = result["fault_stats"]["plan"]
        recoveries = sum(stats["recoveries"].values())
        client = result["fault_stats"].get("client", {})
        recoveries += sum(client.get("recoveries", {}).values())
        status = "ok" if result["ok"] else "FAIL"
        print(f"{result['scenario']:<12} seed={result['seed']} "
              f"{status:<4} faults={stats['trace_length']:<3} "
              f"recoveries={recoveries}")
        for violation in result["violations"]:
            print(f"    violation: {violation}")
        if "journal" in result:
            print(f"    journal: {result['journal']}")
    print(f"trace digest: {campaign['trace_digest']}")

    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(campaign["trace"])
        print(f"trace written to {args.trace}")
    if args.json:
        document = dict(campaign)
        document.pop("trace")   # the trace file is the canonical form
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"campaign record written to {args.json}")

    exit_code = 0 if campaign["ok"] else 1
    if args.golden:
        with open(args.golden) as handle:
            golden = handle.read()
        if golden != campaign["trace"]:
            print(f"golden trace mismatch against {args.golden}")
            exit_code = 1
        else:
            print("golden trace matches")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
