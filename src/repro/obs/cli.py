"""``repro-trace`` — record, inspect and export structured traces.

Four single-process subcommands, plus a ``fleet`` group:

* ``record`` — run a built-in scenario with a :class:`Tracer` (and,
  under a monitor, a :class:`GuestProfiler`) attached and write the
  Chrome trace_event JSON document.  Open the file in Perfetto
  (https://ui.perfetto.dev) or ``about:tracing``.
* ``report`` — summarize a recorded trace file: event counts per
  category, bus health, embedded metrics.
* ``export`` — re-export the embedded profile / metrics sections of a
  recorded trace as collapsed-stack text or metrics JSON.
* ``top`` — print the symbolized guest PC profile of a recorded trace
  (or record the ``guest`` scenario on the fly).

The ``fleet`` group drives the distributed pipeline
(:mod:`repro.obs.distributed`): ``fleet record`` runs a traced
multi-process fleet and writes the merged multi-process trace;
``fleet report`` summarizes it (per-process events, aggregated fleet
metrics, merged-histogram percentiles); ``fleet export`` re-exports
the embedded fleet metrics; ``fleet top`` ranks the slowest exec
slices fleet-wide, each with its trace id for drill-down.

Scenarios:

* ``streaming`` — the perf-layer streaming window from the chaos
  campaign (HiTactix on the lvmm stack) with a seeded disk-fault plan
  and a post-window RSP probe, so the trace carries trap, irq, device,
  rsp and fault events.  Deterministic: a pure function of
  ``(seed, sim_seconds, rate)`` — the golden-trace test relies on two
  runs producing byte-identical files.
* ``guest`` — a real guest kernel (``repro.guest.asmkernel``) booted
  under the LightweightVmm with the sampling profiler attached; the
  trace carries monitor trap spans, run slices, RSP packets and the
  symbolized guest PC profile.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.bus import TraceBus
from repro.obs.exporters import chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import GuestProfiler
from repro.obs.tracer import Tracer

DEFAULT_SEED = 1234
DEFAULT_SIM_SECONDS = 0.02
DEFAULT_RATE_BPS = 20e6
DEFAULT_STRIDE = 512
DEFAULT_GUEST_INSTRUCTIONS = 60_000


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def record_streaming(seed: int = DEFAULT_SEED,
                     sim_seconds: float = DEFAULT_SIM_SECONDS,
                     rate_bps: float = DEFAULT_RATE_BPS,
                     capacity: int = 65536) -> dict:
    """One traced streaming window; returns the trace document."""
    from repro.faults.campaign import StubConsole
    from repro.faults.injectors import DiskInjector
    from repro.faults.plan import FaultPlan, FaultRule
    from repro.guest.os import HiTactix
    from repro.perf.costmodel import DEFAULT_COST_MODEL
    from repro.perf.load import build_stack
    from repro.sim.events import cycles_for_seconds

    cost = DEFAULT_COST_MODEL
    machine, stack, dispatcher = build_stack("lvmm", cost)
    guest = HiTactix(machine, stack, rate_bps, cost)
    plan = FaultPlan(seed, rules=[
        FaultRule("disk*", "medium-error", probability=0.05, max_fires=4),
    ])
    DiskInjector(plan, machine.hba)

    registry = MetricsRegistry()
    tracer = Tracer(TraceBus(capacity=capacity), registry)
    tracer.attach(machine=machine, plan=plan, dispatcher=dispatcher,
                  stack=stack)

    guest.register_handlers(dispatcher)
    guest.start()
    dispatcher.dispatch_pending()
    deadline = cycles_for_seconds(sim_seconds, cost.cpu_hz)
    machine.queue.run_until(deadline, dispatcher.dispatch_pending)
    plan.disarm()

    # Post-window debugger probe: RSP packets land in the trace.
    console = StubConsole(machine, plan)
    tracer.add_stub(console.stub)
    console.client.read_registers()
    console.client.read_memory(0x40_0000, 16)

    tracer.detach()
    document = chrome_trace(tracer.bus, registry=registry,
                            label=f"streaming seed={seed}")
    document["otherData"]["scenario"] = "streaming"
    document["otherData"]["seed"] = seed
    document["otherData"]["sim_seconds"] = sim_seconds
    document["otherData"]["segments_sent"] = guest.segments_sent
    return document


def record_guest(seed: int = DEFAULT_SEED,
                 stride: int = DEFAULT_STRIDE,
                 instructions: int = DEFAULT_GUEST_INSTRUCTIONS,
                 capacity: int = 65536) -> dict:
    """A profiled guest-kernel run under the lvmm; returns the document.

    ``seed`` only labels the output — the guest run is deterministic.
    """
    from repro.core.session import DebugSession
    from repro.debugger.symbols import SymbolTable
    from repro.guest.asmkernel import (
        KernelConfig,
        build_kernel,
        build_user_task,
    )

    sess = DebugSession(monitor="lvmm")
    kernel = build_kernel(KernelConfig(with_user_task=True,
                                       user_iterations=600,
                                       ticks_to_run=50))
    user = build_user_task(iterations=600)
    registry = MetricsRegistry()
    tracer = Tracer(TraceBus(capacity=capacity), registry)
    tracer.attach(monitor=sess.monitor)
    sess.monitor.obs_tracer = tracer
    sess.load_and_boot(kernel, user)
    profiler = sess.monitor.attach_profiler(GuestProfiler(stride=stride))
    sess.attach()
    sess.run_guest(instructions)
    sess.monitor.detach_profiler()
    tracer.detach()

    symbols = SymbolTable()
    symbols.add_program(kernel)
    symbols.add_program(user)
    document = chrome_trace(tracer.bus, profiler=profiler,
                            symbols=symbols, registry=registry,
                            label=f"guest seed={seed}")
    document["otherData"]["scenario"] = "guest"
    document["otherData"]["seed"] = seed
    document["otherData"]["stride"] = stride
    document["otherData"]["instructions_run"] = instructions
    return document


SCENARIOS = {
    "streaming": record_streaming,
    "guest": record_guest,
}


def _record_document(args) -> dict:
    if args.scenario == "streaming":
        return record_streaming(seed=args.seed,
                                sim_seconds=args.sim_seconds,
                                capacity=args.capacity)
    return record_guest(seed=args.seed, stride=args.stride,
                        instructions=args.instructions,
                        capacity=args.capacity)


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _dump(document: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _category_counts(document: dict) -> dict:
    counts: dict = {}
    for event in document.get("traceEvents", []):
        if event.get("ph") == "M":
            continue
        category = event.get("cat", "?")
        counts[category] = counts.get(category, 0) + 1
    return dict(sorted(counts.items()))


def _print_profile(document: dict, limit: int) -> int:
    profile = document.get("guestProfile")
    if not profile:
        print("no guest profile in this trace "
              "(record with --scenario guest)", file=sys.stderr)
        return 1
    total = profile["total_samples"] or 1
    print(f"guest PC profile: {profile['total_samples']} samples, "
          f"stride {profile['stride']} instructions")
    print(f"{'samples':>8} {'pct':>6}  symbol")
    for row in profile["cumulative"][:limit]:
        pct = 100.0 * row["samples"] / total
        print(f"{row['samples']:>8} {pct:>5.1f}%  {row['symbol']}")
    return 0


def _process_counts(document: dict) -> dict:
    """pid -> event count (metadata excluded)."""
    counts: dict = {}
    for event in document.get("traceEvents", []):
        if event.get("ph") == "M":
            continue
        pid = event.get("pid", "?")
        counts[pid] = counts.get(pid, 0) + 1
    return dict(sorted(counts.items()))


def _fleet_slices(document: dict) -> list:
    """Every slice span, slowest first (stable tie-break)."""
    slices = [event for event in document.get("traceEvents", [])
              if event.get("ph") == "X"
              and event.get("name") == "slice"]
    return sorted(slices,
                  key=lambda e: (-e.get("dur", 0), e.get("pid", 0),
                                 e.get("ts", 0)))


def _print_fleet_metrics(metrics: dict) -> None:
    from repro.obs.distributed.aggregate import histogram_percentile

    print(f"fleet metrics ({len(metrics)}):")
    for name in sorted(metrics):
        snap = metrics[name]
        if snap.get("type") == "histogram":
            parts = []
            for q in (50, 95, 99):
                value = histogram_percentile(snap, q)
                if value is not None:
                    parts.append(f"p{q}={value:g}")
            print(f"  {name}: count={snap['count']} "
                  f"{' '.join(parts)}")
        else:
            workers = snap.get("workers")
            suffix = f" (over {workers} workers)" if workers else ""
            print(f"  {name} = {snap.get('value')}{suffix}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_record(args) -> int:
    document = _record_document(args)
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    _dump(document, args.out)
    counts = _category_counts(document)
    summary = " ".join(f"{cat}={n}" for cat, n in counts.items())
    print(f"{args.scenario}: {sum(counts.values())} events -> "
          f"{args.out}")
    print(f"  {summary}")
    if "guestProfile" in document:
        print(f"  profile: "
              f"{document['guestProfile']['total_samples']} samples")
    print(f"  open in https://ui.perfetto.dev")
    return 0


def _cmd_report(args) -> int:
    document = _load(args.trace)
    problems = validate_chrome_trace(document)
    other = document.get("otherData", {})
    print(f"trace: {args.trace}")
    for key in sorted(other):
        print(f"  {key}: {other[key]}")
    print("events by category:")
    for category, count in _category_counts(document).items():
        print(f"  {category:<10} {count}")
    metrics = document.get("metrics", {})
    if metrics:
        print(f"metrics ({len(metrics)}):")
        for name in sorted(metrics):
            snap = metrics[name]
            if "value" in snap:
                print(f"  {name} = {snap['value']}")
            else:
                print(f"  {name}: count={snap['count']} "
                      f"sum={snap['sum']}")
    if problems:
        print(f"schema problems ({len(problems)}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("schema: ok")
    return 0


def _cmd_export(args) -> int:
    document = _load(args.trace)
    wrote = []
    if args.collapsed:
        profile = document.get("guestProfile")
        if not profile:
            print("no guest profile to export", file=sys.stderr)
            return 1
        lines = [f"ring?;{row['symbol']} {row['samples']}"
                 for row in profile["cumulative"]]
        # Prefer the full collapsed form when flat samples are present.
        flat = profile.get("flat")
        if flat:
            lines = [f"ring{row['ring']};{row['reason']};{row['pc']} "
                     f"{row['samples']}" for row in flat]
        with open(args.collapsed, "w") as handle:
            handle.write("".join(line + "\n" for line in lines))
        wrote.append(args.collapsed)
    if args.metrics:
        metrics = document.get("metrics")
        if metrics is None:
            print("no metrics section to export", file=sys.stderr)
            return 1
        _dump({"format": "repro-metrics-v1", "metrics": metrics},
              args.metrics)
        wrote.append(args.metrics)
    if not wrote:
        print("nothing to do: pass --collapsed and/or --metrics",
              file=sys.stderr)
        return 2
    for path in wrote:
        print(f"wrote {path}")
    return 0


def _cmd_top(args) -> int:
    if args.trace:
        document = _load(args.trace)
    else:
        document = record_guest(seed=args.seed, stride=args.stride,
                                instructions=args.instructions)
    return _print_profile(document, args.limit)


def _cmd_fleet_record(args) -> int:
    from repro.obs.distributed.scenario import record_fleet

    document = record_fleet(seed=args.seed, workers=args.workers,
                            slices=args.slices,
                            slice_insns=args.slice_insns)
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    _dump(document, args.out)
    stats = document["otherData"]["collector"]
    print(f"fleet: {args.workers} workers, "
          f"{stats['supervisor_events']} supervisor events, "
          f"{stats['ingested']} worker spans, "
          f"{stats['traces']} traces -> {args.out}")
    print(f"  open in https://ui.perfetto.dev")
    return 0


def _cmd_fleet_report(args) -> int:
    document = _load(args.trace)
    problems = validate_chrome_trace(document)
    other = document.get("otherData", {})
    print(f"fleet trace: {args.trace}")
    for key in sorted(other):
        print(f"  {key}: {other[key]}")
    print("events by process:")
    for pid, count in _process_counts(document).items():
        role = "supervisor" if pid == 1 else f"worker-{pid - 10}"
        print(f"  pid {pid:<3} ({role:<10}) {count}")
    metrics = document.get("fleetMetrics", {})
    if metrics:
        _print_fleet_metrics(metrics)
    slo = document.get("slo")
    if slo:
        print(f"slo panel ({len(slo)}):")
        for name in sorted(slo):
            panel = slo[name]
            state = "FIRING" if panel.get("firing") else "ok"
            print(f"  {name:<16} {state:<7} "
                  f"short={panel.get('burn_short')} "
                  f"long={panel.get('burn_long')}")
    if problems:
        print(f"schema problems ({len(problems)}):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("schema: ok")
    return 0


def _cmd_fleet_export(args) -> int:
    document = _load(args.trace)
    metrics = document.get("fleetMetrics")
    if metrics is None:
        print("no fleetMetrics section to export", file=sys.stderr)
        return 1
    _dump({"format": "repro-fleet-metrics-v1", "metrics": metrics},
          args.metrics)
    print(f"wrote {args.metrics}")
    return 0


def _cmd_fleet_top(args) -> int:
    document = _load(args.trace)
    slices = _fleet_slices(document)
    if not slices:
        print("no slice spans in this trace", file=sys.stderr)
        return 1
    print(f"slowest slices ({len(slices)} total):")
    print(f"{'cycles':>10} {'instret':>8} {'worker':>7}  trace")
    for event in slices[:args.limit]:
        span_args = event.get("args", {})
        print(f"{event.get('dur', 0):>10} "
              f"{span_args.get('instret', 0):>8} "
              f"{event.get('pid', 0) - 10:>7}  "
              f"{span_args.get('trace', '?')}")
    return 0


# ----------------------------------------------------------------------

def _add_record_args(sub) -> None:
    sub.add_argument("--scenario", choices=sorted(SCENARIOS),
                     default="streaming")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--sim-seconds", type=float,
                     default=DEFAULT_SIM_SECONDS,
                     help="streaming window length (simulated)")
    sub.add_argument("--stride", type=int, default=DEFAULT_STRIDE,
                     help="guest profiler sampling stride "
                          "(instructions)")
    sub.add_argument("--instructions", type=int,
                     default=DEFAULT_GUEST_INSTRUCTIONS,
                     help="guest instructions to run")
    sub.add_argument("--capacity", type=int, default=65536,
                     help="trace ring capacity (events)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Record and inspect structured traces of the "
                    "debugging environment (Perfetto-loadable).")
    subs = parser.add_subparsers(dest="command", required=True)

    record = subs.add_parser(
        "record", help="run a scenario and write a trace")
    _add_record_args(record)
    record.add_argument("-o", "--out", default="trace.json",
                        help="output trace path (trace_event JSON)")

    report = subs.add_parser(
        "report", help="summarize a recorded trace file")
    report.add_argument("trace", help="trace JSON file")

    export = subs.add_parser(
        "export", help="re-export embedded profile/metrics sections")
    export.add_argument("trace", help="trace JSON file")
    export.add_argument("--collapsed", metavar="PATH",
                        help="write flamegraph collapsed-stack text")
    export.add_argument("--metrics", metavar="PATH",
                        help="write the metrics snapshot as JSON")

    top = subs.add_parser(
        "top", help="symbolized guest PC profile")
    top.add_argument("trace", nargs="?",
                     help="trace JSON (default: record the guest "
                          "scenario now)")
    top.add_argument("--seed", type=int, default=DEFAULT_SEED)
    top.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    top.add_argument("--instructions", type=int,
                     default=DEFAULT_GUEST_INSTRUCTIONS)
    top.add_argument("--limit", type=int, default=20)

    fleet = subs.add_parser(
        "fleet", help="distributed tracing over a supervised fleet")
    fleet_subs = fleet.add_subparsers(dest="fleet_command",
                                      required=True)

    fleet_record = fleet_subs.add_parser(
        "record", help="run a traced fleet and write the merged trace")
    fleet_record.add_argument("--seed", type=int, default=DEFAULT_SEED)
    fleet_record.add_argument("--workers", type=int, default=4)
    fleet_record.add_argument("--slices", type=int, default=4,
                              help="exec slices per job")
    fleet_record.add_argument("--slice-insns", type=int, default=500,
                              help="instructions per slice")
    fleet_record.add_argument("-o", "--out", default="fleet_trace.json",
                              help="output trace path")

    fleet_report = fleet_subs.add_parser(
        "report", help="summarize a recorded fleet trace")
    fleet_report.add_argument("trace", help="fleet trace JSON file")

    fleet_export = fleet_subs.add_parser(
        "export", help="re-export the embedded fleet metrics")
    fleet_export.add_argument("trace", help="fleet trace JSON file")
    fleet_export.add_argument("--metrics", metavar="PATH",
                              required=True,
                              help="write aggregated fleet metrics "
                                   "as JSON")

    fleet_top = fleet_subs.add_parser(
        "top", help="slowest exec slices fleet-wide")
    fleet_top.add_argument("trace", help="fleet trace JSON file")
    fleet_top.add_argument("--limit", type=int, default=10)

    args = parser.parse_args(argv)
    if args.command == "fleet":
        handler = {"record": _cmd_fleet_record,
                   "report": _cmd_fleet_report,
                   "export": _cmd_fleet_export,
                   "top": _cmd_fleet_top}[args.fleet_command]
    else:
        handler = {"record": _cmd_record, "report": _cmd_report,
                   "export": _cmd_export, "top": _cmd_top}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
