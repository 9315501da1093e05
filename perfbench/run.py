"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs an untraced phase and then
a traced phase of the same workload and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any output is wrong.  ``--smoke`` runs a fixed, short op count and
prints only the simulated counters, which must repeat exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import signal
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import OpLog, closed_loop, median_setup, percentile  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402
from tracer import Tracer, layer_self_ms, op_durations, self_times  # noqa: E402
from workloads import FLEET_OP_BASE, WORKLOADS, ExecSlicesJob  # noqa: E402

BUDGET_CATEGORIES = ("guest", "driver", "world_switch", "emulation",
                     "interrupt", "copy")


def _load_program() -> None:
    """Put the checkout's sources first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

def _prepare(workload, built) -> None:
    """Adopt a build and run the warm-up ops (superblocks compile,
    caches fill)."""
    workload.adopt(built)
    for index in range(workload.warmup_ops):
        result = workload.op(index)
        if not result.ok:
            raise RuntimeError(f"warm-up op {index} failed: {result.error}")


class Phase:
    """One measured closed loop, its counter checkpoint and the
    simulator stats around it."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.checked = None

    def _op(self, index: int):
        workload, tracer = self.workload, self.tracer
        absolute = workload.warmup_ops + index
        if tracer is None:
            result = workload.op(absolute)
        else:
            tracer.begin_op(index)
            try:
                result = workload.op(absolute)
            finally:
                tracer.end_op()
        if absolute + 1 == workload.check_after:
            self.checked = workload.counters()
        return result

    def run(self, seconds: float, max_ops=None) -> OpLog:
        workload, tracer = self.workload, self.tracer
        self.stats_before = workload.stats()
        log = closed_loop(self._op, seconds, workload.probe, max_ops=max_ops,
                          stop=(lambda: tracer.full) if tracer else
                          (lambda: False),
                          settle=gc.collect if workload.collect_between_ops
                          else None)
        self.stats_after = workload.stats()
        self.factors = dict(enumerate(log.factors))
        return log


def _check_counters(workload, checked, label: str, errors: list) -> None:
    if checked is None:
        errors.append(f"{label}: fewer than {workload.check_after} ops ran")
        return
    if workload.expected is not None and checked != workload.expected:
        errors.append(f"{label}: counters {checked} != fixed "
                      f"{workload.expected}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end(workload, log: OpLog, setup_s: float, rss_mb: float) -> dict:
    """One client, one op in flight: throughput and simulated speed are
    totals over summed op time, so slow ops count in full; the
    percentiles describe single ops."""
    latencies = log.latencies_s
    p50_s = statistics.median(latencies) if latencies else math.inf
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (log.throughput(), "1/s"),
        "latency_p50_ms": (p50_s * 1e3, "ms"),
        "latency_tail_ms": (percentile(log.tail_samples(),
                                       workload.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "sim_s_per_host_s": (_ratio(log.sim_s, log.host_s), "s/s"),
    }


def _delta(before: dict, after: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, untraced: OpLog, traced: OpLog, phase_u: Phase,
              phase_t: Phase, tracer: Tracer) -> dict:
    ops_u = max(1, len(untraced.latencies_s))
    before, after = phase_u.stats_before, phase_u.stats_after
    d = lambda key: _delta(before, after, key)  # noqa: E731
    insns = d("instret")
    dispatches = d("block_hits") + d("decode_hits") + d("decode_misses")

    spans = tracer.spans
    traced_ops = sorted(op for op in op_durations(spans) if op >= 0)
    n_traced = max(1, len(traced_ops))
    factors = phase_t.factors
    self_ms = layer_self_ms(spans, factors, traced_ops)
    calls = tracer.calls
    per_op = lambda name: calls.get(name, 0) / n_traced  # noqa: E731
    ms = lambda *names: sum(self_ms.get(n, 0.0) for n in names)  # noqa: E731
    traced_insns = phase_t.stats_after.get("instret", 0) \
        - phase_t.stats_before.get("instret", 0)

    metrics = {
        # rsp + core.session
        "rsp.client.exchange_self_ms": ms("rsp.client"),
        "rsp.stub.feed_ms": ms("rsp.stub"),
        "rsp.packets.codec_ms": ms("rsp.packets"),
        "core.session.pumps_per_op": per_op("core.session"),
        "rsp.client.retransmits": d("retransmits"),
    }
    for kind in ("g", "m", "M", "s", "c", "qRcmd"):
        samples = untraced.by_type_s.get(kind)
        metrics[f"rsp.{kind}_p50_ms"] = statistics.median(samples) * 1e3 \
            if samples else 0.0
    metrics.update({
        # hw.uart + hw.bus
        "hw.uart.bytes_in_per_op": d("uart_in") / ops_u,
        "hw.uart.bytes_out_per_op": d("uart_out") / ops_u,
        "hw.uart.tx_ms": ms("hw.uart.tx"),
        "hw.bus.port_ops_per_op": per_op("hw.bus"),
        # vmm
        "vmm.service_debugger_ms": ms("vmm.service_debugger"),
        "vmm.monitor_command_ms": ms("vmm.monitor_command"),
        "vmm.run_ms_per_kinsn": _ratio(ms("vmm.run") * n_traced,
                                       traced_insns / 1000.0),
        "vmm.traps_per_kinsn": _ratio(d("traps"), insns / 1000.0),
        "vmm.irqs_per_kinsn": _ratio(d("irqs"), insns / 1000.0),
        "vmm.trap_ms": ms("vmm.trap"),
        "vmm.irq_ms": ms("vmm.irq"),
        # hw.cpu + interp
        "interp.block_hit_rate": _ratio(d("block_hits"), dispatches),
        "interp.block_insn_share": _ratio(d("block_insns"), insns),
        "interp.compiles": d("compiles"),
        "interp.guard_failures": d("guard_failures"),
        "interp.compile_ms": ms("interp.compile"),
        "hw.cpu.decode_hit_rate": _ratio(
            d("decode_hits"), d("decode_hits") + d("decode_misses")),
        "hw.cpu.tlb_hit_rate": _ratio(d("tlb_hits"),
                                      d("tlb_hits") + d("tlb_misses")),
        "hw.cpu.interp_steps_per_kinsn": _ratio(
            d("decode_hits") + d("decode_misses"), insns / 1000.0),
        "hw.cpu.step_ms": ms("hw.cpu"),
        "hw.cpu.guest_insns_per_s": _ratio(untraced.guest_insns,
                                           untraced.host_s),
        # sim
        "sim.events_per_op": per_op("sim.events"),
        "sim.events_ms": ms("sim.events", "sim.sync"),
        "sim.cycles_per_insn": _ratio(d("cycles"), insns),
        # perf + guest.os + devices
        "perf.dispatch_ms": ms("perf.dispatch"),
        "guest.os.tick_ms": ms("guest.os"),
        "hw.scsi.port_ms": ms("hw.scsi"),
        "hw.nic.mmio_ms": ms("hw.nic"),
    })
    metrics.update(_fig31_layers(workload, tracer, before, after))
    metrics.update(_fleet_layers(workload, untraced, tracer, factors,
                                 traced_ops))
    # hw.machine
    builds = [span[3] - span[2] for span in spans
              if span[1] == "hw.machine.build"]
    metrics["hw.machine.build_ms"] = statistics.median(builds) * 1e3 \
        if builds else 0.0
    # the benchmark itself
    durations = op_durations(spans)
    traced_ms = [durations[op] * factors.get(op, 1.0) * 1e3
                 for op in traced_ops]
    root_ms = sum(self_times(spans)[op].get(ROOT_SPAN, 0.0)
                  * factors.get(op, 1.0) for op in traced_ops) * 1e3
    metrics["host.probe_ms"] = statistics.median(untraced.probes_s) * 1e3
    metrics["host.probe_spread"] = harness.spread(untraced.probes_s)
    metrics["trace.overhead_ratio"] = _ratio(
        statistics.median(traced.latencies_s) if traced.latencies_s else 0.0,
        statistics.median(untraced.latencies_s))
    metrics["trace.attributed_share"] = _ratio(
        sum(traced_ms) - root_ms, sum(traced_ms))
    metrics["trace.ops"] = len(traced_ops)
    return metrics


def _fig31_layers(workload, tracer, before, after) -> dict:
    """Simulated Fig. 3.1 outputs and budget shares; device counts from
    the machines the traced ops built."""
    out = {"perf.cpu_load_pct": 0.0, "perf.achieved_mbps": 0.0,
           "perf.interrupts_per_op": 0.0, "guest.os.segments_per_op": 0.0,
           "hw.scsi.requests_per_op": 0.0, "hw.nic.frames_per_op": 0.0}
    sample = getattr(workload, "sample", None)
    if sample is not None:
        out["perf.cpu_load_pct"] = sample.demanded_load * 100.0
        out["perf.achieved_mbps"] = sample.achieved_mbps
        out["perf.interrupts_per_op"] = sample.interrupts
        out["guest.os.segments_per_op"] = sample.segments_sent
        budget = {f"budget.{k}": v for k, v in sample.breakdown.items()}
        before, after = {}, budget
        machines = [m for m in tracer.machines if m.nic is not None]
        if machines:
            out["hw.scsi.requests_per_op"] = statistics.median(
                m.hba.requests_started for m in machines)
            out["hw.nic.frames_per_op"] = statistics.median(
                m.nic.frames_sent for m in machines)
    # Each category's share of all cycles charged during the phase.
    charged = {key: after[key] - before.get(key, 0) for key in after
               if key.startswith("budget.") and key != "budget.idle"}
    total = sum(charged.values())
    for category in BUDGET_CATEGORIES:
        out[f"sim.budget.{category}_pct"] = _ratio(
            charged.get(f"budget.{category}", 0), total) * 100.0
    return out


def _fleet_layers(workload, untraced: OpLog, tracer, factors,
                  traced_ops) -> dict:
    """Worker side from the measured ops (the worker's job run in this
    process); supervisor side from the fleet jobs the traced run sent
    to a real worker (op ids from ``FLEET_OP_BASE`` down)."""
    names = ("fleet.poll_ms", "fleet.wait_ms", "obs.metrics_ms",
             "fleet.queue_wait_ms", "fleet.dispatch_to_result_ms",
             "fleet.worker_exec_ms", "replay.digest_share",
             "fleet.polls_per_job", "fleet.result_bytes",
             "obs.snapshot_bytes", "replay.digests_per_job",
             "replay.digest_ms", "replay.digest_bytes_per_job",
             "replay.frames_per_job", "replay.journal_bytes_per_job")
    out = dict.fromkeys(names, 0.0)
    if not isinstance(workload, ExecSlicesJob) or not traced_ops:
        return out
    spans = tracer.spans
    by_op = defaultdict(list)
    for span in spans:
        by_op[span[0]].append(span)
    fleet_ops = [op for op in by_op if op <= FLEET_OP_BASE]
    # Supervisor side: raw wall time, as the supervisor mostly waits on
    # the worker process.
    fleet_ms = layer_self_ms(spans, {}, fleet_ops)
    waits, to_result, polls = [], [], []
    for op in fleet_ops:
        root = next(s for s in by_op[op] if s[1] == ROOT_SPAN)
        dispatch = [s for s in by_op[op] if s[1] == "fleet.dispatch"]
        polls.append(sum(1 for s in by_op[op] if s[1] == "fleet.poll"))
        if dispatch:
            waits.append(dispatch[0][2] - root[2])
            to_result.append(root[3] - dispatch[0][2])
    totals = self_times(spans)
    durations = op_durations(spans)
    digests = statistics.median(
        sum(1 for s in by_op[op] if s[1] == "replay.digest")
        for op in traced_ops)
    digest_s = statistics.median(
        totals[op].get("replay.digest", 0.0) * factors.get(op, 1.0)
        for op in traced_ops)
    job_s = statistics.median(durations[op] * factors.get(op, 1.0)
                              for op in traced_ops)
    recorder = workload.last_job.recorder.stats()
    out.update({
        # polling, and idling while the worker runs
        "fleet.poll_ms": sum(fleet_ms.get(name, 0.0) for name in
                             ("fleet.poll", "fleet.submit", "fleet.dispatch")),
        "fleet.wait_ms": fleet_ms.get("fleet.wait", 0.0),
        "obs.metrics_ms": fleet_ms.get("obs.metrics", 0.0),
        "fleet.queue_wait_ms": _median_ms(waits),
        "fleet.dispatch_to_result_ms": _median_ms(to_result),
        "fleet.worker_exec_ms": _median_ms(untraced.latencies_s),
        "replay.digest_share": _ratio(digest_s, job_s),
        "fleet.polls_per_job": statistics.median(polls) if polls else 0.0,
        "fleet.result_bytes": workload.result_bytes,
        "obs.snapshot_bytes": workload.snapshot_bytes,
        "replay.digests_per_job": digests,
        "replay.digest_ms": digest_s * 1e3,
        "replay.digest_bytes_per_job":
            digests * workload.last_job.machine.memory.size,
        "replay.frames_per_job": recorder["frames"],
        "replay.journal_bytes_per_job": recorder["journal_bytes"],
    })
    return out


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    workload = WORKLOADS[name](seed)
    errors = []
    if smoke:
        _prepare(workload, workload.build())
        phase = Phase(workload)
        log = phase.run(math.inf, max_ops=max(
            1, workload.check_after - workload.warmup_ops))
        _check_counters(workload, phase.checked, "smoke", errors)
        if log.failed:
            errors.append(f"{log.failed} op(s) failed")
        return {"correct": not errors, "errors": errors,
                "attempted": log.attempted, "failed": log.failed,
                "counters": phase.checked}

    setup_s = median_setup(workload.build, workload.setup_repeats)
    gc.collect()
    _prepare(workload, workload.build())
    measure_s = seconds / 2.0 if trace else seconds
    phase_u = Phase(workload)
    untraced = phase_u.run(measure_s)
    _check_counters(workload, phase_u.checked, "untraced", errors)
    attempted, failed = untraced.attempted, untraced.failed
    if trace:
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            tracer.begin_op(-1)   # set-up spans (machine builds)
            built = workload.build()
            tracer.end_op()
            _prepare(workload, built)
            phase_t = Phase(workload, tracer)
            traced = phase_t.run(measure_s)
        finally:
            tracer.uninstall()
        _check_counters(workload, phase_t.checked, "traced", errors)
        if None not in (phase_t.checked, phase_u.checked) \
                and phase_t.checked != phase_u.checked:
            errors.append("simulated counters differ between the "
                          "traced and untraced runs")
        attempted += traced.attempted
        failed += traced.failed
        values = per_layer(workload, untraced, traced, phase_u, phase_t,
                           tracer)
        metrics = {key: (value, _unit(key))
                   for key, value in values.items()}
    else:
        rss = harness.peak_rss_mb(workload.child_processes)
        metrics = end_to_end(workload, untraced, setup_s, rss)
    if failed:
        errors.append(f"{failed} of {attempted} op(s) failed")
    if not trace and not harness.tail_ok(len(untraced.latencies_s),
                                         workload.tail_pct):
        print(f"warning: fewer than {harness.MIN_BEYOND} samples beyond "
              f"p{workload.tail_pct:g} ({len(untraced.latencies_s)} ops)")
    return {"correct": not errors, "errors": errors,
            "attempted": attempted, "failed": failed,
            "metrics": metrics,
            "probe_ms": (statistics.median(untraced.probes_s) * 1e3,
                         harness.spread(untraced.probes_s))}


def _unit(metric: str) -> str:
    if metric.endswith("_ms") or metric.endswith("_ms_per_kinsn"):
        return "ms"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_bytes") or "_bytes_" in metric:
        return "bytes"
    if metric.endswith("_mbps"):
        return "Mbps"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_rate") or metric.endswith("_share") \
            or metric.endswith("_ratio") or metric.endswith("_spread"):
        return "ratio"
    return "count"


def _stop_children() -> None:
    """Stop and wait for every process this run started: any fleet
    worker still alive, and the resource tracker that starting a spawned
    process launches, which would otherwise outlive this process."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a short fixed op count and print only "
                             "the simulated counters")
    args = parser.parse_args(argv)
    _load_program()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), smoke=args.smoke)
        results[name] = result
        _report(name, result)
    correct = all(r["correct"] for r in results.values())
    if args.smoke:
        print(json.dumps({name: r["counters"] for name, r in
                          results.items()}, sort_keys=True))
        return 0 if correct else 1
    last = results[names[-1]] if len(names) == 1 else None
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in last["metrics"].items()}
        if last else {f"{name}/{key}": {"value": value, "unit": unit}
                      for name, r in results.items()
                      for key, (value, unit) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def _report(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for error in result["errors"]:
        print(f"   error: {error}")
    if "probe_ms" in result:
        p50, spread = result["probe_ms"]
        print(f"   host.probe_ms p50 {p50:.4f} (IQR/median {spread:.3f})")
    for key, (value, unit) in result.get("metrics", {}).items():
        print(f"   {key:34s} {value:14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
