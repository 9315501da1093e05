"""CPU load vs *aggregate TCP streaming rate* — Fig. 3.1's companion.

:mod:`repro.perf.analytic` predicts demanded load from event rates it
derives arithmetically.  This module goes one step closer to a
measurement: it *runs* the deterministic multi-client TCP workload
(:mod:`repro.workloads.streaming`) once per rate point, extracts the
event counts that actually occurred — frames on each wire, TCP
segments, post-coalescing NIC interrupts, handshakes — adds the
guest's protocol work, and prices the counts on each stack with
``analytic.stack_load``, the same function the closed-form model uses:

* ``bare``     — passthrough: hardware interrupt delivery, direct
  device register access, 3-cycle CLI/STI;
* ``lvmm``     — every interrupt and privileged op world-switches into
  the monitor; PIC accesses are intercepted; the NIC passes through;
* ``fullvmm``  — every NIC access takes the hosted round trip, each
  interrupt makes extra host trips, and every payload byte is copied
  through a bounce buffer twice in each direction.

The same simulated event stream is priced three ways, so the curve
ordering (bare < lvmm < fullvmm) isolates pure virtualisation overhead
on an *identical* workload.  Run ``python -m repro.perf.netmodel
--json BENCH_net.json`` to regenerate the committed artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hw.nic import LINE_RATE_BPS
from repro.perf.analytic import stack_load
from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.workloads.streaming import SubscriberSpec, run_tcp_streaming

ALL_STACKS = ("bare", "lvmm", "fullvmm")

#: Display names matching Fig. 3.1's legend, TCP edition.
LEGEND = {
    "bare": "Passthrough (real hardware)",
    "lvmm": "LW virtual machine monitor",
    "fullvmm": "VMware Workstation 4 (full VMM model)",
}

#: Default x-axis (aggregate rate across all subscribers, Mbps).
DEFAULT_NET_RATES_MBPS: Tuple[float, ...] = (25, 50, 100, 200, 300, 400)
DEFAULT_SUBSCRIBERS = 32
DEFAULT_SIM_SECONDS = 0.05


@dataclass(frozen=True)
class NetEventCounts:
    """Measured workload events, normalised to per-second rates."""

    bytes_tx: float
    bytes_rx: float
    frames_tx: float
    frames_rx: float
    tcp_segments: float
    nic_interrupts: float
    handshakes: float
    ticks: float

    def as_dict(self) -> Dict[str, float]:
        return {name: round(getattr(self, name), 3)
                for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class NetSample:
    """Demanded CPU load of one stack at one aggregate rate."""

    stack: str
    target_mbps: float
    achieved_mbps: float
    load: float

    @property
    def sustainable(self) -> bool:
        return self.load < 1.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "target_mbps": self.target_mbps,
            "achieved_mbps": round(self.achieved_mbps, 3),
            "load": round(self.load, 6),
            "sustainable": self.sustainable,
        }


def uniform_specs(rate_bps: float, subscribers: int,
                  sim_seconds: float) -> List[SubscriberSpec]:
    """Equal-rate subscribers that keep streaming the whole window."""
    per_sub = rate_bps / subscribers
    # Twice the window's worth of payload so no stream finishes early
    # and the event counts reflect steady-state streaming.
    bytes_total = max(int(per_sub / 8.0 * sim_seconds * 2), 8192)
    return [SubscriberSpec(rate_bps=per_sub, bytes_total=bytes_total,
                           connect_at_s=index * 1e-4)
            for index in range(subscribers)]


def measure_net_events(rate_bps: float,
                       subscribers: int = DEFAULT_SUBSCRIBERS,
                       sim_seconds: float = DEFAULT_SIM_SECONDS,
                       cost: Optional[CostModel] = None
                       ) -> Tuple[NetEventCounts, float]:
    """Run the TCP workload once; return (events/sec, achieved bps).

    The run is stack-independent — only the *pricing* differs per
    stack — so one simulation serves all three curves at this rate.
    """
    cost = cost or DEFAULT_COST_MODEL
    specs = uniform_specs(rate_bps, subscribers, sim_seconds)
    result = run_tcp_streaming(specs, sim_seconds=sim_seconds,
                               grace_seconds=0.0, cost=cost,
                               capacity_bps=LINE_RATE_BPS)
    window = result.sim_seconds or sim_seconds
    stats = result.server_stats
    frames_tx = stats["frames_sent"] / window
    frames_rx = stats["frames_received"] / window
    events = NetEventCounts(
        bytes_tx=stats["bytes_sent"] / window,
        bytes_rx=stats["bytes_received"] / window,
        frames_tx=frames_tx,
        frames_rx=frames_rx,
        tcp_segments=(stats["segments_sent"]
                      + stats["segments_received"]) / window,
        nic_interrupts=(frames_tx + frames_rx) / cost.nic_coalesce,
        handshakes=len(specs) / window,
        ticks=cost.timer_hz,
    )
    achieved_bps = stats["bytes_sent"] * 8 / window
    return events, achieved_bps


def demanded_net_load(stack: str, events: NetEventCounts,
                      cost: Optional[CostModel] = None) -> float:
    """Price one stack's cycles/s for the measured event stream.

    The guest-side protocol work is added here; the stack's price comes
    from ``analytic.stack_load``.  The access itemisation mirrors the
    NIC driver: one doorbell write per transmitted frame, one ICR read
    per interrupt, tick EOI plus two EOIs per NIC ISR on the PIC.
    """
    cost = cost or DEFAULT_COST_MODEL
    interrupts = events.nic_interrupts + events.ticks
    # Guest-side protocol work, identical on every stack.
    cycles = (
        (events.bytes_tx + events.bytes_rx) * cost.guest_byte_cycles
        + (events.frames_tx + events.frames_rx) * cost.guest_frame_cycles
        + events.tcp_segments * cost.tcp_segment_cycles
        + events.handshakes * cost.tcp_handshake_cycles
        + events.ticks * cost.guest_tick_cycles
        + interrupts * cost.guest_interrupt_cycles
    )
    return stack_load(
        stack, cycles, cost,
        interrupts=interrupts,
        privileged=2 * events.frames_tx + 2 * events.nic_interrupts,
        pic_accesses=events.ticks + 2 * events.nic_interrupts,
        device_accesses=(events.frames_tx + events.nic_interrupts,),
        # Bounce-buffer copies: each payload byte crosses the
        # guest->VMM->host boundary twice in each direction.
        copied_bytes=2 * (events.bytes_tx + events.bytes_rx))


def sweep_net(rates_mbps: Sequence[float] = DEFAULT_NET_RATES_MBPS,
              stacks: Sequence[str] = ALL_STACKS,
              subscribers: int = DEFAULT_SUBSCRIBERS,
              sim_seconds: float = DEFAULT_SIM_SECONDS,
              cost: Optional[CostModel] = None
              ) -> Dict[str, List[NetSample]]:
    """The three TCP curves: one simulation per rate, priced per stack."""
    cost = cost or DEFAULT_COST_MODEL
    curves: Dict[str, List[NetSample]] = {stack: [] for stack in stacks}
    for mbps in rates_mbps:
        events, achieved_bps = measure_net_events(
            mbps * 1e6, subscribers=subscribers,
            sim_seconds=sim_seconds, cost=cost)
        for stack in stacks:
            curves[stack].append(NetSample(
                stack=stack,
                target_mbps=mbps,
                achieved_mbps=achieved_bps / 1e6,
                load=demanded_net_load(stack, events, cost)))
    return curves


def render_net_figure(curves: Dict[str, List[NetSample]]) -> str:
    """The ASCII table: one row per rate, one load column per stack."""
    stacks = list(curves)
    lines = ["CPU load vs aggregate TCP streaming rate",
             "rate(Mbps)  " + "  ".join(f"{stack:>9s}" for stack in stacks)]
    rows = len(next(iter(curves.values())))
    for index in range(rows):
        cells = []
        for stack in stacks:
            sample = curves[stack][index]
            mark = " " if sample.sustainable else "*"
            cells.append(f"{sample.load * 100:8.1f}%{mark}")
        target = curves[stacks[0]][index].target_mbps
        lines.append(f"{target:10.0f}  " + " ".join(cells))
    lines.append("(* = demanded load over 100%: not sustainable)")
    return "\n".join(lines)


def net_document(curves: Dict[str, List[NetSample]],
                 subscribers: int, sim_seconds: float) -> dict:
    """The ``BENCH_net.json`` shape."""
    first = next(iter(curves.values()))
    return {
        "experiment": "net-tcp-load",
        "legend": {stack: LEGEND[stack] for stack in curves},
        "subscribers": subscribers,
        "sim_seconds": sim_seconds,
        "rates_mbps": [sample.target_mbps for sample in first],
        "curves": {stack: [sample.as_dict() for sample in samples]
                   for stack, samples in curves.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-netperf",
        description="CPU load vs aggregate TCP rate on the three stacks.")
    parser.add_argument("--rates", default=None,
                        help="comma-separated aggregate rates in Mbps")
    parser.add_argument("--subscribers", type=int,
                        default=DEFAULT_SUBSCRIBERS)
    parser.add_argument("--sim-seconds", type=float,
                        default=DEFAULT_SIM_SECONDS)
    parser.add_argument("--json", metavar="PATH",
                        help="write the curves as JSON (BENCH_net.json)")
    args = parser.parse_args(argv)
    rates = DEFAULT_NET_RATES_MBPS if args.rates is None else tuple(
        float(token) for token in args.rates.split(","))
    curves = sweep_net(rates_mbps=rates, subscribers=args.subscribers,
                       sim_seconds=args.sim_seconds)
    print(render_net_figure(curves))
    if args.json:
        document = net_document(curves, args.subscribers,
                                args.sim_seconds)
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"curves written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
