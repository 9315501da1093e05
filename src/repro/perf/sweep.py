"""Rate sweeps: regenerate Fig. 3.1 and the headline ratios (E1-E3)."""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.perf.load import LoadSample, measure_load

#: Fig. 3.1's x-axis: 0-700 Mbps.
DEFAULT_RATES_MBPS: Tuple[float, ...] = tuple(range(50, 701, 50))
ALL_STACKS = ("bare", "lvmm", "fullvmm")

#: Display names matching the paper's legend.
LEGEND = {
    "bare": "Real hardware",
    "lvmm": "LW virtual machine monitor",
    "fullvmm": "VMware Workstation 4 (full VMM model)",
}


@dataclass
class FigureSeries:
    """One curve of Fig. 3.1."""

    stack: str
    samples: List[LoadSample] = field(default_factory=list)

    def points(self) -> List[Tuple[float, float]]:
        """(transfer rate Mbps, CPU load %) pairs, as plotted."""
        return [(s.target_mbps, s.load * 100) for s in self.samples]


SEGMENT_BITS = 8 * 1024 * 1024  # one 1024 KB segment on the wire


def window_for_rate(rate_bps: float, sim_seconds: float,
                    min_segments: int = 12) -> float:
    """A window long enough to smooth segment-pacing quantisation."""
    if rate_bps <= 0:
        return sim_seconds
    return max(sim_seconds, min_segments * SEGMENT_BITS / rate_bps)


def sweep_figure_3_1(rates_mbps: Sequence[float] = DEFAULT_RATES_MBPS,
                     stacks: Sequence[str] = ALL_STACKS,
                     sim_seconds: float = 0.3,
                     cost: Optional[CostModel] = None
                     ) -> Dict[str, FigureSeries]:
    """Measure CPU load vs transfer rate for every stack (Fig. 3.1)."""
    cost = cost or DEFAULT_COST_MODEL
    out: Dict[str, FigureSeries] = {}
    for stack in stacks:
        series = FigureSeries(stack)
        for mbps in rates_mbps:
            window = window_for_rate(mbps * 1e6, sim_seconds)
            series.samples.append(
                measure_load(stack, mbps * 1e6, window, cost))
        out[stack] = series
    return out


def max_rate(stack: str, cost: Optional[CostModel] = None,
             sim_seconds: float = 0.3,
             probe_mbps: Tuple[float, float] = (80.0, 160.0)) -> float:
    """Maximum sustainable transfer rate (bps): where demanded CPU load
    crosses 100%.

    Demanded load is affine in the target rate (a fixed timer floor
    plus rate-proportional work), so two probe points pin the line and
    its crossing.  For slow stacks pass smaller probes so both points
    stay meaningfully below saturation non-linearities (segment-pacing
    quantisation).
    """
    cost = cost or DEFAULT_COST_MODEL
    r1, r2 = (p * 1e6 for p in probe_mbps)
    s1 = measure_load(stack, r1, window_for_rate(r1, sim_seconds, 24), cost)
    s2 = measure_load(stack, r2, window_for_rate(r2, sim_seconds, 24), cost)
    slope = (s2.demanded_load - s1.demanded_load) / (r2 - r1)
    intercept = s1.demanded_load - slope * r1
    if slope <= 0:
        raise ValueError(f"load did not grow with rate on {stack!r}")
    return (1.0 - intercept) / slope


@dataclass(frozen=True)
class HeadlineRatios:
    """The paper's two headline numbers (E2, E3)."""

    bare_max_bps: float
    lvmm_max_bps: float
    fullvmm_max_bps: float

    @property
    def lvmm_vs_fullvmm(self) -> float:
        """Paper: 5.4x."""
        return self.lvmm_max_bps / self.fullvmm_max_bps

    @property
    def lvmm_vs_bare(self) -> float:
        """Paper: ~0.26."""
        return self.lvmm_max_bps / self.bare_max_bps


def headline_ratios(cost: Optional[CostModel] = None,
                    sim_seconds: float = 0.3) -> HeadlineRatios:
    """Compute E2/E3 from first principles (three max-rate fits)."""
    cost = cost or DEFAULT_COST_MODEL
    return HeadlineRatios(
        bare_max_bps=max_rate("bare", cost, sim_seconds),
        lvmm_max_bps=max_rate("lvmm", cost, sim_seconds),
        fullvmm_max_bps=max_rate("fullvmm", cost, sim_seconds,
                                 probe_mbps=(10.0, 25.0)),
    )


def render_figure(series: Dict[str, FigureSeries]) -> str:
    """Text rendering of Fig. 3.1 (rate vs load table + ASCII curves)."""
    lines = ["Figure 3.1 — Measured CPU load (%)",
             f"{'rate Mbps':>10} " + " ".join(
                 f"{LEGEND[name][:20]:>22}" for name in series)]
    rates = [s.target_mbps for s in next(iter(series.values())).samples]
    for index, rate in enumerate(rates):
        row = [f"{rate:>10.0f}"]
        for figure in series.values():
            sample = figure.samples[index]
            marker = "" if sample.sustainable else " (sat)"
            row.append(f"{sample.load * 100:>16.1f}{marker:>6}")
        lines.append(" ".join(row))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate Fig. 3.1 and the headline ratios")
    parser.add_argument("--sim-seconds", type=float, default=0.3)
    parser.add_argument("--stacks", nargs="+", default=list(ALL_STACKS))
    parser.add_argument("--rates", nargs="+", type=float,
                        default=list(DEFAULT_RATES_MBPS))
    parser.add_argument("--csv", metavar="PATH",
                        help="also write the series as CSV")
    parser.add_argument("--json", metavar="PATH",
                        help="also write series + ratios as JSON")
    args = parser.parse_args(argv)

    series = sweep_figure_3_1(args.rates, args.stacks, args.sim_seconds)
    print(render_figure(series))

    ratios = headline_ratios(sim_seconds=args.sim_seconds)
    if args.csv:
        from repro.perf.export import export_figure_csv
        print(f"wrote {export_figure_csv(series, args.csv)}")
    if args.json:
        from repro.perf.export import export_figure_json
        print(f"wrote {export_figure_json(series, args.json, ratios)}")
    print()
    print(f"max sustainable rate: real hw {ratios.bare_max_bps/1e6:.0f} "
          f"Mbps | LVMM {ratios.lvmm_max_bps/1e6:.0f} Mbps | "
          f"full VMM {ratios.fullvmm_max_bps/1e6:.1f} Mbps")
    print(f"LVMM vs full VMM: {ratios.lvmm_vs_fullvmm:.2f}x "
          f"(paper: 5.4x)")
    print(f"LVMM vs real hardware: {ratios.lvmm_vs_bare * 100:.0f}% "
          f"(paper: 26%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
