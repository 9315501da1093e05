"""Export the Fig. 3.1 sweep for plotting and archival.

The benchmarks print human tables; downstream users plotting Fig. 3.1
want machine-readable series.  ``export_figure_csv`` and
``export_figure_json`` write CSV and JSON; no plotting dependency is
required or assumed.

Subsystem counters (interpreter, faults, record/replay, analysis) are
collected by the :mod:`repro.obs.metrics` collectors and written by
:func:`repro.obs.exporters.export_stats_json`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Optional

from repro.perf.sweep import FigureSeries, HeadlineRatios, LEGEND


def figure_rows(series: Dict[str, FigureSeries]) -> list:
    """Flatten a sweep into one row per (stack, rate)."""
    rows = []
    for name, figure in series.items():
        for sample in figure.samples:
            rows.append({
                "stack": name,
                "legend": LEGEND.get(name, name),
                "rate_mbps": sample.target_mbps,
                "achieved_mbps": round(sample.achieved_mbps, 3),
                "cpu_load_pct": round(sample.load * 100, 3),
                "demanded_load": round(sample.demanded_load, 5),
                "sustainable": sample.sustainable,
                "segments": sample.segments_sent,
                "interrupts": sample.interrupts,
            })
    return rows


def export_figure_csv(series: Dict[str, FigureSeries],
                      path) -> Path:
    """Write the Fig. 3.1 sweep as CSV; returns the path written."""
    path = Path(path)
    rows = figure_rows(series)
    if not rows:
        raise ValueError("empty sweep: nothing to export")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def export_figure_json(series: Dict[str, FigureSeries], path,
                       ratios: Optional[HeadlineRatios] = None) -> Path:
    """Write the sweep (and optional ratios) as a JSON document."""
    path = Path(path)
    document = {
        "experiment": "fig-3.1",
        "paper": ("Takeuchi, 'OS Debugging Method Using a Lightweight "
                  "Virtual Machine Monitor', DATE 2005"),
        "series": figure_rows(series),
    }
    if ratios is not None:
        document["headline_ratios"] = {
            "bare_max_mbps": round(ratios.bare_max_bps / 1e6, 2),
            "lvmm_max_mbps": round(ratios.lvmm_max_bps / 1e6, 2),
            "fullvmm_max_mbps": round(ratios.fullvmm_max_bps / 1e6, 2),
            "lvmm_vs_fullvmm": round(ratios.lvmm_vs_fullvmm, 3),
            "lvmm_vs_bare": round(ratios.lvmm_vs_bare, 4),
            "paper_lvmm_vs_fullvmm": 5.4,
            "paper_lvmm_vs_bare": 0.26,
        }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
    return path


def load_figure_csv(path) -> list:
    """Read back an exported CSV (round-trip helper for tests)."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))

