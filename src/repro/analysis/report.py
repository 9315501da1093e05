"""Findings and the analysis report.

Every checker emits :class:`Finding` objects; the driver bundles them
with coverage counters into a :class:`Report` that is consumable three
ways: formatted text (the CLI), JSON (``--json`` / CI artifacts, via
:func:`repro.obs.exporters.export_stats_json`), and programmatically
(the monitor's load-time gate inspects :attr:`Report.errors`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Finding severities, most severe first.
SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"

_SEVERITY_ORDER: Dict[str, int] = {SEV_ERROR: 0, SEV_WARNING: 1, SEV_INFO: 2}


@dataclass(frozen=True)
class Finding:
    """One defect (or observation) located in the analyzed image."""

    check: str          # stable check id, e.g. "AN001"
    severity: str       # SEV_ERROR / SEV_WARNING / SEV_INFO
    address: Optional[int]
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "severity": self.severity,
            "address": self.address,
            "message": self.message,
        }

    def format(self) -> str:
        where = f"{self.address:#010x}" if self.address is not None else (
            " " * 10)
        return f"{where}  {self.severity:<7}  {self.check}  {self.message}"


@dataclass
class Report:
    """The full result of analyzing one guest image."""

    origin: int
    end: int
    entry_ring: int
    monitor_base: int
    findings: List[Finding] = field(default_factory=list)
    #: Coverage / work counters (blocks, edges, instructions, handlers,
    #: driver iterations, checks run ...), collected by repro.obs.metrics.
    stats: Dict[str, int] = field(default_factory=dict)

    # -- severity views --------------------------------------------------

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_WARNING]

    @property
    def clean(self) -> bool:
        """True when no error-severity finding survived."""
        return not self.errors

    # -- serialization ---------------------------------------------------

    def sorted_findings(self) -> List[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (_SEVERITY_ORDER.get(f.severity, 9),
                           f.check,
                           f.address if f.address is not None else -1))

    def counts_by_severity(self) -> Dict[str, int]:
        counts = {SEV_ERROR: 0, SEV_WARNING: 0, SEV_INFO: 0}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def counts_by_check(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.check] = counts.get(finding.check, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "image": {
                "origin": self.origin,
                "end": self.end,
                "entry_ring": self.entry_ring,
                "monitor_base": self.monitor_base,
            },
            "stats": dict(self.stats),
            "counts": {
                "by_severity": self.counts_by_severity(),
                "by_check": self.counts_by_check(),
            },
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_text(self) -> str:
        lines = [
            f"image {self.origin:#x}..{self.end:#x} "
            f"(entry ring {self.entry_ring}, "
            f"monitor base {self.monitor_base:#x})",
        ]
        stats = self.stats
        if stats:
            lines.append(
                "coverage: "
                f"{stats.get('walked_insns', 0)} insns in "
                f"{stats.get('blocks', 0)} blocks, "
                f"{stats.get('edges', 0)} edges, "
                f"{stats.get('handlers', 0)} IDT handlers, "
                f"{stats.get('iterations', 0)} fixpoint rounds")
        counts = self.counts_by_severity()
        lines.append(
            f"findings: {counts[SEV_ERROR]} error(s), "
            f"{counts[SEV_WARNING]} warning(s), {counts[SEV_INFO]} info")
        for finding in self.sorted_findings():
            lines.append(finding.format())
        return "\n".join(lines)
