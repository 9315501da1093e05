"""Sampling guest-PC profiler.

Answers "where does the *guest* spend its instructions?" without any
guest cooperation — the monitor's vantage point, exactly the property
the paper leans on.  Every ``stride`` retired instructions the monitor
run loop records the guest PC, its current ring, and the most recent
trap reason (the last monitor trace event kind, threaded in by
whoever wires the profiler up — see ``LightweightVmm.attach_profiler``).

The cost contract: the run loop (``Cpu.run``) pays **one integer
compare per instruction** (``instret >= next_sample``), nothing more,
whether a profiler is attached or not.  Without one the compare is
against :data:`NEVER` and can never fire.

Sampling is deterministic: samples land on exact stride boundaries of
the retired-instruction counter (instret 0 excluded — ``stride, 2 *
stride, ...``), so two runs of a deterministic scenario produce the
same profile.

Reports come in two folds:

* **flat** — samples per exact (pc, ring, reason) site;
* **cumulative** — samples per containing symbol (via
  :class:`repro.debugger.symbols.SymbolTable.nearest`), which is what
  ``repro-trace top`` prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: A sample threshold no instret counter will ever reach.
NEVER = float("inf")


class GuestProfiler:
    """Guest PC + ring + trap-reason samples at an instruction stride."""

    def __init__(self, stride: int = 4096) -> None:
        if stride < 1:
            raise ValueError(f"profiler stride must be >= 1, "
                             f"got {stride}")
        self.stride = stride
        #: The next instret boundary to sample at; :data:`NEVER` while
        #: disabled so the run loop's compare can never fire.
        self.next_sample = NEVER
        self.enabled = False
        #: (pc, ring, reason) -> sample count.
        self.samples: Dict[Tuple[int, int, str], int] = {}
        self.total_samples = 0
        #: Kind of the last monitor trace event ("trap", "irq",
        #: "reflect", ...) or "run" when nothing trapped since the last
        #: sample.  Maintained by the wiring, not by the profiler.
        self.last_reason = "run"

    # -- control -------------------------------------------------------------

    def start(self, instret: int = 0) -> None:
        """Begin sampling; the first sample lands on the next stride
        boundary strictly after ``instret``."""
        self.enabled = True
        self.next_sample = self.next_boundary(instret)

    def stop(self) -> None:
        self.enabled = False
        self.next_sample = NEVER

    def reset(self) -> None:
        self.samples.clear()
        self.total_samples = 0
        self.last_reason = "run"

    def next_boundary(self, instret: int) -> int:
        """The first stride multiple strictly greater than ``instret``."""
        return (instret // self.stride + 1) * self.stride

    # -- sampling ------------------------------------------------------------

    def sample(self, cpu) -> float:
        """Record one sample; returns the next threshold.

        Called from the run loop when ``cpu.instret`` crosses
        :attr:`next_sample`.  The run loop re-arms its local threshold
        from the return value so the steady-state cost stays one
        compare.
        """
        key = (cpu.pc, cpu.cpl, self.last_reason)
        self.samples[key] = self.samples.get(key, 0) + 1
        self.total_samples += 1
        self.last_reason = "run"
        self.next_sample = self.next_boundary(cpu.instret)
        return self.next_sample

    def note_reason(self, kind: str) -> None:
        """Record the latest trap reason (wired to the monitor trace)."""
        self.last_reason = kind

    # -- reporting -----------------------------------------------------------

    def flat(self) -> List[Tuple[int, int, str, int]]:
        """(pc, ring, reason, count) rows, hottest first.

        Ties break on (pc, ring, reason) so the order is deterministic.
        """
        rows = [(pc, ring, reason, count)
                for (pc, ring, reason), count in self.samples.items()]
        rows.sort(key=lambda row: (-row[3], row[0], row[1], row[2]))
        return rows

    def cumulative(self, symbols=None) -> List[Tuple[str, int]]:
        """(symbol, count) rows, hottest first.

        PCs below the first symbol (or with no table at all) fold into
        a hex bucket per PC so nothing silently disappears.
        """
        folded: Dict[str, int] = {}
        for (pc, _ring, _reason), count in self.samples.items():
            near = symbols.nearest(pc) if symbols is not None else None
            name = near[0] if near is not None else f"{pc:#010x}"
            folded[name] = folded.get(name, 0) + count
        rows = sorted(folded.items(),
                      key=lambda row: (-row[1], row[0]))
        return rows

    def collapsed_stacks(self, symbols=None) -> List[str]:
        """``ring;reason;symbol count`` lines (flamegraph collapsed
        format): one synthetic two-frame stack per sample site."""
        lines = []
        for pc, ring, reason, count in self.flat():
            near = symbols.nearest(pc) if symbols is not None else None
            if near is None:
                frame = f"{pc:#010x}"
            else:
                name, offset = near
                frame = name if offset == 0 else f"{name}+{offset:#x}"
            lines.append(f"ring{ring};{reason};{frame} {count}")
        return lines

    def report(self, symbols=None, limit: int = 20) -> str:
        """The ``repro-trace top`` table."""
        if not self.total_samples:
            return "(no samples)"
        lines = [f"guest profile: {self.total_samples} samples, "
                 f"stride {self.stride} instructions",
                 f"{'samples':>8s}  {'%':>6s}  hot spot"]
        for name, count in self.cumulative(symbols)[:limit]:
            share = 100.0 * count / self.total_samples
            lines.append(f"{count:8d}  {share:6.2f}  {name}")
        flat = self.flat()
        if flat:
            lines.append("")
            lines.append(f"{'samples':>8s}  ring  reason    pc")
            for pc, ring, reason, count in flat[:limit]:
                text = (symbols.format_address(pc) if symbols is not None
                        else f"{pc:#010x}")
                lines.append(f"{count:8d}  {ring:4d}  "
                             f"{reason:<8s}  {text}")
        return "\n".join(lines)

    def stats(self) -> Dict:
        return {
            "stride": self.stride,
            "enabled": self.enabled,
            "total_samples": self.total_samples,
            "unique_sites": len(self.samples),
        }
