"""CPU-cycle budget accounting.

The paper's Figure 3.1 plots *CPU load* against transfer rate.  CPU load
is the fraction of available processor cycles consumed by the guest OS,
its drivers, and (under a monitor) the monitor's own trap handling and
device emulation.  :class:`CycleBudget` is the single ledger everything
charges against; at the end of a run the load is simply
``charged / (elapsed_seconds * hz)``.

Charges are tagged with a category so experiments can break load down
into guest work, world switches, device emulation and data copies — the
decomposition that explains *why* the full VMM loses by ~5.4x.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.errors import SimulationError

#: Canonical charge categories.  Free-form strings are allowed, but the
#: benchmarks report these.
CAT_GUEST = "guest"                # guest OS + application compute
CAT_DRIVER = "driver"              # guest driver register programming
CAT_COPY = "copy"                  # per-byte data touching (checksum, memcpy)
CAT_WORLD_SWITCH = "world_switch"  # monitor entry/exit on a trap
CAT_EMULATION = "emulation"        # monitor device-model execution
CAT_INTERRUPT = "interrupt"        # interrupt delivery / EOI path
CAT_IDLE = "idle"                  # cycles explicitly modelled as idle


class CycleBudget:
    """Ledger of consumed CPU cycles, broken down by category."""

    def __init__(self, hz: float = 1.26e9) -> None:
        if hz <= 0:
            raise SimulationError(f"CPU frequency must be positive, got {hz}")
        self.hz = hz
        #: category -> cycles charged.  :meth:`reset` clears it in
        #: place; the interpreter adds each instruction's (constant,
        #: non-negative) cycles here directly instead of calling
        #: :meth:`charge`.
        self.ledger: Dict[str, int] = defaultdict(int)

    def charge(self, cycles: int, category: str = CAT_GUEST) -> None:
        """Record ``cycles`` of work in ``category``."""
        if cycles < 0:
            raise SimulationError(f"negative charge {cycles} ({category})")
        self.ledger[category] += cycles

    @property
    def total(self) -> int:
        """Total busy cycles across every category except idle."""
        return sum(v for k, v in self.ledger.items() if k != CAT_IDLE)

    def by_category(self) -> Dict[str, int]:
        """A copy of the per-category ledger."""
        return dict(self.ledger)

    def load(self, elapsed_cycles: int) -> float:
        """CPU load over a window of ``elapsed_cycles`` simulated cycles.

        Load is clamped to [0, 1]: a saturated processor cannot exceed
        100% even if the model *demanded* more cycles than existed (that
        situation is what the rate sweep detects as "unsustainable").
        """
        if elapsed_cycles <= 0:
            raise SimulationError(
                f"elapsed window must be positive, got {elapsed_cycles}")
        return min(1.0, self.total / elapsed_cycles)

    def demanded_load(self, elapsed_cycles: int) -> float:
        """Like :meth:`load` but unclamped — may exceed 1.0 when the
        workload demands more CPU than exists (oversubscription)."""
        if elapsed_cycles <= 0:
            raise SimulationError(
                f"elapsed window must be positive, got {elapsed_cycles}")
        return self.total / elapsed_cycles

    def reset(self) -> None:
        self.ledger.clear()

    def snapshot(self) -> "CycleBudget":
        """An independent copy (for windowed sampling)."""
        copy = CycleBudget(self.hz)
        copy.ledger = defaultdict(int, self.ledger)
        return copy

    def delta_since(self, earlier: "CycleBudget") -> Dict[str, int]:
        """Per-category charges accumulated since ``earlier`` snapshot."""
        out: Dict[str, int] = {}
        for key, value in self.ledger.items():
            diff = value - earlier.ledger.get(key, 0)
            if diff:
                out[key] = diff
        return out
