"""Shrink a failing journal to a minimal reproducing core.

A journal that reproduces a failure usually carries far more history
than the failure needs — warm-up run slices, debugger chatter, faults
that missed.  The minimizer searches for a strictly smaller sequence of
*core* frames (replayable inputs + host operations) whose relaxed
replay still satisfies every recorded failure check.

Two stages, both bounded by a test budget:

1. **Prefix truncation** — binary search for the shortest journal
   prefix that still reproduces.  Failures are prefix-monotonic (once
   the guest is dead it stays dead), so this is O(log n) replays and
   usually removes the entire post-failure tail.
2. **ddmin** — classic delta debugging over the surviving core frames:
   try dropping chunks, recurse with finer granularity while removals
   keep reproducing.

Cross-check, rng and checkpoint frames are dropped outright: they are
evidence about the *original* execution and would be stale in any
edited journal.  The minimized journal ends with the end frame its own
replay recorded (fresh digest and micro-counters, the original checks
and violations), so it is itself a valid, verifiable recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import JournalError
from repro.replay.journal import FRAME_END, Frame, Journal
from repro.replay.recorder import INPUT_KINDS, OP_KINDS
from repro.replay.replayer import replay_journal

#: Frames the minimizer may keep or drop; everything else is stale
#: evidence in an edited journal.
CORE_KINDS = INPUT_KINDS + OP_KINDS


@dataclass
class MinimizeResult:
    """Outcome of a minimization run."""

    journal: Journal
    reproduced: bool
    original_core_frames: int
    minimized_core_frames: int
    tests_run: int
    stages: List[str] = field(default_factory=list)

    @property
    def reduced(self) -> bool:
        return self.minimized_core_frames < self.original_core_frames

    def stats(self) -> Dict:
        return {"reproduced": self.reproduced,
                "original_core_frames": self.original_core_frames,
                "minimized_core_frames": self.minimized_core_frames,
                "tests_run": self.tests_run,
                "reduced": self.reduced,
                "stages": list(self.stages)}


def _core_frames(journal: Journal) -> List[Frame]:
    return [frame for frame in journal.frames if frame.kind in CORE_KINDS]


def _build_variant(journal: Journal, core: List[Frame],
                   end_data: Dict) -> Journal:
    frames = list(core)
    frames.append(Frame(FRAME_END, dict(end_data)))
    return Journal(header=dict(journal.header), frames=frames,
                   version=journal.version)


def minimize_journal(journal: Journal,
                     max_tests: int = 64) -> MinimizeResult:
    """Delta-debug a failing journal down to a reproducing core.

    Raises :class:`JournalError` when the journal is not minimizable
    (no end frame, no re-evaluable checks) or when the unmodified
    journal does not reproduce its own failure — a minimizer must never
    "shrink" a recording it cannot even confirm.
    """
    end_frame = journal.end_frame
    if end_frame is None:
        raise JournalError("journal is incomplete: nothing to minimize")
    checks = end_frame.data.get("checks") or []
    if not checks:
        raise JournalError(
            "journal records no failure checks; there is no predicate "
            "to minimize against")
    end_data = dict(end_frame.data)
    core = _core_frames(journal)
    original_count = len(core)
    tests_run = 0
    stages: List[str] = []

    def reproduces(subset: List[Frame]) -> bool:
        nonlocal tests_run
        tests_run += 1
        variant = _build_variant(journal, subset, end_data)
        result = replay_journal(variant, strict=False)
        return result.reproduced

    if not reproduces(core):
        raise JournalError(
            "journal does not reproduce its recorded failure; refusing "
            "to minimize an unconfirmed recording")

    # Stage 1: shortest reproducing prefix, by binary search.  Once a
    # failure has happened it stays happened, so reproduction is
    # monotonic in prefix length.
    low, high = 1, len(core)       # invariant: core[:high] reproduces
    while low < high and tests_run < max_tests:
        mid = (low + high) // 2
        if reproduces(core[:mid]):
            high = mid
        else:
            low = mid + 1
    if high < len(core):
        stages.append(f"prefix:{len(core)}->{high}")
        core = core[:high]

    # Stage 2: ddmin over the surviving core, budget permitting.
    chunks = 2
    while chunks <= len(core) and tests_run < max_tests:
        size = max(1, len(core) // chunks)
        removed_any = False
        start = 0
        while start < len(core) and tests_run < max_tests:
            candidate = core[:start] + core[start + size:]
            if candidate and reproduces(candidate):
                stages.append(f"ddmin:-{min(size, len(core) - start)}")
                core = candidate
                chunks = max(chunks - 1, 2)
                removed_any = True
                # Keep position: the next chunk slid into this slot.
            else:
                start += size
        if not removed_any:
            if chunks >= len(core):
                break
            chunks = min(len(core), chunks * 2)

    minimized = _build_variant(journal, core, end_data)
    final = replay_journal(minimized, strict=False)
    # Seal with the end frame the minimized replay recorded itself, so
    # the artifact verifies on its own.
    minimized.frames[-1] = final.end_frame
    return MinimizeResult(journal=minimized,
                          reproduced=final.reproduced,
                          original_core_frames=original_count,
                          minimized_core_frames=len(core),
                          tests_run=tests_run,
                          stages=stages)
