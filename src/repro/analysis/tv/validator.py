"""Compare the two lifted traces and audit the structural invariants.

:func:`validate_block` is the translation validator's entry point: it
takes the :class:`repro.interp.translate.BlockMeta` the engine records
for every compiled superblock, lifts the decoded instructions
(:mod:`.lift_guest`) and the generated source (:mod:`.lift_py`) into
symbolic event traces, and decides equivalence event by event.

Expression equivalence is two-tier (see :mod:`repro.analysis.sema`):
matching canonical forms are a proof ("syntactic"); otherwise the
deterministic concrete battery searches for a counterexample and the
comparison is accepted as "concrete" only when none exists.  Correct
translator output compares syntactically — the reference semantics are
built in the same algebraic shape the translator emits — so a
"concrete" result is unusual enough to be worth surfacing in
:class:`TvResult.proofs`.

Structural invariants audited besides the traces:

* every instruction byte lies in the single guarded physical page and
  ``phys_entry`` belongs to the guarded page (guard sufficiency for
  the baked-in decode);
* the handler binding table matches the decoded instructions
  one-for-one (names and operand identity);
* the preamble binds ``irq``/``gens``/``li``/``lc`` exactly when the
  trace contains memory ops / stores / a loop edge;
* when the installed block tuple is provided, its cached totals and
  guard fields match the metadata (and, with ``page_gens``, the
  generation guard is still fresh).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import sema
from repro.analysis.tv.events import (
    Barrier,
    CondExit,
    CondTerm,
    Exit,
    HandlerCall,
    IrqExit,
    LoopEdge,
    Pacing,
    SmcExit,
    State,
)
from repro.analysis.tv.lift_guest import reference_events
from repro.analysis.tv.lift_py import TvStructureError, lift_python_block
from repro.hw.paging import PAGE_SHIFT

_MAX_FAILURES = 25


@dataclass
class TvResult:
    """Outcome of validating one superblock."""

    ok: bool
    entry_lin: int
    entry_pc: int
    insns: int
    events: int
    failures: List[str] = field(default_factory=list)
    #: Equivalence decisions by kind: "syntactic" (canonical-form
    #: proof) and "concrete" (battery agreement only).
    proofs: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return (f"{verdict} block@{self.entry_lin:#x} "
                f"({self.insns} insns, {self.events} events, "
                f"{self.proofs.get('syntactic', 0)} syntactic / "
                f"{self.proofs.get('concrete', 0)} concrete)")


def _leaf_name(leaf: Tuple[Any, ...]) -> str:
    if leaf[0] == "init-reg":
        return f"r{leaf[1]}"
    if leaf[0] == "init-flags":
        return "flags"
    if leaf[0] == "hreg":
        if leaf[1] == -1:
            return f"stale cpu.regs[{leaf[2]}]"
        return f"h{leaf[1]}.r{leaf[2]}"
    if leaf == sema.havoc_flags(-1):
        return "uncommitted cpu.flags"
    if leaf[0] == "hflags":
        return f"h{leaf[1]}.flags"
    return repr(leaf)


def _witness_text(witness: Optional[Dict[Any, int]]) -> str:
    if not witness:
        return ""
    parts = [f"{_leaf_name(leaf)}={value:#x}"
             for leaf, value in sorted(witness.items(),
                                       key=lambda kv: repr(kv[0]))]
    text = ", ".join(parts[:8])
    if len(parts) > 8:
        text += ", ..."
    return f" [counterexample: {text}]"


class _Comparator:
    """Accumulates failures and proof counters over one block."""

    def __init__(self) -> None:
        self.norm = sema.Normalizer()
        self.failures: List[str] = []
        self.proofs: Dict[str, int] = {"syntactic": 0, "concrete": 0}

    def fail(self, message: str) -> None:
        if len(self.failures) < _MAX_FAILURES:
            self.failures.append(message)

    def ints(self, where: str, got: Any, want: Any) -> None:
        if got != want:
            self.fail(f"{where}: generated code has {got!r}, "
                      f"reference requires {want!r}")

    def exprs(self, where: str, got: Any, want: Any,
              boolean: bool = False) -> None:
        if len(self.failures) >= _MAX_FAILURES:
            return
        equal, how, witness = self.norm.equal(got, want, boolean=boolean)
        if equal:
            self.proofs[how] += 1
        else:
            self.fail(f"{where}: expressions differ"
                      f"{_witness_text(witness)}")

    def states(self, where: str, got: State, want: State) -> None:
        self.ints(f"{where}.instret", got.ir, want.ir)
        self.ints(f"{where}.cycles", got.cy, want.cy)
        self.ints(f"{where}.pending-charge", got.chg, want.chg)
        self.exprs(f"{where}.flags", got.flags, want.flags)
        for index in range(8):
            self.exprs(f"{where}.r{index}", got.regs[index],
                       want.regs[index])

    def event(self, index: int, got: Any, want: Any) -> None:
        kind = type(want).__name__
        where = f"event {index} ({kind})"
        if type(got) is not type(want):
            self.fail(f"{where}: generated code emits "
                      f"{type(got).__name__} instead")
            return
        if isinstance(want, Pacing):
            self.ints(f"{where}.insns", got.insns, want.insns)
            self.ints(f"{where}.cycles", got.cycles, want.cycles)
            self.ints(f"{where}.exit_pc", got.exit_pc, want.exit_pc)
        elif isinstance(want, Barrier):
            self.ints(f"{where}.instret", got.ir, want.ir)
            self.ints(f"{where}.cycles", got.cy, want.cy)
            self.ints(f"{where}.charge", got.chg, want.chg)
            self.ints(f"{where}.saved", got.saved, want.saved)
            self.ints(f"{where}.next_pc", got.next_pc, want.next_pc)
            self.exprs(f"{where}.flags", got.flags, want.flags)
            for index_ in range(8):
                self.exprs(f"{where}.r{index_}", got.regs[index_],
                           want.regs[index_])
        elif isinstance(want, HandlerCall):
            self.ints(f"{where}.index", got.index, want.index)
        elif isinstance(want, IrqExit):
            self.ints(f"{where}.pc", got.pc, want.pc)
            self.states(where, got.state, want.state)
        elif isinstance(want, SmcExit):
            self.ints(f"{where}.page", got.page, want.page)
            self.ints(f"{where}.generation", got.generation,
                      want.generation)
            self.ints(f"{where}.pc", got.pc, want.pc)
            self.states(where, got.state, want.state)
        elif isinstance(want, CondExit):
            self.ints(f"{where}.pc", got.pc, want.pc)
            self.exprs(f"{where}.cond", got.cond, want.cond,
                       boolean=True)
            self.states(where, got.state, want.state)
        elif isinstance(want, CondTerm):
            self.ints(f"{where}.taken", got.taken, want.taken)
            self.ints(f"{where}.fall", got.fall, want.fall)
            self.exprs(f"{where}.cond", got.cond, want.cond,
                       boolean=True)
            self.states(where, got.state, want.state)
        elif isinstance(want, Exit):
            self.ints(f"{where}.pc", got.pc, want.pc)
            self.states(where, got.state, want.state)
        elif isinstance(want, LoopEdge):
            self.states(where, got.state, want.state)
        else:  # pragma: no cover - event table is closed
            self.fail(f"{where}: unknown event kind")


def validate_block(meta: Any, block: Optional[tuple] = None,
                   page_gens: Optional[Any] = None) -> TvResult:
    """Validate one compiled superblock against its decoded trace.

    ``meta`` is a :class:`repro.interp.translate.BlockMeta`.  Pass the
    installed block tuple to audit its cached totals and guard fields,
    and the live ``memory.page_gens`` array to additionally check
    guard freshness.
    """
    comparator = _Comparator()
    result = TvResult(ok=False, entry_lin=meta.entry_lin,
                      entry_pc=meta.entry_pc, insns=len(meta.insns),
                      events=0, failures=comparator.failures,
                      proofs=comparator.proofs)

    try:
        guest = reference_events(meta.insns, meta.entry_pc, meta.page,
                                 meta.generation)
    except (sema.SemaError, ValueError) as exc:
        comparator.fail(f"reference lift failed: {exc}")
        return result

    # -- guard sufficiency: the baked-in decode must be covered by the
    #    single (page, generation) guard.
    page_size = 1 << PAGE_SHIFT
    offset = meta.entry_lin & (page_size - 1)
    if offset + guest.total_bytes > page_size:
        comparator.fail(
            f"trace spans past the guarded page: entry offset {offset}"
            f" + {guest.total_bytes} bytes > {page_size}")
    if meta.phys_entry >> PAGE_SHIFT != meta.page:
        comparator.fail(
            f"guarded page {meta.page:#x} does not back phys entry "
            f"{meta.phys_entry:#x}")

    # -- handler binding table vs the decoded instructions.
    if len(meta.handlers) != len(guest.handlers):
        comparator.fail(
            f"handler table has {len(meta.handlers)} entries, decoded "
            f"trace needs {len(guest.handlers)}")
    else:
        for index, ((name, operands), (want_name, want_operands)) \
                in enumerate(zip(meta.handlers, guest.handlers)):
            if name != want_name:
                comparator.fail(
                    f"handler {index} bound to {name}, expected "
                    f"{want_name}")
            if operands != want_operands:
                comparator.fail(
                    f"handler {index} operands {operands!r} != decoded "
                    f"{want_operands!r}")

    # -- block tuple audit (cached totals + static guards).
    if block is not None:
        comparator.ints("block cached insn total", block[1],
                        guest.total_insns)
        comparator.ints("block cached cycle total", block[2],
                        guest.total_cycles)
        if not (block[3] is meta.descriptor or block[3] == meta.descriptor):
            comparator.fail("block descriptor guard != translation-time "
                            "descriptor")
        comparator.ints("block paging guard", block[4], meta.paging)
        comparator.ints("block page guard", block[5], meta.page)
        comparator.ints("block generation guard", block[6],
                        meta.generation)
    if page_gens is not None \
            and page_gens[meta.page] != meta.generation:
        comparator.fail(
            f"generation guard is stale: page {meta.page:#x} is at "
            f"{page_gens[meta.page]}, block guards {meta.generation}")

    # -- lift the generated source.
    try:
        lifted = lift_python_block(meta.source, list(meta.handlers),
                                   meta.entry_pc)
    except TvStructureError as exc:
        comparator.fail(f"structure: {exc}")
        return result

    result.events = len(guest.events)

    if lifted.binds_irq != guest.has_mem:
        comparator.fail(
            f"irq binding is {lifted.binds_irq}, trace "
            f"{'has' if guest.has_mem else 'has no'} memory ops")
    if lifted.binds_gens != guest.has_store:
        comparator.fail(
            f"page-generation binding is {lifted.binds_gens}, trace "
            f"{'has' if guest.has_store else 'has no'} stores")
    if lifted.binds_limits != guest.loop:
        comparator.fail(
            f"pacing-limit binding is {lifted.binds_limits}, block "
            f"{'is' if guest.loop else 'is not'} a loop")

    # -- event-trace equivalence.
    if len(lifted.events) != len(guest.events):
        comparator.fail(
            f"generated code produces {len(lifted.events)} events, "
            f"reference requires {len(guest.events)}")
    for index, (got, want) in enumerate(zip(lifted.events,
                                            guest.events)):
        if len(comparator.failures) >= _MAX_FAILURES:
            break
        comparator.event(index, got, want)

    result.ok = not comparator.failures
    return result
