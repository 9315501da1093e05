"""Mutation-kill harness for the translation validator.

A validator that accepts everything is worse than none.  This harness
compiles one fixture superblock that exercises every structural
feature (inline ALU + flags, loads, stores, IRQ/SMC exits, loop
pacing, a conditional loop edge, lazily emitted flags), then applies
seeded miscompile mutations — each a realistic translator bug: a
dropped commit, a wrong flag formula, off-by-one accounting, a
weakened guard, a flag formula missing where FLAGS are observed — and
asserts the validator kills every single one.  A second fixture, whose
loop runs a load before its first flag write, carries the
mutations of its loop-head barrier and back-edge.  A third, a
register-only loop, keeps its registers in locals and accounts its
iterations at its exits; it carries the mutations of the trip bound,
of the register write-backs and of the exit accounting.  CI requires
27/27.

Run it via ``tools/tv_mutate.py`` or ``python -m
repro.analysis.tv.mutate``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Tuple

from repro.analysis.tv.validator import TvResult, validate_block
from repro.asm import assemble
from repro.hw import Cpu, IoBus, PhysicalMemory, firmware

#: Fixture: flags change before the first barrier, a load (IRQ exit),
#: a store (SMC exit), flag-setting ALU between barriers, and a
#: conditional backward branch (loop pacing + conditional loop edge).
FIXTURE_SOURCE = """
    MOVI R0, 64
    MOVI R3, 0x8000
loop:
    ADDI R1, 3
    LD   R2, [R3+0]
    XORI R2, 0x55
    ST   [R3+0], R2
    SUBI R0, 1
    JNZ  loop
    HLT
"""

#: Back-edge fixture: the load observes FLAGS before the loop's first
#: flag write, so the SUBI formula must be emitted at the back-edge.
BACK_EDGE_FIXTURE = """
    MOVI R0, 64
    MOVI R3, 0x8000
loop:
    LD   R2, [R3+0]
    SUBI R0, 1
    JNZ  loop
    HLT
"""

#: Register-only fixture: no handler, so the loop keeps R0-R2 in
#: locals and each exit accounts ``k`` iterations of 5 instructions and
#: 8 cycles (MULI 3, XCHG 2); XCHG writes two registers at once.
REGISTER_LOOP_FIXTURE = """
    MOVI R0, 64
    MOVI R1, 7
loop:
    MULI R1, 3
    XCHG R1, R2
    ADDI R1, 5
    SUBI R0, 1
    JNZ  loop
    HLT
"""

_BODY = " " * 16
_FLAG_LINE = r"f = \(f & -2242\)[^\n]*"


def _drop_line(line: str) -> Callable[[str], str]:
    def apply(source: str) -> str:
        needle = f"\n{_BODY}{line}"
        assert needle in source, f"fixture lacks {line!r}"
        return source.replace(needle, "", 1)
    return apply


def _drop_exit_line(line: str, nth: int) -> Callable[[str], str]:
    """Drop the ``nth`` (1-based) occurrence of ``line`` in an exit
    branch."""
    def apply(source: str) -> str:
        needle = f"\n{_BODY}    {line}"
        at = -1
        for _ in range(nth):
            at = source.find(needle, at + 1)
            assert at >= 0, f"fixture lacks {nth} x {line!r}"
        return source[:at] + source[at + len(needle):]
    return apply


def _swap(old: str, new: str) -> Callable[[str], str]:
    def apply(source: str) -> str:
        assert old in source, f"fixture lacks {old!r}"
        return source.replace(old, new, 1)
    return apply


def _regex(pattern: str, replacement: str) -> Callable[[str], str]:
    def apply(source: str) -> str:
        out, count = re.subn(pattern, replacement, source, count=1)
        assert count == 1, f"fixture does not match {pattern!r}"
        return out
    return apply


def _bump_barrier_pc(source: str) -> str:
    match = re.search(
        r"(saved = \d+\n" + _BODY + r"cpu\.pc = )(\d+)", source)
    assert match, "fixture has no barrier PC commit"
    wrong = int(match.group(2)) + 1
    return (source[:match.start()] + match.group(1) + str(wrong)
            + source[match.end():])


#: (name, what translator bug it simulates, source transform).
SOURCE_MUTATIONS: List[Tuple[str, str, Callable[[str], str]]] = [
    ("drop-flags-commit",
     "first commit barrier loses `cpu.flags = f`",
     _drop_line("cpu.flags = f")),
    ("drop-instret-commit",
     "first commit barrier loses `cpu.instret = ir`",
     _drop_line("cpu.instret = ir")),
    ("drop-charge-flush",
     "first barrier loses the budget charge flush",
     _regex(r"\n" + _BODY + r"if chg:\n" + _BODY + r"    charge\(chg, "
            r"GUEST\)\n" + _BODY + r"    chg = 0", "")),
    ("weaken-clear-mask",
     "flag clear mask no longer clears every arithmetic flag",
     _swap("(f & -2242)", "(f & -2210)")),
    ("zf-wrong-bit",
     "ZF computed into bit 5 instead of bit 6",
     _swap("(64 if m == 0 else 0)", "(32 if m == 0 else 0)")),
    ("drop-carry-term",
     "ADD flag formula loses the carry-out term",
     _swap(" | (t >> 32)", "")),
    ("of-shift-off-by-one",
     "overflow bit lands one position off",
     _swap(") >> 20)", ") >> 19)")),
    ("instret-off-by-one",
     "per-instruction accounting retires one instruction twice",
     _swap("ir += 1", "ir += 2")),
    ("wrong-cycle-charge",
     "a 2-cycle load is charged 3 cycles",
     _swap("cy += 2", "cy += 3")),
    ("drop-charge-accumulation",
     "budget accounting loses one instruction's charge",
     _drop_line("chg += 1")),
    ("drop-smc-check",
     "store loses its code-page generation re-check",
     _regex(r"\n" + _BODY + r"if gens\[\d+\] != \d+:\n" + _BODY
            + r"    break", "")),
    ("drop-irq-check",
     "memory access loses its pending-interrupt poll",
     _regex(r"\n" + _BODY + r"if irq is not None and "
            r"irq\.has_pending\(\):\n" + _BODY + r"    break", "")),
    ("wrong-barrier-pc",
     "barrier commits the wrong next-PC before a faultable op",
     _bump_barrier_pc),
    ("negate-branch",
     "conditional loop edge tests the negated condition",
     _swap("if m == 0:", "if m != 0:")),
    ("drop-exit-flags",
     "loop exit branch leaves without emitting the pending flags",
     _regex(r"(if m == 0:)\n" + _BODY + "    " + _FLAG_LINE, r"\1")),
    ("drop-pacing-flags",
     "pacing exit leaves without emitting the pending flags",
     _regex(r"(if k == n:)\n" + _BODY + "    " + _FLAG_LINE, r"\1")),
]

#: Mutations of :data:`BACK_EDGE_FIXTURE` (same shape as above).
BACK_EDGE_MUTATIONS: List[Tuple[str, str, Callable[[str], str]]] = [
    ("drop-loop-head-flags",
     "the loop-head barrier loses `cpu.flags = f`: later iterations "
     "load with the previous iteration's FLAGS committed",
     _drop_line("cpu.flags = f")),
    ("drop-loop-head-instret",
     "the loop-head barrier loses `cpu.instret = ir`",
     _drop_line("cpu.instret = ir")),
    ("drop-loop-head-cycles",
     "the loop-head barrier loses `cpu.cycle_count = cy`",
     _drop_line("cpu.cycle_count = cy")),
    ("drop-back-edge-flags",
     "back-edge keeps a formula pending although the next iteration's "
     "load commits FLAGS before any flag write",
     _regex(r"\n" + _BODY + _FLAG_LINE + r"(?=\n        except Fault)",
            "")),
]


#: Mutations of :data:`REGISTER_LOOP_FIXTURE` (same shape as above).
REGISTER_LOOP_MUTATIONS: List[Tuple[str, str, Callable[[str], str]]] = [
    ("trip-bound-off-by-one",
     "the trip count allows one iteration past the instret limit",
     _swap("n = (li - ir) // 5", "n = (li - ir) // 5 + 1")),
    ("trip-bound-cycle-divisor",
     "the trip count divides the cycle budget by the instructions per "
     "iteration",
     _swap("n = (lc - cy) // 8", "n = (lc - cy) // 5")),
    ("trip-bound-drops-cycles",
     "the trip count ignores the next device event",
     _regex(r"\n {8}if lc - cy < [^\n]*\n {12}n = [^\n]*", "")),
    ("terminator-exit-keeps-register",
     "the terminator exit leaves R1 in its local",
     _drop_exit_line("regs[1] = r1", 1)),
    ("pacing-exit-keeps-register",
     "the pacing exit leaves R1 in its local",
     _drop_exit_line("regs[1] = r1", 2)),
    ("exit-accounting-multiplier",
     "the terminator exit accounts 4 instructions per iteration, not 5",
     _swap("ir += 5 * k", "ir += 4 * k")),
]


@dataclass
class MutationOutcome:
    name: str
    description: str
    killed: bool
    detail: str


def _compile_fixture(source: str = FIXTURE_SOURCE) -> Tuple[Any, tuple, Any]:
    """Compile a fixture loop and return (meta, block, page_gens)."""
    memory = PhysicalMemory(1 << 20)
    cpu = Cpu(memory, IoBus(), translate=True)
    firmware.install_flat_firmware(cpu)
    program = assemble(source, origin=0x4000)
    program.load_into(memory)
    engine = cpu._sb_engine
    assert engine is not None
    entry = program.symbol("loop")
    descriptor = cpu.segments[0].descriptor
    engine._compile(entry, entry, descriptor)
    assert entry in engine.blocks, "fixture loop failed to compile"
    return engine.block_meta[entry], engine.blocks[entry], \
        memory.page_gens


def _mutate_all(meta: Any, block: tuple, page_gens: Any,
                mutations: List[Tuple[str, str, Callable[[str], str]]]) \
        -> List[MutationOutcome]:
    outcomes: List[MutationOutcome] = []
    for name, description, mutate in mutations:
        mutated = replace(meta, source=mutate(meta.source))
        result = validate_block(mutated, block=block,
                                page_gens=page_gens)
        detail = result.failures[0] if result.failures else "accepted"
        outcomes.append(MutationOutcome(
            name=name, description=description, killed=not result.ok,
            detail=detail))
    return outcomes


def run_harness() -> Tuple[Optional[TvResult], List[MutationOutcome]]:
    """(baseline result, one outcome per mutation)."""
    meta, block, page_gens = _compile_fixture()
    baseline = validate_block(meta, block=block, page_gens=page_gens)
    outcomes = _mutate_all(meta, block, page_gens, SOURCE_MUTATIONS)

    for fixture, mutations in ((BACK_EDGE_FIXTURE, BACK_EDGE_MUTATIONS),
                               (REGISTER_LOOP_FIXTURE,
                                REGISTER_LOOP_MUTATIONS)):
        more_meta, more_block, more_gens = _compile_fixture(fixture)
        more_baseline = validate_block(more_meta, block=more_block,
                                       page_gens=more_gens)
        if not more_baseline.ok:
            raise RuntimeError(f"fixture does not validate: "
                               f"{more_baseline.failures}")
        outcomes += _mutate_all(more_meta, more_block, more_gens,
                                mutations)

    # The last mutation tampers the installed guard, not the source:
    # the block tuple bakes in a generation the code was not compiled for.
    tampered = block[:6] + (block[6] + 1,)
    result = validate_block(meta, block=tampered, page_gens=page_gens)
    detail = result.failures[0] if result.failures else "accepted"
    outcomes.append(MutationOutcome(
        name="stale-generation-guard",
        description="installed block guards a different page generation",
        killed=not result.ok, detail=detail))
    return baseline, outcomes


def main(argv: Optional[List[str]] = None) -> int:
    baseline, outcomes = run_harness()
    ok = baseline is not None and baseline.ok
    print(f"baseline: {baseline.summary() if baseline else 'missing'}")
    killed = sum(1 for outcome in outcomes if outcome.killed)
    for outcome in outcomes:
        verdict = "KILLED " if outcome.killed else "MISSED "
        print(f"  {verdict} {outcome.name:28s} {outcome.detail}")
    print(f"{killed}/{len(outcomes)} mutations killed")
    return 0 if ok and killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
