"""The symbolic event trace both translation-validator lifters produce.

A superblock's observable behaviour is fully described by the ordered
list of events below.  Registers live in ``cpu.regs`` (the generated
code binds the list itself), so the register file is committed
continuously, except in a register-only loop, which writes its
register locals back at each exit; FLAGS, ``instret``,
``cycle_count``, budget charges and PC are locals committed at
*barriers* and exits.  Nothing can observe CPU state
between barriers (inlined instructions cannot fault and interrupts are
only polled at the emitted check points), so equivalence at every
barrier and exit edge is observational equivalence of the block.

``ir``/``cy``/``chg`` fields are integer *offsets* from block entry —
the generated code adds constants to the entry values, so offsets
decide equality without symbolic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

Expr = Tuple[Any, ...]


@dataclass(frozen=True)
class State:
    """Architectural snapshot at an observation point (symbolic)."""

    regs: Tuple[Expr, ...]
    flags: Expr
    ir: int
    cy: int
    chg: int


@dataclass(frozen=True)
class Pacing:
    """The per-iteration pacing check (at the loop top in the reference,
    at the back-edge in generated code): exit before overshooting
    either limit."""

    insns: int
    cycles: int
    exit_pc: int


@dataclass(frozen=True)
class Barrier:
    """Per-instruction commit barrier before a faultable operation."""

    flags: Expr
    ir: int
    cy: int
    chg: int
    saved: int
    next_pc: int
    regs: Tuple[Expr, ...]


@dataclass(frozen=True)
class HandlerCall:
    """Dispatch into a bound interpreter handler."""

    index: int


@dataclass(frozen=True)
class IrqExit:
    """Pending-interrupt poll after a memory access; exits the block."""

    pc: int
    state: State


@dataclass(frozen=True)
class SmcExit:
    """Code-page generation re-check after a store; exits the block."""

    page: int
    generation: int
    pc: int
    state: State


@dataclass(frozen=True)
class CondExit:
    """Loop-form conditional: exit to ``pc`` when ``cond`` holds."""

    cond: Expr
    pc: int
    state: State


@dataclass(frozen=True)
class CondTerm:
    """Non-loop conditional terminator: taken/fall-through exit."""

    cond: Expr
    taken: int
    fall: int
    state: State


@dataclass(frozen=True)
class Exit:
    """Unconditional block exit (JMP target or fall-through)."""

    pc: int
    state: State


@dataclass(frozen=True)
class LoopEdge:
    """Control returns to the loop top (the block's back edge)."""

    state: State


Event = Any
