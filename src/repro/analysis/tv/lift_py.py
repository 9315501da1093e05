"""Lift generated superblock Python source into the symbolic trace.

The translator emits blocks in a rigid idiom: a ``_factory`` binding
the fault class, budget category and the per-instruction handlers, a
``_block(cpu)`` whose preamble binds the register file and counters to
locals, a ``try``/``while True`` body, and a commit epilogue.  This
module re-parses that source with :mod:`ast` and symbolically executes
the loop body, producing the event trace of :mod:`.events`:

* the fixed skeleton (preamble, except clause, epilogue) is matched
  statement-for-statement against templates — any deviation is a
  :class:`TvStructureError`; a loop's preamble must hold the trip
  bound, ``n = (li - ir) // N`` lowered to ``(lc - cy) // C`` when the
  cycle term binds, which is the dispatcher's pacing inequality, and
  its ``(N, C)`` is the :class:`~repro.analysis.tv.events.Pacing`
  event;
* the body is interpreted: local assignments build symbolic
  expressions, commit statements update the tracked committed state,
  handler calls emit :class:`~repro.analysis.tv.events.Barrier` +
  :class:`~repro.analysis.tv.events.HandlerCall` (with the handler's
  register havoc applied from the *binding table*, which the validator
  separately checks against the decoded instructions), and the
  IRQ/SMC/pacing/terminator conditionals emit their exit events;
* lazy condition flags are followed: an inlined flag write's
  ``f = ...`` formula appears only where FLAGS can be observed (before
  a commit, inside an exit branch, at the back-edge), a JZ/JNZ loop
  exit may test the formula's ``m == 0`` instead of ``f & 64``, and a
  back-edge that leaves a formula pending is accepted only when the
  loop body never reads the stale bits it carries into the next
  iteration.  The ``if k == n:`` check sits at the back-edge, after
  exactly one ``k += 1``, and is reported first, where the reference
  puts the loop-top check; an eagerly accounting body must have
  accounted the trip bound's ``(N, C)`` by then;
* a register-only loop keeps registers in locals ``r<i>`` and
  accounts at its exits: every exit must write back each local the
  body changed (the shadowed ``cpu.regs`` slot is unknown at the loop
  top otherwise) and add ``N * k``, ``C * k`` and ``C * k`` to
  ``ir``/``cy``/``chg`` with the trip bound's ``N`` and ``C``, so it is
  lifted with one whole iteration's offsets.

The lifter never consults the decoded instruction list — everything it
produces comes from the emitted source plus the handler binding table,
so comparing its trace against :mod:`.lift_guest` is a genuine
two-sided check.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import sema
from repro.analysis.tv.events import (
    Barrier,
    CondExit,
    CondTerm,
    Event,
    Exit,
    HandlerCall,
    IrqExit,
    LoopEdge,
    Pacing,
    SmcExit,
    State,
)

Expr = Tuple[Any, ...]


class TvStructureError(Exception):
    """The source does not follow the translator's structural contract."""


@dataclass
class LiftedBlock:
    """The symbolic trace plus the structural facts the lifter saw."""

    events: List[Event]
    binds_irq: bool
    binds_gens: bool
    binds_limits: bool
    handler_count: int


# -- template matching -------------------------------------------------------

_TEMPLATES: Dict[str, str] = {}


def _template(source: str) -> str:
    dump = _TEMPLATES.get(source)
    if dump is None:
        dump = ast.dump(ast.parse(source).body[0])
        _TEMPLATES[source] = dump
    return dump


def _matches(stmt: ast.stmt, source: str) -> bool:
    return ast.dump(stmt) == _template(source)


def _require(stmt: ast.stmt, source: str, where: str) -> None:
    if not _matches(stmt, source):
        raise TvStructureError(
            f"{where}: expected `{source.splitlines()[0]}`, found "
            f"`{ast.dump(stmt)[:120]}`")


_PREAMBLE = (
    "regs = cpu.regs",
    "f = cpu.flags",
    "ir = cpu.instret",
    "ir0 = ir",
    "cy = cpu.cycle_count",
    "chg = 0",
    "saved = 0",
    "charge = cpu.budget.charge",
)

_EXCEPT_BODY = (
    "cpu.block_extra_steps = ir - ir0",
    "cpu._handle_fault(fault, saved)",
    "return",
)

_EPILOGUE = (
    "cpu.flags = f",
    "cpu.instret = ir",
    "cpu.cycle_count = cy",
    "if chg:\n    charge(chg, GUEST)",
    "cpu.block_extra_steps = ir - ir0 - 1",
)

_CHARGE_FLUSH = "if chg:\n    charge(chg, GUEST)\n    chg = 0"
_IRQ_CHECK = "if irq is not None and irq.has_pending():\n    break"

#: The translator's flag formulas (add, subtract, logic).  Each keeps
#: the bits of ``f`` outside CF|ZF|SF|OF, sets only those four, and
#: sets ZF exactly when ``m == 0`` (``a``/``b`` are 32-bit, so
#: ``t >> 32`` is 0 or 1): the facts lazy flags rest on.
_FLAG_FORMULAS = (
    "f = (f & -2242) | (t >> 32) | ((m >> 24) & 128)"
    " | ((((a ^ m) & (b ^ m)) & 2147483648) >> 20)"
    " | (64 if m == 0 else 0)",
    "f = (f & -2242) | (1 if a < b else 0) | ((m >> 24) & 128)"
    " | ((((a ^ b) & (a ^ m)) & 2147483648) >> 20)"
    " | (64 if m == 0 else 0)",
    "f = (f & -2242) | ((m >> 24) & 128) | (64 if m == 0 else 0)",
)

#: CF|ZF|SF|OF.
_ARITH_FLAGS = ~sema.CLEAR_ARITH_FLAGS


# -- AST helpers -------------------------------------------------------------


def _int_const(node: ast.expr) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _int_const(node.operand)
        if inner is not None:
            return -inner
    return None


def _is_name(node: ast.expr, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_flag_formula(stmt: Optional[ast.Assign]) -> bool:
    return stmt is not None \
        and any(_matches(stmt, line) for line in _FLAG_FORMULAS)


def _is_zf_test(test: ast.expr) -> Optional[bool]:
    """``m == 0`` -> False, ``m != 0`` -> True (negated), else None."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and _is_name(test.left, "m") \
            and _int_const(test.comparators[0]) == 0:
        if isinstance(test.ops[0], ast.Eq):
            return False
        if isinstance(test.ops[0], ast.NotEq):
            return True
    return None


def _reads_arith_flags(exprs: List[Expr]) -> bool:
    """Does any expression read CF/ZF/SF/OF of the block-entry FLAGS?

    Only ``FLAGS & c`` with ``c`` clearing all four is blind to them.
    """
    seen: set = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node == sema.FLAGS:
            return True
        if node[0] == "and" and node[1] == sema.FLAGS \
                and node[2][0] == "const" \
                and not node[2][1] & _ARITH_FLAGS:
            continue
        stack.extend(child for child in node[1:]
                     if isinstance(child, tuple))
    return False


def _event_exprs(event: Event) -> List[Expr]:
    if isinstance(event, Barrier):
        return [event.flags, *event.regs]
    exprs: List[Expr] = []
    state = getattr(event, "state", None)
    if state is not None:
        exprs += [state.flags, *state.regs]
    cond = getattr(event, "cond", None)
    if cond is not None:
        exprs.append(cond)
    return exprs


def _is_cpu_attr(node: ast.expr, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and _is_name(node.value, "cpu"))


def _reg_index(node: ast.expr) -> Optional[int]:
    """``regs[i]`` -> i."""
    if not isinstance(node, ast.Subscript) \
            or not _is_name(node.value, "regs"):
        return None
    index = node.slice
    if isinstance(index, ast.Index):  # Python < 3.9 compatibility
        index = index.value  # type: ignore[attr-defined]
    return _int_const(index)


def _local_index(node: ast.expr) -> Optional[int]:
    """The register local ``r<i>`` -> i."""
    if isinstance(node, ast.Name) and len(node.id) == 2 \
            and node.id[0] == "r" and node.id[1] in "01234567":
        return int(node.id[1])
    return None


def _count_rate(stmt: ast.stmt) -> Optional[Tuple[str, int]]:
    """``x += R * k`` -> (x, R): accounting ``k`` iterations at once."""
    if not (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add)
            and isinstance(stmt.target, ast.Name)
            and isinstance(stmt.value, ast.BinOp)
            and isinstance(stmt.value.op, ast.Mult)
            and _is_name(stmt.value.right, "k")):
        return None
    rate = _int_const(stmt.value.left)
    if rate is None:
        raise TvStructureError("iteration accounting rate is not a constant")
    return stmt.target.id, rate


_BINOPS: Dict[type, str] = {
    ast.Add: "add", ast.Sub: "sub", ast.BitAnd: "and", ast.BitOr: "or",
    ast.BitXor: "xor", ast.LShift: "shl", ast.RShift: "shr",
    ast.Mult: "mul", ast.FloorDiv: "floordiv",
}


class _Lifter:
    """Symbolic executor over one ``_block`` loop body."""

    def __init__(self, handlers: List[Tuple[str, Any]], entry_pc: int,
                 trip: Optional[Tuple[int, int]] = None,
                 reg_locals: Tuple[int, ...] = (),
                 assigned: frozenset = frozenset(),
                 deferred: bool = False) -> None:
        self.handlers = handlers
        #: ``cpu.regs`` as committed.
        self.regs: List[Expr] = [sema.reg(i) for i in range(8)]
        #: A register-only loop's register locals ``r<i>``.  The slot a
        #: local shadows holds the block-entry value, which is the
        #: iteration-entry value only on the first iteration when the
        #: body assigns the local, so it is unknown until written back.
        self.reg_locals: Dict[int, Expr] = {i: sema.reg(i)
                                            for i in reg_locals}
        for index in assigned:
            self.regs[index] = sema.havoc_reg(-1, index)
        #: The trip bound's (instructions, cycles) per iteration; in a
        #: deferred loop every exit accounts ``k`` iterations at once.
        self.trip = trip
        self.deferred = deferred
        #: ``k += 1`` statements run so far in this iteration.
        self.iterations = 0
        self.f: Expr = sema.FLAGS
        self.locals: Dict[str, Expr] = {}
        self.ir = 0
        self.cy = 0
        self.chg = 0
        #: Current value of ``cpu.flags`` (committed or handler-written)
        #: and the committed counter offsets.  At the loop top they
        #: hold the entry values only on the first iteration (later
        #: ones see the last commit), so they stay unknown until this
        #: iteration commits.
        self.cpu_flags: Expr = sema.havoc_flags(-1)
        self.committed_ir = -1
        self.committed_cy = -1
        self.committed_pc = entry_pc
        self.saved = -1
        self.pending_flush: Optional[int] = None
        self.handler_index = 0
        self.events: List[Event] = []
        self.terminated = False
        #: The back-edge trip-count check and its exit branch's flag
        #: formula.
        self.pacing: Optional[Pacing] = None
        self.pacing_formula: Optional[ast.Assign] = None
        self.pacing_flags: Expr = sema.FLAGS

    # -- expression lifting ------------------------------------------------

    def lift_expr(self, node: ast.expr) -> Expr:
        value = _int_const(node)
        if value is not None:
            return sema.const(value)
        if isinstance(node, ast.Name):
            if node.id == "f":
                return self.f
            if node.id in self.locals:
                return self.locals[node.id]
            if _local_index(node) in self.reg_locals:
                return self.reg_locals[_local_index(node)]
            raise TvStructureError(f"unbound local `{node.id}`")
        index = _reg_index(node)
        if index is not None:
            if not 0 <= index < 8:
                raise TvStructureError(f"register index {index} out of range")
            return self.regs[index]
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise TvStructureError(
                    f"unsupported operator {type(node.op).__name__}")
            return (op, self.lift_expr(node.left),
                    self.lift_expr(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            return ("invert", self.lift_expr(node.operand))
        if isinstance(node, ast.IfExp):
            return ("cond", self.lift_bool(node.test),
                    self.lift_expr(node.body),
                    self.lift_expr(node.orelse))
        raise TvStructureError(
            f"unsupported expression `{ast.dump(node)[:80]}`")

    def lift_bool(self, node: ast.expr) -> Expr:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return ("not", self.lift_bool(node.operand))
        if isinstance(node, ast.BoolOp):
            kind = "or-b" if isinstance(node.op, ast.Or) else "and-b"
            out = self.lift_bool(node.values[0])
            for value in node.values[1:]:
                out = (kind, out, self.lift_bool(value))
            return out
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            op = node.ops[0]
            left, right = node.left, node.comparators[0]
            if isinstance(op, ast.Eq) and _int_const(right) == 0:
                return ("eq0", self.lift_expr(left))
            if isinstance(op, ast.Lt):
                return ("lt", self.lift_expr(left), self.lift_expr(right))
            raise TvStructureError(
                f"unsupported comparison `{ast.dump(node)[:80]}`")
        return ("truthy", self.lift_expr(node))

    # -- state -------------------------------------------------------------

    def state(self) -> State:
        return State(regs=tuple(self.regs), flags=self.f,
                     ir=self.ir, cy=self.cy, chg=self.chg)

    def accounted(self) -> Tuple[int, int, int]:
        """(instret, cycles, pending charge) offsets from iteration
        entry.  A deferred loop's exit adds ``R * k``: with ``k`` counting
        this iteration (``k += 1`` has run) that is the earlier
        iterations plus this whole one."""
        if not self.deferred:
            return self.ir, self.cy, self.chg
        assert self.trip is not None
        insns, cycles = self.trip
        return (insns * self.iterations, cycles * self.iterations,
                cycles * self.iterations)

    # -- statement dispatch ------------------------------------------------

    def run(self, stmts: List[ast.stmt]) -> None:
        i = 0
        while i < len(stmts) and self.pacing is None:
            if self.terminated:
                raise TvStructureError(
                    "statements after the block's terminal exit")
            i = self._step(stmts, i)
        if not self.terminated:
            self._back_edge(stmts[i:])

    def _back_edge(self, tail: List[ast.stmt]) -> None:
        """Pacing re-check, then at most the pending flag formula."""
        if self.pacing is None:
            raise TvStructureError("loop without a back-edge pacing check")
        formula = self.pacing_formula
        if tail:
            if len(tail) > 1 or formula is None \
                    or ast.dump(tail[0]) != ast.dump(formula):
                raise TvStructureError(
                    "the back-edge does not end with the pacing exit's "
                    "flag formula")
            self._assign(tail, 0, formula)
        elif formula is not None:
            # The formula stays pending into the next iteration, whose
            # local ``f`` is then stale in CF/ZF/SF/OF (and exact in
            # every other bit, as the formula rewrites only those).
            # Sound only if this iteration, lifted from the entry
            # FLAGS, never reads those four bits of them.
            if not _is_flag_formula(formula):
                raise TvStructureError(
                    "pending back-edge flags are not a flag formula")
            self.f = self.pacing_flags
            if _reads_arith_flags([expr for event in self.events
                                   for expr in _event_exprs(event)]
                                  + [self.f]):
                raise TvStructureError(
                    "the loop reads FLAGS before its first flag write, "
                    "but the back-edge leaves a flag formula pending")
        # The pacing exit leaves with exactly the loop-edge state (its
        # write-backs and accounting were checked with its branch); it
        # re-checks the next iteration, as the reference's loop-top
        # check does.  The next iteration reads the register locals.
        self.events.insert(0, self.pacing)
        regs = list(self.regs)
        for index, value in self.reg_locals.items():
            regs[index] = value
        ir, cy, chg = self.accounted()
        self.events.append(LoopEdge(state=State(
            regs=tuple(regs), flags=self.f, ir=ir, cy=cy, chg=chg)))

    def _step(self, stmts: List[ast.stmt], i: int) -> int:
        stmt = stmts[i]
        if isinstance(stmt, ast.If):
            return self._if_stmt(stmts, i)
        if isinstance(stmt, ast.Assign):
            self._assign(stmts, i, stmt)
            # `cpu.pc = C` directly followed by `break` is an exit.
            if len(stmt.targets) == 1 \
                    and _is_cpu_attr(stmt.targets[0], "pc") \
                    and i + 1 < len(stmts) \
                    and isinstance(stmts[i + 1], ast.Break):
                if self.deferred:
                    raise TvStructureError(
                        "exit without its iteration accounting")
                self.events.append(Exit(pc=self.committed_pc,
                                        state=self.state()))
                self.terminated = True
                return i + 2
            return i + 1
        if isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
            return i + 1
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            self._handler_call(stmt.value)
            return i + 1
        raise TvStructureError(
            f"unsupported statement `{ast.dump(stmt)[:80]}`")

    # -- conditionals ------------------------------------------------------

    def _if_stmt(self, stmts: List[ast.stmt], i: int) -> int:
        stmt = stmts[i]
        assert isinstance(stmt, ast.If)
        if _matches(stmt, _CHARGE_FLUSH):
            self.pending_flush = self.chg
            self.chg = 0
            return i + 1
        if _matches(stmt, _IRQ_CHECK):
            self.events.append(IrqExit(pc=self.committed_pc,
                                       state=self.state()))
            return i + 1
        smc = self._match_smc(stmt)
        if smc is not None:
            page, generation = smc
            self.events.append(SmcExit(page=page, generation=generation,
                                       pc=self.committed_pc,
                                       state=self.state()))
            return i + 1
        if self._match_pacing(stmt):
            return i + 1
        # Conditional exits / terminators.
        if not stmt.orelse:
            branch = self._exit_branch(stmt.body)
            if branch is not None:
                formula, target, state = branch
                negated = _is_zf_test(stmt.test)
                if negated is not None and _is_flag_formula(formula):
                    # ``m == 0`` is the pending formula's ZF.
                    cond: Expr = ("truthy",
                                  ("and", state.flags, sema.const(64)))
                    if negated:
                        cond = ("not", cond)
                else:
                    cond = self.lift_bool(stmt.test)
                self.events.append(CondExit(cond=cond, pc=target,
                                            state=state))
                return i + 1
            raise TvStructureError(
                f"unrecognised conditional `{ast.dump(stmt)[:100]}`")
        if len(stmt.body) == 1 and len(stmt.orelse) == 1 \
                and isinstance(stmt.body[0], ast.Assign) \
                and isinstance(stmt.orelse[0], ast.Assign) \
                and i + 1 < len(stmts) \
                and isinstance(stmts[i + 1], ast.Break):
            taken = self._exit_pc(stmt.body[0])
            fall = self._exit_pc(stmt.orelse[0])
            self.events.append(CondTerm(
                cond=self.lift_bool(stmt.test), taken=taken, fall=fall,
                state=self.state()))
            self.terminated = True
            return i + 2
        raise TvStructureError(
            f"unrecognised conditional `{ast.dump(stmt)[:100]}`")

    def _exit_branch(self, body: List[ast.stmt]) \
            -> Optional[Tuple[Optional[ast.Assign], int, State]]:
        """``[f = E;] [regs[i] = r<i>;]* [x += R * k;]* cpu.pc = N;
        break`` -> (formula, N, exit state).

        Every exit must write back each register local it leaves
        changed.  A deferred loop's exit accounts instret, cycles and
        charge at the trip bound's rates; an eager block's never does."""
        if len(body) < 2 or not isinstance(body[-1], ast.Break) \
                or not isinstance(body[-2], ast.Assign) \
                or not _is_cpu_attr(body[-2].targets[0], "pc"):
            return None
        target = self._exit_pc(body[-2])
        stmts = body[:-2]
        formula: Optional[ast.Assign] = None
        flags = self.f
        first = stmts[0] if stmts else None
        if isinstance(first, ast.Assign) and len(first.targets) == 1 \
                and _is_name(first.targets[0], "f"):
            formula = first
            flags = self.lift_expr(first.value)
            stmts = stmts[1:]
        regs = list(self.regs)
        rates: Dict[str, int] = {}
        for stmt in stmts:
            index = _reg_index(stmt.targets[0]) \
                if isinstance(stmt, ast.Assign) \
                and len(stmt.targets) == 1 else None
            if index is not None and 0 <= index < 8:
                regs[index] = self.lift_expr(stmt.value)
                continue
            rate = _count_rate(stmt)
            if rate is None or rate[0] in rates:
                raise TvStructureError(
                    f"exit to {target:#x}: unexpected "
                    f"`{ast.dump(stmt)[:80]}`")
            rates[rate[0]] = rate[1]
        for index, value in self.reg_locals.items():
            if regs[index] != value:
                raise TvStructureError(
                    f"exit to {target:#x} does not write r{index} back")
        if not self.deferred:   # then no exit has ``x += R * k``
            return formula, target, replace(self.state(), flags=flags,
                                            regs=tuple(regs))
        assert self.trip is not None
        insns, cycles = self.trip
        want = {"ir": insns, "cy": cycles, "chg": cycles}
        if rates != want:
            raise TvStructureError(
                f"exit to {target:#x} accounts {rates} per iteration; "
                f"the trip bound paces {want}")
        ir, cy, chg = self.accounted()
        return formula, target, State(regs=tuple(regs), flags=flags,
                                      ir=ir, cy=cy, chg=chg)

    @staticmethod
    def _exit_pc(stmt: ast.stmt) -> int:
        assert isinstance(stmt, ast.Assign)
        if len(stmt.targets) != 1 \
                or not _is_cpu_attr(stmt.targets[0], "pc"):
            raise TvStructureError("exit edge does not assign cpu.pc")
        value = _int_const(stmt.value)
        if value is None:
            raise TvStructureError("exit PC is not a constant")
        return value

    def _match_smc(self, stmt: ast.If) -> Optional[Tuple[int, int]]:
        test = stmt.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.NotEq)):
            return None
        left = test.left
        if not (isinstance(left, ast.Subscript)
                and _is_name(left.value, "gens")):
            return None
        index = left.slice
        if isinstance(index, ast.Index):  # Python < 3.9 compatibility
            index = index.value  # type: ignore[attr-defined]
        page = _int_const(index)
        generation = _int_const(test.comparators[0])
        if page is None or generation is None:
            return None
        if len(stmt.body) != 1 or not isinstance(stmt.body[0], ast.Break) \
                or stmt.orelse:
            raise TvStructureError("malformed SMC generation check")
        return page, generation

    def _match_pacing(self, stmt: ast.If) -> bool:
        """``if k == n:`` + an exit to the entry: the trip count is done.

        The trip bound (see :func:`_trip_bound`) is the dispatcher's
        pacing inequality; here its (instructions, cycles) must be what
        one iteration accounts: in an eager body, ``ir``/``cy`` at the
        back-edge; in a deferred loop, each exit's rates (checked with
        the branch).  ``k`` must advance exactly once per iteration."""
        test = stmt.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and _is_name(test.left, "k")
                and _is_name(test.comparators[0], "n")):
            return False
        if self.trip is None:
            raise TvStructureError("iteration check without a trip bound")
        branch = self._exit_branch(stmt.body)
        if branch is None or stmt.orelse:
            raise TvStructureError("malformed pacing check")
        if self.iterations != 1:
            raise TvStructureError(
                f"the iteration count advances {self.iterations} times "
                "per iteration")
        insns, cycles = self.trip
        if not self.deferred and (self.ir, self.cy) != (insns, cycles):
            raise TvStructureError(
                f"the trip bound paces {insns} instructions and {cycles}"
                f" cycles per iteration; the body accounts {self.ir} and "
                f"{self.cy}")
        self.pacing_formula, exit_pc, state = branch
        self.pacing_flags = state.flags
        self.pacing = Pacing(insns=insns, cycles=cycles, exit_pc=exit_pc)
        return True

    # -- assignments -------------------------------------------------------

    def _assign(self, stmts: List[ast.stmt], i: int,
                stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            raise TvStructureError("multi-target assignment")
        target = stmt.targets[0]
        if isinstance(target, ast.Tuple):
            self._tuple_assign(target, stmt.value)
            return
        if isinstance(target, ast.Name):
            name = target.id
            if name == "f":
                if _is_cpu_attr(stmt.value, "flags"):
                    self.f = self.cpu_flags
                else:
                    self.f = self.lift_expr(stmt.value)
                return
            if name == "saved":
                value = _int_const(stmt.value)
                if value is None:
                    raise TvStructureError("saved PC is not a constant")
                self.saved = value
                return
            if name in ("a", "b"):
                # ALU operands: a register or a 32-bit constant.
                value = _int_const(stmt.value)
                if _reg_index(stmt.value) is None \
                        and _local_index(stmt.value) not in self.reg_locals \
                        and not (value is not None
                                 and 0 <= value <= sema.MASK32):
                    raise TvStructureError(
                        f"`{name}` is not a register or 32-bit constant")
            if name in ("a", "b", "t", "m"):
                self.locals[name] = self.lift_expr(stmt.value)
                return
            if _local_index(target) in self.reg_locals:
                self.reg_locals[_local_index(target)] = \
                    self.lift_expr(stmt.value)
                return
            raise TvStructureError(f"assignment to unexpected `{name}`")
        index = _reg_index(target)
        if index is not None:
            if not 0 <= index < 8:
                raise TvStructureError(f"register index {index} out of range")
            self.regs[index] = self.lift_expr(stmt.value)
            return
        if _is_cpu_attr(target, "flags"):
            if not _is_name(stmt.value, "f"):
                raise TvStructureError("cpu.flags committed from non-`f`")
            self.cpu_flags = self.f
            return
        if _is_cpu_attr(target, "instret"):
            if not _is_name(stmt.value, "ir"):
                raise TvStructureError("cpu.instret committed from non-`ir`")
            self.committed_ir = self.ir
            return
        if _is_cpu_attr(target, "cycle_count"):
            if not _is_name(stmt.value, "cy"):
                raise TvStructureError(
                    "cpu.cycle_count committed from non-`cy`")
            self.committed_cy = self.cy
            return
        if _is_cpu_attr(target, "pc"):
            value = _int_const(stmt.value)
            if value is None:
                raise TvStructureError("cpu.pc set to a non-constant")
            self.committed_pc = value
            return
        raise TvStructureError(
            f"unsupported assignment target `{ast.dump(target)[:80]}`")

    def _tuple_assign(self, target: ast.Tuple, value: ast.expr) -> None:
        if not isinstance(value, ast.Tuple) \
                or len(target.elts) != len(value.elts):
            raise TvStructureError("malformed tuple assignment")
        slots: List[Tuple[Any, int]] = []
        for element in target.elts:
            index = _reg_index(element)
            if index is not None and 0 <= index < 8:
                slots.append((self.regs, index))
            elif _local_index(element) in self.reg_locals:
                slots.append((self.reg_locals, _local_index(element)))
            else:
                raise TvStructureError("tuple assignment to non-register")
        new = [self.lift_expr(element) for element in value.elts]
        for (slot, index), expr in zip(slots, new):
            slot[index] = expr

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        if not isinstance(stmt.op, ast.Add) \
                or not isinstance(stmt.target, ast.Name):
            raise TvStructureError("unsupported augmented assignment")
        amount = _int_const(stmt.value)
        if amount is None:
            raise TvStructureError("counter increment is not a constant")
        name = stmt.target.id
        if name == "k":
            if self.trip is None or amount != 1:
                raise TvStructureError(
                    "iteration count without a trip bound, or not by 1")
            self.iterations += 1
        elif self.deferred:
            raise TvStructureError(
                f"`{name} += {amount}` in a loop that accounts at its "
                "exits")
        elif name == "ir":
            self.ir += amount
        elif name == "cy":
            self.cy += amount
        elif name == "chg":
            self.chg += amount
        else:
            raise TvStructureError(f"augmented assignment to `{name}`")

    # -- handler dispatch --------------------------------------------------

    def _handler_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Name) or not func.id.startswith("h"):
            raise TvStructureError(
                f"unexpected call `{ast.dump(call)[:80]}`")
        try:
            index = int(func.id[1:])
        except ValueError:
            raise TvStructureError(f"unexpected call to `{func.id}`") \
                from None
        if index != self.handler_index:
            raise TvStructureError(
                f"handler h{index} called out of order "
                f"(expected h{self.handler_index})")
        if index >= len(self.handlers):
            raise TvStructureError(f"handler h{index} has no binding")
        if len(call.args) != 1 or call.keywords \
                or not _is_name(call.args[0], f"o{index}"):
            raise TvStructureError(
                f"handler h{index} not called with o{index}")
        if self.pending_flush is None:
            raise TvStructureError(
                f"no budget flush before handler h{index}")
        if self.deferred:
            raise TvStructureError(
                f"handler h{index} in a loop that accounts at its exits")
        self.events.append(Barrier(
            flags=self.cpu_flags, ir=self.committed_ir,
            cy=self.committed_cy, chg=self.pending_flush,
            saved=self.saved, next_pc=self.committed_pc,
            regs=tuple(self.regs)))
        self.pending_flush = None
        self.events.append(HandlerCall(index=index))
        name, operands = self.handlers[index]
        mnemonic = name[4:].upper()
        for written in sema.handler_written_regs(mnemonic, operands):
            self.regs[written] = sema.havoc_reg(index, written)
        if mnemonic in sema.HANDLER_WRITES_FLAGS:
            self.cpu_flags = sema.havoc_flags(index)
        self.handler_index += 1


# -- skeleton ----------------------------------------------------------------


def _trip_bound(stmts: List[ast.stmt]) -> Tuple[int, int]:
    """Pop the trip bound and ``k = 0``; return (instructions, cycles).

    ``n = (li - ir) // N`` then ``if lc - cy < C * n: n = (lc - cy) //
    C`` is ``n = min((li - ir) // N, (lc - cy) // C)``: the most whole
    iterations with ``ir + N*n <= li`` and ``cy + C*n <= lc``, the
    dispatcher's pacing inequality.  With ``lc`` infinite the cycle
    term never binds, so ``n`` stays an integer."""
    if len(stmts) < 3:
        raise TvStructureError("loop without a trip bound")
    first, second = stmts[0], stmts[1]
    insns = _int_const(first.value.right) \
        if isinstance(first, ast.Assign) \
        and isinstance(first.value, ast.BinOp) \
        and isinstance(first.value.op, ast.FloorDiv) else None
    if insns is None or insns <= 0 \
            or not _matches(first, f"n = (li - ir) // {insns}"):
        raise TvStructureError(
            "the trip bound is not `n = (li - ir) // N`, N > 0")
    if not (isinstance(second, ast.If) and isinstance(second.test, ast.Compare)
            and isinstance(second.test.comparators[0], ast.BinOp)
            and len(second.body) == 1
            and isinstance(second.body[0], ast.Assign)
            and isinstance(second.body[0].value, ast.BinOp)):
        raise TvStructureError("the trip bound ignores the cycle limit")
    cycles = _int_const(second.test.comparators[0].left)
    divisor = _int_const(second.body[0].value.right)
    if cycles is None or cycles <= 0 or divisor != cycles:
        raise TvStructureError(
            f"the trip bound's cycle term compares {cycles} cycles per "
            f"iteration but divides by {divisor}")
    _require(second, f"if lc - cy < {cycles} * n:\n"
             f"    n = (lc - cy) // {cycles}", "trip bound")
    _require(stmts[2], "k = 0", "trip bound")
    del stmts[:3]
    return insns, cycles



def _parse_factory(source: str,
                   handler_count: int) -> ast.FunctionDef:
    tree = ast.parse(source)
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        raise TvStructureError("source is not a single factory function")
    factory = tree.body[0]
    if factory.name != "_factory":
        raise TvStructureError(f"factory named `{factory.name}`")
    expected = ["Fault", "GUEST"]
    for index in range(handler_count):
        expected += [f"h{index}", f"o{index}"]
    actual = [arg.arg for arg in factory.args.args]
    if actual != expected:
        raise TvStructureError(
            f"factory parameters {actual} != expected {expected}")
    return factory


def lift_python_block(source: str, handlers: List[Tuple[str, Any]],
                      entry_pc: int) -> LiftedBlock:
    """Lift one generated block; raises :class:`TvStructureError`."""
    factory = _parse_factory(source, len(handlers))
    if len(factory.body) != 2 \
            or not isinstance(factory.body[0], ast.FunctionDef) \
            or not isinstance(factory.body[1], ast.Return) \
            or not _is_name(factory.body[1].value or ast.Name(id=""),
                            "_block"):
        raise TvStructureError("factory body is not `_block` + return")
    block = factory.body[0]
    if block.name != "_block" \
            or [arg.arg for arg in block.args.args] != ["cpu"]:
        raise TvStructureError("inner function is not `_block(cpu)`")

    stmts = list(block.body)
    for line in _PREAMBLE:
        if not stmts:
            raise TvStructureError("preamble truncated")
        _require(stmts.pop(0), line, "preamble")
    binds_irq = bool(stmts) and _matches(stmts[0], "irq = cpu.irq_source")
    if binds_irq:
        stmts.pop(0)
    binds_gens = bool(stmts) \
        and _matches(stmts[0], "gens = cpu.memory.page_gens")
    if binds_gens:
        stmts.pop(0)
    binds_limits = bool(stmts) \
        and _matches(stmts[0], "li = cpu.block_instret_limit")
    trip: Optional[Tuple[int, int]] = None
    reg_locals: List[int] = []
    if binds_limits:
        stmts.pop(0)
        if not stmts:
            raise TvStructureError("preamble truncated")
        _require(stmts.pop(0), "lc = cpu.block_cycle_limit", "preamble")
        trip = _trip_bound(stmts)
        while stmts and isinstance(stmts[0], ast.Assign) \
                and _local_index(stmts[0].targets[0]) is not None:
            index = _local_index(stmts[0].targets[0])
            assert index is not None
            if index in reg_locals:
                raise TvStructureError(f"r{index} bound twice")
            _require(stmts.pop(0), f"r{index} = regs[{index}]", "preamble")
            reg_locals.append(index)

    if not stmts or not isinstance(stmts[0], ast.Try):
        raise TvStructureError("missing try block")
    try_stmt = stmts.pop(0)
    if len(try_stmt.body) != 1 \
            or not isinstance(try_stmt.body[0], ast.While) \
            or try_stmt.orelse or try_stmt.finalbody:
        raise TvStructureError("try body is not a single while loop")
    loop = try_stmt.body[0]
    test = loop.test
    if not (isinstance(test, ast.Constant) and test.value is True) \
            or loop.orelse:
        raise TvStructureError("loop is not `while True`")
    if len(try_stmt.handlers) != 1:
        raise TvStructureError("expected exactly one except clause")
    handler = try_stmt.handlers[0]
    if handler.type is None or not _is_name(handler.type, "Fault") \
            or handler.name != "fault" \
            or len(handler.body) != len(_EXCEPT_BODY):
        raise TvStructureError("malformed fault handler")
    for stmt, line in zip(handler.body, _EXCEPT_BODY):
        _require(stmt, line, "fault handler")

    if len(stmts) != len(_EPILOGUE):
        raise TvStructureError(
            f"epilogue has {len(stmts)} statements, expected "
            f"{len(_EPILOGUE)}")
    for stmt, line in zip(stmts, _EPILOGUE):
        _require(stmt, line, "epilogue")

    # A loop whose exits account ``R * k`` defers all of its accounting.
    deferred = any(_count_rate(node) is not None for node in ast.walk(loop)
                   if isinstance(node, ast.AugAssign))
    if deferred and trip is None:
        raise TvStructureError("iteration accounting without a trip bound")
    assigned = frozenset(
        index for node in ast.walk(loop)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        for index in (_local_index(node),) if index in reg_locals)
    lifter = _Lifter(handlers, entry_pc, trip, tuple(reg_locals), assigned,
                     deferred)
    lifter.run(list(loop.body))
    return LiftedBlock(events=lifter.events, binds_irq=binds_irq,
                       binds_gens=binds_gens, binds_limits=binds_limits,
                       handler_count=lifter.handler_index)
