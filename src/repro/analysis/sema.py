"""Single-source HX32 semantics for the static-analysis stack.

Before this module, HX32 facts were re-encoded in four places: the CFG
recovery kept its own control-flow classification, the abstract
interpreter its own ALU and memory tables, the check catalogue its own
stack-effect model, and the superblock translator its own inline/handler
split.  This module is now the one place those classifications live;
the other modules import them (the translator keeps its *formula
strings* local — they are the independent encoding the translation
validator checks, see :mod:`repro.analysis.tv`).

It also defines the small symbolic expression IR the translation
validator uses:

* expressions are hashable nested tuples (``("const", 3)``,
  ``("add", a, b)``, ``("cond", test, x, y)``, leaf symbols for the
  block-entry register file and flags and for post-handler havoc);
* :class:`Normalizer` simplifies (constant folding plus canonical
  ordering of commutative chains over hash-consed nodes) and decides
  equality of two expressions; :func:`evaluate` runs an expression
  concretely over unbounded Python ints — exactly the arithmetic the
  generated superblock source performs — and is the plain reference
  that ``Normalizer.evaluate`` is tested against;
* :func:`inline_effect` builds the *reference* effect of one inlined
  instruction, and :func:`branch_conditions` the reference taken /
  not-taken predicates of one conditional branch, in the same algebraic
  shape the translator emits — so a correct block compares equal
  syntactically, while any miscompiled formula diverges and is refuted
  by the concrete battery (:func:`battery_environments`).

The reference semantics here are themselves cross-checked against the
interpreter (``Cpu._alu_*`` and the ``_op_*`` handlers) by
``tests/unit/test_sema.py`` — the differential anchor that keeps this
module honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.hw import isa

Expr = Tuple[Any, ...]

MASK32 = 0xFFFFFFFF
#: ``f & -2242`` clears CF|ZF|SF|OF (~0x8C1) preserving TF/IF/IOPL.
CLEAR_ARITH_FLAGS = -2242

# ---------------------------------------------------------------------------
# Shared instruction classification (imported by cfg, absint, checks,
# interproc and the superblock translator)
# ---------------------------------------------------------------------------

#: Control transfers with *no* sequential successor.
NO_FALL: FrozenSet[str] = frozenset({"JMP", "RET", "IRET", "JMPR"})

#: Conditional branches (target + fall-through).
CONDITIONAL_BRANCHES: FrozenSet[str] = frozenset({
    "JZ", "JNZ", "JC", "JNC", "JG", "JGE", "JL", "JLE", "JS", "JNS"})

#: Anything that transfers control (ends a basic block).
CONTROL_MNEMONICS: FrozenSet[str] = \
    NO_FALL | CONDITIONAL_BRANCHES | frozenset({"CALL", "CALLR"})

#: Pure register/flag transforms the translator inlines (cannot fault,
#: cannot touch memory/devices, cannot change privilege state).
INLINE: FrozenSet[str] = frozenset({
    "NOP", "MOVI", "MOV", "LEA", "XCHG",
    "ADD", "ADDI", "SUB", "SUBI", "AND", "ANDI", "OR", "ORI",
    "XOR", "XORI", "SHL", "SHLI", "SHR", "SHRI", "MUL", "MULI",
    "DIVI",  # immediate != 0 only; DIVI #0 ends the trace instead
    "CMP", "CMPI", "TEST", "NOT", "NEG",
})

#: Instructions the translator runs through their bound interpreter
#: handler (they can fault or touch memory/MMIO).
HANDLER: FrozenSet[str] = frozenset({
    "LD", "LD8", "LD16", "ST", "ST8", "ST16", "PUSH", "PUSHI", "POP",
    "DIV",
})

#: Handler instructions that access memory (an MMIO side effect may
#: raise an interrupt; acceptance must happen at the next boundary).
MEMORY: FrozenSet[str] = frozenset({
    "LD", "LD8", "LD16", "ST", "ST8", "ST16", "PUSH", "PUSHI", "POP"})

#: Handler instructions that can write memory (self-modifying-code
#: hazard for the remainder of the block).
STORE: FrozenSet[str] = frozenset({"ST", "ST8", "ST16", "PUSH", "PUSHI"})

#: Mnemonics that end a superblock trace with a branch.
TERMINATORS: FrozenSet[str] = CONDITIONAL_BRANCHES | frozenset({"JMP"})

#: Store/load widths by mnemonic.
STORE_WIDTH: Dict[str, int] = {"ST": 4, "ST16": 2, "ST8": 1}
LOAD_WIDTH: Dict[str, int] = {"LD": 4, "LD16": 2, "LD8": 1}
WIDTH_MASK: Dict[int, int] = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}

#: Register-register / register-immediate ALU transfer functions (the
#: abstract interpreter's value-set maps).  Unbounded-int semantics;
#: callers mask to 32 bits through the lattice.
ALU_RR: Dict[str, Any] = {
    "ADD": lambda a, b: a + b,
    "SUB": lambda a, b: a - b,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "SHL": lambda a, b: a << (b & 31),
    "SHR": lambda a, b: a >> (b & 31),
    "MUL": lambda a, b: a * b,
}
ALU_RI: Dict[str, Any] = {
    "ADDI": lambda a, b: a + b,
    "SUBI": lambda a, b: a - b,
    "ANDI": lambda a, b: a & b,
    "ORI": lambda a, b: a | b,
    "XORI": lambda a, b: a ^ b,
    "SHLI": lambda a, b: a << (b & 31),
    "SHRI": lambda a, b: a >> (b & 31),
    "MULI": lambda a, b: a * b,
}

#: Instructions that leave every register except SP unknown afterwards.
HAVOC_MNEMONICS: FrozenSet[str] = frozenset({"INT", "VMCALL"})

ALL_GPRS: FrozenSet[int] = frozenset(range(isa.NUM_GPRS))


def regs_written(mnemonic: str, ops: Any) -> FrozenSet[int]:
    """General registers an instruction may write (architectural view).

    ``INT``/``VMCALL``/``IRET`` return every GPR except SP — the
    handler-clobber assumption the abstract interpreter also makes.
    """
    if mnemonic in ("MOVI", "ADDI", "SUBI", "ANDI", "ORI", "XORI",
                    "SHLI", "SHRI", "MULI", "DIVI"):
        return frozenset({ops[0]})
    if mnemonic in ("MOV", "ADD", "SUB", "AND", "OR", "XOR", "SHL",
                    "SHR", "MUL", "DIV"):
        return frozenset({ops[0]})
    if mnemonic in ("LD", "LD8", "LD16", "LEA"):
        return frozenset({ops[0]})
    if mnemonic == "XCHG":
        return frozenset({ops[0], ops[1]})
    if mnemonic in ("NOT", "NEG"):
        return frozenset({ops})
    if mnemonic == "POP":
        return frozenset({ops, isa.REG_SP})
    if mnemonic in ("PUSH", "PUSHI", "PUSHF", "POPF"):
        return frozenset({isa.REG_SP})
    if mnemonic in ("MOVRC", "MOVSGR"):
        return frozenset({ops[1]})
    if mnemonic in ("INB", "INW"):
        return frozenset({ops[0]})
    if mnemonic == "RET":
        return frozenset({isa.REG_SP})
    if mnemonic in HAVOC_MNEMONICS or mnemonic == "IRET":
        return ALL_GPRS - {isa.REG_SP}
    return frozenset()


def writes_sp(mnemonic: str, ops: Any) -> bool:
    """Does this instruction re-point SP directly (not push/pop-style)?"""
    if mnemonic in ("MOVI", "ADDI", "SUBI", "ANDI", "ORI", "XORI",
                    "SHLI", "SHRI", "MULI", "DIVI"):
        return bool(ops[0] == isa.REG_SP)
    if mnemonic in ("MOV", "ADD", "SUB", "AND", "OR", "XOR", "SHL",
                    "SHR", "MUL", "DIV"):
        return bool(ops[0] == isa.REG_SP)
    if mnemonic == "XCHG":
        return isa.REG_SP in ops
    if mnemonic in ("LD", "LD16", "LD8", "LEA"):
        return bool(ops[0] == isa.REG_SP)
    if mnemonic in ("NOT", "NEG", "POP"):
        return bool(ops == isa.REG_SP)
    return False


def stack_delta(mnemonic: str, ops: Any) -> Optional[int]:
    """Net stack growth in bytes, or ``None`` when SP is re-pointed.

    Positive means the stack grew (SP moved down).  ``CALL`` is 0 here:
    the pushed return address is popped by the callee's ``RET`` under
    the balanced-call assumption; per-function imbalance is what AN012
    reports.  ``RET`` is -4 (it pops the return address).
    """
    if mnemonic in ("PUSH", "PUSHI", "PUSHF"):
        return 4
    if mnemonic in ("POP", "POPF"):
        return -4
    if mnemonic in ("ADDI", "SUBI") and ops[0] == isa.REG_SP:
        return int(ops[1]) if mnemonic == "SUBI" else -int(ops[1])
    if mnemonic == "RET":
        return -4
    if writes_sp(mnemonic, ops):
        return None
    return 0


def handler_written_regs(mnemonic: str, ops: Any) -> Tuple[int, ...]:
    """Registers a handler-executed instruction writes, in havoc order.

    Both translation-validator lifters use this to introduce identical
    fresh symbols after a handler call.
    """
    if mnemonic in ("LD", "LD8", "LD16"):
        return (ops[0],)
    if mnemonic in ("ST", "ST8", "ST16"):
        return ()
    if mnemonic in ("PUSH",):
        return (isa.REG_SP,)
    if mnemonic == "PUSHI":
        return (isa.REG_SP,)
    if mnemonic == "POP":
        return (ops, isa.REG_SP)
    if mnemonic == "DIV":
        return (ops[0],)
    raise ValueError(f"not a handler mnemonic: {mnemonic}")


#: Handler instructions that rewrite FLAGS (the generated block reloads
#: its local ``f`` from ``cpu.flags`` afterwards).
HANDLER_WRITES_FLAGS: FrozenSet[str] = frozenset({"DIV"})


# ---------------------------------------------------------------------------
# Symbolic expression IR
# ---------------------------------------------------------------------------

#: Leaf node kinds (their value comes from an environment).
_LEAVES = ("init-reg", "init-flags", "hreg", "hflags")

#: Commutative-associative operators canonicalised by Normalizer.simplify().
_COMMUTATIVE = ("add", "and", "or", "xor", "mul")

_BINOPS: Dict[str, Any] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b,
    "shr": lambda a, b: a >> b,
    "mul": lambda a, b: a * b,
    "floordiv": lambda a, b: a // b,
}


def const(value: int) -> Expr:
    return ("const", value)


def reg(index: int) -> Expr:
    """The value of register ``index`` at block entry."""
    return ("init-reg", index)


FLAGS: Expr = ("init-flags",)


def havoc_reg(event: int, index: int) -> Expr:
    """Register ``index`` right after handler event ``event`` (fresh)."""
    return ("hreg", event, index)


def havoc_flags(event: int) -> Expr:
    """FLAGS right after handler event ``event`` (fresh)."""
    return ("hflags", event)


class SemaError(Exception):
    """An expression the IR cannot represent or evaluate."""


def evaluate(expr: Expr, env: Mapping[Expr, int]) -> int:
    """Run an expression concretely over unbounded Python ints."""
    op = expr[0]
    if op == "const":
        return int(expr[1])
    if op in _LEAVES:
        return env[expr]
    if op in _BINOPS:
        return int(_BINOPS[op](evaluate(expr[1], env),
                               evaluate(expr[2], env)))
    if op == "invert":
        return ~evaluate(expr[1], env)
    if op == "neg":
        return -evaluate(expr[1], env)
    if op == "cond":
        branch = expr[2] if evaluate_bool(expr[1], env) else expr[3]
        return evaluate(branch, env)
    raise SemaError(f"cannot evaluate {expr!r}")


def evaluate_bool(expr: Expr, env: Mapping[Expr, int]) -> bool:
    """Evaluate a boolean (condition) expression."""
    op = expr[0]
    if op == "truthy":
        return evaluate(expr[1], env) != 0
    if op == "not":
        return not evaluate_bool(expr[1], env)
    if op == "or-b":
        return evaluate_bool(expr[1], env) or evaluate_bool(expr[2], env)
    if op == "and-b":
        return evaluate_bool(expr[1], env) and evaluate_bool(expr[2], env)
    if op == "lt":
        return evaluate(expr[1], env) < evaluate(expr[2], env)
    if op == "eq0":
        return evaluate(expr[1], env) == 0
    raise SemaError(f"cannot evaluate condition {expr!r}")


def _sort_key(expr: Expr) -> str:
    return repr(expr)


# ---------------------------------------------------------------------------
# Hash-consing normaliser (simplify, evaluate, equal)
# ---------------------------------------------------------------------------


class Normalizer:
    """Memoising, hash-consing simplifier, evaluator and equality test.

    The tuple IR is a tree; expressions produced by symbolically
    executing a whole superblock share subterms heavily (every flag
    formula references the register expressions before it), and a
    naive structural walk is exponential on chains like repeated
    ``ADD R0, R0``.  A ``Normalizer`` interns every simplified node so
    structurally equal terms are the *same object*: simplification and
    evaluation memoise by ``id``, equality of canonical forms is
    ``is``, and commutative canonical ordering uses the intern serial
    number (a total order over interned nodes, identical for both
    lifted sides because they share the instance).

    Both expressions of a comparison must be simplified by the same
    ``Normalizer`` for the identity check to be meaningful.

    Besides constant folding and canonical ordering of commutative
    chains, one rule prunes masks: in ``(x | y) & c`` an
    or-term ``y`` whose every possible bit is cleared by ``c`` is
    dropped (bit bounds from :meth:`_bound`, leaves being 32-bit
    register values).  A flag formula the translator drops because the
    next one overwrites it then canonicalises like the reference
    chain that still computes it: ``((f & c) | r1) & c`` is ``f & c``.
    """

    def __init__(self) -> None:
        #: intern key -> canonical node (children keyed by identity).
        self._nodes: Dict[Tuple[Any, ...], Expr] = {}
        #: id(canonical node) -> creation serial (canonical sort order).
        self._serials: Dict[int, int] = {}
        #: id(input expr) -> canonical node.
        self._simplified: Dict[int, Expr] = {}
        #: Keeps inputs alive so their ids are not reused.
        self._pinned: List[Expr] = []
        #: id(canonical node) -> bit bound (see :meth:`_bound`).
        self._bounds: Dict[int, Optional[int]] = {}

    def node(self, op: str, *children: Any) -> Expr:
        """Interning constructor; tuple children must be canonical."""
        key = (op,) + tuple(
            id(child) if isinstance(child, tuple) else child
            for child in children)
        got = self._nodes.get(key)
        if got is None:
            got = (op,) + children
            self._nodes[key] = got
            self._serials[id(got)] = len(self._serials)
            self._simplified[id(got)] = got  # canonical = fixpoint
        return got

    def _serial(self, expr: Expr) -> int:
        return self._serials[id(expr)]

    def _flatten(self, op: str, expr: Expr) -> List[Expr]:
        terms: List[Expr] = []
        while isinstance(expr, tuple) and expr[0] == op:
            terms.append(expr[2])
            expr = expr[1]
        terms.append(expr)
        terms.reverse()
        return terms

    def simplify(self, expr: Expr) -> Expr:
        """Canonicalise: fold constants, order commutative chains by
        intern serial, prune masked or-terms."""
        got = self._simplified.get(id(expr))
        if got is not None:
            return got
        out = self._simplify(expr)
        self._simplified[id(expr)] = out
        self._pinned.append(expr)
        return out

    def _simplify(self, expr: Expr) -> Expr:
        op = expr[0]
        if op == "const":
            return self.node("const", int(expr[1]))
        if op == "const-b":
            return self.node("const-b", bool(expr[1]))
        if op in _LEAVES:
            return self.node(*expr)
        if op in ("truthy", "not", "invert", "neg", "eq0"):
            inner = self.simplify(expr[1])
            if inner[0] == "const":
                value = int(inner[1])
                if op == "truthy":
                    return self.node("const-b", value != 0)
                if op == "eq0":
                    return self.node("const-b", value == 0)
                if op == "invert":
                    return self.node("const", ~value)
                if op == "neg":
                    return self.node("const", -value)
            if op == "not" and inner[0] == "const-b":
                return self.node("const-b", not inner[1])
            return self.node(op, inner)
        if op == "lt":
            a, b = self.simplify(expr[1]), self.simplify(expr[2])
            if a[0] == "const" and b[0] == "const":
                return self.node("const-b", int(a[1]) < int(b[1]))
            return self.node(op, a, b)
        if op in ("or-b", "and-b"):
            return self.node(op, self.simplify(expr[1]),
                             self.simplify(expr[2]))
        if op == "cond":
            test = self.simplify(expr[1])
            then, other = self.simplify(expr[2]), self.simplify(expr[3])
            if test[0] == "const-b":
                return then if test[1] else other
            return self.node("cond", test, then, other)
        if op in _BINOPS:
            a, b = self.simplify(expr[1]), self.simplify(expr[2])
            if a[0] == "const" and b[0] == "const":
                return self.node(
                    "const", int(_BINOPS[op](int(a[1]), int(b[1]))))
            if op in _COMMUTATIVE:
                terms = self._flatten(op, a) + self._flatten(op, b)
                constants = [int(t[1]) for t in terms if t[0] == "const"]
                symbolic = sorted(
                    (t for t in terms if t[0] != "const"),
                    key=self._serial)
                if constants:
                    folded = constants[0]
                    for value in constants[1:]:
                        folded = int(_BINOPS[op](folded, value))
                    if op == "and":
                        pruned = self._prune_masked(symbolic, folded)
                        if pruned is not None:
                            return self.simplify(pruned)
                    symbolic = symbolic + [self.node("const", folded)]
                out = symbolic[0]
                for term in symbolic[1:]:
                    out = self.node(op, out, term)
                return out
            return self.node(op, a, b)
        raise SemaError(f"cannot simplify {expr!r}")

    def _prune_masked(self, terms: List[Expr],
                      mask: int) -> Optional[Expr]:
        """``terms & mask`` without the or-terms ``mask`` clears, or
        None when there are none."""
        changed = False
        out: Expr = self.node("const", mask)
        for term in terms:
            if term[0] == "or":
                parts = self._flatten("or", term)
                kept = [part for part in parts
                        if self._bound(part) is None
                        or self._bound(part) & mask]
                if len(kept) < len(parts):
                    changed = True
                    term = kept[0] if kept else self.node("const", 0)
                    for part in kept[1:]:
                        term = ("or", term, part)
            out = ("and", out, term)
        return out if changed else None

    def _bound(self, expr: Expr) -> Optional[int]:
        """A mask holding every bit ``expr`` can set, or None when it
        may be negative or is not bounded by these rules."""
        key = id(expr)
        if key in self._bounds:
            return self._bounds[key]
        op = expr[0]
        bound: Optional[int] = None
        if op == "const":
            bound = expr[1] if expr[1] >= 0 else None
        elif op in _LEAVES:
            bound = MASK32
        elif op in ("and", "or", "xor", "add", "shr", "floordiv", "cond"):
            left, right = [self._bound(child) for child in expr[-2:]]
            if op == "and":
                known = [b for b in (left, right) if b is not None]
                bound = known[0] & known[-1] if known else None
            elif left is None or right is None:
                bound = None
            elif op == "add":
                bound = (1 << (left + right).bit_length()) - 1
            elif op == "shr":
                bound = left >> expr[2][1] if expr[2][0] == "const" \
                    else left
            elif op == "floordiv":
                bound = left
            else:  # or, xor, cond
                bound = left | right
        self._bounds[key] = bound
        return bound

    def leaves(self, expr: Expr) -> List[Expr]:
        """Distinct leaf symbols of a canonical DAG (shared-aware)."""
        seen: set = set()
        out: List[Expr] = []
        stack = [expr]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            op = node[0]
            if op in _LEAVES:
                out.append(node)
            elif op not in ("const", "const-b"):
                for child in node[1:]:
                    if isinstance(child, tuple):
                        stack.append(child)
        return out

    def evaluate(self, expr: Expr, env: Mapping[Expr, int],
                 memo: Dict[int, Any]) -> int:
        got = memo.get(id(expr))
        if got is not None:
            return int(got)
        op = expr[0]
        if op == "const":
            value = int(expr[1])
        elif op in _LEAVES:
            value = env[expr]
        elif op in _BINOPS:
            value = int(_BINOPS[op](self.evaluate(expr[1], env, memo),
                                    self.evaluate(expr[2], env, memo)))
        elif op == "invert":
            value = ~self.evaluate(expr[1], env, memo)
        elif op == "neg":
            value = -self.evaluate(expr[1], env, memo)
        elif op == "cond":
            branch = expr[2] \
                if self.evaluate_bool(expr[1], env, memo) else expr[3]
            value = self.evaluate(branch, env, memo)
        else:
            raise SemaError(f"cannot evaluate {expr!r}")
        memo[id(expr)] = value
        return value

    def evaluate_bool(self, expr: Expr, env: Mapping[Expr, int],
                      memo: Dict[int, Any]) -> bool:
        got = memo.get(id(expr))
        if got is not None:
            return bool(got)
        op = expr[0]
        if op == "const-b":
            value = bool(expr[1])
        elif op == "truthy":
            value = self.evaluate(expr[1], env, memo) != 0
        elif op == "not":
            value = not self.evaluate_bool(expr[1], env, memo)
        elif op == "or-b":
            value = self.evaluate_bool(expr[1], env, memo) \
                or self.evaluate_bool(expr[2], env, memo)
        elif op == "and-b":
            value = self.evaluate_bool(expr[1], env, memo) \
                and self.evaluate_bool(expr[2], env, memo)
        elif op == "lt":
            value = self.evaluate(expr[1], env, memo) \
                < self.evaluate(expr[2], env, memo)
        elif op == "eq0":
            value = self.evaluate(expr[1], env, memo) == 0
        else:
            raise SemaError(f"cannot evaluate condition {expr!r}")
        memo[id(expr)] = value
        return value

    def _eq0_operands(self, *exprs: Expr) -> List[Expr]:
        """Operands of every ``eq0`` node reachable from the roots."""
        seen: set = set()
        out: List[Expr] = []
        stack = [expr for expr in exprs]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node[0] == "eq0":
                out.append(node[1])
            if node[0] not in ("const", "const-b"):
                for child in node[1:]:
                    if isinstance(child, tuple):
                        stack.append(child)
        return out

    def invert(self, expr: Expr,
               target: int) -> Optional[Dict[Expr, int]]:
        """Best-effort leaf assignment making ``expr`` evaluate near
        ``target`` — a one-chain constraint solver for the shapes the
        translator emits (leaf composed with constants).  The result is
        only used to *direct* extra refutation environments, so a miss
        (chains the solver cannot invert, or 32-bit truncation at the
        leaf) is harmless."""
        op = expr[0]
        if op in _LEAVES:
            return {expr: target & MASK32}
        if op == "neg":
            return self.invert(expr[1], -target)
        if op == "invert":
            return self.invert(expr[1], ~target)
        if op not in _BINOPS or len(expr) != 3:
            return None
        a, b = expr[1], expr[2]
        if isinstance(b, tuple) and b[0] == "const":
            x, c = a, int(b[1])
        elif isinstance(a, tuple) and a[0] == "const":
            if op == "sub":  # c - x == target
                return self.invert(b, int(a[1]) - target)
            x, c = b, int(a[1])
        else:
            return None
        if not isinstance(x, tuple):
            return None
        if op == "add":
            return self.invert(x, target - c)
        if op == "sub":
            return self.invert(x, target + c)
        if op == "xor":
            return self.invert(x, target ^ c)
        if op == "and":
            if target & ~c:
                return None
            return self.invert(x, target)
        if op == "or":
            if target & c != c:
                return None
            return self.invert(x, target)
        if op == "shl":
            if (target >> c) << c != target:
                return None
            return self.invert(x, target >> c)
        if op == "shr":
            return self.invert(x, target << c)
        if op == "mul":
            if not c or target % c:
                return None
            return self.invert(x, target // c)
        if op == "floordiv":
            return self.invert(x, target * c)
        return None

    def equal(self, a: Expr, b: Expr,
              boolean: bool = False) -> Tuple[bool, str,
                                              Optional[Dict[Expr, int]]]:
        """Decide equivalence of two expressions.

        Returns ``(equal, how, witness)`` where ``how`` is
        ``"syntactic"`` (canonical forms are the same node — a proof),
        ``"concrete"`` (they differ but every battery environment
        agrees), or ``"refuted"`` with the counterexample environment
        as ``witness``.
        """
        na, nb = self.simplify(a), self.simplify(b)
        if na is nb:
            return True, "syntactic", None
        symbols = self.leaves(na) + self.leaves(nb)
        environments = battery_environments(symbols)
        # Condition-directed probes: the generic battery rarely lands
        # on derived zeros (e.g. a ZF term needing r1 == -3), so for
        # every ``x == 0`` condition, invert x's constant chain and
        # force that environment explicitly.
        for operand in self._eq0_operands(na, nb):
            assignment = self.invert(operand, 0)
            if assignment:
                for base in (0, 1, 3, 0xFFFFFFFF):
                    env = {leaf: base for leaf in symbols}
                    env.update(assignment)
                    environments.append(env)
        for env in environments:
            memo: Dict[int, Any] = {}
            if boolean:
                va: Any = self.evaluate_bool(na, env, memo)
                vb: Any = self.evaluate_bool(nb, env, memo)
            else:
                va = self.evaluate(na, env, memo)
                vb = self.evaluate(nb, env, memo)
            if va != vb:
                return False, "refuted", env
        return True, "concrete", None


# ---------------------------------------------------------------------------
# Concrete refutation battery
# ---------------------------------------------------------------------------

#: Corner values: flag-bit positions, sign boundaries, carry producers.
_SPECIAL_VALUES: Tuple[int, ...] = (
    0, 1, 2, 3, 4, 31, 32, 63, 64, 127, 128, 255, 256,
    0x7FFF, 0x8000, 0xFFFF, 0x10000,
    0x7FFFFFFE, 0x7FFFFFFF, 0x80000000, 0x80000001,
    0xFFFFFFFE, 0xFFFFFFFF,
    0x12345678, 0x9E3779B9, 0x55555555, 0xAAAAAAAA,
    0x8C1, 0x341, 0x200, 0x3000,
)


def battery_environments(symbols: List[Expr],
                         trials: int = 64) -> List[Dict[Expr, int]]:
    """Deterministic concrete environments over the given leaf symbols.

    The first environments set every symbol to the same corner value
    (guaranteeing zero results for subtract-style ZF paths); the rest
    mix corner values and LCG pseudo-randoms.
    """
    ordered = sorted(set(symbols), key=_sort_key)
    environments: List[Dict[Expr, int]] = []
    for value in (0, 1, 3, 64, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF):
        environments.append({leaf: value for leaf in ordered})
    state = 0x243F6A88
    for _trial in range(trials):
        env: Dict[Expr, int] = {}
        for leaf in ordered:
            state = (state * 1103515245 + 12345) & 0xFFFFFFFF
            if state % 3:
                env[leaf] = _SPECIAL_VALUES[
                    (state >> 8) % len(_SPECIAL_VALUES)]
            else:
                env[leaf] = (state * 2654435761) & MASK32
        environments.append(env)
    return environments


# ---------------------------------------------------------------------------
# Reference instruction semantics (inline tier)
# ---------------------------------------------------------------------------


@dataclass
class InsnEffect:
    """Symbolic effect of one inlined instruction."""

    #: Register writes applied simultaneously: index -> new value.
    regs: Dict[int, Expr] = field(default_factory=dict)
    #: New FLAGS expression; ``None`` leaves FLAGS unchanged.
    flags: Optional[Expr] = None


def _or_chain(*terms: Expr) -> Expr:
    out = terms[0]
    for term in terms[1:]:
        out = ("or", out, term)
    return out


def _flags_add(f: Expr, a: Expr, b: Expr, t: Expr, m: Expr) -> Expr:
    """``Cpu._alu_add`` flags, in the translator's algebraic shape."""
    return _or_chain(
        ("and", f, const(CLEAR_ARITH_FLAGS)),
        ("shr", t, const(32)),
        ("and", ("shr", m, const(24)), const(128)),
        ("shr", ("and", ("and", ("xor", a, m), ("xor", b, m)),
                 const(2147483648)), const(20)),
        ("cond", ("eq0", m), const(64), const(0)))


def _flags_sub(f: Expr, a: Expr, b: Expr, m: Expr) -> Expr:
    """``Cpu._alu_sub`` flags, in the translator's algebraic shape."""
    return _or_chain(
        ("and", f, const(CLEAR_ARITH_FLAGS)),
        ("cond", ("lt", a, b), const(1), const(0)),
        ("and", ("shr", m, const(24)), const(128)),
        ("shr", ("and", ("and", ("xor", a, b), ("xor", a, m)),
                 const(2147483648)), const(20)),
        ("cond", ("eq0", m), const(64), const(0)))


def _flags_logic(f: Expr, m: Expr) -> Expr:
    """``Cpu._alu_logic`` flags (CF=OF=0, ZF/SF from the result)."""
    return _or_chain(
        ("and", f, const(CLEAR_ARITH_FLAGS)),
        ("and", ("shr", m, const(24)), const(128)),
        ("cond", ("eq0", m), const(64), const(0)))


def _mask(expr: Expr) -> Expr:
    return ("and", expr, const(MASK32))


def _add_effect(f: Expr, dest: Optional[int], a: Expr, b: Expr) -> InsnEffect:
    t: Expr = ("add", a, b)
    m = _mask(t)
    effect = InsnEffect(flags=_flags_add(f, a, b, t, m))
    if dest is not None:
        effect.regs[dest] = m
    return effect


def _sub_effect(f: Expr, dest: Optional[int], a: Expr, b: Expr) -> InsnEffect:
    m = _mask(("sub", a, b))
    effect = InsnEffect(flags=_flags_sub(f, a, b, m))
    if dest is not None:
        effect.regs[dest] = m
    return effect


def _logic_effect(f: Expr, dest: Optional[int], m: Expr) -> InsnEffect:
    effect = InsnEffect(flags=_flags_logic(f, m))
    if dest is not None:
        effect.regs[dest] = m
    return effect


def inline_effect(mnemonic: str, ops: Any, regs: Tuple[Expr, ...],
                  f: Expr) -> InsnEffect:
    """Reference effect of one inlined instruction.

    ``regs`` is the current symbolic register file, ``f`` the current
    symbolic FLAGS.  Raises :class:`SemaError` for non-inline mnemonics.
    """
    if mnemonic == "NOP":
        return InsnEffect()
    if mnemonic == "MOVI":
        return InsnEffect(regs={ops[0]: const(ops[1])})
    if mnemonic == "MOV":
        return InsnEffect(regs={ops[0]: regs[ops[1]]})
    if mnemonic == "LEA":
        return InsnEffect(
            regs={ops[0]: _mask(("add", regs[ops[1]], const(ops[2])))})
    if mnemonic == "XCHG":
        ra, rb = ops
        return InsnEffect(regs={ra: regs[rb], rb: regs[ra]})
    if mnemonic == "ADD":
        return _add_effect(f, ops[0], regs[ops[0]], regs[ops[1]])
    if mnemonic == "ADDI":
        return _add_effect(f, ops[0], regs[ops[0]], const(ops[1]))
    if mnemonic == "SUB":
        return _sub_effect(f, ops[0], regs[ops[0]], regs[ops[1]])
    if mnemonic == "SUBI":
        return _sub_effect(f, ops[0], regs[ops[0]], const(ops[1]))
    if mnemonic == "CMP":
        return _sub_effect(f, None, regs[ops[0]], regs[ops[1]])
    if mnemonic == "CMPI":
        return _sub_effect(f, None, regs[ops[0]], const(ops[1]))
    if mnemonic == "NEG":
        return _sub_effect(f, ops, const(0), regs[ops])
    if mnemonic == "AND":
        return _logic_effect(f, ops[0], ("and", regs[ops[0]], regs[ops[1]]))
    if mnemonic == "ANDI":
        return _logic_effect(f, ops[0], ("and", regs[ops[0]], const(ops[1])))
    if mnemonic == "OR":
        return _logic_effect(f, ops[0], ("or", regs[ops[0]], regs[ops[1]]))
    if mnemonic == "ORI":
        return _logic_effect(f, ops[0], ("or", regs[ops[0]], const(ops[1])))
    if mnemonic == "XOR":
        return _logic_effect(f, ops[0], ("xor", regs[ops[0]], regs[ops[1]]))
    if mnemonic == "XORI":
        return _logic_effect(f, ops[0], ("xor", regs[ops[0]], const(ops[1])))
    if mnemonic == "TEST":
        return _logic_effect(f, None, ("and", regs[ops[0]], regs[ops[1]]))
    if mnemonic == "SHL":
        return _logic_effect(
            f, ops[0],
            _mask(("shl", regs[ops[0]], ("and", regs[ops[1]], const(31)))))
    if mnemonic == "SHLI":
        return _logic_effect(
            f, ops[0], _mask(("shl", regs[ops[0]], const(ops[1] & 31))))
    if mnemonic == "SHR":
        return _logic_effect(
            f, ops[0],
            ("shr", regs[ops[0]], ("and", regs[ops[1]], const(31))))
    if mnemonic == "SHRI":
        return _logic_effect(
            f, ops[0], ("shr", regs[ops[0]], const(ops[1] & 31)))
    if mnemonic == "MUL":
        return _logic_effect(
            f, ops[0], _mask(("mul", regs[ops[0]], regs[ops[1]])))
    if mnemonic == "MULI":
        return _logic_effect(
            f, ops[0], _mask(("mul", regs[ops[0]], const(ops[1]))))
    if mnemonic == "DIVI":
        # Only inlined with a non-zero immediate.
        return _logic_effect(
            f, ops[0], ("floordiv", regs[ops[0]], const(ops[1])))
    if mnemonic == "NOT":
        return _logic_effect(f, ops, _mask(("invert", regs[ops])))
    raise SemaError(f"no inline semantics for {mnemonic}")


# ---------------------------------------------------------------------------
# Reference branch predicates
# ---------------------------------------------------------------------------


def _flag_test(f: Expr, bit: int) -> Expr:
    return ("truthy", ("and", f, const(bit)))


def _sf_ne_of(f: Expr) -> Expr:
    """``((f >> 4) ^ f) & 128`` — aligns OF with SF so 128 tests SF != OF."""
    return ("truthy",
            ("and", ("xor", ("shr", f, const(4)), f), const(128)))


def branch_conditions(mnemonic: str, f: Expr) -> Tuple[Expr, Expr]:
    """(taken, not-taken) reference predicates over a FLAGS expression."""
    zf = _flag_test(f, 64)
    cf = _flag_test(f, 1)
    sf = _flag_test(f, 128)
    lt = _sf_ne_of(f)
    le: Expr = ("or-b", zf, lt)
    table: Dict[str, Tuple[Expr, Expr]] = {
        "JZ": (zf, ("not", zf)),
        "JNZ": (("not", zf), zf),
        "JC": (cf, ("not", cf)),
        "JNC": (("not", cf), cf),
        "JS": (sf, ("not", sf)),
        "JNS": (("not", sf), sf),
        "JGE": (("not", lt), lt),
        "JL": (lt, ("not", lt)),
        "JG": (("not", le), le),
        "JLE": (le, ("not", le)),
    }
    try:
        return table[mnemonic]
    except KeyError:
        raise SemaError(f"not a conditional branch: {mnemonic}") from None
