"""Differential anchor for :mod:`repro.analysis.sema`.

The reference semantics the translation validator trusts are checked
here against the interpreter itself: every inlined mnemonic's symbolic
effect, evaluated concretely, must match what ``Cpu.step`` does to the
register file and FLAGS; every branch predicate must agree with the
taken/not-taken decision of the real Jcc.  If sema.py and the CPU ever
drift, this file fails before the validator starts certifying blocks
against the wrong spec."""

import random

import pytest

from repro.analysis import sema
from repro.asm import assemble
from repro.hw import Cpu, IoBus, PhysicalMemory, firmware, isa

ORIGIN = 0x4000

#: Seeded initial FLAGS values: arithmetic-bit combinations on top of
#: the IF the firmware leaves set (never TF — that would single-step
#: into a nonexistent IDT).
FLAG_SEEDS = (0x200, 0x201, 0x240, 0x2C1, 0xAC1, 0xAC9)


def fresh_cpu():
    cpu = Cpu(PhysicalMemory(1 << 20), IoBus(), translate=False)
    firmware.install_flat_firmware(cpu)
    return cpu


def run_one(line, regs_init, flags_init):
    """Execute one instruction; return (regs after, flags after)."""
    cpu = fresh_cpu()
    program = assemble(f"    {line}\n    HLT\n", origin=ORIGIN)
    program.load_into(cpu.memory)
    cpu.pc = ORIGIN
    cpu.regs = list(regs_init)
    cpu.flags = flags_init
    cpu.step()
    return list(cpu.regs), cpu.flags


def symbolic_outcome(mnemonic, ops, regs_init, flags_init):
    """Predict (regs, flags) after one inlined instruction via sema."""
    sym_regs = tuple(sema.reg(index) for index in range(isa.NUM_GPRS))
    effect = sema.inline_effect(mnemonic, ops, sym_regs, sema.FLAGS)
    env = {sema.reg(index): value
           for index, value in enumerate(regs_init)}
    env[sema.FLAGS] = flags_init
    regs = list(regs_init)
    for index, expr in effect.regs.items():
        regs[index] = sema.evaluate(expr, env) & sema.MASK32
    flags = flags_init if effect.flags is None \
        else sema.evaluate(effect.flags, env)
    return regs, flags


def random_regs(rng):
    picks = (0, 1, 3, 64, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
             0x12345678, 0x9E3779B9)
    return [rng.choice(picks) if rng.random() < 0.7
            else rng.getrandbits(32) for _ in range(isa.NUM_GPRS)]


#: (mnemonic, operand builder, assembly formatter).
INLINE_FORMS = [
    ("MOVI", lambda rng: (1, rng.getrandbits(16)),
     lambda o: f"MOVI R{o[0]}, {o[1]}"),
    ("MOV", lambda rng: (1, 2), lambda o: f"MOV R{o[0]}, R{o[1]}"),
    ("LEA", lambda rng: (1, 2, rng.randrange(0, 64)),
     lambda o: f"LEA R{o[0]}, [R{o[1]}+{o[2]}]"),
    ("XCHG", lambda rng: (1, 2), lambda o: f"XCHG R{o[0]}, R{o[1]}"),
    ("ADD", lambda rng: (1, 2), lambda o: f"ADD R{o[0]}, R{o[1]}"),
    ("ADDI", lambda rng: (1, rng.getrandbits(16)),
     lambda o: f"ADDI R{o[0]}, {o[1]}"),
    ("SUB", lambda rng: (1, 2), lambda o: f"SUB R{o[0]}, R{o[1]}"),
    ("SUBI", lambda rng: (1, rng.getrandbits(16)),
     lambda o: f"SUBI R{o[0]}, {o[1]}"),
    ("CMP", lambda rng: (1, 2), lambda o: f"CMP R{o[0]}, R{o[1]}"),
    ("CMPI", lambda rng: (1, rng.getrandbits(16)),
     lambda o: f"CMPI R{o[0]}, {o[1]}"),
    ("AND", lambda rng: (1, 2), lambda o: f"AND R{o[0]}, R{o[1]}"),
    ("ANDI", lambda rng: (1, rng.getrandbits(16)),
     lambda o: f"ANDI R{o[0]}, {o[1]}"),
    ("OR", lambda rng: (1, 2), lambda o: f"OR R{o[0]}, R{o[1]}"),
    ("ORI", lambda rng: (1, rng.getrandbits(16)),
     lambda o: f"ORI R{o[0]}, {o[1]}"),
    ("XOR", lambda rng: (1, 2), lambda o: f"XOR R{o[0]}, R{o[1]}"),
    ("XORI", lambda rng: (1, rng.getrandbits(16)),
     lambda o: f"XORI R{o[0]}, {o[1]}"),
    ("TEST", lambda rng: (1, 2), lambda o: f"TEST R{o[0]}, R{o[1]}"),
    ("SHLI", lambda rng: (1, rng.randrange(0, 32)),
     lambda o: f"SHLI R{o[0]}, {o[1]}"),
    ("SHRI", lambda rng: (1, rng.randrange(0, 32)),
     lambda o: f"SHRI R{o[0]}, {o[1]}"),
    ("SHL", lambda rng: (1, 2), lambda o: f"SHL R{o[0]}, R{o[1]}"),
    ("SHR", lambda rng: (1, 2), lambda o: f"SHR R{o[0]}, R{o[1]}"),
    ("MUL", lambda rng: (1, 2), lambda o: f"MUL R{o[0]}, R{o[1]}"),
    ("MULI", lambda rng: (1, rng.getrandbits(12)),
     lambda o: f"MULI R{o[0]}, {o[1]}"),
    ("DIVI", lambda rng: (1, rng.randrange(1, 1 << 12)),
     lambda o: f"DIVI R{o[0]}, {o[1]}"),
    ("NOT", lambda rng: 1, lambda o: f"NOT R{o}"),
    ("NEG", lambda rng: 1, lambda o: f"NEG R{o}"),
    ("NOP", lambda rng: None, lambda o: "NOP"),
]


class TestInlineEffectsMatchCpu:
    @pytest.mark.parametrize(
        "mnemonic,make_ops,fmt", INLINE_FORMS,
        ids=[form[0] for form in INLINE_FORMS])
    def test_against_interpreter(self, mnemonic, make_ops, fmt):
        rng = random.Random(hash(mnemonic) & 0xFFFF)
        for trial in range(8):
            ops = make_ops(rng)
            regs_init = random_regs(rng)
            if mnemonic == "SHL" or mnemonic == "SHR":
                regs_init[2] = rng.randrange(0, 32)
            flags_init = FLAG_SEEDS[trial % len(FLAG_SEEDS)]
            got_regs, got_flags = run_one(fmt(ops), regs_init,
                                          flags_init)
            want_regs, want_flags = symbolic_outcome(
                mnemonic, ops, regs_init, flags_init)
            assert got_regs == want_regs, \
                f"{fmt(ops)} regs diverge on {regs_init}"
            assert got_flags == want_flags, \
                f"{fmt(ops)} flags diverge on {regs_init}"


class TestBranchPredicatesMatchCpu:
    BRANCHES = sorted(sema.CONDITIONAL_BRANCHES)

    @pytest.mark.parametrize("mnemonic", BRANCHES)
    def test_taken_decision(self, mnemonic):
        for flags_init in (0x200, 0x201, 0x240, 0x280, 0xA00, 0x2C1,
                           0xAC1, 0xA80, 0x241, 0xAC9):
            cpu = fresh_cpu()
            program = assemble(f"""
                {mnemonic} hit
                HLT
            hit:
                HLT
            """, origin=ORIGIN)
            program.load_into(cpu.memory)
            cpu.pc = ORIGIN
            cpu.flags = flags_init
            cpu.step()
            actually_taken = cpu.pc == program.symbol("hit")
            taken, not_taken = sema.branch_conditions(mnemonic,
                                                      sema.FLAGS)
            env = {sema.FLAGS: flags_init}
            assert sema.evaluate_bool(taken, env) == actually_taken, \
                f"{mnemonic} with flags {flags_init:#x}"
            assert sema.evaluate_bool(not_taken, env) \
                == (not actually_taken)


class TestClassificationTables:
    def test_partition_of_translatable_set(self):
        assert not (sema.INLINE & sema.HANDLER)
        assert sema.STORE <= sema.MEMORY <= sema.HANDLER
        assert sema.CONDITIONAL_BRANCHES <= sema.TERMINATORS

    def test_stack_delta_basics(self):
        assert sema.stack_delta("PUSH", 1) == 4
        assert sema.stack_delta("POP", 1) == -4
        assert sema.stack_delta("RET", None) == -4
        assert sema.stack_delta("ADDI", (isa.REG_SP, 8)) == -8
        assert sema.stack_delta("SUBI", (isa.REG_SP, 8)) == 8
        assert sema.stack_delta("MOV", (isa.REG_SP, 1)) is None
        assert sema.stack_delta("ADD", (1, 2)) == 0

    def test_regs_written_havoc_set(self):
        assert sema.regs_written("INT", 3) \
            == sema.ALL_GPRS - {isa.REG_SP}
        assert sema.regs_written("POP", 2) == frozenset({2, isa.REG_SP})
        assert sema.regs_written("ST", (1, 0, 2)) == frozenset()


class TestSimplifyAndNormalizer:
    def test_constant_folding(self):
        expr = ("add", sema.const(3), ("add", sema.const(4),
                                       sema.reg(1)))
        assert sema.simplify(expr) \
            == ("add", sema.reg(1), sema.const(7))

    def test_commutative_reordering_proves_equality(self):
        norm = sema.Normalizer()
        a = ("add", sema.reg(1), ("add", sema.reg(2), sema.const(5)))
        b = ("add", ("add", sema.const(5), sema.reg(1)), sema.reg(2))
        equal, how, witness = norm.equal(a, b)
        assert equal and how == "syntactic" and witness is None

    def test_refutation_produces_witness(self):
        norm = sema.Normalizer()
        a = ("add", sema.reg(1), sema.const(1))
        b = ("add", sema.reg(1), sema.const(2))
        equal, how, witness = norm.equal(a, b)
        assert not equal and how == "refuted"
        assert witness is not None and sema.reg(1) in witness

    def test_condition_directed_probe_kills_wrong_zf_bit(self):
        """The generic battery rarely lands on a derived zero; the
        eq0-inversion probe must force it (the zf-wrong-bit mutation)."""
        norm = sema.Normalizer()
        m = ("and", ("add", sema.reg(1), sema.const(3)),
             sema.const(sema.MASK32))
        good = ("cond", ("eq0", m), sema.const(64), sema.const(0))
        bad = ("cond", ("eq0", m), sema.const(32), sema.const(0))
        equal, how, witness = norm.equal(good, bad)
        assert not equal, "wrong ZF bit must be refuted"

    def test_invert_solves_constant_chains(self):
        norm = sema.Normalizer()
        leaf = norm.node("init-reg", 1)
        chain = norm.node("xor",
                          norm.node("add", leaf, norm.node("const", 3)),
                          norm.node("const", 0x55))
        assignment = norm.invert(chain, 0)
        assert assignment is not None
        value = assignment[leaf]
        assert ((value + 3) & sema.MASK32) ^ 0x55 == 0 \
            or ((value + 3) ^ 0x55) & sema.MASK32 == 0

    def test_masked_or_terms_are_dropped(self):
        """``((F & c) | r) & c`` is ``F & c`` when ``c`` clears every bit
        ``r`` can set; a term that may set a surviving bit stays."""
        norm = sema.Normalizer()
        clear = sema.const(sema.CLEAR_ARITH_FLAGS)
        m = ("and", ("add", sema.reg(1), sema.const(3)),
             sema.const(sema.MASK32))
        zf = ("cond", ("eq0", m), sema.const(64), sema.const(0))
        sf = ("and", ("shr", m, sema.const(24)), sema.const(128))
        formula = ("or", ("or", ("and", sema.FLAGS, clear), sf), zf)
        masked = ("and", formula, clear)
        equal, how, _ = norm.equal(masked, ("and", sema.FLAGS, clear))
        assert equal and how == "syntactic"
        canonical = norm.simplify(masked)
        for env in sema.battery_environments([sema.FLAGS, sema.reg(1)]):
            assert norm.evaluate(canonical, env, {}) \
                == sema.evaluate(masked, env)
        wide = ("or", ("and", sema.FLAGS, clear), sema.reg(2))
        assert norm.simplify(("and", wide, clear)) \
            is not norm.simplify(("and", sema.FLAGS, clear))

    def test_battery_is_deterministic(self):
        symbols = [sema.reg(1), sema.FLAGS]
        first = sema.battery_environments(symbols)
        second = sema.battery_environments(symbols)
        assert first == second
        assert len(first) > 60
