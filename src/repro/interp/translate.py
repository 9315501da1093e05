"""Superblock translation ("tracing JIT") for the HX32 hot loop.

The decoded-instruction cache (PR 1) removed fetch/decode from the hot
path but still pays one full Python-level dispatch — guard checks, a
dict probe, a try frame, per-instruction accounting — for every retired
instruction.  This module removes that too, the same way a trace cache
or a dynamic binary translator does: linear runs of hot guest code are
stitched into *superblocks* and compiled (via generated Python source +
``compile``) into one callable per block, with the register file bound
to a local (each register to its own local in a register-only loop)
and ALU flag updates inlined.

Hot-spot detection is the classic counter scheme: every taken backward
control transfer bumps a counter on its target linear PC (a monitor can
additionally seed counters from :class:`repro.obs.profiler.GuestProfiler`
samples via :meth:`SuperblockEngine.note_sample`); past a threshold the
target is traced and compiled.

Translation must be *observably invisible*.  The contract, enforced by
construction and by the differential regression tests:

* **Per-instruction accounting.**  ``instret``/``cycle_count``/budget
  charges and FLAGS are committed to the CPU before every operation
  that can fault, touch a device, or otherwise observe CPU state, and
  at every block exit — so profiler strides, watchdog quanta, fault
  ``at_count`` triggers, device event timing and replay journals are
  byte-identical with translation on.
* **Register-only loops defer to their exits.**  A loop whose body
  calls no handler cannot be observed until it leaves, so it keeps the
  registers it touches in locals ``r<i>`` and counts iterations only;
  each exit writes the registers back and adds the per-iteration
  instret/cycle/charge totals times the count ``k``.
* **Lazy condition flags.**  An inlined instruction's CF/ZF/SF/OF
  formula is left pending and emitted only where FLAGS can be
  observed: before a commit barrier, inside each exit branch (the
  terminator's, the pacing check's, the JMP/fall-through exit) and at
  a loop's back-edge when the body commits FLAGS before its first flag
  write.  A formula the next inline flag write replaces is never
  computed (every formula rewrites the same four bits), and a JZ/JNZ
  loop exit tests the pending result ``m == 0`` instead.
* **Block boundaries respect run-loop boundaries.**  A block only
  executes while it provably cannot cross ``cpu.block_instret_limit``
  (the run cap or the next profiler sample) or
  ``cpu.block_cycle_limit`` (the next device-event due time), which
  ``Cpu.run`` -- the one run loop, shared by ``Machine.run`` and the
  LVMM -- sets before each step: the dispatcher checks the whole block
  before entering, and a loop block turns the same inequality into a
  trip count at entry, ``n = min((li - ir) // N, (lc - cy) // C)``
  (computed so that an infinite ``lc`` keeps ``n`` an integer), and
  leaves by its pacing exit once ``k == n`` iterations ran.  Outside
  ``Cpu.run`` both limits are 0, so bare ``cpu.step()`` keeps exact
  single-instruction semantics.
* **Same invalidation triggers as the decode cache.**  Blocks guard on
  CS descriptor identity, the paging on/off state and the backing
  physical page's write generation, and the whole cache is flushed by
  :meth:`repro.hw.cpu.Cpu.invalidate_decode_cache` (breakpoint
  mutation, TLB flush generation, CR0.PG toggles, capacity).  A store
  inside a block re-checks its own code page generation so
  self-modifying code exits to the interpreter before executing stale
  translations; a memory access that leaves an interrupt pending exits
  so acceptance happens at the same instruction boundary as under the
  interpreter.

Anything complicated ends a trace: privileged operations, port I/O,
software interrupts, IRET/RET/CALL, PUSHF/POPF, segment loads and
breakpointed PCs all fall back to the interpreter, exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

# The instruction classification (what inlines, what needs a handler,
# what touches memory/stores) is shared with the static-analysis stack
# so HX32 semantics live in one module.  The *formula strings* below
# stay local on purpose: they are the independent encoding the
# translation validator (repro.analysis.tv) checks against
# repro.analysis.sema's reference semantics.
from repro.analysis.sema import (
    HANDLER as _HANDLER,
    INLINE as _INLINE,
    MEMORY as _MEMORY,
    STORE as _STORE,
    regs_written,
)
from repro.hw import isa
from repro.hw.cpu import CpuFault
from repro.hw.paging import PAGE_SHIFT
from repro.sim.budget import CAT_GUEST

#: Conditional terminators: (taken-expr, not-taken-expr) over the local
#: flag word ``f`` (CF=1, ZF=64, SF=128, OF=2048; ``(f >> 4) ^ f``
#: aligns OF with SF so bit 128 tests SF != OF).
_COND = {
    "JZ": ("f & 64", "not f & 64"),
    "JNZ": ("not f & 64", "f & 64"),
    "JC": ("f & 1", "not f & 1"),
    "JNC": ("not f & 1", "f & 1"),
    "JS": ("f & 128", "not f & 128"),
    "JNS": ("not f & 128", "f & 128"),
    "JGE": ("not ((f >> 4) ^ f) & 128", "((f >> 4) ^ f) & 128"),
    "JL": ("((f >> 4) ^ f) & 128", "not ((f >> 4) ^ f) & 128"),
    "JG": ("not (f & 64 or ((f >> 4) ^ f) & 128)",
           "f & 64 or ((f >> 4) ^ f) & 128"),
    "JLE": ("f & 64 or ((f >> 4) ^ f) & 128",
            "not (f & 64 or ((f >> 4) ^ f) & 128)"),
}

#: Loop-exit tests of JZ/JNZ while a flag formula is pending: every
#: inline formula sets ZF exactly when its result ``m`` is 0.
_ZF_EXIT = {"JZ": "m != 0", "JNZ": "m == 0"}

_TERMINATORS = frozenset(_COND) | {"JMP"}

_MASK = 4294967295  # 0xFFFFFFFF
#: ``f & -2242`` clears CF|ZF|SF|OF (~0x8C1) and preserves TF/IF/IOPL.

#: Compiled block factories shared by every CPU in the process, keyed
#: by (generated source, filename): a fresh machine (one per fleet job)
#: that translates a loop an earlier one already did skips
#: ``compile()``.  Handlers and operands are bound per CPU when the
#: factory is called.
_FACTORIES: Dict[Tuple[str, str], Callable[..., Any]] = {}
_FACTORY_CAPACITY = 256


@dataclass
class BlockMeta:
    """Translation-time record of one compiled superblock.

    Everything the translation validator needs to re-derive and check
    the block: the decoded trace it was compiled from, the generated
    source, the handler binding table and the static guard values the
    block tuple bakes in.  Kept per cached block (dropped on evict /
    invalidate) so blocks can also be validated offline after the fact.
    """

    entry_pc: int
    entry_lin: int
    phys_entry: int
    page: int
    generation: int
    paging: bool
    descriptor: object
    source: str
    insns: List[Tuple[int, isa.InsnSpec, object]]
    handlers: List[Tuple[str, object]]


def _add_lines(dest: Optional[str], a: str, b: str) -> List[str]:
    """32-bit add with the exact CF/OF/ZF/SF of ``Cpu._alu_add``."""
    lines = [f"a = {a}", f"b = {b}", "t = a + b", "m = t & 4294967295"]
    if dest is not None:
        lines.append(f"{dest} = m")
    lines.append(
        "f = (f & -2242) | (t >> 32) | ((m >> 24) & 128)"
        " | ((((a ^ m) & (b ^ m)) & 2147483648) >> 20)"
        " | (64 if m == 0 else 0)")
    return lines


def _sub_lines(dest: Optional[str], a: str, b: str) -> List[str]:
    """32-bit subtract with the exact flags of ``Cpu._alu_sub``."""
    lines = [f"a = {a}", f"b = {b}", "m = (a - b) & 4294967295"]
    if dest is not None:
        lines.append(f"{dest} = m")
    lines.append(
        "f = (f & -2242) | (1 if a < b else 0) | ((m >> 24) & 128)"
        " | ((((a ^ b) & (a ^ m)) & 2147483648) >> 20)"
        " | (64 if m == 0 else 0)")
    return lines


def _logic_lines(dest: Optional[str], expr: str,
                 mask: bool = True) -> List[str]:
    """CF=OF=0, ZF/SF from the result — ``Cpu._alu_logic``."""
    lines = [f"m = ({expr}) & 4294967295" if mask else f"m = {expr}"]
    if dest is not None:
        lines.append(f"{dest} = m")
    lines.append(
        "f = (f & -2242) | ((m >> 24) & 128) | (64 if m == 0 else 0)")
    return lines


def _inline_lines(mnemonic: str, ops,
                  reg: Callable[[int], str] = "regs[{}]".format) -> List[str]:
    """Generated statements for one inlined instruction; ``reg(i)`` names
    register ``i`` (``regs[i]``, or a local in a register-only loop)."""
    if mnemonic == "NOP":
        return []
    if mnemonic == "MOVI":
        return [f"{reg(ops[0])} = {ops[1]}"]
    if mnemonic == "MOV":
        return [f"{reg(ops[0])} = {reg(ops[1])}"]
    if mnemonic == "LEA":
        return [f"{reg(ops[0])} = ({reg(ops[1])} + {ops[2]})"
                " & 4294967295"]
    if mnemonic == "XCHG":
        a, b = ops
        return [f"{reg(a)}, {reg(b)} = {reg(b)}, {reg(a)}"]
    if mnemonic == "ADD":
        return _add_lines(reg(ops[0]), reg(ops[0]), reg(ops[1]))
    if mnemonic == "ADDI":
        return _add_lines(reg(ops[0]), reg(ops[0]), str(ops[1]))
    if mnemonic == "SUB":
        return _sub_lines(reg(ops[0]), reg(ops[0]), reg(ops[1]))
    if mnemonic == "SUBI":
        return _sub_lines(reg(ops[0]), reg(ops[0]), str(ops[1]))
    if mnemonic == "CMP":
        return _sub_lines(None, reg(ops[0]), reg(ops[1]))
    if mnemonic == "CMPI":
        return _sub_lines(None, reg(ops[0]), str(ops[1]))
    if mnemonic == "NEG":
        return _sub_lines(reg(ops), "0", reg(ops))
    if mnemonic == "AND":
        return _logic_lines(reg(ops[0]),
                            f"{reg(ops[0])} & {reg(ops[1])}", False)
    if mnemonic == "ANDI":
        return _logic_lines(reg(ops[0]), f"{reg(ops[0])} & {ops[1]}", False)
    if mnemonic == "OR":
        return _logic_lines(reg(ops[0]),
                            f"{reg(ops[0])} | {reg(ops[1])}", False)
    if mnemonic == "ORI":
        return _logic_lines(reg(ops[0]), f"{reg(ops[0])} | {ops[1]}", False)
    if mnemonic == "XOR":
        return _logic_lines(reg(ops[0]),
                            f"{reg(ops[0])} ^ {reg(ops[1])}", False)
    if mnemonic == "XORI":
        return _logic_lines(reg(ops[0]), f"{reg(ops[0])} ^ {ops[1]}", False)
    if mnemonic == "TEST":
        return _logic_lines(None, f"{reg(ops[0])} & {reg(ops[1])}", False)
    if mnemonic == "SHL":
        return _logic_lines(reg(ops[0]),
                            f"{reg(ops[0])} << ({reg(ops[1])} & 31)")
    if mnemonic == "SHLI":
        return _logic_lines(reg(ops[0]), f"{reg(ops[0])} << {ops[1] & 31}")
    if mnemonic == "SHR":
        return _logic_lines(reg(ops[0]),
                            f"{reg(ops[0])} >> ({reg(ops[1])} & 31)",
                            False)
    if mnemonic == "SHRI":
        return _logic_lines(reg(ops[0]),
                            f"{reg(ops[0])} >> {ops[1] & 31}", False)
    if mnemonic == "MUL":
        return _logic_lines(reg(ops[0]), f"{reg(ops[0])} * {reg(ops[1])}")
    if mnemonic == "MULI":
        return _logic_lines(reg(ops[0]), f"{reg(ops[0])} * {ops[1]}")
    if mnemonic == "DIVI":
        # Only reached with a non-zero immediate (checked at trace time).
        return _logic_lines(reg(ops[0]), f"{reg(ops[0])} // {ops[1]}", False)
    if mnemonic == "NOT":
        return _logic_lines(reg(ops), f"~{reg(ops)}")
    raise AssertionError(f"no inline emitter for {mnemonic}")


class SuperblockEngine:
    """Hot-trace detection, translation and the compiled-block cache.

    Owned by one :class:`repro.hw.cpu.Cpu`; the CPU dispatches into
    :attr:`blocks` (linear PC -> block tuple) from its step path and
    calls :meth:`invalidate` from the shared decode-cache invalidation
    triggers.  A block tuple is ``(fn, insns, cycles, descriptor,
    paging, page, generation)`` — the callable plus the static guards
    the dispatcher checks before entering it.
    """

    #: Taken backward transfers to a PC before it is traced.
    HOT_THRESHOLD = 32
    #: Profiler samples are worth this many backward-branch observations.
    SAMPLE_WEIGHT = 4
    #: Trace length bounds (instructions).
    MIN_BLOCK_INSNS = 2
    MAX_BLOCK_INSNS = 48
    #: Whole-cache flush bound, trace-cache style (like the decode
    #: cache, but blocks are far bigger objects, so far fewer of them).
    CACHE_CAPACITY = 1024

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.enabled = True
        #: linear entry PC -> block tuple; shared with the CPU.
        self.blocks: Dict[int, tuple] = {}
        #: linear entry PC -> BlockMeta for every cached block.
        self.block_meta: Dict[int, BlockMeta] = {}
        self._hot: Dict[int, int] = {}
        self._refused: Set[int] = set()
        self.blocks_compiled = 0
        self.hits = 0
        self.guard_failures = 0
        self.invalidations = 0
        self.insns_translated = 0
        #: Verify-on-compile: run the translation validator on every
        #: block at translation time; rejected blocks are never
        #: installed (execution falls back to the decode cache).
        self.verify = False
        self.tv_validated = 0
        self.tv_rejected = 0
        self.tv_failures: List[str] = []

    # ------------------------------------------------------------------
    # Hot-spot detection
    # ------------------------------------------------------------------

    def note_backward(self, target_pc: int, descriptor,
                      weight: int = 1) -> None:
        """A taken backward transfer landed on ``target_pc``."""
        if not self.enabled:
            return
        linear = (descriptor.base + target_pc) & _MASK
        if linear in self.blocks or linear in self._refused:
            return
        hot = self._hot
        count = hot.get(linear, 0) + weight
        if count < self.HOT_THRESHOLD:
            if len(hot) >= 4096:
                hot.clear()
            hot[linear] = count
            return
        hot.pop(linear, None)
        self._compile(target_pc, linear, descriptor)

    def note_sample(self, cpu) -> None:
        """Seed the hot counters from a GuestProfiler sample."""
        self.note_backward(cpu.pc, cpu.segments[0].descriptor,
                           weight=self.SAMPLE_WEIGHT)

    # ------------------------------------------------------------------
    # Invalidation (shared triggers with the decode cache)
    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every compiled block (and all warm-up state)."""
        if self.blocks:
            self.blocks.clear()
            self.invalidations += 1
        self.block_meta.clear()
        self._hot.clear()
        self._refused.clear()

    def evict(self, linear: int) -> None:
        """Drop one stale block (failed static guard) for recompilation."""
        self.blocks.pop(linear, None)
        self.block_meta.pop(linear, None)
        self.guard_failures += 1

    def stats(self) -> dict:
        """Counter snapshot, mirroring ``decode_cache_stats``."""
        instret = self.cpu.instret
        return {
            "enabled": self.enabled,
            "entries": len(self.blocks),
            "blocks_compiled": self.blocks_compiled,
            "hits": self.hits,
            "guard_failures": self.guard_failures,
            "invalidations": self.invalidations,
            "insns_translated": self.insns_translated,
            "hit_rate": (self.insns_translated / instret)
            if instret else 0.0,
        }

    def tv_stats(self) -> dict:
        """Verify-on-compile counters (``analysis.tv.*`` metrics)."""
        return {
            "enabled": self.verify,
            "validated": self.tv_validated,
            "rejected": self.tv_rejected,
            "failures": list(self.tv_failures),
        }

    # ------------------------------------------------------------------
    # Trace construction
    # ------------------------------------------------------------------

    def _trace(self, entry_pc: int, entry_lin: int,
               phys_entry: int) -> List[Tuple[int, isa.InsnSpec, object]]:
        """Decode a linear run of includable instructions.

        The trace never leaves the physical page backing the entry (one
        (page, generation) guard covers every byte), stops before any
        breakpointed, privileged, or otherwise excluded instruction,
        and ends *with* the first branch terminator.
        """
        cpu = self.cpu
        memory = cpu.memory
        bus = cpu.bus
        page_end = (entry_lin | ((1 << PAGE_SHIFT) - 1)) + 1
        breakpoints = cpu.code_breakpoints
        insns: List[Tuple[int, isa.InsnSpec, object]] = []
        lin, pc = entry_lin, entry_pc
        while lin < page_end and len(insns) < self.MAX_BLOCK_INSNS:
            if lin in breakpoints:
                break
            paddr = phys_entry + (lin - entry_lin)
            opcode = memory.read(paddr, 1)[0]
            spec = isa.SPECS.get(opcode)
            if spec is None:
                break
            length = spec.length
            if lin + length > page_end:
                break
            if bus.is_mmio(paddr) or bus.is_mmio(paddr + length - 1):
                break
            decoder = isa.OPERAND_DECODERS[spec.fmt]
            operands = decoder(memory.read(paddr + 1, length - 1)) \
                if decoder is not None else None
            mnemonic = spec.mnemonic
            if mnemonic in _TERMINATORS:
                insns.append((pc, spec, operands))
                break
            if spec.privilege != isa.PRIV_NONE:
                break
            if mnemonic in _INLINE:
                if mnemonic == "DIVI" and operands[1] == 0:
                    break  # guaranteed #DE: leave it to the interpreter
            elif mnemonic not in _HANDLER:
                break
            insns.append((pc, spec, operands))
            lin += length
            pc = (pc + length) & _MASK
        return insns

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------

    def _compile(self, entry_pc: int, entry_lin: int, descriptor) -> None:
        cpu = self.cpu
        try:
            phys_entry = cpu._physical(entry_lin, write=False)
        except CpuFault:
            self._refused.add(entry_lin)
            return
        page = phys_entry >> PAGE_SHIFT
        generation = cpu.memory.page_gens[page]
        insns = self._trace(entry_pc, entry_lin, phys_entry)
        if len(insns) < self.MIN_BLOCK_INSNS:
            self._refused.add(entry_lin)
            return

        last_pc, last_spec, last_ops = insns[-1]
        terminator = last_spec.mnemonic if last_spec.mnemonic \
            in _TERMINATORS else None
        body = insns[:-1] if terminator else insns
        fall_through = (last_pc + last_spec.length) & _MASK
        taken = (fall_through + last_ops) & _MASK if terminator else None
        loop = terminator is not None and taken == entry_pc

        total_insns = len(insns)
        total_cycles = sum(spec.cycles for _pc, spec, _o in insns)
        has_mem = any(spec.mnemonic in _MEMORY for _pc, spec, _o in body)
        has_store = any(spec.mnemonic in _STORE for _pc, spec, _o in body)
        # A register-only loop (no handler in its body) cannot be
        # observed until it exits: it keeps the registers it touches in
        # locals ``r<i>`` and leaves its accounting to its exits, which
        # add the per-iteration totals times the iteration count ``k``.
        deferred = loop and all(spec.mnemonic in _INLINE
                                for _pc, spec, _o in body)
        touched: Set[int] = set()

        def local_reg(index: int) -> str:
            touched.add(index)
            return f"r{index}"

        reg = local_reg if deferred else "regs[{}]".format
        exit_commit: List[str] = []
        if deferred:
            written = {index for _pc, spec, ops in body
                       for index in regs_written(spec.mnemonic, ops)}
            exit_commit = [f"regs[{index}] = r{index}"
                           for index in sorted(written)]
            exit_commit += [f"ir += {total_insns} * k",
                            f"cy += {total_cycles} * k",
                            f"chg += {total_cycles} * k"]

        handlers: List[Tuple[str, object]] = []
        src: List[str] = []
        emit = src.append

        def emit_block(lines: List[str], indent: str) -> None:
            for line in lines:
                emit(indent + line)

        # -- pending per-instruction accounting, batched between commit
        #    barriers (constant-folded at generation time).
        pending = [0, 0]

        def flush_pending() -> List[str]:
            if not pending[0]:
                return []
            lines = [f"ir += {pending[0]}", f"cy += {pending[1]}",
                     f"chg += {pending[1]}"]
            pending[0] = pending[1] = 0
            return lines

        # -- lazy condition flags: an inlined flag write leaves its
        #    ``f = ...`` formula pending and it is emitted only where
        #    FLAGS can be observed.  Every inline formula rewrites the
        #    same four bits (and reads only the others), so a pending
        #    formula that a later one replaces is dead.
        flags: List[Optional[str]] = [None]

        def materialize() -> List[str]:
            line, flags[0] = flags[0], None
            return [line] if line else []

        def exit_branch(target: int) -> List[str]:
            lines = [flags[0]] if flags[0] else []
            return ["    " + line for line in
                    lines + exit_commit + [f"cpu.pc = {target}", "break"]]

        # Does a handler observe FLAGS before the body's first flag
        # write?  Then a formula pending at the back-edge must be
        # emitted there, or the next iteration would commit stale bits.
        wrote_flags = False
        observed_first = False
        body_lines: List[str] = []
        for pc, spec, operands in body:
            mnemonic = spec.mnemonic
            if mnemonic in _INLINE:
                lines = _inline_lines(mnemonic, operands, reg)
                if lines and lines[-1].startswith("f = "):
                    flags[0] = lines.pop()
                    wrote_flags = True
                body_lines += lines
                pending[0] += 1
                pending[1] += spec.cycles
                continue
            # Handler-executed instruction: commit architectural state
            # first (the handler may fault or reach a device), then
            # account for it, then check the hazards it may have raised.
            observed_first = observed_first or not wrote_flags
            index = len(handlers)
            handlers.append(("_op_" + mnemonic.lower(), operands))
            body_lines += flush_pending()
            body_lines += materialize()
            body_lines += [
                "cpu.flags = f",
                "cpu.instret = ir",
                "cpu.cycle_count = cy",
                "if chg:",
                "    charge(chg, GUEST)",
                "    chg = 0",
                f"saved = {pc}",
                f"cpu.pc = {(pc + spec.length) & _MASK}",
                f"h{index}(o{index})",
                "ir += 1",
                f"cy += {spec.cycles}",
                f"chg += {spec.cycles}",
            ]
            if mnemonic == "DIV":
                body_lines.append("f = cpu.flags")
            if mnemonic in _MEMORY:
                body_lines += ["if irq is not None and irq.has_pending():",
                               "    break"]
            if mnemonic in _STORE:
                body_lines += [f"if gens[{page}] != {generation}:",
                               "    break"]

        # -- terminator / block exit ----------------------------------
        if terminator:
            pending[0] += 1
            pending[1] += last_spec.cycles
        if not deferred:
            body_lines += flush_pending()
        if loop:
            body_lines.append("k += 1")
        if not loop:
            body_lines += materialize()
            if terminator is None:
                body_lines += [f"cpu.pc = {fall_through}", "break"]
            elif terminator == "JMP":
                body_lines += [f"cpu.pc = {taken}", "break"]
            else:
                taken_expr, _ = _COND[terminator]
                body_lines += [f"if {taken_expr}:",
                               f"    cpu.pc = {taken}",
                               "else:",
                               f"    cpu.pc = {fall_through}",
                               "break"]
        else:
            if terminator != "JMP":
                test = _ZF_EXIT.get(terminator) if flags[0] else None
                if test is None:
                    body_lines += materialize()
                    test = _COND[terminator][1]
                body_lines += [f"if {test}:"] + exit_branch(fall_through)
            # Pacing, at the back-edge: leave once the trip count fixed
            # at entry is done (the dispatcher's entry guard already
            # proved the first iteration fits).
            body_lines += ["if k == n:"] + exit_branch(entry_pc)
            if observed_first:
                body_lines += materialize()

        # -- assemble the factory -------------------------------------
        params = "".join(f", h{i}, o{i}" for i in range(len(handlers)))
        emit(f"def _factory(Fault, GUEST{params}):")
        emit("    def _block(cpu):")
        emit("        regs = cpu.regs")
        emit("        f = cpu.flags")
        emit("        ir = cpu.instret")
        emit("        ir0 = ir")
        emit("        cy = cpu.cycle_count")
        emit("        chg = 0")
        emit("        saved = 0")
        emit("        charge = cpu.budget.charge")
        if has_mem:
            emit("        irq = cpu.irq_source")
        if has_store:
            emit("        gens = cpu.memory.page_gens")
        if loop:
            # The trip count: the most whole iterations the dispatcher's
            # inequality allows, ``ir + N*n <= li and cy + C*n <= lc``.
            # ``lc`` is infinite with no event source; the cycle term
            # then never binds, so ``n`` and ``k`` stay exact integers.
            emit("        li = cpu.block_instret_limit")
            emit("        lc = cpu.block_cycle_limit")
            emit(f"        n = (li - ir) // {total_insns}")
            emit(f"        if lc - cy < {total_cycles} * n:")
            emit(f"            n = (lc - cy) // {total_cycles}")
            emit("        k = 0")
            for index in sorted(touched):
                emit(f"        r{index} = regs[{index}]")
        emit("        try:")
        emit("            while True:")
        emit_block(body_lines or ["break"], " " * 16)
        emit("        except Fault as fault:")
        emit("            cpu.block_extra_steps = ir - ir0")
        emit("            cpu._handle_fault(fault, saved)")
        emit("            return")
        emit("        cpu.flags = f")
        emit("        cpu.instret = ir")
        emit("        cpu.cycle_count = cy")
        emit("        if chg:")
        emit("            charge(chg, GUEST)")
        emit("        cpu.block_extra_steps = ir - ir0 - 1")
        emit("    return _block")
        source = "\n".join(src) + "\n"

        meta = BlockMeta(entry_pc=entry_pc, entry_lin=entry_lin,
                         phys_entry=phys_entry, page=page,
                         generation=generation,
                         paging=cpu.paging_enabled,
                         descriptor=descriptor, source=source,
                         insns=insns, handlers=handlers)
        if self.verify:
            # Imported lazily: the validator pulls in the analysis
            # stack, which most Cpu users never need.
            from repro.analysis.tv.validator import validate_block
            result = validate_block(meta)
            self.tv_validated += 1
            if not result.ok:
                self.tv_rejected += 1
                if len(self.tv_failures) < 64:
                    self.tv_failures.extend(
                        f"block@{entry_lin:#x}: {message}"
                        for message in result.failures[:4])
                self._refused.add(entry_lin)
                return

        key = (source, f"<superblock@{entry_lin:#x}>")
        factory = _FACTORIES.get(key)
        if factory is None:
            namespace: dict = {}
            exec(compile(source, key[1], "exec"), namespace)
            factory = namespace["_factory"]
            if len(_FACTORIES) >= _FACTORY_CAPACITY:
                del _FACTORIES[next(iter(_FACTORIES))]
            _FACTORIES[key] = factory
        args = [CpuFault, CAT_GUEST]
        for name, operands in handlers:
            args.append(getattr(cpu, name))
            args.append(operands)
        fn = factory(*args)

        if len(self.blocks) >= self.CACHE_CAPACITY:
            self.invalidate()
        self.blocks[entry_lin] = (fn, total_insns, total_cycles,
                                  descriptor, cpu.paging_enabled,
                                  page, generation)
        self.block_meta[entry_lin] = meta
        self.blocks_compiled += 1
