"""Control-flow-graph recovery for HX32 images.

Two classic passes over the flat image:

* a **linear sweep** (:func:`repro.asm.disasm.decode_range`) that tiles
  every byte — used as the instruction-boundary reference and to find
  code the recursive walk never reaches;
* a **recursive descent** from the entry points, following JMP/Jcc/CALL
  fall-throughs and targets, that yields the reachable instruction map
  and the basic-block graph.

Indirect control flow (JMPR/CALLR, IRET through a fabricated frame) has
no static successors; the abstract interpreter resolves what it can and
feeds the extra edges back in through ``dyn_edges`` — the driver
iterates recovery and interpretation to a joint fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis import sema
from repro.asm.disasm import DecodedInsn, _pseudo_byte, decode_one, decode_range
from repro.errors import DisassemblerError
from repro.hw import isa

#: Successor-edge kinds.
EDGE_FALL = "fall"      # sequential successor
EDGE_JUMP = "jump"      # unconditional JMP target
EDGE_BRANCH = "branch"  # conditional Jcc target
EDGE_CALL = "call"      # CALL/CALLR callee entry
EDGE_DYN = "dyn"        # resolved indirect edge (JMPR/IRET frame)

# Instruction classification lives in repro.analysis.sema — the single
# source of HX32 semantics the CFG, the abstract interpreter and the
# translation validator all share.
_NO_FALL = sema.NO_FALL
_CONDITIONALS = sema.CONDITIONAL_BRANCHES
CONTROL_MNEMONICS = sema.CONTROL_MNEMONICS


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run."""

    start: int
    insns: List[DecodedInsn] = field(default_factory=list)
    #: (target address, edge kind) pairs; targets are in-image only.
    succs: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def last(self) -> DecodedInsn:
        return self.insns[-1]

    @property
    def end(self) -> int:
        tail = self.last
        return tail.address + tail.length

    def __repr__(self) -> str:
        return (f"BasicBlock({self.start:#x}..{self.end:#x}, "
                f"{len(self.insns)} insns, succs={self.succs})")


@dataclass
class Cfg:
    """The recovered graph plus the raw facts the checkers consume."""

    origin: int
    end: int
    entries: FrozenSet[int]
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    #: Reachable instruction map from the recursive walk.
    insn_at: Dict[int, DecodedInsn] = field(default_factory=dict)
    #: Linear-sweep instruction list (tiles the whole image).
    linear: List[DecodedInsn] = field(default_factory=list)
    #: Static control transfers leaving the image: (src, target, kind).
    out_of_image: List[Tuple[int, int, str]] = field(default_factory=list)
    #: Instructions whose sequential successor is past the image end.
    fall_off: List[int] = field(default_factory=list)
    #: Static branch/jump/call targets: (src, target).
    branch_targets: List[Tuple[int, int]] = field(default_factory=list)

    def block_count(self) -> int:
        return len(self.blocks)

    def edge_count(self) -> int:
        return sum(len(block.succs) for block in self.blocks.values())


def _decode_at(image: bytes, origin: int, address: int) -> DecodedInsn:
    offset = address - origin
    try:
        return decode_one(image, offset, address)
    except DisassemblerError:
        return _pseudo_byte(image, offset, address)


def _static_successors(insn: DecodedInsn, origin: int,
                       end: int) -> Tuple[List[Tuple[int, str]],
                                          List[Tuple[int, int, str]],
                                          bool]:
    """Successors of one instruction from its encoding alone.

    Returns (in-image successors, out-of-image transfers, falls_off) —
    the latter two feed the AN003/AN005 checks.
    """
    succs: List[Tuple[int, str]] = []
    escaped: List[Tuple[int, int, str]] = []
    falls_off = False
    after = insn.address + insn.length

    def add(target: int, kind: str) -> None:
        if origin <= target < end:
            succs.append((target, kind))
        else:
            escaped.append((insn.address, target, kind))

    name = insn.mnemonic
    if name in _NO_FALL or name in _CONDITIONALS or name == "CALL":
        if name != "JMPR" and name not in ("RET", "IRET"):
            spec = isa.SPECS[insn.opcode]
            rel = isa.decode_operands(spec.fmt, insn.raw[1:])
            assert isinstance(rel, int)
            add(isa.mask32(after + rel),
                EDGE_JUMP if name == "JMP"
                else EDGE_CALL if name == "CALL" else EDGE_BRANCH)
    if insn.is_pseudo:
        return succs, escaped, False
    if name not in _NO_FALL:
        if after < end:
            succs.append((after, EDGE_FALL))
        elif after >= end:
            falls_off = True
    return succs, escaped, falls_off


def recover_cfg(image: bytes, origin: int, entries: Iterable[int],
                dyn_edges: Optional[Dict[int, Set[int]]] = None) -> Cfg:
    """Recursive-descent CFG recovery seeded at ``entries``.

    ``dyn_edges`` maps an instruction address (a JMPR/IRET site) to the
    in-image targets the abstract interpreter resolved for it.
    """
    end = origin + len(image)
    dyn_edges = dyn_edges or {}
    entry_set = frozenset(a for a in entries if origin <= a < end)
    cfg = Cfg(origin=origin, end=end, entries=entry_set)
    cfg.linear = list(decode_range(image, origin))

    # -- pass 1: reachable instruction map -----------------------------
    succ_map: Dict[int, List[Tuple[int, str]]] = {}
    worklist = list(entry_set)
    while worklist:
        address = worklist.pop()
        if address in cfg.insn_at:
            continue
        insn = _decode_at(image, origin, address)
        cfg.insn_at[address] = insn
        succs, escaped, falls_off = _static_successors(insn, origin, end)
        for target in sorted(dyn_edges.get(address, ())):
            if origin <= target < end:
                kind = EDGE_CALL if insn.mnemonic == "CALLR" else EDGE_DYN
                succs.append((target, kind))
        succ_map[address] = succs
        cfg.out_of_image.extend(escaped)
        if falls_off:
            cfg.fall_off.append(address)
        for target, kind in succs:
            if kind != EDGE_FALL:
                cfg.branch_targets.append((address, target))
            worklist.append(target)

    # -- pass 2: split into basic blocks -------------------------------
    leaders: Set[int] = set(entry_set)
    for address, succs in succ_map.items():
        insn = cfg.insn_at[address]
        if insn.mnemonic in CONTROL_MNEMONICS or insn.is_pseudo \
                or address in dyn_edges:
            for target, kind in succs:
                leaders.add(target)
    for leader in leaders:
        if leader not in cfg.insn_at:
            continue
        block = BasicBlock(start=leader)
        address = leader
        while True:
            insn = cfg.insn_at[address]
            block.insns.append(insn)
            succs = succ_map[address]
            is_control = (insn.mnemonic in CONTROL_MNEMONICS
                          or insn.is_pseudo or address in dyn_edges)
            after = address + insn.length
            if is_control or after in leaders or after not in cfg.insn_at \
                    or not succs:
                block.succs = list(succs)
                break
            address = after
        cfg.blocks[leader] = block
    return cfg
