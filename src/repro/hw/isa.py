"""HX32 instruction-set definition.

HX32 is the reproduction's stand-in for IA-32: a small 32-bit register
machine that keeps exactly the architectural features the paper's
lightweight VMM relies on —

* four privilege rings with privileged instructions that fault with #GP
  when executed from an outer ring (the trap-and-emulate hook),
* segmentation with base/limit/DPL descriptors (the "lightweight memory
  protection" that gives the third protection level),
* two-level paging with supervisor/user pages (the two x86-native levels),
* an IDT with ring transitions and a software-interrupt instruction.

Encodings are deliberately simple (one opcode byte plus fixed operand
bytes per format) so that the assembler, disassembler and interpreter
stay independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

# ---------------------------------------------------------------------------
# Operand formats
# ---------------------------------------------------------------------------

FMT_NONE = "none"   # [op]
FMT_R = "r"         # [op][reg]
FMT_RR = "rr"       # [op][(ra<<4)|rb]
FMT_RI = "ri"       # [op][ra][imm32]
FMT_RRI = "rri"     # [op][(ra<<4)|rb][imm32]      e.g. LD ra, [rb+imm]
FMT_I32 = "i32"     # [op][imm32]
FMT_I8 = "i8"       # [op][imm8]
FMT_REL = "rel"     # [op][rel32]  (signed, relative to next instruction)
FMT_CR = "cr"       # [op][(crn<<4)|reg]
FMT_SEG = "seg"     # [op][(segn<<4)|reg]

_FORMAT_LENGTHS = {
    FMT_NONE: 1,
    FMT_R: 2,
    FMT_RR: 2,
    FMT_RI: 6,
    FMT_RRI: 6,
    FMT_I32: 5,
    FMT_I8: 2,
    FMT_REL: 5,
    FMT_CR: 2,
    FMT_SEG: 2,
}

# -- operand pre-decoding ---------------------------------------------------
#
# One decoder per format, taking the operand bytes (everything after the
# opcode byte) and returning a plain tuple/int the interpreter's handlers
# consume.  Decoding once and caching the result is what lets the CPU's
# decoded-instruction cache skip all byte slicing on the hot path.


def _dec_r(body: bytes) -> int:
    return body[0] & 0x7


def _dec_rr(body: bytes):
    return (body[0] >> 4) & 0x7, body[0] & 0x7


def _dec_ri(body: bytes):
    return body[0] & 0x7, int.from_bytes(body[1:5], "little")


def _dec_rri(body: bytes):
    return ((body[0] >> 4) & 0x7, body[0] & 0x7,
            int.from_bytes(body[1:5], "little"))


def _dec_i32(body: bytes) -> int:
    return int.from_bytes(body[0:4], "little")


def _dec_i8(body: bytes) -> int:
    return body[0]


def _dec_rel(body: bytes) -> int:
    return signed32(int.from_bytes(body[0:4], "little"))


#: Operand decoder per format; ``None`` formats carry no operands.
OPERAND_DECODERS: Dict[str, Optional[Callable]] = {
    FMT_NONE: None,
    FMT_R: _dec_r,
    FMT_RR: _dec_rr,
    FMT_RI: _dec_ri,
    FMT_RRI: _dec_rri,
    FMT_I32: _dec_i32,
    FMT_I8: _dec_i8,
    FMT_REL: _dec_rel,
    # CR/SEG share the RR packing; range checks stay in the handlers so
    # malformed encodings behave exactly as the pre-table interpreter did.
    FMT_CR: _dec_rr,
    FMT_SEG: _dec_rr,
}


def decode_operands(fmt: str, body: bytes):
    """Decode the operand bytes of one instruction (``None`` if none)."""
    decoder = OPERAND_DECODERS[fmt]
    return decoder(body) if decoder is not None else None


#: Privilege requirement levels for instructions.
PRIV_NONE = "none"      # always allowed
PRIV_IOPL = "iopl"      # allowed when CPL <= IOPL (CLI/STI/HLT/IN/OUT)
PRIV_RING0 = "ring0"    # allowed only at CPL == 0 (control registers, LGDT...)


@dataclass(frozen=True)
class InsnSpec:
    """Static description of one instruction."""

    opcode: int
    mnemonic: str
    fmt: str
    privilege: str = PRIV_NONE
    cycles: int = 1

    @property
    def length(self) -> int:
        return _FORMAT_LENGTHS[self.fmt]


def _spec(opcode: int, mnemonic: str, fmt: str, privilege: str = PRIV_NONE,
          cycles: int = 1) -> InsnSpec:
    return InsnSpec(opcode, mnemonic, fmt, privilege, cycles)


#: The full instruction table, keyed by opcode byte.
SPECS: Dict[int, InsnSpec] = {}

#: Same table keyed by mnemonic (assembler lookup).
BY_MNEMONIC: Dict[str, InsnSpec] = {}


def _register(spec: InsnSpec) -> None:
    if spec.opcode in SPECS:
        raise ValueError(f"duplicate opcode 0x{spec.opcode:02x}")
    if spec.mnemonic in BY_MNEMONIC:
        raise ValueError(f"duplicate mnemonic {spec.mnemonic}")
    SPECS[spec.opcode] = spec
    BY_MNEMONIC[spec.mnemonic] = spec


for _s in [
    # -- control ------------------------------------------------------------
    _spec(0x00, "NOP", FMT_NONE),
    _spec(0x01, "HLT", FMT_NONE, PRIV_IOPL, cycles=4),
    _spec(0x02, "CLI", FMT_NONE, PRIV_IOPL, cycles=2),
    _spec(0x03, "STI", FMT_NONE, PRIV_IOPL, cycles=2),
    _spec(0x04, "IRET", FMT_NONE, cycles=8),
    _spec(0x05, "RET", FMT_NONE, cycles=3),
    _spec(0x06, "BKPT", FMT_NONE, cycles=1),
    _spec(0x07, "VMCALL", FMT_NONE, cycles=2),
    # -- data movement ------------------------------------------------------
    _spec(0x10, "MOVI", FMT_RI),
    _spec(0x11, "MOV", FMT_RR),
    _spec(0x12, "LD", FMT_RRI, cycles=2),
    _spec(0x13, "ST", FMT_RRI, cycles=2),
    _spec(0x14, "LD8", FMT_RRI, cycles=2),
    _spec(0x15, "ST8", FMT_RRI, cycles=2),
    _spec(0x16, "LD16", FMT_RRI, cycles=2),
    _spec(0x17, "ST16", FMT_RRI, cycles=2),
    _spec(0x18, "LEA", FMT_RRI),
    _spec(0x19, "PUSH", FMT_R, cycles=2),
    _spec(0x1A, "PUSHI", FMT_I32, cycles=2),
    _spec(0x1B, "POP", FMT_R, cycles=2),
    # PUSHF/POPF are deliberately NOT privileged: like IA-32, POPF from
    # an outer ring silently preserves IF/IOPL instead of faulting —
    # the classic virtualisation hole monitors must design around.
    _spec(0x1C, "PUSHF", FMT_NONE, cycles=2),
    _spec(0x1D, "POPF", FMT_NONE, cycles=2),
    _spec(0x1E, "XCHG", FMT_RR, cycles=2),
    # -- ALU ------------------------------------------------------------------
    _spec(0x20, "ADD", FMT_RR),
    _spec(0x21, "ADDI", FMT_RI),
    _spec(0x22, "SUB", FMT_RR),
    _spec(0x23, "SUBI", FMT_RI),
    _spec(0x24, "AND", FMT_RR),
    _spec(0x25, "ANDI", FMT_RI),
    _spec(0x26, "OR", FMT_RR),
    _spec(0x27, "ORI", FMT_RI),
    _spec(0x28, "XOR", FMT_RR),
    _spec(0x29, "XORI", FMT_RI),
    _spec(0x2A, "SHL", FMT_RR),
    _spec(0x2B, "SHLI", FMT_RI),
    _spec(0x2C, "SHR", FMT_RR),
    _spec(0x2D, "SHRI", FMT_RI),
    _spec(0x2E, "MUL", FMT_RR, cycles=3),
    _spec(0x2F, "MULI", FMT_RI, cycles=3),
    _spec(0x30, "DIV", FMT_RR, cycles=12),
    _spec(0x31, "DIVI", FMT_RI, cycles=12),
    _spec(0x32, "NOT", FMT_R),
    _spec(0x33, "NEG", FMT_R),
    _spec(0x34, "CMP", FMT_RR),
    _spec(0x35, "CMPI", FMT_RI),
    _spec(0x36, "TEST", FMT_RR),
    # -- control flow ---------------------------------------------------------
    _spec(0x40, "JMP", FMT_REL),
    _spec(0x41, "JZ", FMT_REL),
    _spec(0x42, "JNZ", FMT_REL),
    _spec(0x43, "JC", FMT_REL),
    _spec(0x44, "JNC", FMT_REL),
    _spec(0x45, "JG", FMT_REL),
    _spec(0x46, "JGE", FMT_REL),
    _spec(0x47, "JL", FMT_REL),
    _spec(0x48, "JLE", FMT_REL),
    _spec(0x49, "JS", FMT_REL),
    _spec(0x4A, "JNS", FMT_REL),
    _spec(0x4B, "CALL", FMT_REL, cycles=3),
    _spec(0x4C, "JMPR", FMT_R, cycles=2),
    _spec(0x4D, "CALLR", FMT_R, cycles=3),
    # -- traps and I/O ----------------------------------------------------------
    _spec(0x50, "INT", FMT_I8, cycles=10),
    _spec(0x51, "INB", FMT_RR, PRIV_IOPL, cycles=6),
    _spec(0x52, "OUTB", FMT_RR, PRIV_IOPL, cycles=6),
    _spec(0x53, "INW", FMT_RR, PRIV_IOPL, cycles=6),
    _spec(0x54, "OUTW", FMT_RR, PRIV_IOPL, cycles=6),
    # -- system state ------------------------------------------------------------
    _spec(0x60, "MOVCR", FMT_CR, PRIV_RING0, cycles=4),   # CRn <- reg
    _spec(0x61, "MOVRC", FMT_CR, PRIV_RING0, cycles=4),   # reg <- CRn
    _spec(0x62, "LGDT", FMT_R, PRIV_RING0, cycles=6),
    _spec(0x63, "LIDT", FMT_R, PRIV_RING0, cycles=6),
    _spec(0x64, "LTSS", FMT_R, PRIV_RING0, cycles=6),
    _spec(0x65, "MOVSEG", FMT_SEG, cycles=4),             # SEGn <- reg (selector)
    _spec(0x66, "MOVSGR", FMT_SEG, cycles=2),             # reg <- SEGn selector
]:
    _register(_s)


# ---------------------------------------------------------------------------
# Register / segment / control-register name maps
# ---------------------------------------------------------------------------

NUM_GPRS = 8
REG_NAMES = tuple(f"R{i}" for i in range(NUM_GPRS))
#: Conventional roles: R6 is the frame pointer, R7 the stack pointer.
REG_FP = 6
REG_SP = 7

REG_ALIASES = {"FP": REG_FP, "SP": REG_SP}

SEG_CS, SEG_DS, SEG_SS = 0, 1, 2
SEG_NAMES = ("CS", "DS", "SS")

CR_NAMES = ("CR0", "CR1", "CR2", "CR3")
CR0, CR1, CR2, CR3 = 0, 1, 2, 3

#: CR0 feature bits.
CR0_PG = 1 << 31  # paging enabled

# FLAGS register bits (IA-32-like positions).
FLAG_CF = 1 << 0
FLAG_ZF = 1 << 6
FLAG_SF = 1 << 7
FLAG_TF = 1 << 8    # single-step trap
FLAG_IF = 1 << 9    # interrupt enable
FLAG_OF = 1 << 11
IOPL_SHIFT = 12
IOPL_MASK = 0b11 << IOPL_SHIFT

# Exception vectors (IA-32 numbering where it exists).
VEC_DE = 0    # divide error
VEC_DB = 1    # debug (single-step)
VEC_BP = 3    # breakpoint (BKPT)
VEC_UD = 6    # invalid opcode
VEC_DF = 8    # double fault
VEC_SS = 12   # stack-segment fault
VEC_GP = 13   # general protection
VEC_PF = 14   # page fault
VEC_VMCALL = 15  # VMCALL lands here when no monitor intercepts it

#: Vectors that push an error code on delivery.
ERROR_CODE_VECTORS = frozenset({VEC_DF, VEC_SS, VEC_GP, VEC_PF})

#: Vectors that are *faults* (re-execute the instruction after IRET) as
#: opposed to traps (resume after it).
FAULT_VECTORS = frozenset({VEC_DE, VEC_UD, VEC_DF, VEC_SS, VEC_GP, VEC_PF})

#: First vector used for external (device) interrupts; the PIC is
#: conventionally programmed with this base.
IRQ_BASE_VECTOR = 32


def reg_number(name: str) -> Optional[int]:
    """Parse a register name (``R0``..``R7``, ``SP``, ``FP``); None if invalid."""
    upper = name.upper()
    if upper in REG_ALIASES:
        return REG_ALIASES[upper]
    if upper.startswith("R") and upper[1:].isdigit():
        number = int(upper[1:])
        if 0 <= number < NUM_GPRS:
            return number
    return None


def mask32(value: int) -> int:
    """Truncate to an unsigned 32-bit value."""
    return value & 0xFFFFFFFF


def signed32(value: int) -> int:
    """Interpret a 32-bit pattern as signed."""
    value = mask32(value)
    return value - 0x100000000 if value & 0x80000000 else value
