"""Two-pass assembler for the HX32 instruction set.

Grammar (one statement per line, ``;`` starts a comment)::

    .org  ADDRESS            ; set location counter (forward only)
    .equ  NAME, EXPR         ; define a constant
    .word EXPR [, EXPR ...]  ; emit 32-bit little-endian words
    .byte EXPR [, EXPR ...]  ; emit bytes
    .ascii "text"            ; emit string bytes
    .asciz "text"            ; emit string bytes + NUL
    .align N                 ; pad with zeros to an N-byte boundary
    .space N                 ; emit N zero bytes
    label:                   ; define a label at the location counter
    MNEMONIC operands        ; one instruction

Operand syntax by format::

    MOVI  R0, expr           ; register, immediate
    MOV   R0, R1             ; register, register
    LD    R0, [R1 + expr]    ; load:  R0 <- mem[R1+expr]
    ST    [R1 + expr], R0    ; store: mem[R1+expr] <- R0
    LEA   R0, [R1 + expr]
    JMP   label              ; PC-relative, resolved by the assembler
    INT   expr               ; 8-bit immediate
    INB   R0, R1             ; R0 <- port[R1]
    OUTB  R0, R1             ; port[R1] <- R0
    MOVCR CR3, R0            ; control register <- register
    MOVRC R0, CR3            ; register <- control register
    MOVSEG DS, R0            ; segment selector <- register
    MOVSGR R0, DS            ; register <- segment selector

Expressions support decimal, ``0x`` hex, ``'c'`` characters, labels,
``.`` (current address) and ``+``/``-`` chains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import AssemblerError
from repro.hw import isa

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_STRING_RE = re.compile(r'^"((?:[^"\\]|\\.)*)"$')


@dataclass
class Program:
    """The output of assembly: a flat image plus its symbol table."""

    origin: int
    image: bytes
    symbols: Dict[str, int] = field(default_factory=dict)
    #: (address, source line number, source text) per emitted statement.
    listing: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def end(self) -> int:
        return self.origin + len(self.image)

    def load_into(self, memory, offset: int = 0) -> None:
        """Copy the image into physical memory at its origin (+offset)."""
        memory.write(self.origin + offset, self.image)

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise AssemblerError(f"unknown symbol {name!r}") from None


@dataclass
class _Statement:
    line_number: int
    text: str
    address: int
    mnemonic: Optional[str] = None
    operands: str = ""
    directive: Optional[str] = None
    size: int = 0


def _unescape(text: str) -> str:
    return (text.replace("\\n", "\n").replace("\\t", "\t")
            .replace("\\0", "\0").replace('\\"', '"').replace("\\\\", "\\"))


class Assembler:
    """Two-pass assembler: pass 1 sizes statements and collects labels,
    pass 2 evaluates expressions and emits bytes."""

    def __init__(self) -> None:
        self.symbols: Dict[str, int] = {}

    # -- public API ------------------------------------------------------

    def assemble(self, source: str, origin: int = 0) -> Program:
        statements, origin = self._pass_one(source, origin)
        return self._pass_two(statements, origin)

    # -- pass 1 -----------------------------------------------------------

    def _pass_one(self, source: str,
                  origin: int) -> Tuple[List[_Statement], int]:
        self.symbols = {}
        statements: List[_Statement] = []
        location = origin
        origin_set = False

        for line_number, raw_line in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw_line).strip()
            if not line:
                continue
            # Peel off any label definitions.
            while True:
                match = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*", line)
                if not match:
                    break
                label = match.group(1)
                if label in self.symbols:
                    raise AssemblerError(
                        f"line {line_number}: duplicate label {label!r}")
                self.symbols[label] = location
                line = line[match.end():].strip()
            if not line:
                continue

            statement = _Statement(line_number, line, location)
            if line.startswith("."):
                parts = line.split(None, 1)
                statement.directive = parts[0].lower()
                statement.operands = parts[1] if len(parts) > 1 else ""
                size, location, origin, origin_set = self._size_directive(
                    statement, location, origin, origin_set,
                    any_code=bool(statements))
                statement.size = size
            else:
                parts = line.split(None, 1)
                mnemonic = parts[0].upper()
                spec = isa.BY_MNEMONIC.get(mnemonic)
                if spec is None:
                    raise AssemblerError(
                        f"line {line_number}: unknown mnemonic {mnemonic!r}")
                statement.mnemonic = mnemonic
                statement.operands = parts[1] if len(parts) > 1 else ""
                statement.size = spec.length
                location += spec.length
            statements.append(statement)
        return statements, origin

    def _size_directive(self, statement: _Statement, location: int,
                        origin: int, origin_set: bool,
                        any_code: bool) -> Tuple[int, int, int, bool]:
        name = statement.directive
        operands = statement.operands
        line = statement.line_number
        if name == ".org":
            target = self._eval(operands, line, location)
            if any_code and target < location:
                raise AssemblerError(
                    f"line {line}: .org cannot move backwards "
                    f"({target:#x} < {location:#x})")
            if not any_code and not origin_set:
                return 0, target, target, True
            return target - location, target, origin, origin_set
        if name == ".equ":
            parts = operands.split(",", 1)
            if len(parts) != 2:
                raise AssemblerError(f"line {line}: .equ NAME, EXPR")
            symbol_name = parts[0].strip()
            if not _LABEL_RE.match(symbol_name):
                raise AssemblerError(
                    f"line {line}: bad .equ name {symbol_name!r}")
            if symbol_name in self.symbols:
                raise AssemblerError(
                    f"line {line}: duplicate symbol {symbol_name!r}")
            self.symbols[symbol_name] = self._eval(parts[1], line, location)
            return 0, location, origin, origin_set
        if name == ".word":
            count = len(self._split_operands(operands))
            return 4 * count, location + 4 * count, origin, origin_set
        if name == ".byte":
            count = len(self._split_operands(operands))
            return count, location + count, origin, origin_set
        if name in (".ascii", ".asciz"):
            text = self._parse_string(operands, line)
            size = len(text) + (1 if name == ".asciz" else 0)
            return size, location + size, origin, origin_set
        if name == ".align":
            boundary = self._eval(operands, line, location)
            if boundary <= 0 or boundary & (boundary - 1):
                raise AssemblerError(
                    f"line {line}: .align needs a power of two")
            padding = (-location) % boundary
            return padding, location + padding, origin, origin_set
        if name == ".space":
            size = self._eval(operands, line, location)
            if size < 0:
                raise AssemblerError(f"line {line}: negative .space")
            return size, location + size, origin, origin_set
        raise AssemblerError(f"line {line}: unknown directive {name!r}")

    # -- pass 2 -----------------------------------------------------------

    def _pass_two(self, statements: List[_Statement], origin: int) -> Program:
        chunks: List[bytes] = []
        listing: List[Tuple[int, int, str]] = []
        for statement in statements:
            if statement.directive is not None:
                emitted = self._emit_directive(statement)
            else:
                emitted = self._emit_instruction(statement)
            if len(emitted) != statement.size:
                raise AssemblerError(
                    f"line {statement.line_number}: internal size mismatch "
                    f"({len(emitted)} != {statement.size})")
            if emitted:
                listing.append((statement.address, statement.line_number,
                                statement.text))
            chunks.append(emitted)
        return Program(origin=origin, image=b"".join(chunks),
                       symbols=dict(self.symbols), listing=listing)

    def _emit_directive(self, statement: _Statement) -> bytes:
        name = statement.directive
        line = statement.line_number
        operands = statement.operands
        if name in (".org", ".align", ".space"):
            return b"\x00" * statement.size
        if name == ".equ":
            return b""
        if name == ".word":
            values = [self._eval(op, line, statement.address)
                      for op in self._split_operands(operands)]
            return b"".join(isa.mask32(v).to_bytes(4, "little")
                            for v in values)
        if name == ".byte":
            values = [self._eval(op, line, statement.address)
                      for op in self._split_operands(operands)]
            return bytes(v & 0xFF for v in values)
        if name == ".ascii":
            return self._parse_string(operands, line).encode("latin-1")
        if name == ".asciz":
            return self._parse_string(operands, line).encode("latin-1") + b"\0"
        raise AssemblerError(f"line {line}: unknown directive {name!r}")

    def _emit_instruction(self, statement: _Statement) -> bytes:
        spec = isa.BY_MNEMONIC[statement.mnemonic]
        line = statement.line_number
        operands = statement.operands.strip()
        address = statement.address
        fmt = spec.fmt

        if fmt == isa.FMT_NONE:
            self._expect_no_operands(operands, line)
            return bytes([spec.opcode])
        if fmt == isa.FMT_R:
            reg = self._parse_reg(operands, line)
            return bytes([spec.opcode, reg])
        if fmt == isa.FMT_RR:
            first, second = self._two_operands(operands, line)
            ra = self._parse_reg(first, line)
            rb = self._parse_reg(second, line)
            return bytes([spec.opcode, (ra << 4) | rb])
        if fmt == isa.FMT_RI:
            first, second = self._two_operands(operands, line)
            reg = self._parse_reg(first, line)
            value = self._eval(second, line, address)
            return bytes([spec.opcode, reg]) + \
                isa.mask32(value).to_bytes(4, "little")
        if fmt == isa.FMT_RRI:
            return self._emit_rri(spec, operands, line, address)
        if fmt == isa.FMT_I32:
            value = self._eval(operands, line, address)
            return bytes([spec.opcode]) + isa.mask32(value).to_bytes(4, "little")
        if fmt == isa.FMT_I8:
            value = self._eval(operands, line, address)
            if not 0 <= value <= 0xFF:
                raise AssemblerError(
                    f"line {line}: 8-bit immediate out of range: {value}")
            return bytes([spec.opcode, value])
        if fmt == isa.FMT_REL:
            target = self._eval(operands, line, address)
            rel = target - (address + spec.length)
            return bytes([spec.opcode]) + \
                isa.mask32(rel).to_bytes(4, "little")
        if fmt == isa.FMT_CR:
            return self._emit_cr(spec, operands, line)
        if fmt == isa.FMT_SEG:
            return self._emit_seg(spec, operands, line)
        raise AssemblerError(f"line {line}: unhandled format {fmt!r}")

    def _emit_rri(self, spec: isa.InsnSpec, operands: str, line: int,
                  address: int) -> bytes:
        first, second = self._two_operands(operands, line)
        if spec.mnemonic.startswith("ST"):
            mem_operand, reg_operand = first, second
        else:
            reg_operand, mem_operand = first, second
        ra = self._parse_reg(reg_operand, line)
        rb, displacement = self._parse_mem(mem_operand, line, address)
        return bytes([spec.opcode, (ra << 4) | rb]) + \
            isa.mask32(displacement).to_bytes(4, "little")

    def _emit_cr(self, spec: isa.InsnSpec, operands: str, line: int) -> bytes:
        first, second = self._two_operands(operands, line)
        if spec.mnemonic == "MOVCR":
            cr_operand, reg_operand = first, second
        else:
            reg_operand, cr_operand = first, second
        crn = self._parse_cr(cr_operand, line)
        reg = self._parse_reg(reg_operand, line)
        return bytes([spec.opcode, (crn << 4) | reg])

    def _emit_seg(self, spec: isa.InsnSpec, operands: str, line: int) -> bytes:
        first, second = self._two_operands(operands, line)
        if spec.mnemonic == "MOVSEG":
            seg_operand, reg_operand = first, second
        else:
            reg_operand, seg_operand = first, second
        segn = self._parse_seg(seg_operand, line)
        reg = self._parse_reg(reg_operand, line)
        return bytes([spec.opcode, (segn << 4) | reg])

    # -- operand parsing ------------------------------------------------------

    @staticmethod
    def _strip_comment(line: str) -> str:
        in_string = False
        for index, char in enumerate(line):
            if char == '"' and (index == 0 or line[index - 1] != "\\"):
                in_string = not in_string
            elif char == ";" and not in_string:
                return line[:index]
        return line

    @staticmethod
    def _split_operands(text: str) -> List[str]:
        parts = [p.strip() for p in text.split(",")]
        if parts == [""]:
            raise AssemblerError("expected operands")
        return parts

    @staticmethod
    def _expect_no_operands(operands: str, line: int) -> None:
        if operands:
            raise AssemblerError(
                f"line {line}: unexpected operands {operands!r}")

    @staticmethod
    def _two_operands(operands: str, line: int) -> Tuple[str, str]:
        depth = 0
        for index, char in enumerate(operands):
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == "," and depth == 0:
                return operands[:index].strip(), operands[index + 1:].strip()
        raise AssemblerError(f"line {line}: expected two operands in "
                             f"{operands!r}")

    @staticmethod
    def _parse_reg(text: str, line: int) -> int:
        reg = isa.reg_number(text.strip())
        if reg is None:
            raise AssemblerError(f"line {line}: bad register {text!r}")
        return reg

    @staticmethod
    def _parse_cr(text: str, line: int) -> int:
        name = text.strip().upper()
        if name in isa.CR_NAMES:
            return isa.CR_NAMES.index(name)
        raise AssemblerError(f"line {line}: bad control register {text!r}")

    @staticmethod
    def _parse_seg(text: str, line: int) -> int:
        name = text.strip().upper()
        if name in isa.SEG_NAMES:
            return isa.SEG_NAMES.index(name)
        raise AssemblerError(f"line {line}: bad segment register {text!r}")

    def _parse_mem(self, text: str, line: int,
                   address: int) -> Tuple[int, int]:
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise AssemblerError(
                f"line {line}: expected memory operand, got {text!r}")
        inner = text[1:-1].strip()
        match = re.match(r"^(R\d+|SP|FP)\s*(?:([+-])\s*(.+))?$", inner,
                         re.IGNORECASE)
        if not match:
            raise AssemblerError(
                f"line {line}: bad memory operand {text!r} "
                "(expected [Rn], [Rn+expr] or [Rn-expr])")
        reg = self._parse_reg(match.group(1), line)
        displacement = 0
        if match.group(2):
            displacement = self._eval(match.group(3), line, address)
            if match.group(2) == "-":
                displacement = -displacement
        return reg, displacement

    def _parse_string(self, operands: str, line: int) -> str:
        match = _STRING_RE.match(operands.strip())
        if not match:
            raise AssemblerError(f"line {line}: expected quoted string")
        return _unescape(match.group(1))

    # -- expression evaluation ------------------------------------------------

    def _eval(self, text: str, line: int, address: int) -> int:
        tokens = re.findall(
            r"0x[0-9A-Fa-f]+|\d+|'(?:\\.|[^'])'|[A-Za-z_.$][A-Za-z0-9_.$]*"
            r"|[+\-]", text.replace(" ", ""))
        if not tokens or "".join(tokens) != text.replace(" ", ""):
            raise AssemblerError(f"line {line}: cannot parse expression "
                                 f"{text!r}")
        total = 0
        sign = 1
        expect_value = True
        for token in tokens:
            if token in "+-":
                if expect_value:
                    if token == "-":
                        sign = -sign
                    continue
                sign = 1 if token == "+" else -1
                expect_value = True
                continue
            if not expect_value:
                raise AssemblerError(
                    f"line {line}: unexpected token {token!r} in {text!r}")
            total += sign * self._atom(token, line, address)
            sign = 1
            expect_value = False
        if expect_value:
            raise AssemblerError(f"line {line}: dangling operator in {text!r}")
        return total

    def _atom(self, token: str, line: int, address: int) -> int:
        if token.startswith("0x") or token.startswith("0X"):
            return int(token, 16)
        if token.isdigit():
            return int(token, 10)
        if token.startswith("'"):
            char = _unescape(token[1:-1])
            if len(char) != 1:
                raise AssemblerError(f"line {line}: bad char literal {token}")
            return ord(char)
        if token == ".":
            return address
        if token in self.symbols:
            return self.symbols[token]
        raise AssemblerError(f"line {line}: undefined symbol {token!r}")


#: Assembled programs by ``(source, origin)``, shared by every caller in
#: the process: builders such as ``build_kernel`` assemble the same
#: source for each machine they build.  Oldest entry dropped first.
_PROGRAMS: Dict[Tuple[str, int], Program] = {}
_PROGRAM_CAPACITY = 32


def assemble(source: str, origin: int = 0) -> Program:
    """Convenience wrapper: assemble ``source`` at ``origin``.

    Results are cached; each call returns a new :class:`Program` whose
    ``symbols`` and ``listing`` are its own copies, so a caller that
    edits them changes neither the cache nor another caller's program.
    """
    key = (source, origin)
    cached = _PROGRAMS.get(key)
    if cached is None:
        cached = Assembler().assemble(source, origin)
        if len(_PROGRAMS) >= _PROGRAM_CAPACITY:
            del _PROGRAMS[next(iter(_PROGRAMS))]
        _PROGRAMS[key] = cached
    return Program(origin=cached.origin, image=cached.image,
                   symbols=dict(cached.symbols),
                   listing=list(cached.listing))
