"""Unit tests for the assembler and disassembler."""

import pytest

from repro.asm import assemble, decode_one, disassemble, iter_listing
from repro.errors import AssemblerError, DisassemblerError
from repro.hw import isa


class TestDirectives:
    def test_org_sets_origin(self):
        program = assemble(".org 0x2000\nNOP\n")
        assert program.origin == 0x2000
        assert program.image == b"\x00"

    def test_org_pads_forward(self):
        program = assemble("NOP\n.org 0x10\nNOP\n")
        assert len(program.image) == 0x11
        assert program.image[0] == 0x00
        assert program.image[0x10] == 0x00  # NOP opcode

    def test_org_backwards_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".org 0x100\nNOP\n.org 0x50\n")

    def test_equ_defines_constant(self):
        program = assemble(".equ PORT, 0x3F8\nMOVI R0, PORT\n")
        assert program.image[2:6] == (0x3F8).to_bytes(4, "little")

    def test_equ_duplicate_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".equ A, 1\n.equ A, 2\n")

    def test_word_and_byte(self):
        program = assemble(".word 1, 0x200\n.byte 7, 'A'\n")
        assert program.image == b"\x01\x00\x00\x00\x00\x02\x00\x00\x07A"

    def test_ascii_and_asciz(self):
        program = assemble('.ascii "ab"\n.asciz "cd"\n')
        assert program.image == b"abcd\0"

    def test_ascii_escapes(self):
        program = assemble('.ascii "a\\n\\0b"')
        assert program.image == b"a\n\0b"

    def test_align(self):
        program = assemble("NOP\n.align 4\n.byte 1\n")
        assert len(program.image) == 5
        assert program.image[4] == 1

    def test_align_non_power_of_two_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".align 3\n")

    def test_space(self):
        program = assemble(".space 5\n.byte 9\n")
        assert program.image == b"\0\0\0\0\0\x09"


class TestLabels:
    def test_label_resolves_forward_and_backward(self):
        program = assemble("""
        start:
            JMP end
        middle:
            NOP
            JMP start
        end:
            NOP
        """)
        assert program.symbol("start") == 0
        assert program.symbol("middle") == 5
        assert program.symbol("end") == 11

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\nNOP\na:\nNOP\n")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("JMP nowhere\n")

    def test_label_with_statement_on_same_line(self):
        program = assemble("here: NOP\n")
        assert program.symbol("here") == 0
        assert program.image == b"\x00"

    def test_dot_is_current_address(self):
        program = assemble(".org 0x100\nMOVI R0, .\n")
        assert program.image[2:6] == (0x100).to_bytes(4, "little")


class TestInstructionEncoding:
    def test_movi(self):
        program = assemble("MOVI R3, 0xDEADBEEF\n")
        assert program.image == b"\x10\x03\xef\xbe\xad\xde"

    def test_rr_packing(self):
        program = assemble("ADD R2, R5\n")
        assert program.image == bytes([0x20, (2 << 4) | 5])

    def test_ld_st_operand_order(self):
        load = assemble("LD R1, [R2+8]\n").image
        store = assemble("ST [R2+8], R1\n").image
        assert load[0] == isa.BY_MNEMONIC["LD"].opcode
        assert store[0] == isa.BY_MNEMONIC["ST"].opcode
        assert load[1] == store[1] == (1 << 4) | 2
        assert load[2:6] == store[2:6] == (8).to_bytes(4, "little")

    def test_negative_displacement(self):
        program = assemble("LD R0, [SP-4]\n")
        assert program.image[2:6] == (0x100000000 - 4).to_bytes(4, "little")

    def test_sp_fp_aliases(self):
        program = assemble("MOV SP, FP\n")
        assert program.image[1] == (7 << 4) | 6

    def test_relative_branch_encoding(self):
        program = assemble("start: JMP start\n")
        # rel = 0 - 5 = -5
        assert program.image[1:5] == (0x100000000 - 5).to_bytes(4, "little")

    def test_int_range_check(self):
        with pytest.raises(AssemblerError):
            assemble("INT 256\n")

    def test_movcr_and_movrc(self):
        to_cr = assemble("MOVCR CR3, R1\n").image
        from_cr = assemble("MOVRC R1, CR3\n").image
        assert to_cr[1] == from_cr[1] == (3 << 4) | 1

    def test_movseg(self):
        program = assemble("MOVSEG DS, R2\n")
        assert program.image[1] == (1 << 4) | 2

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("FROB R1\n")

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("MOV R9, R0\n")

    def test_comments_stripped(self):
        program = assemble("NOP ; this is a comment\n; whole line\n")
        assert program.image == b"\x00"

    def test_semicolon_inside_string_kept(self):
        program = assemble('.ascii "a;b"\n')
        assert program.image == b"a;b"

    def test_expression_arithmetic(self):
        program = assemble(".equ BASE, 0x100\nMOVI R0, BASE+0x20+4\n")
        assert program.image[2:6] == (0x124).to_bytes(4, "little")


class TestDisassembler:
    def test_every_instruction_format_round_trips(self):
        source_lines = [
            "NOP", "HLT", "CLI", "STI", "IRET", "RET", "BKPT", "VMCALL",
            "MOVI R1, 0x1234", "MOV R1, R2", "LD R1, [R2+4]",
            "ST [R2+4], R1", "LD8 R0, [R3+1]", "ST8 [R3+1], R0",
            "LD16 R0, [R3+2]", "ST16 [R3+2], R0", "LEA R4, [R5+16]",
            "PUSH R1", "PUSHI 0x99", "POP R1",
            "ADD R1, R2", "ADDI R1, 5", "SUB R1, R2", "SUBI R1, 5",
            "AND R1, R2", "ANDI R1, 5", "OR R1, R2", "ORI R1, 5",
            "XOR R1, R2", "XORI R1, 5", "SHL R1, R2", "SHLI R1, 5",
            "SHR R1, R2", "SHRI R1, 5", "MUL R1, R2", "MULI R1, 5",
            "DIV R1, R2", "DIVI R1, 5", "NOT R1", "NEG R1",
            "CMP R1, R2", "CMPI R1, 5", "TEST R1, R2",
            "JMP 0x40", "JZ 0x40", "JNZ 0x40", "JC 0x40", "JNC 0x40",
            "JG 0x40", "JGE 0x40", "JL 0x40", "JLE 0x40", "JS 0x40",
            "JNS 0x40", "CALL 0x40", "JMPR R1", "CALLR R1",
            "INT 0x21", "INB R0, R1", "OUTB R0, R1", "INW R0, R1",
            "OUTW R0, R1", "MOVCR CR0, R1", "MOVRC R1, CR2",
            "LGDT R1", "LIDT R1", "LTSS R1", "MOVSEG DS, R1",
            "MOVSGR R1, SS",
        ]
        source = "\n".join(source_lines) + "\n"
        program = assemble(source, origin=0x1000)
        decoded = disassemble(program.image, origin=0x1000)
        assert len(decoded) == len(source_lines)
        # Reassembling the disassembly must produce identical bytes.
        round_trip = assemble(
            "\n".join(insn.text for insn in decoded) + "\n", origin=0x1000)
        assert round_trip.image == program.image

    def test_invalid_opcode_rejected(self):
        with pytest.raises(DisassemblerError):
            decode_one(b"\xff", 0, 0)

    def test_truncated_instruction_rejected(self):
        with pytest.raises(DisassemblerError):
            disassemble(b"\x10\x00")  # MOVI missing its immediate

    def test_listing_format(self):
        program = assemble("NOP\n")
        lines = list(iter_listing(program.image))
        assert lines == ["00000000:  00            NOP"]

    def test_branch_target_shown_absolute(self):
        program = assemble(".org 0x100\nhere: JMP here\n")
        decoded = disassemble(program.image, origin=0x100)
        assert decoded[0].text == "JMP 0x100"


class TestProgramApi:
    def test_load_into_memory(self):
        from repro.hw import PhysicalMemory
        memory = PhysicalMemory(0x3000)
        program = assemble(".org 0x2000\n.byte 0xAA\n")
        program.load_into(memory)
        assert memory.read_u8(0x2000) == 0xAA

    def test_unknown_symbol_raises(self):
        program = assemble("NOP\n")
        with pytest.raises(AssemblerError):
            program.symbol("missing")

    def test_end_property(self):
        program = assemble(".org 0x10\n.space 6\n")
        assert program.end == 0x16

    def test_cached_programs_do_not_share_mutable_parts(self):
        """``assemble`` caches by (source, origin), but every call gets
        its own symbols and listing: editing one program changes no
        other, cached or not."""
        source = "start:\n    NOP\nend:\n    HLT\n"
        first = assemble(source, origin=0x100)
        first.symbols["start"] = 0xDEAD
        first.symbols["extra"] = 1
        first.listing.clear()
        second = assemble(source, origin=0x100)
        assert second.symbols == {"start": 0x100, "end": 0x101}
        assert second.listing and second.listing[0][0] == 0x100
        assert second.image == first.image
        assert assemble(source, origin=0x200).symbols["start"] == 0x200


class TestAsmCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "prog.s"
        path.write_text(text)
        return path

    def test_build_writes_image_and_symbols(self, tmp_path, capsys):
        from repro.asm.cli import main
        source = self._write(tmp_path, "start:\nMOVI R0, 5\nHLT\n")
        out = tmp_path / "prog.bin"
        assert main(["build", str(source), "-o", str(out),
                     "--org", "0x1000", "--symbols"]) == 0
        text = capsys.readouterr().out
        assert "7 bytes" in text
        assert "start" in text
        assert out.read_bytes() == assemble(
            "start:\nMOVI R0, 5\nHLT\n", origin=0x1000).image

    def test_dump_round_trips(self, tmp_path, capsys):
        from repro.asm.cli import main
        image = assemble("MOVI R1, 0x42\nNOP\n").image
        path = tmp_path / "img.bin"
        path.write_bytes(image)
        assert main(["dump", str(path)]) == 0
        text = capsys.readouterr().out
        assert "MOVI R1, 0x42" in text
        assert "NOP" in text

    def test_listing(self, tmp_path, capsys):
        from repro.asm.cli import main
        source = self._write(tmp_path, "MOVI R0, 1\nHLT\n")
        assert main(["listing", str(source)]) == 0
        text = capsys.readouterr().out
        assert "00000000  MOVI R0, 1" in text

    def test_error_reported_not_raised(self, tmp_path, capsys):
        from repro.asm.cli import main
        source = self._write(tmp_path, "FROB R1\n")
        assert main(["build", str(source)]) == 1
        assert "repro-asm:" in capsys.readouterr().err
