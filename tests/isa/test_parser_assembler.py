"""Tests for the text parser, assembler and disassembler round trips."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import AssemblyError
from repro.isa import assemble_text, disassemble, format_instruction, parse_program
from repro.isa.control_notation import notation_schedule_for
from repro.isa.instructions import ConstRef, Immediate, MemRef, Opcode
from repro.isa.parser import parse_instruction_line
from repro.isa.registers import predicate, reg

SAMPLE_KERNEL = """
// SGEMM-style main loop fragment
MAIN_LOOP:
    LDS.64 R8, [R40+0x180];
    FFMA R26, R8, R20, R26;
    FFMA R27, R9, R20, R27;
    IADD R5, R5, -1;
    ISETP.GT P0, R5, 0;
@P0 BRA MAIN_LOOP;
    BAR.SYNC 0;
    ST [R50+0x10], R26;
    EXIT;
"""


def _with_notations(kernel):
    """``kernel`` with the uniform default-hint control notations attached."""
    return replace(
        kernel, control_notations=tuple(notation_schedule_for(kernel.instruction_count))
    )


class TestParser:
    def test_parses_sample_kernel(self):
        program = parse_program(SAMPLE_KERNEL)
        assert len(program.instructions) == 9
        assert program.label_positions() == {"MAIN_LOOP": 0}

    def test_ffma_line(self):
        instruction = parse_instruction_line("FFMA R26, R8, R20, R26;")
        assert instruction.opcode is Opcode.FFMA
        assert instruction.dest == reg(26)
        assert instruction.sources == (reg(8), reg(20), reg(26))

    def test_guarded_negated_branch(self):
        instruction = parse_instruction_line("@!P3 BRA LOOP")
        assert instruction.predicate == predicate(3)
        assert instruction.predicate_negated
        assert instruction.target.name == "LOOP"

    def test_lds_widths(self):
        assert parse_instruction_line("LDS R4, [R10];").width == 32
        assert parse_instruction_line("LDS.64 R4, [R10];").width == 64
        assert parse_instruction_line("LDS.128 R4, [R10];").width == 128

    def test_memref_offset_parsing(self):
        instruction = parse_instruction_line("LDS.64 R4, [R10+0x40];")
        assert instruction.memory_operand == MemRef(base=reg(10), offset=0x40)

    def test_constant_operand(self):
        instruction = parse_instruction_line("MOV R2, c[0x0][0x28];")
        assert instruction.sources[0] == ConstRef(bank=0, offset=0x28)

    def test_float_and_int_immediates(self):
        assert parse_instruction_line("MOV32I R0, 1.5;").sources[0] == Immediate(1.5)
        assert parse_instruction_line("IADD R0, R1, -16;").sources[1].as_int() == -16
        assert parse_instruction_line("IADD R0, R1, 0x40;").sources[1].as_int() == 64

    def test_sts_has_no_destination(self):
        instruction = parse_instruction_line("STS.64 [R30+0x8], R12;")
        assert instruction.dest is None
        assert instruction.width == 64

    def test_comments_and_blank_lines_ignored(self):
        program = parse_program("// nothing\n\n# also nothing\nEXIT;\n")
        assert len(program.instructions) == 1

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError):
            parse_instruction_line("FROB R0, R1;")

    def test_register_beyond_limit_rejected(self):
        with pytest.raises(Exception):
            parse_instruction_line("FFMA R63, R1, R2, R3;")

    def test_isetp_requires_comparison(self):
        with pytest.raises(AssemblyError):
            parse_instruction_line("ISETP P0, R1, R2;")


class TestAssembler:
    def test_branch_targets_resolved(self):
        kernel = assemble_text(SAMPLE_KERNEL)
        bra_index = next(
            i for i, ins in enumerate(kernel.instructions) if ins.opcode is Opcode.BRA
        )
        assert kernel.branch_targets[bra_index] == 0

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble_text("BRA NOWHERE;\nEXIT;")

    def test_register_count(self):
        kernel = assemble_text(SAMPLE_KERNEL)
        assert kernel.register_count == 51  # R50 is the highest register touched

    def test_instruction_mix(self):
        kernel = assemble_text(SAMPLE_KERNEL)
        mix = kernel.instruction_mix()
        assert mix["FFMA"] == 2
        assert mix["LDS.64"] == 1
        assert mix["EXIT"] == 1

    def test_ffma_fraction(self):
        kernel = assemble_text(SAMPLE_KERNEL)
        assert kernel.ffma_fraction() == pytest.approx(2 / 9)

    def test_control_notation_emission(self):
        kernel = _with_notations(assemble_text(SAMPLE_KERNEL))
        assert len(kernel.control_notations) == 2  # ceil(9 / 7)
        assert kernel.control_notation_for(0) is not None
        assert kernel.control_notation_for(8) is not None

    def test_binary_size_accounts_for_notations(self):
        plain = assemble_text(SAMPLE_KERNEL)
        noted = _with_notations(plain)
        assert noted.binary_size_bytes() == plain.binary_size_bytes() + 16

    def test_encoded_stream_length(self):
        kernel = assemble_text(SAMPLE_KERNEL)
        assert len(kernel.encoded) == kernel.instruction_count


class TestDisassembler:
    def test_round_trip_preserves_semantics(self):
        kernel = assemble_text(SAMPLE_KERNEL)
        text = disassemble(kernel)
        rebuilt = assemble_text(text)
        assert [i.opcode for i in rebuilt.instructions] == [
            i.opcode for i in kernel.instructions
        ]
        assert [i.sources for i in rebuilt.instructions] == [
            i.sources for i in kernel.instructions
        ]
        assert rebuilt.branch_targets == kernel.branch_targets

    def test_format_single_instruction(self):
        instruction = parse_instruction_line("@P0 FFMA R26, R8, R20, R26;")
        line = format_instruction(instruction)
        assert line.startswith("@P0 FFMA")
        assert "R26" in line

    def test_format_guard_negation(self):
        instruction = parse_instruction_line("@!P1 BRA OUT;")
        assert format_instruction(instruction).startswith("@!P1 BRA")
