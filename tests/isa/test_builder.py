"""Tests for the programmatic kernel builder."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.errors import AssemblyError
from repro.isa import KernelBuilder
from repro.isa.control_notation import notation_schedule_for
from repro.isa.encoding import encode_instruction
from repro.isa.instructions import ConstRef, MemRef, Opcode
from repro.isa.registers import SpecialRegister, predicate, reg


class TestEmission:
    def test_ffma_chain(self):
        builder = KernelBuilder()
        builder.ffma(4, 5, 6, 4)
        builder.exit()
        kernel = builder.build()
        assert kernel.instructions[0].opcode is Opcode.FFMA
        assert kernel.instructions[0].sources == (reg(5), reg(6), reg(4))

    def test_integer_helpers(self):
        builder = KernelBuilder()
        builder.iadd(0, 1, 4)
        builder.imul(2, 3, 8)
        builder.imad(4, 5, 16, reg(6))
        builder.shl(7, 8, 2)
        builder.shr(9, 10, 4)
        builder.lop_and(11, 12, 15)
        builder.exit()
        kernel = builder.build()
        opcodes = [i.opcode for i in kernel.instructions[:-1]]
        assert opcodes == [
            Opcode.IADD,
            Opcode.IMUL,
            Opcode.IMAD,
            Opcode.SHL,
            Opcode.SHR,
            Opcode.LOP_AND,
        ]

    def test_memory_helpers(self):
        builder = KernelBuilder(shared_memory_bytes=1024)
        builder.lds(8, MemRef(base=reg(30), offset=16), width=64)
        builder.sts(MemRef(base=reg(30)), 8, width=32)
        builder.ld(12, MemRef(base=reg(31)), width=128)
        builder.st(MemRef(base=reg(31), offset=4), 12)
        builder.exit()
        kernel = builder.build()
        assert kernel.instructions[0].width == 64
        assert kernel.instructions[2].width == 128
        assert kernel.shared_memory_bytes == 1024

    def test_mov_variants(self):
        builder = KernelBuilder()
        builder.mov(0, reg(1))
        builder.mov(2, ConstRef(bank=0, offset=0x20))
        builder.mov32i(3, 42)
        builder.mov32i(4, 1.25)
        builder.exit()
        kernel = builder.build()
        assert kernel.instructions[1].sources[0] == ConstRef(bank=0, offset=0x20)

    def test_special_registers(self):
        builder = KernelBuilder()
        builder.s2r(0, SpecialRegister.TID_X)
        builder.exit()
        assert builder.build().instructions[0].special is SpecialRegister.TID_X

    def test_bool_operand_rejected(self):
        builder = KernelBuilder()
        with pytest.raises(AssemblyError):
            builder.iadd(0, 1, True)


class TestControlFlow:
    def test_loop_with_labels(self):
        builder = KernelBuilder()
        builder.mov32i(0, 4)
        loop = builder.label("LOOP")
        builder.iadd(0, 0, -1)
        builder.isetp(predicate(0), "GT", 0, 0)
        builder.bra(loop, predicate=predicate(0))
        builder.exit()
        kernel = builder.build()
        bra_index = next(i for i, x in enumerate(kernel.instructions) if x.opcode is Opcode.BRA)
        assert kernel.branch_targets[bra_index] == 1

    def test_forward_label_placement(self):
        builder = KernelBuilder()
        skip = builder.new_label("SKIP")
        builder.bra(skip)
        builder.nop()
        builder.place(skip)
        builder.exit()
        kernel = builder.build()
        assert kernel.branch_targets[0] == 2

    def test_guarded_scope(self):
        builder = KernelBuilder()
        with builder.guarded(predicate(1)):
            builder.ffma(0, 1, 2, 0)
        builder.ffma(3, 4, 5, 3)
        builder.exit()
        kernel = builder.build()
        assert kernel.instructions[0].predicate == predicate(1)
        assert kernel.instructions[1].predicate.is_true

    def test_barrier_and_exit(self):
        builder = KernelBuilder()
        builder.bar(0)
        builder.exit()
        kernel = builder.build()
        assert kernel.instructions[0].is_barrier


class TestBookkeeping:
    def test_instruction_count(self):
        builder = KernelBuilder()
        builder.label("START")
        builder.nop()
        builder.nop()
        assert builder.instruction_count == 2

    def test_comment_last(self):
        builder = KernelBuilder()
        builder.ffma(0, 1, 2, 0)
        builder.comment_last("outer product")
        builder.exit()
        assert builder.build().instructions[0].comment == "outer product"

    def test_comment_without_instruction_rejected(self):
        builder = KernelBuilder()
        with pytest.raises(AssemblyError):
            builder.comment_last("nothing here")

    def test_metadata_propagates(self):
        builder = KernelBuilder(name="demo", metadata={"purpose": "test"})
        builder.exit()
        kernel = builder.build()
        assert kernel.name == "demo"
        assert kernel.metadata["purpose"] == "test"

    def test_control_notations_attach_to_a_built_kernel(self):
        builder = KernelBuilder()
        for _ in range(10):
            builder.nop()
        builder.exit()
        built = builder.build()
        assert built.control_notations == ()
        kernel = replace(
            built,
            control_notations=tuple(notation_schedule_for(built.instruction_count, hint=0x25)),
        )
        assert len(kernel.control_notations) == 2


def _ffma(builder):
    return builder.ffma(0, 1, 2, 0)


def _ffma_at(path):
    def emit(builder):
        with builder.provenance(path):
            return _ffma(builder)
    return emit


def _ffma_guarded(negated):
    def emit(builder):
        with builder.guarded(predicate(1), negated):
            return _ffma(builder)
    return emit


#: Pairs of emissions the builder must keep apart, each with the (primary,
#: extension) words its instruction encodes to.  The first two pairs are
#: equal under ``Instruction.__eq__``; the negation pair differs only in
#: the class of ``predicate_negated``, which pickles differently.
_LOOK_ALIKES = [
    pytest.param(lambda b: b.mov32i(0, 1), (0x500000000070E, 0x1),
                 lambda b: b.mov32i(0, 1.0), (0x900000000070E, 0x3F800000),
                 id="immediate-1-vs-1.0"),
    pytest.param(lambda b: b.fadd(0, 1, 1), (0x22000040000702, 0x100000000),
                 lambda b: b.fadd(0, 1, 1.0), (0x42000040000702, 0x3F80000000000000),
                 id="source-1-vs-1.0"),
    pytest.param(lambda b: b.mov32i(0, 0.0), (0x900000000070E, 0x0),
                 lambda b: b.mov32i(0, -0.0), (0x900000000070E, 0x80000000),
                 id="zero-vs-negative-zero"),
    pytest.param(_ffma, (0x3002040000701, 0x0),
                 _ffma_at("a"), (0x3002040000701, 0x0), id="provenance"),
    pytest.param(_ffma, (0x3002040000701, 0x0),
                 _ffma_guarded(False), (0x3002040000101, 0x0), id="guard"),
    pytest.param(_ffma_guarded(False), (0x3002040000101, 0x0),
                 _ffma_guarded(True), (0x3002040000901, 0x0), id="negated-guard"),
    pytest.param(_ffma_guarded(1), (0x3002040000901, 0x0),
                 _ffma_guarded(True), (0x3002040000901, 0x0), id="negation-1-vs-True"),
]


class TestSharing:
    """A builder emits each distinct instruction once."""

    def test_an_equal_instruction_is_the_same_object(self):
        builder = KernelBuilder()

        def emit_all():
            return [
                builder.ffma(4, 5, 6, 4),
                builder.iadd(0, 1, 4),
                builder.lds(8, MemRef(base=reg(30), offset=16), width=64),
                builder.mov(2, ConstRef(bank=0, offset=0x20)),
                builder.isetp(predicate(0), "GT", 0, 0),
                builder.s2r(3, SpecialRegister.TID_X),
                builder.bar(),
            ]

        first, again = emit_all(), emit_all()
        builder.exit()
        kernel = builder.build()
        assert len({id(instruction) for instruction in first}) == len(first)
        assert all(repeat is original for repeat, original in zip(again, first))
        assert list(kernel.instructions[len(first):-1]) == again
        assert all(kernel.encoded[i] is kernel.encoded[i + len(first)]
                   for i in range(len(first)))

    @pytest.mark.parametrize("emit_a, words_a, emit_b, words_b", _LOOK_ALIKES)
    def test_a_look_alike_stays_distinct(self, emit_a, words_a, emit_b, words_b):
        builder = KernelBuilder()
        a, b = emit_a(builder), emit_b(builder)
        assert b is not a
        assert emit_a(builder) is a and emit_b(builder) is b
        for emit, instruction, words in ((emit_a, a, words_a), (emit_b, b, words_b)):
            encoded = encode_instruction(instruction)
            assert (encoded.primary, encoded.extension) == words
            # Field for field (classes included) what a builder of its own emits.
            assert pickle.dumps(instruction) == pickle.dumps(emit(KernelBuilder()))

    def test_comment_last_changes_only_the_last_position(self):
        builder = KernelBuilder()
        shared = builder.ffma(0, 1, 2, 0)
        builder.ffma(0, 1, 2, 0)
        builder.comment_last("outer product")
        again = builder.ffma(0, 1, 2, 0)
        builder.exit()
        first, commented, third, _ = builder.build().instructions
        assert first is shared and third is shared and again is shared
        assert shared.comment == ""
        assert commented.comment == "outer product"
        assert commented == shared.with_comment("outer product")
