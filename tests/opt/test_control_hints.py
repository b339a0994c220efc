"""Tests for the Kepler control-notation assignment pass."""

from __future__ import annotations

from repro.isa.control_notation import (
    GROUP_SIZE,
    decode_control_word,
    encode_control_word,
)
from repro.opt.control_hints import YIELD_FLAG, assign_control_hints


class TestSchemes:
    def test_minimal_zeroes_stalls_everywhere(self, naive_kernel):
        kernel = assign_control_hints(naive_kernel)
        for index in range(kernel.instruction_count):
            notation = kernel.control_notation_for(index)
            assert notation is not None
            assert notation.stall_cycles(index % GROUP_SIZE) == 0

    def test_minimal_yields_after_memory_ops(self, naive_kernel):
        kernel = assign_control_hints(naive_kernel)
        for index, instruction in enumerate(kernel.instructions):
            notation = kernel.control_notation_for(index)
            expected = instruction.is_memory or instruction.is_barrier
            assert notation.yield_flag(index % GROUP_SIZE) == expected


class TestStructure:
    def test_group_count_covers_all_instructions(self, naive_kernel):
        kernel = assign_control_hints(naive_kernel)
        expected_groups = -(-kernel.instruction_count // GROUP_SIZE)
        assert len(kernel.control_notations) == expected_groups

    def test_notations_survive_control_word_round_trip(self, naive_kernel):
        kernel = assign_control_hints(naive_kernel)
        for notation in kernel.control_notations:
            decoded = decode_control_word(encode_control_word(notation))
            assert decoded.padded() == notation.padded()

    def test_instruction_stream_untouched(self, naive_kernel):
        kernel = assign_control_hints(naive_kernel)
        assert kernel.instructions == naive_kernel.instructions

    def test_binary_grows_by_one_word_per_group(self, naive_kernel):
        kernel = assign_control_hints(naive_kernel)
        assert (
            kernel.binary_size_bytes()
            == naive_kernel.binary_size_bytes() + 8 * len(kernel.control_notations)
        )

    def test_yield_flag_constant(self):
        assert YIELD_FLAG == 0x08
