"""Tests for registers, predicates and special registers."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.arch.register_file import RegisterBank
from repro.errors import IsaError
from repro.isa.registers import (
    MAX_GPR_INDEX,
    PT,
    RZ,
    Predicate,
    Register,
    SpecialRegister,
    parse_predicate,
    parse_register,
    predicate,
    reg,
)


class TestRegister:
    def test_rz_is_zero_register(self):
        assert RZ.is_zero
        assert RZ.name == "RZ"
        assert RZ.index == 63

    def test_general_purpose_names(self):
        assert reg(0).name == "R0"
        assert reg(62).name == "R62"

    def test_out_of_range_rejected(self):
        with pytest.raises(IsaError):
            Register(64)
        with pytest.raises(IsaError):
            Register(-1)

    def test_offset(self):
        assert reg(10).offset(1) == reg(11)
        with pytest.raises(IsaError):
            RZ.offset(1)

    def test_one_instance_per_index(self):
        assert Register(7) is reg(7)
        assert reg(7).offset(1) is Register(8)
        assert parse_register("RZ") is Register(63) is RZ
        assert pickle.loads(pickle.dumps(reg(7), protocol=pickle.HIGHEST_PROTOCOL)) is reg(7)

    def test_bank_property_matches_arch_mapping(self):
        assert reg(8).bank is RegisterBank.EVEN0
        assert reg(13).bank is RegisterBank.ODD1

    @given(st.integers(min_value=0, max_value=MAX_GPR_INDEX))
    def test_ordering_by_index(self, index):
        if index < MAX_GPR_INDEX:
            assert reg(index) < reg(index + 1)


class TestPredicate:
    def test_pt_is_true(self):
        assert PT.is_true
        assert PT.name == "PT"

    def test_named_predicates(self):
        assert predicate(3).name == "P3"
        assert not predicate(3).is_true

    def test_out_of_range_rejected(self):
        with pytest.raises(IsaError):
            Predicate(8)


class TestParsing:
    @pytest.mark.parametrize("text, index", [("R0", 0), ("r17", 17), ("R62", 62)])
    def test_parse_register(self, text, index):
        assert parse_register(text) == reg(index)

    def test_parse_rz(self):
        assert parse_register("RZ") is RZ or parse_register("RZ") == RZ

    def test_parse_register_beyond_limit_rejected(self):
        # R63 does not exist as a named register; R64 is not encodable at all.
        with pytest.raises(IsaError):
            parse_register("R63")
        with pytest.raises(IsaError):
            parse_register("R64")

    def test_parse_garbage_rejected(self):
        with pytest.raises(IsaError):
            parse_register("RX")
        with pytest.raises(IsaError):
            parse_register("12")

    def test_parse_predicate(self):
        assert parse_predicate("P0") == predicate(0)
        assert parse_predicate("pt") == PT
        with pytest.raises(IsaError):
            parse_predicate("P9")

    def test_special_register_parsing(self):
        assert SpecialRegister.from_name("SR_TID.X") is SpecialRegister.TID_X
        assert SpecialRegister.from_name("sr_ctaid.y") is SpecialRegister.CTAID_Y
        with pytest.raises(IsaError):
            SpecialRegister.from_name("SR_BOGUS")
