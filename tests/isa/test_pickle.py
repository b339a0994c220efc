"""Pickling kernels: declared fields only, compact instructions, shared objects.

The kernel store (:mod:`repro.kcache`) pickles the kernels it serves, so a
pickle must carry what the kernel *is* and nothing an analysis cached on it:
the same kernel pickles to the same bytes whichever analyses have run, and
an unpickled kernel shares one :class:`Register` object per index and one
instruction object per distinct instruction, as the built kernel does.
Instructions and their encodings pickle through one reconstructor each,
which takes the common fields by position and only the non-default rest by
name; pickles written before that format must still load.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import pickle
from pathlib import Path

import pytest

from repro.isa.assembler import Kernel
from repro.isa.builder import KernelBuilder
from repro.isa.encoding import _rebuild_encoded, encode_instruction
from repro.isa.instructions import (
    Instruction,
    Label,
    MemRef,
    Opcode,
    _rebuild_instruction,
)
from repro.isa.registers import Predicate, Register, SpecialRegister
from repro.kernels.registry import get_workload
from repro.opt.autotune import simulate_one_block
from repro.opt.pipeline import optimize_kernel
from repro.opt.rewrite import kernel_hash
from repro.sgemm.conflict_analysis import analyse_ffma_conflicts
from repro.tile.workloads import TileSgemmConfig

#: A store payload (``{"proc", "kernel_opt"}``) that schema-2 code wrote for
#: ``get_kernel("tile_sgemm", SCHEMA2_CONFIG, "gtx680")``, and the
#: ``kernel_hashes["kernel_opt"]`` its meta recorded.
SCHEMA2_PAYLOAD = Path(__file__).parent / "data" / "schema2_tile_sgemm_m15_n13_k8_gtx680.pkl"
SCHEMA2_CONFIG = TileSgemmConfig(m=15, n=13, k=8, tile=8, register_blocking=2, stride=2, b_window=1)
SCHEMA2_KERNEL_OPT = "dad4bf4aad158e2fc23e794a6eef532159e622d12a5960ea4b59995726ab587d"


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _register_operands(kernel: Kernel):
    for instruction in kernel.instructions:
        if instruction.dest is not None:
            yield instruction.dest
        for operand in instruction.sources:
            if isinstance(operand, Register):
                yield operand
            elif isinstance(operand, MemRef):
                yield operand.base


@pytest.fixture
def tile_kernel(fermi):
    """A fresh optimized 96x96x16 tile_sgemm kernel on Fermi."""
    kernel, _ = get_workload("tile_sgemm").generate_optimized(
        TileSgemmConfig(m=96, n=96, k=16), fermi
    )
    return kernel


def test_analyses_leave_the_pickle_unchanged(tile_kernel, fermi):
    before = _dumps(tile_kernel)
    simulate_one_block(fermi, tile_kernel)
    assert tile_kernel.register_count > 0
    analyse_ffma_conflicts(tile_kernel)
    tile_kernel.instruction_mix()
    # The analyses did cache values on the kernel and its instructions ...
    assert "register_count" in tile_kernel.__dict__
    assert "_ffma_conflict_report" in tile_kernel.__dict__
    assert any("_def_use" in i.__dict__ for i in tile_kernel.instructions)
    # ... and none of them reaches the pickle.
    assert _dumps(tile_kernel) == before


def test_round_trip_keeps_content_and_interns_registers(tile_kernel):
    loaded = pickle.loads(_dumps(tile_kernel))
    assert kernel_hash(loaded) == kernel_hash(tile_kernel)
    assert loaded.instructions == tile_kernel.instructions
    assert loaded.encoded == tile_kernel.encoded
    operands = list(_register_operands(loaded))
    assert operands
    assert all(register is Register(register.index) for register in operands)
    # Cached values are recomputed on use, to the same answers.
    assert loaded.register_count == tile_kernel.register_count
    assert analyse_ffma_conflicts(loaded) == analyse_ffma_conflicts(tile_kernel)


class _PreInterningPickler(pickle.Pickler):
    """Pickles registers and instructions the way the default protocol did
    before any of them had a reducer: a bare ``__new__`` plus the whole
    instance ``__dict__``, cached values included.
    """

    def reducer_override(self, obj):
        if isinstance(obj, (Register, Instruction)):
            return copyreg.__newobj__, (type(obj),), dict(obj.__dict__)
        return NotImplemented


def test_pickle_written_before_interning_still_loads(tile_kernel):
    instruction = next(i for i in tile_kernel.instructions if i.is_ffma)
    assert instruction.registers_read  # cached, so the old-style state carries it
    buffer = io.BytesIO()
    _PreInterningPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(instruction)
    loaded = pickle.loads(buffer.getvalue())
    assert loaded == instruction
    assert loaded.registers_read == instruction.registers_read
    assert loaded.dest == Register(instruction.dest.index)


def _forms() -> list[Instruction]:
    """One instruction of every form the reconstructor must carry."""
    builder = KernelBuilder()
    top = builder.label("top")
    with builder.provenance("main"):
        builder.ffma(1, 2, 3, 4)
        with builder.guarded(Predicate(2), negated=True):
            builder.iadd(5, 6, 7)
        builder.lds(8, MemRef(Register(9), 16), width=128)
        builder.st(MemRef(Register(10), 4), 12, width=64)
        builder.isetp(Predicate(1), "GE", 3, 100)
        builder.s2r(11, SpecialRegister.TID_X)
        builder.bra(top, predicate=Predicate(1))
        builder.mov32i(13, 1.5)
        builder.comment_last("float bits")
    builder.exit()
    return [item for item in builder.program().items if isinstance(item, Instruction)]


def test_every_instruction_form_round_trips():
    forms = _forms()
    assert any(not i.predicate.is_true and i.predicate_negated for i in forms)
    assert {i.width for i in forms} >= {64, 128}
    assert any(i.opcode is Opcode.ISETP for i in forms)
    assert any(i.special is SpecialRegister.TID_X for i in forms)
    assert any(i.target == Label("top") for i in forms)
    assert any(i.comment for i in forms)
    for instruction in forms:
        encoded = encode_instruction(instruction)
        loaded, loaded_encoded = pickle.loads(_dumps((instruction, encoded)))
        assert loaded == instruction
        assert loaded_encoded == encoded
        assert encode_instruction(loaded) == encoded


def test_loaded_instances_hold_every_declared_field(tile_kernel):
    loaded = pickle.loads(_dumps(tile_kernel))
    for instruction, encoded in zip(loaded.instructions, loaded.encoded):
        assert list(instruction.__dict__) == list(Instruction.__dataclass_fields__)
        assert list(encoded.__dict__) == ["primary", "extension"]


def test_reconstructor_arguments_skip_defaults_and_cached_values(tile_kernel):
    forms = _forms() + list(tile_kernel.instructions)
    for instruction in forms:
        # Cache values on the instance: the encoding and a cached_property.
        assert encode_instruction(instruction) is instruction.__dict__["_encoded"]
        assert instruction.registers_read is instruction.__dict__["registers_read"]
        function, args = instruction.__reduce__()
        assert function is _rebuild_instruction
        assert args[:4] == (
            instruction.opcode, instruction.dest, instruction.sources, instruction.provenance
        )
        if len(args) == 5:
            changed = args[4]
            assert changed  # an empty dict is left out, not passed
        else:
            assert len(args) == 4
            changed = {}
        for field in dataclasses.fields(Instruction)[3:-1]:
            value = getattr(instruction, field.name)
            assert (field.name in changed) == (value != field.default)
        data = _dumps(instruction)
        assert b"_encoded" not in data and b"registers_read" not in data
    extended = 0
    for encoded in tile_kernel.encoded:
        function, args = encoded.__reduce__()
        assert function is _rebuild_encoded
        if encoded.extension:
            extended += 1
            assert args == (encoded.primary, {"extension": encoded.extension})
        else:
            assert args == (encoded.primary,)
    assert 0 < extended < len(tile_kernel.encoded)


def test_shared_instructions_round_trip_shared(tile_kernel):
    """A served kernel holds one object per distinct instruction (two
    instructions being the same when they pickle the same), and so does the
    kernel a payload loads to; a pickle writes each shared object once."""
    distinct = {_dumps(instruction) for instruction in tile_kernel.instructions}
    loaded = pickle.loads(_dumps(tile_kernel))
    for kernel in (tile_kernel, loaded):
        assert len({id(i) for i in kernel.instructions}) == len(distinct)
        assert len({id(e) for e in kernel.encoded}) == len(distinct)
    assert len(distinct) < len(tile_kernel.instructions) / 2
    assert loaded == tile_kernel
    assert kernel_hash(loaded) == kernel_hash(tile_kernel)


def test_equal_provenance_shares_one_string(fermi):
    workload = get_workload("tile_sgemm")
    naive = workload.generate_naive(TileSgemmConfig(m=96, n=96, k=16))
    optimized = optimize_kernel(naive, fermi).kernel
    for kernel in (naive, optimized):
        first: dict[str, str] = {}
        for instruction in kernel.instructions:
            assert first.setdefault(instruction.provenance, instruction.provenance) \
                is instruction.provenance
        assert len(first) > 5


def test_schema2_payload_loads_and_hashes_as_recorded(kepler):
    artifacts = pickle.loads(SCHEMA2_PAYLOAD.read_bytes())
    assert sorted(artifacts) == ["kernel_opt", "proc"]
    kernel = artifacts["kernel_opt"]
    assert kernel_hash(kernel) == SCHEMA2_KERNEL_OPT
    assert any(not i.predicate.is_true for i in kernel.instructions)
    assert kernel.control_notations
    # A fresh build of the same point is the same kernel, and the loaded one
    # round-trips through the current format.
    fresh, _ = get_workload("tile_sgemm").generate_optimized(SCHEMA2_CONFIG, kepler)
    assert kernel_hash(fresh) == SCHEMA2_KERNEL_OPT
    assert kernel_hash(pickle.loads(_dumps(kernel))) == SCHEMA2_KERNEL_OPT
