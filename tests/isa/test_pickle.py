"""Pickling kernels: declared fields only, one interned object per register.

The kernel store (:mod:`repro.kcache`) pickles the kernels it serves, so a
pickle must carry what the kernel *is* and nothing an analysis cached on it:
the same kernel pickles to the same bytes whichever analyses have run, and
an unpickled kernel shares one :class:`Register` object per index.
"""

from __future__ import annotations

import copyreg
import io
import pickle

import pytest

from repro.isa.assembler import Kernel
from repro.isa.instructions import Instruction, MemRef
from repro.isa.registers import Register
from repro.kernels.registry import get_workload
from repro.opt.autotune import simulate_one_block
from repro.opt.rewrite import kernel_hash
from repro.sgemm.conflict_analysis import analyse_ffma_conflicts
from repro.tile.workloads import TileSgemmConfig


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
    before ``Register.__reduce__`` and ``declared_state`` existed: a bare
    ``__new__`` plus the whole instance ``__dict__``, cached values included.
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
