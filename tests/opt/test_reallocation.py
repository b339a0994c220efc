"""Tests for the bank-conflict-eliminating register reallocation."""

from __future__ import annotations

import pytest

from repro.isa.builder import KernelBuilder
from repro.isa.instructions import MemRef, Opcode
from repro.isa.registers import Register
from repro.kernels import get_workload, workload_names
from repro.opt.reallocation import (
    _bank_solver,
    _used_registers,
    _wide_runs,
    reallocate_registers,
)
from repro.sgemm.config import SgemmKernelConfig, SgemmVariant
from repro.sgemm.conflict_analysis import analyse_ffma_conflicts
from repro.sgemm.generator import generate_naive_sgemm_kernel
from repro.tile.autotune import schedule_space
from repro.tile.workloads import TileSgemmConfig


class TestWideRuns:
    def test_wide_load_creates_run(self):
        builder = KernelBuilder()
        builder.lds(6, MemRef(base=Register(1)), width=64)
        builder.exit()
        assert _wide_runs(builder.build().instructions) == [(6, 7)]

    def test_overlapping_runs_merge(self):
        builder = KernelBuilder()
        builder.lds(6, MemRef(base=Register(1)), width=64)
        builder.lds(7, MemRef(base=Register(1)), width=64)
        builder.exit()
        assert _wide_runs(builder.build().instructions) == [(6, 7, 8)]

    def test_adjacent_runs_stay_separate(self):
        builder = KernelBuilder()
        builder.lds(6, MemRef(base=Register(1)), width=64)
        builder.lds(8, MemRef(base=Register(1)), width=64)
        builder.exit()
        assert _wide_runs(builder.build().instructions) == [(6, 7), (8, 9)]

    def test_wide_store_source_creates_run(self):
        builder = KernelBuilder()
        builder.sts(MemRef(base=Register(1)), 10, width=128)
        builder.exit()
        assert _wide_runs(builder.build().instructions) == [(10, 11, 12, 13)]


class TestReallocation:
    def test_naive_sgemm_reaches_zero_conflicts(self, naive_kernel):
        result = reallocate_registers(naive_kernel)
        assert result.applied
        assert result.before.two_way + result.before.three_way > 0
        assert result.after.two_way == 0
        assert result.after.three_way == 0
        assert result.kernel.register_count <= 63

    @pytest.mark.parametrize("variant", list(SgemmVariant))
    def test_all_variants_reach_zero_conflicts(self, variant):
        kernel = generate_naive_sgemm_kernel(
            SgemmKernelConfig(m=96, n=96, k=16, variant=variant)
        )
        result = reallocate_registers(kernel)
        assert result.after.two_way == 0 and result.after.three_way == 0

    @pytest.mark.parametrize(
        "blocking,lds_width,threads",
        [(4, 64, 256), (5, 32, 256), (6, 32, 256), (3, 64, 256), (4, 32, 64)],
    )
    def test_other_shapes_reach_zero_conflicts(self, blocking, lds_width, threads):
        tile = int(threads**0.5) * blocking
        size = tile * (2 if tile % 2 else 1)
        kernel = generate_naive_sgemm_kernel(
            SgemmKernelConfig(
                m=size,
                n=size,
                k=16,
                register_blocking=blocking,
                lds_width_bits=lds_width,
                threads_per_block=threads,
            )
        )
        result = reallocate_registers(kernel)
        assert result.after.two_way == 0 and result.after.three_way == 0

    def test_mapping_is_a_bijection(self, naive_kernel):
        result = reallocate_registers(naive_kernel)
        values = list(result.mapping.values())
        assert len(values) == len(set(values))
        assert all(0 <= v <= 62 for v in values)

    def test_dataflow_shape_preserved(self, naive_kernel):
        """Renaming must not change the instruction skeleton."""
        result = reallocate_registers(naive_kernel)
        assert result.kernel.instruction_mix() == naive_kernel.instruction_mix()
        assert result.kernel.branch_targets == naive_kernel.branch_targets
        for old, new in zip(naive_kernel.instructions, result.kernel.instructions):
            assert old.opcode is new.opcode
            assert old.width == new.width
            assert len(old.sources) == len(new.sources)

    def test_wide_runs_stay_consecutive(self, naive_kernel):
        result = reallocate_registers(naive_kernel)
        for instruction in result.kernel.instructions:
            if instruction.opcode is Opcode.LDS and instruction.width == 64:
                written = instruction.registers_written
                assert written[1].index == written[0].index + 1

    def test_wide_accesses_stay_aligned(self, naive_kernel):
        """Hardware requires wide bases aligned to the access width; the
        recoloring must not break that (validate_kernel would warn)."""
        result = reallocate_registers(naive_kernel)
        for instruction in result.kernel.instructions:
            words = instruction.width // 32
            if words > 1 and instruction.opcode is Opcode.LDS:
                assert instruction.dest.index % words == 0

    def test_reallocated_kernel_validates_clean(self, naive_kernel, fermi, kepler):
        from repro.isa import validate_kernel

        result = reallocate_registers(naive_kernel)
        for gpu in (fermi, kepler):
            report = validate_kernel(result.kernel, gpu)
            assert report.ok
            assert not report.warnings

    def test_conflict_free_kernel_left_alone_or_kept_clean(self):
        from repro.sgemm.generator import generate_sgemm_kernel

        kernel = generate_sgemm_kernel(SgemmKernelConfig(m=96, n=96, k=16))
        assert analyse_ffma_conflicts(kernel).two_way == 0
        result = reallocate_registers(kernel)
        assert result.after.two_way == 0 and result.after.three_way == 0

    def test_kernel_without_registers_is_untouched(self):
        builder = KernelBuilder()
        builder.nop()
        builder.exit()
        kernel = builder.build()
        result = reallocate_registers(kernel)
        assert not result.applied
        assert result.kernel is kernel


def _pinned_points() -> list:
    """(workload, config, id) of every kernel ``test_optimizer_pins`` reallocates."""
    points = []
    for name in workload_names():
        for index, config in enumerate(get_workload(name).config_space()):
            points.append(pytest.param(name, config, id=f"{name}.{index}"))
    sweep_shape = TileSgemmConfig(m=193, n=161, k=97)
    for candidate in schedule_space("tile_sgemm", sweep_shape):
        points.append(
            pytest.param("tile_sgemm", candidate.config, id=f"sweep.{candidate.label}")
        )
    return points


class TestIncrementalSolverState:
    """The bank solver keeps its state current move by move; after a whole
    search every piece of it must equal a recount from the units' offsets."""

    @pytest.mark.parametrize("name, config", _pinned_points())
    def test_state_matches_a_recount(self, name, config):
        kernel = get_workload(name).generate_naive(config)
        solver = _bank_solver(kernel.instructions, _used_registers(kernel.instructions))
        solver.solve()
        assert solver._demand == solver._count_demand()
        assert solver._bank_counts == solver._count_banks()
        checked = 0
        for unit in solver.units:
            for offset, penalty in enumerate(solver._move_penalties[id(unit)]):
                if penalty is not None:
                    assert penalty == solver._penalty_around(unit, offset)
                    checked += 1
        # A kernel with conflict tuples ends on a search pass that priced them.
        assert checked > 0 or not solver._tuples


class TestRenamedFacts:
    """Renaming carries each instruction's def-use instead of re-deriving
    it; the carried def-use equals a fresh derivation."""

    @staticmethod
    def _assert_carried_facts_are_fresh(naive) -> int:
        import dataclasses

        from repro.opt.liveness import def_use

        def_use_of_naive = [def_use(instruction) for instruction in naive.instructions]
        assert def_use_of_naive
        originals = {id(instruction) for instruction in naive.instructions}
        result = reallocate_registers(naive)
        renamed = [i for i in result.kernel.instructions if id(i) not in originals]
        for instruction in renamed:
            assert vars(instruction)["_def_use"] == def_use(dataclasses.replace(instruction))
        return len(renamed)

    def test_registry_configs(self):
        renamed = 0
        for name in workload_names():
            workload = get_workload(name)
            for config in workload.config_space():
                renamed += self._assert_carried_facts_are_fresh(workload.generate_naive(config))
        assert renamed > 0

    def test_sweep_candidates(self):
        workload = get_workload("tile_sgemm")
        space = schedule_space("tile_sgemm", TileSgemmConfig(m=193, n=161, k=97))
        assert len(space) == 32
        for candidate in space:
            naive = workload.generate_naive(candidate.config)
            assert self._assert_carried_facts_are_fresh(naive) > 0, candidate.label
