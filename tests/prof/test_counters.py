"""Counter invariants: the profiler agrees with the simulator's own books."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.isa import ControlNotation
from repro.kernels.base import run_workload
from repro.kernels.registry import get_workload
from repro.opt.autotune import simulate_one_block
from repro.prof import profile_workload, rollup_by_provenance
from repro.sim.pipelines import CostModel
from repro.sim.results import STALL_REASONS
from repro.sim.sm_sim import _PcFacts
from repro.tile.workloads import TileSgemmConfig


@pytest.fixture(scope="module")
def profiled_sgemm(request):
    """Profiled functional runs of the optimized DSL SGEMM, per GPU."""
    cache = {}

    def profile(gpu):
        if gpu.name not in cache:
            workload = get_workload("tile_sgemm")
            cache[gpu.name] = run_workload(
                gpu, workload, workload.default_config(),
                optimized=True, collect_profile=True,
            )
        return cache[gpu.name]

    return profile


class TestAttributionIsExhaustive:
    @pytest.mark.parametrize("gpu_name", ["fermi", "kepler"])
    def test_every_cycle_attributed(self, gpu_name, request, profiled_sgemm):
        gpu = request.getfixturevalue(gpu_name)
        run = profiled_sgemm(gpu)
        counters = run.result.counters
        assert counters is not None
        total = run.result.cycles
        assert counters.attributed_cycles == pytest.approx(total, rel=1e-9)
        # The acceptance gate is >= 95%; the construction gives exactly 100%.
        assert counters.attributed_cycles / total >= 0.95

    @pytest.mark.parametrize("gpu_name", ["fermi", "kepler"])
    def test_issue_counts_match_issued_instructions(self, gpu_name, request,
                                                   profiled_sgemm):
        gpu = request.getfixturevalue(gpu_name)
        run = profiled_sgemm(gpu)
        counters = run.result.counters
        assert int(counters.issues.sum()) == run.result.warp_instructions

    def test_stall_events_match_pressure_breakdown(self, fermi, profiled_sgemm):
        run = profiled_sgemm(fermi)
        counters = run.result.counters
        breakdown = run.result.stalls.as_dict()
        for reason in STALL_REASONS:
            assert int(counters.stall_events[reason].sum()) == breakdown[reason]


class TestFfmaFlopInvariant:
    @pytest.mark.parametrize("gpu_name", ["fermi", "kepler"])
    def test_ffma_issues_equal_analytic_flop_count(self, gpu_name, request,
                                                   profiled_sgemm):
        """Profiler FFMA issues == m·n·k / 32: the kernel performs exactly the
        algorithm's multiply-accumulates, no more (padding) and no fewer."""
        gpu = request.getfixturevalue(gpu_name)
        run = profiled_sgemm(gpu)
        counters = run.result.counters
        config = run.config
        ffma_pcs = [
            pc for pc, instruction in enumerate(run.kernel.instructions)
            if instruction.is_ffma
        ]
        ffma_issues = int(counters.issues[ffma_pcs].sum())
        assert ffma_issues == config.m * config.n * config.k // 32
        assert run.result.flops == 2 * config.m * config.n * config.k


class TestDramByteInvariant:
    def test_counters_match_global_memory_books(self, fermi, profiled_sgemm):
        """Per-instruction DRAM bytes sum to the GlobalMemory byte counters."""
        run = profiled_sgemm(fermi)
        counters = run.result.counters
        assert counters.total_dram_bytes == run.dram_bytes

    def test_predicated_tail_counts_active_lanes_only(self, fermi):
        """On an imperfect size the boundary loads are per-lane predicated;
        the per-instruction attribution must count what actually moved, so it
        still reconciles with the (compulsory) simulated traffic."""
        workload = get_workload("tile_sgemm")
        config = TileSgemmConfig(m=100, n=92, k=20)
        run = run_workload(fermi, workload, config, optimized=False,
                           collect_profile=True, max_cycles=50_000_000)
        counters = run.result.counters
        assert counters.total_dram_bytes == run.dram_bytes
        assert run.dram_bytes == workload.resources(config).dram_bytes


class TestSchedulerCycleArithmeticStaysIntegral:
    @pytest.mark.parametrize("gpu_name", ["fermi", "kepler"])
    def test_ready_cycle_is_always_integral(self, gpu_name, request):
        """Control-notation stall hints are charged at half weight; the wake
        cycle must still round deterministically to an integer instead of
        leaking fractions into the scheduler's cycle arithmetic (regression:
        ``ready_cycle = cycle + 1 + stall * 0.5``).  A warp's ready cycle is
        the issue cycle plus its instruction's precompiled delay, so every
        delay and every simulated cycle count must be integral — also with
        notations requesting each of the stall values 1..7."""
        gpu = request.getfixturevalue(gpu_name)
        workload = get_workload("tile_sgemm")
        kernel, _ = workload.generate_optimized(workload.default_config(), gpu)
        every_stall = ControlNotation(hints=tuple(0x20 | stall for stall in range(1, 8)))
        notated = replace(
            kernel,
            control_notations=(every_stall,) * -(-kernel.instruction_count // 7),
        )
        delays = []
        for candidate in (kernel, notated):
            cycles = simulate_one_block(gpu, candidate).cycles
            assert cycles == int(cycles)
            delays += _PcFacts(candidate, CostModel(gpu)).ready_delta
        assert max(delays) > 1.0, "no stall hint was charged"
        fractional = [v for v in delays if v != int(v)]
        assert fractional == []


class TestRollupReconciliation:
    def test_rollup_rows_sum_to_total(self, fermi, profiled_sgemm):
        run = profiled_sgemm(fermi)
        rollup = rollup_by_provenance(
            run.kernel, run.result.counters, total_cycles=run.result.cycles
        )
        assert rollup.attributed_fraction == pytest.approx(1.0, rel=1e-9)
        assert sum(row.issues for row in rollup.rows) == run.result.warp_instructions
        assert sum(row.dram_bytes for row in rollup.rows) == run.dram_bytes

    def test_depth_truncation_groups_by_phase(self, fermi):
        profile = profile_workload(fermi, "tile_sgemm", depth=1)
        tags = {row.tag for row in profile.rollup.rows}
        assert "loop(ko)" in tags
        assert all("/" not in tag for tag in tags)
        assert profile.rollup.attributed_fraction == pytest.approx(1.0, rel=1e-9)

    def test_rollup_rejects_mismatched_kernel(self, fermi, profiled_sgemm):
        run = profiled_sgemm(fermi)
        other = get_workload("tile_transpose").generate_naive(
            get_workload("tile_transpose").default_config()
        )
        with pytest.raises(ValueError):
            rollup_by_provenance(other, run.result.counters, total_cycles=1.0)


class TestTimingModeProfile:
    def test_single_block_timing_profile_attributes_fully(self, fermi):
        """The autotuner's evaluation primitive profiles too (timing mode)."""
        workload = get_workload("tile_sgemm")
        kernel, _ = workload.generate_optimized(workload.default_config(), fermi)
        result = simulate_one_block(fermi, kernel, collect_profile=True)
        assert result.counters is not None
        assert result.counters.attributed_cycles == pytest.approx(
            result.cycles, rel=1e-9
        )
        # Timing mode prices full-warp transactions (no predicate evaluation).
        assert result.counters.total_dram_bytes > 0

    def test_profile_off_by_default(self, fermi, small_sgemm_kernels):
        conflict_free, _ = small_sgemm_kernels
        result = simulate_one_block(fermi, conflict_free)
        assert result.counters is None


def test_counters_merge_accumulates(fermi, profiled_sgemm):
    run = profiled_sgemm(fermi)
    counters = run.result.counters
    merged = type(counters).zeros(counters.instruction_count)
    merged.merge(counters)
    merged.merge(counters)
    assert np.array_equal(merged.issues, 2 * counters.issues)
    assert merged.attributed_cycles == pytest.approx(2 * counters.attributed_cycles)
    other = type(counters).zeros(counters.instruction_count + 1)
    with pytest.raises(ValueError):
        merged.merge(other)
