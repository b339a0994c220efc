"""Pipeline-level tests, including the subsystem's acceptance criteria:

the pipeline applied to the naive-allocation SGEMM kernel must (a) reduce
FFMA bank conflicts to zero — matching ``allocate_conflict_free`` — and
(b) produce a simulated cycle count no worse than the naive kernel on both
the Fermi and the Kepler machine models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import session
from repro.errors import AssemblyError
from repro.opt import optimize_kernel, simulate_one_block
from repro.opt.pipeline import _verify_invariants
from repro.opt.rewrite import replace_instructions
from repro.prof.trace import Tracer
from repro.sgemm import analyse_ffma_conflicts
from repro.sgemm.config import SgemmKernelConfig
from repro.sgemm.generator import generate_naive_sgemm_kernel
from repro.sim.launch import LaunchConfig
from repro.sim.sm_sim import SmSimulator


def _simulated_cycles(gpu, kernel) -> float:
    return simulate_one_block(gpu, kernel, max_cycles=5_000_000).cycles


class TestAcceptance:
    @pytest.mark.parametrize("gpu_fixture", ["fermi", "kepler"])
    def test_conflicts_zero_and_cycles_no_worse(self, gpu_fixture, naive_kernel, request):
        gpu = request.getfixturevalue(gpu_fixture)
        result = optimize_kernel(naive_kernel, gpu)

        before = analyse_ffma_conflicts(naive_kernel)
        after = analyse_ffma_conflicts(result.kernel)
        assert before.two_way + before.three_way > 0
        assert after.two_way == 0, "pipeline must eliminate all 2-way FFMA conflicts"
        assert after.three_way == 0, "pipeline must eliminate all 3-way FFMA conflicts"

        naive_cycles = _simulated_cycles(gpu, naive_kernel)
        optimized_cycles = _simulated_cycles(gpu, result.kernel)
        assert optimized_cycles <= naive_cycles, (
            f"optimized kernel is slower on {gpu.name}: "
            f"{optimized_cycles} > {naive_cycles} cycles"
        )

    def test_matches_hand_allocation_conflict_freedom(self, naive_kernel, kepler):
        """The recolored kernel matches allocate_conflict_free's guarantee."""
        from repro.sgemm.register_allocation import allocate_conflict_free

        hand = allocate_conflict_free(6, 2)
        assert hand.is_conflict_free()
        result = optimize_kernel(naive_kernel, kepler)
        assert analyse_ffma_conflicts(result.kernel).no_conflict_fraction == 1.0


class TestPipelineMechanics:
    def test_per_pass_stats_recorded(self, naive_kernel, kepler):
        result = optimize_kernel(naive_kernel, kepler)
        names = [s.name for s in result.stats]
        assert names == ["liveness", "reallocate", "schedule", "control_hints"]
        reallocate = result.stats[1]
        assert reallocate.ffma_conflicts_before > 0
        assert reallocate.ffma_conflicts_after == 0

    def test_control_hints_only_on_kepler(self, naive_kernel, fermi, kepler):
        on_fermi = optimize_kernel(naive_kernel, fermi).kernel
        on_kepler = optimize_kernel(naive_kernel, kepler).kernel
        assert on_fermi.control_notations == ()
        assert len(on_kepler.control_notations) > 0

    @pytest.mark.parametrize("gpu_fixture", ["fermi", "kepler"])
    def test_each_step_records_its_span_once_in_order(self, gpu_fixture, naive_kernel, request):
        """``benchmarks/e2e/spans.py`` maps these four span names to its
        ``opt.pass.*`` layers; on Fermi the skipped hint step still opens its
        span."""
        tracer = Tracer()
        with session(tracer=tracer):
            optimize_kernel(naive_kernel, request.getfixturevalue(gpu_fixture))
        names = [event.name for event in tracer.events if event.name.startswith("opt.")]
        assert names == ["opt.liveness", "opt.reallocate", "opt.schedule", "opt.control_hints"]

    def test_invariant_checker_catches_mix_changes(self, naive_kernel):
        # Dropping an instruction is refused even earlier, by the rewrite;
        # a same-length stream with a different mix reaches the checker.
        with pytest.raises(AssemblyError):
            replace_instructions(naive_kernel, naive_kernel.instructions[:-1])
        swapped = (naive_kernel.instructions[-1],) + naive_kernel.instructions[1:]
        broken = replace_instructions(naive_kernel, swapped)
        mix = naive_kernel.instruction_mix()
        with pytest.raises(AssemblyError, match="changed the instruction mix"):
            _verify_invariants("broken", naive_kernel, broken, mix)
        assert _verify_invariants("identity", naive_kernel, naive_kernel, mix) == mix

    def test_generator_entry_point(self, kepler):
        from repro.kernels.registry import get_workload

        config = SgemmKernelConfig(m=96, n=96, k=16)
        kernel, report = get_workload("sgemm").generate_optimized(config, kepler)
        assert analyse_ffma_conflicts(kernel).two_way == 0
        assert report.ffma_conflicts == 0
        assert kernel.metadata["opt.reallocated"] is True
        assert kernel.metadata["opt.scheduled"] is True


class TestFunctionalEquivalence:
    def test_optimized_kernel_computes_the_same_gemm(self, kepler):
        """End-to-end: the optimized kernel's numerics match NumPy."""
        from repro.sgemm.reference import expected_result, random_matrices, validate_result
        from repro.sgemm.runner import build_launch

        config = SgemmKernelConfig(m=96, n=96, k=16, conflict_free_allocation=False)
        naive = generate_naive_sgemm_kernel(config)
        optimized = optimize_kernel(naive, kepler).kernel

        a, b = random_matrices(config, seed=11)
        expected = expected_result(config, a, b)
        for kernel in (naive, optimized):
            memory, params, grid = build_launch(config, a, b)
            simulator = SmSimulator(kepler, kernel, global_memory=memory, params=params)
            launch = LaunchConfig(grid=grid, functional=True, max_cycles=20_000_000)
            simulator.run(launch, block_indices=grid.block_indices())
            c = memory.read_array("C", np.float32, (config.m, config.n))
            assert validate_result(c, expected) < 1e-4
