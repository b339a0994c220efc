"""Differential tests: scalar reference oracle vs vectorized fast path.

The vectorized engine (:mod:`repro.sim.vectorized`) is only trusted because
this harness exists: every observable — registers, predicates, shared and
global memory, DRAM byte counters, and the full timing story (cycles, stall
breakdown, instruction histogram) — must be **bit-identical** to the scalar
reference executor, over hundreds of seeded random programs and over every
registry workload.  ``tests/sim/sim_harness.py`` holds the program decoder and
the comparison helpers.

The heavyweight sweeps carry the ``slow`` marker; the fast lane
(``pytest -m "not slow"``) still runs a reduced smoke sweep of both the
state and the timing differential.
"""

from __future__ import annotations

import numpy as np
import pytest

from sim_harness import (
    assert_state_differential,
    assert_timing_differential,
    program_from_seed,
)

from repro.arch.specs import get_gpu_spec
from repro.kernels.registry import get_workload, workload_names
from repro.sim import LaunchConfig, SmSimulator
from repro.tile.workloads import TileSgemmConfig

#: Seed count of the full differential sweep (the CI acceptance gate).
FULL_SWEEP_SEEDS = 500

#: Seed count of the always-on smoke sweep.
SMOKE_SWEEP_SEEDS = 60


class TestSeededPrograms:
    """Random SASS programs through both engines, architectural state."""

    def test_smoke_sweep_state(self):
        for seed in range(SMOKE_SWEEP_SEEDS):
            assert_state_differential(program_from_seed(seed),
                                      context=f"seed {seed}")

    @pytest.mark.slow
    def test_full_sweep_state(self):
        """The 500-program differential sweep (ISSUE acceptance gate)."""
        for seed in range(FULL_SWEEP_SEEDS):
            assert_state_differential(program_from_seed(seed),
                                      context=f"seed {seed}")

    def test_smoke_sweep_timing(self, fermi):
        """Cycle counts and stall breakdowns match on the timing loop."""
        for seed in range(20):
            assert_timing_differential(fermi, program_from_seed(seed),
                                       context=f"seed {seed}")

    @pytest.mark.slow
    def test_full_sweep_timing(self, fermi):
        for seed in range(150):
            assert_timing_differential(fermi, program_from_seed(seed),
                                       context=f"seed {seed}")

    def test_programs_are_not_degenerate(self):
        """The generator must actually produce varied, non-trivial programs."""
        mnemonics: set[str] = set()
        instruction_counts: list[int] = []
        for seed in range(FULL_SWEEP_SEEDS):
            kernel = program_from_seed(seed).kernel
            instruction_counts.append(kernel.instruction_count)
            mnemonics.update(i.mnemonic.split(".")[0] for i in kernel.instructions)
        # Every opcode family the functional executors implement shows up.
        for family in ("FFMA", "FADD", "FMUL", "IADD", "IMUL", "IMAD",
                       "ISCADD", "SHL", "SHR", "LOP", "MOV", "MOV32I",
                       "S2R", "ISETP", "LDS", "LD", "STS", "ST", "NOP",
                       "BRA", "BAR", "EXIT"):
            assert any(m.startswith(family) for m in mnemonics), (
                f"no generated program used {family}"
            )
        assert max(instruction_counts) > 40
        assert len(set(instruction_counts)) > 10


def _workload_result(gpu, workload, config, kernel, executor: str, *,
                     collect_profile: bool = False):
    """One functional simulation of a workload with the given engine."""
    inputs = workload.prepare_inputs(config, seed=0)
    launch = workload.build_launch(config, inputs)
    simulator = SmSimulator(
        gpu, kernel,
        global_memory=launch.memory, params=launch.params, executor=executor,
    )
    result = simulator.run(
        LaunchConfig(grid=launch.grid, functional=True, max_cycles=20_000_000),
        block_indices=launch.grid.block_indices(),
        collect_profile=collect_profile,
    )
    output = workload.read_output(config, launch.memory)
    return result, output, launch.memory


def _assert_same_counters(reference, vectorized):
    """Every ``collect_profile`` counter array is identical."""
    assert np.array_equal(reference.issues, vectorized.issues)
    assert np.array_equal(reference.issue_cycles, vectorized.issue_cycles)
    assert np.array_equal(reference.smem_replays, vectorized.smem_replays)
    assert np.array_equal(reference.dram_bytes, vectorized.dram_bytes)
    for reason in reference.stall_events:
        assert np.array_equal(reference.stall_events[reason],
                              vectorized.stall_events[reason]), reason
        assert np.array_equal(reference.stall_cycles[reason],
                              vectorized.stall_cycles[reason]), reason


@pytest.mark.slow
@pytest.mark.parametrize("name", workload_names())
def test_registry_workload_differential(fermi, name):
    """Every registry workload: identical results, outputs and timing."""
    workload = get_workload(name)
    config = workload.default_config()
    kernel, _ = workload.generate_optimized(config, fermi)

    reference, ref_output, ref_memory = _workload_result(
        fermi, workload, config, kernel, "reference")
    vectorized, vec_output, vec_memory = _workload_result(
        fermi, workload, config, kernel, "vectorized")

    assert np.array_equal(ref_output, vec_output), name
    assert np.array_equal(ref_memory.data, vec_memory.data), name
    assert ref_memory.load_bytes == vec_memory.load_bytes, name
    assert ref_memory.store_bytes == vec_memory.store_bytes, name
    assert reference.cycles == vectorized.cycles, name
    assert reference.warp_instructions == vectorized.warp_instructions, name
    assert reference.thread_instructions == vectorized.thread_instructions, name
    assert reference.flops == vectorized.flops, name
    assert reference.instruction_histogram == vectorized.instruction_histogram, name
    assert reference.stalls.as_dict() == vectorized.stalls.as_dict(), name
    assert reference.executor == "reference"
    assert vectorized.executor == "vectorized"


@pytest.mark.parametrize("name", ("tile_sgemm", "sgemm"))
def test_workload_differential_smoke(fermi, name):
    """Fast-lane version of the registry differential on the two SGEMMs."""
    workload = get_workload(name)
    config = workload.default_config()
    kernel, _ = workload.generate_optimized(config, fermi)
    reference, ref_output, _ = _workload_result(
        fermi, workload, config, kernel, "reference")
    vectorized, vec_output, _ = _workload_result(
        fermi, workload, config, kernel, "vectorized")
    assert np.array_equal(ref_output, vec_output)
    assert reference.cycles == vectorized.cycles
    assert reference.stalls.as_dict() == vectorized.stalls.as_dict()


@pytest.mark.slow
def test_profile_counters_differential(fermi):
    """collect_profile counters are identical between executors."""
    workload = get_workload("tile_sgemm")
    config = workload.default_config()
    kernel, _ = workload.generate_optimized(config, fermi)
    counters = [
        _workload_result(fermi, workload, config, kernel, executor,
                         collect_profile=True)[0].counters
        for executor in ("reference", "vectorized")
    ]
    _assert_same_counters(*counters)


@pytest.mark.slow
@pytest.mark.parametrize("gpu_name", ("gtx580", "gtx680"))
def test_multi_block_tail_differential(gpu_name):
    """A 2x2 ``tile_sgemm`` grid clipped in m and n, on both executors.

    The vectorized engine runs the four blocks in one lock-step pass, with
    per-block CTAID, per-block shared memory and tail guards that differ
    between blocks; every observable must still match the reference engine,
    which executes each warp at issue time.
    """
    gpu = get_gpu_spec(gpu_name)
    workload = get_workload("tile_sgemm")
    config = TileSgemmConfig(m=100, n=100, k=20)
    kernel, _ = workload.generate_optimized(config, gpu)
    reference, ref_output, ref_memory = _workload_result(
        gpu, workload, config, kernel, "reference", collect_profile=True)
    vectorized, vec_output, vec_memory = _workload_result(
        gpu, workload, config, kernel, "vectorized", collect_profile=True)

    assert vectorized.blocks_simulated == 4
    assert np.array_equal(ref_output, vec_output)
    assert np.array_equal(ref_memory.data, vec_memory.data)
    assert ref_memory.load_bytes == vec_memory.load_bytes
    assert ref_memory.store_bytes == vec_memory.store_bytes
    assert reference.cycles == vectorized.cycles
    assert reference.warp_instructions == vectorized.warp_instructions
    assert reference.instruction_histogram == vectorized.instruction_histogram
    assert reference.stalls.as_dict() == vectorized.stalls.as_dict()
    _assert_same_counters(reference.counters, vectorized.counters)
