"""Counter-backed invariants: barrier economics and bank-conflict replays.

Earlier tests pinned these properties statically (count BARs in the SASS,
inspect shared-memory addressing).  With per-instruction simulator counters
the same claims are checked dynamically: the barriers actually issued per
main-loop iteration, and the replays the banks actually charged.
"""

from __future__ import annotations

import numpy as np
import pytest

from tile_inspect import barriers_per_main_loop
from repro.isa.instructions import Opcode
from repro.kernels.base import run_workload
from repro.kernels.registry import get_workload
from repro.opt.autotune import simulate_one_block
from repro.tile.workloads import TileSgemmConfig, TileTransposeConfig

DOUBLE_BUFFER_CONFIG = TileSgemmConfig(stride=8, double_buffer=True)


def _main_loop_span(kernel) -> tuple[int, int]:
    """(target, branch_pc) of the largest backward branch — the staging loop."""
    backward = [
        (target, index)
        for index, target in kernel.branch_targets.items()
        if target <= index
    ]
    assert backward, "kernel has no main loop"
    return max(backward, key=lambda span: span[1] - span[0])


def _profiled_block(gpu, kernel):
    result = simulate_one_block(gpu, kernel, collect_profile=True)
    assert result.counters is not None
    return result


class TestBarrierCountersMatchStaticStructure:
    @pytest.mark.parametrize(
        "config, expected",
        [(None, 2), (DOUBLE_BUFFER_CONFIG, 1)],
        ids=["pipelined", "double_buffered"],
    )
    def test_issued_barriers_per_iteration(self, fermi, config, expected):
        """The barriers the scheduler *issued* inside the main loop divide by
        the trip count to exactly the static per-iteration figure: 2 for the
        classic pipelined lowering, 1 for double buffering."""
        workload = get_workload("tile_sgemm")
        config = config or workload.default_config()
        kernel, _ = workload.generate_optimized(config, fermi)
        assert barriers_per_main_loop(kernel) == expected

        start, stop = _main_loop_span(kernel)
        result = _profiled_block(fermi, kernel)
        bar_pcs = [
            pc
            for pc in range(start, stop + 1)
            if kernel.instructions[pc].opcode is Opcode.BAR
        ]
        issues = result.counters.issues[bar_pcs]
        assert np.all(issues > 0), "a main-loop barrier never issued"
        # Every warp of the block runs every iteration of the ko loop, so the
        # issue counts are uniform and factor as warps * trips * expected.
        per_pc = set(int(count) for count in issues)
        assert len(per_pc) == 1
        assert len(bar_pcs) == expected

    def test_all_barrier_stall_cycles_land_on_bars(self, fermi):
        """Barrier stall cycles are attributed only at BAR.SYNC sites."""
        workload = get_workload("tile_sgemm")
        kernel, _ = workload.generate_optimized(workload.default_config(), fermi)
        result = _profiled_block(fermi, kernel)
        stalls = result.counters.stall_events["barrier"]
        for pc, events in enumerate(stalls):
            if events:
                assert kernel.instructions[pc].opcode is Opcode.BAR


class TestBankConflictReplayCounters:
    @pytest.mark.parametrize("gpu_name", ["fermi", "kepler"])
    def test_sgemm_compute_phase_is_replay_free(self, gpu_name, request):
        """The opt-pipeline SGEMM's compute phase incurs zero bank-conflict
        replays on both machines — the dynamic counterpart of the static
        conflict-free-layout assertion.  Replays are confined to the shared
        staging stores (column-strided by construction)."""
        gpu = request.getfixturevalue(gpu_name)
        workload = get_workload("tile_sgemm")
        run = run_workload(
            gpu, workload, workload.default_config(),
            optimized=True, collect_profile=True,
        )
        counters = run.result.counters
        for pc, instruction in enumerate(run.kernel.instructions):
            replays = int(counters.smem_replays[pc])
            if "compute" in instruction.provenance:
                assert replays == 0, (
                    f"pc {pc} ({instruction.provenance}) replayed {replays}x"
                )
            elif replays:
                assert "stage_shared(" in instruction.provenance

    def test_transpose_padding_reduces_replays(self, fermi):
        """Padded staging strictly reduces measured transpose replays — the
        counters see the same effect the static bank model predicts."""

        def total_replays(pad: int) -> int:
            workload = get_workload("tile_transpose")
            run = run_workload(
                fermi, workload, TileTransposeConfig(pad=pad),
                optimized=True, collect_profile=True,
            )
            return int(run.result.counters.smem_replays.sum())

        padded, unpadded = total_replays(1), total_replays(0)
        assert padded < unpadded
        assert unpadded > 0
