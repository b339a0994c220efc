"""Tests for warp state, launch geometry and one-SM block runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.isa import KernelBuilder
from repro.microbench import mix_kernel
from repro.sim import BlockGrid, LaunchConfig, SmSimulator
from repro.sim.warp import WarpState, build_warps_for_block


class TestBlockGrid:
    def test_thread_and_warp_counts(self):
        grid = BlockGrid(grid_x=3, grid_y=2, block_x=16, block_y=16)
        assert grid.threads_per_block == 256
        assert grid.warps_per_block == 8
        assert grid.block_count == 6
        assert grid.total_threads == 1536

    def test_block_indices_order(self):
        grid = BlockGrid(grid_x=2, grid_y=2, block_x=32)
        assert grid.block_indices() == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(SimulationError):
            BlockGrid(grid_x=0, block_x=32)


class TestWarpState:
    def test_rz_reads_zero_and_ignores_writes(self):
        warp = WarpState(warp_id=0, block_id=0)
        warp.write_u32(63, np.full(32, 7, dtype=np.uint32), np.ones(32, dtype=bool))
        assert np.all(warp.read_u32(63) == 0)

    def test_pt_predicate_always_true(self):
        warp = WarpState(warp_id=0, block_id=0)
        assert warp.read_predicate(7, negated=False).all()
        assert not warp.read_predicate(7, negated=True).any()

    def test_masked_register_write(self):
        warp = WarpState(warp_id=0, block_id=0)
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        warp.write_u32(5, np.arange(32, dtype=np.uint32), mask)
        assert np.array_equal(warp.read_u32(5)[:4], np.arange(4, dtype=np.uint32))
        assert np.all(warp.read_u32(5)[4:] == 0)

    def test_build_warps_thread_coordinates(self):
        warps = build_warps_for_block(0, (2, 3), (16, 16), first_warp_id=0)
        assert len(warps) == 8
        assert warps[0].lane_tid_x[0] == 0 and warps[0].lane_tid_y[0] == 0
        assert warps[1].lane_tid_x[0] == 0 and warps[1].lane_tid_y[0] == 2
        assert all(w.block_idx == (2, 3) for w in warps)

    def test_partial_warp_active_mask(self):
        warps = build_warps_for_block(0, (0, 0), (48, 1), first_warp_id=0)
        assert len(warps) == 2
        assert warps[0].active_mask.all()
        assert warps[1].active_mask.sum() == 16


class TestSmSimulator:
    def test_run_block_counts_one_block(self, fermi):
        kernel = mix_kernel(4, 64, dependent=False, groups=8)
        result = SmSimulator(fermi, kernel).run(
            LaunchConfig(grid=BlockGrid(grid_x=4, block_x=128), functional=False),
            block_indices=[(2, 0)],
        )
        assert result.blocks_simulated == 1
        assert result.warps_simulated == 4

    def test_empty_kernel_rejected(self, fermi):
        builder = KernelBuilder()
        kernel = builder.build()
        with pytest.raises(SimulationError):
            SmSimulator(fermi, kernel).run(
                LaunchConfig(grid=BlockGrid(grid_x=1, block_x=32), functional=False)
            )

    def test_cycle_limit_enforced(self, fermi):
        kernel = mix_kernel(6, 64, dependent=False, groups=64)
        with pytest.raises(SimulationError):
            SmSimulator(fermi, kernel).run(
                LaunchConfig(
                    grid=BlockGrid(grid_x=1, block_x=1024),
                    functional=False,
                    max_cycles=10,
                )
            )


def test_launch_config_defaults():
    config = LaunchConfig(grid=BlockGrid(grid_x=1, block_x=32))
    assert config.functional
    assert config.max_cycles > 0
