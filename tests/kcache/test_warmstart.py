"""Warm-start policy: neighbour ranking, seed candidates, the cycle floor.

The warm prune is a heuristic: its per-block floor bounds a full block run,
while the sweep measures a truncated one, so seeding can in principle
change the winner (see ``TestCycleFloor``).
"""

from __future__ import annotations

import pytest

from repro.kcache import (
    KernelStore,
    get_kernel,
    nearest_tuned,
    shape_distance,
    shape_of,
    warm_seed_candidates,
    warm_seed_configs,
)
from repro.tile.autotune import block_cycle_floor
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches


class TestShapeDistance:
    def test_log_space_symmetry_and_identity(self):
        a = (("m", 96), ("n", 96), ("k", 96))
        b = (("m", 192), ("n", 96), ("k", 96))
        assert shape_distance(a, a) == 0.0
        assert shape_distance(a, b) == shape_distance(b, a) > 0.0

    def test_dimension_mismatch_is_infinite(self):
        assert shape_distance((("m", 4),), (("m", 4), ("n", 4))) == float("inf")

    def test_nearer_shape_ranks_first(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        for m, n, k in ((192, 160, 96), (24, 24, 24)):
            store.put(
                f"tuned_{m}", kind="tuned", artifacts={}, workload="tile_sgemm",
                gpu="gtx580",
                extra={
                    "winner_schedule": {"tile": 48},
                    "shape": [["m", m], ["n", n], ["k", k]],
                },
            )
        target = shape_of(TileSgemmConfig(m=193, n=161, k=97))
        ranked = nearest_tuned(store, "tile_sgemm", "gtx580", target, limit=2)
        assert [meta["key"] for meta in ranked] == ["tuned_192", "tuned_24"]

    def test_same_shape_and_other_gpus_are_excluded(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        shape = [["m", 96], ["n", 96], ["k", 96]]
        store.put("same_shape", kind="tuned", artifacts={}, workload="tile_sgemm",
                  gpu="gtx580", extra={"winner_schedule": {"tile": 96}, "shape": shape})
        store.put("other_gpu", kind="tuned", artifacts={}, workload="tile_sgemm",
                  gpu="gtx680",
                  extra={"winner_schedule": {"tile": 96},
                         "shape": [["m", 192], ["n", 96], ["k", 96]]})
        target = shape_of(TileSgemmConfig(m=96, n=96, k=96))
        assert nearest_tuned(store, "tile_sgemm", "gtx580", target) == []


class TestSeedConfigs:
    def test_neighbour_schedule_lands_on_the_new_shape(self):
        base = TileSgemmConfig(m=192, n=160, k=96)
        neighbour = {
            "key": "n1",
            "winner_schedule": {"tile": 48, "register_blocking": 3, "stride": 16,
                               "b_window": 1, "double_buffer": True},
            "shape": [["m", 193], ["n", 161], ["k", 97]],
        }
        (seed,) = warm_seed_configs(base, [neighbour])
        assert isinstance(seed, TileSgemmConfig)
        assert seed == TileSgemmConfig(
            m=192, n=160, k=96, tile=48, register_blocking=3, stride=16, b_window=1,
            double_buffer=True,
        )

    def test_invalid_seeds_are_filtered_and_duplicates_collapse(self):
        base = TileSgemmConfig(m=192, n=160, k=96)
        twin = {"key": "a", "winner_schedule": {"tile": 48},
                "shape": [["m", 193], ["n", 161], ["k", 97]]}
        dupe = {"key": "b", "winner_schedule": {"tile": 48},
                "shape": [["m", 96], ["n", 96], ["k", 96]]}
        seeds = warm_seed_configs(base, [twin, dupe])
        assert len(seeds) == 1
        rejected = warm_seed_configs(base, [twin], valid=lambda config: False)
        assert rejected == []

    def test_store_seeds_are_valid_labelled_and_capped(self, tmp_path):
        """The two nearest winners seed; the invalid one is dropped."""
        store = KernelStore(tmp_path / "kcache")
        for shape, winner in (
            ((193, 161, 97), {"tile": 48, "register_blocking": 5}),  # 48 % 5 != 0
            ((200, 170, 97), {"tile": 48, "register_blocking": 3, "b_window": 1}),
            ((24, 24, 24), {"tile": 24}),  # third nearest: beyond the cap
        ):
            store.put(
                f"tuned_{shape[0]}", kind="tuned", artifacts={}, workload="tile_sgemm",
                gpu="gtx580",
                extra={"winner_schedule": winner,
                       "shape": [list(pair) for pair in zip("mnk", shape)]},
            )
        base = TileSgemmConfig(m=192, n=160, k=96)
        (seed,) = warm_seed_candidates(store, "tile_sgemm", "gtx580", base)
        assert seed.label == "tile_sgemm:warm0" and seed.optimize
        assert seed.config == TileSgemmConfig(
            m=192, n=160, k=96, tile=48, register_blocking=3, b_window=1
        )


class TestCycleFloor:
    def test_floor_never_exceeds_achieved_cycles(self, fermi):
        """Floor <= simulated cycles on three points that cannot show the gap.

        The floor bounds a full run of the block; the sweep's timing-only
        run covers one pass through each loop body.  The first two points
        run a single K iteration, so their run is not truncated (floors
        2,304 and 576 against 8,125 and 3,212 cycles), and the third has a
        floor of 8 cycles.  ``test_floor_holds_on_a_truncated_run`` is the
        case that shows the gap.
        """
        from repro.kernels.registry import get_workload
        from repro.opt.autotune import simulate_one_block

        workload = get_workload("tile_sgemm")
        for config in (
            TileSgemmConfig(m=96, n=96, k=16),
            TileSgemmConfig(m=96, n=96, k=16, tile=48, register_blocking=3,
                            b_window=1),
            TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2,
                            stride=2, b_window=1),
        ):
            floor = block_cycle_floor(workload, config, fermi)
            assert floor > 0.0
            kernel, _ = workload.generate_optimized(config, fermi)
            achieved = simulate_one_block(fermi, kernel).cycles
            assert floor <= achieved, (config, floor, achieved)

    @pytest.mark.xfail(
        strict=True,
        reason="the floor bounds a full block run, the sweep measures one K "
        "iteration: 11,520 floor against 9,281 cycles",
    )
    def test_floor_holds_on_a_truncated_run(self, fermi):
        """Six K iterations, timed as one: ``golden`` at 192x160x96 on gtx580.

        At this shape 7 of the 19 bound-kept candidates, all with 96-wide
        tiles, simulate below their floor.  When the floor becomes sound
        against the figure the sweep compares it with, this passes and the
        strict xfail flags it.
        """
        from repro.kernels.registry import get_workload
        from repro.opt.autotune import simulate_one_block

        workload = get_workload("tile_sgemm")
        config = TileSgemmConfig(m=192, n=160, k=96)
        floor = block_cycle_floor(workload, config, fermi)
        kernel, _ = workload.generate_optimized(config, fermi)
        assert floor <= simulate_one_block(fermi, kernel).cycles

    def test_flop_free_workloads_price_at_zero(self, fermi):
        from repro.kernels.registry import get_workload
        from repro.tile.workloads import TileTransposeConfig

        floor = block_cycle_floor(
            get_workload("tile_transpose"), TileTransposeConfig(), fermi
        )
        assert floor == 0.0


@pytest.mark.slow
class TestAcceptancePair:
    def test_193_to_192_never_worse_and_strictly_fewer_candidates(self, tmp_path):
        """Seeding 192x160x96 from the tuned 193x161x97 neighbour.

        On this pair the seeded sweep finds a winner no worse than the cold
        one in fewer simulations.  The floor behind the warm prune is a
        heuristic (``TestCycleFloor``), so that holds for this pair, not in
        general.
        """
        from repro.tile.autotune import run_generative_sweep

        store = KernelStore(tmp_path / "kcache")
        tuned = get_kernel(
            "tile_sgemm", TileSgemmConfig(m=193, n=161, k=97), "gtx580",
            store=store, tune=True, warm_start=False,
        )
        assert tuned.source == "built"

        neighbour = TileSgemmConfig(m=192, n=160, k=96)
        clear_schedule_caches()
        cold = run_generative_sweep("gtx580", "tile_sgemm", neighbour)
        seeds = warm_seed_candidates(store, "tile_sgemm", "gtx580", neighbour)
        warm = run_generative_sweep("gtx580", "tile_sgemm", neighbour, seeds=seeds)
        cold_best = next(o for o in cold.outcomes if o.ok)
        warm_best = next(o for o in warm.outcomes if o.ok)
        assert warm.seed_candidates, "the tuned neighbour must seed the sweep"
        assert warm_best.cycles <= cold_best.cycles
        assert len(warm.outcomes) < len(cold.outcomes)
        assert warm.warm_pruned > 0
