"""IR-derived resource counts pinned against the hand-derived formulas, and
``tile_sgemm``'s closed-form prices pinned against the IR walk."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.opt.autotune import WorkloadCandidate
from repro.tile import launch_geometry, library, proc_resources, proc_shared_footprint
from repro.tile import schedule as S
from repro.tile.autotune import prune_by_bound, schedule_space
from repro.tile.workloads import (
    TILE_SGEMM,
    TILE_SGEMV,
    TILE_TRANSPOSE,
    TileSgemmConfig,
    clear_schedule_caches,
)


class TestAgainstHandFormulas:
    """The IR walk reproduces the paper-style accounting *exactly*."""

    def test_sgemm_matches_eq6_accounting(self):
        config = TILE_SGEMM.default_config()
        derived = TILE_SGEMM.resources(config)
        tile, k = config.tile, config.k
        blocks = (config.m // tile) * (config.n // tile)
        threads = (tile // config.register_blocking) ** 2
        assert derived.flops == 2 * config.m * config.n * config.k
        assert derived.dram_bytes == 4 * (blocks * 2 * tile * k + config.m * config.n)
        assert derived.shared_bytes == 4 * blocks * k * (
            2 * tile + threads * 2 * config.register_blocking
        )

    def test_transpose_matches_the_hand_workload(self):
        from repro.kernels import get_workload

        config = TILE_TRANSPOSE.default_config()
        derived = TILE_TRANSPOSE.resources(config)
        hand = get_workload("transpose").resources(
            get_workload("transpose").default_config()
        )
        assert (derived.flops, derived.dram_bytes, derived.shared_bytes) == (
            hand.flops, hand.dram_bytes, hand.shared_bytes
        )

    def test_sgemv_matches_the_hand_workload(self):
        from repro.kernels import get_workload

        config = TILE_SGEMV.default_config()
        derived = TILE_SGEMV.resources(config)
        hand = get_workload("sgemv").resources(get_workload("sgemv").default_config())
        assert (derived.flops, derived.dram_bytes, derived.shared_bytes) == (
            hand.flops, hand.dram_bytes, hand.shared_bytes
        )


class TestCountingSemantics:
    def test_naive_matmul_counts(self):
        resources = proc_resources(library.matmul_proc(4, 4, 2))
        # 2 flops per accumulate; DRAM: A+B reads, C init write, C
        # read-modify-write per accumulate.
        assert resources.flops == 2 * 4 * 4 * 2
        assert resources.dram_bytes == 4 * (2 * 32 + 16 + 2 * 32)
        assert resources.shared_bytes == 0

    def test_staging_counts_once_per_block(self):
        naive = library.transpose_proc(8, 8)
        scheduled = library.schedule_transpose(naive, tile=4)
        resources = proc_resources(scheduled)
        # 4 blocks x 16-element windows: one global read and one shared
        # write per element, one shared read and one global write per thread.
        assert resources.dram_bytes == 4 * (64 + 64)
        assert resources.shared_bytes == 4 * (64 + 64)

    def test_predicate_tail_counts_only_live_iterations(self):
        naive = library.copy_proc(10)
        tailed = S.predicate_tail(naive, "i", 4)
        assert proc_resources(tailed).dram_bytes == proc_resources(naive).dram_bytes

    def test_unrolled_reuse_prices_distinct_addresses(self):
        # B[k, j] inside an unrolled i-loop is loaded once, not once per i.
        p = library.matmul_proc(4, 4, 2)
        unrolled = S.unroll(p, "i")
        base = proc_resources(p)
        reused = proc_resources(unrolled)
        assert reused.flops == base.flops
        assert reused.dram_bytes < base.dram_bytes

    def test_register_buffers_cost_nothing(self):
        naive = library.sgemv_proc(8, 8)
        staged = S.stage_registers(S.split(naive, "i", 4, "bx", "tx"), "tx", "y")
        before = proc_resources(S.split(naive, "i", 4, "b2", "t2"))
        after = proc_resources(staged)
        # The y read-modify-write traffic moves into registers; only the
        # final write-back (one word per row) remains.
        assert after.dram_bytes < before.dram_bytes
        assert after.flops == before.flops


def test_bound_feeds_from_derived_resources(fermi):
    bound = TILE_SGEMM.bound(TILE_SGEMM.default_config(), fermi)
    assert bound.potential_gflops > 0
    assert np.isfinite(bound.effective_bandwidth_gbs)


class TestClippedWindows:
    def test_imperfect_sgemm_flops_are_exact(self):
        from repro.tile.workloads import TileSgemmConfig

        config = TileSgemmConfig(m=193, n=161, k=97)
        derived = TILE_SGEMM.resources(config)
        # Guard fractions price exactly the live iterations: 2·M·N·K flops,
        # not the rounded-up tile grid.
        assert derived.flops == 2 * 193 * 161 * 97

    def test_clipped_staging_prices_in_bounds_elements_only(self):
        from repro.tile.workloads import TileSgemmConfig

        perfect = TILE_SGEMM.resources(TileSgemmConfig(m=96, n=96, k=16))
        # 97 rows: one extra row of tiles, but barely any extra real data.
        tailed = TILE_SGEMM.resources(TileSgemmConfig(m=97, n=96, k=16))
        rounded_up = TILE_SGEMM.resources(TileSgemmConfig(m=192, n=96, k=16))
        assert perfect.dram_bytes < tailed.dram_bytes < rounded_up.dram_bytes

    def test_guard_fraction_factorises_over_disjoint_groups(self):
        import time

        from repro.tile.workloads import TileSgemmConfig

        proc = TILE_SGEMM.scheduled_proc(TileSgemmConfig(m=193, n=161, k=97))
        start = time.time()
        proc_resources(proc)
        # The i/j/k tail guards enumerate independently (~hundreds of points
        # each); a cross product over M x N x K would take minutes.
        assert time.time() - start < 5.0


# --------------------------------------------------------------------------- #
# tile_sgemm's closed forms against the scheduled proc.                        #
# --------------------------------------------------------------------------- #

#: The problem shapes one seed-1 and one seed-2 round of the e2e
#: ``tune_cold`` and ``tune_mixed`` workloads build (17 distinct).
TUNED_SHAPES = (
    (66, 189, 30), (67, 189, 26), (88, 88, 96), (90, 138, 126), (92, 143, 127),
    (94, 92, 96), (96, 96, 96), (135, 135, 89), (135, 136, 91), (137, 142, 91),
    (138, 88, 42), (139, 136, 89), (142, 96, 48), (184, 186, 32), (190, 185, 32),
    (192, 192, 32), (193, 161, 97),
)

_BLOCKINGS = (1, 2, 3, 4, 6, 8, 16)


def _walked(config):
    """Resources, footprint and geometry read off the scheduled proc."""
    proc = TILE_SGEMM.scheduled_proc(config)
    return proc_resources(proc), proc_shared_footprint(proc), launch_geometry(proc)


def _priced(config):
    """The same three from the closed forms."""
    return (
        TILE_SGEMM.resources(config),
        TILE_SGEMM.shared_footprint(config),
        TILE_SGEMM.geometry(config),
    )


@st.composite
def schedulable_points(draw):
    """Every field over values ``schedule_sgemm`` accepts."""
    blocking = draw(st.sampled_from(_BLOCKINGS))
    stage = draw(st.booleans())
    return TileSgemmConfig(
        m=draw(st.integers(1, 230)),
        n=draw(st.integers(1, 230)),
        k=draw(st.integers(1, 140)),
        tile=blocking * draw(st.integers(1, 96 // blocking)),
        register_blocking=blocking,
        stride=draw(st.integers(1, 24)),
        b_window=draw(st.sampled_from([w for w in _BLOCKINGS if blocking % w == 0])),
        stage=stage,
        prefetch=draw(st.booleans()),
        unroll_inner=draw(st.booleans()),
        double_buffer=stage and draw(st.booleans()),
    )


@st.composite
def rejected_points(draw):
    """Points ``schedule_sgemm`` rejects before applying any primitive."""
    point = draw(schedulable_points())
    rule = draw(st.sampled_from(("tile", "window", "double_buffer")))
    if rule == "tile":
        tile = draw(st.integers(1, 96).filter(lambda t: t % point.register_blocking))
        return dataclasses.replace(point, tile=tile)
    if rule == "window":
        window = draw(st.sampled_from(
            [w for w in (2, 3, 4, 5, 6, 8) if point.register_blocking % w]
        ))
        return dataclasses.replace(point, b_window=window)
    return dataclasses.replace(point, stage=False, double_buffer=True)


class TestClosedForms:
    """Pricing a tile_sgemm point schedules nothing and prices what the walk does."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(schedulable_points())
    # 8mnk/16 ends in .5 here; a walk that sums in floats rounds it the
    # other way (the walk now sums exact fractions).
    @example(TileSgemmConfig(m=229, n=125, k=27, tile=96, register_blocking=16, stride=11,
                             b_window=8, stage=False, unroll_inner=True))
    def test_equal_the_scheduled_proc_on_random_points(self, config):
        assert _priced(config) == _walked(config)

    @pytest.mark.parametrize("shape", TUNED_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_equal_the_scheduled_proc_on_every_tuned_point(self, shape):
        m, n, k = shape
        for candidate in schedule_space("tile_sgemm", TileSgemmConfig(m=m, n=n, k=k)):
            assert _priced(candidate.config) == _walked(candidate.config), candidate.label

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rejected_points())
    def test_reject_what_schedule_sgemm_rejects_up_front(self, config):
        with pytest.raises(ScheduleError):
            TILE_SGEMM.scheduled_proc(config)
        for price in (TILE_SGEMM.resources, TILE_SGEMM.shared_footprint, TILE_SGEMM.geometry):
            with pytest.raises(ScheduleError):
                price(config)

    def test_an_unpriceable_point_stays_kept_and_unpriced(self, fermi):
        shape = TileSgemmConfig(m=96, n=96, k=96)
        space = schedule_space("tile_sgemm", shape)
        rejected = WorkloadCandidate(
            workload="tile_sgemm",
            config=dataclasses.replace(shape, stage=False, double_buffer=True),
            label="tile_sgemm:unpriceable",
        )
        report = prune_by_bound(fermi, [*space, rejected])
        assert rejected in report.kept
        assert "tile_sgemm:unpriceable" not in dict(report.pruned)

    def test_pricing_a_space_schedules_nothing(self, fermi, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was scheduled to price it")

        clear_schedule_caches()  # so no memoized point can stand in for a schedule
        monkeypatch.setattr(library, "schedule_sgemm", refuse)
        monkeypatch.setattr(library, "decompose_sgemm", refuse)
        space = schedule_space("tile_sgemm", TileSgemmConfig(m=193, n=161, k=97))
        report = prune_by_bound(fermi, space)
        assert report.kept and report.pruned
