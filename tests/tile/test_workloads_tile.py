"""Tile workloads through the registry and the schedule-space autotuner."""

from dataclasses import replace

import numpy as np
import pytest

from repro.context import session
from repro.errors import ReproError, ScheduleError
from repro.kernels import get_workload, run_workload, workload_cycles
from repro.opt import autotune_workloads
from repro.telemetry.metrics import MetricsRegistry
from repro.tile import library
from repro.tile.autotune import prune_by_bound, schedule_space
from repro.tile.resources import proc_resources
from repro.tile.workloads import (
    TileSgemmConfig,
    TileSgemvConfig,
    TileTransposeConfig,
    clear_schedule_caches,
)

TILE_WORKLOADS = ("tile_sgemm", "tile_transpose", "tile_sgemv")


class TestRegistryIntegration:
    def test_tile_workloads_registered(self):
        for name in TILE_WORKLOADS:
            workload = get_workload(name)
            assert workload.name == name
            assert workload.description
            assert len(workload.config_space()) >= 2

    @pytest.mark.parametrize("name", TILE_WORKLOADS)
    def test_naive_matches_numpy(self, name, fermi):
        run = run_workload(fermi, get_workload(name), optimized=False)
        assert run.max_error <= 1e-3

    @pytest.mark.parametrize("name", TILE_WORKLOADS)
    @pytest.mark.parametrize("gpu_name", ("fermi", "kepler"))
    def test_optimized_matches_numpy(self, name, gpu_name, request):
        gpu = request.getfixturevalue(gpu_name)
        run = run_workload(gpu, get_workload(name), optimized=True)
        assert run.optimized
        assert run.max_error <= 1e-3

    @pytest.mark.parametrize("name", TILE_WORKLOADS)
    @pytest.mark.parametrize("gpu_name", ("fermi", "kepler"))
    def test_pipeline_never_slower(self, name, gpu_name, request):
        gpu = request.getfixturevalue(gpu_name)
        workload = get_workload(name)
        config = workload.default_config()
        naive = workload.generate_naive(config)
        optimized, _ = workload.generate_optimized(config, gpu)
        assert workload_cycles(gpu, optimized) <= workload_cycles(gpu, naive)

    @pytest.mark.parametrize("name", TILE_WORKLOADS)
    def test_config_space_lowers_within_register_budget(self, name):
        workload = get_workload(name)
        for config in workload.config_space():
            assert workload.generate_naive(config).register_count <= 63

    @pytest.mark.parametrize("name", TILE_WORKLOADS)
    def test_bounds_exist(self, name, fermi):
        workload = get_workload(name)
        bound = workload.bound(workload.default_config(), fermi)
        assert bound.limited_by in (
            "compute", "dram_bandwidth", "shared_bandwidth"
        )

    def test_oracle_helper_matches_reference(self, fermi):
        workload = get_workload("tile_sgemm")
        config = workload.default_config()
        inputs = workload.prepare_inputs(config, seed=2)
        oracle = workload.oracle(config, inputs)["C"]
        np.testing.assert_allclose(
            oracle, workload.reference(config, inputs), rtol=1e-4, atol=1e-3
        )


class TestImperfectSizes:
    """Arbitrary (M, N, K) through the registry: the acceptance criterion."""

    @pytest.mark.parametrize("gpu_name", ("fermi", "kepler"))
    def test_sgemm_on_prime_sizes_validates_bit_exactly(self, gpu_name, request):
        # The full-size analogue (193x161x97) runs in benchmarks/bench_tile;
        # this scaled case keeps every tail dimension live at the default
        # 96-wide tile and 256-thread block.
        gpu = request.getfixturevalue(gpu_name)
        workload = get_workload("tile_sgemm")
        config = TileSgemmConfig(m=97, n=65, k=33)
        run = run_workload(gpu, workload, config, optimized=False,
                           max_cycles=20_000_000)
        inputs = workload.prepare_inputs(config)
        oracle = workload.oracle(config, inputs)["C"]
        assert np.array_equal(run.output, oracle)

    def test_transpose_on_prime_sizes_validates_bit_exactly(self, fermi):
        workload = get_workload("tile_transpose")
        config = TileTransposeConfig(m=29, n=23)
        run = run_workload(fermi, workload, config, optimized=False)
        inputs = workload.prepare_inputs(config)
        oracle = workload.oracle(config, inputs)["out"]
        assert np.array_equal(run.output, oracle)

    def test_sgemv_on_prime_sizes_validates_bit_exactly(self, fermi):
        workload = get_workload("tile_sgemv")
        config = TileSgemvConfig(m=41, k=19)
        run = run_workload(fermi, workload, config, optimized=False)
        inputs = workload.prepare_inputs(config)
        oracle = workload.oracle(config, inputs)["y"]
        assert np.array_equal(run.output, oracle)

    def test_optimized_tail_sgemm_still_validates(self, fermi):
        workload = get_workload("tile_sgemm")
        config = TileSgemmConfig(m=41, n=37, k=13, tile=32,
                                 register_blocking=4, stride=4)
        run = run_workload(fermi, workload, config, optimized=True)
        inputs = workload.prepare_inputs(config)
        oracle = workload.oracle(config, inputs)["C"]
        assert np.array_equal(run.output, oracle)


class TestScheduleAutotuning:
    def test_candidate_set_covers_every_tile_workload(self):
        for name in TILE_WORKLOADS:
            space = schedule_space(name)
            assert space and all(c.label.startswith(f"{name}:") for c in space)
            assert all(c.workload == name and c.optimize for c in space)
        with pytest.raises(ReproError, match="no schedule space"):
            schedule_space("sgemm")
        # The sweep varies genuine schedule decisions, not just sizes.
        labels = [c.label for c in schedule_space("tile_sgemm")]
        assert any("nostage" in label for label in labels)
        assert any("noprefetch" in label for label in labels)
        assert any(":w1" in label for label in labels)

    def test_sweep_evaluates_and_ranks(self, fermi):
        # A small slice of the sweep keeps the test fast; the full sweep runs
        # in benchmarks/bench_tile.py.
        candidates = [
            c for c in schedule_space("tile_transpose") + schedule_space("tile_sgemv")
            if c.label in ("tile_transpose:golden", "tile_transpose:nopad",
                           "tile_sgemv:golden", "tile_sgemv:w1")
        ]
        outcomes = autotune_workloads(fermi, candidates, workers=1)
        assert len(outcomes) == 4
        assert all(o.ok for o in outcomes)
        cycles = [o.cycles for o in outcomes]
        assert cycles == sorted(cycles)
        # Wide loads beat narrow loads on the sgemv pair.
        by_label = {o.label: o.cycles for o in outcomes}
        assert by_label["tile_sgemv:golden"] < by_label["tile_sgemv:w1"]


class TestGenerativeSweep:
    def test_space_is_generative_not_curated(self):
        space = schedule_space("tile_sgemm", TileSgemmConfig(m=100, n=92, k=20))
        labels = [c.label for c in space]
        # Grid points over (tile, B_R, L, window)...
        assert any(label.startswith("tile_sgemm:t48b6l8") for label in labels)
        assert any(label.startswith("tile_sgemm:t24b") for label in labels)
        # ...all at the one requested (imperfect) problem size.
        assert {(c.config.m, c.config.n, c.config.k) for c in space} == {(100, 92, 20)}

    def test_bound_prunes_at_least_half_before_simulation(self, fermi):
        report = prune_by_bound(fermi, schedule_space("tile_sgemm"))
        assert report.pruned_fraction >= 0.5
        kept = [c.label for c in report.kept]
        # The paper-point schedule is never pruned; the unstaged strawman is.
        assert "tile_sgemm:golden" in kept
        assert any("nostage" in label for label, _ in report.pruned)

    def test_pruned_candidates_have_worse_bounds(self, fermi):
        report = prune_by_bound(fermi, schedule_space("tile_sgemm"))
        workload = get_workload("tile_sgemm")
        golden = next(c for c in report.kept if c.label == "tile_sgemm:golden")
        best = workload.bound(golden.config, fermi).bound_time_s
        for _, bound_time in report.pruned:
            assert bound_time > best

    def test_gpu_argument_prunes_schedule_candidates(self, fermi):
        full = schedule_space("tile_sgemm")
        pruned = prune_by_bound(fermi, full).kept
        assert len(pruned) < len(full)


#: The schedule knobs of a TileSgemmConfig, as ``schedule_sgemm`` takes them.
SGEMM_KNOBS = ("tile", "register_blocking", "stride", "b_window", "stage", "prefetch",
               "unroll_inner", "double_buffer")


class TestDecomposition:
    """Schedule points extend one memoized decomposition per (shape, tile, B_R)."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self):
        clear_schedule_caches()
        yield
        clear_schedule_caches()

    @pytest.mark.parametrize("shape", [(193, 161, 97), (67, 189, 26)])
    def test_memo_path_equals_the_schedule_from_the_naive_nest(self, shape):
        workload = get_workload("tile_sgemm")
        m, n, k = shape
        for candidate in schedule_space("tile_sgemm", TileSgemmConfig(m=m, n=n, k=k)):
            config = candidate.config
            direct = library.schedule_sgemm(
                library.matmul_proc(m, n, k),
                **{knob: getattr(config, knob) for knob in SGEMM_KNOBS},
            )
            assert workload.cached_scheduled_proc(config) == replace(
                direct, name=config.kernel_name
            ), candidate.label
            assert workload.resources(config) == proc_resources(direct), candidate.label

    def test_a_decomposition_at_another_tile_or_blocking_is_refused(self):
        naive = library.matmul_proc(96, 96, 16)
        for tile, blocking in ((48, 6), (96, 3)):
            decomposed = library.decompose_sgemm(naive, tile=tile, register_blocking=blocking)
            with pytest.raises(ScheduleError, match="decomposition at tile 96"):
                library.schedule_sgemm(decomposed, tile=96, register_blocking=6)
        decomposed = library.decompose_sgemm(naive, tile=96, register_blocking=6)
        assert library.schedule_sgemm(decomposed) == library.schedule_sgemm(naive)

    def test_points_share_one_decomposition(self, monkeypatch):
        workload = get_workload("tile_sgemm")
        schedule = library.schedule_sgemm
        extended = []

        def recording(proc, **knobs):
            extended.append(proc)
            return schedule(proc, **knobs)

        monkeypatch.setattr(library, "schedule_sgemm", recording)
        base = TileSgemmConfig(m=96, n=96, k=16)
        for config in (base, replace(base, stride=8, b_window=1),
                       replace(base, register_blocking=3, b_window=1)):
            workload.cached_scheduled_proc(config)
        assert extended[1] is extended[0]
        assert extended[2] is not extended[0]

    @pytest.mark.parametrize(
        "knobs",
        [{"b_window": 4}, {"stage": False, "double_buffer": True}],
        ids=["window", "double-buffer"],
    )
    def test_a_point_that_fails_to_schedule_leaves_the_memo_empty(self, knobs):
        import repro.tile.workloads as tile_workloads

        workload = get_workload("tile_sgemm")
        with pytest.raises(ScheduleError):
            workload.cached_scheduled_proc(TileSgemmConfig(m=96, n=96, k=16, **knobs))
        assert tile_workloads._SCHEDULED_PROCS == {}

    def test_memo_counters_count_schedule_points_only(self, monkeypatch):
        """Hits, misses and evictions read as if only points were memoized."""
        import repro.tile.workloads as tile_workloads

        monkeypatch.setattr(tile_workloads, "_SCHEDULE_CACHE_LIMIT", 2)
        workload = get_workload("tile_sgemm")
        base = TileSgemmConfig(m=96, n=96, k=16)
        points = [base, replace(base, stride=8), replace(base, b_window=1)]
        registry = MetricsRegistry()
        with session(metrics=registry):
            for config in points + points[-1:]:
                workload.cached_scheduled_proc(config)
        snapshot = registry.snapshot()
        assert [
            snapshot.counter_total(f"tile.schedule_cache.{name}")
            for name in ("hits", "misses", "evictions")
        ] == [1, 3, 1]
