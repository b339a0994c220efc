"""The get_kernel front-end: hits do no work, misses build-and-publish."""

from __future__ import annotations

import pytest

from repro.context import current, session
from repro.errors import BuildFailedError
from repro.kcache import KernelStore, get_kernel, routine_key
from repro.opt.rewrite import kernel_hash
from repro.telemetry.metrics import MetricsRegistry
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches

TINY = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=1)
SPACE = {"tiles": (4, 8), "register_blockings": (2, 4), "strides": (2, 4), "b_windows": (1, 2)}


@pytest.fixture(autouse=True)
def _cold_memos():
    clear_schedule_caches()
    yield
    clear_schedule_caches()


class TestColdMiss:
    def test_cold_miss_builds_and_publishes(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        reply = get_kernel("tile_sgemm", TINY, fermi, store=store)
        assert reply.source == "built"
        assert reply.key == routine_key("tile_sgemm", TINY, fermi.name)
        assert reply.kernel is reply.entry.artifacts["kernel_opt"]
        assert reply.cycles is not None and reply.cycles > 0
        assert store.load(reply.key) is not None
        # The entry carries what the warm-start policy needs.
        assert reply.entry.meta["winner_schedule"]["tile"] == 8
        assert reply.entry.meta["shape"] == [["m", 16], ["n", 16], ["k", 8]]

    def test_miss_counters_fire(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        registry = MetricsRegistry()
        with session(metrics=registry):
            get_kernel("tile_sgemm", TINY, fermi, store=store)
        snapshot = registry.snapshot()
        assert snapshot.counter_total("kcache.misses") >= 1
        assert snapshot.counter_total("kcache.builds") == 1
        assert snapshot.counter_total("kcache.store.puts") >= 1


class TestWarmHit:
    def test_warm_hit_does_no_scheduling_lowering_or_simulation(self, tmp_path, fermi):
        """The acceptance pin: a hit is pure lookup, telemetry-asserted."""
        store = KernelStore(tmp_path / "kcache")
        built = get_kernel("tile_sgemm", TINY, fermi, store=store)
        clear_schedule_caches()
        registry = MetricsRegistry()
        with session(metrics=registry):
            reply = get_kernel("tile_sgemm", TINY, fermi, store=store)
        assert reply.source == "hit"
        snapshot = registry.snapshot()
        assert snapshot.counter_total("kcache.hits") == 1
        assert snapshot.counter_total("kcache.builds") == 0
        # No schedule application, no lowering, no simulation happened:
        assert snapshot.counter_total("tile.schedule_cache.misses") == 0
        assert snapshot.counter_total("autotune.candidates_evaluated") == 0
        assert kernel_hash(reply.kernel) == kernel_hash(built.kernel)
        assert reply.cycles == built.cycles

    def test_default_store_is_the_installed_one(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        with session(store=store):
            built = get_kernel("tile_sgemm", TINY, fermi)
            assert built.source == "built"
            assert store.load(built.key) is not None
            assert get_kernel("tile_sgemm", TINY, fermi).source == "hit"
        assert current().store is None  # session restored the previous store


class TestMemoStoreTier:
    def test_installed_store_keeps_only_the_tuned_entry(self, tmp_path, fermi):
        """The kernel store is the only durable tier: the schedule memos a
        tuned build runs through publish nothing of their own."""
        space = {"tiles": (4, 8), "register_blockings": (2, 4),
                 "strides": (2, 4), "b_windows": (1, 2)}
        store = KernelStore(tmp_path / "kcache")
        with session(store=store):
            reply = get_kernel("tile_sgemm", TINY, fermi, tune=True, space=space)
        assert reply.source == "built"
        assert store.keys() == [reply.key]
        assert store.stats().by_kind == {"tuned": 1}

    def test_without_a_store_memos_behave_as_before(self, fermi):
        from repro.kernels.registry import get_workload

        workload = get_workload("tile_sgemm")
        registry = MetricsRegistry()
        with session(metrics=registry):
            workload.generate_naive(TINY)
            workload.generate_naive(TINY)
        snapshot = registry.snapshot()
        assert snapshot.counter_total("tile.schedule_cache.hits") >= 1
        assert snapshot.counter_total("kcache.hits") == 0
        assert snapshot.counter_total("kcache.misses") == 0


class TestTunedRequests:
    def test_tuned_miss_records_winner_and_sweep_economics(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        space = {"tiles": (4, 8), "register_blockings": (2, 4),
                 "strides": (2, 4), "b_windows": (1, 2)}
        reply = get_kernel(
            "tile_sgemm", TINY, fermi, store=store, tune=True, warm_start=False,
            space=space,
        )
        assert reply.source == "built"
        meta = reply.entry.meta
        assert meta["tune_mode"] == "sweep"
        assert meta["winner_label"]
        assert set(meta["winner_schedule"]) >= {"tile", "register_blocking", "stride"}
        metrics = meta["metrics"]
        assert metrics["sweep_candidates"] >= metrics["sweep_simulated"] > 0
        # A tuned hit afterwards is served without a sweep.
        again = get_kernel("tile_sgemm", TINY, fermi, store=store, tune=True)
        assert again.source == "hit"


class TestTunedBuildPublishesTheSweepMeasurement:
    def test_winner_is_not_simulated_again(self, tmp_path, fermi, monkeypatch):
        """Every simulation of a cold tuned build is a sweep evaluation, and
        the published figures are the winner's own run."""
        import repro.opt.autotune as autotune

        runs = []
        simulate = autotune.simulate_one_block

        def recording(gpu, kernel, **kwargs):
            result = simulate(gpu, kernel, **kwargs)
            runs.append((kernel_hash(kernel), result))
            return result

        monkeypatch.setattr(autotune, "simulate_one_block", recording)
        reply = get_kernel(
            "tile_sgemm", TINY, fermi, store=KernelStore(tmp_path / "kcache"),
            tune=True, warm_start=False, space=SPACE,
        )
        metrics = reply.entry.meta["metrics"]
        assert len(runs) == metrics["sweep_simulated"]
        winner = reply.entry.meta["kernel_hashes"]["kernel_opt"]
        result = next(result for digest, result in runs if digest == winner)
        assert metrics["cycles"] == result.cycles
        assert metrics["gflops"] == result.gflops(fermi)
        assert metrics["efficiency"] == result.efficiency(fermi)

    def test_rebuild_differing_from_the_measured_kernel_poisons(
        self, tmp_path, fermi, monkeypatch
    ):
        """A winner that rebuilds to another kernel is never published."""
        import repro.tile.autotune as tile_autotune
        from repro.tile.workloads import TileSgemmWorkload

        sweep = tile_autotune.run_generative_sweep

        def sweep_then_drift(*args, **kwargs):
            report = sweep(*args, **kwargs)
            # From here on shared loads lower 32 bits wide, so the winner's
            # rebuild is not the kernel the sweep measured.
            monkeypatch.setattr(TileSgemmWorkload, "lds_width_bits", lambda self, config: 32)
            return report

        monkeypatch.setattr(tile_autotune, "run_generative_sweep", sweep_then_drift)
        store = KernelStore(tmp_path / "kcache")
        key = routine_key("tile_sgemm", TINY, fermi.name)
        with pytest.raises(BuildFailedError, match="not the measured"):
            get_kernel(
                "tile_sgemm", TINY, fermi, store=store, tune=True, warm_start=False,
                space=SPACE,
            )
        assert store.load_poison(key) is not None
        assert store.load(key) is None
        assert store.keys() == []


def _assert_holds_only_kernel_opt(entry):
    """The entry holds the kernel it serves and nothing else, naming both hashes."""
    assert entry.meta["artifacts"] == ["kernel_opt"]
    assert list(entry.artifacts) == ["kernel_opt"]
    hashes = entry.meta["kernel_hashes"]
    assert set(hashes) == {"kernel", "kernel_opt"}
    assert hashes["kernel"] != hashes["kernel_opt"]
    assert kernel_hash(entry.artifacts["kernel_opt"]) == hashes["kernel_opt"]


class TestEntryHoldsOnlyTheServedKernel:
    def test_tuned_entry_stores_kernel_opt_and_both_hashes(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        built = get_kernel(
            "tile_sgemm", TINY, fermi, store=store, tune=True, warm_start=False,
            space=SPACE,
        )
        assert built.entry.meta["tune_mode"] == "sweep"
        _assert_holds_only_kernel_opt(built.entry)
        clear_schedule_caches()
        hit = get_kernel("tile_sgemm", TINY, fermi, store=store, tune=True)
        assert hit.source == "hit"
        _assert_holds_only_kernel_opt(hit.entry)

    def test_direct_entry_stores_kernel_opt_and_both_hashes(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        built = get_kernel("tile_sgemm", TINY, fermi, store=store)
        assert built.entry.meta["tune_mode"] == "direct"
        _assert_holds_only_kernel_opt(built.entry)
        _assert_holds_only_kernel_opt(store.load(built.key))

    def test_degraded_entry_stores_kernel_opt_and_both_hashes(self, tmp_path, fermi):
        from repro.faults import FaultPlan, FaultRule
        from repro.kcache import clear_session_store

        clear_session_store()
        plan = FaultPlan([FaultRule(sites="kcache.locks.claim", kind="erofs", times=None)])
        try:
            with session(faults=plan):
                degraded = get_kernel(
                    "tile_sgemm", TINY, fermi, store=KernelStore(tmp_path / "kcache"),
                    timeout=30,
                )
        finally:
            clear_session_store()
        assert degraded.source == "degraded"
        _assert_holds_only_kernel_opt(degraded.entry)

    def test_entry_holding_both_kernels_serves_the_optimized_one(self, tmp_path, fermi):
        """Entries written before the payload held one kernel still serve."""
        from repro.kernels.registry import get_workload

        workload = get_workload("tile_sgemm")
        naive = workload.generate_naive(TINY)
        optimized, _ = workload.generate_optimized(TINY, fermi)
        store = KernelStore(tmp_path / "kcache")
        key = routine_key("tile_sgemm", TINY, fermi.name)
        store.put(
            key, kind="tuned", workload="tile_sgemm", gpu=fermi.name, config=TINY,
            artifacts={"proc": workload.cached_scheduled_proc(TINY),
                       "kernel": naive, "kernel_opt": optimized},
            kernel_hashes={"kernel": kernel_hash(naive),
                           "kernel_opt": kernel_hash(optimized)},
            metrics={"cycles": 1.0},
        )
        reply = get_kernel("tile_sgemm", TINY, fermi, store=store)
        assert reply.source == "hit"
        assert kernel_hash(reply.kernel) == kernel_hash(optimized)
