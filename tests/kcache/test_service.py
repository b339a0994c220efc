"""The get_kernel front-end: hits do no work, misses build-and-publish."""

from __future__ import annotations

import pytest

from repro.kcache import KernelStore, get_kernel, install_store, routine_key, store_session
from repro.opt.rewrite import kernel_hash
from repro.telemetry.metrics import metrics_session
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches

TINY = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=1)


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
        assert reply.proc is not None
        assert reply.kernel is reply.entry.artifacts["kernel_opt"]
        assert reply.cycles is not None and reply.cycles > 0
        assert store.load(reply.key) is not None
        # The entry carries what the warm-start policy needs.
        assert reply.entry.meta["winner_schedule"]["tile"] == 8
        assert reply.entry.meta["shape"] == [["m", 16], ["n", 16], ["k", 8]]

    def test_miss_counters_fire(self, tmp_path, fermi):
        store = KernelStore(tmp_path / "kcache")
        with metrics_session() as registry:
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
        with metrics_session() as registry:
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
        with store_session(tmp_path / "kcache") as store:
            built = get_kernel("tile_sgemm", TINY, fermi)
            assert built.source == "built"
            assert store.load(built.key) is not None
            assert get_kernel("tile_sgemm", TINY, fermi).source == "hit"
        assert install_store(None) is None  # session restored the previous store


class TestMemoStoreTier:
    def test_installed_store_keeps_only_the_tuned_entry(self, tmp_path, fermi):
        """The kernel store is the only durable tier: the schedule memos a
        tuned build runs through publish nothing of their own."""
        space = {"tiles": (4, 8), "register_blockings": (2, 4),
                 "strides": (2, 4), "b_windows": (1, 2)}
        with store_session(tmp_path / "kcache") as store:
            reply = get_kernel("tile_sgemm", TINY, fermi, tune=True, space=space)
        assert reply.source == "built"
        assert store.keys() == [reply.key]
        assert store.stats().by_kind == {"tuned": 1}

    def test_without_a_store_memos_behave_as_before(self, fermi):
        from repro.kernels.registry import get_workload

        workload = get_workload("tile_sgemm")
        with metrics_session() as registry:
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
