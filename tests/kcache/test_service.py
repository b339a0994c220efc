"""The get_kernel front-end: hits do no work, misses build-and-publish."""

from __future__ import annotations

import dataclasses

import pytest

from repro.context import current, session
from repro.kcache import KernelStore, get_kernel, routine_key
from repro.opt.rewrite import kernel_hash
from repro.prof.trace import Tracer
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
        registry, tracer = MetricsRegistry(), Tracer()
        with session(metrics=registry, tracer=tracer):
            reply = get_kernel("tile_sgemm", TINY, fermi, store=store)
        assert reply.source == "hit"
        snapshot = registry.snapshot()
        assert snapshot.counter_total("kcache.hits") == 1
        assert snapshot.counter_total("kcache.builds") == 0
        # No schedule application, no lowering, no simulation happened:
        spans = [event.name for event in tracer.events]
        assert not [name for name in spans if name.startswith(("schedule.", "lower."))]
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


class TestCacheTiers:
    def test_installed_store_keeps_only_the_tuned_entry(self, tmp_path, fermi):
        """The kernel store is the only durable tier: the decomposition cache
        a tuned build runs through publishes nothing of its own."""
        space = {"tiles": (4, 8), "register_blockings": (2, 4),
                 "strides": (2, 4), "b_windows": (1, 2)}
        store = KernelStore(tmp_path / "kcache")
        with session(store=store):
            reply = get_kernel("tile_sgemm", TINY, fermi, tune=True, space=space)
        assert reply.source == "built"
        assert store.keys() == [reply.key]
        assert store.stats().by_kind == {"tuned": 1}

    def test_without_a_store_only_the_decomposition_cache_serves(self, fermi):
        from repro.kernels.registry import get_workload
        from repro.tile.library import decompose_sgemm

        workload = get_workload("tile_sgemm")
        registry = MetricsRegistry()
        with session(metrics=registry):
            workload.generate_naive(TINY)
            workload.generate_naive(TINY)
        info = decompose_sgemm.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        snapshot = registry.snapshot()
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


def _recording_sweeps(monkeypatch) -> list:
    """Every sweep report a tuned build makes, in order."""
    import repro.tile.autotune as tile_autotune

    sweeps = []
    sweep = tile_autotune.run_generative_sweep

    def recording_sweep(*args, **kwargs):
        sweeps.append(sweep(*args, **kwargs))
        return sweeps[-1]

    monkeypatch.setattr(tile_autotune, "run_generative_sweep", recording_sweep)
    return sweeps


class TestTunedBuildPublishesTheSweepMeasurement:
    def test_winner_is_not_simulated_again(self, tmp_path, fermi, monkeypatch):
        """Every simulation of a cold tuned build is a sweep evaluation of a
        distinct naive kernel, and the published figures are the winner's
        own run."""
        import repro.opt.autotune as autotune

        runs = []
        simulate = autotune.simulate_one_block

        def recording(gpu, kernel, **kwargs):
            result = simulate(gpu, kernel, **kwargs)
            runs.append((kernel_hash(kernel), result))
            return result

        monkeypatch.setattr(autotune, "simulate_one_block", recording)
        sweeps = _recording_sweeps(monkeypatch)
        reply = get_kernel(
            "tile_sgemm", TINY, fermi, store=KernelStore(tmp_path / "kcache"),
            tune=True, warm_start=False, space=SPACE,
        )
        (report,) = sweeps
        metrics = reply.entry.meta["metrics"]
        naive_kernels = {outcome.naive_kernel_hash for outcome in report.outcomes}
        # This space holds repeats (b_window 1 and 2 lower alike), so the
        # count below is below the row count.
        assert len(naive_kernels) < len(report.outcomes)
        assert len(runs) == len(naive_kernels)
        # The entry reports the simulations that ran, not the rows.
        assert metrics["sweep_simulated"] == report.simulated == len(runs)
        assert len({digest for digest, _ in runs}) == len(runs)
        winner = reply.entry.meta["kernel_hashes"]["kernel_opt"]
        result = next(result for digest, result in runs if digest == winner)
        assert metrics["cycles"] == result.cycles
        assert metrics["gflops"] == result.gflops(fermi)
        assert metrics["efficiency"] == result.efficiency(fermi)

    def test_each_simulated_candidate_is_built_once(self, tmp_path, fermi, monkeypatch):
        """The winner is published as measured: every leaderboard row is
        lowered once, each distinct naive kernel is optimized once, and
        nothing, the winner included, is lowered or optimized again."""
        import repro.opt.pipeline as pipeline
        import repro.tile.workloads as tile_workloads

        calls = {"lower": 0, "optimize": 0}
        lower, optimize = tile_workloads.lower, pipeline.optimize_kernel

        def counting_lower(*args, **kwargs):
            calls["lower"] += 1
            return lower(*args, **kwargs)

        def counting_optimize(*args, **kwargs):
            calls["optimize"] += 1
            return optimize(*args, **kwargs)

        monkeypatch.setattr(tile_workloads, "lower", counting_lower)
        monkeypatch.setattr(pipeline, "optimize_kernel", counting_optimize)
        sweeps = _recording_sweeps(monkeypatch)
        reply = get_kernel(
            "tile_sgemm", TINY, fermi, store=KernelStore(tmp_path / "kcache"),
            tune=True, warm_start=False, space=SPACE,
        )
        (report,) = sweeps
        simulated = reply.entry.meta["metrics"]["sweep_simulated"]
        rows = len(report.outcomes)
        distinct = len({outcome.naive_kernel_hash for outcome in report.outcomes})
        assert simulated == distinct < rows
        assert calls == {"lower": rows, "optimize": distinct}

        winner = report.outcomes[0]
        hashes = reply.entry.meta["kernel_hashes"]
        assert kernel_hash(reply.kernel) == hashes["kernel_opt"] == winner.kernel_hash
        assert hashes["kernel"] == winner.naive_kernel_hash
        naive = tile_workloads.TILE_SGEMM.generate_naive(winner.candidate.config)
        assert hashes["kernel"] == kernel_hash(naive)
        # Only the winner keeps its kernel, and no view of an outcome shows one.
        assert [o.kernel is not None for o in report.outcomes] == [True] + [False] * (
            len(report.outcomes) - 1
        )
        assert "kernel" not in winner.as_dict()
        assert dataclasses.replace(winner, kernel=None) == winner


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
            artifacts={"proc": workload.scheduled_proc(TINY),
                       "kernel": naive, "kernel_opt": optimized},
            kernel_hashes={"kernel": kernel_hash(naive),
                           "kernel_opt": kernel_hash(optimized)},
            metrics={"cycles": 1.0},
        )
        reply = get_kernel("tile_sgemm", TINY, fermi, store=store)
        assert reply.source == "hit"
        assert kernel_hash(reply.kernel) == kernel_hash(optimized)
