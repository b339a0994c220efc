"""Seeded chaos: random fault schedules with machine-checked invariants.

The contract under any schedule drawn from :func:`repro.faults.random_plan`:

* every request returns a **bit-exact** kernel (hash-pinned against a golden
  build that was validated once against the NumPy oracle) or raises a typed
  :class:`repro.errors.KernelCacheError` — never a silently wrong kernel;
* with no destructive fault fired, at most one durable build happens per
  key; destructive faults (torn writes, injected read errors, crashes) may
  each cost one rebuild, never correctness;
* after the schedule, the store self-heals: a fault-free request serves the
  golden kernel and ``doctor --repair`` leaves the store clean.

Schedules replay from one integer — a failing seed is a one-line repro.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.context import session
from repro.errors import KernelCacheError
from repro.faults import (
    ABORT_EXIT_STATUS,
    DESTRUCTIVE_KINDS,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    random_plan,
)
from repro.kcache import KernelStore, clear_session_store, get_kernel
from repro.opt.rewrite import kernel_hash
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches

TINY = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=1)

#: Concurrent requesters per schedule.
THREADS = 3
#: Claims go stale fast so crash-orphaned claims cost ~a second, not minutes.
STALE_AFTER_S = 0.75
#: Per-request deadline: generous against injected delays, bounded for CI.
TIMEOUT_S = 8.0
#: The acceptance floor: total faults injected across the sweep.
MIN_INJECTED = 200
#: Schedule seeds to draw from (the sweep stops early once past the floor).
MAX_SEEDS = 160


@pytest.fixture(autouse=True)
def _clean_slate():
    clear_session_store()
    yield
    clear_session_store()


@pytest.fixture(scope="module")
def golden_hash(tmp_path_factory):
    """Hash of the one true kernel, validated once against the NumPy oracle.

    Every chaos reply is pinned against this hash; hash equality makes each
    of them transitively oracle-exact without re-simulating per reply.
    """
    from repro.arch.specs import get_gpu_spec
    from repro.kernels.base import run_workload
    from repro.kernels.registry import get_workload

    clear_schedule_caches()
    store = KernelStore(tmp_path_factory.mktemp("golden"))
    reply = get_kernel("tile_sgemm", TINY, store=store, timeout=60)
    digest = kernel_hash(reply.kernel)
    run = run_workload(
        get_gpu_spec("gtx580"), get_workload("tile_sgemm"), TINY, optimized=True,
    )
    assert kernel_hash(run.kernel) == digest
    return digest


def _request(store, results, index):
    """One requester thread: record a reply, a typed error, or a breach."""
    try:
        reply = get_kernel(
            "tile_sgemm", TINY, store=store,
            timeout=TIMEOUT_S, stale_after=STALE_AFTER_S,
        )
        results[index] = ("reply", reply)
    except InjectedCrash:
        results[index] = ("crash", None)  # simulated death, not an answer
    except KernelCacheError as error:
        results[index] = ("error", error)
    except BaseException as error:  # noqa: BLE001 - the invariant breach bucket
        results[index] = ("breach", error)


def _run_schedule(root, seed):
    """Hammer one fresh store under one seeded schedule."""
    store = KernelStore(root / f"seed{seed}")
    plan = random_plan(seed)
    results = [None] * THREADS
    with session(faults=plan):  # one process-wide plan: every thread sees it
        threads = [
            threading.Thread(target=_request, args=(store, results, index))
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    assert all(result is not None for result in results), f"seed {seed}: hung thread"
    return store, plan, results


class TestChaosSchedules:
    def test_random_schedules_hold_the_invariants(self, tmp_path, golden_hash):
        total_injected = 0
        schedules_run = 0
        for seed in range(MAX_SEEDS):
            store, plan, results = _run_schedule(tmp_path, seed)
            schedules_run += 1
            destructive = plan.fired_count(*DESTRUCTIVE_KINDS)
            built = 0
            for tag, value in results:
                assert tag != "breach", f"seed {seed}: untyped failure {value!r}"
                if tag == "error":
                    assert isinstance(value, KernelCacheError)
                elif tag == "reply":
                    assert value.source in {"hit", "built", "deduped", "degraded"}
                    assert kernel_hash(value.kernel) == golden_hash, (
                        f"seed {seed}: served a wrong kernel via {value.source}"
                    )
                    if value.source == "built":
                        built += 1
            # One durable build per key — a destructive fault may cost one
            # rebuild each (a torn entry is discarded, never served).
            assert built <= 1 + destructive, (
                f"seed {seed}: {built} builds for {destructive} destructive faults"
            )
            # Self-healing: with faults off, the next request is golden and
            # a repair pass leaves nothing torn, orphaned or stale behind.
            clear_session_store()
            recovered = get_kernel("tile_sgemm", TINY, store=store, timeout=60,
                                   stale_after=STALE_AFTER_S)
            assert kernel_hash(recovered.kernel) == golden_hash
            store.doctor(repair=True)
            assert store.doctor().clean, f"seed {seed}: store unclean after repair"
            total_injected += plan.fired_count()
            if total_injected >= MIN_INJECTED and schedules_run >= 24:
                break
        assert total_injected >= MIN_INJECTED, (
            f"only {total_injected} faults injected across {schedules_run} schedules"
        )

    def test_torn_publish_costs_a_rebuild_never_a_wrong_kernel(self, tmp_path,
                                                               golden_hash):
        store = KernelStore(tmp_path / "kcache")
        plan = FaultPlan([
            FaultRule(sites="kcache.store.payload.write", kind="torn", torn_keep=0.5),
        ])
        with session(faults=plan):
            first = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
        # The builder's reply came from its in-memory artifacts: golden.
        assert first.source == "built"
        assert kernel_hash(first.kernel) == golden_hash
        # What landed on disk is torn; the next request detects, discards
        # and rebuilds instead of serving the damage.
        assert store.verify(first.key) is not None
        second = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
        assert second.source == "built"
        assert kernel_hash(second.kernel) == golden_hash
        assert store.verify(second.key) is None
        assert store.doctor().clean


def _slow_builds(monkeypatch, seconds):
    """Make every build of the kernel service take ``seconds`` longer."""
    import repro.kcache.service as service

    build = service._build

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return build(*args, **kwargs)

    monkeypatch.setattr(service, "_build", slow)


def _race(store):
    """``THREADS`` concurrent requests; the sources of their replies."""
    results = [None] * THREADS
    threads = [
        threading.Thread(target=_request, args=(store, results, index))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert [tag for tag, _ in results] == ["reply"] * THREADS, results
    return [reply for _, reply in results]


class TestLiveClaims:
    """A live builder keeps its claim: neither its age nor a failed read of
    its claim lets a requester in the same process build the key again."""

    def test_a_build_slower_than_stale_after_builds_once(self, tmp_path, golden_hash,
                                                         monkeypatch):
        _slow_builds(monkeypatch, 2 * STALE_AFTER_S)
        replies = _race(KernelStore(tmp_path / "kcache"))
        assert sorted(reply.source for reply in replies).count("built") == 1
        assert {reply.source for reply in replies} <= {"built", "deduped", "hit"}
        assert {kernel_hash(reply.kernel) for reply in replies} == {golden_hash}

    def test_a_failed_claim_read_breaks_no_live_claim(self, tmp_path, golden_hash,
                                                      monkeypatch):
        _slow_builds(monkeypatch, 0.5)
        plan = FaultPlan([FaultRule(sites="kcache.locks.read", kind="eio")])
        with session(faults=plan):
            replies = _race(KernelStore(tmp_path / "kcache"))
        assert plan.fired_count("eio") == 1
        assert sorted(reply.source for reply in replies).count("built") == 1
        assert {kernel_hash(reply.kernel) for reply in replies} == {golden_hash}


def _abort_builder(root, site):
    """Child process: die with ``os._exit`` at ``site`` mid-build."""
    plan = FaultPlan([FaultRule(sites=site, kind="abort")], allow_abort=True)
    try:
        with session(faults=plan):
            get_kernel("tile_sgemm", TINY, store=KernelStore(root), timeout=30)
    except BaseException:  # noqa: BLE001 - any survival is a wrong exit code
        os._exit(1)
    os._exit(0)


class TestCrashRecovery:
    @pytest.mark.parametrize("site", [
        "kcache.store.meta.commit",      # died before the commit marker
        "kcache.store.payload.commit",   # died before the payload landed
    ])
    def test_builder_killed_before_commit_leaves_a_recoverable_store(
        self, tmp_path, golden_hash, site,
    ):
        root = tmp_path / "kcache"
        worker = multiprocessing.Process(target=_abort_builder, args=(root, site))
        worker.start()
        worker.join(timeout=120.0)
        assert worker.exitcode == ABORT_EXIT_STATUS  # it really died mid-commit
        store = KernelStore(root)
        assert store.load("missing-proof") is None  # nothing half-served
        # The dead builder's claim is broken (dead pid), the key rebuilds.
        reply = get_kernel("tile_sgemm", TINY, store=store, timeout=60,
                           stale_after=30.0)
        assert reply.source == "built"
        assert kernel_hash(reply.kernel) == golden_hash
        store.doctor(repair=True)
        assert store.doctor().clean

    def test_builder_killed_after_commit_left_a_servable_entry(
        self, tmp_path, golden_hash,
    ):
        root = tmp_path / "kcache"
        worker = multiprocessing.Process(
            target=_abort_builder, args=(root, "kcache.store.meta.committed"),
        )
        worker.start()
        worker.join(timeout=120.0)
        assert worker.exitcode == ABORT_EXIT_STATUS
        reply = get_kernel("tile_sgemm", TINY, store=KernelStore(root), timeout=60,
                           stale_after=30.0)
        assert reply.source == "hit"  # the entry committed before the death
        assert kernel_hash(reply.kernel) == golden_hash
