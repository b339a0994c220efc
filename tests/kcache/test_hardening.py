"""Failure-path hardening of get_kernel: deadlines, retries, degradation."""

from __future__ import annotations

import errno
import time

import pytest

from repro.context import session
from repro.errors import BuildFailedError, StoreUnavailableError
from repro.faults import FaultPlan, FaultRule
from repro.kcache import (
    ClaimTimeout,
    Deadline,
    KernelStore,
    RetryPolicy,
    claim_build,
    clear_session_store,
    get_kernel,
    routine_key,
    wait_for,
)
from repro.kcache.service import _checked_build
from repro.opt.rewrite import kernel_hash
from repro.telemetry.metrics import MetricsRegistry
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches

TINY = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=1)
#: tile does not divide m/n: scheduling fails the same way every time.
DOOMED = TileSgemmConfig(m=16, n=16, k=8, tile=7, register_blocking=2, stride=2, b_window=1)


@pytest.fixture(autouse=True)
def _clean_slate():
    clear_schedule_caches()
    clear_session_store()
    yield
    clear_schedule_caches()
    clear_session_store()


class TestDeadline:
    def test_remaining_counts_down(self):
        deadline = Deadline(10.0)
        assert 9.0 < deadline.remaining() <= 10.0
        assert not deadline.expired

    def test_check_raises_claim_timeout_when_spent(self):
        deadline = Deadline(0.0)
        assert deadline.expired
        with pytest.raises(ClaimTimeout, match="waiting on nothing"):
            deadline.check("waiting on nothing")


class TestRetryPolicy:
    def test_delay_grows_and_saturates(self):
        import random

        policy = RetryPolicy(backoff_s=0.01, multiplier=2.0, max_backoff_s=0.04,
                             jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04]

    def test_jitter_is_bounded(self):
        import random

        policy = RetryPolicy(backoff_s=0.01, jitter=0.25)
        rng = random.Random(0)
        for attempt in range(8):
            delay = policy.delay(attempt, rng)
            base = min(policy.backoff_s * policy.multiplier**attempt,
                       policy.max_backoff_s)
            assert base <= delay <= base * 1.25


class TestSingleDeadline:
    def test_request_cannot_overstay_its_budget(self, tmp_path):
        """Satellite regression: the wait budget must not re-arm per cycle."""
        store = KernelStore(tmp_path / "kcache")
        key = routine_key("tile_sgemm", TINY, "gtx580")
        held = claim_build(store.lock_path(key))  # a live, wedged builder
        assert held is not None
        started = time.monotonic()
        with pytest.raises(ClaimTimeout):
            get_kernel("tile_sgemm", TINY, store=store, timeout=0.3)
        elapsed = time.monotonic() - started
        assert 0.3 <= elapsed < 1.5  # one budget, not one per re-contend cycle
        held.release()


class TestRetries:
    def test_transient_claim_errors_retry_to_a_durable_build(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        registry = MetricsRegistry()
        plan = FaultPlan([FaultRule(sites="kcache.locks.claim", kind="eio", times=2)])
        with session(faults=plan, metrics=registry):
            reply = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
        assert reply.source == "built"
        assert reply.durable
        assert registry.snapshot().counter_total("kcache.retries") == 2

    def test_checked_build_types_exhausted_transients(self, tmp_path):
        """Persistent transient errors surface as StoreUnavailableError."""
        import random

        from repro.kcache.service import DEFAULT_RETRY

        store = KernelStore(tmp_path / "kcache")

        def builder():
            raise OSError(errno.EIO, "injected", "path")

        with pytest.raises(StoreUnavailableError) as excinfo:
            _checked_build(
                builder, store, "some_key",
                RetryPolicy(attempts=2, backoff_s=0.001),
                random.Random(0), Deadline(5.0), 60.0,
            )
        assert excinfo.value.key == "some_key"
        assert isinstance(excinfo.value.cause, OSError)
        assert store.load_poison("some_key") is None  # transient ≠ poisoned
        assert DEFAULT_RETRY.attempts >= 1


class TestDegradation:
    def test_read_only_claims_degrade_to_session_store(self, tmp_path):
        """EROFS at the claim site: build anyway, serve from memory."""
        store = KernelStore(tmp_path / "kcache")
        registry = MetricsRegistry()
        plan = FaultPlan([FaultRule(sites="kcache.locks.claim", kind="erofs", times=None)])
        with session(faults=plan, metrics=registry):
            reply = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
        assert reply.source == "degraded"
        assert not reply.durable
        assert reply.kernel is not None
        snapshot = registry.snapshot()
        assert snapshot.counter_total("kcache.degraded") == 1
        assert snapshot.counter_total("kcache.builds") == 1

    def test_degraded_entries_are_reused_not_rebuilt(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        registry = MetricsRegistry()
        plan = FaultPlan([FaultRule(sites="kcache.locks.claim", kind="erofs", times=None)])
        with session(faults=plan):
            first = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
            with session(metrics=registry):
                second = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
        assert second.source == "degraded"
        assert second.build_s == 0.0
        assert second.entry is first.entry
        assert registry.snapshot().counter_total("kcache.builds") == 0

    def test_degraded_kernel_is_bit_exact(self, tmp_path):
        """The degraded rung serves the same kernel a durable build would."""
        durable = get_kernel("tile_sgemm", TINY,
                             store=KernelStore(tmp_path / "a"), timeout=30)
        clear_schedule_caches()
        clear_session_store()
        plan = FaultPlan([FaultRule(sites="kcache.locks.claim", kind="erofs", times=None)])
        with session(faults=plan):
            degraded = get_kernel("tile_sgemm", TINY,
                                  store=KernelStore(tmp_path / "b"), timeout=30)
        assert kernel_hash(degraded.kernel) == kernel_hash(durable.kernel)

    def test_failed_publish_serves_the_built_kernel_degraded(self, tmp_path):
        """A read-only store discovered at publish must not waste the build."""
        store = KernelStore(tmp_path / "kcache")
        plan = FaultPlan(
            [FaultRule(sites="kcache.store.payload.write", kind="erofs", times=None)]
        )
        with session(faults=plan):
            reply = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
        assert reply.source == "degraded"
        assert not reply.durable
        assert not reply.entry.meta["durable"]
        assert reply.kernel is not None
        assert store.load(reply.key) is None  # nothing durable landed


class TestPoisonedKeys:
    def test_deterministic_build_failure_poisons_the_key(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        with pytest.raises(BuildFailedError) as excinfo:
            get_kernel("tile_sgemm", DOOMED, store=store, timeout=30)
        key = routine_key("tile_sgemm", DOOMED, "gtx580")
        assert excinfo.value.key == key
        assert store.load_poison(key) is not None

    def test_poisoned_key_fails_fast(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        with pytest.raises(BuildFailedError):
            get_kernel("tile_sgemm", DOOMED, store=store, timeout=30)
        started = time.perf_counter()
        registry = MetricsRegistry()
        with session(metrics=registry):
            with pytest.raises(BuildFailedError, match="poisoned"):
                get_kernel("tile_sgemm", DOOMED, store=store, timeout=30)
        assert time.perf_counter() - started < 0.5
        assert registry.snapshot().counter_total("kcache.poison.hits") == 1

    def test_poison_expires_after_its_ttl(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        key = routine_key("tile_sgemm", TINY, "gtx580")
        assert store.mark_poisoned(key, "transient outage", ttl_s=0.05)
        time.sleep(0.1)
        reply = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
        assert reply.source == "built"  # the poison expired; the key healed
        assert store.load_poison(key) is None

    def test_successful_publish_clears_poison(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        key = routine_key("tile_sgemm", TINY, "gtx580")
        assert store.mark_poisoned(key, "stale verdict", ttl_s=3600.0)
        store.clear_poison(key)
        reply = get_kernel("tile_sgemm", TINY, store=store, timeout=30)
        assert reply.source == "built"

    def test_unwritable_store_poisons_in_process(self, tmp_path):
        """When the marker cannot land on disk, this process still remembers."""
        store = KernelStore(tmp_path / "kcache")
        plan = FaultPlan([FaultRule(sites="kcache.store.poison.*", kind="erofs", times=None)])
        with session(faults=plan):
            with pytest.raises(BuildFailedError):
                get_kernel("tile_sgemm", DOOMED, store=store, timeout=30)
            key = routine_key("tile_sgemm", DOOMED, "gtx580")
            assert store.load_poison(key) is None  # nothing durable landed
            with pytest.raises(BuildFailedError, match="poisoned"):
                get_kernel("tile_sgemm", DOOMED, store=store, timeout=30)


class TestClaimNonce:
    def test_release_does_not_unlink_a_reclaimed_lock(self, tmp_path):
        """Satellite regression: release after a stale-break must be a no-op."""
        import json
        import os

        path = tmp_path / "key.lock"
        original = claim_build(path)
        assert original is not None and original.nonce
        # Another process breaks the claim as stale and re-claims it.
        payload = json.loads(path.read_text())
        payload["pid"] = 4194303  # long dead
        path.write_text(json.dumps(payload))
        old = time.time() - 10.0
        os.utime(path, (old, old))
        stolen = claim_build(path, stale_after=3600.0)
        assert stolen is not None and stolen.nonce != original.nonce
        original.release()  # stale holder comes back: must not unlink
        assert path.exists()
        assert claim_build(path) is None  # the new claim still holds the key
        stolen.release()
        assert not path.exists()

    def test_release_failure_leaves_claim_for_stale_breaking(self, tmp_path):
        path = tmp_path / "key.lock"
        claim = claim_build(path)
        assert claim is not None
        with session(faults=FaultPlan([FaultRule(sites="kcache.locks.release", kind="eio")])):
            claim.release()  # injected failure: the unlink never happens
        assert path.exists()
        claim.release()
        assert not path.exists()


class TestWaitForRaces:
    def test_final_read_catches_publish_between_probe_and_claim_check(self, tmp_path):
        """Satellite coverage: the builder publishes in the probe window."""
        path = tmp_path / "key.lock"  # claim already gone
        reads = {"count": 0}

        def ready():
            reads["count"] += 1
            # None on the first probe; the entry "lands" before the final read.
            return "entry" if reads["count"] > 1 else None

        assert wait_for(ready, path, timeout=1.0) == "entry"
        assert reads["count"] == 2

    def test_dead_builder_without_entry_returns_none(self, tmp_path):
        assert wait_for(lambda: None, tmp_path / "key.lock", timeout=1.0) is None

    def test_live_builder_that_never_publishes_times_out(self, tmp_path):
        path = tmp_path / "key.lock"
        claim = claim_build(path)
        with pytest.raises(ClaimTimeout):
            wait_for(lambda: None, path, timeout=0.15, poll_s=0.02)
        claim.release()


class TestDoctor:
    def test_doctor_reports_and_repairs_damage(self, tmp_path):
        import os

        store = KernelStore(tmp_path / "kcache")
        store.put("good", kind="build", artifacts={"x": b"ok"})
        store.put("torn", kind="build", artifacts={"x": b"damaged"})
        payload = store.payload_path("torn")
        payload.write_bytes(payload.read_bytes()[:3])
        orphan = store.payload_path("orphan")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"zz")
        tmp = store.meta_path("good").with_name("x.json.tmp-99")
        tmp.write_bytes(b"zz")
        lock = store.lock_path("stale")
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text('{"pid": 4194303, "host": "%s"}' % os.uname().nodename)
        os.utime(lock, (0, 0))

        report = store.doctor()
        assert not report.clean
        assert report.ok == ("good",)
        assert "torn" in report.torn
        assert report.orphan_payloads == ("orphan",)
        assert report.tmp_files == 1
        assert report.stale_claims == 1

        repaired = store.doctor(repair=True)
        assert repaired.clean
        assert {"torn", "orphan", "stale"} <= set(repaired.repaired)
        assert store.doctor().clean
        assert store.load("good") is not None  # repair never touches the healthy

    def test_doctor_leaves_live_claims_alone(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        key = routine_key("tile_sgemm", TINY, "gtx580")
        claim = claim_build(store.lock_path(key))
        report = store.doctor(repair=True)
        assert report.live_claims == 1
        assert store.lock_path(key).exists()
        claim.release()
