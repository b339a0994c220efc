"""In-flight dedupe: N concurrent requesters of one cold key, one build."""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.context import session
from repro.faults import FaultPlan, FaultRule
from repro.kcache import claim_build, wait_for
from repro.kcache.locks import ClaimTimeout
from repro.tile.workloads import TileSgemmConfig

TINY = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=1)


def _request_tiny(root: str):
    """Pool worker: one get_kernel request against a shared store root."""
    from repro.kcache import KernelStore, get_kernel
    from repro.tile.workloads import clear_schedule_caches

    clear_schedule_caches()  # forked memos must not mask the store
    reply = get_kernel("tile_sgemm", TINY, "gtx580", store=KernelStore(root))
    digest = reply.entry.meta["kernel_hashes"].get("kernel_opt", "")
    return reply.source, digest, reply.cycles


class TestCrossProcessDedupe:
    def test_pool_hammering_one_cold_key_builds_once(self, tmp_path):
        """Exactly one sweep across the pool; everyone gets the same kernel."""
        root = str(tmp_path / "kcache")
        with multiprocessing.Pool(processes=4) as pool:
            results = pool.map(_request_tiny, [root] * 8)
        sources = [source for source, _, _ in results]
        assert sources.count("built") == 1, sources
        assert all(source in {"built", "deduped", "hit"} for source in sources)
        digests = {digest for _, digest, _ in results}
        assert len(digests) == 1 and digests != {""}
        cycles = {cycles for _, _, cycles in results}
        assert len(cycles) == 1

    def test_warm_store_serves_every_process_without_building(self, tmp_path):
        root = str(tmp_path / "kcache")
        _request_tiny(root)  # publish once, in this process
        with multiprocessing.Pool(processes=2) as pool:
            results = pool.map(_request_tiny, [root] * 4)
        assert all(source == "hit" for source, _, _ in results)


class TestClaims:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        path = tmp_path / "key.lock"
        claim = claim_build(path)
        assert claim is not None
        assert claim_build(path) is None  # held
        claim.release()
        again = claim_build(path)
        assert again is not None
        again.release()

    def test_stale_claim_of_dead_pid_is_broken(self, tmp_path):
        path = tmp_path / "key.lock"
        claim = claim_build(path)
        assert claim is not None
        # Rewrite the claim as if a long-dead process held it.
        path.write_text(
            '{"pid": 4194303, "host": "%s", "created_at": 0}' % os.uname().nodename
        )
        old = time.time() - 10.0
        os.utime(path, (old, old))
        stolen = claim_build(path, stale_after=3600.0)  # pid check, not age
        assert stolen is not None
        stolen.release()

    def test_old_claim_is_broken_by_age(self, tmp_path):
        """Another live process's claim dies of age; this process's own
        claims are judged by the nonces it holds instead (see below)."""
        path = tmp_path / "key.lock"
        first = claim_build(path)
        assert first is not None
        # Rewrite the claim as if a live process on this host held it.
        payload = json.loads(path.read_text())
        payload["pid"] = os.getppid()
        path.write_text(json.dumps(payload))
        old = time.time() - 120.0
        os.utime(path, (old, old))
        second = claim_build(path, stale_after=60.0)
        assert second is not None
        first.release()  # the file now carries the second claim's nonce
        assert path.exists()
        second.release()

    def test_own_live_claim_outlives_its_age(self, tmp_path):
        path = tmp_path / "key.lock"
        first = claim_build(path)
        assert first is not None
        old = time.time() - 120.0
        os.utime(path, (old, old))
        assert claim_build(path, stale_after=60.0) is None  # still held here
        first.release()
        assert not path.exists()

    def test_own_released_claim_left_behind_is_dead_here(self, tmp_path):
        """A claim whose release could not unlink it is no longer held, so
        this process breaks it at once instead of waiting out its age."""
        path = tmp_path / "key.lock"
        first = claim_build(path)
        with session(faults=FaultPlan([FaultRule(sites="kcache.locks.release", kind="eio")])):
            first.release()
        assert path.exists()
        second = claim_build(path, stale_after=3600.0)
        assert second is not None and second.nonce != first.nonce
        second.release()
        assert not path.exists()

    def test_wait_for_returns_value_when_builder_publishes(self, tmp_path):
        path = tmp_path / "key.lock"
        claim = claim_build(path)
        box = {"value": None}

        def ready():
            return box["value"]

        box["value"] = "published"
        assert wait_for(ready, path, timeout=1.0) == "published"
        claim.release()

    def test_wait_for_detects_dead_builder(self, tmp_path):
        """A vanished claim without an entry returns None: re-contend."""
        path = tmp_path / "key.lock"  # never created
        assert wait_for(lambda: None, path, timeout=1.0) is None

    def test_wait_for_times_out_on_a_wedged_live_builder(self, tmp_path):
        path = tmp_path / "key.lock"
        claim = claim_build(path)  # held by this live process, never released
        with pytest.raises(ClaimTimeout):
            wait_for(lambda: None, path, timeout=0.2, poll_s=0.02)
        claim.release()
