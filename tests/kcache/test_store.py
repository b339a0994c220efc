"""Store durability: bit-exact round trips, torn-entry recovery, gc economics."""

from __future__ import annotations

import gc
import json

import pytest

from repro.context import session
from repro.kcache import KernelStore, routine_key
from repro.opt.autotune import simulate_one_block
from repro.opt.rewrite import kernel_hash
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches


TINY = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=1)


def _fresh_build(workload, spec):
    """Schedule + lower + optimize with no store involved."""
    clear_schedule_caches()
    naive = workload.generate_naive(TINY)
    optimized, _ = workload.generate_optimized(TINY, spec)
    return naive, optimized


@pytest.mark.parametrize("gpu_fixture", ["fermi", "kepler"])
def test_round_trip_is_bit_exact(gpu_fixture, request, tmp_path):
    """A reloaded entry hashes and simulates identically to a fresh build."""
    from repro.kernels.registry import get_workload

    spec = request.getfixturevalue(gpu_fixture)
    workload = get_workload("tile_sgemm")
    naive, optimized = _fresh_build(workload, spec)
    reference = simulate_one_block(spec, optimized)

    store = KernelStore(tmp_path / "kcache")
    key = routine_key("tile_sgemm", TINY, spec.name)
    store.put(
        key,
        kind="tuned",
        artifacts={"kernel": naive, "kernel_opt": optimized},
        workload="tile_sgemm",
        gpu=spec.name,
        config=TINY,
    )
    entry = store.load(key)
    assert entry is not None
    assert kernel_hash(entry.artifacts["kernel"]) == kernel_hash(naive)
    assert kernel_hash(entry.artifacts["kernel_opt"]) == kernel_hash(optimized)
    assert entry.artifacts["kernel_opt"].encoded == optimized.encoded
    replayed = simulate_one_block(spec, entry.artifacts["kernel_opt"])
    assert replayed.cycles == reference.cycles


class TestTornEntries:
    def _published(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        key = "torn_test_key"
        store.put(key, kind="build", artifacts={"value": list(range(64))})
        return store, key

    def test_truncated_payload_is_discarded(self, tmp_path):
        store, key = self._published(tmp_path)
        payload = store.payload_path(key)
        payload.write_bytes(payload.read_bytes()[:-7])
        assert store.load(key) is None
        # Both files are gone: the next build republishes cleanly.
        assert not store.payload_path(key).exists()
        assert not store.meta_path(key).exists()

    def test_corrupted_payload_bytes_are_discarded(self, tmp_path):
        store, key = self._published(tmp_path)
        payload = store.payload_path(key)
        raw = bytearray(payload.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        payload.write_bytes(bytes(raw))
        assert store.load(key) is None

    def test_torn_meta_reads_as_absent(self, tmp_path):
        store, key = self._published(tmp_path)
        meta = store.meta_path(key)
        meta.write_text(meta.read_text()[: len(meta.read_text()) // 2])
        assert store.load_meta(key) is None
        assert store.load(key) is None

    def test_missing_payload_is_discarded(self, tmp_path):
        store, key = self._published(tmp_path)
        store.payload_path(key).unlink()
        assert store.load(key) is None
        assert not store.meta_path(key).exists()

    def test_discarded_entry_is_rebuilt(self, tmp_path, fermi):
        """The service rebuilds and republishes after a torn entry."""
        from repro.kcache import get_kernel

        store = KernelStore(tmp_path / "kcache")

        with session(store=store):
            first = get_kernel("tile_sgemm", TINY, fermi)
            assert first.source == "built"
            payload = store.payload_path(first.key)
            payload.write_bytes(payload.read_bytes()[:-3])
            clear_schedule_caches()
            second = get_kernel("tile_sgemm", TINY, fermi)
            assert second.source == "built"
            assert kernel_hash(second.kernel) == kernel_hash(first.kernel)
            assert store.load(first.key) is not None


#: ``gc.isenabled()`` as seen from inside each ``pickle.loads`` of a
#: :class:`_CollectorProbe`.
_SEEN_DURING_LOAD: list[bool] = []


def _record_collector_state() -> str:
    _SEEN_DURING_LOAD.append(gc.isenabled())
    return "probed"


def _fail_to_load():
    raise ValueError("this payload does not unpickle")


class _CollectorProbe:
    """Unpickles by recording whether the cyclic collector is running."""

    def __reduce__(self):
        return (_record_collector_state, ())


class _Unloadable:
    """Pickles fine, so its entry's checksum matches, but never unpickles."""

    def __reduce__(self):
        return (_fail_to_load, ())


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_state():
    """Restores the collector's state whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    _set_collector(was_enabled)


@pytest.mark.usefixtures("collector_state")
class TestCollectorPause:
    """``load`` pauses the cyclic collector only while it unpickles."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_restores_the_collector_state(self, tmp_path, enabled):
        store = KernelStore(tmp_path / "kcache")
        store.put("probe", kind="build", artifacts={"probe": _CollectorProbe()})
        _SEEN_DURING_LOAD.clear()
        _set_collector(enabled)
        entry = store.load("probe")
        assert gc.isenabled() is enabled
        assert entry is not None and entry.artifacts == {"probe": "probed"}
        assert _SEEN_DURING_LOAD == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_unpicklable_payload_is_discarded_and_counted(self, tmp_path, enabled):
        from repro.telemetry.metrics import MetricsRegistry

        store = KernelStore(tmp_path / "kcache")
        store.put("unloadable", kind="build", artifacts={"value": _Unloadable()})
        assert store.verify("unloadable") == "payload does not unpickle"
        registry = MetricsRegistry()
        _set_collector(enabled)
        with session(metrics=registry):
            assert store.load("unloadable") is None
        assert gc.isenabled() is enabled
        assert registry.snapshot().counter_total("kcache.store.corrupt") == 1
        assert not store.meta_path("unloadable").exists()
        assert not store.payload_path("unloadable").exists()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_verify_reports_an_unpicklable_payload_and_keeps_it(self, tmp_path, enabled):
        store = KernelStore(tmp_path / "kcache")
        store.put("unloadable", kind="build", artifacts={"value": _Unloadable()})
        _set_collector(enabled)
        assert store.verify("unloadable") == "payload does not unpickle"
        assert gc.isenabled() is enabled
        assert store.meta_path("unloadable").exists()
        assert store.payload_path("unloadable").exists()


class TestEnumeration:
    def test_keys_and_stats_see_committed_entries(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        for index in range(3):
            store.put(f"key_{index}", kind="build", artifacts={"index": index})
        store.put("tuned_key", kind="tuned", artifacts={"index": 99})
        assert store.keys() == ["key_0", "key_1", "key_2", "tuned_key"]
        stats = store.stats()
        assert stats.entries == 4
        assert stats.by_kind == {"build": 3, "tuned": 1}
        assert stats.total_bytes > 0

    def test_meta_records_payload_checksum_and_provenance(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        entry = store.put("meta_key", kind="build", artifacts={"a": 1}, workload="w")
        meta = json.loads(store.meta_path("meta_key").read_text())
        assert meta["payload_sha256"] == entry.meta["payload_sha256"]
        assert meta["payload_bytes"] == store.payload_path("meta_key").stat().st_size
        assert "python" in json.dumps(meta["provenance"]).lower() or meta["provenance"]


class TestProvenance:
    @pytest.fixture
    def git_runs(self, monkeypatch):
        """The commands provenance runs, and what git answers with
        (``answers[0]``, changeable by the test; an exception is raised)."""
        import subprocess

        from repro.telemetry import ledger

        runs: list[list[str]] = []
        answers: list[object] = ["0123abcd\n"]

        def fake_run(command, **kwargs):
            runs.append(command)
            if isinstance(answers[0], Exception):
                raise answers[0]
            return subprocess.CompletedProcess(command, 0, stdout=answers[0], stderr="")

        monkeypatch.setattr(ledger.subprocess, "run", fake_run)
        ledger._git_revision.cache_clear()
        yield runs, answers
        ledger._git_revision.cache_clear()

    def test_two_composes_read_the_git_revision_once(self, tmp_path, git_runs):
        runs, _ = git_runs
        store = KernelStore(tmp_path / "kcache")
        metas = [
            store.compose(f"key_{index}", kind="build", artifacts={"index": index})[0]
            for index in range(2)
        ]
        assert runs == [["git", "rev-parse", "HEAD"]]
        for meta in metas:
            assert meta["provenance"]["git_rev"] == "0123abcd"
            assert set(meta["provenance"]) == {"git_rev", "python", "numpy", "hostname"}

    @pytest.mark.parametrize(
        "answer", ["", FileNotFoundError("git")], ids=["no-revision", "no-git"]
    )
    def test_a_failed_read_runs_git_once(self, git_runs, answer):
        from repro.telemetry.ledger import environment_provenance

        runs, answers = git_runs
        answers[0] = answer
        assert environment_provenance()["git_rev"] == "unknown"
        assert environment_provenance()["git_rev"] == "unknown"
        assert len(runs) == 1


class TestGc:
    def test_gc_evicts_oldest_until_under_budget(self, tmp_path):
        store = KernelStore(tmp_path / "kcache")
        for index in range(4):
            entry = store.put(f"gc_key_{index}", kind="build", artifacts={"blob": b"x" * 4096})
            # Make eviction order deterministic regardless of clock resolution.
            meta = dict(entry.meta)
            meta["created_at"] = float(index)
            store.meta_path(f"gc_key_{index}").write_text(
                json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8"
            )
        total = store.stats().total_bytes
        budget = total - 1  # force at least one eviction
        report = store.gc(budget)
        assert report.evicted and report.evicted[0] == "gc_key_0"
        assert store.stats().total_bytes <= budget
        assert report.kept_bytes <= budget

    def test_gc_sweeps_stale_locks(self, tmp_path):
        import os
        import time

        store = KernelStore(tmp_path / "kcache")
        store.put("lock_key", kind="build", artifacts={})
        lock = store.lock_path("lock_key")
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text("{}")
        old = time.time() - 3600
        os.utime(lock, (old, old))
        report = store.gc(1 << 30, stale_lock_s=300.0)
        assert report.stale_locks_removed == 1
        assert not lock.exists()

    def test_gc_keeps_an_aged_claim_this_process_holds(self, tmp_path):
        """gc judges claims by the rule claiming and waiting use: a claim a
        live builder here holds survives, however old."""
        import os
        import time

        from repro.kcache import claim_build

        store = KernelStore(tmp_path / "kcache")
        lock = store.lock_path("held_key")
        claim = claim_build(lock, stale_after=300.0)
        assert claim is not None
        with claim:
            old = time.time() - 3600
            os.utime(lock, (old, old))
            report = store.gc(1 << 30, stale_lock_s=300.0)
            assert report.stale_locks_removed == 0
            assert lock.exists()
            # Nobody else can claim the key while the build runs.
            assert claim_build(lock, stale_after=300.0) is None
        assert not lock.exists()
