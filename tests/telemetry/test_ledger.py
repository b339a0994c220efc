"""Durable-ledger semantics: appends, merged reads, diffing, concurrency."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.context import current, session
from repro.telemetry.ledger import (
    GATED_FIELDS,
    LedgerRecord,
    RunLedger,
    build_record,
    config_digest,
    diff_records,
    normalize_gpu,
    record_run,
    scaled_copy,
)


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "ledger")


class TestKeys:
    def test_config_digest_stable_and_value_sensitive(self):
        assert config_digest((1, 2)) == config_digest((1, 2))
        assert config_digest((1, 2)) != config_digest((1, 3))
        assert len(config_digest((1, 2))) == 16

    def test_normalize_gpu(self):
        assert normalize_gpu("GeForce GTX 580") == "gtx580"
        assert normalize_gpu("GeForce GTX 680") == "gtx680"


class TestAppendAndRead:
    def test_round_trip(self, ledger):
        record = build_record(
            "sim", "run:sgemm:abc:gtx580:opt",
            workload="sgemm", gpu="gtx580", kernel_hash="deadbeef",
            config={"m": 64}, metrics={"cycles": 100.0, "dram_bytes": 4096},
        )
        ledger.append(record)
        (read,) = ledger.records()
        assert read == record
        assert read.metric("cycles") == 100.0

    def test_provenance_stamped(self, ledger):
        record = ledger.append(build_record("sim", "k"))
        assert record.provenance["git_rev"]
        assert record.provenance["python"]
        assert record.pid == os.getpid()

    def test_filters(self, ledger):
        ledger.append(build_record("sim", "a"))
        ledger.append(build_record("sweep", "b"))
        ledger.append(build_record("sim", "b"))
        assert [r.key for r in ledger.records(kind="sim")] == ["a", "b"]
        assert [r.kind for r in ledger.records(key="b")] == ["sweep", "sim"]
        assert ledger.keys() == ["a", "b"]

    def test_latest_slice(self, ledger):
        for index in range(3):
            ledger.append(build_record("sim", "k", metrics={"cycles": index}))
        latest = ledger.latest("k", count=2)
        assert [r.metric("cycles") for r in latest] == [1.0, 2.0]

    def test_empty_root_reads_empty(self, ledger):
        assert ledger.records() == []
        assert ledger.keys() == []

    def test_torn_tail_is_skipped_not_fatal(self, ledger):
        ledger.append(build_record("sim", "k", metrics={"cycles": 1}))
        with open(ledger.segment_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "sim", "key": "k", "metrics": {"cyc')  # killed writer
        records = ledger.records()
        assert len(records) == 1
        assert records[0].metric("cycles") == 1.0

    def test_records_are_single_lines(self, ledger):
        ledger.append(build_record("sim", "k", metrics={"text": "a\nb"}))
        lines = ledger.segment_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["metrics"]["text"] == "a\nb"


class TestDiff:
    def _pair(self, base_cycles, current_cycles, base_dram=1000, current_dram=1000):
        baseline = build_record(
            "sim", "k", metrics={"cycles": base_cycles, "dram_bytes": base_dram}
        )
        current = build_record(
            "sim", "k", metrics={"cycles": current_cycles, "dram_bytes": current_dram}
        )
        return baseline, current

    def test_identical_runs_pass(self):
        diff = diff_records(*self._pair(100.0, 100.0))
        assert diff.ok
        assert diff.regressions == []
        assert {d.field for d in diff.deltas} == set(GATED_FIELDS)

    def test_five_percent_cycle_regression_flagged(self):
        diff = diff_records(*self._pair(100.0, 105.0))
        assert not diff.ok
        assert diff.regressions == ["cycles"]
        (delta,) = [d for d in diff.deltas if d.field == "cycles"]
        assert delta.relative == pytest.approx(0.05)

    def test_within_tolerance_passes(self):
        assert diff_records(*self._pair(100.0, 101.9)).ok

    def test_improvement_passes(self):
        assert diff_records(*self._pair(100.0, 80.0)).ok

    def test_dram_regression_flagged(self):
        diff = diff_records(*self._pair(100.0, 100.0, 1000, 1100))
        assert diff.regressions == ["dram_bytes"]

    def test_absent_fields_skipped(self):
        baseline = build_record("sim", "k", metrics={"cycles": 100.0})
        current = build_record("sim", "k", metrics={"cycles": 100.0})
        diff = diff_records(baseline, current)
        assert [d.field for d in diff.deltas] == ["cycles"]

    def test_key_mismatch_raises(self):
        with pytest.raises(ValueError, match="different keys"):
            diff_records(build_record("sim", "a"), build_record("sim", "b"))

    def test_scaled_copy_builds_the_synthetic_regression(self):
        original = build_record("sim", "k", metrics={"cycles": 200.0, "label": "x"})
        synthetic = scaled_copy(original, {"cycles": 1.05})
        assert synthetic.metric("cycles") == pytest.approx(210.0)
        assert synthetic.metrics["label"] == "x"  # non-numeric fields untouched
        assert synthetic.key == original.key
        diff = diff_records(original, synthetic)
        assert diff.regressions == ["cycles"]


class TestInstallPoint:
    def test_record_run_noop_when_uninstalled(self, tmp_path):
        assert current().ledger is None
        assert record_run("sim", "k", metrics={"cycles": 1}) is None

    def test_session_appends_and_restores(self, ledger, tmp_path):
        with session(ledger=ledger):
            assert current().ledger is ledger
            record_run("sim", "k", metrics={"cycles": 1})
        assert current().ledger is None
        assert len(RunLedger(tmp_path / "ledger").records()) == 1


def _worker_append(args: tuple[str, int, int]) -> int:
    """Pool worker: append ``count`` records into the shared ledger root."""
    root, worker, count = args
    ledger = RunLedger(root)
    for index in range(count):
        ledger.append(
            build_record(
                "sim", f"worker:{worker}",
                metrics={"cycles": float(index), "worker": worker},
            )
        )
    return os.getpid()


class TestConcurrency:
    def test_multiprocessing_appends_merge_without_tearing(self, tmp_path):
        """Four processes × 25 records into one root: a merged read sees all
        100, each parses (no torn/interleaved lines), and the writers used
        distinct segment files."""
        root = str(tmp_path / "ledger")
        workers, per_worker = 4, 25
        with multiprocessing.Pool(workers) as pool:
            pids = pool.map(
                _worker_append,
                [(root, worker, per_worker) for worker in range(workers)],
            )
        ledger = RunLedger(root)
        records = ledger.records()
        assert len(records) == workers * per_worker
        assert all(isinstance(r, LedgerRecord) for r in records)
        by_key = {key: len(ledger.records(key=key)) for key in ledger.keys()}
        assert by_key == {f"worker:{w}": per_worker for w in range(workers)}
        segments = list(ledger.root.glob("segment-*.jsonl"))
        assert len(segments) == len(set(pids))
        for segment in segments:
            for line in segment.read_text().splitlines():
                json.loads(line)  # every line is complete JSON
