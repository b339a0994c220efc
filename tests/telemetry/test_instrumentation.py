"""Telemetry through the instrumented paths: sweep, pipeline, run_workload.

The acceptance pins live here: a tile_sgemm sweep run with telemetry
installed produces a ledger record whose cycles agree with the simulator,
and a ``run_workload`` record's cycles and DRAM bytes equal the simulated
:class:`~repro.sim.results.InstructionCounters` figures exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.specs import get_gpu_spec
from repro.kernels.base import run_workload
from repro.kernels.registry import get_workload
from repro.opt.pipeline import optimize_kernel
from repro.context import session
from repro.telemetry.ledger import RunLedger
from repro.telemetry.metrics import MetricsRegistry
from repro.tile.autotune import run_generative_sweep, sweep_summary
from repro.tile.workloads import clear_schedule_caches


@pytest.fixture
def gpu():
    return get_gpu_spec("gtx580")


class TestRunWorkloadTelemetry:
    def test_ledger_record_matches_simulator_exactly(self, gpu, tmp_path):
        """The record's cycles and DRAM bytes are the simulator's own books."""
        workload = get_workload("tile_sgemm")
        with session(ledger=RunLedger(tmp_path / "ledger")):
            run = run_workload(gpu, workload, optimized=True, collect_profile=True)
        (record,) = RunLedger(tmp_path / "ledger").records(kind="sim")
        assert record.metric("cycles") == run.result.cycles
        assert record.metric("dram_bytes") == run.dram_bytes
        assert record.metric("dram_load_bytes") == run.dram_load_bytes
        assert record.metric("dram_store_bytes") == run.dram_store_bytes
        # The counters' per-instruction DRAM bytes sum to the same traffic.
        counters = run.result.counters
        assert counters is not None
        assert record.metric("dram_bytes") == int(np.sum(counters.dram_bytes))
        assert record.metric("stall_total") == run.result.stalls.total()
        assert record.workload == "tile_sgemm"
        assert record.gpu == "gtx580"
        assert record.kernel_hash
        assert record.key.startswith("run:tile_sgemm:")

    def test_metrics_facade_sees_the_same_run(self, gpu):
        workload = get_workload("tile_sgemm")
        labels = (("variant", "opt"), ("workload", "tile_sgemm"))
        registry = MetricsRegistry()
        with session(metrics=registry):
            run = run_workload(gpu, workload, optimized=True)
        assert registry.counter_value("sim.runs", labels) == 1.0
        assert registry.gauge_value("sim.cycles", labels) == run.result.cycles
        assert registry.gauge_value("sim.dram_bytes", labels) == float(run.dram_bytes)

    def test_no_telemetry_no_records(self, gpu, tmp_path):
        workload = get_workload("tile_sgemm")
        run_workload(gpu, workload)
        assert RunLedger(tmp_path / "ledger").records() == []


class TestSweepTelemetry:
    def test_sweep_produces_one_ledger_record(self, gpu, tmp_path):
        with session(ledger=RunLedger(tmp_path / "ledger")):
            report = run_generative_sweep(gpu, "tile_sgemm")
        (record,) = RunLedger(tmp_path / "ledger").records(kind="sweep")
        best = next(o for o in report.outcomes if o.ok)
        assert record.metric("cycles") == best.cycles
        assert record.metric("candidates") == report.prune.total
        assert record.metric("pruned") == len(report.prune.pruned)
        assert record.metric("simulated") == len(report.outcomes)
        assert record.metrics["best_label"] == best.label
        assert record.kernel_hash == best.kernel_hash
        assert record.key.startswith("sweep:tile_sgemm:gtx580:")

    def test_identical_sweeps_share_a_key(self, gpu, tmp_path):
        with session(ledger=RunLedger(tmp_path / "ledger")):
            run_generative_sweep(gpu, "tile_sgemm")
            run_generative_sweep(gpu, "tile_sgemm")
        records = RunLedger(tmp_path / "ledger").records(kind="sweep")
        assert len(records) == 2
        assert records[0].key == records[1].key

    def test_sweep_counters(self, gpu):
        registry = MetricsRegistry()
        with session(metrics=registry):
            report = run_generative_sweep(gpu, "tile_sgemm")
        assert registry.counter_value("autotune.candidates_generated") == \
            report.prune.total
        assert registry.counter_value("autotune.candidates_pruned") == \
            len(report.prune.pruned)
        assert registry.counter_value("autotune.candidates_kept") == \
            len(report.prune.kept)
        assert registry.counter_value("autotune.candidates_evaluated") == \
            len(report.outcomes)
        assert registry.histogram_stat("autotune.prune_seconds").count == 1


class TestScheduleCacheMetrics:
    def test_hits_misses_evictions_counted(self, gpu):
        clear_schedule_caches()
        registry = MetricsRegistry()
        with session(metrics=registry):
            run_generative_sweep(gpu, "tile_sgemm")
            snapshot = registry.snapshot()
        assert snapshot.counter_total("tile.schedule_cache.misses") > 0

    def test_sweep_summary_reads_the_facade(self, gpu):
        clear_schedule_caches()
        with session(metrics=MetricsRegistry()):
            report = run_generative_sweep(gpu, "tile_sgemm")
            line = sweep_summary(report.prune, list(report.outcomes))
        assert "\n" not in line
        assert "schedule cache" in line
        assert "evictions" in line

    def test_sweep_summary_without_facade_is_unchanged(self, gpu):
        report = run_generative_sweep(gpu, "tile_sgemm")
        line = sweep_summary(report.prune, list(report.outcomes))
        assert "schedule cache" not in line
        assert "swept" in line


class TestPipelineTelemetry:
    def test_per_pass_series(self, gpu):
        workload = get_workload("tile_sgemm")
        kernel = workload.generate_naive(workload.default_config())
        registry = MetricsRegistry()
        with session(metrics=registry):
            result = optimize_kernel(kernel, gpu)
        for stats in result.stats:
            labels = (("pass", stats.name),)
            assert registry.counter_value("opt.passes_run", labels) == 1.0
            assert registry.histogram_stat("opt.pass_seconds", labels).count == 1
            registers = registry.histogram_stat("opt.pass.register_delta", labels)
            assert registers.sum == stats.register_count_after - stats.register_count_before
            conflict = registry.histogram_stat("opt.pass.conflict_delta", labels)
            assert conflict.sum == (
                stats.ffma_conflicts_after - stats.ffma_conflicts_before
            )
