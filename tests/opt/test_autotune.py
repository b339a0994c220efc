"""Tests for the parallel autotuner and the kernel content hash it records."""

from __future__ import annotations

import pytest

from repro.opt.autotune import (
    WorkloadCandidate,
    autotune_workloads,
    evaluate_workload_candidate,
    format_leaderboard,
)
from repro.opt.rewrite import kernel_hash
from repro.sgemm.config import SgemmKernelConfig, SgemmVariant


@pytest.fixture(scope="module")
def nn_candidates():
    """A small sweep: the NN hand SGEMM, naive vs pipeline."""
    config = SgemmKernelConfig(
        m=96, n=96, k=16, variant=SgemmVariant.NN, conflict_free_allocation=False
    )
    return [
        WorkloadCandidate("sgemm", config, optimize=False, label="nn:naive"),
        WorkloadCandidate("sgemm", config, optimize=True, label="nn:pipeline"),
    ]


class TestKernelHash:
    def test_identical_kernels_hash_equal(self):
        from repro.sgemm.generator import generate_sgemm_kernel

        config = SgemmKernelConfig(m=96, n=96, k=16)
        assert kernel_hash(generate_sgemm_kernel(config)) == kernel_hash(
            generate_sgemm_kernel(config)
        )

    def test_different_allocation_hashes_differ(self):
        from repro.sgemm.generator import generate_naive_sgemm_kernel, generate_sgemm_kernel

        config = SgemmKernelConfig(m=96, n=96, k=16)
        assert kernel_hash(generate_sgemm_kernel(config)) != kernel_hash(
            generate_naive_sgemm_kernel(config)
        )


class TestEvaluation:
    def test_single_candidate_evaluates(self):
        candidate = WorkloadCandidate(
            "sgemm", SgemmKernelConfig(m=96, n=96, k=16), optimize=True, label="probe"
        )
        outcome = evaluate_workload_candidate("gtx680", candidate)
        assert outcome.ok
        assert outcome.cycles > 0
        assert outcome.ffma_conflicts == 0
        assert outcome.gflops > 0
        assert outcome.bound_gflops is not None

    def test_serial_sweep_ranks_pipeline_first(self, nn_candidates):
        outcomes = autotune_workloads("gtx680", nn_candidates, workers=1)
        assert [o.ok for o in outcomes] == [True] * len(outcomes)
        assert outcomes[0].label == "nn:pipeline"
        naive = next(o for o in outcomes if o.label == "nn:naive")
        assert outcomes[0].cycles <= naive.cycles
        assert naive.ffma_conflicts > 0

    def test_parallel_sweep_matches_serial(self, nn_candidates):
        serial = autotune_workloads("gtx680", nn_candidates, workers=1)
        parallel = autotune_workloads("gtx680", nn_candidates, workers=2)
        assert [(o.label, o.cycles) for o in serial] == [
            (o.label, o.cycles) for o in parallel
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_only_the_best_outcome_keeps_its_kernel(self, nn_candidates, workers):
        best, naive = autotune_workloads("gtx680", nn_candidates, workers=workers)
        assert best.label == "nn:pipeline"
        assert kernel_hash(best.kernel) == best.kernel_hash
        assert naive.kernel is None
        # The pipeline candidate was built from the naive candidate's kernel.
        assert best.naive_kernel_hash == naive.naive_kernel_hash == naive.kernel_hash
        assert "kernel" not in best.as_dict()


class TestReporting:
    def test_leaderboard_renders_every_candidate(self, nn_candidates):
        outcomes = autotune_workloads("gtx680", nn_candidates, workers=1)
        table = format_leaderboard(outcomes)
        for outcome in outcomes:
            assert outcome.label in table

    def test_unknown_gpu_name_reported_not_raised(self, nn_candidates):
        outcome = evaluate_workload_candidate("gtx9000", nn_candidates[0])
        assert not outcome.ok
        assert "gtx9000" in (outcome.error or "")

    def test_custom_gpu_spec_reaches_the_workers(self):
        """A modified GpuSpec must be evaluated as-is, not rehydrated by name."""
        from dataclasses import replace

        from repro.arch import kepler_gtx680

        custom = replace(kepler_gtx680(), name="Custom GK104")
        candidate = WorkloadCandidate(
            "sgemm", SgemmKernelConfig(m=96, n=96, k=16), label="custom"
        )
        outcome = evaluate_workload_candidate(custom, candidate)
        assert outcome.ok
        assert outcome.gpu_key == "customgk104"

    def test_failed_candidate_reported_not_raised(self):
        bad = WorkloadCandidate(
            "sgemm",
            # B_R=7 needs registers beyond R62: rejected at generation time.
            SgemmKernelConfig(m=224, n=224, k=16, register_blocking=7),
            label="impossible",
        )
        outcome = evaluate_workload_candidate("gtx580", bad)
        assert not outcome.ok
        assert "Error" in (outcome.error or "")
        table = format_leaderboard([outcome])
        assert "failed" in table
