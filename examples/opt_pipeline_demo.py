#!/usr/bin/env python3
"""Optimize a naive SGEMM kernel with the repro.opt pass pipeline.

Walks the paper's optimization story as an automated pipeline instead of
hand-editing SASS:

1. generate the bank-oblivious (compiler-like) SGEMM kernel;
2. run the pass pipeline — liveness report, bank-conflict-eliminating
   register reallocation (Fig. 8/9), latency-aware list scheduling, Kepler
   control-notation assignment — and show the per-pass report;
3. simulate the naive, hand-allocated and pipeline-optimized kernels on the
   GTX580 and GTX680 models and compare cycle counts;
4. run a small parallel autotune sweep over the SGEMM transpose variants ×
   {naive, pipeline}.

Run:  python examples/opt_pipeline_demo.py
      python examples/opt_pipeline_demo.py --quick   (skip the sweep)
"""

from __future__ import annotations

import argparse

from repro.arch import fermi_gtx580, kepler_gtx680
from repro.opt import (
    WorkloadCandidate,
    autotune_workloads,
    format_leaderboard,
    optimize_kernel,
    simulate_one_block,
)
from repro.sgemm import (
    SgemmKernelConfig,
    SgemmVariant,
    analyse_ffma_conflicts,
    generate_naive_sgemm_kernel,
    generate_sgemm_kernel,
)


def simulate_cycles(gpu, kernel) -> float:
    """Timing-mode cycle count of one block on one SM."""
    return simulate_one_block(gpu, kernel, max_cycles=5_000_000).cycles


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="skip the autotune sweep")
    args = parser.parse_args()

    config = SgemmKernelConfig(m=96, n=96, k=16)
    naive = generate_naive_sgemm_kernel(config)
    hand = generate_sgemm_kernel(config)  # golden Figure 9 allocation

    print("== 1. The naive kernel (pipeline input) ==")
    report = analyse_ffma_conflicts(naive)
    print(
        f"  {report.ffma_count} FFMAs, {report.two_way} two-way and "
        f"{report.three_way} three-way bank conflicts"
    )

    for gpu in (fermi_gtx580(), kepler_gtx680()):
        print(f"\n== 2. Pass pipeline on {gpu.name} ==")
        result = optimize_kernel(naive, gpu)
        for stats in result.stats:
            print(
                f"  {stats.name:14s} conflicts {stats.ffma_conflicts_before:3d} -> "
                f"{stats.ffma_conflicts_after:3d}   regs {stats.register_count_before:2d} -> "
                f"{stats.register_count_after:2d}   {stats.notes}"
            )
        print("\n== 3. Simulated cycles (one block, one SM) ==")
        for label, kernel in (("naive", naive), ("hand", hand), ("pipeline", result.kernel)):
            print(f"  {label:10s} {simulate_cycles(gpu, kernel):10.0f} cycles")

    if not args.quick:
        print("\n== 4. Autotune sweep (variants x {naive, pipeline}, parallel) ==")
        candidates = [
            WorkloadCandidate(
                "sgemm",
                SgemmKernelConfig(
                    m=96, n=96, k=16, variant=variant, conflict_free_allocation=False
                ),
                optimize=optimize,
                label=f"{variant.value.lower()}:{'pipeline' if optimize else 'naive'}",
            )
            for variant in SgemmVariant
            for optimize in (False, True)
        ]
        print(format_leaderboard(autotune_workloads("gtx680", candidates)))


if __name__ == "__main__":
    main()
