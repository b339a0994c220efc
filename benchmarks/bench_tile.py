"""Tile-IR schedule ladder: naive schedule vs golden schedule vs hand kernel.

Not a paper figure — this benchmark tracks the loop-nest IR (`repro.tile`):
for every DSL workload it simulates, on both machine models,

* the *naive schedule* (thread/block bindings only — no staging, no
  software pipelining, narrow or minimal windowing),
* the *golden schedule* as lowered (program order, sequential registers),
* the golden schedule pushed through the `repro.opt` pipeline, and
* the corresponding *hand-written* golden kernel,

and records everything into BENCH_tile.json (written by the conftest session
hook).  The headline claim — the schedule ladder recovers the hand kernel's
performance — is asserted, not just printed: the optimized DSL SGEMM must
stay within 5% of the hand-optimized kernel on both architectures.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.kernels import get_workload, run_workload
from repro.opt.autotune import simulate_one_block
from repro.opt.pipeline import optimize_kernel
from repro.sgemm.config import SgemmKernelConfig
from repro.sgemm.generator import generate_sgemm_kernel
from repro.tile.workloads import TileSgemmConfig

from conftest import print_series, record_tile_metric


def _hand_golden(workload_name: str, gpu):
    """The hand-written kernel each DSL workload is pinned against."""
    if workload_name == "tile_sgemm":
        return generate_sgemm_kernel(
            SgemmKernelConfig(m=96, n=96, k=16, conflict_free_allocation=True)
        )
    if workload_name == "tile_transpose":
        from repro.kernels.transpose import (
            TransposeKernelConfig,
            generate_naive_transpose_kernel,
        )

        return generate_naive_transpose_kernel(
            TransposeKernelConfig(m=32, n=32, tile=16)
        )
    from repro.kernels.sgemv import SgemvKernelConfig, generate_naive_sgemv_kernel

    naive = generate_naive_sgemv_kernel(SgemvKernelConfig(m=64, k=64))
    return optimize_kernel(naive, gpu).kernel


def _naive_schedule_config(workload_name: str, config):
    """Strip the schedule down to bindings: the 'compiler-like' variant."""
    if workload_name == "tile_sgemm":
        return replace(config, stage=False, prefetch=False)
    if workload_name == "tile_transpose":
        return replace(config, pad=0)
    return replace(config, stage=True, prefetch=False, k_window=1)


#: The double-buffered SGEMM ladder point: same 96x96x16 problem, staged in
#: two alternating tiles over an L=8 main loop — ONE BAR.SYNC per iteration.
DOUBLE_BUFFER_CONFIG = TileSgemmConfig(stride=8, double_buffer=True)


def test_schedule_ladder_recovers_hand_performance(benchmark, fermi, kepler):
    """naive schedule → golden schedule → +opt pipeline → hand parity."""
    names = ("tile_sgemm", "tile_transpose", "tile_sgemv")

    def generate_all():
        generated = {}
        for name in names:
            workload = get_workload(name)
            config = workload.default_config()
            generated[name] = {
                "config": config,
                "naive_schedule": workload.generate_naive(
                    _naive_schedule_config(name, config)
                ),
                "golden_schedule": workload.generate_naive(config),
                "fermi_opt": workload.generate_optimized(config, fermi)[0],
                "kepler_opt": workload.generate_optimized(config, kepler)[0],
            }
            if name == "tile_sgemm":
                generated[name]["fermi_db"] = workload.generate_optimized(
                    DOUBLE_BUFFER_CONFIG, fermi
                )[0]
                generated[name]["kepler_db"] = workload.generate_optimized(
                    DOUBLE_BUFFER_CONFIG, kepler
                )[0]
        return generated

    generated = benchmark.pedantic(generate_all, rounds=1, iterations=1)

    lines: list[str] = []
    for name in names:
        bundle = generated[name]
        metrics: dict[str, object] = {
            "kernel": bundle["golden_schedule"].name,
            "instructions": bundle["golden_schedule"].instruction_count,
            "registers": bundle["golden_schedule"].register_count,
        }
        for gpu_name, gpu in (("fermi", fermi), ("kepler", kepler)):
            hand = _hand_golden(name, gpu)
            opt_result = simulate_one_block(gpu, bundle[f"{gpu_name}_opt"])
            cycles = {
                "naive_schedule": simulate_one_block(
                    gpu, bundle["naive_schedule"]
                ).cycles,
                "golden_schedule": simulate_one_block(
                    gpu, bundle["golden_schedule"]
                ).cycles,
                "golden_schedule_opt": opt_result.cycles,
                "hand_golden": simulate_one_block(gpu, hand).cycles,
            }
            if name == "tile_sgemm":
                cycles["double_buffer_opt"] = simulate_one_block(
                    gpu, bundle[f"{gpu_name}_db"]
                ).cycles
            ratio = cycles["golden_schedule_opt"] / cycles["hand_golden"]
            # The optimized kernel's stall breakdown rides along so the
            # trajectory gate can name the stall reason behind a cycle
            # regression (scripts/bench_trajectory.py --check).
            metrics[gpu_name] = {
                **cycles,
                "vs_hand": ratio,
                "stalls": opt_result.stalls.as_dict(),
            }
            line = (
                f"{name:15s} {gpu_name:7s} naive {cycles['naive_schedule']:7.0f}  "
                f"golden {cycles['golden_schedule']:7.0f}  +opt "
                f"{cycles['golden_schedule_opt']:7.0f}  hand "
                f"{cycles['hand_golden']:7.0f}  ({100 * (ratio - 1):+.1f}%)"
            )
            if "double_buffer_opt" in cycles:
                line += f"  db {cycles['double_buffer_opt']:7.0f}"
            lines.append(line)

            # The ladder must be a ladder: scheduling + the pass pipeline
            # never lose to the binding-only variant.
            assert cycles["golden_schedule_opt"] <= cycles["naive_schedule"]
            if name == "tile_sgemm":
                # The acceptance criterion, tracked per benchmark run.
                assert ratio <= 1.05
            if name == "tile_sgemm" and gpu_name == "fermi":
                # The double-buffered schedule (one BAR.SYNC per k-iteration)
                # strictly beats both the best single-buffered DSL schedule
                # and the hand-written golden kernel.
                assert cycles["double_buffer_opt"] < cycles["golden_schedule_opt"]
                assert cycles["double_buffer_opt"] < cycles["hand_golden"]

        record_tile_metric(name, metrics)
    print_series("Tile IR — schedule ladder vs hand kernels", lines)


def test_bound_pruned_sweep_economics(benchmark, fermi):
    """A tiny generative sweep, its one-line summary, and its cost figures.

    Tracks the sweep economics in BENCH_tile.json: how many candidates the
    analytic bound pruned without simulating, the host-side wall time of the
    pruning pass, and how many simulations ranked the kept candidates.  The
    winner's cycles are recorded as ``best_cycles`` — deliberately not a
    cycle-ladder key, since the sweep space (not the kernels) defines it.

    The SGEMM decomposition cache's hits and misses over the sweep come
    from ``decompose_sgemm.cache_info()``; its ``hit_rate`` lands in
    BENCH_summary.json's rate ladder.
    """
    from repro.opt.autotune import autotune_workloads
    from repro.tile.autotune import (
        prune_by_bound,
        schedule_space,
        simulations,
        sweep_summary,
    )
    from repro.tile.library import decompose_sgemm
    from repro.tile.workloads import clear_schedule_caches

    base = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2,
                           stride=2, b_window=2)
    space = schedule_space(
        "tile_sgemm", base, tiles=(4, 8), register_blockings=(2, 4),
        strides=(2, 4), b_windows=(1, 2),
    )

    # Start the cache cold so the recorded hit rate measures this sweep's
    # own reuse, not whatever earlier benchmarks happened to populate.
    clear_schedule_caches()
    report = benchmark.pedantic(
        lambda: prune_by_bound(fermi, space), rounds=1, iterations=1
    )
    assert report.kept and report.pruned
    assert report.elapsed_s > 0.0

    outcomes = autotune_workloads(fermi, list(report.kept), workers=1)
    assert all(outcome.ok for outcome in outcomes)
    summary_line = sweep_summary(report, outcomes)
    best = outcomes[0]

    cache = decompose_sgemm.cache_info()
    lookups = cache.hits + cache.misses

    record_tile_metric("tile_sgemm_bound_pruned_sweep", {
        "total_candidates": report.total,
        "pruned": len(report.pruned),
        "kept": len(report.kept),
        "prune_elapsed_s": round(report.elapsed_s, 3),
        "simulated": simulations(outcomes),
        "decomposition_cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": round(cache.hits / lookups, 4) if lookups else 0.0,
        },
        "fermi": {"best_label": best.label, "best_cycles": best.cycles},
    })
    print_series("Tile IR — bound-pruned sweep economics", [summary_line])


def test_double_buffered_sgemm_is_bit_exact(benchmark, fermi, kepler):
    """The double-buffered ladder point validates bit-exactly on both machines."""
    workload = get_workload("tile_sgemm")
    config = DOUBLE_BUFFER_CONFIG

    def generate():
        return workload.generate_naive(config)

    kernel = benchmark.pedantic(generate, rounds=1, iterations=1)
    inputs = workload.prepare_inputs(config)
    oracle = workload.oracle(config, inputs)["C"]
    lines = [f"kernel {kernel.name}: {kernel.register_count} registers"]
    metrics: dict[str, object] = {"kernel": kernel.name,
                                  "registers": kernel.register_count}
    for gpu_name, gpu in (("fermi", fermi), ("kepler", kepler)):
        run = run_workload(gpu, workload, config, max_cycles=20_000_000)
        exact = bool(np.array_equal(run.output, oracle))
        assert exact, f"{gpu_name}: double-buffered SGEMM diverged from the oracle"
        metrics[gpu_name] = {"cycles": run.result.cycles, "bit_exact": exact}
        lines.append(f"{gpu_name:7s} cycles {run.result.cycles:9.0f}  bit-exact {exact}")
    record_tile_metric("tile_sgemm_double_buffer", metrics)
    print_series("Tile IR — double-buffered SGEMM (96x96x16, L=8)", lines)


def test_double_buffered_prime_size_is_bit_exact(benchmark, fermi, kepler):
    """193x161x97, double-buffered: clipped parity staging, end to end.

    The hardest composition the lowering supports — predicate-tail guards,
    clipped per-element-predicated cooperative loads, parity-alternating
    tiles, predicated epilogue stores — validated bit-exactly against the
    NumPy oracle on both machine models, still moving exactly the compulsory
    DRAM traffic.
    """
    workload = get_workload("tile_sgemm")
    config = TileSgemmConfig(m=193, n=161, k=97, stride=8, double_buffer=True)

    def generate():
        return workload.generate_naive(config)

    kernel = benchmark.pedantic(generate, rounds=1, iterations=1)
    inputs = workload.prepare_inputs(config)
    oracle = workload.oracle(config, inputs)["C"]
    compulsory = workload.resources(config).dram_bytes
    lines = [f"kernel {kernel.name}: {kernel.register_count} registers"]
    metrics: dict[str, object] = {
        "kernel": kernel.name,
        "registers": kernel.register_count,
        "compulsory_dram_bytes": compulsory,
    }
    for gpu_name, gpu in (("fermi", fermi), ("kepler", kepler)):
        run = run_workload(gpu, workload, config, max_cycles=50_000_000)
        exact = bool(np.array_equal(run.output, oracle))
        assert exact, f"{gpu_name}: double-buffered tail SGEMM diverged"
        assert run.dram_bytes == compulsory
        metrics[gpu_name] = {
            "cycles": run.result.cycles,
            "bit_exact": exact,
            "dram_bytes": run.dram_bytes,
        }
        lines.append(
            f"{gpu_name:7s} cycles {run.result.cycles:9.0f}  bit-exact {exact}  "
            f"dram {run.dram_bytes} (= compulsory)"
        )
    record_tile_metric("tile_sgemm_double_buffer_193x161x97", metrics)
    print_series("Tile IR — double-buffered 193x161x97", lines)


def test_arbitrary_problem_sizes_validate_bit_exactly(benchmark, fermi, kepler):
    """193x161x97 SGEMM — no dimension a multiple of tile or stride.

    The imperfect-size acceptance case: the predicate-tail schedule lowers
    at full geometry (96-wide tile, B_R = 6, 256 threads), simulates every
    block of the grid functionally on both machine models, and matches the
    NumPy-interpreter oracle bit for bit.
    """
    workload = get_workload("tile_sgemm")
    config = TileSgemmConfig(m=193, n=161, k=97)

    def generate():
        return workload.generate_naive(config)

    kernel = benchmark.pedantic(generate, rounds=1, iterations=1)
    inputs = workload.prepare_inputs(config)
    oracle = workload.oracle(config, inputs)["C"]
    compulsory = workload.resources(config).dram_bytes

    lines = [f"kernel {kernel.name}: {kernel.register_count} registers, "
             f"{kernel.instruction_count} instructions"]
    metrics: dict[str, object] = {
        "kernel": kernel.name,
        "registers": kernel.register_count,
        "instructions": kernel.instruction_count,
        "compulsory_dram_bytes": compulsory,
    }
    for gpu_name, gpu in (("fermi", fermi), ("kepler", kepler)):
        run = run_workload(gpu, workload, config, optimized=False,
                           max_cycles=50_000_000)
        exact = bool(np.array_equal(run.output, oracle))
        assert exact, f"{gpu_name}: tail SGEMM diverged from the oracle"
        # Clipped pipelined stages predicate their cooperative loads per
        # element, so the boundary tiles move no slack data: the simulated
        # DRAM traffic IS the compulsory traffic the bound model prices.
        assert run.dram_bytes == compulsory, (
            f"{gpu_name}: simulated DRAM traffic {run.dram_bytes} != "
            f"compulsory {compulsory}"
        )
        metrics[gpu_name] = {
            "cycles": run.result.cycles,
            "max_error": run.max_error,
            "bit_exact": exact,
            "dram_bytes": run.dram_bytes,
        }
        lines.append(
            f"{gpu_name:7s} cycles {run.result.cycles:9.0f}  "
            f"max|err| {run.max_error:.2e}  bit-exact {exact}  "
            f"dram {run.dram_bytes} (= compulsory)"
        )
    record_tile_metric("tile_sgemm_193x161x97", metrics)
    print_series("Tile IR — arbitrary problem sizes (193x161x97)", lines)
