"""Simulator throughput: the vectorized fast path vs the scalar-era baseline.

The functional simulator was rewritten around a NumPy-vectorized, warp-batched
engine (:mod:`repro.sim.vectorized`); the scalar per-lane path survives as
:mod:`repro.sim.reference`, the differential-testing oracle.  This benchmark
records what the rewrite bought on the workload the ISSUE gates on — the
**generative tile_sgemm schedule sweep** — into ``BENCH_sim.json``:

* ``sweep`` — the end-to-end sweep (bound pruning + simulating the
  survivors) via :func:`repro.tile.autotune.run_generative_sweep`;
  ``candidates_per_s`` is the headline throughput figure, taken at
  *reference speed*: each sweep runs under the e2e benchmark's
  machine-speed probe (``e2e/speed.py``), and its wall time is divided by
  the slowdown the probe measured meanwhile, so the figure tracks the code
  rather than the host's neighbours;
* ``functional`` — one functional tile_sgemm simulation;
  ``warp_instructions_per_s`` is the raw engine throughput;
* ``baseline`` — the same measurements taken on this machine at the
  pre-vectorization commit, pinned as constants so the recorded speedup has
  a stated denominator.

The throughput figures (``candidates_per_s``, ``warp_instructions_per_s``)
feed the ``throughput_ladder`` of ``scripts/bench_trajectory.py --check``,
which fails CI when a freshly recorded value drops more than 2% below the
merge-base record.  Unlike the cycle ladders these are **wall-clock**
figures: re-record them with this benchmark on comparable hardware (the
benchmark takes the best of three runs to shed scheduler noise; the sweep
figure is also probe-corrected, the short functional run is not).

The speedup assertion here is deliberately loose (2x, against a measured
9-10x) — it exists to catch a catastrophic regression (e.g. the sweep
silently falling back to the reference engine), not to re-litigate machine
noise on every run.  In-run, the benchmark also *attests the gate*: the
sweep numbers only count because the vectorized engine is bit-identical to
the oracle, so it differentially checks the swept workload before recording.
"""

from __future__ import annotations

import time

import numpy as np

from repro.kernels.registry import get_workload
from repro.sim import LaunchConfig, SmSimulator
from repro.tile.autotune import run_generative_sweep

from conftest import print_series, record_sim_metric
from e2e.speed import Sampler, slowdown

#: Pre-vectorization measurements (same machine, same sweep: 32 candidates,
#: 9 simulated, ``workers=1``), taken at the commit this rewrite branched
#: from.  Pinned so the recorded speedup has a stated denominator.
SCALAR_BASELINE = {
    "sweep_elapsed_s": 4.927,
    "functional_sim_elapsed_s": 0.496,
    "functional_warp_instructions": 6888,
}

#: Catastrophic-regression floor for the recorded speedup (see module doc).
MIN_SWEEP_SPEEDUP = 2.0

#: Best-of-N wall-clock measurements to shed scheduler noise.
MEASUREMENTS = 3


def _functional_once(fermi, workload, config, kernel, executor: str):
    """One functional tile_sgemm simulation; returns (elapsed_s, SimResult)."""
    inputs = workload.prepare_inputs(config, seed=0)
    launch = workload.build_launch(config, inputs)
    simulator = SmSimulator(
        fermi, kernel,
        global_memory=launch.memory, params=launch.params, executor=executor,
    )
    started = time.perf_counter()
    result = simulator.run(
        LaunchConfig(grid=launch.grid, functional=True, max_cycles=20_000_000),
        block_indices=launch.grid.block_indices(),
    )
    return time.perf_counter() - started, result, launch


def test_generative_sweep_throughput(fermi):
    """The ISSUE's acceptance metric: tile_sgemm sweep throughput."""
    workload = get_workload("tile_sgemm")
    config = workload.default_config()
    kernel, _ = workload.generate_optimized(config, fermi)

    # Attest the gate before recording any number: the vectorized engine
    # must be bit-identical to the scalar oracle on the swept workload.
    _, reference, ref_launch = _functional_once(
        fermi, workload, config, kernel, "reference")
    _, vectorized, vec_launch = _functional_once(
        fermi, workload, config, kernel, "vectorized")
    assert reference.cycles == vectorized.cycles
    assert reference.stalls.as_dict() == vectorized.stalls.as_dict()
    assert np.array_equal(ref_launch.memory.data, vec_launch.memory.data)

    # Each sweep's wall time at reference speed: divided by the slowdown the
    # probe measured while it ran.
    sampler = Sampler()
    sampler.start()
    try:
        sweeps = []
        for _ in range(MEASUREMENTS):
            mark = sampler.mark()
            sweep = run_generative_sweep(fermi, "tile_sgemm")
            sweeps.append((sweep.total_elapsed_s / slowdown(sampler.since(mark)), sweep))
    finally:
        sampler.stop()
    reference_elapsed, best = min(sweeps, key=lambda timed: timed[0])
    assert all(len(s.outcomes) == len(best.outcomes) for _, s in sweeps)
    assert all(outcome.ok for outcome in best.outcomes)

    functional_runs = [
        _functional_once(fermi, workload, config, kernel, "vectorized")
        for _ in range(MEASUREMENTS)
    ]
    functional_elapsed = min(run[0] for run in functional_runs)
    warp_instructions = functional_runs[0][1].warp_instructions
    assert all(run[1].warp_instructions == warp_instructions
               for run in functional_runs)

    sweep_speedup = SCALAR_BASELINE["sweep_elapsed_s"] / best.total_elapsed_s
    functional_speedup = (
        SCALAR_BASELINE["functional_sim_elapsed_s"] / functional_elapsed)
    assert sweep_speedup >= MIN_SWEEP_SPEEDUP, (
        f"sweep took {best.total_elapsed_s:.2f}s vs scalar baseline "
        f"{SCALAR_BASELINE['sweep_elapsed_s']:.2f}s — the vectorized fast "
        f"path has regressed catastrophically"
    )

    record_sim_metric("sweep", {
        "candidates": best.prune.total,
        "pruned": len(best.prune.pruned),
        "simulated": len(best.outcomes),
        "prune_elapsed_s": round(best.prune.elapsed_s, 4),
        "sim_elapsed_s": round(best.sim_elapsed_s, 4),
        "total_elapsed_s": round(best.total_elapsed_s, 4),
        "reference_elapsed_s": round(reference_elapsed, 4),
        "candidates_per_s": round(best.prune.total / reference_elapsed, 2),
        "speedup_vs_scalar_baseline": round(sweep_speedup, 2),
    })
    record_sim_metric("functional", {
        "executor": "vectorized",
        "warp_instructions": int(warp_instructions),
        "elapsed_s": round(functional_elapsed, 4),
        "warp_instructions_per_s": round(warp_instructions / functional_elapsed, 1),
        "speedup_vs_scalar_baseline": round(functional_speedup, 2),
        "differential_ok": True,
    })
    record_sim_metric("baseline", dict(SCALAR_BASELINE))
    print_series("tile_sgemm generative sweep (vectorized engine)", [
        f"sweep: {best.prune.total} candidates in {best.total_elapsed_s:.2f}s "
        f"({best.prune.total / reference_elapsed:.1f}/s at reference speed, "
        f"{sweep_speedup:.1f}x vs scalar)",
        f"functional sim: {warp_instructions} warp instructions in "
        f"{functional_elapsed:.3f}s ({functional_speedup:.1f}x vs scalar)",
    ])
