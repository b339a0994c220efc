#!/usr/bin/env python3
"""Tile-IR walkthrough: schedule a naive loop nest up to hand-kernel speed.

Builds the paper's SGEMM from the textbook triple loop by composing
scheduling primitives (`repro.tile.schedule`), checks each step against the
NumPy oracle, lowers the result to SASS (`repro.tile.lower`), pushes it
through the optimization pipeline, and races it against the hand-written
golden kernel on both machine models.  Ends with the schedule-space
autotuner leaderboard.

Run:  python examples/tile_scheduling_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.arch import fermi_gtx580, kepler_gtx680
from repro.opt import autotune_workloads, format_leaderboard
from repro.opt.autotune import simulate_one_block
from repro.opt.pipeline import optimize_kernel
from repro.sgemm.config import SgemmKernelConfig
from repro.sgemm.generator import generate_sgemm_kernel
from repro.tile import interpret, library, lower
from repro.tile.autotune import schedule_space


def main() -> None:
    # 1. The algorithm once, as a naive loop nest.
    naive = library.matmul_proc(96, 96, 16)
    print("=== naive loop nest (first lines)")
    print("\n".join(str(naive).splitlines()[:5]))
    print()

    # 2. The golden schedule: split/bind/stage/unroll, oracle-checked.
    scheduled = library.schedule_sgemm(naive)
    rng = np.random.default_rng(0)
    inputs = {
        "A": rng.uniform(-1, 1, (96, 16)).astype(np.float32),
        "B": rng.uniform(-1, 1, (16, 96)).astype(np.float32),
    }
    oracle = interpret(naive, inputs)["C"]
    assert np.array_equal(interpret(scheduled, inputs)["C"], oracle)
    print("=== golden schedule is oracle-equivalent (bit-exact) ===")
    buffers = ", ".join(
        f"{b.name}[{'x'.join(map(str, b.shape))}]@{b.memory}" for b in scheduled.buffers
    )
    print(f"  staging buffers: {buffers}")
    print()

    # 3. Lower to SASS and race the hand-written golden kernel.
    kernel = lower(scheduled)
    golden = generate_sgemm_kernel(
        SgemmKernelConfig(m=96, n=96, k=16, conflict_free_allocation=True)
    )
    print("=== lowered kernel vs hand golden kernel")
    print(
        f"  registers {kernel.register_count} vs {golden.register_count}   "
        f"instructions {kernel.instruction_count} vs {golden.instruction_count}"
    )
    for name, gpu in (("Fermi ", fermi_gtx580()), ("Kepler", kepler_gtx680())):
        optimized = optimize_kernel(kernel, gpu).kernel
        dsl = simulate_one_block(gpu, optimized).cycles
        hand = simulate_one_block(gpu, golden).cycles
        print(
            f"  {name} cycles: DSL as-lowered {simulate_one_block(gpu, kernel).cycles:7.0f}   "
            f"DSL+pipeline {dsl:7.0f}   hand golden {hand:7.0f}   "
            f"({100 * (dsl / hand - 1):+.1f}%)"
        )
    print()

    # 4. Sweep every tile_sgemm schedule point at the default 96x96x16 shape,
    #    serially and without bound pruning, so the leaderboard shows them all.
    print("=== schedule sweep on Fermi (staging / pipelining / windowing)")
    candidates = schedule_space("tile_sgemm")
    print(format_leaderboard(autotune_workloads(fermi_gtx580(), candidates, workers=1)))


if __name__ == "__main__":
    main()
