"""Kernel-cache economics: cold generative sweep vs warm O(lookup) hit.

The persistent kernel cache (:mod:`repro.kcache`) exists so that only the
*first* requester of a routine ever pays for scheduling, lowering,
optimization and the simulated tuning sweep; everyone after that — in this
process or any later one — gets the committed artifacts back in O(lookup).
This benchmark prices that trade on the ISSUE's acceptance routine, the
clipped **tile_sgemm 193x161x97 on Fermi**, and records into
``BENCH_kcache.json``:

* ``tile_sgemm_193x161x97_fermi`` — the cold tuned build (full warm-start-
  disabled sweep: prune + simulate + publish) against the best-of-N warm
  lookup of the same key from a cleared-memo process-equivalent;
  ``warm_speedup`` is the headline figure, asserted >= 100x;
* ``warm_start_192x160x96_fermi`` — the warm-start policy's economics: the
  neighbouring 192x160x96 sweep cold vs seeded from the tuned 193x161x97
  record (fewer simulations; the winner is no worse on this pair, though
  the warm prune is a heuristic and does not promise that).

``cycles`` figures feed the trajectory cycle ladder (regression-gated at
2%); the wall-clock ``*_speedup`` rates land in the ungated rate ladder —
like the cache hit rates they sit next to, they move with machine noise,
so they are tracked, not gated.  The >=100x assertion here is the loose
catastrophic floor (measured ~3 orders of magnitude): it catches the hit
path silently re-entering the build chain, not scheduler jitter.
"""

from __future__ import annotations

from repro.kcache import KernelStore, get_kernel, warm_seed_candidates
from repro.tile.autotune import run_generative_sweep
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches

from conftest import print_series, record_kcache_metric

#: The paper's arbitrary-size acceptance shape (clipped staging + tails).
SHAPE = TileSgemmConfig(m=193, n=161, k=97)

#: The neighbouring shape the warm-start policy seeds from SHAPE's record.
NEIGHBOUR = TileSgemmConfig(m=192, n=160, k=96)

#: Catastrophic-regression floor for the warm-hit speedup (see module doc).
MIN_WARM_SPEEDUP = 100.0

#: Best-of-N warm lookups to shed filesystem-cache noise.
LOOKUPS = 3


def test_cold_sweep_vs_warm_lookup(tmp_path, fermi):
    """The acceptance metric: a warm hit beats the cold sweep by >= 100x."""
    store = KernelStore(tmp_path / "kcache")
    clear_schedule_caches()
    cold = get_kernel(
        "tile_sgemm", SHAPE, fermi, store=store, tune=True, warm_start=False,
    )
    assert cold.source == "built"
    assert cold.cycles is not None and cold.cycles > 0

    clear_schedule_caches()  # a warm hit must not lean on in-process memos
    warm_replies = [
        get_kernel("tile_sgemm", SHAPE, fermi, store=store, tune=True)
        for _ in range(LOOKUPS)
    ]
    assert all(reply.source == "hit" for reply in warm_replies)
    assert all(reply.cycles == cold.cycles for reply in warm_replies)
    warm_lookup_s = min(reply.lookup_s for reply in warm_replies)
    speedup = cold.build_s / warm_lookup_s
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm lookup took {warm_lookup_s:.4f}s vs the {cold.build_s:.2f}s "
        f"cold sweep ({speedup:.0f}x) — the hit path is doing build work"
    )

    meta = cold.entry.meta
    record_kcache_metric("tile_sgemm_193x161x97_fermi", {
        "cycles": cold.cycles,
        "winner_label": meta["winner_label"],
        "cold_build_s": round(cold.build_s, 4),
        "warm_lookup_s": round(warm_lookup_s, 6),
        "warm_speedup": round(speedup, 1),
        "payload_bytes": meta["payload_bytes"],
        "sweep": {
            "candidates": meta["metrics"]["sweep_candidates"],
            "pruned": meta["metrics"]["sweep_pruned"],
            "simulated": meta["metrics"]["sweep_simulated"],
        },
    })
    print_series("kcache: tile_sgemm 193x161x97 on Fermi", [
        f"cold tuned build: {cold.build_s:.2f}s -> {cold.cycles:.0f} cycles "
        f"({meta['winner_label']})",
        f"warm lookup: {warm_lookup_s * 1e3:.2f}ms ({speedup:.0f}x)",
    ])

    # --- warm-start economics on the neighbouring shape -------------------
    clear_schedule_caches()
    cold_sweep = run_generative_sweep(fermi, "tile_sgemm", NEIGHBOUR)
    seeds = warm_seed_candidates(store, "tile_sgemm", "gtx580", NEIGHBOUR)
    warm_sweep = run_generative_sweep(fermi, "tile_sgemm", NEIGHBOUR, seeds=seeds)
    cold_best = next(o for o in cold_sweep.outcomes if o.ok)
    warm_best = next(o for o in warm_sweep.outcomes if o.ok)
    assert warm_best.cycles <= cold_best.cycles
    assert len(warm_sweep.outcomes) < len(cold_sweep.outcomes)

    record_kcache_metric("warm_start_192x160x96_fermi", {
        "cold": {
            "cycles": cold_best.cycles,
            "simulated": len(cold_sweep.outcomes),
        },
        "warm": {
            "cycles": warm_best.cycles,
            "simulated": len(warm_sweep.outcomes),
            "seeds": len(warm_sweep.seed_candidates),
            "warm_pruned": warm_sweep.warm_pruned,
        },
        "simulations_saved_rate": round(
            1.0 - len(warm_sweep.outcomes) / len(cold_sweep.outcomes), 4
        ),
    })
    print_series("kcache: warm-start 192x160x96 from the 193x161x97 record", [
        f"cold sweep: {len(cold_sweep.outcomes)} simulated -> "
        f"{cold_best.cycles:.0f} cycles",
        f"warm sweep: {len(warm_sweep.outcomes)} simulated "
        f"({warm_sweep.warm_pruned} floor-pruned) -> {warm_best.cycles:.0f} cycles",
    ])
