"""Warm-start policy: seed a cold shape's sweep from nearby cached winners.

A tuned entry (:mod:`repro.kcache.service`) records the winning schedule's
parameters next to its artifacts.  When a *new* shape of the same workload
arrives, the shapes already tuned for the same GPU are ranked by log-space
distance and their winning schedules are re-instantiated at the new shape as
**seed candidates** (:func:`warm_seed_candidates`), which the sweep
(:func:`repro.tile.autotune.run_generative_sweep`) simulates ahead of the
bound-pruned enumeration.

The seeds then buy a second pruning pass: a seed's *measured* block cycles
are an achieved figure in exactly the leaderboard's metric, and every
candidate has a **per-block cycle floor**
(:func:`repro.tile.autotune.block_cycle_floor`).  A candidate whose floor
already exceeds the best seed's achieved cycles is discarded *unsimulated*.
This is a heuristic, not a sound cut: the floor bounds a full run of the
block, but the sweep measures a truncated one (one pass through each loop
body).  At 192x160x96 on gtx580, 7 of the 19 bound-kept candidates
simulate below their floor, so warm pruning can drop the candidate that
would have won.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.kcache.keys import shape_of
from repro.kcache.store import KernelStore

if TYPE_CHECKING:
    from repro.opt.autotune import WorkloadCandidate

__all__ = [
    "SCHEDULE_FIELDS",
    "WARM_SEEDS",
    "nearest_tuned",
    "shape_distance",
    "warm_seed_candidates",
    "warm_seed_configs",
]

#: How many of the nearest tuned entries seed one sweep.
WARM_SEEDS = 2

#: Configuration fields that make up a *schedule* (copied from a neighbour's
#: winner onto the new shape; everything else — the problem dims — stays).
SCHEDULE_FIELDS = (
    "tile",
    "register_blocking",
    "stride",
    "b_window",
    "stage",
    "prefetch",
    "unroll_inner",
    "double_buffer",
    "pad",
    "threads",
    "k_window",
)


def shape_distance(a: tuple[tuple[str, int], ...], b: tuple[tuple[str, int], ...]) -> float:
    """Log-space distance between two shapes (inf when dims disagree).

    >>> round(shape_distance((("m", 96), ("n", 96)), (("m", 96), ("n", 192))), 3)
    0.693
    """
    if tuple(dim for dim, _ in a) != tuple(dim for dim, _ in b):
        return float("inf")
    return sum(
        abs(math.log(max(x, 1)) - math.log(max(y, 1)))
        for (_, x), (_, y) in zip(a, b)
    )


def nearest_tuned(
    store: KernelStore,
    workload: str,
    gpu_key: str,
    shape: tuple[tuple[str, int], ...],
    *,
    limit: int = 2,
) -> list[dict]:
    """Metas of the nearest tuned entries: same workload and GPU, closest shape.

    Entries *at* the requested shape are excluded — a same-shape entry would
    have been a store hit, and seeding from it would be circular.
    """
    ranked: list[tuple[float, dict]] = []
    for meta in store.metas():
        if meta.get("kind") != "tuned":
            continue
        if meta.get("workload") != workload or meta.get("gpu") != gpu_key:
            continue
        winner = meta.get("winner_schedule")
        other = tuple(
            (dim, int(size)) for dim, size in meta.get("shape", []) if dim
        )
        if not isinstance(winner, dict) or not other:
            continue
        distance = shape_distance(shape, other)
        if distance == 0.0 or math.isinf(distance):
            continue
        ranked.append((distance, meta))
    ranked.sort(key=lambda pair: (pair[0], str(pair[1].get("key"))))
    return [meta for _, meta in ranked[:limit]]


def warm_seed_configs(
    base_config: object,
    neighbours: list[dict],
    *,
    valid=None,
) -> list[object]:
    """Neighbour winners re-instantiated at ``base_config``'s shape, as configs.

    Copies the :data:`SCHEDULE_FIELDS` present on both the neighbour's
    recorded winner and the config; ``valid`` (when given) filters seeds the
    target's structural rules reject — a 96-wide tile seed makes no sense on
    a 24-wide problem class, say.  Duplicate seeds collapse to the closest.
    """
    seeds: list[object] = []
    for meta in neighbours:
        winner = meta.get("winner_schedule", {})
        fields = {
            name: winner[name]
            for name in SCHEDULE_FIELDS
            if name in winner and hasattr(base_config, name)
        }
        if not fields:
            continue
        try:
            config = replace(base_config, **fields)
        except (TypeError, ValueError):
            continue
        if config in seeds:
            continue
        if valid is not None and not valid(config):
            continue
        seeds.append(config)
    return seeds


def warm_seed_candidates(
    store: KernelStore, workload: str, gpu_key: str, config: object
) -> list[WorkloadCandidate]:
    """Seed candidates for a sweep of ``workload`` at ``config``'s shape.

    The winners of the :data:`WARM_SEEDS` nearest tuned entries
    (:func:`nearest_tuned`), re-instantiated at ``config``'s shape
    (:func:`warm_seed_configs`) and filtered by the sweep's own structural
    validity rule, as optimized
    :class:`~repro.opt.autotune.WorkloadCandidate` points labelled
    ``"{workload}:warm{i}"``.
    """
    from repro.opt.autotune import WorkloadCandidate
    from repro.tile.autotune import sgemm_point_valid

    neighbours = nearest_tuned(store, workload, gpu_key, shape_of(config), limit=WARM_SEEDS)
    valid = sgemm_point_valid if workload == "tile_sgemm" else None
    seeds = warm_seed_configs(config, neighbours, valid=valid)
    return [
        WorkloadCandidate(
            workload=workload,
            config=seed,
            optimize=True,
            label=f"{workload}:warm{index}",
        )
        for index, seed in enumerate(seeds)
    ]
