"""Seeded random fault schedules over the storage spine's site catalogue.

:data:`SITES` names every fault point the storage layers declare; it is the
contract the chaos harness enumerates (a new injection point belongs here
so schedules start exercising it).  :func:`random_plan` draws a small random
rule set over those sites from one seed — the unit of replay for
``tests/kcache/test_chaos.py`` and the CI chaos smoke: the same seed always
yields the same schedule, so a failing schedule is a one-integer repro.
"""

from __future__ import annotations

import random

from repro.faults.injector import FaultPlan, FaultRule

__all__ = ["SITES", "MUTATE_SITES", "DESTRUCTIVE_KINDS", "random_plan"]

#: Every plain fault point the storage layers pass through.
SITES = (
    "kcache.store.payload.write",
    "kcache.store.payload.commit",
    "kcache.store.payload.committed",
    "kcache.store.meta.write",
    "kcache.store.meta.commit",
    "kcache.store.meta.committed",
    "kcache.store.read.meta",
    "kcache.store.read.payload",
    "kcache.store.unlink",
    "kcache.store.poison.write",
    "kcache.store.poison.commit",
    "kcache.store.poison.committed",
    "kcache.store.poison.read",
    "kcache.locks.claim",
    "kcache.locks.read",
    "kcache.locks.release",
    "telemetry.ledger.append",
)

#: Mutate points: the bytes being written/read pass through these.
MUTATE_SITES = (
    "kcache.store.payload.write",
    "kcache.store.meta.write",
    "kcache.store.read.payload",
)

#: Fault kinds that can destroy or hide an already-committed entry — the
#: chaos invariant "one durable build per key" is scaled by these, because a
#: torn write or an injected read error legitimately costs a rebuild.
DESTRUCTIVE_KINDS = ("torn", "eio", "enospc", "erofs", "crash", "abort")

#: Kinds :func:`random_plan` draws from (abort only fires when the plan's
#: process opted in; elsewhere it downgrades to an in-process crash).
_PLAIN_KINDS = ("eio", "enospc", "erofs", "delay", "crash")


def random_plan(
    seed: int,
    *,
    max_rules: int = 5,
    allow_abort: bool = False,
    delay_s: float = 0.002,
) -> FaultPlan:
    """A seeded random :class:`FaultPlan` over the site catalogue.

    Draws 1..``max_rules`` rules, each aimed at one concrete site (plain
    kinds) or one mutate site (``torn``), with small fire budgets and skip
    offsets so faults land at different depths of a request sequence.
    """
    rng = random.Random(seed)
    rules: list[FaultRule] = []
    for _ in range(rng.randint(1, max_rules)):
        if rng.random() < 0.25:
            rules.append(
                FaultRule(
                    sites=rng.choice(MUTATE_SITES),
                    kind="torn",
                    probability=rng.uniform(0.5, 1.0),
                    times=rng.randint(1, 2),
                    skip=rng.randint(0, 2),
                    torn_keep=rng.choice([None, 0.0, 0.5, 0.95]),
                )
            )
            continue
        kind = rng.choice(_PLAIN_KINDS)
        rules.append(
            FaultRule(
                sites=rng.choice(SITES),
                kind=kind,
                probability=rng.uniform(0.5, 1.0),
                times=rng.randint(1, 3),
                skip=rng.randint(0, 2),
                delay_s=delay_s if kind == "delay" else 0.0,
            )
        )
    return FaultPlan(rules, seed=seed, allow_abort=allow_abort)
