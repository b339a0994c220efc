"""Deterministic fault injection for the kernel-cache storage spine.

A seeded :class:`FaultPlan` (rules over named fault points) installs
process-wide — ``repro.context.session(faults=plan)``, strict no-op when
uninstalled — and the filesystem operations of ``kcache.store``,
``kcache.locks`` and ``telemetry.ledger`` pass through it: injected
``EIO``/``ENOSPC``/``EROFS``, torn payloads, delays and simulated crashes,
replayable from one seed.

See ``docs/faults.md`` for the site catalogue and the chaos-harness
invariants this layer exists to check.
"""

from repro.faults.injector import (
    ABORT_EXIT_STATUS,
    FAULT_KINDS,
    FaultError,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    fault_mutate,
    fault_point,
)
from repro.faults.schedule import DESTRUCTIVE_KINDS, MUTATE_SITES, SITES, random_plan

__all__ = [
    "ABORT_EXIT_STATUS",
    "DESTRUCTIVE_KINDS",
    "FAULT_KINDS",
    "MUTATE_SITES",
    "SITES",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "fault_mutate",
    "fault_point",
    "random_plan",
]
