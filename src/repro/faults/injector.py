"""Deterministic, seeded fault injection for the storage spine.

The kernel cache is only as good as its failure paths, and failure paths
that only fire when a disk actually fills are failure paths that have never
run.  This module makes them run on demand: the filesystem operations of
:mod:`repro.kcache.store`, :mod:`repro.kcache.locks` and
:mod:`repro.telemetry.ledger` each pass through a named *fault point*, and
an installed :class:`FaultPlan` decides — deterministically, from a seed —
whether that point raises ``EIO``, reports a full (``ENOSPC``) or read-only
(``EROFS``) filesystem, tears the bytes being written, sleeps, or dies
outright mid-operation.

The facade follows the contract of :mod:`repro.telemetry.metrics`: library
code calls :func:`fault_point` / :func:`fault_mutate` unconditionally, and
when no plan is installed both are strict no-ops — one module-global read,
zero allocations (the test suite pins this with tracemalloc, because the
fault points sit on the warm-hit path of ``get_kernel``).

Determinism is the point.  The Lai & Seznec methodology gives every cached
artifact a bit-exact oracle, so a chaos schedule that replays identically
from its seed turns "the service survived" into a machine-checkable
invariant: under any schedule, every request returns a provably correct
kernel or a typed :class:`repro.errors.KernelCacheError` — never a silently
wrong one.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterator, Sequence

from repro.errors import ReproError
from repro.telemetry.metrics import counter_inc

__all__ = [
    "ABORT_EXIT_STATUS",
    "FAULT_KINDS",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "current_faults",
    "fault_mutate",
    "fault_point",
    "faults_session",
    "install_faults",
]

#: Every fault kind a rule may inject.
FAULT_KINDS = ("eio", "enospc", "erofs", "torn", "delay", "crash", "abort")

#: Errno raised per filesystem-error kind.
_ERRNO_OF = {"eio": errno.EIO, "enospc": errno.ENOSPC, "erofs": errno.EROFS}

#: Exit status of an ``abort`` fault (a simulated ``kill -9`` mid-commit).
ABORT_EXIT_STATUS = 70


class InjectedCrash(BaseException):
    """A simulated process death at a fault point.

    Derives from :class:`BaseException` so that library code catching broad
    ``Exception`` (torn-pickle guards, best-effort cache writes) cannot
    absorb it — a crash propagates the way a real ``SIGKILL`` would end the
    process.  Chaos-harness workers catch it at top level and ``os._exit``.
    """


class FaultError(ReproError):
    """An invalid fault rule or plan (bad kind, bad probability)."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *where* (site pattern), *what* (kind), *when*.

    Attributes
    ----------
    sites:
        ``fnmatch`` pattern over fault-point names, e.g.
        ``"kcache.store.meta.*"`` or ``"kcache.locks.claim"``.
    kind:
        One of :data:`FAULT_KINDS`.  ``torn`` only applies at mutate points
        (it rewrites the bytes about to be written); every other kind fires
        at plain fault points.
    probability:
        Chance a matching pass fires, decided by the plan's seeded RNG.
    times:
        Maximum number of fires (None = unbounded).
    skip:
        Matching passes to let through before the rule may fire.
    delay_s:
        Sleep length of a ``delay`` fault.
    torn_keep:
        Fraction of the payload a ``torn`` fault keeps (None = the seeded
        RNG picks in [0, 0.9]).
    """

    sites: str
    kind: str
    probability: float = 1.0
    times: int | None = 1
    skip: int = 0
    delay_s: float = 0.0
    torn_keep: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(f"probability {self.probability!r} outside [0, 1]")


class FaultPlan:
    """A seeded schedule of :class:`FaultRule` firings.

    All randomness (fire decisions, torn-byte positions) flows from one
    ``random.Random(seed)``, so a plan replays identically: the same seed,
    rules and sequence of fault-point passes produce the same injected
    faults.  ``fired`` records every injection as ``(site, kind)`` pairs —
    chaos harnesses use it to count injected faults and to scale their
    invariants (a torn write legitimately costs a rebuild).

    ``allow_abort`` gates the ``abort`` kind: only a process that has opted
    in (a chaos-pool worker) actually ``os._exit``\\ s; everywhere else an
    ``abort`` downgrades to raising :class:`InjectedCrash`, so a stray rule
    can never kill the test runner.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule],
        *,
        seed: int = 0,
        allow_abort: bool = False,
    ) -> None:
        import random

        self.rules = tuple(rules)
        self.seed = seed
        self.allow_abort = allow_abort
        self.fired: list[tuple[str, str]] = []
        self._rng = random.Random(seed)
        self._matches = [0] * len(self.rules)
        self._fires = [0] * len(self.rules)
        self._lock = threading.Lock()

    def fired_count(self, *kinds: str) -> int:
        """How many faults fired (of ``kinds``, or all kinds when empty)."""
        with self._lock:
            if not kinds:
                return len(self.fired)
            return sum(1 for _, kind in self.fired if kind in kinds)

    def _select(self, site: str, *, mutate: bool) -> FaultRule | None:
        """The first rule firing at ``site`` on this pass, bookkeeping done."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                if (rule.kind == "torn") != mutate:
                    continue
                if not fnmatchcase(site, rule.sites):
                    continue
                self._matches[index] += 1
                if self._matches[index] <= rule.skip:
                    continue
                if rule.times is not None and self._fires[index] >= rule.times:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                self._fires[index] += 1
                self.fired.append((site, rule.kind))
                return rule
        return None

    def hit(self, site: str) -> None:
        """Apply the plan at a plain fault point (may raise, sleep or exit)."""
        rule = self._select(site, mutate=False)
        if rule is None:
            return
        counter_inc("faults.injected", 1, (("kind", rule.kind), ("site", site)))
        if rule.kind == "delay":
            time.sleep(rule.delay_s)
            return
        if rule.kind == "crash" or (rule.kind == "abort" and not self.allow_abort):
            raise InjectedCrash(site)
        if rule.kind == "abort":
            os._exit(ABORT_EXIT_STATUS)
        raise OSError(_ERRNO_OF[rule.kind], os.strerror(_ERRNO_OF[rule.kind]), site)

    def mutate(self, site: str, data: bytes) -> bytes:
        """Apply the plan at a mutate point: possibly tear ``data``."""
        rule = self._select(site, mutate=True)
        if rule is None:
            return data
        counter_inc("faults.injected", 1, (("kind", rule.kind), ("site", site)))
        with self._lock:
            keep = rule.torn_keep
            if keep is None:
                keep = self._rng.uniform(0.0, 0.9)
            kept = int(len(data) * keep)
            torn = bytearray(data[:kept])
            if torn and self._rng.random() < 0.5:
                # Half the time the tear also flips a byte, not just truncates.
                position = self._rng.randrange(len(torn))
                torn[position] ^= 0xFF
        return bytes(torn)


# --------------------------------------------------------------------------- #
# The process-wide facade.                                                     #
# --------------------------------------------------------------------------- #

#: The installed plan fault points consult (None = faults off, strict no-op).
_CURRENT: FaultPlan | None = None


def install_faults(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` as the process-wide fault plan; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = plan
    return previous


def current_faults() -> FaultPlan | None:
    """The installed plan, or None when fault injection is off."""
    return _CURRENT


@contextmanager
def faults_session(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the ``with`` body, restoring the previous plan."""
    previous = install_faults(plan)
    try:
        yield plan
    finally:
        install_faults(previous)


def fault_point(site: str) -> None:
    """Pass through the fault point ``site``; a no-op when faults are off.

    Call sites pass constant strings, so the uninstalled path is one global
    read and a None check — zero allocations.
    """
    plan = _CURRENT
    if plan is not None:
        plan.hit(site)


def fault_mutate(site: str, data: bytes) -> bytes:
    """Pass ``data`` through the mutate point ``site``; identity when off."""
    plan = _CURRENT
    if plan is None:
        return data
    return plan.mutate(site, data)
