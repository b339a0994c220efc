"""The process-wide observation context: one install point for every facade.

Library code reports to five optional collaborators — the span tracer
(:mod:`repro.prof.trace`), the metrics registry
(:mod:`repro.telemetry.metrics`), the run ledger
(:mod:`repro.telemetry.ledger`), the fault plan (:mod:`repro.faults`) and the
default kernel store (:mod:`repro.kcache.store`).  One frozen
:class:`Context` holds all five, and one module value holds the installed
context.  The per-event helpers (``trace_span``, ``counter_inc``,
``record_run``, ``fault_point`` and the rest) read :func:`current` and do
nothing when their slot is None, so with nothing installed the instrumented
paths cost one call and one attribute read, and allocate nothing.

The value is a plain module global, not a :class:`contextvars.ContextVar`:
every thread of the process sees the installed context, and a forked pool
worker starts with its parent's.

:func:`session` installs the named slots for a ``with`` body and restores
the whole previous context on exit, also when the body raises::

    >>> from repro.telemetry.metrics import MetricsRegistry, counter_inc
    >>> with session(metrics=MetricsRegistry()) as context:
    ...     counter_inc("sweep.candidates", 5)
    >>> context.metrics.counter_value("sweep.candidates")
    5.0
    >>> current().metrics is None
    True

This module imports nothing from ``repro`` at run time, so every layer may
depend on it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.faults.injector import FaultPlan
    from repro.kcache.store import KernelStore
    from repro.prof.trace import Tracer
    from repro.telemetry.ledger import RunLedger
    from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Context", "current", "install", "session"]


@dataclass(frozen=True)
class Context:
    """What instrumented code reports to; a None slot is off.

    Attributes
    ----------
    tracer:
        Receives ``trace_span`` / ``trace_instant`` events.
    metrics:
        Receives ``counter_inc`` / ``gauge_set`` / ``observe``.
    ledger:
        Receives ``record_run`` appends.
    faults:
        Decides what ``fault_point`` / ``fault_mutate`` inject.
    store:
        The kernel store of requests that name none.
    """

    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    ledger: RunLedger | None = None
    faults: FaultPlan | None = None
    store: KernelStore | None = None


_CURRENT = Context()


def current() -> Context:
    """The installed context (every slot None until something installs)."""
    return _CURRENT


def install(context: Context) -> Context:
    """Install ``context`` process-wide; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = context
    return previous


@contextmanager
def session(**slots: object) -> Iterator[Context]:
    """Install the named slots over the current context for the ``with`` body.

    Yields the installed context.  On exit the previous context comes back
    whole, so sessions nest and a raising body leaks nothing.
    """
    context = replace(_CURRENT, **slots)
    previous = install(context)
    try:
        yield context
    finally:
        install(previous)
