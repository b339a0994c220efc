"""Lightweight span tracing with Chrome trace-event export.

The tracer is a deliberately small nesting-span recorder: code under
measurement opens spans with :func:`trace_span` (a no-op when the installed
:class:`repro.context.Context` has no tracer, so instrumented library code
pays one context read on the cold path), and a :class:`Tracer` installed
with ``repro.context.session(tracer=Tracer())`` turns the spans into Chrome
trace-event JSON that ``chrome://tracing`` and Perfetto load directly.

Determinism is a design constraint, not an afterthought: the clock is
injectable, so tests drive a fake counter and get byte-stable traces, while
production use defaults to :func:`time.perf_counter`.

Example (deterministic fake clock)::

    >>> ticks = iter(range(100))
    >>> tracer = Tracer(clock=lambda: next(ticks) * 0.001)
    >>> with tracer.span("lower", category="tile", kernel="sgemm"):
    ...     pass
    >>> event = tracer.events[0]
    >>> (event.name, event.category, event.start_us, event.duration_us)
    ('lower', 'tile', 0.0, 1000.0)
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.context import current, install

__all__ = [
    "TraceEvent",
    "Tracer",
    "trace_instant",
    "trace_span",
]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded span (``phase == "X"``) or instant (``phase == "i"``).

    Timestamps are microseconds relative to the tracer's construction, the
    unit the Chrome trace-event format mandates.
    """

    name: str
    category: str
    start_us: float
    duration_us: float
    phase: str = "X"
    args: dict = field(default_factory=dict)

    def as_chrome_event(self) -> dict:
        """The Chrome trace-event JSON object for this event."""
        event: dict = {
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "ts": self.start_us,
            "pid": 1,
            "tid": 1,
        }
        if self.phase == "X":
            event["dur"] = self.duration_us
        else:
            event["s"] = "t"  # instant scope: thread
        if self.args:
            event["args"] = dict(self.args)
        return event


class Tracer:
    """Records nested spans against an injectable monotonic clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds.  Defaults to
        :func:`time.perf_counter`; tests inject a fake counter for
        deterministic traces.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self._origin = self._clock()
        self.events: list[TraceEvent] = []

    def _now_us(self) -> float:
        return (self._clock() - self._origin) * 1e6

    @contextmanager
    def span(self, name: str, category: str = "repro", **args: object) -> Iterator[dict]:
        """Record a complete ("X") event spanning the ``with`` body.

        Yields the event's mutable ``args`` dict so the body can attach
        results discovered mid-span (candidate counts, cycle figures, ...).
        """
        span_args: dict = dict(args)
        start = self._now_us()
        try:
            yield span_args
        finally:
            end = self._now_us()
            self.events.append(
                TraceEvent(
                    name=name,
                    category=category,
                    start_us=start,
                    duration_us=end - start,
                    phase="X",
                    args=span_args,
                )
            )

    def instant(self, name: str, category: str = "repro", **args: object) -> None:
        """Record a zero-duration instant ("i") event."""
        self.events.append(
            TraceEvent(
                name=name,
                category=category,
                start_us=self._now_us(),
                duration_us=0.0,
                phase="i",
                args=dict(args),
            )
        )

    def to_chrome_trace(self) -> dict:
        """The Perfetto/``chrome://tracing``-loadable trace object."""
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [event.as_chrome_event() for event in self.events],
        }

    def dump(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1, sort_keys=True)


# Kept for the e2e benchmark's recorder (benchmarks/e2e/spans.py) and its
# test; library code installs through :func:`repro.context.session`.
def install_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` in the process context; returns the previous one."""
    return install(replace(current(), tracer=tracer)).tracer


# Kept for the e2e benchmark's harness test; library code reads
# :func:`repro.context.current`.
def current_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is off."""
    return current().tracer


@contextmanager
def trace_span(name: str, category: str = "repro", **args: object) -> Iterator[dict]:
    """Span against the installed tracer; a cheap no-op when tracing is off.

    Always yields an args dict so instrumented code can attach results
    unconditionally; without a tracer the dict is simply discarded.
    """
    tracer = current().tracer
    if tracer is None:
        yield {}
        return
    with tracer.span(name, category, **args) as span_args:
        yield span_args


def trace_instant(name: str, category: str = "repro", **args: object) -> None:
    """Instant event against the installed tracer; no-op when tracing is off."""
    tracer = current().tracer
    if tracer is not None:
        tracer.instant(name, category, **args)
