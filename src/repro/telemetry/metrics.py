"""Process-wide metrics facade: labeled counters, gauges and histograms.

The facade mirrors the tracer's design contract (:mod:`repro.prof.trace`):
instrumented library code reports unconditionally, and the cost of *not*
observing is one context read — when the installed
:class:`repro.context.Context` has no :class:`MetricsRegistry`, every facade
call returns immediately without allocating.  That strictness is
load-bearing: the autotune sweep, the opt pipeline and ``run_workload`` are
instrumented on their hot paths, and the test suite pins the uninstalled
facade at zero retained allocations per call.

Labels are passed as a tuple of ``(key, value)`` pairs rather than keyword
arguments, so call sites with constant labels compile to a constant tuple
(CPython folds nested constant tuples) and the no-op path allocates nothing::

    counter_inc("kcache.hits", 1, (("mode", "tuned"),))

Example::

    >>> from repro.context import session
    >>> registry = MetricsRegistry()
    >>> with session(metrics=registry):
    ...     counter_inc("sweep.candidates", 5)
    ...     observe("sweep.prune_seconds", 0.5)
    >>> registry.counter_value("sweep.candidates")
    5.0
    >>> registry.histogram_stat("sweep.prune_seconds").sum
    0.5
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Tuple

from repro.context import current, install

__all__ = [
    "HistogramStat",
    "LabelPairs",
    "MetricsRegistry",
    "MetricsSnapshot",
    "counter_inc",
    "gauge_set",
    "observe",
]

#: Labels as a tuple of (key, value) pairs.  Constant at most call sites.
LabelPairs = Tuple[Tuple[str, str], ...]


def _canonical(labels: Iterable[tuple[str, object]]) -> LabelPairs:
    """Sorted, stringified label pairs — one identity per label *set*."""
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels))


@dataclass
class HistogramStat:
    """Streaming summary of one histogram series: count, sum, min, max.

    A full bucketed histogram is deliberately out of scope — the figures the
    sweep and pipeline record (durations, deltas) are consumed as rollups,
    and count/sum/min/max round-trip exactly through the JSON exporter.
    """

    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-safe view (an empty series omits the infinite min/max)."""
        payload: dict[str, float] = {"count": self.count, "sum": self.sum}
        if self.count:
            payload["min"] = self.min
            payload["max"] = self.max
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, float]) -> "HistogramStat":
        """Inverse of :meth:`as_dict`."""
        stat = cls(count=int(payload["count"]), sum=float(payload["sum"]))
        if stat.count:
            stat.min = float(payload["min"])
            stat.max = float(payload["max"])
        return stat


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable point-in-time copy of a registry's series.

    The exchange format between the registry, the exporters
    (:mod:`repro.telemetry.exporters`) and the run ledger: plain dicts keyed
    by ``(name, labels)`` pairs, fully JSON-serialisable via
    :func:`repro.telemetry.exporters.snapshot_to_json`.
    """

    counters: dict[tuple[str, LabelPairs], float] = field(default_factory=dict)
    gauges: dict[tuple[str, LabelPairs], float] = field(default_factory=dict)
    histograms: dict[tuple[str, LabelPairs], HistogramStat] = field(default_factory=dict)

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all label sets."""
        return sum(v for (n, _), v in self.counters.items() if n == name)


class MetricsRegistry:
    """Accumulates counters, gauges and histogram summaries by (name, labels)."""

    def __init__(self) -> None:
        self.counters: dict[tuple[str, LabelPairs], float] = {}
        self.gauges: dict[tuple[str, LabelPairs], float] = {}
        self.histograms: dict[tuple[str, LabelPairs], HistogramStat] = {}

    # ------------------------------------------------------------------ #
    # Recording.                                                          #
    # ------------------------------------------------------------------ #

    def counter_inc(self, name: str, value: float = 1.0, labels: LabelPairs = ()) -> None:
        """Add ``value`` (>= 0) to the counter ``name``/``labels``."""
        key = (name, _canonical(labels))
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def gauge_set(self, name: str, value: float, labels: LabelPairs = ()) -> None:
        """Set the gauge ``name``/``labels`` to ``value`` (last write wins)."""
        self.gauges[(name, _canonical(labels))] = float(value)

    def observe(self, name: str, value: float, labels: LabelPairs = ()) -> None:
        """Fold ``value`` into the histogram summary ``name``/``labels``."""
        key = (name, _canonical(labels))
        stat = self.histograms.get(key)
        if stat is None:
            stat = self.histograms[key] = HistogramStat()
        stat.observe(value)

    # ------------------------------------------------------------------ #
    # Reading.                                                            #
    # ------------------------------------------------------------------ #

    def counter_value(self, name: str, labels: LabelPairs = ()) -> float:
        """Current value of one counter series (0.0 when never incremented)."""
        return self.counters.get((name, _canonical(labels)), 0.0)

    def gauge_value(self, name: str, labels: LabelPairs = ()) -> float | None:
        """Current value of one gauge series (None when never set)."""
        return self.gauges.get((name, _canonical(labels)))

    def histogram_stat(self, name: str, labels: LabelPairs = ()) -> HistogramStat:
        """Summary of one histogram series (an empty stat when unobserved)."""
        return self.histograms.get((name, _canonical(labels)), HistogramStat())

    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of every series recorded so far."""
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={
                key: HistogramStat(count=s.count, sum=s.sum, min=s.min, max=s.max)
                for key, s in self.histograms.items()
            },
        )


# --------------------------------------------------------------------------- #
# The process-wide facade.                                                     #
# --------------------------------------------------------------------------- #


# Kept for the e2e benchmark's recorder (benchmarks/e2e/spans.py) and its
# test; library code installs through :func:`repro.context.session`.
def install_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` in the process context; returns the previous one."""
    return install(replace(current(), metrics=registry)).metrics


# Kept for the e2e benchmark's harness test; library code reads
# :func:`repro.context.current`.
def current_metrics() -> MetricsRegistry | None:
    """The installed registry, or None when metrics are off."""
    return current().metrics


def counter_inc(name: str, value: float = 1.0, labels: LabelPairs = ()) -> None:
    """Increment against the installed registry; a no-op when metrics are off."""
    registry = current().metrics
    if registry is not None:
        registry.counter_inc(name, value, labels)


def gauge_set(name: str, value: float, labels: LabelPairs = ()) -> None:
    """Set a gauge against the installed registry; no-op when metrics are off."""
    registry = current().metrics
    if registry is not None:
        registry.gauge_set(name, value, labels)


def observe(name: str, value: float, labels: LabelPairs = ()) -> None:
    """Observe into the installed registry; no-op when metrics are off."""
    registry = current().metrics
    if registry is not None:
        registry.observe(name, value, labels)
