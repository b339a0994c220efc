"""Summary statistics and the metric table shared by the runner and the comparer.

:data:`END_TO_END` is the single definition of every end-to-end metric —
name, unit, direction and the bound by which it may worsen before a change
counts as a regression.  ``BENCHMARK.json`` mirrors it (a harness test keeps
the two equal) and ``compare.py`` judges A/B runs against it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric: what it measures and how much it may worsen.

    ``exact`` metrics are deterministic for a given seed (simulated cycles,
    analytic bounds): two runs of one commit read identically, so A/B
    comparisons of one seed test them for equality instead of against a
    spread.
    """

    name: str
    unit: str
    better: str  # "higher" or "lower"
    bound: float
    exact: bool = False

    def worse_by(self, parent: float, change: float) -> float:
        """How much worse ``change`` reads than ``parent``, as a share of it."""
        if parent == 0:
            return 0.0 if change == parent else math.inf
        delta = (change - parent) / abs(parent)
        return delta if self.better == "lower" else -delta

    def better_than(self, a: float, b: float) -> bool:
        """Whether ``a`` reads strictly better than ``b``."""
        return a < b if self.better == "lower" else a > b


#: The gated end-to-end metrics (``BENCHMARK.json``), per workload, tracing off.
#: The two timings are at reference machine speed (``speed.py``), which
#: takes the host's drift out of them.  The kernel-quality pair is taken
#: over anchor kernels only, which are the same for every seed, so their
#: bound is zero: any change is exact.
END_TO_END: tuple[Metric, ...] = (
    Metric("ops_per_s", "ops/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("sim_cycles_geomean", "cycles", "lower", 0.0, exact=True),
    Metric("bound_fraction_geomean", "fraction", "higher", 0.0, exact=True),
)

#: The two timings as the wall clock read them, drift included: reported
#: and judged by ``compare.py``, not gated.
WALL_OPS_PER_S = Metric("wall_ops_per_s", "ops/s", "higher", 0.25)
WALL_SETUP_S = Metric("wall_setup_s", "s", "lower", 0.25)

#: Median latency, reported for every workload and judged by ``compare.py``
#: but not gated: on the hit paths about half the requests pay a full
#: garbage collection, so the median sits between two modes and jumps
#: between them from run to run.
LATENCY_P50 = Metric("latency_p50_ms", "ms", "lower", 0.10)

#: Bound fraction over the seeded strata's kernels: exact for one seed, so
#: ``compare.py`` judges it by equality (the held-out-seed check), but it
#: moves from seed to seed, so it is not gated across seeds.
SEEDED_BOUND_FRACTION = Metric("seeded_bound_fraction_geomean", "fraction", "higher", 0.0,
                               exact=True)

#: Reported where at least ten samples lie beyond it (:func:`tail_percentile`).
LATENCY_P90 = Metric("latency_p90_ms", "ms", "lower", 0.10)

#: The bound of ``fail_rate`` is zero: any rise is a regression.
FAIL_RATE = Metric("fail_rate", "fraction", "lower", 0.0, exact=True)

#: Every metric ``compare.py`` judges, in report order.
JUDGED: tuple[Metric, ...] = (
    *END_TO_END, WALL_OPS_PER_S, WALL_SETUP_S, LATENCY_P50, SEEDED_BOUND_FRACTION, FAIL_RATE,
)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def geomean(values) -> float:
    """Geometric mean of positive values.

    >>> round(geomean([1.0, 100.0]), 6)
    10.0
    """
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs at least one value, all positive")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def tail_percentile(values, percent: int = 90, min_beyond: int = 10) -> float | None:
    """The ``percent``-th percentile, or None with fewer than ``min_beyond`` above it.

    A tail percentile is only worth reporting when enough samples lie
    beyond it to pin it down; below that it is one or two outliers.
    """
    values = sorted(values)
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100, method="inclusive")[percent - 1]
    beyond = sum(1 for v in values if v > cut)
    return cut if beyond >= min_beyond else None
