"""Facade semantics of :mod:`repro.telemetry.metrics`.

Covers the registry's series algebra (counters, gauges, histogram
summaries) and the facade's routing through :mod:`repro.context`: helpers
record into the installed registry and are no-ops without one.  The
zero-allocation pin of the uninstalled helpers is in ``tests/test_context.py``.
"""

from __future__ import annotations

from repro.context import current, session
from repro.telemetry.metrics import (
    HistogramStat,
    MetricsRegistry,
    counter_inc,
    current_metrics,
    gauge_set,
    install_metrics,
    observe,
)

LABELS = (("cache", "scheduled_procs"),)


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.counter_inc("hits", 1, LABELS)
        registry.counter_inc("hits", 2, LABELS)
        registry.counter_inc("hits", 10, (("cache", "lowered"),))
        assert registry.counter_value("hits", LABELS) == 3.0
        assert registry.counter_value("hits", (("cache", "lowered"),)) == 10.0
        assert registry.counter_value("hits") == 0.0  # unlabeled series distinct

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        registry.counter_inc("n", 1, (("a", "1"), ("b", "2")))
        registry.counter_inc("n", 1, (("b", "2"), ("a", "1")))
        assert registry.counter_value("n", (("a", "1"), ("b", "2"))) == 2.0

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        assert registry.gauge_value("cycles") is None
        registry.gauge_set("cycles", 100.0)
        registry.gauge_set("cycles", 42.0)
        assert registry.gauge_value("cycles") == 42.0

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            registry.observe("delta", value)
        stat = registry.histogram_stat("delta")
        assert stat.count == 3
        assert stat.sum == 6.0
        assert stat.min == 1.0
        assert stat.max == 3.0
        assert stat.mean == 2.0

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.counter_inc("n")
        registry.observe("h", 1.0)
        snap = registry.snapshot()
        registry.counter_inc("n")
        registry.observe("h", 5.0)
        assert snap.counters[("n", ())] == 1.0
        assert snap.histograms[("h", ())].count == 1

    def test_counter_total_sums_label_sets(self):
        registry = MetricsRegistry()
        registry.counter_inc("hits", 2, (("cache", "a"),))
        registry.counter_inc("hits", 3, (("cache", "b"),))
        assert registry.snapshot().counter_total("hits") == 5.0


class TestFacade:
    def test_uninstalled_calls_are_noops(self):
        assert current().metrics is None
        counter_inc("n")
        gauge_set("g", 1.0)
        observe("h", 1.0)  # nothing raised, nothing recorded anywhere

    def test_session_installs_and_restores(self):
        registry = MetricsRegistry()
        with session(metrics=registry):
            assert current().metrics is registry
            counter_inc("n", 7)
            assert registry.counter_value("n") == 7.0
        assert current().metrics is None

    def test_sessions_nest(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with session(metrics=outer):
            counter_inc("n")
            with session(metrics=inner):
                counter_inc("n")
                assert inner.counter_value("n") == 1.0
            assert current().metrics is outer
            assert outer.counter_value("n") == 1.0

    def test_install_returns_previous(self):
        """The delegation the e2e benchmark's recorder installs through."""
        registry = MetricsRegistry()
        assert install_metrics(registry) is None
        assert current_metrics() is registry
        assert install_metrics(None) is registry
        assert current_metrics() is None

    def test_installed_facade_records(self):
        registry = MetricsRegistry()
        with session(metrics=registry):
            counter_inc("n", 2, LABELS)
            gauge_set("g", 3.0)
            observe("h", 4.0)
        assert registry.counter_value("n", LABELS) == 2.0
        assert registry.gauge_value("g") == 3.0
        assert registry.histogram_stat("h").sum == 4.0


class TestHistogramStatRoundTrip:
    def test_as_dict_from_dict(self):
        stat = HistogramStat()
        stat.observe(1.5)
        stat.observe(-2.0)
        assert HistogramStat.from_dict(stat.as_dict()) == stat

    def test_empty_round_trip_drops_infinities(self):
        empty = HistogramStat()
        payload = empty.as_dict()
        assert "min" not in payload and "max" not in payload
        assert HistogramStat.from_dict(payload) == empty
