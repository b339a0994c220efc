"""Tracer determinism, no-op plumbing and Chrome trace-event export."""

from __future__ import annotations

import json

import pytest

from repro.context import current, session
from repro.opt.autotune import autotune_workloads
from repro.prof import Tracer, trace_instant, trace_span
from repro.prof.trace import current_tracer, install_tracer
from repro.tile.workloads import TileTransposeConfig
from repro.opt.autotune import WorkloadCandidate


def fake_clock(step_s: float = 0.001):
    """A deterministic clock advancing ``step_s`` per call."""
    state = {"t": 0.0}

    def clock() -> float:
        value = state["t"]
        state["t"] += step_s
        return value

    return clock


class TestTracer:
    def test_fake_clock_spans_are_deterministic(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("outer", category="test", layer=1):
            with tracer.span("inner", category="test"):
                pass
        # Construction reads the clock once (origin); every subsequent read
        # advances 1000us, and the inner span closes first.
        inner, outer = tracer.events
        assert (inner.name, inner.start_us, inner.duration_us) == ("inner", 2000.0, 1000.0)
        assert (outer.name, outer.start_us, outer.duration_us) == ("outer", 1000.0, 3000.0)
        assert outer.args == {"layer": 1}

    def test_span_args_mutable_mid_span(self):
        tracer = Tracer(clock=fake_clock())
        with tracer.span("sweep") as args:
            args["kept"] = 7
        assert tracer.events[0].args == {"kept": 7}

    def test_instant_events(self):
        tracer = Tracer(clock=fake_clock())
        tracer.instant("hit", category="cache", key="abc")
        event = tracer.events[0]
        assert event.phase == "i"
        assert event.duration_us == 0.0
        assert event.as_chrome_event()["s"] == "t"

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer(clock=fake_clock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert [e.name for e in tracer.events] == ["doomed"]


class TestGlobalTracer:
    def test_trace_span_is_noop_without_tracer(self):
        assert current().tracer is None
        with trace_span("ignored") as args:
            args["x"] = 1  # must not raise
        trace_instant("ignored")
        assert current().tracer is None

    def test_tracing_installs_and_restores(self):
        tracer = Tracer(clock=fake_clock())
        with session(tracer=tracer):
            assert current().tracer is tracer
            with trace_span("work", category="test"):
                trace_instant("tick")
        assert current().tracer is None
        assert [e.name for e in tracer.events] == ["tick", "work"]

    def test_install_tracer_returns_previous(self):
        """The delegation the e2e benchmark's recorder installs through."""
        first = Tracer(clock=fake_clock())
        assert install_tracer(first) is None
        second = Tracer(clock=fake_clock())
        assert install_tracer(second) is first
        assert current_tracer() is second
        assert install_tracer(None) is second


class TestChromeExport:
    def _validate_schema(self, trace: dict) -> list[dict]:
        """The Chrome trace-event schema constraints Perfetto relies on."""
        assert set(trace) == {"displayTimeUnit", "traceEvents"}
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert isinstance(event["name"], str) and event["name"]
            assert isinstance(event["cat"], str)
            assert event["ph"] in ("X", "i")
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
            if event["ph"] == "X":
                assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            else:
                assert event["s"] == "t"
        return events

    def test_autotune_sweep_trace_schema(self, fermi, tmp_path):
        """One traced autotune sweep exports a valid, strict-JSON Chrome trace."""
        config = TileTransposeConfig()
        candidates = [
            WorkloadCandidate(workload="tile_transpose", config=config,
                              optimize=False, label="transpose:naive"),
            WorkloadCandidate(workload="tile_transpose", config=config,
                              optimize=True, label="transpose:pipeline"),
        ]
        tracer = Tracer()
        with session(tracer=tracer):
            outcomes = autotune_workloads(fermi, candidates, workers=1)
        assert all(outcome.ok for outcome in outcomes)

        path = tmp_path / "sweep.trace.json"
        tracer.dump(str(path))
        # Strict JSON (no NaN/Infinity): Perfetto rejects non-standard JSON.
        trace = json.loads(path.read_text(encoding="utf-8"))
        json.dumps(trace, allow_nan=False)
        events = self._validate_schema(trace)

        names = [event["name"] for event in events]
        # The sweep span, one instant per candidate, and the instrumented
        # layers underneath: schedule primitives, lowering, opt passes.
        assert "autotune.sweep" in names
        assert sum(1 for name in names if name.startswith("candidate.")) == 2
        assert any(name.startswith("schedule.") for name in names)
        assert any(name.startswith("lower.") for name in names)
        assert any(name.startswith("opt.") for name in names)
        sweep = next(event for event in events if event["name"] == "autotune.sweep")
        assert sweep["args"]["candidates"] == 2
