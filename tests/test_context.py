"""The one install point (:mod:`repro.context`) and the no-op cost of its helpers."""

from __future__ import annotations

import ast
import doctest
import threading
import tracemalloc
from pathlib import Path

import pytest

import repro.context
import repro.telemetry.metrics
from repro.context import Context, current, install, session
from repro.faults import FaultPlan, fault_mutate, fault_point
from repro.kcache import KernelStore
from repro.prof.trace import Tracer, trace_instant
from repro.telemetry.ledger import RunLedger, record_run
from repro.telemetry.metrics import MetricsRegistry, counter_inc, gauge_set, observe


def test_session_installs_slots_and_restores_the_previous_context(tmp_path):
    outer = Context(metrics=MetricsRegistry(), store=KernelStore(tmp_path / "kcache"))
    assert install(outer) == Context()
    with session(tracer=Tracer(), ledger=RunLedger(tmp_path / "ledger")) as inner:
        assert current() is inner
        assert (inner.metrics, inner.store) == (outer.metrics, outer.store)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(current()))
        thread.start()
        thread.join(timeout=10)
        assert seen == [inner]  # one process-wide value, not per thread
        with pytest.raises(RuntimeError):
            with session(metrics=None, faults=FaultPlan([])):
                assert current().metrics is None
                raise RuntimeError("the body fails")
        assert current() is inner  # restored whole, also on an exception
        with pytest.raises(TypeError):
            with session(registry=MetricsRegistry()):
                pass  # not a slot
    assert current() is outer
    assert install(Context()) is outer


def test_uninstalled_helpers_retain_zero_allocations():
    """With nothing installed every helper is a context read and a None check.

    Labels and sites at real call sites are constants, so after a warm-up
    tracemalloc must see zero retained bytes across a block of calls.
    ``trace_span`` is a generator context manager and is not pinned.
    """
    assert current() == Context()
    payload = b"payload"

    def exercise() -> None:
        for _ in range(100):
            counter_inc("tile.schedule_cache.hits", 1, (("cache", "sp"),))
            gauge_set("sim.cycles", 8125.0, (("workload", "tile_sgemm"),))
            observe("opt.pass.register_delta", 0.0, (("pass", "schedule"),))
            trace_instant("candidate.golden", "autotune", cycles=8125.0, ok=True)
            record_run("sim", "run:tile_sgemm", metrics={"cycles": 8125.0})
            fault_point("kcache.store.read.meta")
            fault_mutate("kcache.store.read.meta", payload)

    exercise()  # warm up code objects, constant tuples, method caches
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        exercise()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before == 0


def test_the_context_holds_the_only_global_statement():
    package = Path(repro.context.__file__).parent
    declared = [
        (path.relative_to(package).as_posix(), node.names)
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert declared == [("context.py", ["_CURRENT"])]


@pytest.mark.parametrize("module", [repro.context, repro.telemetry.metrics])
def test_module_doctests_run_clean(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
