"""The fault-injection layer itself: rules, plans, facade, no-op cost."""

from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path

import pytest

import repro.faults
from repro.faults import (
    DESTRUCTIVE_KINDS,
    FAULT_KINDS,
    MUTATE_SITES,
    SITES,
    FaultError,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    current_faults,
    fault_mutate,
    fault_point,
    faults_session,
    install_faults,
    random_plan,
)


@pytest.fixture(autouse=True)
def no_installed_plan():
    """Every test starts and ends with fault injection off."""
    install_faults(None)
    yield
    install_faults(None)


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultRule(sites="kcache.*", kind="meteor")

    def test_probability_outside_unit_interval_rejected(self):
        with pytest.raises(FaultError):
            FaultRule(sites="kcache.*", kind="eio", probability=1.5)

    def test_every_declared_kind_constructs(self):
        for kind in FAULT_KINDS:
            FaultRule(sites="x", kind=kind)


class TestFaultPlan:
    def test_errno_kinds_raise_oserror_with_matching_errno(self):
        import errno

        for kind, expected in (("eio", errno.EIO), ("enospc", errno.ENOSPC),
                               ("erofs", errno.EROFS)):
            plan = FaultPlan([FaultRule(sites="site", kind=kind)])
            with pytest.raises(OSError) as excinfo:
                plan.hit("site")
            assert excinfo.value.errno == expected
            assert plan.fired == [("site", kind)]

    def test_times_bounds_fires(self):
        plan = FaultPlan([FaultRule(sites="site", kind="eio", times=2)])
        for _ in range(2):
            with pytest.raises(OSError):
                plan.hit("site")
        plan.hit("site")  # budget exhausted: passes through
        assert plan.fired_count() == 2

    def test_skip_lets_early_passes_through(self):
        plan = FaultPlan([FaultRule(sites="site", kind="eio", skip=2)])
        plan.hit("site")
        plan.hit("site")
        with pytest.raises(OSError):
            plan.hit("site")

    def test_sites_pattern_is_fnmatch(self):
        plan = FaultPlan([FaultRule(sites="kcache.store.meta.*", kind="eio", times=None)])
        plan.hit("kcache.store.payload.write")  # no match
        with pytest.raises(OSError):
            plan.hit("kcache.store.meta.commit")

    def test_crash_is_baseexception_not_exception(self):
        """Broad ``except Exception`` guards must not swallow a crash."""
        plan = FaultPlan([FaultRule(sites="site", kind="crash")])
        with pytest.raises(InjectedCrash):
            try:
                plan.hit("site")
            except Exception:  # noqa: BLE001 - the guard under test
                pytest.fail("InjectedCrash was absorbed by `except Exception`")
        assert not issubclass(InjectedCrash, Exception)

    def test_abort_downgrades_to_crash_without_opt_in(self):
        """A stray abort rule must never kill the test runner."""
        plan = FaultPlan([FaultRule(sites="site", kind="abort")], allow_abort=False)
        with pytest.raises(InjectedCrash):
            plan.hit("site")

    def test_delay_sleeps_and_passes(self):
        import time

        plan = FaultPlan([FaultRule(sites="site", kind="delay", delay_s=0.02)])
        started = time.perf_counter()
        plan.hit("site")
        assert time.perf_counter() - started >= 0.015

    def test_torn_truncates_payload(self):
        plan = FaultPlan([FaultRule(sites="site", kind="torn", torn_keep=0.5)])
        data = bytes(range(100))
        torn = plan.mutate("site", data)
        assert len(torn) <= 50
        assert plan.fired == [("site", "torn")]

    def test_torn_fires_only_at_mutate_points(self):
        plan = FaultPlan([FaultRule(sites="site", kind="torn")])
        plan.hit("site")  # a plain pass: torn rules don't apply
        assert plan.fired_count() == 0

    def test_plain_kinds_do_not_fire_at_mutate_points(self):
        plan = FaultPlan([FaultRule(sites="site", kind="eio")])
        assert plan.mutate("site", b"data") == b"data"
        assert plan.fired_count() == 0

    def test_same_seed_replays_identically(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule(sites="site", kind="eio", probability=0.5, times=None)],
                seed=seed,
            )
            outcomes = []
            for _ in range(32):
                try:
                    plan.hit("site")
                    outcomes.append(0)
                except OSError:
                    outcomes.append(1)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)  # overwhelmingly likely for 32 coin flips

    def test_fired_count_filters_by_kind(self):
        plan = FaultPlan([
            FaultRule(sites="a", kind="eio"),
            FaultRule(sites="b", kind="delay", delay_s=0.0),
        ])
        with pytest.raises(OSError):
            plan.hit("a")
        plan.hit("b")
        assert plan.fired_count() == 2
        assert plan.fired_count("eio") == 1
        assert plan.fired_count(*DESTRUCTIVE_KINDS) == 1  # delay is benign


class TestFacade:
    def test_uninstalled_points_are_noops(self):
        assert current_faults() is None
        fault_point("anything")
        assert fault_mutate("anything", b"data") == b"data"

    def test_install_returns_previous(self):
        plan = FaultPlan([])
        assert install_faults(plan) is None
        assert current_faults() is plan
        assert install_faults(None) is plan

    def test_session_restores_previous_plan(self):
        outer = FaultPlan([])
        install_faults(outer)
        inner = FaultPlan([FaultRule(sites="site", kind="eio")])
        with faults_session(inner) as active:
            assert active is inner
            with pytest.raises(OSError):
                fault_point("site")
        assert current_faults() is outer

    def test_uninstalled_fault_point_allocates_nothing(self):
        """The no-op path must not tax the warm-hit path of get_kernel."""
        fault_point("kcache.store.read.meta")  # warm any lazy state
        fault_mutate("kcache.store.read.meta", b"warm")
        payload = b"payload"
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(100):
                fault_point("kcache.store.read.meta")
                fault_mutate("kcache.store.read.meta", payload)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before == 0


class TestRandomPlan:
    def test_same_seed_same_schedule(self):
        a, b = random_plan(123), random_plan(123)
        assert a.rules == b.rules

    def test_every_catalogued_site_is_named_by_a_library_module(self):
        """A catalogue entry no library code passes through is a rule that
        can never fire; :func:`random_plan` must not draw it."""
        faults_dir = Path(repro.faults.__file__).parent
        literals: set[str] = set()
        for path in faults_dir.parent.rglob("*.py"):
            if faults_dir in path.parents:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
        assert sorted(set(SITES + MUTATE_SITES) - literals) == []

    def test_rules_stay_inside_the_site_catalogue(self):
        for seed in range(50):
            for rule in random_plan(seed).rules:
                if rule.kind == "torn":
                    assert rule.sites in MUTATE_SITES
                else:
                    assert rule.sites in SITES

    def test_abort_gated_by_default(self):
        for seed in range(50):
            assert not random_plan(seed).allow_abort
