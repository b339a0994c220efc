"""Generative-sweep smoke case: tiny space, bound-pruned, winner beats naive.

The CI-facing closure of the paper's §5.5 loop: generate a schedule space
mechanically, discard the analytically hopeless half without simulating, run
what survives through the shared autotune harness, and check the sweep's
winner actually beats the naive (unstaged, binding-only) schedule.
"""

import pickle
from dataclasses import replace

from repro.context import session
from repro.opt.autotune import WorkloadCandidate, autotune_workloads, evaluate_workload_candidate
from repro.opt.rewrite import kernel_hash
from repro.telemetry.metrics import MetricsRegistry
from repro.tile.autotune import prune_by_bound, run_generative_sweep, schedule_space
from repro.tile.workloads import TileSgemmConfig

TINY = TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=2)
TINY_AXES = {"tiles": (4, 8), "register_blockings": (2, 4), "strides": (2, 4), "b_windows": (1, 2)}


def _tiny_space():
    """A doll-house sweep: one block, small tiles, every knob still live."""
    return schedule_space("tile_sgemm", TINY, **TINY_AXES)


def test_double_buffer_axis_in_the_space():
    """The sweep generates double-buffered twins of staged schedule points."""
    space = _tiny_space()
    labels = {c.label for c in space}
    assert any(label.endswith("db") for label in labels)
    db = [c for c in space if c.label.endswith("db")]
    assert all(c.config.double_buffer for c in db)


def test_occupancy_kills_oversized_double_buffers(fermi):
    """Doubled tiles that cannot be resident are pruned with an infinite bound."""
    import math

    from repro.opt.autotune import WorkloadCandidate

    # 96-wide tile, L=32, doubled: ~56 KB of shared memory against Fermi's
    # 48 KB — the kernel cannot even launch, so the bound prunes it unrun.
    monster = WorkloadCandidate(
        workload="tile_sgemm",
        config=TileSgemmConfig(stride=32, double_buffer=True),
        optimize=True,
        label="tile_sgemm:db_l32",
    )
    report = prune_by_bound(fermi, [monster])
    assert not report.kept
    ((label, bound),) = report.pruned
    assert label == "tile_sgemm:db_l32" and math.isinf(bound)


def test_prune_report_carries_wall_time(fermi):
    space = _tiny_space()
    first = prune_by_bound(fermi, space)
    assert first.elapsed_s > 0.0
    # Pricing reads each point's configuration (tile_sgemm's closed forms
    # schedule nothing), so a repeated prune decides alike.
    again = prune_by_bound(fermi, space)
    assert again.elapsed_s > 0.0
    assert [c.label for c in again.kept] == [c.label for c in first.kept]


def test_tiny_sweep_prunes_and_the_winner_beats_naive(fermi):
    space = _tiny_space()
    report = prune_by_bound(fermi, space)
    assert report.pruned, "the analytic bound must prune something"

    naive = next(c for c in space if c.label == "tile_sgemm:nostage")
    candidates = list(report.kept)
    if all(c.label != naive.label for c in candidates):
        candidates.append(replace(naive))
    outcomes = autotune_workloads(fermi, candidates, workers=1)
    assert all(o.ok for o in outcomes)
    by_label = {o.label: o.cycles for o in outcomes}
    winner = outcomes[0]
    assert winner.cycles < by_label["tile_sgemm:nostage"]
    # The winner was a *kept* candidate: pruning did not discard the best.
    assert winner.label in {c.label for c in report.kept}


def test_sweep_summary_one_liner(fermi, monkeypatch):
    """The sweep log line names every cost figure: pruned count, prune wall
    time, the simulations that ran (not the leaderboard rows), and the
    winner."""
    import repro.opt.autotune as autotune
    from repro.tile.autotune import sweep_summary

    runs = []
    simulate = autotune.simulate_one_block

    def counting_simulate(gpu, kernel, **kwargs):
        runs.append(kernel)
        return simulate(gpu, kernel, **kwargs)

    monkeypatch.setattr(autotune, "simulate_one_block", counting_simulate)
    space = _tiny_space()
    report = prune_by_bound(fermi, space)
    outcomes = autotune_workloads(fermi, list(report.kept), workers=1)

    line = sweep_summary(report, outcomes)
    assert "\n" not in line
    assert f"swept {report.total} candidates" in line
    assert f"pruned {len(report.pruned)} by bound" in line
    assert f"in {report.elapsed_s:.2f}s" in line
    # The tiny space holds repeats, so fewer simulations ran than rows.
    assert len(runs) < len(outcomes)
    assert f"simulated {len(runs)}," in line
    best = outcomes[0]
    assert f"best {best.label} @ {best.cycles:.0f} cycles" in line


def _warm_seed():
    """A seed outside the space whose naive kernel equals ``noprefetch``'s:
    at B_R = 2 the B window of 1 and of 2 lower alike."""
    return WorkloadCandidate(
        "tile_sgemm", replace(TINY, prefetch=False, b_window=1), label="tile_sgemm:warm0"
    )


class TestEachDistinctKernelOnce:
    """A sweep optimizes and simulates each distinct naive kernel once, and
    every leaderboard row reads as if its candidate had been measured alone."""

    def test_rows_equal_one_candidate_at_a_time_evaluations(self, fermi):
        sweep = run_generative_sweep(fermi, "tile_sgemm", TINY, workers=1, **TINY_AXES)
        assert len({row.naive_kernel_hash for row in sweep.outcomes}) < len(sweep.outcomes)
        for row in sweep.outcomes:
            alone = evaluate_workload_candidate(fermi, row.candidate)
            assert row.as_dict() == alone.as_dict(), row.label

    def test_a_repeated_seed_is_measured_once_and_served_under_its_own_name(
        self, fermi, monkeypatch,
    ):
        import repro.opt.autotune as autotune
        import repro.opt.pipeline as pipeline

        optimized, simulated = [], []
        optimize, simulate = pipeline.optimize_kernel, autotune.simulate_one_block

        def counting_optimize(kernel, gpu):
            optimized.append(kernel_hash(kernel))
            return optimize(kernel, gpu)

        def counting_simulate(gpu, kernel, **kwargs):
            simulated.append(kernel_hash(kernel))
            return simulate(gpu, kernel, **kwargs)

        monkeypatch.setattr(pipeline, "optimize_kernel", counting_optimize)
        monkeypatch.setattr(autotune, "simulate_one_block", counting_simulate)
        registry = MetricsRegistry()
        with session(metrics=registry):
            sweep = run_generative_sweep(
                fermi, "tile_sgemm", TINY, seeds=(_warm_seed(),), workers=1, **TINY_AXES
            )
        rows = {row.label: row for row in sweep.outcomes}
        seed, repeat = rows["tile_sgemm:warm0"], rows["tile_sgemm:noprefetch"]
        assert seed.naive_kernel_hash == repeat.naive_kernel_hash
        assert sorted(optimized) == sorted({row.naive_kernel_hash for row in sweep.outcomes})
        assert len(simulated) == len(set(simulated)) == len(optimized) == sweep.simulated
        repeats = len(sweep.outcomes) - len(optimized)
        assert registry.counter_value("autotune.sim_cache.hits") == repeats > 0

        # The repeat was evaluated after the seed and wins the tie on cycles
        # by its smaller label, so it serves the seed's measured kernel
        # under its own config's name: the bytes it would have built itself.
        winner = sweep.outcomes[0]
        assert winner is repeat
        point = replace(TINY, prefetch=False)
        assert winner.kernel_name == winner.kernel.name == point.kernel_name
        assert winner.kernel.metadata["tile_proc"] == point.kernel_name
        assert kernel_hash(winner.kernel) == winner.kernel_hash == seed.kernel_hash
        alone = evaluate_workload_candidate(fermi, winner.candidate)
        assert winner.as_dict() == alone.as_dict()
        assert pickle.dumps(winner.kernel) == pickle.dumps(alone.kernel)
        assert [row.kernel is not None for row in sweep.outcomes] == [True] + [False] * (
            len(sweep.outcomes) - 1
        )

    def test_a_pooled_sweep_ranks_alike(self, fermi):
        serial, pooled = (
            run_generative_sweep(
                fermi, "tile_sgemm", TINY, seeds=(_warm_seed(),), workers=workers,
                **TINY_AXES,
            )
            for workers in (1, 2)
        )
        assert pooled.prune == serial.prune
        assert [row.as_dict() for row in pooled.outcomes] == [
            row.as_dict() for row in serial.outcomes
        ]
        assert pickle.dumps(pooled.outcomes[0].kernel) == pickle.dumps(serial.outcomes[0].kernel)
