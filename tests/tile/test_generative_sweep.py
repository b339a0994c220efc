"""Generative-sweep smoke case: tiny space, bound-pruned, winner beats naive.

The CI-facing closure of the paper's §5.5 loop: generate a schedule space
mechanically, discard the analytically hopeless half without simulating, run
what survives through the shared autotune harness, and check the sweep's
winner actually beats the naive (unstaged, binding-only) schedule.
"""

from dataclasses import replace

from repro.opt.autotune import autotune_workloads
from repro.tile.autotune import prune_by_bound, schedule_space
from repro.tile.workloads import TileSgemmConfig


def _tiny_space():
    """A doll-house sweep: one block, small tiles, every knob still live."""
    return schedule_space(
        "tile_sgemm",
        TileSgemmConfig(m=16, n=16, k=8, tile=8, register_blocking=2, stride=2, b_window=2),
        tiles=(4, 8),
        register_blockings=(2, 4),
        strides=(2, 4),
        b_windows=(1, 2),
    )


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
    # The schedule applications are memoized by schedule hash, so a repeated
    # sweep is deterministic (and cheaper host-side — not asserted, wall
    # clocks jitter).
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


def test_sweep_summary_one_liner(fermi):
    """The sweep log line names every cost figure: pruned count, prune wall
    time, simulation count, and the winner."""
    from repro.tile.autotune import sweep_summary

    space = _tiny_space()
    report = prune_by_bound(fermi, space)
    outcomes = autotune_workloads(fermi, list(report.kept), workers=1)

    line = sweep_summary(report, outcomes)
    assert "\n" not in line
    assert f"swept {report.total} candidates" in line
    assert f"pruned {len(report.pruned)} by bound" in line
    assert f"in {report.elapsed_s:.2f}s" in line
    assert f"simulated {len(outcomes)}," in line
    best = outcomes[0]
    assert f"best {best.label} @ {best.cycles:.0f} cycles" in line
