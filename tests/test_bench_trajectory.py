"""The cycle-ladder aggregation script and its --check regression gate."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
_BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture()
def trajectory(tmp_path, monkeypatch):
    """The script module, pointed at a scratch copy of the BENCH files."""
    spec = importlib.util.spec_from_file_location("bench_trajectory", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for bench_file in _BENCH.glob("BENCH_*.json"):
        shutil.copy(bench_file, tmp_path / bench_file.name)
    monkeypatch.setattr(module, "BENCH_DIR", tmp_path)
    return module, tmp_path


def _regress(bench_dir: Path, factor: float) -> None:
    data = json.loads((bench_dir / "BENCH_tile.json").read_text())
    data["metrics"]["tile_sgemm"]["fermi"]["golden_schedule_opt"] *= factor
    (bench_dir / "BENCH_tile.json").write_text(json.dumps(data))


def test_check_passes_on_a_fresh_summary(trajectory, capsys):
    module, bench_dir = trajectory
    assert module.main([]) == 0          # write the summary
    assert module.main(["--check"]) == 0
    assert "no >" in capsys.readouterr().out


def test_check_fails_on_a_cycle_regression(trajectory, capsys):
    module, bench_dir = trajectory
    assert module.main([]) == 0
    _regress(bench_dir, 1.05)            # 5% > the 2% tolerance
    assert module.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "regressed" in err and "golden_schedule_opt" in err


def test_check_tolerates_small_noise(trajectory):
    module, bench_dir = trajectory
    assert module.main([]) == 0
    _regress(bench_dir, 1.01)            # within tolerance ...
    # ... but the summary is now stale, which the check still reports.
    assert module.main(["--check"]) == 1
    # Regenerating clears it.
    assert module.main([]) == 0
    assert module.main(["--check"]) == 0


def test_check_flags_a_stale_improvement(trajectory, capsys):
    module, bench_dir = trajectory
    assert module.main([]) == 0
    _regress(bench_dir, 0.5)             # improvement, summary not regenerated
    assert module.main(["--check"]) == 1
    assert "stale" in capsys.readouterr().err


def test_check_requires_a_committed_summary(trajectory):
    module, bench_dir = trajectory
    (bench_dir / module.SUMMARY_NAME).unlink(missing_ok=True)
    assert module.main(["--check"]) == 1


def test_explicit_baseline_gates_across_regeneration(trajectory, capsys):
    """--baseline catches a regression even after the summary is regenerated.

    The default baseline (the checked-in summary) moves with the PR; an
    external baseline — e.g. the merge base's summary — does not.
    """
    module, bench_dir = trajectory
    assert module.main([]) == 0
    baseline = bench_dir / "merge_base_summary.json"
    shutil.copy(bench_dir / module.SUMMARY_NAME, baseline)
    _regress(bench_dir, 1.05)
    assert module.main([]) == 0          # regenerate: absorbs the regression
    assert module.main(["--check"]) == 0  # ...so the default gate passes
    assert module.main(["--check", "--baseline", str(baseline)]) == 1
    assert "regressed" in capsys.readouterr().err
    assert module.main(["--check", "--baseline", str(bench_dir / "nope.json")]) == 1


def _set_stalls(bench_dir: Path, stalls: dict[str, float]) -> None:
    data = json.loads((bench_dir / "BENCH_tile.json").read_text())
    data["metrics"]["tile_sgemm"]["fermi"]["stalls"] = stalls
    (bench_dir / "BENCH_tile.json").write_text(json.dumps(data))


def test_stall_breakdowns_collect_into_the_stall_ladder(trajectory):
    module, bench_dir = trajectory
    _set_stalls(bench_dir, {"scoreboard": 100.0, "ldst_pipe": 50.0})
    summary = module.build_summary(bench_dir)
    assert summary["schema"] == 5
    ladder = summary["stall_ladder"]
    assert ladder["BENCH_tile:tile_sgemm:fermi:stalls:scoreboard"] == 100.0
    assert ladder["BENCH_tile:tile_sgemm:fermi:stalls:ldst_pipe"] == 50.0
    # Stall figures never leak into the cycle ladder (they are not cycles).
    assert not any("stalls" in key for key in summary["cycle_ladder"])


def _set_sweep_rates(bench_dir: Path) -> None:
    data = json.loads((bench_dir / "BENCH_tile.json").read_text())
    data["metrics"]["tile_sgemm_bound_pruned_sweep"] = {
        "sim_cache_hit_rate": 0.5,
        "decomposition_cache": {"hits": 30, "misses": 10, "hit_rate": 0.75},
    }
    (bench_dir / "BENCH_tile.json").write_text(json.dumps(data))


def test_cache_hit_rates_collect_into_the_rate_ladder(trajectory):
    module, bench_dir = trajectory
    _set_sweep_rates(bench_dir)
    summary = module.build_summary(bench_dir)
    ladder = summary["rate_ladder"]
    key = "BENCH_tile:tile_sgemm_bound_pruned_sweep"
    assert ladder[f"{key}:sim_cache_hit_rate"] == 0.5
    assert ladder[f"{key}:decomposition_cache:hit_rate"] == 0.75
    # Rates are tracked, not gated: raw hit/miss counts stay out of every
    # ladder, and the rate ladder never leaks into the cycle ladder.
    assert not any("hit_rate" in k for k in summary["cycle_ladder"])
    assert f"{key}:decomposition_cache:hits" not in summary["cycle_ladder"]


def test_kcache_speedups_collect_into_the_rate_ladder(trajectory):
    """The kernel-cache wall-clock figures are tracked, never cycle-gated."""
    module, bench_dir = trajectory
    data = json.loads((bench_dir / "BENCH_kcache.json").read_text())
    blob = data["metrics"]["tile_sgemm_193x161x97_fermi"]
    summary = module.build_summary(bench_dir)
    key = "BENCH_kcache:tile_sgemm_193x161x97_fermi"
    assert summary["rate_ladder"][f"{key}:warm_speedup"] == blob["warm_speedup"]
    assert f"{key}:cycles" in summary["cycle_ladder"]
    # Wall-clock latencies stay out of every ladder.
    assert not any("lookup_s" in k or "build_s" in k
                   for k in summary["cycle_ladder"])


def test_rate_changes_do_not_trip_the_regression_gate(trajectory, capsys):
    """A moved hit rate makes the summary stale but is never a regression."""
    module, bench_dir = trajectory
    _set_sweep_rates(bench_dir)
    assert module.main([]) == 0
    data = json.loads((bench_dir / "BENCH_tile.json").read_text())
    data["metrics"]["tile_sgemm_bound_pruned_sweep"]["sim_cache_hit_rate"] = 0.1
    (bench_dir / "BENCH_tile.json").write_text(json.dumps(data))
    assert module.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "stale" in err and "regressed" not in err
    assert module.main([]) == 0
    assert module.main(["--check"]) == 0


def test_regression_report_names_the_grown_stall_reason(trajectory, capsys):
    """A >2% cycle regression is blamed on the stall reason that grew most."""
    module, bench_dir = trajectory
    _set_stalls(bench_dir, {"scoreboard": 100.0, "ldst_pipe": 50.0})
    assert module.main([]) == 0
    _regress(bench_dir, 1.05)
    _set_stalls(bench_dir, {"scoreboard": 103.0, "ldst_pipe": 400.0})
    assert module.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "golden_schedule_opt" in err
    assert "stall:ldst_pipe grew 50 -> 400" in err
    assert "scoreboard" not in err


def _throttle(bench_dir: Path, factor: float) -> None:
    data = json.loads((bench_dir / "BENCH_sim.json").read_text())
    data["metrics"]["sweep"]["candidates_per_s"] *= factor
    (bench_dir / "BENCH_sim.json").write_text(json.dumps(data))


def test_throughput_figures_collect_into_the_throughput_ladder(trajectory):
    module, bench_dir = trajectory
    summary = module.build_summary(bench_dir)
    ladder = summary["throughput_ladder"]
    assert "BENCH_sim:sweep:candidates_per_s" in ladder
    assert "BENCH_sim:functional:warp_instructions_per_s" in ladder
    # Throughput figures never leak into the cycle ladder (higher is better).
    assert not any(key.endswith("_per_s") for key in summary["cycle_ladder"])


def test_check_fails_on_a_throughput_drop(trajectory, capsys):
    """Simulator throughput gates in the opposite direction to cycles."""
    module, bench_dir = trajectory
    assert module.main([]) == 0
    baseline = bench_dir / "merge_base_summary.json"
    shutil.copy(bench_dir / module.SUMMARY_NAME, baseline)
    _throttle(bench_dir, 0.9)            # 10% slower > the 2% tolerance
    assert module.main([]) == 0          # regenerated, so not stale ...
    assert module.main(["--check", "--baseline", str(baseline)]) == 1
    err = capsys.readouterr().err
    assert "dropped" in err and "candidates_per_s" in err


def test_check_tolerates_a_throughput_gain(trajectory):
    module, bench_dir = trajectory
    assert module.main([]) == 0
    baseline = bench_dir / "merge_base_summary.json"
    shutil.copy(bench_dir / module.SUMMARY_NAME, baseline)
    _throttle(bench_dir, 1.5)            # faster is never a regression
    assert module.main([]) == 0
    assert module.main(["--check", "--baseline", str(baseline)]) == 0


def test_baseline_without_throughput_ladder_still_gates_cycles(trajectory):
    """Baselines predating the throughput ladder pass the throughput gate."""
    module, bench_dir = trajectory
    assert module.main([]) == 0
    baseline = bench_dir / "merge_base_summary.json"
    stripped = json.loads((bench_dir / module.SUMMARY_NAME).read_text())
    stripped.pop("throughput_ladder", None)
    baseline.write_text(json.dumps(stripped))
    assert module.main(["--check", "--baseline", str(baseline)]) == 0


def test_regression_without_stall_siblings_stays_unblamed(trajectory, capsys):
    """Baselines predating the stall ladder still gate; blame is just omitted."""
    module, bench_dir = trajectory
    assert module.main([]) == 0
    summary_path = bench_dir / module.SUMMARY_NAME
    stripped = json.loads(summary_path.read_text())
    stripped.pop("stall_ladder", None)
    summary_path.write_text(json.dumps(stripped))
    _regress(bench_dir, 1.05)
    assert module.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "regressed" in err
    assert "stall:" not in err
