#!/usr/bin/env python
"""Aggregate every ``benchmarks/BENCH_*.json`` into ``BENCH_summary.json``.

Each benchmark suite records its own metrics file (``BENCH_opt.json``,
``BENCH_kernels.json``, ``BENCH_tile.json``, ...).  This script collects all
of them into one flat **cycle ladder** — every simulated-cycle figure keyed
by ``file:metric:path`` — so the per-PR performance trajectory is one
sorted, diffable document: a regression anywhere in any suite shows up as a
single-line change in ``BENCH_summary.json``.

Usage::

    python scripts/bench_trajectory.py           # (re)write BENCH_summary.json
    python scripts/bench_trajectory.py --check   # CI: fail on regression/staleness

The summary is deterministic over the committed BENCH files, so ``--check``
doubles as a staleness test in CI — and as a **perf regression gate**: any
``cycle_ladder`` entry whose freshly computed value exceeds the checked-in
one by more than ``REGRESSION_TOLERANCE`` fails the check with a per-entry
report, before the staleness diff is even considered.

Suites may record a per-reason ``stalls`` breakdown next to a cycle figure
(``benchmarks/bench_tile.py`` does, from the simulator's StallBreakdown);
those are collected into a parallel ``stall_ladder``, and a regressed cycle
entry's report names the sibling stall reason that grew the most — the
gate says not just *that* a kernel got slower but *why*.

Simulator wall-clock throughput figures (``benchmarks/bench_sim.py``) are
collected into a ``throughput_ladder`` and gated in the opposite direction:
a fresh record more than the tolerance *below* the baseline fails, flagging
a >2% simulator-throughput regression.

Cache-economics rates recorded from the metrics facade
(``benchmarks/bench_tile.py`` snapshots the schedule-memo hit rate of its
sweep via :mod:`repro.telemetry`;
``benchmarks/bench_kcache.py`` records the persistent kernel cache's
warm-hit speedup and warm-start simulation savings) are collected into
a ``rate_ladder`` — tracked for trajectory, not gated: a hit rate moves
whenever the sweep space changes shape, and a wall-clock speedup moves
with the machine, which is not by itself a regression.  Schema 4 added
the rate ladder; schema 5 widened it to ``*_speedup`` figures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
SUMMARY_NAME = "BENCH_summary.json"

#: Leaf keys that denote a simulated-cycle figure in any suite's blob.
CYCLE_KEYS = frozenset({
    "cycles",
    "cycles_naive",
    "cycles_pipeline",
    "cycles_hand_allocated",
    "naive_schedule",
    "golden_schedule",
    "golden_schedule_opt",
    "double_buffer_opt",
    "hand_golden",
})

#: A ladder entry may grow by at most this fraction before --check fails.
REGRESSION_TOLERANCE = 0.02

#: Key under which suites record a per-reason stall breakdown dict.
STALL_KEY = "stalls"

#: Leaf keys that denote a simulator-throughput figure (higher is better).
#: These come from wall-clock measurements (``benchmarks/bench_sim.py``
#: records best-of-N), so unlike the cycle ladders they are only comparable
#: when re-recorded on comparable hardware; the --check gate flags a fresh
#: value more than ``REGRESSION_TOLERANCE`` *below* the baseline record.
THROUGHPUT_KEYS = frozenset({
    "candidates_per_s",
    "warp_instructions_per_s",
})

#: Leaf-key suffixes of cache-economics figures (``hit_rate``,
#: ``warm_speedup``, ``simulations_saved_rate``, ...) recorded from the
#: metrics facade or the kernel-cache benchmark.
#: Collected into the rate ladder for trajectory but not regression-gated.
RATE_SUFFIXES = ("_rate", "speedup")


def _collect_cycles(blob: object, path: tuple[str, ...], ladder: dict[str, float],
                    stalls: dict[str, float],
                    throughput: dict[str, float],
                    rates: dict[str, float]) -> None:
    """Walk one metrics blob, recording cycle, stall, throughput and rate leaves."""
    if isinstance(blob, dict):
        for key in sorted(blob):
            value = blob[key]
            if key in CYCLE_KEYS and isinstance(value, (int, float)):
                ladder[":".join(path + (key,))] = float(value)
            elif key in THROUGHPUT_KEYS and isinstance(value, (int, float)):
                throughput[":".join(path + (key,))] = float(value)
            elif (isinstance(value, (int, float))
                  and any(key.endswith(suffix) for suffix in RATE_SUFFIXES)):
                rates[":".join(path + (key,))] = float(value)
            elif key == STALL_KEY and isinstance(value, dict):
                for reason in sorted(value):
                    if isinstance(value[reason], (int, float)):
                        stalls[":".join(path + (key, reason))] = float(value[reason])
            else:
                _collect_cycles(value, path + (key,), ladder, stalls,
                                throughput, rates)


def build_summary(bench_dir: Path = BENCH_DIR) -> dict[str, object]:
    """The aggregate of every BENCH_*.json currently on disk."""
    ladder: dict[str, float] = {}
    stalls: dict[str, float] = {}
    throughput: dict[str, float] = {}
    rates: dict[str, float] = {}
    sources: list[str] = []
    for bench_file in sorted(bench_dir.glob("BENCH_*.json")):
        if bench_file.name == SUMMARY_NAME:
            continue
        with open(bench_file, encoding="utf-8") as handle:
            data = json.load(handle)
        sources.append(bench_file.name)
        _collect_cycles(data.get("metrics", data), (bench_file.stem,),
                        ladder, stalls, throughput, rates)
    return {
        "schema": 5,
        "sources": sources,
        "cycle_ladder": dict(sorted(ladder.items())),
        "stall_ladder": dict(sorted(stalls.items())),
        "throughput_ladder": dict(sorted(throughput.items())),
        "rate_ladder": dict(sorted(rates.items())),
    }


def _blame_stall(key: str, baseline: dict[str, float],
                 fresh: dict[str, float]) -> tuple[str, float, float] | None:
    """The stall reason that grew the most next to a regressed cycle entry.

    Cycle entries and stall breakdowns are recorded as siblings
    (``...:fermi:golden_schedule_opt`` next to ``...:fermi:stalls:<reason>``),
    so the regressed key's prefix locates its breakdown in both summaries.
    """
    prefix = key.rsplit(":", 1)[0] + f":{STALL_KEY}:"
    growths = [
        (fresh[entry] - baseline[entry], entry[len(prefix):],
         baseline[entry], fresh[entry])
        for entry in fresh
        if entry.startswith(prefix) and entry in baseline
    ]
    growths = [g for g in growths if g[0] > 0]
    if not growths:
        return None
    _, reason, was, now = max(growths)
    return reason, was, now


def render(summary: dict[str, object]) -> str:
    return json.dumps(summary, indent=1, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="verify the committed summary matches the BENCH files (CI)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="summary file to gate regressions against (e.g. the merge-base "
             "BENCH_summary.json in CI); defaults to the checked-in summary, "
             "which only catches regressions recorded but not yet regenerated",
    )
    args = parser.parse_args(argv)

    summary_path = BENCH_DIR / SUMMARY_NAME
    summary = build_summary(BENCH_DIR)
    text = render(summary)
    entries = len(summary["cycle_ladder"])
    if args.check:
        if not summary_path.exists():
            print(f"{summary_path} is missing; run scripts/bench_trajectory.py",
                  file=sys.stderr)
            return 1
        baseline_path = args.baseline if args.baseline is not None else summary_path
        if not baseline_path.exists():
            print(f"baseline {baseline_path} is missing", file=sys.stderr)
            return 1
        baseline_summary = json.loads(baseline_path.read_text(encoding="utf-8"))
        baseline = baseline_summary.get("cycle_ladder", {})
        baseline_stalls = baseline_summary.get("stall_ladder", {})
        baseline_throughput = baseline_summary.get("throughput_ladder", {})
        fresh = summary["cycle_ladder"]
        fresh_stalls = summary["stall_ladder"]
        fresh_throughput = summary["throughput_ladder"]
        regressions = [
            (key, baseline[key], fresh[key])
            for key in sorted(set(baseline) & set(fresh))
            if fresh[key] > baseline[key] * (1.0 + REGRESSION_TOLERANCE)
        ]
        # Throughput regresses downwards: a fresh record more than the
        # tolerance *below* the baseline fails (simulator got slower).
        throughput_regressions = [
            (key, baseline_throughput[key], fresh_throughput[key])
            for key in sorted(set(baseline_throughput) & set(fresh_throughput))
            if fresh_throughput[key]
            < baseline_throughput[key] * (1.0 - REGRESSION_TOLERANCE)
        ]
        if regressions:
            print(
                f"{len(regressions)} cycle-ladder entr"
                f"{'y' if len(regressions) == 1 else 'ies'} regressed more than "
                f"{REGRESSION_TOLERANCE:.0%} against {baseline_path.name}:",
                file=sys.stderr,
            )
            for key, was, now in regressions:
                line = (f"  {key}: {was:.0f} -> {now:.0f} "
                        f"({100 * (now / was - 1):+.1f}%)")
                blame = _blame_stall(key, baseline_stalls, fresh_stalls)
                if blame is not None:
                    reason, stall_was, stall_now = blame
                    line += (f" — stall:{reason} grew "
                             f"{stall_was:.0f} -> {stall_now:.0f}")
                print(line, file=sys.stderr)
            return 1
        if throughput_regressions:
            print(
                f"{len(throughput_regressions)} throughput-ladder entr"
                f"{'y' if len(throughput_regressions) == 1 else 'ies'} dropped "
                f"more than {REGRESSION_TOLERANCE:.0%} against "
                f"{baseline_path.name}:",
                file=sys.stderr,
            )
            for key, was, now in throughput_regressions:
                print(f"  {key}: {was:.1f} -> {now:.1f} "
                      f"({100 * (now / was - 1):+.1f}%)", file=sys.stderr)
            return 1
        if summary_path.read_text(encoding="utf-8") != text:
            print(f"{summary_path} is stale; run scripts/bench_trajectory.py",
                  file=sys.stderr)
            return 1
        print(f"{summary_path.name} is up to date ({entries} ladder entries, "
              f"no >{REGRESSION_TOLERANCE:.0%} regressions)")
        return 0
    summary_path.write_text(text, encoding="utf-8")
    print(f"wrote {summary_path} ({entries} ladder entries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
