"""A/B comparison of benchmark runs: parent commit against a change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` directories of untraced ``run.py`` runs
(one ``summary.json`` each, found recursively).  Runs pair up in sorted path
order, so name them ``pair01``, ``pair02``, ... on both sides, and alternate
which side runs first from one pair to the next.  Run at least ten pairs,
with the same seed and ``--seconds`` on both sides.

For every workload and end-to-end metric it prints each side's median and
quartiles, how many pairs the change won, and a verdict:

* ``improved`` — the change won at least 90% of pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — neither, and one side's spread is wider than the bound,
  so "no regression" cannot be shown (unless every change run reads better
  than every parent run);
* ``unchanged`` — within the bound, and the spread is narrow enough to say so.

Exact metrics (simulated cycles, bound fractions, ``fail_rate``) repeat
exactly for a seed, so they are compared for equality: ``same``, else
``improved`` / ``regressed`` by their mean, and ``unresolved`` when the runs
differ but their means are equal.  A pair in which one side lacks a
workload is skipped for that workload.  The exit status is 1 on any
regression, including any rise in ``fail_rate``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import JUDGED, Metric, quartiles, relative_iqr

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load_runs(root: Path) -> list[dict]:
    """Every untraced run summary under ``root``, in sorted path order."""
    runs = []
    for path in sorted(Path(root).rglob("summary.json")):
        summary = json.loads(path.read_text())
        if not summary.get("trace"):
            runs.append(summary)
    return runs


def paired(parent_runs: list[dict], change_runs: list[dict], workload: str) -> list[tuple]:
    """(parent, change) e2e dicts of ``workload``, pair by pair, skipping
    pairs in which either side lacks it."""
    return [(p["workloads"][workload]["e2e"], c["workloads"][workload]["e2e"])
            for p, c in zip(parent_runs, change_runs)
            if workload in p["workloads"] and workload in c["workloads"]]


def judge(metric: Metric, parent: list[float], change: list[float]) -> tuple[str, int]:
    """(verdict, pairs the change won) for one workload x metric."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if metric.better_than(c, p))
    if metric.exact:
        if sorted(parent) == sorted(change):
            return "same", wins
        worse = metric.worse_by(sum(parent) / len(parent), sum(change) / len(change))
        if worse > 0:
            return "regressed", wins
        return ("improved" if worse < 0 else "unresolved"), wins
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    if metric.worse_by(p_med, c_med) > metric.bound:
        return "regressed", wins
    if (
        wins >= WIN_SHARE * len(pairs)
        and metric.better_than(c_med, p_med)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        return "improved", wins
    every_better = all(metric.better_than(c, p) for c in change for p in parent)
    if max(relative_iqr(parent), relative_iqr(change)) > metric.bound and not every_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_runs: list[dict], change_runs: list[dict]) -> list[tuple]:
    """One row per workload x metric: (workload, metric, parent, change, wins, pairs, verdict)."""
    rows = []
    workloads = sorted(set().union(*(run["workloads"] for run in parent_runs))
                       & set().union(*(run["workloads"] for run in change_runs)))
    for workload in workloads:
        pairs = paired(parent_runs, change_runs, workload)
        if not pairs:
            continue
        for metric in JUDGED:
            parent = [p[metric.name] for p, _ in pairs]
            change = [c[metric.name] for _, c in pairs]
            verdict, wins = judge(metric, parent, change)
            rows.append((workload, metric, parent, change, wins, len(pairs), verdict))
    return rows


def _spread(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    if not parent_runs or not change_runs:
        print("compare.py: each side needs at least one untraced summary.json", file=sys.stderr)
        return 2
    settings = {(run["seed"], run["seconds"]) for run in (*parent_runs, *change_runs)}
    if len(settings) > 1:
        print(f"compare.py: warning: runs differ in (seed, seconds): {sorted(settings)}",
              file=sys.stderr)
    if min(len(parent_runs), len(change_runs)) < 10:
        print("compare.py: warning: fewer than 10 pairs; a gain cannot be claimed",
              file=sys.stderr)
    rows = compare(parent_runs, change_runs)
    print(f"{'workload':14s} {'metric':24s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>7s}  verdict")
    for workload, metric, parent, change, wins, pairs, verdict in rows:
        print(f"{workload:14s} {metric.name:24s} {_spread(parent):34s} "
              f"{_spread(change):34s} {wins:>3d}/{pairs:<3d}  {verdict}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
