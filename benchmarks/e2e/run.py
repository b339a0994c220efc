"""End-to-end benchmark of the kernel-production system, with per-layer traces.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out DIR]

Each workload runs in a fresh subprocess (``harness.py``) with one client
thread, ``workers=1``, single-threaded BLAS and a private temporary kernel
store.  For every workload the runner prints each metric as
``name value unit`` and then one JSON line::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``stats.END_TO_END``);
with ``--trace 1`` they are the per-layer ones (``spans.layer_metric_table``).
No ``--workload`` runs all four and adds one combined JSON line.  The exit
status is 1 when any op failed (after printing), 2 on a usage error or a
checkout without ``src/repro``, 3 when a workload process crashed.

Run artefacts (``summary.json``, per-workload reports, traced spans) go to
``--out``, by default a fresh directory under ``.bench_out/`` in the
checkout; the kernel stores are removed when each workload ends.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import END_TO_END, JUDGED, LATENCY_P90, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Default ``--seconds``: how long one run measures (``BENCHMARK.json``
#: ``run_seconds``; a harness test keeps the two equal).
RUN_SECONDS = 8

#: Set-up samples per untraced workload run; setup_s is their median.
SETUP_SAMPLES = 3

#: A workload process that outlives this is killed (the run fails).
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    """A workload process exited non-zero, printed no report, or timed out."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # Fixed hash order, so a seed replays the same way in every process.
    env["PYTHONHASHSEED"] = "0"
    # Store metadata stamps `git rev-parse HEAD`; keep git inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def spawn(args: list[str]) -> dict:
    """Run ``harness.py`` with ``args``; its last stdout line is the report."""
    command = [sys.executable, str(HERE / "harness.py"), *args, "--started-at", repr(time.time())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: no report within {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exited {done.returncode}")
    return json.loads(lines[-1])


def run_one(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """One workload: the measured process plus, untraced, extra set-up samples."""
    common = ["--workload", name, "--seed", str(seed), "--out", str(out / name)]
    report = spawn([*common, "--seconds", repr(seconds), "--trace", str(int(trace))])
    samples = [report]
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(spawn([*common, "--seconds", "0", "--setup-only"]))
    for key in ("setup_s", "wall_setup_s"):
        report[f"{key}_samples"] = [sample[key] for sample in samples]
        report["e2e"][key] = median(report[f"{key}_samples"])
    report["e2e"]["fail_rate"] = report["failed"] / report["attempted"]
    return report


def result_line(report: dict, trace: bool) -> dict:
    """The contract's JSON object for one workload."""
    if trace:
        from spans import layer_metric_table

        table = [(name, unit) for name, unit, _ in layer_metric_table()]
        values = report["layers"]
    else:
        table = [(m.name, m.unit) for m in END_TO_END]
        values = report["e2e"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }


def print_report(report: dict, trace: bool) -> dict:
    print(f"# {report['workload']} seed={report['seed']} ops={report['timed_ops']} "
          f"rounds={report['timed_rounds']} wall={report['timed_wall_s']:.2f}s "
          f"slowdown={report['e2e']['slowdown']:.3f} failed={report['failed']}/{report['attempted']}")
    for error in report["errors"]:
        print(f"# error: {error}")
    for metric in JUDGED:
        print(f"{metric.name} {report['e2e'][metric.name]:.6g} {metric.unit}")
    if report["latency_p90_ms"] is not None:
        print(f"{LATENCY_P90.name} {report['latency_p90_ms']:.6g} {LATENCY_P90.unit} "
              f"(n={report['timed_ops']})")
    for name, value in report["kernels"].items():
        print(f"{name} {value:.6g} {'cycles' if name.endswith('.cycles') else 'fraction'}")
    if trace:
        for name, value in report["layers"].items():
            print(f"{name} {value:.6g}")
    line = result_line(report, trace)
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload is None else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    if args.out is None:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix=f"seed{args.seed}-", dir=ROOT / ".bench_out"))
    else:
        out = args.out
    out.mkdir(parents=True, exist_ok=True)

    reports, lines = {}, {}
    for name in names:
        try:
            reports[name] = run_one(name, args.seed, args.seconds, bool(args.trace), out)
        except ChildFailed as exc:
            print(f"run.py: workload {exc}", file=sys.stderr)
            return 3
        lines[name] = print_report(reports[name], bool(args.trace))
    summary = {"seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
               "workloads": reports}
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    if len(names) > 1:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": value for name, line in lines.items()
                        for metric, value in line["metrics"].items()},
        }))
    return 1 if any(report["failed"] for report in reports.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
