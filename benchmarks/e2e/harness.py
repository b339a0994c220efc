"""One workload in one process: set up, measure, validate, report.

``run.py`` starts this file as a fresh subprocess per workload::

    python harness.py --workload tune_cold --seed 1 --seconds 8 --trace 0 \\
        --out DIR --started-at <parent's time.time() at spawn>

and reads the one JSON line it prints last.  ``--setup-only`` stops after
set-up, so the runner can take the median of several set-up times.

Phases of a run:

1. *set-up* — the workload's untimed preparation;
2. *timed* — whole rounds of the seeded stream until ``--seconds`` passed,
   tracing off; a ``speed.Sampler`` probes the machine's speed throughout
   set-up and the timed rounds, and the gated timings are the phases'
   times at reference speed;
3. *traced* (``--trace 1`` only) — every timed round is run a second time
   under a ``spans.Recorder``, traced and plain rounds alternating which
   goes first so that machine drift cancels; the ratio of the two phases'
   throughput is the tracing overhead;
4. *validation* — each distinct kernel served is simulated over its whole
   grid once and checked against NumPy; ops that served a kernel failing it
   count as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.arch.specs import get_gpu_spec
from repro.kernels import get_workload
from spans import Recorder, layer_metrics
from speed import Sampler, slowdown
from stats import geomean, median, tail_percentile
from workloads import WORKLOADS, Outcome, bound_fraction, simulate_and_validate

#: How many errors a report quotes verbatim.
QUOTED_ERRORS = 5


@dataclass
class Phase:
    rounds: list = field(default_factory=list)  # the ops executed, round by round
    outcomes: list[Outcome] = field(default_factory=list)
    wall_s: float = 0.0
    probes: list[float] = field(default_factory=list)  # speed probes taken in its rounds

    @property
    def ops_per_s(self) -> float:
        return len(self.outcomes) / self.wall_s

    def run_round(self, workload, ops, recorder=None, sampler=None) -> None:
        mark = sampler.mark() if sampler is not None else 0
        started = time.perf_counter()
        with recorder.installed() if recorder is not None else nullcontext():
            workload.begin_round()
            for op in ops:
                if recorder is not None:
                    recorder.request = len(self.outcomes)
                self.outcomes.append(workload.execute(op))
        self.wall_s += time.perf_counter() - started
        self.rounds.append(ops)
        if sampler is not None:
            self.probes += sampler.since(mark)


def drive(
    workload, seconds: float, *, recorder=None, sampler=None, max_ops=None
) -> tuple[Phase, Phase | None]:
    """Whole rounds until the plain ones took ``seconds`` (or ran ``max_ops``).

    With a ``recorder`` every round also runs traced; the (plain, traced)
    order alternates from round to round.
    """
    plain, traced = Phase(), Phase() if recorder is not None else None
    for index, ops in enumerate(workload.rounds()):
        if max_ops is not None:
            ops = ops[: max_ops - len(plain.outcomes)]
        passes = [(plain, None)] if traced is None else [(plain, None), (traced, recorder)]
        for phase, phase_recorder in passes[:: 1 if index % 2 == 0 else -1]:
            phase.run_round(workload, ops, phase_recorder, sampler)
        if plain.wall_s >= seconds or (max_ops is not None and len(plain.outcomes) >= max_ops):
            break
    return plain, traced


def validate_served(workload, phases: list[Phase]) -> dict[str, float | str]:
    """Full-grid cycles (or the failure) of every distinct kernel served.

    Ops that already ran their kernel grid-wide supply their cycles; every
    other kernel — set-up builds included — is simulated once here.
    """
    outcomes = [outcome for phase in phases for outcome in phase.outcomes]
    verdicts: dict[str, float | str] = {}
    for outcome in outcomes:
        if outcome.cycles is not None:
            verdicts.setdefault(outcome.served.ident, outcome.cycles)
    pending = {s.ident: s for _, s in workload.setup_served}
    pending.update((o.served.ident, o.served) for o in outcomes if o.served is not None)
    for ident, served in pending.items():
        if ident in verdicts:
            continue
        try:
            result = simulate_and_validate(
                get_workload(served.workload),
                served.config,
                get_gpu_spec(served.gpu),
                served.kernel,
                workload.seed,
            )
        except Exception as exc:  # a wrong kernel may fail anywhere in the simulator
            verdicts[ident] = f"grid validation: {type(exc).__name__}: {exc}"
        else:
            verdicts[ident] = result.cycles
    return verdicts


def quality(workload, timed: Phase, verdicts: dict) -> tuple[dict, dict]:
    """Kernel-quality metrics over a fixed, seed-determined kernel set.

    The set is the set-up builds plus the kernels of the first round, never
    "everything served", so the value does not depend on how many rounds
    fitted in the run.  Kernels of anchors (one-point strata) make the gated
    geomeans, which repeat exactly for every seed; the seeded strata's make
    ``seeded_bound_fraction_geomean``.  Returns (metrics, per-kernel rows).
    """
    chosen = {s.ident: (anchor, s) for anchor, s in workload.setup_served}
    for op, outcome in zip(timed.rounds[0], timed.outcomes):
        if outcome.served is not None:
            chosen.setdefault(outcome.served.ident, (op.anchor, outcome.served))
    cycles, fractions, rows = {True: [], False: []}, {True: [], False: []}, {}
    for ident, (anchor, served) in chosen.items():
        verdict = verdicts.get(ident)
        if verdict is None or isinstance(verdict, str):
            continue
        fraction = bound_fraction(served, verdict)
        cycles[anchor].append(verdict)
        fractions[anchor].append(fraction)
        rows[f"kernels.{ident}.cycles"] = verdict
        rows[f"kernels.{ident}.bound_fraction"] = fraction
    metrics = {
        "sim_cycles_geomean": geomean(cycles[True]) if cycles[True] else 0.0,
        "bound_fraction_geomean": geomean(fractions[True]) if fractions[True] else 0.0,
        "seeded_bound_fraction_geomean": geomean(fractions[False]) if fractions[False] else 0.0,
    }
    return metrics, rows


def measure(
    workload, *, seconds: float, trace: bool, out_dir: Path, sampler=None, max_ops=None
) -> dict:
    """Phases 2-4 on a set-up workload; the child's report without set-up time."""
    recorder = Recorder() if trace else None
    timed, traced = drive(workload, seconds, recorder=recorder, sampler=sampler,
                          max_ops=max_ops)
    phases = [timed]
    layers = None
    if traced is not None:
        phases.append(traced)
        layers = layer_metrics(recorder, traced.wall_s)
        layers["trace.overhead_rate"] = timed.ops_per_s / traced.ops_per_s - 1.0
        recorder.tracer.dump(str(out_dir / "trace.json"))  # Chrome trace-event JSON
    verdicts = validate_served(workload, phases)

    errors: list[str] = []
    for phase in phases:
        for outcome in phase.outcomes:
            if outcome.error is None and outcome.served is not None:
                verdict = verdicts.get(outcome.served.ident)
                if isinstance(verdict, str):
                    outcome.error = verdict
            if outcome.error is not None:
                errors.append(outcome.error)
    attempted = sum(len(phase.outcomes) for phase in phases)

    latencies_ms = [o.latency_s * 1000.0 for o in timed.outcomes]
    e2e = {
        "ops_per_s": timed.ops_per_s * slowdown(timed.probes),
        "wall_ops_per_s": timed.ops_per_s,
        "slowdown": slowdown(timed.probes),
        "latency_p50_ms": median(latencies_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    kernel_metrics, kernel_rows = quality(workload, timed, verdicts)
    e2e.update(kernel_metrics)
    p90 = tail_percentile(latencies_ms)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:QUOTED_ERRORS],
        "timed_ops": len(timed.outcomes),
        "timed_rounds": len(timed.rounds),
        "timed_wall_s": timed.wall_s,
        "e2e": e2e,
        "latency_p90_ms": p90,
        "kernels": kernel_rows,
        "layers": layers,
    }


def run_workload(
    name: str, seed: int, *, seconds: float, trace: bool, out_dir: Path,
    started_at: float | None = None, setup_only: bool = False, sampler=None, max_ops=None,
) -> dict:
    """Set up and measure one workload; its private stores are removed after.

    ``wall_setup_s`` runs from ``started_at`` to the end of set-up;
    ``setup_s`` is the same time at reference speed, by the probes
    ``sampler`` took up to then.
    """
    started_at = time.time() if started_at is None else started_at
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, out_dir / "stores")
    try:
        workload.setup()
        setup = {"wall_setup_s": time.time() - started_at}
        setup["setup_s"] = setup["wall_setup_s"] / slowdown(sampler.since(0) if sampler else [])
        if setup_only:
            return {"workload": name, **setup}
        report = measure(workload, seconds=seconds, trace=trace, out_dir=out_dir,
                         sampler=sampler, max_ops=max_ops)
    finally:
        shutil.rmtree(out_dir / "stores", ignore_errors=True)
    report.update(setup)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--started-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sampler = Sampler()
    sampler.start()
    try:
        report = run_workload(
            args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace),
            out_dir=args.out, started_at=args.started_at, setup_only=args.setup_only,
            sampler=sampler,
        )
    finally:
        sampler.stop()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
