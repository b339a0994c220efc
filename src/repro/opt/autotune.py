"""Parallel autotuner: one candidate type, one sweep harness.

Section 5.5 of the paper argues the upper-bound analysis tells an auto-tuner
*where* to look; this module supplies the *how*: every candidate is one
:class:`WorkloadCandidate` — a workload registered in :mod:`repro.kernels`,
one of its configurations, and whether the pass pipeline runs — evaluated by
generating the kernel, optimizing it, simulating one block on
:class:`~repro.sim.sm_sim.SmSimulator` (timing mode) and comparing against
the workload's analytic bound (:func:`repro.model.analyse_workload_bound`).
The hand SGEMM generator is the ``"sgemm"`` workload, so sweeping its
transpose variants is sweeping :class:`~repro.sgemm.config.SgemmKernelConfig`
values like any other configuration.

Evaluations are independent, so the sweep fans out over a
``multiprocessing`` pool (``workers=1`` runs serially in-process, which the
tests use).  Each candidate is lowered once per sweep.  A serial sweep
optimizes and simulates each distinct naive kernel once: candidates are
keyed by the naive kernel's **content hash** (see
:func:`repro.opt.rewrite.kernel_hash`), the way a generator names each
routine by a content hash and emits it once, and a repeat takes the earlier
measurement under its own label, candidate, kernel name and bound.  A pool's
workers share no table, so a pooled sweep measures every candidate; its
leaderboard is the same.  Every outcome carries the content hash of what
was measured; the best outcome also carries the measured kernel itself,
which the kernel store (:mod:`repro.kcache`) publishes as the tuned winner
with the sweep's own measurement of it.  The table lives for one sweep:
the store is the only cache of tuning results.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import asdict, dataclass, field, replace

from repro.arch.specs import GpuSpec, get_gpu_spec, normalize_gpu
from repro.context import current
from repro.errors import ReproError
from repro.isa.assembler import Kernel
from repro.opt import pipeline
from repro.opt.rewrite import kernel_hash
from repro.prof.trace import trace_instant, trace_span
from repro.sgemm.conflict_analysis import analyse_ffma_conflicts
from repro.sim.launch import BlockGrid, LaunchConfig
from repro.sim.sm_sim import SmSimulator
from repro.telemetry.metrics import counter_inc


@dataclass(frozen=True)
class TuneOutcome:
    """Evaluation result of one candidate on one GPU.

    ``candidate`` is the sweep point that was measured, so a caller can
    rebuild the winner from its outcome alone.  ``naive_kernel_hash`` names
    the naive kernel it was built from (``kernel_hash`` itself for an
    unoptimized candidate).  ``kernel`` is the measured kernel while a sweep
    ranks it best (:func:`autotune_workloads` drops it from every other
    outcome); it takes no part in equality or :meth:`as_dict`.
    """

    label: str
    kernel_name: str
    kernel_hash: str
    gpu_key: str
    cycles: float
    gflops: float
    efficiency: float
    ffma_conflicts: int
    register_count: int
    bound_gflops: float | None
    candidate: WorkloadCandidate
    error: str | None = None
    naive_kernel_hash: str = ""
    kernel: Kernel | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the candidate evaluated successfully."""
        return self.error is None

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (without the kernel)."""
        view = asdict(replace(self, kernel=None))
        del view["kernel"]
        return view


def rank(outcome: TuneOutcome) -> tuple:
    """Leaderboard order: successes first, then fewest cycles, then label."""
    return (not outcome.ok, outcome.cycles, outcome.label)


def without_kernel(outcome: TuneOutcome) -> TuneOutcome:
    """``outcome`` without its kernel (``outcome`` itself when it holds none)."""
    return outcome if outcome.kernel is None else replace(outcome, kernel=None)


#: One sweep's measurements: (naive kernel hash, optimize) → the outcome of
#: the first candidate that measured that kernel.
Measured = dict[tuple[str, bool], TuneOutcome]


def _remember(measured: Measured, key: tuple[str, bool], outcome: TuneOutcome) -> None:
    """Add a measurement to the sweep's table.

    Only the entries tied at the table's fewest cycles keep their kernels:
    a repeat of any other entry can never rank first, so it never needs one.
    """
    best = min((entry.cycles for entry in measured.values()), default=math.inf)
    if outcome.cycles < best:
        for other, entry in measured.items():
            measured[other] = without_kernel(entry)
    measured[key] = outcome if outcome.cycles <= best else without_kernel(outcome)


def _repeat(
    earlier: TuneOutcome, candidate: WorkloadCandidate, naive: Kernel, bound: float | None
) -> TuneOutcome:
    """``earlier``'s measurement of an equal naive kernel, under ``candidate``'s
    own label, kernel name and bound; its kernel, if kept, is renamed too."""
    kernel = earlier.kernel
    if kernel is not None:
        kernel = replace(kernel, name=naive.name, metadata={**kernel.metadata, **naive.metadata})
    return replace(
        earlier, label=candidate.display_label, kernel_name=naive.name,
        bound_gflops=bound, candidate=candidate, kernel=kernel,
    )


def _keeping_best_kernel(arriving) -> list[TuneOutcome]:
    """Collect outcomes as they arrive; only the best so far keeps its kernel."""
    outcomes: list[TuneOutcome] = []
    best = -1
    for outcome in arriving:
        if best < 0 or rank(outcome) < rank(outcomes[best]):
            if best >= 0:
                outcomes[best] = without_kernel(outcomes[best])
            best = len(outcomes)
        else:
            outcome = without_kernel(outcome)
        outcomes.append(outcome)
    return outcomes


def simulate_one_block(
    gpu: GpuSpec,
    kernel,
    *,
    max_cycles: int = 2_000_000,
    collect_profile: bool = False,
):
    """Timing-mode simulation of one block of ``kernel`` on one SM.

    The shared evaluation primitive behind the autotuner, the opt benchmark
    and the examples: one `threads_per_block`-wide block, no functional
    execution.  ``collect_profile`` fills the result's per-instruction
    counters (see :mod:`repro.prof`).

    The cycles are not the block's full run.  No branch is taken
    (``SmSimulator._branch_taken``), so they cover one pass through every
    loop body of block (0, 0), and they include no shared-memory
    bank-conflict replays, because without addresses the replay degree
    stays 1.  A sweep ranks candidates on these truncated cycles;
    ROADMAP.md direction 2 records what that costs.
    """
    simulator = SmSimulator(gpu, kernel)
    launch = LaunchConfig(
        grid=BlockGrid(grid_x=1, grid_y=1, block_x=kernel.threads_per_block or 256),
        functional=False,
        max_cycles=max_cycles,
    )
    return simulator.run(launch, block_indices=[(0, 0)], collect_profile=collect_profile)


def _error_outcome(candidate: WorkloadCandidate, gpu_key: str, exc: Exception) -> TuneOutcome:
    """The failed-candidate placeholder outcome."""
    return TuneOutcome(
        label=candidate.display_label,
        kernel_name=candidate.workload,
        kernel_hash="",
        gpu_key=gpu_key,
        cycles=float("inf"),
        gflops=0.0,
        efficiency=0.0,
        ffma_conflicts=-1,
        register_count=-1,
        bound_gflops=None,
        candidate=candidate,
        error=f"{type(exc).__name__}: {exc}",
    )


@dataclass(frozen=True)
class WorkloadCandidate:
    """One registry-workload sweep point.

    Attributes
    ----------
    workload:
        Registry name (see :func:`repro.kernels.workload_names`).
    config:
        Workload configuration; ``None`` uses the workload's default.
    optimize:
        Whether to run the naive kernel through the pass pipeline.
    label:
        Human-readable name used in reports.
    """

    workload: str
    config: object | None = None
    optimize: bool = True
    label: str = ""

    @property
    def display_label(self) -> str:
        if self.label:
            return self.label
        suffix = "pipeline" if self.optimize else "naive"
        return f"{self.workload}:{suffix}"


def evaluate_workload_candidate(
    gpu: GpuSpec | str,
    candidate: WorkloadCandidate,
    measured: Measured | None = None,
) -> TuneOutcome:
    """Generate, (optionally) optimize and simulate one candidate.

    Picklable worker function: the workload is resolved by name inside the
    call so candidates can cross process boundaries.  ``gpu`` may be a
    machine description (preserving any caller customisation) or a name
    resolved via :func:`get_gpu_spec`.

    ``measured`` is a serial sweep's table (see :func:`autotune_workloads`):
    a candidate whose naive kernel is in it is lowered but neither optimized
    nor simulated, and a new measurement is added to it.
    """
    try:
        spec = get_gpu_spec(gpu) if isinstance(gpu, str) else gpu
        gpu_key = normalize_gpu(spec.name)
    except ReproError as exc:
        return _error_outcome(candidate, str(gpu), exc)
    try:
        from repro.kernels.registry import get_workload

        workload = get_workload(candidate.workload)
        config = candidate.config if candidate.config is not None else workload.default_config()
        naive = workload.generate_naive(config)
        try:
            bound = workload.bound(config, spec).potential_gflops
        except ReproError:
            bound = None
        naive_digest = kernel_hash(naive)
        key = (naive_digest, candidate.optimize)
        if measured is not None and key in measured:
            counter_inc("autotune.sim_cache.hits")
            return _repeat(measured[key], candidate, naive, bound)
        # Looked up on the module at call time, so a wrapper installed there
        # (the benchmark's per-layer recorder) sees every optimization.
        kernel = pipeline.optimize_kernel(naive, spec).kernel if candidate.optimize else naive
        digest = kernel_hash(kernel) if candidate.optimize else naive_digest
        conflicts = analyse_ffma_conflicts(kernel)
        result = simulate_one_block(spec, kernel)
        outcome = TuneOutcome(
            label=candidate.display_label,
            kernel_name=kernel.name,
            kernel_hash=digest,
            gpu_key=gpu_key,
            cycles=result.cycles,
            gflops=result.gflops(spec),
            efficiency=result.efficiency(spec),
            ffma_conflicts=conflicts.two_way + conflicts.three_way,
            register_count=kernel.register_count,
            bound_gflops=bound,
            candidate=candidate,
            naive_kernel_hash=naive_digest,
            kernel=kernel,
        )
        if measured is not None:
            _remember(measured, key, outcome)
        return outcome
    except ReproError as exc:
        return _error_outcome(candidate, gpu_key, exc)


def workload_candidates(names: tuple[str, ...] | None = None) -> list[WorkloadCandidate]:
    """The registry sweep: every workload's config space × {naive, pipeline}."""
    from repro.kernels.registry import get_workload, workload_names

    candidates: list[WorkloadCandidate] = []
    for name in names if names is not None else workload_names():
        workload = get_workload(name)
        space = workload.config_space()
        for index, config in enumerate(space):
            tag = f"{name}#{index}" if len(space) > 1 else name
            candidates.append(
                WorkloadCandidate(
                    workload=name, config=config, optimize=False, label=f"{tag}:naive"
                )
            )
            candidates.append(
                WorkloadCandidate(
                    workload=name, config=config, optimize=True, label=f"{tag}:pipeline"
                )
            )
    return candidates


def _evaluate_star(packed: tuple) -> TuneOutcome:
    return evaluate_workload_candidate(*packed)


def autotune_workloads(
    gpu: GpuSpec | str,
    candidates: list[WorkloadCandidate] | None = None,
    *,
    workers: int | None = None,
    measured: Measured | None = None,
) -> list[TuneOutcome]:
    """Evaluate ``candidates`` on ``gpu``, best (fewest cycles) first.

    Parameters
    ----------
    gpu:
        Machine description or its name (``"gtx580"``, ``"gtx680"``, …).
    candidates:
        Sweep points; defaults to :func:`workload_candidates` (every
        registered workload's configuration space × {naive, pipeline}).
    workers:
        Process count for the multiprocessing pool; ``None`` uses the CPU
        count (capped by the candidate count), ``1`` runs serially
        in-process.
    measured:
        The table of the sweep this call is part of, when one sweep spans
        several calls (a generative sweep's warm seeds, then its kept
        candidates); ``None`` starts a table of this call's own.  Only a
        serial call reads and fills it.

    Every candidate simulates under :func:`simulate_one_block`'s default
    cycle cap.  Only the best outcome keeps its measured kernel: the others
    drop theirs as they arrive, and the table keeps only the kernels tied
    at its fewest cycles, so a sweep holds few kernels at a time.
    """
    spec = get_gpu_spec(gpu) if isinstance(gpu, str) else gpu
    if candidates is None:
        candidates = workload_candidates()
    if workers is None:
        workers = min(len(candidates), os.cpu_count() or 1)
    workers = max(1, min(workers, len(candidates)))

    # The whole sweep is one trace span; per-candidate results are recorded
    # as instants *after* the pool returns, so traces work identically for
    # serial and multiprocessing sweeps (worker processes never see the
    # parent's tracer).
    with trace_span(
        "autotune.sweep", category="autotune", candidates=len(candidates), workers=workers
    ):
        if workers == 1:
            table = {} if measured is None else measured
            outcomes = _keeping_best_kernel(
                evaluate_workload_candidate(spec, candidate, table)
                for candidate in candidates
            )
        else:
            jobs = [(spec, candidate) for candidate in candidates]
            with multiprocessing.Pool(processes=workers) as pool:
                outcomes = _keeping_best_kernel(pool.imap(_evaluate_star, jobs))
    if current().metrics is not None:
        counter_inc("autotune.candidates_evaluated", len(outcomes))
        counter_inc("autotune.candidate_errors", sum(1 for o in outcomes if not o.ok))
    for outcome in outcomes:
        trace_instant(
            f"candidate.{outcome.label}",
            category="autotune",
            # Failed candidates carry cycles=inf, which strict JSON cannot
            # represent; record the error string instead.
            cycles=outcome.cycles if outcome.ok else None,
            ok=outcome.ok,
        )
    return sorted(outcomes, key=rank)


def format_leaderboard(outcomes: list[TuneOutcome]) -> str:
    """Render autotune outcomes as an aligned text table."""
    header = (
        f"{'candidate':28s} {'cycles':>10s} {'GFLOPS':>8s} {'eff %':>7s} "
        f"{'conf':>5s} {'regs':>5s} {'bound':>8s}"
    )
    lines = [header, "-" * len(header)]
    for outcome in outcomes:
        if not outcome.ok:
            lines.append(f"{outcome.label:28s} failed: {outcome.error}")
            continue
        bound = f"{outcome.bound_gflops:8.1f}" if outcome.bound_gflops else f"{'-':>8s}"
        lines.append(
            f"{outcome.label:28s} {outcome.cycles:10.0f} {outcome.gflops:8.1f} "
            f"{100.0 * outcome.efficiency:7.2f} {outcome.ffma_conflicts:5d} "
            f"{outcome.register_count:5d} {bound}"
        )
    return "\n".join(lines)
