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
tests use).  Each candidate is simulated exactly once per sweep, and its
outcome carries the **kernel content hash** (see
:func:`repro.opt.rewrite.kernel_hash`) of what was measured.  Nothing is
memoized here: the only cache of tuning results is the kernel store
(:mod:`repro.kcache`), which keeps tuned winners together with the sweep's
own measurement of them.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import asdict, dataclass

from repro.arch.specs import GpuSpec, get_gpu_spec, normalize_gpu
from repro.context import current
from repro.errors import ReproError
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
    rebuild the winner from its outcome alone.
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

    @property
    def ok(self) -> bool:
        """Whether the candidate evaluated successfully."""
        return self.error is None

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view."""
        return asdict(self)


def simulate_one_block(
    gpu: GpuSpec,
    kernel,
    *,
    max_cycles: int = 2_000_000,
    functional: bool = False,
    collect_profile: bool = False,
):
    """Timing-mode simulation of one block of ``kernel`` on one SM.

    The shared evaluation primitive behind the autotuner, the opt benchmark
    and the examples: one `threads_per_block`-wide block, no functional
    execution unless requested.  ``collect_profile`` fills the result's
    per-instruction counters (see :mod:`repro.prof`).

    Without ``functional`` the cycles are not the block's full run.  No
    branch is taken (``SmSimulator._branch_taken``), so they cover one pass
    through every loop body of block (0, 0), and they include no
    shared-memory bank-conflict replays, because without addresses the
    replay degree stays 1.  A sweep ranks candidates on these truncated
    cycles; ROADMAP.md direction 2 records what that costs.
    """
    simulator = SmSimulator(gpu, kernel)
    launch = LaunchConfig(
        grid=BlockGrid(grid_x=1, grid_y=1, block_x=kernel.threads_per_block or 256),
        functional=functional,
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
) -> TuneOutcome:
    """Generate, (optionally) optimize and simulate one candidate.

    Picklable worker function: the workload is resolved by name inside the
    call so candidates can cross process boundaries.  ``gpu`` may be a
    machine description (preserving any caller customisation) or a name
    resolved via :func:`get_gpu_spec`.
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
        if candidate.optimize:
            kernel, _ = workload.generate_optimized(config, spec)
        else:
            kernel = workload.generate_naive(config)
        try:
            bound = workload.bound(config, spec).potential_gflops
        except ReproError:
            bound = None
        digest = kernel_hash(kernel)
        conflicts = analyse_ffma_conflicts(kernel)
        result = simulate_one_block(spec, kernel)
        return TuneOutcome(
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
        )
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

    Every candidate simulates under :func:`simulate_one_block`'s default
    cycle cap.
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
        jobs = [(spec, candidate) for candidate in candidates]
        if workers == 1:
            outcomes = [_evaluate_star(job) for job in jobs]
        else:
            with multiprocessing.Pool(processes=workers) as pool:
                outcomes = pool.map(_evaluate_star, jobs)
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
    return sorted(outcomes, key=lambda o: (not o.ok, o.cycles, o.label))


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
