"""Generative schedule-space autotuning for tile-IR workloads.

The tile workloads encode their *schedule* in the workload configuration
(tile sizes, register blocking, staging stride, B-register window, staging
and pipelining toggles), so sweeping schedules is sweeping configurations —
the same :class:`~repro.opt.autotune.WorkloadCandidate` machinery that sweeps
the hand generators' knobs evaluates DSL schedules, shares the
multiprocessing pool, and ranks everything on one leaderboard.

This module closes the paper's §5.5 loop mechanically, for one workload at
one problem shape:

* :func:`schedule_space` *generates* the candidate set — for ``tile_sgemm``
  the cross product of (block tile, register blocking B_R, staging stride L,
  B-window, double buffering) filtered by the structural validity rules the
  lowering imposes, plus the named staging/pipelining ablations
  (``nostage``/``noprefetch``/``w1``);
* :func:`prune_by_bound` evaluates each candidate's **analytic upper bound**
  (:func:`repro.tile.resources.proc_resources` feeding
  :func:`repro.model.analyse_workload_bound`) and discards everything whose
  bound is far from the best before any simulation runs — the "where to
  look" half of the paper's argument;
* :func:`repro.opt.autotune.autotune_workloads` simulates the survivors —
  the one sweep harness every candidate goes through;
* :func:`run_generative_sweep` chains the three, timing each phase, and
  simulates the caller's warm-start seed candidates ahead of them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from repro.arch.specs import GpuGeneration, GpuSpec, get_gpu_spec, normalize_gpu
from repro.context import current
from repro.errors import ReproError, ResourceLimitError
from repro.kernels.registry import get_workload
from repro.opt.autotune import TuneOutcome, WorkloadCandidate, autotune_workloads
from repro.prof.trace import trace_span
from repro.telemetry.ledger import config_digest, record_run
from repro.telemetry.metrics import counter_inc, observe
from repro.tile.lower import launch_geometry
from repro.tile.resources import proc_occupancy
from repro.tile.workloads import TileSgemmConfig

__all__ = [
    "KEEP_WITHIN",
    "SWEPT_WORKLOADS",
    "PruneReport",
    "schedule_space",
    "prune_by_bound",
    "run_generative_sweep",
    "sweep_summary",
    "block_cycle_floor",
    "sgemm_point_valid",
]

#: The workloads :func:`schedule_space` generates a space for.
SWEPT_WORKLOADS = ("tile_sgemm", "tile_transpose", "tile_sgemv")

#: Default generative axes of the SGEMM schedule space.
SGEMM_TILES = (24, 48, 96)
SGEMM_BLOCKINGS = (3, 6)
SGEMM_STRIDES = (8, 16)
SGEMM_WINDOWS = (1, 2)
SGEMM_DOUBLE_BUFFERS = (False, True)

#: :func:`prune_by_bound` keeps a candidate whose analytic bound is within
#: this factor of the space's best bound.  A heuristic: it compares bounds
#: with bounds, and a candidate with a worse bound can still simulate
#: faster.  At 193x161x97 on gtx680 it discards ``t48b6l8w2db``, the
#: candidate whose whole grid runs fastest (ROADMAP.md direction 2).
KEEP_WITHIN = 1.2


def sgemm_point_valid(config: TileSgemmConfig) -> bool:
    """Structural validity of one SGEMM schedule point.

    Mirrors the constraints the schedule and lowering impose: the register
    blocking divides the tile, the window divides the blocking, the thread-x
    extent is a power of two (flat-TID shift/mask decomposition), the block
    is at most 1024 threads, and — when staging — the tile×stride window
    distributes evenly over the block with a power-of-two number of load
    groups per staged row (the cooperative-copy distribution rules).
    """
    if config.tile % config.register_blocking:
        return False
    if config.register_blocking % config.b_window:
        return False
    threads_x = config.tile // config.register_blocking
    if threads_x & (threads_x - 1):
        return False
    threads = threads_x * threads_x
    if threads > 1024:
        return False
    if config.stage:
        window = config.tile * config.stride
        if window % threads:
            return False
        per_thread = window // threads
        if config.tile % per_thread:
            return False
        groups_per_row = config.tile // per_thread
        if groups_per_row > 1 and groups_per_row & (groups_per_row - 1):
            return False
    return True


def _sgemm_points(
    base: TileSgemmConfig,
    tiles: tuple[int, ...],
    blockings: tuple[int, ...],
    strides: tuple[int, ...],
    windows: tuple[int, ...],
    double_buffers: tuple[bool, ...],
) -> list[tuple[str, TileSgemmConfig]]:
    """The generative (tile, B_R, L, window, double-buffer) grid, filtered."""
    points: list[tuple[str, TileSgemmConfig]] = []
    seen: set[TileSgemmConfig] = set()

    def push(label: str, config: TileSgemmConfig) -> None:
        if config in seen or not sgemm_point_valid(config):
            return
        seen.add(config)
        points.append((label, config))

    # Named ablation points first: the staging ladder the benchmarks track.
    push("golden", base)
    push("noprefetch", replace(base, prefetch=False))
    push("nostage", replace(base, stage=False, prefetch=False))
    push("w1", replace(base, b_window=1))
    for tile in tiles:
        for blocking in blockings:
            for stride in strides:
                for window in windows:
                    for double in double_buffers:
                        config = replace(
                            base,
                            tile=tile,
                            register_blocking=blocking,
                            stride=stride,
                            b_window=window,
                            # Halved tiles quadruple the threads per element:
                            # the prefetch registers no longer fit beside the
                            # full accumulator tile, so sub-base tiles
                            # pipeline off.
                            prefetch=base.prefetch and tile >= base.tile,
                            # The double-buffer axis only exists for staged
                            # schedules (there is no tile to alternate
                            # otherwise).
                            double_buffer=double and base.stage,
                        )
                        label = f"t{tile}b{blocking}l{stride}w{window}"
                        push(label + ("db" if config.double_buffer else ""), config)
    return points


def schedule_space(
    workload: str,
    config=None,
    *,
    tiles: tuple[int, ...] = SGEMM_TILES,
    register_blockings: tuple[int, ...] = SGEMM_BLOCKINGS,
    strides: tuple[int, ...] = SGEMM_STRIDES,
    b_windows: tuple[int, ...] = SGEMM_WINDOWS,
    double_buffers: tuple[bool, ...] = SGEMM_DOUBLE_BUFFERS,
) -> list[WorkloadCandidate]:
    """The unpruned schedule space of one tile workload at one shape.

    ``config`` fixes the problem shape and the base schedule the named
    points vary; ``None`` uses the workload's ``default_config()``.  Every
    candidate is labelled ``"{workload}:{point}"``.

    ``tile_sgemm`` crosses the axes ``tiles`` … ``double_buffers``;
    ``True`` points of ``double_buffers`` stage two alternating shared
    tiles (one barrier per main-loop iteration, twice the footprint), and
    :func:`prune_by_bound` discards the ones that cannot even be resident.
    ``tile_transpose`` and ``tile_sgemv`` have three named points each and
    no axes.
    """
    if config is None:
        config = get_workload(workload).default_config()
    if workload == "tile_sgemm":
        points = _sgemm_points(
            config, tiles, register_blockings, strides, b_windows, double_buffers
        )
    elif workload == "tile_transpose":
        points = [
            ("nopad", replace(config, pad=0)),
            ("golden", config),
            ("t8", replace(config, tile=8)),
        ]
    elif workload == "tile_sgemv":
        points = [
            ("w1", replace(config, k_window=1)),
            ("noprefetch", replace(config, prefetch=False)),
            ("golden", config),
        ]
    else:
        raise ReproError(f"workload {workload!r} has no schedule space")
    return [
        WorkloadCandidate(
            workload=workload, config=point, optimize=True, label=f"{workload}:{label}"
        )
        for label, point in points
    ]


@dataclass(frozen=True)
class PruneReport:
    """Outcome of an analytic-bound pruning pass.

    ``kept`` feed the simulator; ``pruned`` records (label, bound seconds)
    of everything discarded without simulating — occupancy-killed candidates
    (doubled tiles that cannot be resident) carry an infinite bound.
    ``elapsed_s`` is the host-side wall time of the pruning pass itself; the
    per-candidate schedule applications are memoized by schedule hash, so
    repeated sweeps over overlapping spaces get cheaper, not slower.
    """

    kept: tuple[WorkloadCandidate, ...]
    pruned: tuple[tuple[str, float], ...]
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def total(self) -> int:
        return len(self.kept) + len(self.pruned)

    @property
    def pruned_fraction(self) -> float:
        return len(self.pruned) / self.total if self.total else 0.0


def prune_by_bound(
    gpu: GpuSpec | str,
    candidates: list[WorkloadCandidate],
) -> PruneReport:
    """Discard candidates whose analytic bound is far from the best.

    ``candidates`` is one space: one workload at one problem shape, as
    :func:`schedule_space` builds it.  Each candidate's scheduled proc
    yields its compulsory traffic
    (:func:`repro.tile.resources.proc_resources`), and the generalized
    Eq. 6/8/9 bound turns that into a minimum execution time.  Candidates
    whose bound exceeds :data:`KEEP_WITHIN` × the space's best bound are
    pruned unsimulated.  This is a heuristic, not a guarantee: see
    :data:`KEEP_WITHIN`.

    Occupancy prunes on top of the bound: a schedule whose shared-memory
    footprint cannot be resident on ``gpu`` at all — double-buffered tiles
    are the textbook case, costing 2× the footprint plus the parity
    alignment hole — is discarded outright (recorded with an infinite
    bound), because it cannot launch, let alone win.
    """
    started = time.perf_counter()
    spec = get_gpu_spec(gpu) if isinstance(gpu, str) else gpu
    with trace_span(
        "autotune.prune_by_bound", category="autotune", candidates=len(candidates)
    ) as span:
        report = _prune_by_bound(spec, candidates, started)
        span["kept"] = len(report.kept)
        span["pruned"] = len(report.pruned)
    if current().metrics is not None:
        counter_inc("autotune.candidates_generated", report.total)
        counter_inc("autotune.candidates_pruned", len(report.pruned))
        counter_inc("autotune.candidates_kept", len(report.kept))
        observe("autotune.prune_seconds", report.elapsed_s)
    return report


def _prune_by_bound(
    spec: GpuSpec,
    candidates: list[WorkloadCandidate],
    started: float,
) -> PruneReport:
    # Bound seconds by candidate position; infinite when it cannot be
    # resident.  Unboundable candidates are absent and always kept: the
    # simulator reports their error.
    bounds: dict[int, float] = {}
    for position, candidate in enumerate(candidates):
        try:
            workload = get_workload(candidate.workload)
            config = (
                candidate.config
                if candidate.config is not None
                else workload.default_config()
            )
            scheduled = getattr(workload, "cached_scheduled_proc", None)
            if scheduled is not None:
                try:
                    proc_occupancy(scheduled(config), spec)
                except ResourceLimitError:
                    bounds[position] = math.inf
                    continue
            bounds[position] = workload.bound(config, spec).bound_time_s
        except ReproError:
            continue

    best = min((bound for bound in bounds.values() if bound < math.inf), default=0.0)
    pruned = {position for position, bound in bounds.items() if bound > KEEP_WITHIN * best}
    return PruneReport(
        kept=tuple(
            candidate
            for position, candidate in enumerate(candidates)
            if position not in pruned
        ),
        pruned=tuple(
            (candidates[position].display_label, bounds[position])
            for position in sorted(pruned)
        ),
        elapsed_s=time.perf_counter() - started,
    )


def schedule_cache_stats() -> dict[str, float] | None:
    """Schedule-memo economics read from the installed metrics facade.

    The scheduled-proc memo (:mod:`repro.tile.workloads`) reports its hits,
    misses and FIFO evictions through :mod:`repro.telemetry.metrics`; this
    reads those series back.  Returns None when no registry is installed —
    the memo's private dict is deliberately not consulted.
    """
    registry = current().metrics
    if registry is None:
        return None
    snapshot = registry.snapshot()
    return {
        "hits": snapshot.counter_total("tile.schedule_cache.hits"),
        "misses": snapshot.counter_total("tile.schedule_cache.misses"),
        "evictions": snapshot.counter_total("tile.schedule_cache.evictions"),
    }


def sweep_summary(report: PruneReport, outcomes: list[TuneOutcome]) -> str:
    """One-line sweep log: candidate economics at a glance.

    Surfaces the figures a sweep's cost is made of — how many candidates the
    bound pruned (and how long pruning took), how many the simulator ran,
    and the winner::

        swept 32 candidates: pruned 23 by bound in 0.17s, simulated 9,
        best tile_sgemm:t96b6l8w2 @ 4879 cycles

    With a metrics registry installed (:func:`repro.context.session`), the
    schedule-memo economics — hits, misses and FIFO evictions — ride along,
    read from the facade rather than from the memo's private state::

        ...; schedule cache 30 hits / 12 misses / 3 evictions
    """
    best = next((outcome for outcome in outcomes if outcome.ok), None)
    line = (
        f"swept {report.total} candidates: pruned {len(report.pruned)} by bound "
        f"in {report.elapsed_s:.2f}s, simulated {len(outcomes)}"
    )
    if best is not None:
        line += f", best {best.label} @ {best.cycles:.0f} cycles"
    stats = schedule_cache_stats()
    if stats is not None:
        line += (
            f"; schedule cache {stats['hits']:.0f} hits / "
            f"{stats['misses']:.0f} misses / {stats['evictions']:.0f} evictions"
        )
    return line


@dataclass(frozen=True)
class SweepReport:
    """A timed generative sweep: pruning plus simulation of the survivors.

    The benchmark harness (``benchmarks/bench_sim.py``) records these figures
    into ``BENCH_sim.json``; the sweep-throughput entries feed the trajectory
    gate (``scripts/bench_trajectory.py --check``), which flags regressions
    in simulated candidates per second.

    Attributes
    ----------
    prune:
        The bound-pruning pass, including its wall time
        (:attr:`PruneReport.elapsed_s`).
    outcomes:
        Simulation outcomes (warm seeds included), best first.
    sim_elapsed_s:
        Host wall time of the simulation phase (warm seeds included).
    seed_candidates:
        The warm-start seeds the caller passed; empty when the sweep ran
        cold.
    warm_pruned:
        Candidates discarded *unsimulated* because their per-block cycle
        floor (:func:`block_cycle_floor`) exceeded the best seed's achieved
        cycles.  A heuristic cut: the floor is not a lower bound on the
        truncated cycles the sweep measures, so a cut candidate may have
        been the winner.
    """

    prune: PruneReport
    outcomes: tuple[TuneOutcome, ...]
    sim_elapsed_s: float
    seed_candidates: tuple[WorkloadCandidate, ...] = ()
    warm_pruned: int = 0

    @property
    def total_elapsed_s(self) -> float:
        """End-to-end sweep wall time: pruning plus simulation."""
        return self.prune.elapsed_s + self.sim_elapsed_s

    @property
    def candidates_per_s(self) -> float:
        """Sweep throughput: candidates retired per second of wall time.

        Counts every candidate the sweep disposed of — pruned analytically
        or simulated — over the end-to-end time; this is the headline
        figure the vectorized functional engine is benchmarked on.
        """
        if self.total_elapsed_s <= 0:
            return 0.0
        return self.prune.total / self.total_elapsed_s


#: Constant label set of the warm-start counters.
_WARM_LABELS = (("stage", "warm_start"),)


def _max_warp_issues_per_cycle(gpu: GpuSpec) -> float:
    """The simulator's hard cap on warp instructions issued per cycle.

    Mirrors :class:`repro.sim.sm_sim.SmSimulator`'s issue loop exactly: one
    issue per warp scheduler, except Kepler where each scheduler's two
    dispatch units allow dual issue.
    """
    if gpu.generation is GpuGeneration.KEPLER:
        return float(gpu.sm.dispatch_units)
    return float(max(1, gpu.sm.warp_schedulers))


def block_cycle_floor(workload, config, gpu: GpuSpec) -> float:
    """An issue-rate floor on one full block's cycles for ``config``.

    Built on an *invariant of the simulator itself*, not the analytic
    performance model (whose clock normalisation is not comparable to
    simulated cycles): the issue loop retires at most
    :func:`_max_warp_issues_per_cycle` warp instructions per cycle, and the
    FFMA stream alone is ``flops / 2 / 32`` warp instructions.  Dividing the
    whole problem's compulsory flops (:meth:`Workload.resources`, counted
    off the scheduled IR) by the grid's block count gives the *average*
    per-block FFMA work, and block (0, 0) — an interior, full-tile block —
    never does less.  No pass pipeline removes FFMAs, so the figure is the
    same for naive and optimized candidates.

    It is a floor on a *full* run of the block, which the sweep does not
    measure: its timing-only run takes no branch, so it covers one pass
    through each loop body.  Against that truncated figure the floor is a
    heuristic.  At 192x160x96 on gtx580, 7 of the 19 bound-kept candidates,
    all with 96-wide tiles, simulate below it; ``golden`` runs 9,281 cycles
    against a floor of 11,520.

    Returns 0.0 (prunes nothing) when the floor cannot be priced — e.g.
    flop-free workloads like the transposes.
    """
    scheduled = getattr(workload, "cached_scheduled_proc", None)
    if scheduled is None:
        return 0.0
    try:
        proc = scheduled(config)
        geometry = launch_geometry(proc)
        resources = workload.resources(config)
    except ReproError:
        return 0.0
    blocks = max(1, geometry.grid_x * geometry.grid_y)
    ffma_warps_per_block = (resources.flops / 2.0) / blocks / 32.0
    return ffma_warps_per_block / _max_warp_issues_per_cycle(gpu)


def _warm_prune(
    kept: list[WorkloadCandidate],
    seeds: list[WorkloadCandidate],
    seed_outcomes: list[TuneOutcome],
    spec: GpuSpec,
) -> tuple[list[WorkloadCandidate], int]:
    """Drop candidates whose floor exceeds the best seed's measurement.

    A candidate whose per-block cycle floor (:func:`block_cycle_floor`)
    exceeds the best seed's achieved cycles is not simulated.  The floor is
    a heuristic against the sweep's truncated cycles (see there), so this
    can drop the candidate that would have won.  Candidates identical to a
    seed config are dropped too — their outcome is already on the board.
    """
    best_seed = min((o.cycles for o in seed_outcomes if o.ok), default=None)
    if best_seed is None:
        return kept, 0
    seed_points = {(c.workload, c.config) for c in seeds}
    survivors: list[WorkloadCandidate] = []
    pruned = 0
    for candidate in kept:
        if (candidate.workload, candidate.config) in seed_points:
            continue  # already measured as a seed
        floor = block_cycle_floor(get_workload(candidate.workload), candidate.config, spec)
        if floor > best_seed:
            pruned += 1
            continue
        survivors.append(candidate)
    return survivors, pruned


def run_generative_sweep(
    gpu: GpuSpec | str,
    workload: str,
    config=None,
    *,
    seeds: tuple[WorkloadCandidate, ...] = (),
    workers: int | None = 1,
    **axes,
) -> SweepReport:
    """Generate, prune and simulate one workload's space at one shape.

    The single-entry-point version of the :func:`schedule_space` →
    :func:`prune_by_bound` → :func:`autotune_workloads` chain over
    ``schedule_space(workload, config, **axes)``, with wall times captured
    where benchmarks need them.

    ``seeds`` are warm-start candidates; the kernel store builds them from
    the winners of its nearest tuned shapes.  They are simulated *first*,
    their best measured cycles then drop every bound-kept candidate whose
    per-block floor exceeds them (:func:`_warm_prune`), and their outcomes
    join the leaderboard.  The floor is a heuristic against the sweep's
    truncated cycles (:func:`block_cycle_floor`), so a seeded sweep runs
    fewer simulations but can miss the winner of the unseeded one.
    """
    spec = get_gpu_spec(gpu) if isinstance(gpu, str) else gpu
    candidates = schedule_space(workload, config, **axes)
    seeds = list(seeds)

    started = time.perf_counter()
    seed_outcomes = autotune_workloads(spec, seeds, workers=workers) if seeds else []
    seed_sim_s = time.perf_counter() - started
    report = prune_by_bound(spec, candidates)
    kept, warm_pruned = _warm_prune(list(report.kept), seeds, seed_outcomes, spec)
    started = time.perf_counter()
    outcomes = autotune_workloads(spec, kept, workers=workers)
    if seeds:
        counter_inc("kcache.warm.seeds", len(seeds), _WARM_LABELS)
        counter_inc("kcache.warm.pruned", warm_pruned, _WARM_LABELS)
    combined = sorted(
        (*seed_outcomes, *outcomes), key=lambda o: (not o.ok, o.cycles, o.label)
    )
    sweep = SweepReport(
        prune=report,
        outcomes=tuple(combined),
        sim_elapsed_s=seed_sim_s + (time.perf_counter() - started),
        seed_candidates=tuple(seeds),
        warm_pruned=warm_pruned,
    )
    if current().ledger is not None:
        _ledger_sweep(sweep, spec, workload, config={"config": config, **axes})
    return sweep


def _ledger_sweep(
    sweep: SweepReport,
    spec: GpuSpec,
    workload: str,
    *,
    config: dict[str, object],
) -> None:
    """Append one ``kind="sweep"`` record for a finished generative sweep.

    The key is stable across runs of the same (workload, GPU) sweep so
    ``scripts/ledger.py diff`` can compare the latest two; the best
    candidate's cycles are the gated figure.
    """
    gpu_key = normalize_gpu(spec.name)
    best = next((o for o in sweep.outcomes if o.ok), None)
    metrics: dict[str, object] = {
        "candidates": sweep.prune.total,
        "pruned": len(sweep.prune.pruned),
        "simulated": len(sweep.outcomes),
        "warm_seeds": len(sweep.seed_candidates),
        "warm_pruned": sweep.warm_pruned,
        "prune_seconds": sweep.prune.elapsed_s,
        "sim_seconds": sweep.sim_elapsed_s,
        "candidates_per_s": sweep.candidates_per_s,
    }
    kernel_hash = ""
    if best is not None:
        metrics["best_label"] = best.label
        metrics["cycles"] = best.cycles
        metrics["gflops"] = best.gflops
        metrics["efficiency"] = best.efficiency
        kernel_hash = best.kernel_hash
    record_run(
        "sweep",
        f"sweep:{workload}:{gpu_key}:{config_digest(config)}",
        workload=workload,
        gpu=gpu_key,
        kernel_hash=kernel_hash,
        config=config,
        metrics=metrics,
    )
