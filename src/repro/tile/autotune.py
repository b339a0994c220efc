"""Generative schedule-space autotuning for tile-IR workloads.

The tile workloads encode their *schedule* in the workload configuration
(tile sizes, register blocking, staging stride, B-register window, staging
and pipelining toggles), so sweeping schedules is sweeping configurations —
the same :class:`~repro.opt.autotune.WorkloadCandidate` machinery that sweeps
the hand generators' knobs evaluates DSL schedules, shares the
multiprocessing pool, and ranks everything on one leaderboard.

This module closes the paper's §5.5 loop mechanically:

* :func:`schedule_space` *generates* the candidate set — the cross product of
  (block tile, register blocking B_R, staging stride L, B-window) filtered
  by the structural validity rules the lowering imposes, crossed with
  imperfect *tail* problem sizes (``predicate_tail`` schedules), plus the
  named staging/pipelining ablations (``nostage``/``noprefetch``/``w1``);
* :func:`prune_by_bound` evaluates each candidate's **analytic upper bound**
  (:func:`repro.tile.resources.proc_resources` feeding
  :func:`repro.model.analyse_workload_bound`) and discards everything whose
  bound is hopeless before any simulation runs — the "where to look" half of
  the paper's argument;
* :func:`repro.opt.autotune.autotune_workloads` simulates the survivors —
  the one sweep harness every candidate goes through;
* :func:`run_generative_sweep` chains the three, timing each phase and
  optionally warm-starting from the kernel store's nearest tuned shapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.arch.specs import GpuSpec, get_gpu_spec, normalize_gpu
from repro.context import current
from repro.errors import ReproError, ResourceLimitError
from repro.opt.autotune import TuneOutcome, WorkloadCandidate, autotune_workloads
from repro.prof.trace import trace_span
from repro.telemetry.ledger import config_digest, record_run
from repro.telemetry.metrics import counter_inc, observe
from repro.tile.resources import proc_occupancy
from repro.tile.workloads import TileSgemmConfig, TileSgemvConfig, TileTransposeConfig

__all__ = [
    "PruneReport",
    "schedule_space",
    "prune_by_bound",
    "run_generative_sweep",
    "sweep_summary",
]

#: Default generative axes of the SGEMM schedule space.
SGEMM_TILES = (24, 48, 96)
SGEMM_BLOCKINGS = (3, 6)
SGEMM_STRIDES = (8, 16)
SGEMM_WINDOWS = (1, 2)
SGEMM_DOUBLE_BUFFERS = (False, True)

#: Default imperfect problem sizes crossed into the sweep (predicate-tail
#: schedules: none of these is a multiple of any swept tile).
TAIL_SIZES = ((100, 92, 20),)


def _sgemm_valid(config: TileSgemmConfig) -> bool:
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
    double_buffers: tuple[bool, ...] = SGEMM_DOUBLE_BUFFERS,
) -> list[tuple[str, TileSgemmConfig]]:
    """The generative (tile, B_R, L, window, double-buffer) grid, filtered."""
    points: list[tuple[str, TileSgemmConfig]] = []
    seen: set[TileSgemmConfig] = set()

    def push(label: str, config: TileSgemmConfig) -> None:
        if config in seen or not _sgemm_valid(config):
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
    *,
    sgemm: TileSgemmConfig | None = None,
    transpose: TileTransposeConfig | None = None,
    sgemv: TileSgemvConfig | None = None,
    include_naive: bool = False,
    tiles: tuple[int, ...] = SGEMM_TILES,
    register_blockings: tuple[int, ...] = SGEMM_BLOCKINGS,
    strides: tuple[int, ...] = SGEMM_STRIDES,
    b_windows: tuple[int, ...] = SGEMM_WINDOWS,
    double_buffers: tuple[bool, ...] = SGEMM_DOUBLE_BUFFERS,
    tail_sizes: tuple[tuple[int, int, int], ...] = TAIL_SIZES,
) -> list[WorkloadCandidate]:
    """The unpruned generative sweep over every DSL workload's schedules.

    ``include_naive`` additionally evaluates every point without the pass
    pipeline, doubling the sweep (useful for before/after tables).
    ``tail_sizes`` crosses the SGEMM grid with imperfect (M, N, K) problem
    sizes — every candidate carries its problem size in the label.
    ``double_buffers`` is the double-buffering axis: ``True`` points stage
    two alternating shared tiles (one barrier per main-loop iteration, twice
    the footprint); :func:`prune_by_bound` discards the ones whose doubled
    tiles cannot even be resident.
    """
    candidates: list[WorkloadCandidate] = []

    def push(workload: str, label: str, config) -> None:
        if include_naive:
            candidates.append(
                WorkloadCandidate(
                    workload=workload, config=config, optimize=False,
                    label=f"{workload}:{label}:naive",
                )
            )
        candidates.append(
            WorkloadCandidate(
                workload=workload, config=config, optimize=True,
                label=f"{workload}:{label}",
            )
        )

    base = sgemm or TileSgemmConfig()
    for label, config in _sgemm_points(
        base, tiles, register_blockings, strides, b_windows, double_buffers
    ):
        push("tile_sgemm", label, config)
    for m, n, k in tail_sizes:
        tail_base = replace(base, m=m, n=n, k=k)
        for label, config in _sgemm_points(
            tail_base, tiles, register_blockings, strides, b_windows, double_buffers
        ):
            push("tile_sgemm", f"{label}@{m}x{n}x{k}", config)

    transpose = transpose or TileTransposeConfig()
    for label, config in (
        ("nopad", replace(transpose, pad=0)),
        ("golden", transpose),
        ("t8", replace(transpose, tile=8)),
    ):
        push("tile_transpose", label, config)

    sgemv = sgemv or TileSgemvConfig()
    for label, config in (
        ("w1", replace(sgemv, k_window=1)),
        ("noprefetch", replace(sgemv, prefetch=False)),
        ("golden", sgemv),
    ):
        push("tile_sgemv", label, config)

    return candidates


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


def _size_key(candidate: WorkloadCandidate) -> tuple:
    config = candidate.config
    return (
        candidate.workload,
        getattr(config, "m", None),
        getattr(config, "n", None),
        getattr(config, "k", None),
    )


def prune_by_bound(
    gpu: GpuSpec | str,
    candidates: list[WorkloadCandidate],
    *,
    keep_within: float = 1.2,
) -> PruneReport:
    """Discard candidates whose analytic bound is hopeless before simulating.

    Each candidate's scheduled proc yields its compulsory traffic
    (:func:`repro.tile.resources.proc_resources`), and the generalized
    Eq. 6/8/9 bound turns that into a minimum execution time.  Within each
    (workload, problem size) group, candidates whose *bound* exceeds
    ``keep_within ×`` the group's best bound are pruned unsimulated.  This
    is a heuristic, not a guarantee: it compares bounds with bounds, and a
    candidate with a worse bound can still simulate faster than one with a
    better bound.  ROADMAP.md direction 2 records measured cases where the
    pruned candidate was the better kernel.

    Occupancy prunes on top of the bound: a schedule whose shared-memory
    footprint cannot be resident on ``gpu`` at all — double-buffered tiles
    are the textbook case, costing 2× the footprint plus the parity
    alignment hole — is discarded outright (recorded with an infinite
    bound), because it cannot launch, let alone win.
    """
    started = time.perf_counter()
    spec = get_gpu_spec(gpu) if isinstance(gpu, str) else gpu
    if keep_within < 1.0:
        raise ReproError("keep_within must be >= 1.0 (a ratio over the best bound)")
    with trace_span(
        "autotune.prune_by_bound", category="autotune", candidates=len(candidates)
    ) as span:
        report = _prune_by_bound(spec, candidates, keep_within, started)
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
    keep_within: float,
    started: float,
) -> PruneReport:
    from repro.kernels.registry import get_workload

    times: dict[int, float] = {}
    groups: dict[tuple, list[int]] = {}
    unresident: set[int] = set()
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
                    times[position] = float("inf")
                    unresident.add(position)
                    continue
            times[position] = workload.bound(config, spec).bound_time_s
        except ReproError:
            continue  # unboundable: let the simulator report the error
        groups.setdefault(_size_key(candidate), []).append(position)

    pruned: set[int] = set(unresident)
    for members in groups.values():
        best = min(times[position] for position in members)
        for position in members:
            if times[position] > keep_within * best:
                pruned.add(position)
    return PruneReport(
        kept=tuple(
            candidate
            for position, candidate in enumerate(candidates)
            if position not in pruned
        ),
        pruned=tuple(
            (candidates[position].display_label, times[position])
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

        swept 63 candidates: pruned 41 by bound in 0.52s, simulated 22,
        best tile_sgemm:golden @ 8125 cycles

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
        Warm-start candidates injected from the kernel store's nearest
        tuned shapes (:mod:`repro.kcache.warmstart`); empty when the sweep
        ran cold.
    warm_pruned:
        Candidates discarded *unsimulated* because their per-block cycle
        floor already exceeded the best warm seed's achieved cycles (a
        sound cut: the floor is a lower bound, the threshold a measurement).
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


#: Which :func:`schedule_space` keyword carries each workload's base config
#: (the shape the warm-start policy measures neighbour distance against, and
#: the requested configuration a tuned kernel-cache miss sweeps around).
SPACE_BASE_FIELD = {
    "tile_sgemm": "sgemm",
    "tile_transpose": "transpose",
    "tile_sgemv": "sgemv",
}

#: Constant label set of the warm-start counters.
_WARM_LABELS = (("stage", "warm_start"),)


def _warm_seed_candidates(
    store, workload: str, spec: GpuSpec, base, *, limit: int
) -> list[WorkloadCandidate]:
    """Warm-start candidates from the store's nearest tuned shapes."""
    from repro.kcache.keys import shape_of
    from repro.kcache.warmstart import nearest_tuned, warm_seed_configs

    neighbours = nearest_tuned(
        store, workload, normalize_gpu(spec.name), shape_of(base), limit=limit
    )
    valid = _sgemm_valid if workload == "tile_sgemm" else None
    seeds = warm_seed_configs(base, neighbours, valid=valid)
    return [
        WorkloadCandidate(
            workload=workload,
            config=seed.config,
            optimize=True,
            label=f"{workload}:warm{index}",
        )
        for index, seed in enumerate(seeds)
    ]


def _warm_prune(
    kept: list[WorkloadCandidate],
    seed_candidates: list[WorkloadCandidate],
    seed_outcomes: list[TuneOutcome],
    spec: GpuSpec,
) -> tuple[list[WorkloadCandidate], int]:
    """Drop candidates a warm seed's *measurement* proves cannot win.

    A candidate whose analytic per-block cycle floor
    (:func:`repro.kcache.warmstart.block_cycle_floor`) exceeds the best
    seed's achieved cycles cannot place above that seed on the leaderboard,
    so simulating it buys nothing.  Candidates identical to a seed config
    are dropped too — their outcome is already on the board.
    """
    from repro.kernels.registry import get_workload
    from repro.kcache.warmstart import block_cycle_floor

    best_seed = min((o.cycles for o in seed_outcomes if o.ok), default=None)
    if best_seed is None:
        return kept, 0
    seed_points = {(c.workload, c.config) for c in seed_candidates}
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
    *,
    workload: str | None = None,
    keep_within: float = 1.2,
    workers: int | None = 1,
    max_cycles: int = 2_000_000,
    include_tails: bool = True,
    warm_start: bool = False,
    store=None,
    warm_limit: int = 2,
    **space_kwargs,
) -> SweepReport:
    """Generate, prune and simulate the schedule space, timing each phase.

    The single-entry-point version of the :func:`schedule_space` →
    :func:`prune_by_bound` → :func:`autotune_workloads` chain, with wall
    times captured where benchmarks need them.  ``workload`` restricts the
    space to one workload's candidates (e.g. ``"tile_sgemm"``);
    ``include_tails=False`` additionally drops the ``@``-labelled tail
    problem sizes, matching the benchmark harness's fixed-size sweep.

    With ``warm_start=True`` and a kernel store available (``store`` or the
    store installed in :func:`repro.context.current`), the winning
    schedules of the nearest cached shapes are re-instantiated at this
    sweep's shape and simulated *first*; their measured cycles then prune
    every enumerated candidate whose analytic per-block floor proves it
    cannot beat them (:func:`_warm_prune`) — never-worse winners in strictly
    fewer simulations.
    """
    spec = get_gpu_spec(gpu) if isinstance(gpu, str) else gpu
    candidates = schedule_space(**space_kwargs)
    if workload is not None:
        candidates = [c for c in candidates if c.workload == workload]
    if not include_tails:
        candidates = [c for c in candidates if "@" not in c.label]

    seed_candidates: list[WorkloadCandidate] = []
    seed_outcomes: list[TuneOutcome] = []
    if warm_start and workload in SPACE_BASE_FIELD:
        if store is None:
            store = current().store
        if store is not None:
            base_field = SPACE_BASE_FIELD[workload]
            base = space_kwargs.get(base_field)
            if base is None:
                from repro.kernels.registry import get_workload

                base = get_workload(workload).default_config()
            seed_candidates = _warm_seed_candidates(
                store, workload, spec, base, limit=warm_limit
            )

    started = time.perf_counter()
    if seed_candidates:
        seed_outcomes = autotune_workloads(
            spec, seed_candidates, workers=workers, max_cycles=max_cycles
        )
    seed_sim_s = time.perf_counter() - started
    report = prune_by_bound(spec, candidates, keep_within=keep_within)
    kept, warm_pruned = _warm_prune(list(report.kept), seed_candidates, seed_outcomes, spec)
    started = time.perf_counter()
    outcomes = autotune_workloads(spec, kept, workers=workers, max_cycles=max_cycles)
    if seed_candidates:
        counter_inc("kcache.warm.seeds", len(seed_candidates), _WARM_LABELS)
        counter_inc("kcache.warm.pruned", warm_pruned, _WARM_LABELS)
    combined = sorted(
        (*seed_outcomes, *outcomes), key=lambda o: (not o.ok, o.cycles, o.label)
    )
    sweep = SweepReport(
        prune=report,
        outcomes=tuple(combined),
        sim_elapsed_s=seed_sim_s + (time.perf_counter() - started),
        seed_candidates=tuple(seed_candidates),
        warm_pruned=warm_pruned,
    )
    if current().ledger is not None:
        _ledger_sweep(
            sweep,
            spec,
            workload,
            config={
                "keep_within": keep_within,
                "max_cycles": max_cycles,
                "include_tails": include_tails,
                **space_kwargs,
            },
        )
    return sweep


def _ledger_sweep(
    sweep: SweepReport,
    spec: GpuSpec,
    workload: str | None,
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
        f"sweep:{workload or 'all'}:{gpu_key}:{config_digest(config)}",
        workload=workload or "all",
        gpu=gpu_key,
        kernel_hash=kernel_hash,
        config=config,
        metrics=metrics,
    )
