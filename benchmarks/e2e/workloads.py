"""The four benchmark workloads: seeded request streams and their checks.

Every workload is a closed loop with one client: the next request goes out
when the previous one returned.  Streams come in *rounds*; the runner only
stops between rounds, so a run always measures whole rounds and the mix of
requests it measured does not depend on how fast the machine was.

Problems come from *strata*, boxes of (m, n, k):

* **anchors** are one-point strata — the repository's canonical sizes, both
  exact tile multiples (no tail guards) and the 193x161x97 tail case.  They
  are the same for every seed, so the kernel-quality metrics over them repeat
  exactly and can be gated exactly;
* **seeded** strata are drawn from with the seed.  They lie across the
  request box (m, n in [64, 224], k in [16, 128]).  Each spans at most one
  tile step below a tile boundary, so it keeps block count and k-step count
  fixed for every swept tile (24, 48, 96; k steps of 8 and 16) while the seed
  moves how full the last tile is, exactly full included.  That keeps the
  cost of a round nearly fixed across seeds.

The shape mix and the popularity law are assumptions, not measurements of
real traffic: no request trace exists for this system.

Only public entry points are driven: :func:`repro.kcache.get_kernel`, the
:mod:`repro.kernels` workload methods and :class:`repro.sim.sm_sim
.SmSimulator`.  ``get_kernel`` is looked up on :mod:`repro.kcache` at every
call so the tracer (``spans.py``) can wrap it.
"""

from __future__ import annotations

import pickle
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

import repro.kcache as kcache
from repro.arch.specs import get_gpu_spec
from repro.errors import KernelCacheError
from repro.kcache.store import KernelStore
from repro.kernels import get_workload, list_workloads
from repro.opt.rewrite import kernel_hash
from repro.prof import bound_floors
from repro.sim.launch import LaunchConfig
from repro.sim.sm_sim import SmSimulator
from repro.tile.workloads import TileSgemmConfig, clear_schedule_caches

GPUS = ("gtx580", "gtx680")

#: Cycle cap of a grid-wide functional simulation (``run_workload``'s).
GRID_MAX_CYCLES = 20_000_000


@dataclass(frozen=True)
class Stratum:
    """A box of problem sizes on one GPU; an anchor when it is a single point."""

    gpu: str
    m: tuple[int, int]
    n: tuple[int, int]
    k: tuple[int, int]

    @property
    def anchor(self) -> bool:
        return all(lo == hi for lo, hi in (self.m, self.n, self.k))

    def draw(self, rng: random.Random) -> tuple[int, int, int]:
        return rng.randint(*self.m), rng.randint(*self.n), rng.randint(*self.k)


def point(gpu: str, m: int, n: int, k: int) -> Stratum:
    return Stratum(gpu, (m, m), (n, n), (k, k))


# Side ranges ending at a tile boundary: one 96-tile, three 48-tiles, two
# 96-tiles, and the box's smallest sides (two 48-tiles, three 24-tiles).
ONE_TILE, THREE_48, TWO_TILES, SMALL = (88, 96), (136, 144), (184, 192), (64, 72)
# k ranges one k step of 8 deep, ending at a multiple of 16: 2, 3, 6 and 8
# k-steps of 16.
K2, K3, K6, K8 = (25, 32), (41, 48), (89, 96), (121, 128)


@dataclass(frozen=True)
class Op:
    """One request of a stream."""

    gpu: str
    shape: tuple[int, int, int] = (0, 0, 0)
    expect: str = ""  # the reply source a correct service gives
    anchor: bool = False  # drawn from a one-point stratum
    kernel: int = -1  # simulate_grid: index into the kernel table
    input_seed: int = 0


@dataclass(frozen=True)
class Served:
    """One distinct kernel a workload served or ran, enough to re-run it.

    The kernel is kept pickled: a few live kernels are hundreds of thousands
    of objects, and holding them would slow every garbage collection the
    measured ops trigger.
    """

    ident: str
    workload: str
    config: object
    gpu: str
    kernel_pickle: bytes

    @property
    def kernel(self):
        return pickle.loads(self.kernel_pickle)


@dataclass
class Outcome:
    """What one op did: its latency, why it failed, what it served."""

    latency_s: float
    error: str | None = None
    served: Served | None = None
    cycles: float | None = None  # set when the op itself ran the grid


# --------------------------------------------------------------------------- #
# Seeded streams (pure functions of the seed).                                 #
# --------------------------------------------------------------------------- #

#: tune_cold round: an exact-multiple and a tail anchor (the 96^3 layer study
#: and the 193x161x97 cold build of ROADMAP / bench_kcache), and three seeded
#: strata.  Fermi sweeps over short k mostly simulate 9 candidates and over
#: long k 19, so each Fermi k class has its own slot.
TUNE_COLD_ROUND = (
    point("gtx580", 96, 96, 96),
    Stratum("gtx680", THREE_48, ONE_TILE, K3),
    Stratum("gtx580", SMALL, TWO_TILES, K2),
    point("gtx680", 193, 161, 97),
    Stratum("gtx580", ONE_TILE, THREE_48, K8),
)

#: serve_warm keys, each built on both GPUs with the default schedule: the
#: registry default 96x96x16 and bench_sgemm_simulation's 192x192x32 as
#: anchors, and six shapes drawn from the whole box (a hit reads the same
#: ~0.7 MB whatever the tail, so the box need not be split).
SERVE_WARM_ANCHORS = ((96, 96, 16), (192, 192, 32))
SERVE_WARM_BOX = Stratum("", (64, 192), (64, 192), (16, 64))
SERVE_WARM_SEEDED = 6
SERVE_WARM_ZIPF = 1.1
#: Popularity ranks (0 = hottest) the anchor keys hold for every seed.  Their
#: guard-free kernels are 20% smaller than a tail kernel, so a seed that made
#: one of them the hottest key would speed every hit up.
SERVE_WARM_ANCHOR_RANKS = (1, 5, 9, 13)

#: tune_mixed families: a base stratum and the neighbour offset range.  The
#: two anchors (the layer study's 96^3 and bench_sgemm_simulation's
#: 192x192x32) build first in every round's fresh store, so what they serve
#: never depends on the seed; each neighbour is 1..8 smaller in m and n.
TUNE_MIXED_FAMILIES = (
    point("gtx580", 96, 96, 96),
    point("gtx680", 192, 192, 32),
    Stratum("gtx580", THREE_48, THREE_48, K6),
)
TUNE_MIXED_NEIGHBOUR = (1, 8)

#: simulate_grid seeded kernels (default schedule) beside the fixed table.
SIMULATE_GRID_SEEDED = (
    Stratum("gtx580", ONE_TILE, ONE_TILE, K2),
    Stratum("gtx680", THREE_48, ONE_TILE, K3),
)


def tune_cold_stream(seed: int):
    """Endless rounds of cold requests, one per slot of the round."""
    rng = random.Random(f"tune_cold:{seed}")
    while True:
        yield [Op(s.gpu, s.draw(rng), "built", s.anchor) for s in TUNE_COLD_ROUND]


def serve_warm_keys(seed: int) -> list[Op]:
    """The 16 warm keys, hottest first."""
    rng = random.Random(f"serve_warm:{seed}:shapes")
    seeded = [SERVE_WARM_BOX.draw(rng) for _ in range(SERVE_WARM_SEEDED)]
    anchors = [Op(gpu, shape, "hit", True) for shape in SERVE_WARM_ANCHORS for gpu in GPUS]
    keys = [Op(gpu, shape, "hit") for shape in seeded for gpu in GPUS]
    rng.shuffle(keys)
    for rank, key in zip(SERVE_WARM_ANCHOR_RANKS, anchors):
        keys.insert(rank, key)
    return keys


def serve_warm_stream(seed: int, keys: list[Op]):
    """Endless one-op rounds, key ``i`` drawn with weight ``1 / (i + 1)**s``."""
    rng = random.Random(f"serve_warm:{seed}:stream")
    weights = [1.0 / rank**SERVE_WARM_ZIPF for rank in range(1, len(keys) + 1)]
    while True:
        yield rng.choices(keys, weights)


def tune_mixed_stream(seed: int):
    """Endless identical passes: 6 builds, each followed by two hits.

    Every base builds before any neighbour, so each neighbour finds its base
    in the store and warm-starts from it; hits draw (seeded) from the keys
    built so far.  The order is fixed because what a warm start serves
    depends on what the store holds.
    """
    rng = random.Random(f"tune_mixed:{seed}")
    bases = [Op(s.gpu, s.draw(rng), "built", s.anchor) for s in TUNE_MIXED_FAMILIES]
    neighbours = []
    for base in bases:
        m, n, k = base.shape
        m -= rng.randint(*TUNE_MIXED_NEIGHBOUR)
        n -= rng.randint(*TUNE_MIXED_NEIGHBOUR)
        neighbours.append(Op(base.gpu, (m, n, k), "built"))
    stream: list[Op] = []
    for build in bases + neighbours:
        stream.append(build)
        built = sorted({(op.gpu, op.shape) for op in stream})
        for _ in range(2):
            stream.append(Op(*rng.choice(built), "hit"))
    while True:
        yield list(stream)


def simulate_grid_shapes(seed: int) -> list[tuple[str, tuple[int, int, int]]]:
    rng = random.Random(f"simulate_grid:{seed}:shapes")
    return [(s.gpu, s.draw(rng)) for s in SIMULATE_GRID_SEEDED]


def simulate_grid_stream(seed: int, kernels: int):
    """Endless passes over every kernel in a seeded order with seeded inputs."""
    rng = random.Random(f"simulate_grid:{seed}")
    while True:
        order = list(range(kernels))
        rng.shuffle(order)
        yield [Op("", kernel=index, input_seed=rng.randrange(2**31)) for index in order]


# --------------------------------------------------------------------------- #
# Checks.                                                                      #
# --------------------------------------------------------------------------- #


def check_reply(reply, expect: str, served_hash: str) -> str | None:
    """Why ``reply`` (whose kernel hashes to ``served_hash``) is wrong, or None."""
    if reply.source != expect:
        return f"reply source {reply.source!r}, expected {expect!r}"
    if served_hash != reply.entry.meta.get("kernel_hashes", {}).get("kernel_opt"):
        return "served kernel hash differs from the entry's recorded kernel_hashes"
    return None


def winner_config(meta: dict) -> TileSgemmConfig:
    """The served schedule point, rebuilt from the entry's shape and winner."""
    return replace(TileSgemmConfig(), **dict(meta["shape"]), **meta["winner_schedule"])


def simulate_and_validate(workload, config, spec, kernel, seed: int):
    """``run_workload``'s steps on a given kernel: grid-wide run, NumPy check.

    Returns the ``SimResult``; raises when the output differs from the
    reference (``Workload.validate``) or the simulation fails.
    """
    inputs = workload.prepare_inputs(config, seed=seed)
    launch = workload.build_launch(config, inputs)
    simulator = SmSimulator(spec, kernel, global_memory=launch.memory, params=launch.params)
    result = simulator.run(
        LaunchConfig(grid=launch.grid, functional=True, max_cycles=GRID_MAX_CYCLES),
        block_indices=launch.grid.block_indices(),
    )
    output = workload.read_output(config, launch.memory)
    workload.validate(output, workload.reference(config, inputs))
    return result


def bound_fraction(served: Served, cycles: float) -> float:
    """Analytic floor over achieved full-grid cycles (the paper's headline)."""
    workload = get_workload(served.workload)
    floors = bound_floors(get_gpu_spec(served.gpu), workload.resources(served.config))
    return floors.bound_cycles / cycles


# --------------------------------------------------------------------------- #
# Workloads.                                                                   #
# --------------------------------------------------------------------------- #


class Workload:
    """A seeded request stream against a private store directory."""

    name = ""
    why = ""

    #: Shape of one untimed cold request per GPU in set-up, paying first
    #: imports and caches before the timed phase; () for no warm-up.
    WARMUP: tuple = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self._stores = 0
        self.served: dict[str, Served] = {}  # ident -> first kernel served under it
        self.setup_served: list[tuple[bool, Served]] = []  # (anchor, kernel)

    def fresh_store(self) -> KernelStore:
        """An empty store of this workload's own."""
        self._stores += 1
        return KernelStore(self.workdir / f"store-{self._stores:04d}")

    def setup(self) -> None:
        """Untimed preparation before the first op (by default the warm-up)."""
        for gpu in GPUS if self.WARMUP else ():
            clear_schedule_caches()
            outcome = self._request(
                self.fresh_store(), Op(gpu, self.WARMUP, "built"), tune=True, warm_start=False
            )
            if outcome.error:
                raise RuntimeError(f"{self.name} warm-up failed: {outcome.error}")

    def rounds(self):
        raise NotImplementedError

    def begin_round(self) -> None:
        """Per-round reset, outside every op's latency."""

    def execute(self, op: Op) -> Outcome:
        raise NotImplementedError

    def _serve(self, ident: str, workload: str, config, gpu: str, kernel) -> Served:
        """The record of ``ident``, archiving ``kernel`` the first time only."""
        served = self.served.get(ident)
        if served is None:
            served = self.served[ident] = Served(ident, workload, config, gpu, pickle.dumps(kernel))
        return served

    def _request(self, store: KernelStore, op: Op, **kwargs) -> Outcome:
        """One timed ``get_kernel`` call and its reply checks."""
        m, n, k = op.shape
        config = TileSgemmConfig(m=m, n=n, k=k)
        started = time.perf_counter()
        try:
            reply = kcache.get_kernel(
                "tile_sgemm", config, op.gpu, store=store, workers=1, **kwargs
            )
        except KernelCacheError as exc:
            return Outcome(time.perf_counter() - started, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - started
        served_hash = kernel_hash(reply.kernel)
        served = self._serve(
            f"{reply.key}:{served_hash[:12]}",
            "tile_sgemm",
            winner_config(reply.entry.meta),
            op.gpu,
            reply.kernel,
        )
        return Outcome(latency, check_reply(reply, op.expect, served_hash), served)


class TuneCold(Workload):
    name = "tune_cold"
    why = (
        "tuned requests into empty stores with cleared memos, so schedule, lower, "
        "opt passes and sweep simulation do the work and the store almost none"
    )

    WARMUP = (64, 64, 16)

    def rounds(self):
        return tune_cold_stream(self.seed)

    def execute(self, op: Op) -> Outcome:
        clear_schedule_caches()
        return self._request(self.fresh_store(), op, tune=True, warm_start=False)


class ServeWarm(Workload):
    name = "serve_warm"
    why = (
        "Zipf-popular hits on 16 prebuilt keys, so only the kcache read path runs "
        "(meta read, checksum, unpickle) and no schedule, lower or simulation"
    )

    def setup(self) -> None:
        self.store = self.fresh_store()
        self.keys = serve_warm_keys(self.seed)
        self.validated: dict[Op, str] = {}  # key -> ident of the setup build
        for key in self.keys:
            outcome = self._request(self.store, replace(key, expect="built"), tune=False)
            if outcome.error:
                raise RuntimeError(f"serve_warm setup failed: {outcome.error}")
            self.validated[key] = outcome.served.ident
            self.setup_served.append((key.anchor, outcome.served))
        # Serve like a process whose only warm state is the store: the build
        # memos would otherwise sit in the heap every collection walks.
        clear_schedule_caches()

    def rounds(self):
        return serve_warm_stream(self.seed, self.keys)

    def execute(self, op: Op) -> Outcome:
        outcome = self._request(self.store, op, tune=False)
        if outcome.error is None and outcome.served.ident != self.validated[op]:
            outcome.error = "served kernel differs from the one validated at setup"
        return outcome


class TuneMixed(Workload):
    name = "tune_mixed"
    why = (
        "builds and hits on one store with warm-started neighbours, so store writes, "
        "metadata scans and warm-start pruning run beside reads"
    )

    WARMUP = (64, 64, 16)

    def rounds(self):
        return tune_mixed_stream(self.seed)

    def begin_round(self) -> None:
        clear_schedule_caches()
        self.store = self.fresh_store()

    def execute(self, op: Op) -> Outcome:
        return self._request(self.store, op, tune=True, warm_start=True)


class SimulateGrid(Workload):
    name = "simulate_grid"
    why = (
        "grid-wide functional simulation and NumPy validation of 18 prebuilt "
        "optimized kernels, so the simulator runs and the kernel cache is bypassed"
    )

    #: tile_sgemm problem sizes simulated beside the registry defaults.
    EXTRA_SGEMM = ((193, 161, 97),)

    def setup(self) -> None:
        self.table: list[tuple[Served, object, object]] = []  # (record, spec, kernel)
        tile_sgemm = get_workload("tile_sgemm")
        points = []
        for gpu in GPUS:
            points += [(True, gpu, w.name, w, w.default_config()) for w in list_workloads()]
            points += [
                (True, gpu, f"tile_sgemm_{m}x{n}x{k}", tile_sgemm, TileSgemmConfig(m=m, n=n, k=k))
                for m, n, k in self.EXTRA_SGEMM
            ]
        points += [
            (False, gpu, f"tile_sgemm_{m}x{n}x{k}", tile_sgemm, TileSgemmConfig(m=m, n=n, k=k))
            for gpu, (m, n, k) in simulate_grid_shapes(self.seed)
        ]
        for anchor, gpu, label, workload, config in points:
            spec = get_gpu_spec(gpu)
            kernel, _ = workload.generate_optimized(config, spec)
            served = self._serve(f"{label}.{gpu}", workload.name, config, gpu, kernel)
            self.table.append((served, spec, kernel))
            self.setup_served.append((anchor, served))
        # One untimed grid run pays the functional engine's first-call costs.
        self.execute(Op("", kernel=0))

    def rounds(self):
        return simulate_grid_stream(self.seed, len(self.table))

    def execute(self, op: Op) -> Outcome:
        served, spec, kernel = self.table[op.kernel]
        workload = get_workload(served.workload)
        started = time.perf_counter()
        try:
            result = simulate_and_validate(workload, served.config, spec, kernel, op.input_seed)
        except Exception as exc:  # a wrong kernel may fail anywhere in the simulator
            return Outcome(time.perf_counter() - started, f"{type(exc).__name__}: {exc}", served)
        return Outcome(time.perf_counter() - started, None, served, result.cycles)


WORKLOADS = {w.name: w for w in (TuneCold, ServeWarm, TuneMixed, SimulateGrid)}
