"""Tile-IR workloads: DSL kernels registered in :mod:`repro.kernels`.

Each workload here is the registry face of one :mod:`repro.tile.library`
kernel: the *naive* variant is the scheduled proc lowered to SASS in program
order with sequential registers (the optimization pipeline's input, like
every other workload's ``generate_naive``), and the *optimized* variant is
that kernel pushed through :mod:`repro.opt`.  The schedule parameters live in
the workload configuration, which is what lets the autotuner sweep schedules
(tile sizes, register blocking, staging and pipelining choices) exactly the
way it sweeps the hand generators' knobs.

The hand-written generators (``sgemm``, ``transpose``, ``sgemv``) stay
registered as golden references; the equivalence tests in
``tests/tile/test_equivalence.py`` pin the DSL kernels to them bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import TileError
from repro.isa.assembler import Kernel
from repro.kernels.base import Workload, WorkloadLaunch
from repro.kernels.registry import register_workload
from repro.model.workload_bounds import WorkloadResources
from repro.sim.launch import BlockGrid
from repro.sim.memory import GlobalMemory, KernelParams
from repro.telemetry.metrics import counter_inc
from repro.tile import library
from repro.tile.interp import interpret
from repro.tile.ir import Proc
from repro.tile.lower import launch_geometry, lower
from repro.tile.resources import proc_resources


@dataclass
class _Scheduled:
    """One memo entry: a scheduled proc and, once priced, its resources.

    The resources live here rather than on the proc, which the kernel store
    pickles into its entries.
    """

    proc: Proc
    resources: WorkloadResources | None = None


#: Memoized schedule applications, keyed by *schedule hash* — the (workload,
#: frozen config) pair identifies the schedule point exactly, and a proc does
#: not depend on the GPU.  Procs are immutable, so the sweep machinery (bound
#: pruning, resource counting, lowering, launch plumbing) can re-request the
#: same point without re-running ~30 primitive applications each time, and
#: the bound prune and the sweep price each point's resources once.
#: Capped FIFO so a long sweep cannot grow memory without bound.
_SCHEDULE_CACHE_LIMIT = 256
_SCHEDULED_PROCS: dict[tuple[str, object], _Scheduled] = {}

#: Metrics-facade label set of the memo (a constant tuple, so the uninstalled
#: facade path allocates nothing at these call sites).
_SCHEDULED_LABELS = (("cache", "scheduled_procs"),)


def clear_schedule_caches() -> None:
    """Drop the scheduled-proc memo (tests isolating cache-economics measurements)."""
    _SCHEDULED_PROCS.clear()


class TileWorkload(Workload):
    """Shared machinery: proc → schedule → lowering → launch plumbing.

    Subclasses supply :meth:`naive_proc`, :meth:`scheduled_proc`,
    :meth:`prepare_inputs` and :meth:`reference`; launch building, output
    read-back and the upper-bound :meth:`resources` are generic because the
    proc itself names its parameters (in ABI order), its outputs and — by
    walking the nest — its traffic.
    """

    def naive_proc(self, config) -> Proc:
        """The unscheduled loop nest (the semantic oracle)."""
        raise NotImplementedError

    def scheduled_proc(self, config) -> Proc:
        """The golden schedule applied to the naive proc."""
        raise NotImplementedError

    def _scheduled(self, config) -> _Scheduled:
        """The memo entry of ``config``'s schedule point."""
        key = (self.name, config)
        entry = _SCHEDULED_PROCS.get(key)
        if entry is not None:
            counter_inc("tile.schedule_cache.hits", 1, _SCHEDULED_LABELS)
            return entry
        counter_inc("tile.schedule_cache.misses", 1, _SCHEDULED_LABELS)
        entry = _Scheduled(self.scheduled_proc(config))
        if len(_SCHEDULED_PROCS) >= _SCHEDULE_CACHE_LIMIT:
            _SCHEDULED_PROCS.pop(next(iter(_SCHEDULED_PROCS)))
            counter_inc("tile.schedule_cache.evictions", 1, _SCHEDULED_LABELS)
        _SCHEDULED_PROCS[key] = entry
        return entry

    def cached_scheduled_proc(self, config) -> Proc:
        """The scheduled proc, memoized by schedule hash."""
        return self._scheduled(config).proc

    def lds_width_bits(self, config) -> int:
        return 64

    def generate_naive(self, config) -> Kernel:
        return lower(
            self.cached_scheduled_proc(config), lds_width_bits=self.lds_width_bits(config)
        )

    def oracle(self, config, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Interpret the *naive* proc on ``inputs`` — the ground truth."""
        return interpret(self.naive_proc(config), inputs)

    def resources(self, config) -> WorkloadResources:
        """Upper-bound inputs derived from the scheduled loop nest itself.

        No hand-derived traffic formulas: :func:`repro.tile.resources
        .proc_resources` counts flops, DRAM and shared traffic off the IR
        (and the tests pin it against the hand workloads' Eq. 6-style
        accounting).  Priced once per memoized schedule point.
        """
        entry = self._scheduled(config)
        if entry.resources is None:
            entry.resources = proc_resources(entry.proc)
        return entry.resources

    def build_launch(self, config, inputs: dict[str, np.ndarray]) -> WorkloadLaunch:
        proc = self.cached_scheduled_proc(config)
        outputs = set(proc.outputs())
        memory = GlobalMemory()
        params = KernelParams()
        for param in proc.params:
            if param.name in inputs:
                base = memory.allocate_array(param.name, inputs[param.name])
            else:
                base = memory.allocate(param.name, param.size * 4)
            params.add_pointer(param.name, base)
        if not outputs:
            raise TileError(f"proc '{proc.name}' writes no tensor parameter")
        geometry = launch_geometry(proc)
        grid = BlockGrid(
            grid_x=geometry.grid_x,
            grid_y=geometry.grid_y,
            block_x=geometry.threads_per_block,
        )
        return WorkloadLaunch(memory=memory, params=params, grid=grid)

    def read_output(self, config, memory: GlobalMemory) -> np.ndarray:
        proc = self.cached_scheduled_proc(config)
        (output,) = proc.outputs()
        return memory.read_array(output, np.float32, proc.param(output).shape)


# --------------------------------------------------------------------------- #
# SGEMM.                                                                       #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TileSgemmConfig:
    """One DSL SGEMM schedule point.

    ``m``/``n``/``k`` size the problem — arbitrarily: sizes that are not
    multiples of the tile (or of the staging stride) schedule through
    ``predicate_tail`` guards and lower to clipped staging plus predicated
    epilogue stores.  The rest *is* the schedule: block tile, register
    blocking, staging stride, B-register window, and the
    staging/pipelining/unrolling toggles the autotuner flips.
    """

    m: int = 96
    n: int = 96
    k: int = 16
    tile: int = 96
    register_blocking: int = 6
    stride: int = 16
    b_window: int = 2
    stage: bool = True
    prefetch: bool = True
    unroll_inner: bool = True
    double_buffer: bool = False

    @property
    def kernel_name(self) -> str:
        flags = ("s" if self.stage else "") + ("p" if self.prefetch else "")
        return (
            f"tile_sgemm_b{self.register_blocking}_t{self.tile}_l{self.stride}"
            f"_w{self.b_window}{('_' + flags) if flags != 'sp' else ''}"
            f"{'_db' if self.double_buffer else ''}"
            f"_{self.m}x{self.n}x{self.k}"
        )


class TileSgemmWorkload(TileWorkload):
    """DSL-scheduled SGEMM (golden reference: the ``sgemm`` hand generator)."""

    name = "tile_sgemm"
    description = "SGEMM from the tile IR: split/stage/unroll schedule (SM-bound)"

    def default_config(self) -> TileSgemmConfig:
        return TileSgemmConfig()

    def config_space(self) -> tuple[TileSgemmConfig, ...]:
        return (
            TileSgemmConfig(),
            TileSgemmConfig(b_window=1),
            # An imperfect problem: no dimension is a multiple of the tile,
            # exercising the predicate-tail guards end to end.
            TileSgemmConfig(m=100, n=92, k=20),
        )

    def naive_proc(self, config: TileSgemmConfig) -> Proc:
        return library.matmul_proc(config.m, config.n, config.k)

    def scheduled_proc(self, config: TileSgemmConfig) -> Proc:
        proc = library.schedule_sgemm(
            self.naive_proc(config),
            tile=config.tile,
            register_blocking=config.register_blocking,
            stride=config.stride,
            b_window=config.b_window,
            stage=config.stage,
            prefetch=config.prefetch,
            unroll_inner=config.unroll_inner,
            double_buffer=config.double_buffer,
        )
        return replace(proc, name=config.kernel_name)

    def prepare_inputs(self, config: TileSgemmConfig, seed: int = 0) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {
            "A": rng.uniform(-1.0, 1.0, (config.m, config.k)).astype(np.float32),
            "B": rng.uniform(-1.0, 1.0, (config.k, config.n)).astype(np.float32),
        }

    def reference(self, config: TileSgemmConfig, inputs: dict[str, np.ndarray]) -> np.ndarray:
        return (inputs["A"] @ inputs["B"]).astype(np.float32)


# --------------------------------------------------------------------------- #
# Transpose.                                                                   #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TileTransposeConfig:
    """One DSL transpose schedule point."""

    m: int = 32
    n: int = 32
    tile: int = 16
    pad: int = 1

    @property
    def kernel_name(self) -> str:
        return f"tile_transpose_t{self.tile}_p{self.pad}_{self.m}x{self.n}"


class TileTransposeWorkload(TileWorkload):
    """DSL-scheduled transpose (golden reference: the hand ``transpose``)."""

    name = "tile_transpose"
    description = "transpose from the tile IR: crosswise-bound padded staging"
    rtol = 0.0
    atol = 0.0

    def default_config(self) -> TileTransposeConfig:
        return TileTransposeConfig()

    def config_space(self) -> tuple[TileTransposeConfig, ...]:
        return (
            TileTransposeConfig(),
            TileTransposeConfig(tile=8),
            TileTransposeConfig(m=29, n=23),
        )

    def naive_proc(self, config: TileTransposeConfig) -> Proc:
        return library.transpose_proc(config.m, config.n)

    def scheduled_proc(self, config: TileTransposeConfig) -> Proc:
        proc = library.schedule_transpose(
            self.naive_proc(config), tile=config.tile, pad=config.pad
        )
        return replace(proc, name=config.kernel_name)

    def prepare_inputs(self, config: TileTransposeConfig, seed: int = 0) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {"in": rng.uniform(-1.0, 1.0, (config.m, config.n)).astype(np.float32)}

    def reference(self, config: TileTransposeConfig, inputs: dict[str, np.ndarray]) -> np.ndarray:
        return np.ascontiguousarray(inputs["in"].T)


# --------------------------------------------------------------------------- #
# SGEMV.                                                                       #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TileSgemvConfig:
    """One DSL SGEMV schedule point."""

    m: int = 64
    k: int = 64
    threads: int = 32
    k_window: int = 2
    stage: bool = True
    prefetch: bool = True

    @property
    def kernel_name(self) -> str:
        flags = ("s" if self.stage else "") + ("p" if self.prefetch else "")
        return (
            f"tile_sgemv_t{self.threads}_w{self.k_window}"
            f"{('_' + flags) if flags != 'sp' else ''}_{self.m}x{self.k}"
        )


class TileSgemvWorkload(TileWorkload):
    """DSL-scheduled SGEMV (golden reference: the hand ``sgemv``)."""

    name = "tile_sgemv"
    description = "SGEMV from the tile IR: staged x tile, pipelined prefetch"

    def lds_width_bits(self, config: TileSgemvConfig) -> int:
        # Pair only the global A stream (the hand generator's wide_loads):
        # pairing the broadcast x loads too would pin both FFMA operands to
        # register pairs, which the bank-conflict recoloring cannot unpick.
        return 32

    def default_config(self) -> TileSgemvConfig:
        return TileSgemvConfig()

    def config_space(self) -> tuple[TileSgemvConfig, ...]:
        return (TileSgemvConfig(), TileSgemvConfig(prefetch=False))

    def naive_proc(self, config: TileSgemvConfig) -> Proc:
        return library.sgemv_proc(config.m, config.k)

    def scheduled_proc(self, config: TileSgemvConfig) -> Proc:
        proc = library.schedule_sgemv(
            self.naive_proc(config),
            threads=config.threads,
            k_window=config.k_window,
            stage=config.stage,
            prefetch=config.prefetch,
        )
        return replace(proc, name=config.kernel_name)

    def prepare_inputs(self, config: TileSgemvConfig, seed: int = 0) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {
            "A": rng.uniform(-1.0, 1.0, (config.m, config.k)).astype(np.float32),
            "x": rng.uniform(-1.0, 1.0, (config.k,)).astype(np.float32),
        }

    def reference(self, config: TileSgemvConfig, inputs: dict[str, np.ndarray]) -> np.ndarray:
        return (inputs["A"] @ inputs["x"]).astype(np.float32)


TILE_SGEMM = register_workload(TileSgemmWorkload())
TILE_TRANSPOSE = register_workload(TileTransposeWorkload())
TILE_SGEMV = register_workload(TileSgemvWorkload())
