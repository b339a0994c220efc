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

A point's upper-bound inputs, launch geometry and shared footprint are read
off its scheduled proc (:mod:`repro.tile.resources`), except for
``tile_sgemm``, which prices them in closed form from the configuration
alone, so the sweep's bound prune schedules none of the points it discards.
``tests/tile/test_resources.py`` pins the closed forms to the proc walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.arch.occupancy import OccupancyCalculator, OccupancyResult
from repro.arch.specs import GpuSpec
from repro.errors import TileError
from repro.isa.assembler import Kernel
from repro.kernels.base import Workload, WorkloadLaunch
from repro.kernels.registry import register_workload
from repro.model.workload_bounds import WorkloadResources
from repro.sim.launch import BlockGrid
from repro.sim.memory import GlobalMemory, KernelParams
from repro.tile import library
from repro.tile.interp import interpret
from repro.tile.ir import Proc
from repro.tile.lower import LaunchGeometry, launch_geometry, lower
from repro.tile.resources import REGISTER_BUDGET, proc_resources, proc_shared_footprint


def clear_schedule_caches() -> None:
    """Drop the SGEMM decompositions :func:`repro.tile.library.decompose_sgemm`
    cached, so tests and benchmarks start as a cold process would."""
    library.decompose_sgemm.cache_clear()


class TileWorkload(Workload):
    """Shared machinery: proc → schedule → lowering → launch plumbing.

    Subclasses supply :meth:`naive_proc`, :meth:`scheduled_proc`,
    :meth:`prepare_inputs` and :meth:`reference`; launch building, output
    read-back and the upper-bound :meth:`resources` are generic because the
    proc itself names its parameters (in ABI order), its outputs and — by
    walking the nest — its traffic.  Scheduling never changes a proc's
    parameters or outputs, so the launch plumbing reads them off the naive
    nest and schedules nothing but what :meth:`geometry` needs.
    """

    def naive_proc(self, config) -> Proc:
        """The unscheduled loop nest (the semantic oracle)."""
        raise NotImplementedError

    def scheduled_proc(self, config) -> Proc:
        """The golden schedule applied to the naive proc."""
        raise NotImplementedError

    def lds_width_bits(self, config) -> int:
        return 64

    def generate_naive(self, config) -> Kernel:
        return lower(self.scheduled_proc(config), lds_width_bits=self.lds_width_bits(config))

    def oracle(self, config, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Interpret the *naive* proc on ``inputs`` — the ground truth."""
        return interpret(self.naive_proc(config), inputs)

    def resources(self, config) -> WorkloadResources:
        """Upper-bound inputs derived from the scheduled loop nest itself.

        :func:`repro.tile.resources.proc_resources` counts flops, DRAM and
        shared traffic off the IR (and the tests pin it against the hand
        workloads' Eq. 6-style accounting).
        """
        return proc_resources(self.scheduled_proc(config))

    def geometry(self, config) -> LaunchGeometry:
        """The launch geometry of ``config``'s scheduled proc."""
        return launch_geometry(self.scheduled_proc(config))

    def shared_footprint(self, config) -> int:
        """Shared-memory bytes one block of ``config`` allocates, as lowered."""
        return proc_shared_footprint(self.scheduled_proc(config))

    def occupancy(self, config, gpu: GpuSpec) -> OccupancyResult:
        """Occupancy of ``config`` on ``gpu`` at the lowering's register budget.

        Raises :class:`~repro.errors.ResourceLimitError` when a block cannot
        be resident at all (a double-buffered tile past the SM's shared
        memory), the signal the bound prune discards a point on.
        """
        return OccupancyCalculator(gpu).resolve(
            threads_per_block=self.geometry(config).threads_per_block,
            registers_per_thread=REGISTER_BUDGET,
            shared_memory_per_block=self.shared_footprint(config),
        )

    def build_launch(self, config, inputs: dict[str, np.ndarray]) -> WorkloadLaunch:
        proc = self.naive_proc(config)
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
        geometry = self.geometry(config)
        grid = BlockGrid(
            grid_x=geometry.grid_x,
            grid_y=geometry.grid_y,
            block_x=geometry.threads_per_block,
        )
        return WorkloadLaunch(memory=memory, params=params, grid=grid)

    def read_output(self, config, memory: GlobalMemory) -> np.ndarray:
        proc = self.naive_proc(config)
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

    # The closed forms below equal proc_resources, launch_geometry and
    # proc_shared_footprint of the scheduled proc (tests/tile/
    # test_resources.py pins them), so pricing a point schedules nothing.

    def _grid(self, config: TileSgemmConfig) -> tuple[int, int]:
        """(g_x, g_y) = (⌈n/T⌉, ⌈m/T⌉) blocks, once ``schedule_sgemm`` would
        accept the point at all."""
        library.check_sgemm_schedule(
            tile=config.tile, register_blocking=config.register_blocking,
            b_window=config.b_window, stage=config.stage,
            double_buffer=config.double_buffer,
        )
        return -(-config.n // config.tile), -(-config.m // config.tile)

    def resources(self, config: TileSgemmConfig) -> WorkloadResources:
        """The Eq. 6/8/9 inputs of ``config`` from the configuration alone.

        With T the tile, L the stride and r = B_R when the inner loops
        unroll (each loaded operand then serves B_R FFMAs), 1 otherwise:
        ``2mnk`` flops; staged, each block reads its clipped A and B windows
        from DRAM (``4(g_x·m·k + g_y·n·k)``) and writes C once (``4mn``),
        writes both full T×L windows to shared memory once per stage
        (``8·g_x·g_y·⌈k/L⌉·T·L``) and reads ``8mnk/r`` bytes back;
        unstaged, the ``8mnk/r`` operand bytes come from DRAM.
        """
        grid_x, grid_y = self._grid(config)
        m, n, k = config.m, config.n, config.k
        reuse = config.register_blocking if config.unroll_inner else 1
        operands = round(8 * m * n * k / reuse)
        if config.stage:
            stages = -(-k // config.stride)
            dram = 4 * (grid_x * m * k + grid_y * n * k + m * n)
            shared = 8 * grid_x * grid_y * stages * config.tile * config.stride + operands
        else:
            dram, shared = operands + 4 * m * n, 0
        return WorkloadResources(flops=2 * m * n * k, dram_bytes=dram, shared_bytes=shared)

    def geometry(self, config: TileSgemmConfig) -> LaunchGeometry:
        grid_x, grid_y = self._grid(config)
        threads = config.tile // config.register_blocking
        return LaunchGeometry(grid_x=grid_x, grid_y=grid_y, threads_x=threads, threads_y=threads)

    def shared_footprint(self, config: TileSgemmConfig) -> int:
        """Both T×L tiles when staged; doubled, above the power-of-two parity
        mask :func:`repro.tile.lower.shared_layout` places the copies at."""
        self._grid(config)
        window = 8 * config.stride * config.tile if config.stage else 0
        if config.double_buffer:
            return (1 << (window - 1).bit_length()) + window
        return window

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
