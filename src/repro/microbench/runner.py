"""Micro-benchmark runner: measure generated kernels on the simulator.

The runner plays the role of the paper's hardware measurement step: it
launches a micro-benchmark kernel with a chosen number of active threads on
the simulated SM, reads back the sustained thread-instruction throughput, and
optionally records the point into a :class:`repro.microbench.PerfDatabase`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GpuSpec, normalize_gpu
from repro.errors import ModelError
from repro.isa.assembler import Kernel
from repro.microbench.database import PerfDatabase
from repro.microbench.generators import FfmaOperandPattern, mix_kernel, pure_ffma_kernel
from repro.sim.launch import BlockGrid, LaunchConfig
from repro.sim.sm_sim import SmSimulator


@dataclass(frozen=True)
class MixMeasurement:
    """One measured FFMA/LDS.X mix point.

    Attributes
    ----------
    gpu:
        GPU key the measurement belongs to.
    ffma_per_lds:
        Mix ratio.
    lds_width_bits:
        LDS width in bits.
    active_threads:
        Active threads per SM during the measurement.
    dependent:
        Whether FFMAs depended on the loads.
    instructions_per_cycle:
        Overall thread-instruction throughput per cycle per SM.
    ffma_per_cycle:
        FFMA thread-instruction throughput per cycle per SM.
    """

    gpu: str
    ffma_per_lds: float
    lds_width_bits: int
    active_threads: int
    dependent: bool
    instructions_per_cycle: float
    ffma_per_cycle: float


class MicrobenchRunner:
    """Runs micro-benchmark kernels on the timing simulator."""

    def __init__(self, gpu: GpuSpec, *, warmup_fraction: float = 0.0) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ModelError("warmup_fraction must be in [0, 1)")
        self._gpu = gpu
        self._warmup_fraction = warmup_fraction

    @property
    def gpu(self) -> GpuSpec:
        """The machine description benchmarks run on."""
        return self._gpu

    @property
    def gpu_key(self) -> str:
        """Database key used for measurements from this runner."""
        return normalize_gpu(self._gpu.name)

    # ------------------------------------------------------------------ #
    # Raw measurement.                                                     #
    # ------------------------------------------------------------------ #

    def measure_kernel(self, kernel: Kernel, active_threads: int) -> tuple[float, float]:
        """Run ``kernel`` with ``active_threads`` threads on one SM.

        Returns ``(instructions_per_cycle, ffma_per_cycle)`` in thread
        instructions per shader cycle.  The run is timing-only (functional
        execution disabled), matching the unrolled straight-line benchmark
        kernels the generators produce.
        """
        if active_threads <= 0 or active_threads % 32 != 0:
            raise ModelError("active_threads must be a positive multiple of 32")
        block_x = min(active_threads, 1024)
        grid_x = -(-active_threads // block_x)
        grid = BlockGrid(grid_x=grid_x, block_x=block_x)
        simulator = SmSimulator(self._gpu, kernel)
        config = LaunchConfig(grid=grid, functional=False, max_cycles=2_000_000)
        result = simulator.run(config)
        return result.instructions_per_cycle, result.ffma_per_cycle

    # ------------------------------------------------------------------ #
    # Mix measurements (Fig 2 / Fig 4).                                    #
    # ------------------------------------------------------------------ #

    def measure_mix(
        self,
        ffma_per_lds: int,
        lds_width_bits: int = 64,
        *,
        active_threads: int | None = None,
        dependent: bool = False,
        groups: int = 48,
        database: PerfDatabase | None = None,
    ) -> MixMeasurement:
        """Measure one FFMA/LDS.X mix point and optionally record it."""
        if active_threads is None:
            active_threads = min(self._gpu.sm.max_threads, 1024)
        kernel = mix_kernel(
            ffma_per_lds, lds_width_bits, dependent=dependent, groups=groups
        )
        instructions_per_cycle, ffma_per_cycle = self.measure_kernel(kernel, active_threads)
        measurement = MixMeasurement(
            gpu=self.gpu_key,
            ffma_per_lds=float(ffma_per_lds),
            lds_width_bits=lds_width_bits,
            active_threads=active_threads,
            dependent=dependent,
            instructions_per_cycle=instructions_per_cycle,
            ffma_per_cycle=ffma_per_cycle,
        )
        if database is not None:
            database.add_measurement(
                gpu=measurement.gpu,
                lds_width_bits=lds_width_bits,
                ffma_per_lds=float(ffma_per_lds),
                active_threads=active_threads,
                instructions_per_cycle=instructions_per_cycle,
                ffma_per_cycle=ffma_per_cycle,
                dependent=dependent,
                source="simulator",
            )
        return measurement

    def measure_ffma_pattern(
        self, pattern: FfmaOperandPattern, *, active_threads: int | None = None,
        instruction_count: int = 512,
    ) -> float:
        """Measure the throughput of a pure-FFMA operand pattern (Table 2 rows).

        Returns thread instructions per shader cycle per SM.
        """
        if active_threads is None:
            active_threads = min(self._gpu.sm.max_threads, 1024)
        independent_chains = 4 if pattern.dest == pattern.c or pattern.dest == pattern.a else 1
        kernel = pure_ffma_kernel(
            pattern, instruction_count=instruction_count, independent_chains=independent_chains
        )
        instructions_per_cycle, _ = self.measure_kernel(kernel, active_threads)
        return instructions_per_cycle

    # ------------------------------------------------------------------ #
    # Database population.                                                 #
    # ------------------------------------------------------------------ #

    def populate_database(
        self,
        database: PerfDatabase | None = None,
        *,
        ratios: tuple[int, ...] = (3, 6, 12),
        widths: tuple[int, ...] = (32, 64, 128),
        active_threads: tuple[int, ...] | None = None,
        dependent: bool = True,
        groups: int = 48,
    ) -> PerfDatabase:
        """Measure a grid of mix points and store them in a database.

        The defaults cover the mix ratios the SGEMM analysis needs (3:1, 6:1,
        12:1 — the ratios produced by 6-register blocking with LDS, LDS.64 and
        LDS.128).
        """
        if database is None:
            database = PerfDatabase(name=f"simulator:{self.gpu_key}")
        if active_threads is None:
            active_threads = (min(self._gpu.sm.max_threads, 1024),)
        for width in widths:
            for ratio in ratios:
                for threads in active_threads:
                    self.measure_mix(
                        ratio,
                        width,
                        active_threads=threads,
                        dependent=dependent,
                        groups=groups,
                        database=database,
                    )
        return database
