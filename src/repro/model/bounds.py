"""The upper-bound equations (paper Section 4.4-4.5, Equations 6-9).

Given an SGEMM configuration, a machine description and a throughput database
(either measured on the simulator or carrying the paper's published values),
the model computes:

* the instruction factor ``F_I`` — the share of main-loop instructions that
  are FFMA, determined by the blocking factor and LDS width;
* the throughput factor ``F_T`` — the sustained thread-instruction throughput
  of the corresponding FFMA/LDS.X mix, normalised by the SP processing
  throughput (Eq. 7, looked up from the database);
* the SM-bound performance (Eq. 8):

      P_SMBound = B_R² / (B_R² + 2·B_R·F_I') · F_T · P_theoretical

  where, following the paper's formulation, the LDS term ``2·B_R`` is scaled
  by the per-LDS word cost (0.5 for LDS.64, 0.25 for LDS.128);
* the memory-bound performance (Eq. 6) from the shared-memory blocking factor
  and the global-memory bandwidth;
* the overall potential peak, the minimum of the two (Eq. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.occupancy import OccupancyCalculator
from repro.arch.specs import GpuSpec, normalize_gpu
from repro.errors import ModelError
from repro.microbench.database import PerfDatabase
from repro.model.blocking import ffma_to_lds_ratio, register_requirement
from repro.model.params import SgemmConfig


def instruction_factor(config: SgemmConfig) -> float:
    """The paper's instruction factor F_I.

    Defined as the per-FFMA cost of shared-memory loads expressed in LDS.X
    *word* terms: 1 for LDS, 0.5 for LDS.64, 0.25 for LDS.128 (Section 4.5
    uses F_I = 0.5 for LDS.64 and 0.25 for LDS.128 with B_R = 6).
    """
    return 32.0 / config.lds_width_bits


def sm_bound_fraction(config: SgemmConfig, throughput_factor: float) -> float:
    """Equation 8 as a fraction of the theoretical peak.

    ``B_R² / (B_R² + 2·B_R·F_I) · F_T`` where ``F_T`` is already normalised to
    the SP processing throughput.
    """
    if not 0.0 < throughput_factor <= 1.0 + 1e-9:
        raise ModelError("throughput factor must be in (0, 1]")
    b_r = config.register_blocking
    f_i = instruction_factor(config)
    useful_share = (b_r * b_r) / (b_r * b_r + 2.0 * b_r * f_i)
    return useful_share * throughput_factor


def memory_bound_gflops(config: SgemmConfig, gpu: GpuSpec) -> float:
    """Equation 6: performance sustainable by the global-memory bandwidth.

    Each k-step of a block tile of edge B_Sh performs ``2·B_Sh²`` flops and
    moves ``2·B_Sh`` float32 elements (one column of A and one row of B), so
    the arithmetic intensity is ``B_Sh / 4`` flops per byte.
    """
    b_sh = config.shared_blocking
    flops_per_byte = (2.0 * b_sh * b_sh) / (2.0 * b_sh * 4.0)
    return flops_per_byte * gpu.global_memory_bandwidth_gbs


@dataclass(frozen=True)
class BoundBreakdown:
    """Full upper-bound analysis of one configuration on one GPU.

    Attributes
    ----------
    config:
        The analysed SGEMM configuration.
    gpu_name:
        Name of the GPU analysed.
    ffma_lds_ratio:
        FFMA : LDS.X ratio of the main loop.
    instruction_factor:
        F_I (per-FFMA LDS word cost).
    throughput_factor:
        F_T — mixed-stream throughput normalised to the SP throughput.
    mixed_instructions_per_cycle:
        The raw measured mixed throughput used for F_T.
    registers_per_thread:
        Strict Equation 4 register requirement.
    active_threads:
        Active threads per SM at that register usage (Eq. 1 + residency limits).
    active_blocks:
        Active blocks per SM.
    occupancy_limiter:
        Resource limiting occupancy.
    sm_bound_fraction:
        Equation 8 as a fraction of peak.
    sm_bound_gflops:
        Equation 8 in GFLOPS.
    memory_bound_gflops:
        Equation 6 in GFLOPS.
    potential_gflops:
        Equation 9 (the minimum of the two bounds) in GFLOPS.
    potential_fraction:
        Equation 9 as a fraction of the theoretical peak.
    limited_by:
        ``"sm_throughput"`` or ``"memory_bandwidth"``.
    database:
        Name of the throughput database consulted.
    """

    config: SgemmConfig
    gpu_name: str
    ffma_lds_ratio: float
    instruction_factor: float
    throughput_factor: float
    mixed_instructions_per_cycle: float
    registers_per_thread: int
    active_threads: int
    active_blocks: int
    occupancy_limiter: str
    sm_bound_fraction: float
    sm_bound_gflops: float
    memory_bound_gflops: float
    potential_gflops: float
    potential_fraction: float
    limited_by: str
    database: str


class UpperBoundModel:
    """Computes SGEMM performance upper bounds for a GPU from a throughput database."""

    def __init__(self, gpu: GpuSpec, database: PerfDatabase, *, gpu_key: str | None = None) -> None:
        self._gpu = gpu
        self._database = database
        self._gpu_key = gpu_key or normalize_gpu(gpu.name)
        self._occupancy = OccupancyCalculator(gpu)

    @property
    def gpu(self) -> GpuSpec:
        """The machine description being analysed."""
        return self._gpu

    @property
    def database(self) -> PerfDatabase:
        """The throughput database consulted for F_T."""
        return self._database

    def registers_for(self, config: SgemmConfig) -> int:
        """Strict per-thread register requirement for ``config`` (Eq. 4)."""
        return register_requirement(config)

    def throughput_factor(self, config: SgemmConfig, active_threads: int) -> tuple[float, float]:
        """Look up F_T for ``config`` at ``active_threads`` active threads.

        Returns ``(factor, raw_instructions_per_cycle)`` where ``factor`` is
        the mixed throughput normalised by the SP processing throughput.
        """
        ratio = ffma_to_lds_ratio(config.register_blocking, config.lds_width_bits)
        record = self._database.lookup(
            gpu=self._gpu_key,
            lds_width_bits=config.lds_width_bits,
            ffma_per_lds=ratio,
            active_threads=active_threads,
            dependent=True,
        )
        factor = record.instructions_per_cycle / float(self._gpu.sm.sp_count)
        return min(factor, 1.0), record.instructions_per_cycle

    def analyse(self, config: SgemmConfig) -> BoundBreakdown:
        """Full upper-bound analysis of one configuration (Eq. 1-9).

        Raises
        ------
        ModelError
            If the configuration cannot run at all (register limit exceeded or
            zero occupancy) or the database has no relevant measurements.
        """
        registers = register_requirement(config)
        limit = self._gpu.register_file.max_registers_per_thread
        if registers > limit:
            raise ModelError(
                f"configuration needs {registers} registers per thread; {self._gpu.name} "
                f"allows at most {limit} (Equation 4 violated)"
            )
        occupancy = self._occupancy.resolve(
            threads_per_block=config.threads_per_block,
            registers_per_thread=registers,
            shared_memory_per_block=config.shared_memory_per_block_bytes,
        )
        factor, raw_ipc = self.throughput_factor(config, occupancy.active_threads)
        sm_fraction = sm_bound_fraction(config, factor)
        peak = self._gpu.theoretical_peak_gflops
        sm_gflops = sm_fraction * peak
        memory_gflops = memory_bound_gflops(config, self._gpu)
        potential = min(sm_gflops, memory_gflops)
        limited_by = "sm_throughput" if sm_gflops <= memory_gflops else "memory_bandwidth"
        return BoundBreakdown(
            config=config,
            gpu_name=self._gpu.name,
            ffma_lds_ratio=ffma_to_lds_ratio(config.register_blocking, config.lds_width_bits),
            instruction_factor=instruction_factor(config),
            throughput_factor=factor,
            mixed_instructions_per_cycle=raw_ipc,
            registers_per_thread=registers,
            active_threads=occupancy.active_threads,
            active_blocks=occupancy.active_blocks,
            occupancy_limiter=occupancy.limiter,
            sm_bound_fraction=sm_fraction,
            sm_bound_gflops=sm_gflops,
            memory_bound_gflops=memory_gflops,
            potential_gflops=potential,
            potential_fraction=potential / peak,
            limited_by=limited_by,
            database=self._database.name,
        )
