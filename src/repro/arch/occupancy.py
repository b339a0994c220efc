"""Occupancy (active threads / blocks per SM) arithmetic.

Implements the resource constraints the paper states in Section 4.3/4.4:

* Equation 1:  ``T_SM * R_T <= R_SM`` — the register budget of the active
  threads cannot exceed the SM register file.
* Equation 5:  ``Blk * 2 * sqrt(T_B) * B_R * L <= Sh_SM`` — the prefetch
  buffers of the resident blocks must fit in shared memory (the caller passes
  the per-block shared-memory footprint; this module only enforces capacity).
* Hardware residency limits: max threads, warps and blocks per SM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GpuSpec
from repro.errors import ResourceLimitError

WARP_SIZE = 32


@dataclass(frozen=True)
class OccupancyResult:
    """Resolved occupancy for one kernel configuration on one GPU.

    Attributes
    ----------
    active_blocks:
        Number of blocks resident on one SM.
    active_threads:
        Number of threads resident on one SM.
    active_warps:
        Number of warps resident on one SM.
    limiter:
        Which resource bounds occupancy: ``"registers"``, ``"shared_memory"``,
        ``"threads"``, ``"blocks"`` or ``"warps"``.
    """

    active_blocks: int
    active_threads: int
    active_warps: int
    limiter: str


class OccupancyCalculator:
    """Computes the number of threads/blocks an SM can keep resident."""

    def __init__(self, gpu: GpuSpec) -> None:
        self._gpu = gpu

    @property
    def gpu(self) -> GpuSpec:
        """The machine description this calculator operates on."""
        return self._gpu

    def active_threads_for_registers(self, registers_per_thread: int) -> int:
        """Paper Equation 1: threads supported by the register file alone."""
        return self._gpu.register_file.max_threads_for_register_usage(registers_per_thread)

    def resolve(
        self,
        threads_per_block: int,
        registers_per_thread: int,
        shared_memory_per_block: int,
    ) -> OccupancyResult:
        """Resolve occupancy for a kernel configuration.

        Parameters
        ----------
        threads_per_block:
            Block size in threads; must be a positive multiple of the warp
            size for the residency arithmetic to be exact.
        registers_per_thread:
            Architectural registers used by each thread.
        shared_memory_per_block:
            Static shared-memory allocation per block in bytes.

        Raises
        ------
        ResourceLimitError
            If the configuration cannot run at all (zero resident blocks).
        """
        gpu = self._gpu
        if threads_per_block <= 0:
            raise ResourceLimitError("threads_per_block must be positive")
        if registers_per_thread <= 0:
            raise ResourceLimitError("registers_per_thread must be positive")
        if shared_memory_per_block < 0:
            raise ResourceLimitError("shared_memory_per_block must be non-negative")
        if registers_per_thread > gpu.register_file.max_registers_per_thread:
            raise ResourceLimitError(
                f"{registers_per_thread} registers/thread exceeds the ISA limit of "
                f"{gpu.register_file.max_registers_per_thread} on {gpu.name}"
            )
        if threads_per_block > gpu.sm.max_threads:
            raise ResourceLimitError(
                f"block of {threads_per_block} threads exceeds the per-SM thread limit"
            )
        if shared_memory_per_block > gpu.shared_memory.size_bytes:
            raise ResourceLimitError(
                f"{shared_memory_per_block} bytes of shared memory per block exceeds the "
                f"{gpu.shared_memory.size_bytes}-byte SM capacity"
            )

        warps_per_block = -(-threads_per_block // WARP_SIZE)

        limits: dict[str, int] = {}
        register_threads = self.active_threads_for_registers(registers_per_thread)
        limits["registers"] = register_threads // threads_per_block
        limits["shared_memory"] = gpu.shared_memory.max_blocks_for_allocation(
            shared_memory_per_block
        )
        limits["threads"] = gpu.sm.max_threads // threads_per_block
        limits["warps"] = gpu.sm.max_warps // warps_per_block
        limits["blocks"] = gpu.sm.max_blocks

        limiter = min(limits, key=lambda name: limits[name])
        active_blocks = limits[limiter]
        if active_blocks <= 0:
            raise ResourceLimitError(
                f"configuration cannot be resident on {gpu.name}: limited by {limiter}"
            )
        return OccupancyResult(
            active_blocks=active_blocks,
            active_threads=active_blocks * threads_per_block,
            active_warps=active_blocks * warps_per_block,
            limiter=limiter,
        )
