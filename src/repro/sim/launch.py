"""Kernel launch descriptors (grid/block geometry)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

WARP_SIZE = 32


@dataclass(frozen=True)
class BlockGrid:
    """A 2D grid of 2D blocks (the shapes SGEMM and the micro-benchmarks use).

    Attributes
    ----------
    grid_x, grid_y:
        Number of blocks along each grid dimension.
    block_x, block_y:
        Number of threads along each block dimension.
    """

    grid_x: int
    grid_y: int = 1
    block_x: int = 1
    block_y: int = 1

    def __post_init__(self) -> None:
        for name in ("grid_x", "grid_y", "block_x", "block_y"):
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be positive")

    @property
    def threads_per_block(self) -> int:
        """Number of threads in one block."""
        return self.block_x * self.block_y

    @property
    def warps_per_block(self) -> int:
        """Number of warps in one block (rounded up)."""
        return -(-self.threads_per_block // WARP_SIZE)

    @property
    def block_count(self) -> int:
        """Total number of blocks in the grid."""
        return self.grid_x * self.grid_y

    @property
    def total_threads(self) -> int:
        """Total number of threads in the launch."""
        return self.block_count * self.threads_per_block

    def block_indices(self) -> list[tuple[int, int]]:
        """All (blockIdx.x, blockIdx.y) pairs in launch order."""
        return [(bx, by) for by in range(self.grid_y) for bx in range(self.grid_x)]


@dataclass(frozen=True)
class LaunchConfig:
    """Everything needed to launch a kernel on the simulator.

    Attributes
    ----------
    grid:
        Grid/block geometry.
    max_cycles:
        Safety limit on simulated cycles per SM.
    functional:
        Whether to execute instructions functionally (needed for numerical
        validation; can be disabled for pure timing runs).
    """

    grid: BlockGrid
    max_cycles: int = 5_000_000
    functional: bool = True
