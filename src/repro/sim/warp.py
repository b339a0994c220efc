"""Per-warp architectural state."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

WARP_SIZE = 32
REGISTER_COUNT = 64  # R0..R62 plus RZ at index 63
PREDICATE_COUNT = 8  # P0..P6 plus PT at index 7


@dataclass
class WarpState:
    """Architectural state of one warp.

    Attributes
    ----------
    warp_id:
        Warp index within the simulated SM.
    block_id:
        Index of the block (within the SM) this warp belongs to.
    block_idx:
        The CUDA (blockIdx.x, blockIdx.y) of the warp's block.
    lane_tid_x / lane_tid_y:
        Per-lane thread coordinates within the block.
    pc:
        Index of the next instruction to issue.
    registers:
        ``(64, 32)`` uint32 array; row 63 is RZ and always reads as zero.
    predicates:
        ``(8, 32)`` bool array; row 7 is PT and always reads as True.
    active_mask:
        Which lanes hold real threads (trailing warps of odd-sized blocks
        have inactive lanes).
    finished:
        The warp has executed EXIT.
    at_barrier:
        The warp is parked at a BAR.SYNC waiting for its block.

    ``pc``, ``finished`` and ``at_barrier`` are stepped by
    :func:`repro.sim.reference.run_block_reference`; the timing state
    (scoreboard, ready cycles) lives in the flat per-warp rows of
    :meth:`repro.sim.sm_sim.SmSimulator.run`.
    """

    warp_id: int
    block_id: int
    block_idx: tuple[int, int] = (0, 0)
    lane_tid_x: np.ndarray = field(default_factory=lambda: np.zeros(WARP_SIZE, dtype=np.int64))
    lane_tid_y: np.ndarray = field(default_factory=lambda: np.zeros(WARP_SIZE, dtype=np.int64))
    pc: int = 0
    registers: np.ndarray = field(
        default_factory=lambda: np.zeros((REGISTER_COUNT, WARP_SIZE), dtype=np.uint32)
    )
    predicates: np.ndarray = field(
        default_factory=lambda: np.zeros((PREDICATE_COUNT, WARP_SIZE), dtype=bool)
    )
    active_mask: np.ndarray = field(default_factory=lambda: np.ones(WARP_SIZE, dtype=bool))
    finished: bool = False
    at_barrier: bool = False

    def __post_init__(self) -> None:
        self.predicates[PREDICATE_COUNT - 1, :] = True  # PT

    # ------------------------------------------------------------------ #
    # Register access helpers (functional side).                          #
    # ------------------------------------------------------------------ #

    def read_u32(self, index: int) -> np.ndarray:
        """Read a register as 32 unsigned integers (RZ reads as zero)."""
        if index == REGISTER_COUNT - 1:
            return np.zeros(WARP_SIZE, dtype=np.uint32)
        return self.registers[index]

    def read_s32(self, index: int) -> np.ndarray:
        """Read a register as 32 signed integers."""
        return self.read_u32(index).astype(np.int64).astype(np.int32).astype(np.int64)

    def read_f32(self, index: int) -> np.ndarray:
        """Read a register as 32 float32 values."""
        return self.read_u32(index).view(np.float32)

    def write_u32(self, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        """Write 32-bit values into a register under ``mask`` (RZ writes ignored)."""
        if index == REGISTER_COUNT - 1:
            return
        lane_values = np.asarray(values, dtype=np.uint32)
        self.registers[index, mask] = lane_values[mask]

    def write_f32(self, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        """Write float32 values into a register under ``mask``."""
        self.write_u32(index, np.asarray(values, dtype=np.float32).view(np.uint32), mask)

    def read_predicate(self, index: int, negated: bool) -> np.ndarray:
        """Evaluate a (possibly negated) guard predicate per lane."""
        values = self.predicates[index]
        return ~values if negated else values

    def write_predicate(self, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        """Write a predicate register under ``mask`` (PT writes ignored)."""
        if index == PREDICATE_COUNT - 1:
            return
        self.predicates[index, mask] = values[mask]


def build_warps_for_block(
    block_id: int,
    block_idx: tuple[int, int],
    block_dim: tuple[int, int],
    first_warp_id: int,
) -> list[WarpState]:
    """Create the warps of one block with thread coordinates filled in.

    Threads are linearised in the CUDA order (x fastest) and packed into warps
    of 32 consecutive threads.
    """
    block_x, block_y = block_dim
    if block_x <= 0 or block_y <= 0:
        raise SimulationError("block dimensions must be positive")
    total_threads = block_x * block_y
    warp_count = -(-total_threads // WARP_SIZE)
    warps: list[WarpState] = []
    for warp_index in range(warp_count):
        linear = np.arange(WARP_SIZE, dtype=np.int64) + warp_index * WARP_SIZE
        active = linear < total_threads
        linear_clamped = np.minimum(linear, total_threads - 1)
        warp = WarpState(
            warp_id=first_warp_id + warp_index,
            block_id=block_id,
            block_idx=block_idx,
            lane_tid_x=linear_clamped % block_x,
            lane_tid_y=linear_clamped // block_x,
            active_mask=active,
        )
        warps.append(warp)
    return warps
