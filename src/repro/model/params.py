"""SGEMM configuration parameters (the "critical parameters" of the paper).

The paper's analysis identifies a small set of algorithm parameters that
determine both the instruction mix and the resource footprint of an SGEMM
kernel:

* ``register_blocking`` (B_R) — each thread computes a B_R × B_R sub-tile of C
  held in registers;
* ``lds_width_bits`` — whether shared-memory loads use LDS, LDS.64 or LDS.128;
* ``threads_per_block`` (T_B);
* ``stride`` (L) — the K-extent of the shared-memory tiles of A and B loaded
  per main-loop iteration (chosen so each thread loads the same amount of
  data, Eq. 3);
* ``address_registers`` (R_addr) — bookkeeping registers for global/shared
  addresses and the loop bound.

:class:`SgemmConfig` bundles them with the derived quantities used throughout
the model and the kernel generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelError


@dataclass(frozen=True)
class SgemmConfig:
    """One point of the SGEMM design space.

    Attributes
    ----------
    register_blocking:
        Register blocking factor B_R (each thread computes B_R × B_R results).
    lds_width_bits:
        Width of shared-memory loads in the main loop (32, 64 or 128).
    threads_per_block:
        Threads per block, T_B.  Must have an integral square root times B_R
        tile geometry (the paper uses 256, i.e. a 16×16 thread tile).
    stride:
        L, the K-extent of the shared-memory tile loaded per iteration.
    address_registers:
        Bookkeeping registers (addresses, loop bound); the paper's Fermi
        kernel uses 7 (2 global trackers + 1 loop bound + 2 shared-store
        trackers + 2 shared-load trackers).
    """

    register_blocking: int
    lds_width_bits: int = 64
    threads_per_block: int = 256
    stride: int = 16
    address_registers: int = 7

    def __post_init__(self) -> None:
        if self.register_blocking <= 0:
            raise ModelError("register blocking factor must be positive")
        if self.lds_width_bits not in (32, 64, 128):
            raise ModelError("LDS width must be 32, 64 or 128 bits")
        if self.threads_per_block <= 0 or self.threads_per_block % 32 != 0:
            raise ModelError("threads_per_block must be a positive multiple of 32")
        if self.stride <= 0:
            raise ModelError("stride must be positive")
        if self.address_registers < 0:
            raise ModelError("address_registers must be non-negative")

    # ------------------------------------------------------------------ #
    # Derived tile geometry.                                              #
    # ------------------------------------------------------------------ #

    @property
    def block_tile(self) -> int:
        """Edge length of the C tile computed per block: sqrt(T_B) * B_R.

        The paper's Figure 1 geometry: a block of T_B threads arranged in a
        sqrt(T_B) × sqrt(T_B) grid, each thread computing B_R × B_R elements.
        """
        root = math.isqrt(self.threads_per_block)
        if root * root != self.threads_per_block:
            raise ModelError(
                f"threads_per_block={self.threads_per_block} is not a perfect square; "
                "the blocked SGEMM geometry requires one"
            )
        return root * self.register_blocking

    @property
    def shared_blocking(self) -> int:
        """Shared-memory blocking factor B_Sh = sqrt(T_B) * B_R (paper §4.4)."""
        return self.block_tile

    @property
    def elements_per_thread_per_tile(self) -> int:
        """Global-memory elements each thread loads per A/B tile (Eq. 3 fairness)."""
        total = self.block_tile * self.stride
        if total % self.threads_per_block != 0:
            raise ModelError(
                f"tile of {total} elements does not divide evenly over "
                f"{self.threads_per_block} threads; adjust the stride (Eq. 3)"
            )
        return total // self.threads_per_block

    @property
    def shared_memory_per_block_bytes(self) -> int:
        """Shared memory per block for double-buffered A and B tiles (bytes).

        ``2 * block_tile * stride`` float32 elements: one tile for A and one
        for B (Eq. 5 charges the prefetch buffers of every resident block).
        """
        return 2 * self.block_tile * self.stride * 4

    def describe(self) -> dict[str, object]:
        """Dictionary view used in reports and sweeps."""
        return {
            "register_blocking": self.register_blocking,
            "lds_width_bits": self.lds_width_bits,
            "threads_per_block": self.threads_per_block,
            "stride": self.stride,
            "address_registers": self.address_registers,
            "block_tile": self.block_tile,
            "shared_memory_per_block_bytes": self.shared_memory_per_block_bytes,
        }


#: The configuration the paper uses on the Fermi GTX580 (Section 4.5 / 5.2).
FERMI_PAPER_CONFIG = SgemmConfig(
    register_blocking=6,
    lds_width_bits=64,
    threads_per_block=256,
    stride=16,
    address_registers=7,
)

#: The LDS.64 configuration analysed for the Kepler GTX680 (Section 4.5).
KEPLER_LDS64_CONFIG = SgemmConfig(
    register_blocking=6,
    lds_width_bits=64,
    threads_per_block=256,
    stride=16,
    address_registers=7,
)

#: The LDS.128 configuration analysed for the Kepler GTX680 (Section 4.5).
#:
#: LDS.128 keeps four B-row operands live instead of two, so the stride drops
#: from 16 to 8 (both satisfy Equation 3) to keep the Equation 4 register
#: requirement within the 63-register ISA limit — the "data layout transform"
#: the paper mentions as the price of LDS.128.
KEPLER_LDS128_CONFIG = SgemmConfig(
    register_blocking=6,
    lds_width_bits=128,
    threads_per_block=256,
    stride=8,
    address_registers=7,
)
