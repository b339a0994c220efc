"""Shared memory description and bank-conflict arithmetic.

Fermi and Kepler SMs expose a unified 64 KB array split between shared memory
and L1 cache (48 KB / 16 KB in the configuration the paper uses).  Shared
memory is organised in 32 banks of 4-byte words; threads of a warp that access
different words in the same bank serialise.  The paper's key shared-memory
observations are about the *width* of LDS instructions:

* Fermi: LDS peaks at 16 32-bit accesses/cycle/SM; LDS.64 does not raise the
  data throughput; LDS.128 typically causes a 2-way conflict and drops to
  ~2 thread-instructions/cycle.
* Kepler: LDS.64 peaks at ~33 64-bit accesses/cycle/SM; 32-bit LDS halves the
  data throughput; properly aligned LDS.128 carries no penalty.

Those measured throughputs live in the machine descriptions / PerfDatabase;
this module provides the structural bank model used by the simulator and by
the layout helpers in :mod:`repro.sgemm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ArchitectureError


@dataclass(frozen=True)
class SharedMemorySpec:
    """Per-SM shared memory description.

    Attributes
    ----------
    size_bytes:
        Shared memory capacity per SM in bytes (configured value, e.g. 48 KB).
    bank_count:
        Number of banks (32 on Fermi/Kepler).
    bank_width_bytes:
        Width of one bank word in bytes (4 on Fermi, 4 or 8 on Kepler; the
        paper's measurements are consistent with 8-byte banking on Kepler for
        LDS.64, which we expose via ``bank_width_bytes``).
    """

    size_bytes: int
    bank_count: int = 32
    bank_width_bytes: int = 4

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ArchitectureError("shared memory size must be positive")
        if self.bank_count <= 0:
            raise ArchitectureError("bank count must be positive")
        if self.bank_count & (self.bank_count - 1):
            raise ArchitectureError("bank count must be a power of two")
        if self.bank_width_bytes not in (4, 8):
            raise ArchitectureError("bank width must be 4 or 8 bytes")

    def bank_of(self, byte_address: int) -> int:
        """Bank index holding ``byte_address``."""
        if byte_address < 0:
            raise ArchitectureError("shared memory address must be non-negative")
        return (byte_address // self.bank_width_bytes) % self.bank_count

    def conflict_degree(self, byte_addresses: Iterable[int], access_bytes: int = 4) -> int:
        """Worst-case serialisation degree for a warp's shared-memory access.

        Parameters
        ----------
        byte_addresses:
            Starting byte address touched by each active thread.
        access_bytes:
            Bytes read per thread (4, 8 or 16 for LDS, LDS.64, LDS.128).

        Returns
        -------
        int
            1 when the access is conflict-free, otherwise the number of
            serialised passes required.  Threads that read the same word are
            broadcast and do not conflict.
        """
        if access_bytes not in (4, 8, 16):
            raise ArchitectureError("access width must be 4, 8 or 16 bytes")
        # Each thread touches access_bytes // bank_width consecutive words;
        # hardware splits wide accesses into bank_width-sized phases, so the
        # conflict degree is evaluated per phase and the worst phase wins.
        words_per_thread = max(1, access_bytes // self.bank_width_bytes)
        worst = 1
        for phase in range(words_per_thread):
            bank_words: dict[int, set[int]] = {}
            for addr in byte_addresses:
                word_addr = addr + phase * self.bank_width_bytes
                bank = self.bank_of(word_addr)
                word = word_addr // self.bank_width_bytes
                bank_words.setdefault(bank, set()).add(word)
            if bank_words:
                worst = max(worst, max(len(words) for words in bank_words.values()))
        return worst

    def fits(self, bytes_needed: int) -> bool:
        """Whether an allocation of ``bytes_needed`` fits in shared memory."""
        if bytes_needed < 0:
            raise ArchitectureError("allocation size must be non-negative")
        return bytes_needed <= self.size_bytes

    def max_blocks_for_allocation(self, bytes_per_block: int) -> int:
        """How many blocks of ``bytes_per_block`` shared memory fit on one SM.

        Implements paper Equation 5, ``Blk * 2 * sqrt(T_B) * B_R * L <= Sh_SM``
        once the per-block footprint has been computed by the caller.
        """
        if bytes_per_block < 0:
            raise ArchitectureError("per-block allocation must be non-negative")
        if bytes_per_block == 0:
            return 2**31 - 1
        return self.size_bytes // bytes_per_block
