"""Simulated memories: global memory, shared memory and kernel parameters.

Global memory is a flat byte-addressable array backed by NumPy.  Host code
allocates named buffers (matrices A, B, C for SGEMM), obtains their base
addresses, passes them to the kernel through the constant bank
(:class:`KernelParams`), and reads results back after simulation.
:class:`SharedMemoryArray` is the per-block scratchpad the same kernels stage
tiles through; :class:`PackedSharedMemory` packs the resident blocks' arrays
into one buffer so the vectorized engine can address all of them at once.

Both memories expose two word-level access paths with identical semantics:

* ``load_words`` / ``store_words`` — vectorised masked gather/scatter over
  NumPy index arrays (any shape: one warp's 32 lanes, or the resident warps'
  ``(warps, 32)`` lane matrix).  This is the fast path used by
  :mod:`repro.sim.vectorized`, which reaches shared memory through the
  same-named methods of :class:`PackedSharedMemory` (there a mask may also
  be ``True``, every lane).
* ``load_words_reference`` / ``store_words_reference`` — the original
  per-lane Python loops, kept verbatim as the oracle for the differential
  test harness (:mod:`repro.sim.reference`).

Semantics the two paths share (and the differential tests pin): masked-off
lanes touch nothing and read zero; bounds are checked per 32-bit word and the
*first* offending lane (flat C order) raises with its address; duplicate store
addresses resolve last-lane-wins; DRAM byte counters count active lanes and
are incremented before the bounds check, so a partially out-of-bounds access
leaves the same books either way.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import SimulationError

#: Byte offsets of one little-endian 32-bit word, used to split unaligned
#: word accesses into byte gathers/scatters.
_WORD_BYTES = np.arange(4, dtype=np.int64)


def _gather_words(
    data: np.ndarray, limit: int, addresses: np.ndarray, mask: np.ndarray, what: str
) -> np.ndarray:
    """Masked vectorised gather of one 32-bit word per lane.

    ``data`` is the uint8 backing store (padded to a multiple of 4 bytes so a
    uint32 view exists); ``limit`` is the logical size bounds are checked
    against.  ``addresses`` and ``mask`` may be any matching shape.
    """
    result = np.zeros(addresses.shape, dtype=np.uint32)
    flat_addresses = np.ascontiguousarray(addresses, dtype=np.int64).reshape(-1)
    flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
    active = flat_addresses[flat_mask]
    if active.size == 0:
        return result
    bad = (active < 0) | (active + 4 > limit)
    if bad.any():
        address = int(active[int(np.argmax(bad))])
        raise SimulationError(f"{what} out of bounds at {address:#x}")
    if not (active & 3).any():
        values = data.view(np.uint32)[active >> 2]
    else:
        values = data[active[:, None] + _WORD_BYTES].view(np.uint32).reshape(-1)
    result.reshape(-1)[flat_mask] = values
    return result


def _scatter_words(
    data: np.ndarray,
    limit: int,
    addresses: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
    what: str,
) -> None:
    """Masked vectorised scatter of one 32-bit word per lane.

    Duplicate addresses resolve in flat C order (last lane wins), matching the
    reference path's ascending-lane store loop.
    """
    flat_addresses = np.ascontiguousarray(addresses, dtype=np.int64).reshape(-1)
    flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
    active = flat_addresses[flat_mask]
    if active.size == 0:
        return
    bad = (active < 0) | (active + 4 > limit)
    if bad.any():
        address = int(active[int(np.argmax(bad))])
        raise SimulationError(f"{what} out of bounds at {address:#x}")
    active_values = np.ascontiguousarray(values, dtype=np.uint32).reshape(-1)[flat_mask]
    if not (active & 3).any():
        data.view(np.uint32)[active >> 2] = active_values
    else:
        data[active[:, None] + _WORD_BYTES] = active_values.view(np.uint8).reshape(-1, 4)


class SharedMemoryArray:
    """Shared-memory backing store for one block."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes < 0:
            raise SimulationError("shared memory size must be non-negative")
        self._size = size_bytes
        # Bounds are checked against the logical limit; the backing store is
        # padded to a multiple of 4 bytes so an aligned uint32 view exists.
        self._limit = max(size_bytes, 4)
        self._data = np.zeros(-(-self._limit // 4) * 4, dtype=np.uint8)

    @property
    def size_bytes(self) -> int:
        """Configured shared-memory size for the block."""
        return self._size

    @property
    def data(self) -> np.ndarray:
        """Raw byte array (view for inspection and differential comparison)."""
        return self._data[: self._limit]

    def load_words(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Gather one 32-bit word per lane (masked lanes read zero)."""
        return _gather_words(self._data, self._limit, addresses, mask, "shared-memory load")

    def store_words(self, addresses: np.ndarray, values: np.ndarray, mask: np.ndarray) -> None:
        """Scatter one 32-bit word per lane (masked lanes skipped)."""
        _scatter_words(self._data, self._limit, addresses, values, mask, "shared-memory store")

    def load_words_reference(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Per-lane scalar gather: the differential-testing oracle."""
        result = np.zeros(addresses.shape, dtype=np.uint32)
        for lane in np.flatnonzero(mask):
            address = int(addresses[lane])
            if address < 0 or address + 4 > self._limit:
                raise SimulationError(f"shared-memory load out of bounds at {address:#x}")
            result[lane] = self._data[address : address + 4].view(np.uint32)[0]
        return result

    def store_words_reference(
        self, addresses: np.ndarray, values: np.ndarray, mask: np.ndarray
    ) -> None:
        """Per-lane scalar scatter: the differential-testing oracle."""
        for lane in np.flatnonzero(mask):
            address = int(addresses[lane])
            if address < 0 or address + 4 > self._limit:
                raise SimulationError(f"shared-memory store out of bounds at {address:#x}")
            self._data[address : address + 4] = (
                np.array([values[lane]], dtype=np.uint32).view(np.uint8)
            )


class PackedSharedMemory:
    """Several blocks' shared memories packed into one buffer for lock-step access.

    Row ``r`` of an access matrix belongs to block ``blocks[r]``, an index into
    ``memories``; each row's block offset and bound are looked up once, here.
    A row's addresses are bounds-checked against its block's own size
    *before* the block's offset into the packed buffer is added, so no block
    can reach another block's words.  A ``mask`` is a ``(rows, lanes)`` lane
    mask or ``True`` for every lane; lanes outside it are neither checked nor
    written, and a load returns unspecified values there (the caller writes
    its destination under the same mask).  :meth:`writeback` copies the
    packed contents back into the ``memories`` it was built from.
    """

    def __init__(self, memories: list[SharedMemoryArray], blocks: np.ndarray) -> None:
        self._memories = memories
        # Each block's segment is its padded backing store, so every base is
        # word aligned and an aligned access is one uint32 gather/scatter.
        sizes = [memory._data.size for memory in memories]
        self._base = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        last = np.array([memory._limit for memory in memories], dtype=np.int64)[blocks] - 4
        self._row_base = self._base[blocks][:, None]
        # Highest in-bounds word address of each row's block, and of the
        # smallest block: an access whose every lane is at or below the
        # latter needs no per-row check.  Negative addresses compare above
        # both as uint64.
        self._row_last = last.astype(np.uint64)[:, None]
        self._last = int(last.min())
        self._data = np.concatenate([memory._data for memory in memories])
        self._words = self._data.view(np.uint32)

    def _checked(self, addresses: np.ndarray, mask, what: str) -> np.ndarray:
        """Block-local ``addresses`` with every lane in bounds.

        They come back as given when every lane already is; otherwise lanes
        outside ``mask`` move to address 0 and a lane inside it that is out
        of its block's bounds raises.
        """
        if addresses.view(np.uint64).max() <= self._last:
            return addresses
        if mask is not True:
            addresses = np.where(mask, addresses, 0)
        bad = addresses.view(np.uint64) > self._row_last
        if bad.any():
            address = int(addresses.reshape(-1)[int(np.argmax(bad))])
            raise SimulationError(f"{what} out of bounds at {address:#x}")
        return addresses

    def load_words(self, addresses: np.ndarray, mask) -> np.ndarray:
        """Gather one 32-bit word per lane from each row's block."""
        packed = self._checked(addresses, mask, "shared-memory load") + self._row_base
        if np.bitwise_or.reduce(packed, axis=None) & 3:  # some lane is unaligned
            return self._data[packed[..., None] + _WORD_BYTES].view(np.uint32)[..., 0]
        return self._words[packed >> 2]

    def store_words(self, addresses: np.ndarray, values: np.ndarray, mask) -> None:
        """Scatter one 32-bit word per lane into each row's block (last lane wins)."""
        packed = self._checked(addresses, mask, "shared-memory store") + self._row_base
        if mask is not True:
            packed = packed[mask]
            values = values[mask]
        if np.bitwise_or.reduce(packed, axis=None) & 3:
            self._data[packed[..., None] + _WORD_BYTES] = (
                np.ascontiguousarray(values).view(np.uint8).reshape(*packed.shape, 4)
            )
        else:
            self._words[packed >> 2] = values

    def writeback(self) -> None:
        """Copy every block's packed segment back into its ``SharedMemoryArray``."""
        for memory, base in zip(self._memories, self._base):
            memory._data[:] = self._data[base : base + memory._data.size]


class GlobalMemory:
    """Flat simulated device memory.

    Parameters
    ----------
    size_bytes:
        Capacity of the simulated device memory.  Allocations are carved out
        of this space with 256-byte alignment (matching CUDA's allocation
        granularity closely enough for coalescing analysis).
    """

    ALIGNMENT = 256

    def __init__(self, size_bytes: int = 256 * 1024 * 1024) -> None:
        if size_bytes <= 0:
            raise SimulationError("global memory size must be positive")
        self._size = int(size_bytes)
        # Padded to a multiple of 4 bytes so an aligned uint32 view exists;
        # bounds are checked against the logical size.
        self._data = np.zeros(-(-self._size // 4) * 4, dtype=np.uint8)
        self._next_free = self.ALIGNMENT  # keep address 0 unused (null)
        self._allocations: dict[str, tuple[int, int]] = {}
        self._load_bytes = 0
        self._store_bytes = 0

    @property
    def load_bytes(self) -> int:
        """Bytes loaded by active lanes since construction (simulated DRAM reads)."""
        return self._load_bytes

    @property
    def store_bytes(self) -> int:
        """Bytes stored by active lanes since construction (simulated DRAM writes)."""
        return self._store_bytes

    @property
    def size_bytes(self) -> int:
        """Capacity of the simulated memory."""
        return self._size

    @property
    def data(self) -> np.ndarray:
        """Raw byte array (read-only view for inspection)."""
        return self._data[: self._size]

    def allocate(self, name: str, size_bytes: int) -> int:
        """Allocate ``size_bytes`` under ``name`` and return the base address."""
        if size_bytes <= 0:
            raise SimulationError("allocation size must be positive")
        if name in self._allocations:
            raise SimulationError(f"buffer '{name}' already allocated")
        base = self._next_free
        end = base + size_bytes
        if end > self.size_bytes:
            raise SimulationError(
                f"out of simulated device memory allocating '{name}' ({size_bytes} bytes)"
            )
        aligned_end = -(-end // self.ALIGNMENT) * self.ALIGNMENT
        self._next_free = aligned_end
        self._allocations[name] = (base, size_bytes)
        return base

    def allocate_array(self, name: str, array: np.ndarray) -> int:
        """Allocate a buffer sized/initialised from ``array`` (float32/int32/uint8)."""
        flat = np.ascontiguousarray(array)
        base = self.allocate(name, flat.nbytes)
        self._data[base : base + flat.nbytes] = flat.view(np.uint8).reshape(-1)
        return base

    def address_of(self, name: str) -> int:
        """Base address of a named allocation."""
        if name not in self._allocations:
            raise SimulationError(f"unknown buffer '{name}'")
        return self._allocations[name][0]

    def read_array(self, name: str, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        """Read a named allocation back as a typed array."""
        if name not in self._allocations:
            raise SimulationError(f"unknown buffer '{name}'")
        base, size = self._allocations[name]
        wanted = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if wanted > size:
            raise SimulationError(
                f"requested {wanted} bytes from buffer '{name}' of size {size}"
            )
        raw = self._data[base : base + wanted]
        return raw.view(dtype).reshape(shape).copy()

    # ------------------------------------------------------------------ #
    # Word-level accessors used by the functional executor.               #
    # ------------------------------------------------------------------ #

    def load_words(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Gather one 32-bit word per lane from ``addresses`` (masked lanes read 0)."""
        self._load_bytes += 4 * int(np.count_nonzero(mask))
        return _gather_words(self._data, self._size, addresses, mask, "global load")

    def store_words(self, addresses: np.ndarray, values: np.ndarray, mask: np.ndarray) -> None:
        """Scatter one 32-bit word per lane to ``addresses`` (masked lanes skipped)."""
        self._store_bytes += 4 * int(np.count_nonzero(mask))
        _scatter_words(self._data, self._size, addresses, values, mask, "global store")

    def load_words_reference(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Per-lane scalar gather: the differential-testing oracle."""
        result = np.zeros(addresses.shape, dtype=np.uint32)
        active = np.flatnonzero(mask)
        self._load_bytes += 4 * len(active)
        for lane in active:
            address = int(addresses[lane])
            if address < 0 or address + 4 > self.size_bytes:
                raise SimulationError(f"global load out of bounds at {address:#x}")
            result[lane] = self._data[address : address + 4].view(np.uint32)[0]
        return result

    def store_words_reference(
        self, addresses: np.ndarray, values: np.ndarray, mask: np.ndarray
    ) -> None:
        """Per-lane scalar scatter: the differential-testing oracle."""
        active = np.flatnonzero(mask)
        self._store_bytes += 4 * len(active)
        for lane in active:
            address = int(addresses[lane])
            if address < 0 or address + 4 > self.size_bytes:
                raise SimulationError(f"global store out of bounds at {address:#x}")
            self._data[address : address + 4] = (
                np.array([values[lane]], dtype=np.uint32).view(np.uint8)
            )


class KernelParams:
    """Kernel parameter block exposed to kernels as constant bank 0.

    Parameters are appended in order with :meth:`add_pointer`, :meth:`add_int`
    and :meth:`add_float`; each returns the byte offset at which the kernel
    will find the value (``c[0x0][offset]``).  The paper's kernels pass the
    matrix base addresses, the leading dimensions and the matrix sizes this
    way, mirroring the CUDA ABI's parameter space.
    """

    BASE_OFFSET = 0x20  # mimic the CUDA ABI: launch bookkeeping occupies the first words

    def __init__(self) -> None:
        self._blob = bytearray(self.BASE_OFFSET)
        self._offsets: dict[str, int] = {}

    def _append(self, name: str, packed: bytes) -> int:
        offset = len(self._blob)
        self._blob.extend(packed)
        self._offsets[name] = offset
        return offset

    def add_pointer(self, name: str, address: int) -> int:
        """Append a 32-bit device pointer parameter (the paper uses 32-bit addressing)."""
        if address < 0 or address >= 2**32:
            raise SimulationError("pointer parameters must fit in 32 bits")
        return self._append(name, struct.pack("<I", address))

    def add_int(self, name: str, value: int) -> int:
        """Append a signed 32-bit integer parameter."""
        return self._append(name, struct.pack("<i", int(value)))

    def add_float(self, name: str, value: float) -> int:
        """Append a 32-bit float parameter."""
        return self._append(name, struct.pack("<f", float(value)))

    def offset_of(self, name: str) -> int:
        """Byte offset of a named parameter within constant bank 0."""
        if name not in self._offsets:
            raise SimulationError(f"unknown kernel parameter '{name}'")
        return self._offsets[name]

    def read_word(self, offset: int) -> int:
        """Read the 32-bit word at ``offset`` (used by the functional executor)."""
        if offset < 0 or offset + 4 > len(self._blob):
            raise SimulationError(f"constant-bank read out of bounds at offset {offset:#x}")
        return struct.unpack_from("<I", self._blob, offset)[0]

    def __len__(self) -> int:
        return len(self._blob)
