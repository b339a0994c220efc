"""Memory edge cases, pinned identically on both functional executors.

Six families of behaviour the differential fuzzer relies on but deserves
explicit, named coverage:

* **Out-of-bounds diagnostics** — a global or shared access past the end of
  the backing store raises :class:`~repro.errors.SimulationError` naming the
  offending address, from either executor;
* **fully-masked-off accesses** — a load/store whose guard predicate is
  false on every lane touches nothing: no OOB check fires even at a wild
  address, and no DRAM bytes are counted;
* **overlapping wide shared accesses** — stride-4 ``STS.64`` word pairs
  overlap between adjacent lanes; stores resolve in ascending-lane order
  (last lane wins), bit-identically across executors;
* **constant-bank reads** — ``KernelParams`` ints, floats and pointers read
  through ``c[0][offset]`` with identical values from both engines;
* **per-block shared memory** — the vectorized engine runs every block in one
  lock-step pass over packed shared memories, yet an address past a block's
  own shared memory raises instead of reaching the next block's, a store to
  a block's last word leaves every other block's memory untouched, and each
  block reads back its own writes; :class:`PackedSharedMemory` itself reads
  and writes what each row's own :class:`SharedMemoryArray` would, aligned
  or not, leaves lanes outside the mask unchecked (negative or wild
  addresses included), and raises at the first offending lane in flat C
  order;
* **a store of its own address** — ``ST [R2], R2`` stores the address: the
  data operand is the very ``Register`` object of the base (there is one per
  index), and both executors still find it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.isa import KernelBuilder
from repro.isa.instructions import ConstRef, MemRef
from repro.isa.registers import SpecialRegister, predicate, reg
from repro.sim import BlockGrid, GlobalMemory, KernelParams, simulate_kernel
from repro.sim.memory import PackedSharedMemory, SharedMemoryArray
from repro.sim.reference import run_block_reference
from repro.sim.vectorized import VectorizedEngine
from repro.sim.warp import build_warps_for_block

EXECUTORS = ("reference", "vectorized")


def _kernel(body, *, shared_bytes=4096, threads=32):
    builder = KernelBuilder(shared_memory_bytes=shared_bytes,
                            threads_per_block=threads)
    body(builder)
    builder.exit()
    return builder.build()


def _store_lane_result(b, source_register, out_base):
    """Epilogue: store ``source_register`` to out[laneid]."""
    b.mov32i(10, out_base)
    b.s2r(11, SpecialRegister.LANEID)
    b.shl(11, 11, 2)
    b.iadd(10, 10, reg(11))
    b.st(MemRef(base=reg(10)), source_register)


class TestOutOfBoundsDiagnostics:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_global_load_past_end_raises_with_address(self, fermi, executor):
        memory = GlobalMemory(size_bytes=4096)

        def body(b):
            b.mov32i(1, 4096)  # first byte past the end
            b.ld(2, MemRef(base=reg(1)))

        with pytest.raises(SimulationError, match=r"out of bounds at 0x1000"):
            simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                            global_memory=memory, executor=executor)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_global_store_straddling_end_raises(self, fermi, executor):
        """The last word starts in bounds but its tail pokes past the end."""
        memory = GlobalMemory(size_bytes=4096)

        def body(b):
            b.mov32i(1, 4094)  # bytes 4094..4097: 2 of 4 out of bounds
            b.st(MemRef(base=reg(1)), 1)

        with pytest.raises(SimulationError, match=r"out of bounds"):
            simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                            global_memory=memory, executor=executor)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_shared_access_past_end_raises(self, fermi, executor):
        def body(b):
            b.mov32i(1, 4096)
            b.lds(2, MemRef(base=reg(1)))

        with pytest.raises(SimulationError, match=r"out of bounds"):
            simulate_kernel(fermi, _kernel(body, shared_bytes=4096),
                            BlockGrid(grid_x=1, block_x=32), executor=executor)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_negative_address_raises(self, fermi, executor):
        memory = GlobalMemory(size_bytes=4096)

        def body(b):
            b.mov32i(1, 16)
            b.ld(2, MemRef(base=reg(1), offset=0))
            b.iadd(1, 1, -64)
            b.ld(2, MemRef(base=reg(1)))

        with pytest.raises(SimulationError, match=r"out of bounds"):
            simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                            global_memory=memory, executor=executor)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_last_word_in_bounds_is_fine(self, fermi, executor):
        """OOB-adjacent: the very last word of memory loads cleanly."""
        memory = GlobalMemory(size_bytes=4096)
        memory.data[4092:4096] = np.array([0xEF, 0xBE, 0xAD, 0xDE], np.uint8)
        out = memory.allocate("out", 4 * 32)

        def body(b):
            b.mov32i(1, 4092)
            b.ld(2, MemRef(base=reg(1)))
            _store_lane_result(b, 2, out)

        simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                        global_memory=memory, executor=executor)
        assert int(memory.read_array("out", np.uint32, (32,))[0]) == 0xDEADBEEF


class TestStoreOfItsOwnAddress:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_data_register_that_is_the_base_is_stored(self, fermi, executor):
        memory = GlobalMemory(size_bytes=4096)
        out = memory.allocate("out", 4 * 32)

        def body(b):
            b.s2r(1, SpecialRegister.LANEID)
            b.shl(1, 1, 2)
            b.mov32i(2, out)
            b.iadd(2, 2, reg(1))
            b.st(MemRef(base=reg(2)), reg(2))

        kernel = _kernel(body)
        store = kernel.instructions[-2]
        assert store.sources[1] is store.memory_operand.base
        simulate_kernel(fermi, kernel, BlockGrid(grid_x=1, block_x=32),
                        global_memory=memory, executor=executor)
        expected = out + 4 * np.arange(32, dtype=np.uint32)
        assert np.array_equal(memory.read_array("out", np.uint32, (32,)), expected)


class TestFullyMaskedAccesses:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_masked_off_load_skips_oob_check_and_counts_nothing(
            self, fermi, executor):
        """An all-lanes-false guard means the wild address is never touched."""
        memory = GlobalMemory(size_bytes=4096)
        out = memory.allocate("out", 4 * 32)

        def body(b):
            b.s2r(1, SpecialRegister.LANEID)
            b.isetp(predicate(0), "LT", 1, 0)       # laneid < 0: never
            b.mov32i(2, 0x7FFFFFF0)                 # far out of bounds
            b.mov32i(3, 1234)
            with b.guarded(predicate(0)):
                b.ld(3, MemRef(base=reg(2)))        # must not execute
            _store_lane_result(b, 3, out)

        before = memory.load_bytes
        simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                        global_memory=memory, executor=executor)
        assert np.all(memory.read_array("out", np.uint32, (32,)) == 1234)
        # Only the epilogue stores moved data; the masked load moved none.
        assert memory.load_bytes == before

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_masked_off_store_writes_nothing(self, fermi, executor):
        memory = GlobalMemory(size_bytes=4096)
        target = memory.allocate("target", 4 * 32)
        sentinel = np.arange(32, dtype=np.uint32) + 7
        memory.data[target:target + 128] = sentinel.view(np.uint8)

        def body(b):
            b.s2r(1, SpecialRegister.LANEID)
            b.isetp(predicate(1), "GE", 1, 32)      # laneid >= 32: never
            b.mov32i(2, target)
            b.mov32i(3, 0)
            with b.guarded(predicate(1)):
                b.st(MemRef(base=reg(2)), 3)

        simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                        global_memory=memory, executor=executor)
        assert np.array_equal(memory.read_array("target", np.uint32, (32,)),
                              sentinel)
        assert memory.store_bytes == 0

    def test_partially_masked_byte_counters_match_across_executors(self, fermi):
        """Half-masked traffic counts the same bytes on both engines."""
        counts = []
        for executor in EXECUTORS:
            memory = GlobalMemory(size_bytes=4096)
            buf = memory.allocate("buf", 4 * 32)

            def body(b, buf=buf):
                b.s2r(1, SpecialRegister.LANEID)
                b.isetp(predicate(0), "LT", 1, 13)   # 13 active lanes
                b.mov32i(2, buf)
                b.shl(3, 1, 2)
                b.iadd(2, 2, reg(3))
                with b.guarded(predicate(0)):
                    b.ld(4, MemRef(base=reg(2)))
                with b.guarded(predicate(0)):
                    b.st(MemRef(base=reg(2)), 4)

            simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                            global_memory=memory, executor=executor)
            counts.append((memory.load_bytes, memory.store_bytes))
        assert counts[0] == counts[1]
        assert counts[0] == (13 * 4, 13 * 4)


class TestOverlappingWideShared:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_stride4_sts64_last_lane_wins(self, fermi, executor):
        """Adjacent lanes' 64-bit word pairs overlap; word order resolves.

        Lane ``i`` stores words (lo=i, hi=1000+i) at byte address ``4*i``.
        A wide store executes word-major — every lane's lo word, then every
        lane's hi word — so at address ``4*(i+1)`` lane ``i``'s hi word
        overwrites lane ``i+1``'s lo word.  Both executors implement exactly
        this order; the values below pin it.
        """
        memory = GlobalMemory(size_bytes=8192)
        out = memory.allocate("out", 4 * 33)

        def body(b):
            b.s2r(1, SpecialRegister.LANEID)
            b.shl(2, 1, 2)               # shared address: laneid * 4
            b.mov(16, reg(1))            # lo word: laneid
            b.iadd(17, 1, 1000)          # hi word: laneid + 1000
            b.sts(MemRef(base=reg(2)), 16, width=64)
            b.bar()
            # Read back the 33 stored words (laneid 0..31 plus the spill).
            b.lds(4, MemRef(base=reg(2)))
            b.mov32i(10, out)
            b.iadd(10, 10, reg(2))
            b.st(MemRef(base=reg(10)), 4)
            with b.guarded(predicate(7)):  # PT: plain store of the spill word
                b.nop()
            b.mov32i(5, 128)
            b.lds(6, MemRef(base=reg(5)))
            b.mov32i(11, out + 128)
            b.st(MemRef(base=reg(11)), 6)

        simulate_kernel(fermi, _kernel(body, shared_bytes=256),
                        BlockGrid(grid_x=1, block_x=32),
                        global_memory=memory, executor=executor)
        words = memory.read_array("out", np.uint32, (33,))
        # Word 0: only lane 0's lo word ever lands there.
        assert words[0] == 0
        # Words 1..32: lane i-1's hi word overwrites lane i's lo word.
        assert np.array_equal(words[1:33],
                              np.arange(1000, 1032, dtype=np.uint32))

    def test_overlapping_lds64_pairs_match_across_executors(self, fermi):
        """64-bit loads at stride 4 read each word twice, identically."""
        outputs = []
        for executor in EXECUTORS:
            memory = GlobalMemory(size_bytes=8192)
            out = memory.allocate("out", 4 * 64)

            def body(b, out=out):
                b.s2r(1, SpecialRegister.LANEID)
                b.shl(2, 1, 2)
                b.imad(3, 1, 3, reg(1))          # 4*laneid: seed value
                b.sts(MemRef(base=reg(2)), 3)
                b.mov32i(4, 128)
                b.sts(MemRef(base=reg(4)), 3)    # seed the spill word too
                b.bar()
                b.lds(16, MemRef(base=reg(2)), width=64)  # overlapping pairs
                b.mov32i(10, out)
                b.shl(11, 1, 3)
                b.iadd(10, 10, reg(11))
                b.st(MemRef(base=reg(10)), 16, width=64)

            simulate_kernel(fermi, _kernel(body, shared_bytes=256),
                            BlockGrid(grid_x=1, block_x=32),
                            global_memory=memory, executor=executor)
            outputs.append(memory.read_array("out", np.uint32, (64,)))
        assert np.array_equal(outputs[0], outputs[1])
        # lo word of lane i == hi word of lane i-1 (they alias).
        assert np.array_equal(outputs[0][2::2], outputs[0][1:-1:2])


class TestPerBlockSharedMemory:
    SHARED_BYTES = 4096

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("flip", (False, True), ids=("ctaid", "one_minus_ctaid"))
    def test_store_past_own_block_raises(self, fermi, executor, flip):
        """A store at ``ctaid.x * shared_bytes`` (or ``(1 - ctaid.x) * ...``).

        Block 1 (or, flipped, block 0) stores one word past its own shared
        memory.  Packed behind each other, block 0's out-of-bounds word would
        be block 1's first word, so the check must use the block's own size.
        """
        def body(b):
            b.s2r(1, SpecialRegister.CTAID_X)
            if flip:
                b.lop_xor(1, 1, 1)
            b.shl(1, 1, 12)                  # * SHARED_BYTES
            b.mov32i(2, 7)
            b.sts(MemRef(base=reg(1)), 2)

        with pytest.raises(SimulationError,
                           match=r"shared-memory store out of bounds at 0x1000"):
            simulate_kernel(fermi, _kernel(body, shared_bytes=self.SHARED_BYTES),
                            BlockGrid(grid_x=2, block_x=32), executor=executor)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_last_word_store_leaves_other_block_zero(self, fermi, executor):
        def body(b):
            b.s2r(1, SpecialRegister.CTAID_X)
            b.isetp(predicate(0), "EQ", 1, 0)
            b.mov32i(2, self.SHARED_BYTES - 4)
            b.mov32i(3, 0xDEADBEEF)
            with b.guarded(predicate(0)):
                b.sts(MemRef(base=reg(2)), 3)

        kernel = _kernel(body, shared_bytes=self.SHARED_BYTES)
        blocks = [build_warps_for_block(block, (block, 0), (32, 1), block) for block in (0, 1)]
        shared = [SharedMemoryArray(self.SHARED_BYTES) for _ in blocks]
        if executor == "vectorized":
            engine = VectorizedEngine(kernel, shared_spec=fermi.shared_memory)
            engine.run_block(blocks[0] + blocks[1], shared)
        else:
            for warps, memory in zip(blocks, shared):
                run_block_reference(kernel, warps, memory)
        assert shared[0].data[-4:].view(np.uint32)[0] == 0xDEADBEEF
        assert not shared[0].data[:-4].any()
        assert not shared[1].data.any()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_each_block_reads_its_own_writes(self, fermi, executor):
        """Three blocks store ``ctaid.x + 1`` at the same address and read it back."""
        memory = GlobalMemory(size_bytes=4096)
        out = memory.allocate("out", 4 * 32 * 3)

        def body(b):
            b.s2r(1, SpecialRegister.CTAID_X)
            b.iadd(2, 1, 1)
            b.mov32i(3, 0)
            b.sts(MemRef(base=reg(3)), 2)
            b.bar()
            b.lds(4, MemRef(base=reg(3)))
            b.shl(5, 1, 7)                   # ctaid.x * 128 bytes
            b.s2r(6, SpecialRegister.LANEID)
            b.iscadd(5, 6, reg(5), 2)        # + laneid * 4
            b.iadd(5, 5, out)
            b.st(MemRef(base=reg(5)), 4)

        simulate_kernel(fermi, _kernel(body, shared_bytes=self.SHARED_BYTES),
                        BlockGrid(grid_x=3, block_x=32),
                        global_memory=memory, executor=executor)
        words = memory.read_array("out", np.uint32, (3, 32))
        assert np.array_equal(words, np.repeat([[1], [2], [3]], 32, axis=1))


class TestPackedSharedMemory:
    """Rows of blocks of different sizes against each row's own array."""

    SIZES = (256, 132, 64)
    BLOCKS = np.array([0, 1, 2, 1, 0], dtype=np.intp)  # the block of each row

    def _memories(self):
        rng = np.random.default_rng(7)
        memories = [SharedMemoryArray(size) for size in self.SIZES]
        for memory in memories:
            memory.data[:] = rng.integers(0, 256, memory.data.size)
        return memories

    def _accesses(self, seed, *, aligned):
        """In-bounds addresses per row, a random mask, wild masked-off lanes."""
        rng = np.random.default_rng(seed)
        limits = np.array(self.SIZES)[self.BLOCKS][:, None] - 4
        addresses = rng.integers(0, limits + 1, (len(self.BLOCKS), 32))
        if aligned:
            addresses &= ~3
        mask = rng.random(addresses.shape) < 0.7
        wild = rng.choice([-4, -1, 1 << 20, 4097], addresses.shape)
        return np.where(mask, addresses, wild), mask

    def _reference_load(self, memories, addresses, mask):
        return np.stack([memories[block].load_words(row, row_mask)
                         for block, row, row_mask in zip(self.BLOCKS, addresses, mask)])

    @pytest.mark.parametrize("aligned", (True, False), ids=("aligned", "unaligned"))
    @pytest.mark.parametrize("seed", range(3))
    def test_loads_match_each_rows_array(self, aligned, seed):
        memories = self._memories()
        packed = PackedSharedMemory(memories, self.BLOCKS)
        addresses, mask = self._accesses(seed, aligned=aligned)
        expected = self._reference_load(memories, addresses, mask)
        assert np.array_equal(packed.load_words(addresses, mask)[mask], expected[mask])
        everywhere = np.where(mask, addresses, 0)
        full = np.ones(mask.shape, dtype=bool)
        assert np.array_equal(packed.load_words(everywhere, True),
                              self._reference_load(memories, everywhere, full))

    def _stored(self, addresses, values, mask):
        """Each block's own array after the rows store one after another."""
        memories = self._memories()
        lanes = np.broadcast_to(mask, addresses.shape)
        for block, row, row_values, row_lanes in zip(self.BLOCKS, addresses, values, lanes):
            memories[block].store_words(row, row_values, row_lanes)
        return memories

    @pytest.mark.parametrize("aligned", (True, False), ids=("aligned", "unaligned"))
    @pytest.mark.parametrize("seed", range(3))
    def test_stores_match_each_rows_array(self, aligned, seed):
        """Rows store in flat C order, so a later row's word wins."""
        addresses, mask = self._accesses(seed, aligned=aligned)
        # Two rows of block 1 store to the same four words.
        addresses[1, :4] = addresses[3, :4] = np.arange(0, 16, 4) + (not aligned)
        mask[1, :4] = mask[3, :4] = True
        values = np.random.default_rng(seed).integers(0, 2**32, addresses.shape,
                                                      dtype=np.uint32)
        everywhere = np.where(mask, addresses, 0)
        for access, lanes in ((addresses, mask), (everywhere, True)):
            memories = self._memories()
            packed = PackedSharedMemory(memories, self.BLOCKS)
            packed.store_words(access, values, lanes)
            packed.writeback()
            for memory, reference in zip(memories, self._stored(access, values, lanes)):
                assert np.array_equal(memory.data, reference.data)

    @pytest.mark.parametrize("verb", ("load", "store"))
    @pytest.mark.parametrize("as_mask", (False, True), ids=("mask", "all_lanes"))
    def test_out_of_bounds_raises_at_first_lane_in_c_order(self, verb, as_mask):
        """Row 1 (block 1, 132 bytes) at lane 9 comes before row 2's lane 3.

        Address 128 is in bounds for block 0 but past block 1's last word,
        and a wild address in a masked-off lane comes earlier still.
        """
        addresses = np.zeros((len(self.BLOCKS), 32), dtype=np.int64)
        mask = np.ones(addresses.shape, dtype=bool)
        addresses[0, 5] = -4
        mask[0, 5] = False
        addresses[1, 9] = 132 - 3
        addresses[2, 3] = 64
        addresses[4, 0] = 252  # block 0's last word: fine
        packed = PackedSharedMemory(self._memories(), self.BLOCKS)
        if as_mask:
            addresses[0, 5] = 0
            mask = True
        access = (packed.load_words if verb == "load" else
                  lambda a, m: packed.store_words(a, np.zeros(a.shape, np.uint32), m))
        with pytest.raises(SimulationError,
                           match=rf"^shared-memory {verb} out of bounds at 0x81$"):
            access(addresses, mask)
        addresses[1, 9] = 128
        with pytest.raises(SimulationError,
                           match=rf"^shared-memory {verb} out of bounds at 0x40$"):
            access(addresses, mask)
        addresses[2, 3] = 60
        access(addresses, mask)
        if not as_mask:
            addresses[0, 5] = -4
            mask[0, 5] = True
            with pytest.raises(SimulationError,
                               match=rf"^shared-memory {verb} out of bounds at -0x4$"):
                access(addresses, mask)


class TestConstantBankReads:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_params_ints_floats_pointers(self, fermi, executor):
        memory = GlobalMemory(size_bytes=8192)
        buf = memory.allocate("buf", 4 * 32)
        seed = np.arange(32, dtype=np.uint32) * 3 + 1
        memory.data[buf:buf + 128] = seed.view(np.uint8)
        out = memory.allocate("out", 4 * 96)

        params = KernelParams()
        params.add_pointer("buf", buf)
        params.add_int("k", 41)
        params.add_float("scale", 2.5)

        def body(b):
            b.s2r(1, SpecialRegister.LANEID)
            b.shl(2, 1, 2)
            # Pointer: load buf[laneid] through the constant bank.
            b.mov(3, ConstRef(0, params.offset_of("buf")))
            b.iadd(3, 3, reg(2))
            b.ld(4, MemRef(base=reg(3)))
            # Int: add k.
            b.iadd(5, 4, ConstRef(0, params.offset_of("k")))
            # Float: laneid * scale.
            b.mov(6, reg(1))
            b.fadd(7, 6, 0.0)  # int bits; the multiply below uses I2F-free path
            b.mov32i(7, 1.0)
            b.fmul(7, 7, ConstRef(0, params.offset_of("scale")))
            b.mov32i(10, out)
            b.iadd(10, 10, reg(2))
            b.st(MemRef(base=reg(10)), 5)
            b.mov32i(11, out + 128)
            b.iadd(11, 11, reg(2))
            b.st(MemRef(base=reg(11)), 7)

        simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                        global_memory=memory, params=params, executor=executor)
        ints = memory.read_array("out", np.uint32, (96,))[:32]
        assert np.array_equal(ints, seed + 41)
        floats = memory.read_array("out", np.float32, (96,))[32:64]
        assert np.allclose(floats, 2.5)

    def test_isetp_against_constant_matches_across_executors(self, fermi):
        results = []
        params_value = 17
        for executor in EXECUTORS:
            memory = GlobalMemory(size_bytes=4096)
            out = memory.allocate("out", 4 * 32)
            params = KernelParams()
            params.add_int("threshold", params_value)

            def body(b, out=out, params=params):
                b.s2r(1, SpecialRegister.LANEID)
                b.mov32i(2, 0)
                b.isetp(predicate(0), "LT", 1,
                        ConstRef(0, params.offset_of("threshold")))
                with b.guarded(predicate(0)):
                    b.mov32i(2, 1)
                _store_lane_result(b, 2, out)

            simulate_kernel(fermi, _kernel(body), BlockGrid(grid_x=1, block_x=32),
                            global_memory=memory, params=params,
                            executor=executor)
            results.append(memory.read_array("out", np.uint32, (32,)))
        assert np.array_equal(results[0], results[1])
        assert int(results[0].sum()) == params_value
