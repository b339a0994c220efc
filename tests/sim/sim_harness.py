"""The simulator tests' **differential harness**.

Test modules import it as ``sim_harness``: a plain module with a name of its
own, not a ``conftest``, so collecting several test directories together
cannot hand them another directory's helpers.  :func:`decode_program` turns
a flat sequence of 32-bit words into a random-but-valid SASS kernel (every
functional opcode, predication, RZ, wide memory ops, loops, barriers), and
:func:`assert_state_differential` runs it through both functional engines —
the scalar :mod:`repro.sim.reference` oracle and the batched
:mod:`repro.sim.vectorized` fast path — asserting bit-identical architectural
state.  ``tests/sim/test_differential.py`` drives it from seeded RNG streams;
``tests/sim/test_fuzz_semantics.py`` drives the same decoder from hypothesis
so failures shrink to a minimal program.  :func:`recording_reference` and
:func:`recording_vectorized` collect every warp's
:class:`~repro.sim.vectorized.WarpTrace` decisions from the reference-mode
timing loop and from the vectorized pre-pass, for :func:`trace_queues` to
compare.

Programs are race-free by construction (the only programs lock-step batching
is defined for): every thread's memory traffic stays inside its own global
and shared cells, the one deliberately overlapping access pattern (stride-4
64-bit shared stores, which overlap *within* a warp) is confined to a
per-warp region, and branch predicates are derived from a block-uniform
counter so control flow never diverges.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.isa import KernelBuilder
from repro.isa.disassembler import format_instruction
from repro.isa.instructions import ConstRef, MemRef, Opcode
from repro.isa.registers import RZ_INDEX, SpecialRegister, predicate, reg
from repro.sim import BlockGrid, GlobalMemory, KernelParams, SmSimulator, simulate_kernel, sm_sim
from repro.sim.memory import SharedMemoryArray
from repro.sim.reference import run_block_reference
from repro.sim.vectorized import VectorizedEngine, WarpTrace
from repro.sim.warp import build_warps_for_block

# --------------------------------------------------------------------- #
# Program decoding: words -> kernel.                                     #
# --------------------------------------------------------------------- #

#: Registers holding per-thread addresses / loop state; the decoded ops
#: only ever write the data registers below, so these stay intact.
_R_TID = 1
_R_LANE = 2
_R_GADDR = 3        # global cell base: buf + tid*16 (4 words per thread)
_R_SADDR = 4        # shared cell base: tid*16
_R_OVERLAP = 5      # overlapping shared region: warp_base + laneid*4
_R_WARPID = 6
_R_LOOP = 20        # block-uniform loop counter
_DATA_REGS = (8, 9, 10, 11, 12, 13, 14, 15)
_WIDE_REGS = (16, 17, 18, 19)   # base of .64/.128 destinations/sources

#: Special registers the generator may read with S2R.
_SPECIALS = (
    SpecialRegister.TID_X,
    SpecialRegister.TID_Y,
    SpecialRegister.CTAID_X,
    SpecialRegister.LANEID,
    SpecialRegister.WARPID,
)

_COMPARE_OPS = ("LT", "LE", "EQ", "NE", "GE", "GT")

#: Bytes of global/shared memory owned by each thread.
_CELL_BYTES = 16


class ProgramSpec:
    """A decoded differential-test program and its launch environment."""

    def __init__(self, kernel, threads: int, buf_base: int, global_size: int,
                 shared_bytes: int, param_value: int, listing: str) -> None:
        self.kernel = kernel
        self.threads = threads
        self.buf_base = buf_base
        self.global_size = global_size
        self.shared_bytes = shared_bytes
        self.param_value = param_value
        self.listing = listing

    def make_environment(self) -> tuple[GlobalMemory, KernelParams]:
        """A fresh, deterministic global-memory + params environment.

        Called once per engine so both runs start from identical state.
        """
        memory = GlobalMemory(size_bytes=self.global_size)
        memory.allocate("buf", self.threads * _CELL_BYTES)
        seed_words = (
            np.arange(self.threads * 4, dtype=np.uint32) * np.uint32(2654435761)
        )
        memory.data[
            self.buf_base : self.buf_base + self.threads * _CELL_BYTES
        ] = seed_words.view(np.uint8)
        # Byte counters must start equal too; seeding wrote through .data
        # directly so they are still zero here.
        params = KernelParams()
        params.add_int("k0", self.param_value)
        params.add_pointer("buf", self.buf_base)
        return memory, params


def decode_program(words: list[int], *, max_ops: int = 24) -> ProgramSpec:
    """Deterministically decode a word stream into a valid random kernel.

    The same decoder serves the seeded differential sweep and the hypothesis
    fuzzer: hypothesis shrinks the word list, which shrinks the program.
    Short or empty word lists decode to short programs (missing words read
    as zero), so shrinking always stays in-language.
    """
    cursor = [0]

    def word() -> int:
        value = words[cursor[0]] if cursor[0] < len(words) else 0
        cursor[0] += 1
        return value & 0xFFFFFFFF

    threads = (32, 64, 96)[word() % 3]
    warp_count = threads // 32
    cell_region = threads * _CELL_BYTES
    overlap_region_bytes = 32 * 4 + 4  # lane stride 4, width 64: +4 spill
    shared_bytes = cell_region + warp_count * overlap_region_bytes
    shared_bytes = (shared_bytes + 127) & ~127
    global_size = 4096
    param_value = word() % 97

    builder = KernelBuilder(
        name="differential",
        shared_memory_bytes=shared_bytes,
        threads_per_block=threads,
    )
    b = builder
    # First allocation of a fresh GlobalMemory lands at the 256-byte
    # alignment boundary (address 0 is kept as null).
    buf_base = GlobalMemory.ALIGNMENT

    # Prologue: addresses and seeded data registers.
    b.s2r(_R_TID, SpecialRegister.TID_X)
    b.s2r(_R_LANE, SpecialRegister.LANEID)
    b.s2r(_R_WARPID, SpecialRegister.WARPID)
    b.mov32i(_R_GADDR, buf_base)
    b.imad(_R_GADDR, _R_TID, _CELL_BYTES, reg(_R_GADDR))
    b.mov32i(_R_SADDR, 0)
    b.imad(_R_SADDR, _R_TID, _CELL_BYTES, reg(_R_SADDR))
    b.mov32i(_R_OVERLAP, cell_region)
    b.imad(_R_OVERLAP, _R_WARPID, overlap_region_bytes, reg(_R_OVERLAP))
    b.imad(_R_OVERLAP, _R_LANE, 4, reg(_R_OVERLAP))
    for position, register in enumerate(_DATA_REGS):
        raw = word()
        if position < 4:
            b.mov32i(register, float((raw % 1024) - 512) / 8.0)
        else:
            b.mov32i(register, raw % 509)
    for register in _WIDE_REGS:
        b.mov32i(register, word() % 251)
    # Seed each thread's shared cell so loads observe data.
    for offset in (0, 4, 8, 12):
        b.sts(MemRef(base=reg(_R_SADDR), offset=offset),
              _DATA_REGS[offset // 4 + 4])
    b.bar()

    op_count = min(word() % (max_ops + 1), max_ops)
    # An optional block-uniform loop around a slice of the body.
    loop_word = word()
    has_loop = op_count >= 2 and loop_word % 2 == 1
    loop_trips = 1 + (loop_word >> 1) % 3
    loop_start = (loop_word >> 3) % max(op_count, 1)
    loop_len = 1 + (loop_word >> 8) % max(op_count - loop_start, 1)
    loop_label = b.new_label("loop")

    data = _DATA_REGS
    wide = _WIDE_REGS

    def src_operand(selector: int):
        """A non-register or register source: imm / const / RZ / data reg."""
        kind = selector % 5
        if kind == 0:
            return (selector >> 3) % 1021
        if kind == 1:
            return float((selector >> 3) % 256) / 4.0
        if kind == 2:
            # k0, the first parameter (the words below BASE_OFFSET are
            # ABI bookkeeping zeros).
            return ConstRef(0, KernelParams.BASE_OFFSET)
        if kind == 3:
            return reg(RZ_INDEX)
        return reg(data[(selector >> 3) % len(data)])

    def emit_op(op_word: int) -> None:
        kind = op_word % 22
        w = op_word >> 5
        d = data[w % len(data)]
        a = data[(w >> 3) % len(data)]
        c = data[(w >> 6) % len(data)]
        off = 4 * ((w >> 9) % 4)
        wide_off = 8 * ((w >> 9) % 2)
        guarded = (op_word >> 27) % 4 == 0 and kind != 21
        guard = predicate((op_word >> 29) % 3)
        negated = (op_word >> 31) % 2 == 1

        def body() -> None:
            if kind == 0:
                b.ffma(d, a, c, data[(w >> 12) % len(data)])
            elif kind == 1:
                b.fadd(d, a, src_operand(w >> 12))
            elif kind == 2:
                b.fmul(d, a, src_operand(w >> 12))
            elif kind == 3:
                b.iadd(d, a, src_operand(w >> 12))
            elif kind == 4:
                b.imul(d, a, src_operand(w >> 12))
            elif kind == 5:
                b.imad(d, a, (w >> 12) % 65, reg(c))
            elif kind == 6:
                b.iscadd(d, a, src_operand(w >> 12), (w >> 12) % 5)
            elif kind == 7:
                # Shift amounts beyond 31 exercise the >=32 clamp.
                if (w >> 12) % 2:
                    b.shl(d, a, (w >> 13) % 40)
                else:
                    b.shl(d, a, reg(c))
            elif kind == 8:
                if (w >> 12) % 2:
                    b.shr(d, a, (w >> 13) % 40)
                else:
                    b.shr(d, a, reg(c))
            elif kind == 9:
                b.lop_and(d, a, src_operand(w >> 12))
            elif kind == 10:
                b.lop_or(d, a, src_operand(w >> 12))
            elif kind == 11:
                b.lop_xor(d, a, src_operand(w >> 12))
            elif kind == 12:
                b.mov(d, src_operand(w >> 12))
            elif kind == 13:
                b.mov32i(d, (w >> 12) % 100003)
            elif kind == 14:
                b.s2r(d, _SPECIALS[(w >> 12) % len(_SPECIALS)])
            elif kind == 15:
                b.isetp(predicate((w >> 12) % 3), _COMPARE_OPS[(w >> 14) % 6],
                        a, src_operand(w >> 17))
            elif kind == 16:
                if (w >> 12) % 2:
                    b.lds(d, MemRef(base=reg(_R_SADDR), offset=off))
                else:
                    b.lds(wide[0], MemRef(base=reg(_R_SADDR), offset=wide_off),
                          width=64)
            elif kind == 17:
                choice = (w >> 12) % 3
                if choice == 0:
                    b.sts(MemRef(base=reg(_R_SADDR), offset=off), a)
                elif choice == 1:
                    b.sts(MemRef(base=reg(_R_SADDR), offset=wide_off), wide[0],
                          width=64)
                else:
                    # Stride-4 64-bit stores: adjacent lanes' word pairs
                    # overlap (within this warp's private region).
                    b.sts(MemRef(base=reg(_R_OVERLAP)), wide[0], width=64)
            elif kind == 18:
                choice = (w >> 12) % 3
                if choice == 0:
                    b.ld(d, MemRef(base=reg(_R_GADDR), offset=off))
                elif choice == 1:
                    b.ld(wide[0], MemRef(base=reg(_R_GADDR), offset=wide_off),
                         width=64)
                else:
                    # The last thread's 128-bit cell ends flush against the
                    # end of the allocation: OOB-adjacent but in bounds.
                    b.ld(wide[0], MemRef(base=reg(_R_GADDR)), width=128)
            elif kind == 19:
                choice = (w >> 12) % 3
                if choice == 0:
                    b.st(MemRef(base=reg(_R_GADDR), offset=off), a)
                elif choice == 1:
                    b.st(MemRef(base=reg(_R_GADDR), offset=wide_off), wide[0],
                         width=64)
                else:
                    b.st(MemRef(base=reg(_R_GADDR)), wide[0], width=128)
            elif kind == 20:
                b.nop()
            else:
                b.bar()

        if guarded:
            with b.guarded(guard, negated):
                body()
        else:
            body()

    op_words = [word() for _ in range(op_count)]
    for index, op_word in enumerate(op_words):
        if has_loop and index == loop_start:
            b.mov32i(_R_LOOP, loop_trips)
            b.place(loop_label)
        emit_op(op_word)
        if has_loop and index == loop_start + loop_len - 1:
            b.iadd(_R_LOOP, _R_LOOP, -1)
            b.isetp(predicate(3), "GT", _R_LOOP, 0)
            b.bra(loop_label, predicate(3))
    if has_loop and loop_start + loop_len > len(op_words):
        b.iadd(_R_LOOP, _R_LOOP, -1)
        b.isetp(predicate(3), "GT", _R_LOOP, 0)
        b.bra(loop_label, predicate(3))
    b.exit()

    kernel = b.build()
    listing = "\n".join(
        f"{index:3d}  {format_instruction(instruction)}"
        for index, instruction in enumerate(kernel.instructions)
    )
    return ProgramSpec(kernel, threads, buf_base, global_size, shared_bytes,
                       param_value, listing)


def program_from_seed(seed: int, *, max_ops: int = 24) -> ProgramSpec:
    """The seeded entry point: one PRNG stream -> one program."""
    import random

    rng = random.Random(seed)
    words = [rng.getrandbits(32) for _ in range(8 + 16 + max_ops + 4)]
    return decode_program(words, max_ops=max_ops)


# --------------------------------------------------------------------- #
# Differential execution.                                                #
# --------------------------------------------------------------------- #


def _run_reference(spec: ProgramSpec):
    memory, params = spec.make_environment()
    warps = build_warps_for_block(0, (0, 0), (spec.threads, 1), 0)
    shared = SharedMemoryArray(spec.shared_bytes)
    # Random programs routinely run float ops over integer bit patterns;
    # NaN/overflow warnings are expected noise, the bit patterns still have
    # to match between engines.
    with np.errstate(all="ignore"):
        run_block_reference(spec.kernel, warps, shared,
                            global_memory=memory, params=params)
    return warps, shared, memory


def _run_vectorized(spec: ProgramSpec):
    memory, params = spec.make_environment()
    warps = build_warps_for_block(0, (0, 0), (spec.threads, 1), 0)
    shared = SharedMemoryArray(spec.shared_bytes)
    engine = VectorizedEngine(spec.kernel, global_memory=memory, params=params)
    with np.errstate(all="ignore"):
        engine.run_block(warps, [shared])
    return warps, shared, memory


def assert_state_differential(spec: ProgramSpec, *, context: str = "") -> None:
    """Run both engines and assert bit-identical architectural state."""
    ref_warps, ref_shared, ref_memory = _run_reference(spec)
    vec_warps, vec_shared, vec_memory = _run_vectorized(spec)

    def fail(what: str) -> None:
        raise AssertionError(
            f"{what} diverged between reference and vectorized executors"
            f"{f' ({context})' if context else ''}\nprogram:\n{spec.listing}"
        )

    for ref, vec in zip(ref_warps, vec_warps):
        if not np.array_equal(ref.registers, vec.registers):
            bad = np.argwhere(ref.registers != vec.registers)
            register, lane = (int(v) for v in bad[0])
            fail(f"warp {ref.warp_id} R{register} lane {lane} "
                 f"({ref.registers[register, lane]:#x} vs "
                 f"{vec.registers[register, lane]:#x})")
        if not np.array_equal(ref.predicates, vec.predicates):
            fail(f"warp {ref.warp_id} predicates")
    if not np.array_equal(ref_shared.data, vec_shared.data):
        fail("shared memory")
    if not np.array_equal(ref_memory.data, vec_memory.data):
        fail("global memory")
    if (ref_memory.load_bytes != vec_memory.load_bytes
            or ref_memory.store_bytes != vec_memory.store_bytes):
        fail(f"global byte counters (loads {ref_memory.load_bytes} vs "
             f"{vec_memory.load_bytes}, stores {ref_memory.store_bytes} vs "
             f"{vec_memory.store_bytes})")


def assert_timing_differential(gpu, spec: ProgramSpec, *,
                               context: str = "") -> None:
    """Full-simulator differential: cycles, stalls and counts must match.

    Runs the cycle-level simulator twice — once executing live through the
    scalar oracle, once replaying the vectorized pre-pass traces — and
    asserts the *timing* observables are identical to the cycle.
    """
    results = []
    for executor in ("reference", "vectorized"):
        memory, params = spec.make_environment()
        with np.errstate(all="ignore"):
            results.append(simulate_kernel(
                gpu, spec.kernel, BlockGrid(grid_x=1, block_x=spec.threads),
                global_memory=memory, params=params, executor=executor,
            ))
    ref, vec = results
    mismatches = []
    if ref.cycles != vec.cycles:
        mismatches.append(f"cycles {ref.cycles} vs {vec.cycles}")
    if ref.warp_instructions != vec.warp_instructions:
        mismatches.append(f"warp_instructions {ref.warp_instructions} "
                          f"vs {vec.warp_instructions}")
    if ref.instruction_histogram != vec.instruction_histogram:
        mismatches.append("instruction histogram")
    if ref.stalls.as_dict() != vec.stalls.as_dict():
        mismatches.append(f"stalls {ref.stalls.as_dict()} "
                          f"vs {vec.stalls.as_dict()}")
    if ref.flops != vec.flops:
        mismatches.append(f"flops {ref.flops} vs {vec.flops}")
    if mismatches:
        raise AssertionError(
            "timing diverged between executors"
            f"{f' ({context})' if context else ''}: "
            + "; ".join(mismatches) + f"\nprogram:\n{spec.listing}"
        )
    assert ref.executor == "reference" and vec.executor == "vectorized"


# --------------------------------------------------------------------- #
# Decision traces.                                                       #
# --------------------------------------------------------------------- #


def recording_reference(monkeypatch) -> dict[int, WarpTrace]:
    """Record each warp's decisions as the reference-mode timing loop takes them."""
    traces: dict[int, WarpTrace] = defaultdict(WarpTrace)
    replays = SmSimulator._shared_memory_replays
    branch_taken = SmSimulator._branch_taken
    active_lanes = sm_sim._active_lanes

    def record_replays(self, warp, instruction):
        degree = replays(self, warp, instruction)
        traces[warp.warp_id].replays.append(degree)
        return degree

    def record_branch(self, warp, instruction, functional):
        taken = branch_taken(self, warp, instruction, functional)
        traces[warp.warp_id].branches.append(taken)
        return taken

    def record_lanes(warp, instruction):
        lanes = active_lanes(warp, instruction)
        if instruction.opcode is Opcode.EXIT:
            traces[warp.warp_id].exits.append(lanes > 0)
        else:
            traces[warp.warp_id].dram_lanes.append(lanes)
        return lanes

    monkeypatch.setattr(SmSimulator, "_shared_memory_replays", record_replays)
    monkeypatch.setattr(SmSimulator, "_branch_taken", record_branch)
    monkeypatch.setattr(sm_sim, "_active_lanes", record_lanes)
    return traces


def recording_vectorized(monkeypatch) -> dict[int, WarpTrace]:
    """Collect the traces of every vectorized pre-pass, keyed by warp id."""
    traces: dict[int, WarpTrace] = {}
    run_block = VectorizedEngine.run_block

    def record(self, warps, shared_memories, **kwargs):
        traces.update(run_block(self, warps, shared_memories, **kwargs))
        return traces

    monkeypatch.setattr(VectorizedEngine, "run_block", record)
    return traces


def trace_queues(traces: dict[int, WarpTrace]) -> dict[int, tuple]:
    """Each warp's decision queues, comparable across engines."""
    return {warp: tuple(getattr(trace, queue) for queue in WarpTrace.__slots__)
            for warp, trace in traces.items()}
