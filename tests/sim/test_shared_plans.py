"""Pcs that hold one instruction object run one compiled plan.

A builder emits each distinct instruction once, so a kernel holds the same
object at every pc where the instruction repeats, and the vectorized engine
compiles each distinct object once per ``run_block`` call: a plan reads the
call's state and the region it is handed, never its pc.  This file builds a
kernel whose repeats sit in different regions, inside and after a loop that
warps leave at different times, so groups at different pcs run one plan
with different row masks, and holds it to the reference executor.  It also
holds ``MOV32I R11, 1`` and ``MOV32I R11, 1.0``, equal under
``Instruction.__eq__`` but different instructions, which must not share.
"""

from __future__ import annotations

import numpy as np
import pytest

from sim_harness import recording_reference, recording_vectorized, trace_queues

from repro.arch import get_gpu_spec
from repro.isa import KernelBuilder
from repro.isa.instructions import MemRef, Opcode
from repro.isa.registers import SpecialRegister, predicate, reg
from repro.sim import BlockGrid, GlobalMemory, LaunchConfig, SmSimulator
from repro.sim.memory import SharedMemoryArray
from repro.sim.reference import run_block_reference
from repro.sim.vectorized import VectorizedEngine
from repro.sim.warp import build_warps_for_block

THREADS = 80  # two full warps and one with 16 active lanes
BLOCKS = 2
SHARED_BYTES = 1024


def _repeated_body(b: KernelBuilder) -> None:
    """The instructions that repeat: a 2-way bank-conflicted shared read, an
    accumulate and a float update, each the same object wherever emitted."""
    b.lds(8, MemRef(base=reg(9)))
    b.iadd(6, 6, reg(8))
    b.ffma(10, 10, 10, 10)


def _kernel(out_base: int):
    b = KernelBuilder(shared_memory_bytes=SHARED_BYTES, threads_per_block=THREADS)
    b.s2r(1, SpecialRegister.TID_X)
    b.s2r(2, SpecialRegister.CTAID_X)
    b.shr(3, 1, 5)                       # w: warp index within the block
    b.shl(4, 1, 2)
    b.imad(5, 2, THREADS, reg(1))
    b.shl(5, 5, 2)
    b.iadd(5, 5, out_base)
    b.mov32i(6, 0)
    b.mov32i(10, 0.5)
    b.mov32i(11, 1)
    b.iadd(6, 6, reg(11))
    b.sts(MemRef(base=reg(4)), 1)
    b.shl(9, 1, 3)
    b.lop_and(9, 9, 511)
    b.bar()
    # Loop w + ctaid + 1 times, then once more after the loop.
    b.iadd(7, 3, reg(2))
    b.iadd(7, 7, 1)
    loop = b.label("L_loop")
    _repeated_body(b)
    b.iadd(7, 7, -1)
    b.isetp(predicate(0), "GT", 7, 0)
    b.bra(loop, predicate(0))
    _repeated_body(b)
    b.mov32i(11, 1.0)
    b.st(MemRef(base=reg(5)), 6)
    b.st(MemRef(base=reg(5), offset=4 * THREADS * BLOCKS), 10)
    b.st(MemRef(base=reg(5), offset=8 * THREADS * BLOCKS), 11)
    b.exit()
    return b.build()


def _memory():
    memory = GlobalMemory(size_bytes=1 << 16)
    return memory, memory.allocate("out", 3 * 4 * THREADS * BLOCKS)


def _blocks():
    return [build_warps_for_block(block, (block, 0), (THREADS, 1), block * 3)
            for block in range(BLOCKS)]


def test_repeats_share_one_plan(fermi, monkeypatch):
    memory, out = _memory()
    kernel = _kernel(out)
    instructions = kernel.instructions
    lds = [pc for pc, instruction in enumerate(instructions) if instruction.is_shared_load]
    assert len(lds) == 2 and instructions[lds[0]] is instructions[lds[1]]
    assert len({id(instruction) for instruction in instructions}) == len(instructions) - 3
    # Every pc runs; each distinct object below a region's end compiles once.
    ends = (Opcode.BRA, Opcode.BAR, Opcode.EXIT)
    distinct = {id(i) for i in instructions if i.opcode not in ends}

    compiled = []
    compile_ = VectorizedEngine._compile

    def record(self, instruction, state, shared_memory):
        compiled.append(id(instruction))
        return compile_(self, instruction, state, shared_memory)

    monkeypatch.setattr(VectorizedEngine, "_compile", record)
    blocks = _blocks()
    traces = VectorizedEngine(kernel, shared_spec=fermi.shared_memory, global_memory=memory) \
        .run_block(blocks[0] + blocks[1], [SharedMemoryArray(SHARED_BYTES) for _ in blocks])
    assert sorted(compiled) == sorted(distinct)
    # Warps left the loop at different times, and the shared read replayed.
    assert len({len(trace.branches) for trace in traces.values()}) > 2
    assert 2 in traces[0].replays


def test_state_matches_reference(fermi):
    results = []
    for executor in ("reference", "vectorized"):
        memory, out = _memory()
        kernel = _kernel(out)
        blocks = _blocks()
        shared = [SharedMemoryArray(SHARED_BYTES) for _ in blocks]
        if executor == "reference":
            for warps, block_shared in zip(blocks, shared):
                run_block_reference(kernel, warps, block_shared, global_memory=memory)
        else:
            VectorizedEngine(kernel, shared_spec=fermi.shared_memory,
                             global_memory=memory).run_block(blocks[0] + blocks[1], shared)
        results.append((blocks, shared, memory))
    (ref_blocks, ref_shared, ref_memory), (vec_blocks, vec_shared, vec_memory) = results
    for ref_warps, vec_warps in zip(ref_blocks, vec_blocks):
        for ref, vec in zip(ref_warps, vec_warps):
            assert np.array_equal(ref.registers, vec.registers), ref.warp_id
            assert np.array_equal(ref.predicates, vec.predicates), ref.warp_id
    for ref, vec in zip(ref_shared, vec_shared):
        assert np.array_equal(ref.data, vec.data)
    assert np.array_equal(ref_memory.data, vec_memory.data)
    sums, _, ones = vec_memory.read_array("out", np.uint32, (3, BLOCKS, THREADS))
    assert len(np.unique(sums)) > BLOCKS * 3
    assert (ones == np.float32(1.0).view(np.uint32)).all()


@pytest.mark.parametrize("gpu_name", ["gtx580", "gtx680"])
def test_timing_and_traces_match_reference(gpu_name, monkeypatch):
    gpu = get_gpu_spec(gpu_name)
    results, traces = [], []
    for executor in ("reference", "vectorized"):
        with monkeypatch.context() as patch:
            recorded = (recording_reference if executor == "reference"
                        else recording_vectorized)(patch)
            memory, out = _memory()
            simulator = SmSimulator(gpu, _kernel(out), global_memory=memory,
                                    executor=executor)
            results.append(simulator.run(
                LaunchConfig(grid=BlockGrid(grid_x=BLOCKS, block_x=THREADS)),
                collect_profile=True,
            ))
            traces.append(trace_queues(recorded))
    ref, vec = results
    assert traces[0] == traces[1]
    assert ref.cycles == vec.cycles
    assert ref.stalls.as_dict() == vec.stalls.as_dict()
    for name in ("issues", "issue_cycles", "smem_replays", "dram_bytes"):
        assert np.array_equal(getattr(ref.counters, name), getattr(vec.counters, name)), name
