"""Warps at different pcs: the vectorized engine's masked-row rule.

The vectorized engine runs every region over all resident rows and masks the
rows outside the region's group like inactive lanes.  The random program
generator never lets warps drift apart, so this file builds a kernel that
does, on purpose, and holds it to the reference executor:

* a loop whose trip count is uniform within a warp but differs between warps
  and blocks, so warps leave it at different times;
* a branch that is uniform within each warp but differs between warps, and
  whose skipped section reads and writes shared memory at an out-of-bounds
  address in the rows of the warps that skipped it;
* an early ``EXIT`` taken by one warp of each block, followed by a barrier
  the other warps still meet;
* a two-block grid of 80-thread blocks, so each block's last warp has only
  16 active lanes.

Both engines must leave identical registers, predicates, shared and global
memory, and the full simulator must produce identical cycles, stalls and
profile counters, with every warp's :class:`~repro.sim.vectorized.WarpTrace`
queue equal to the decisions the reference run took for that warp.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.arch import get_gpu_spec
from repro.isa import KernelBuilder
from repro.isa.instructions import MemRef, Opcode
from repro.isa.registers import SpecialRegister, predicate, reg
from repro.sim import BlockGrid, GlobalMemory, LaunchConfig, SmSimulator, sm_sim
from repro.sim.memory import SharedMemoryArray
from repro.sim.reference import run_block_reference
from repro.sim.vectorized import VectorizedEngine, WarpTrace
from repro.sim.warp import build_warps_for_block

THREADS = 80  # two full warps and one with 16 active lanes
BLOCKS = 2
SHARED_BYTES = 1024
OUT_WORDS = THREADS * BLOCKS
WILD = 0xFFFFFFF0  # a shared address past every block's end


def _kernel(out_base: int):
    """The drifting-warps kernel; writes two words per thread at ``out_base``."""
    b = KernelBuilder(shared_memory_bytes=SHARED_BYTES, threads_per_block=THREADS)
    b.s2r(1, SpecialRegister.TID_X)
    b.s2r(2, SpecialRegister.CTAID_X)
    b.shr(3, 1, 5)                       # w: warp index within the block
    b.shl(4, 1, 2)                       # own shared word, region A
    b.imad(5, 2, THREADS, reg(1))        # global thread index
    b.shl(5, 5, 2)
    b.iadd(5, 5, out_base)
    b.mov32i(6, 0)
    b.sts(MemRef(base=reg(4)), 1)
    b.bar()
    # Loop w + ctaid + 1 times over a 2-way bank-conflicted read of region A.
    b.iadd(7, 3, reg(2))
    b.iadd(7, 7, 1)
    b.shl(9, 1, 3)
    b.lop_and(9, 9, 511)
    loop = b.label("L_loop")
    b.lds(8, MemRef(base=reg(9)))
    b.iadd(6, 6, reg(8))
    b.iadd(7, 7, -1)
    b.isetp(predicate(0), "GT", 7, 0)
    b.bra(loop, predicate(0))
    # Warps with odd w + ctaid skip a section; in their rows the section's
    # addresses are far out of bounds.
    b.iadd(11, 3, reg(2))
    b.lop_and(11, 11, 1)
    b.isetp(predicate(1), "EQ", 11, 1)
    b.iadd(14, 4, 512)                   # own word of region B
    skip = b.new_label("L_skip")
    with b.guarded(predicate(1)):
        b.mov32i(4, WILD)
        b.mov32i(14, WILD)
    b.bra(skip, predicate(1))
    b.lds(15, MemRef(base=reg(4)))
    b.sts(MemRef(base=reg(14)), 6)
    b.iadd(6, 6, reg(15))
    b.place(skip)
    b.st(MemRef(base=reg(5)), 6)
    # Warp w == ctaid of each block leaves early; the others meet at a barrier.
    b.isetp(predicate(2), "EQ", 3, reg(2))
    with b.guarded(predicate(2)):
        b.exit()
    b.bar()
    b.shl(16, 1, 2)
    b.lds(17, MemRef(base=reg(16), offset=512))
    b.iadd(17, 17, reg(3))
    b.st(MemRef(base=reg(5), offset=4 * OUT_WORDS), 17)
    b.exit()
    return b.build()


def _memory():
    memory = GlobalMemory(size_bytes=1 << 16)
    return memory, memory.allocate("out", 2 * 4 * OUT_WORDS)


def _blocks():
    return [build_warps_for_block(block, (block, 0), (THREADS, 1), block * 3)
            for block in range(BLOCKS)]


def test_kernel_drifts_warps_apart(fermi):
    """The kernel really has a partial warp, an early exit and loop drift."""
    memory, out = _memory()
    blocks = _blocks()
    assert int(blocks[0][-1].active_mask.sum()) == THREADS % 32
    engine = VectorizedEngine(_kernel(out), shared_spec=fermi.shared_memory,
                              global_memory=memory)
    traces = engine.run_block(blocks[0] + blocks[1],
                              [SharedMemoryArray(SHARED_BYTES) for _ in blocks])
    assert len({len(trace.branches) for trace in traces.values()}) > 2
    assert sorted(len(trace.exits) for trace in traces.values()) == [1, 1, 2, 2, 2, 2]
    assert 2 in traces[0].replays


def test_state_matches_reference(fermi):
    """Registers, predicates, shared and global memory and byte counters."""
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
    assert (ref_memory.load_bytes, ref_memory.store_bytes) == (
        vec_memory.load_bytes, vec_memory.store_bytes)
    words = vec_memory.read_array("out", np.uint32, (2, BLOCKS, THREADS))
    assert words[0].any() and words[1].any()


def _recording_reference(monkeypatch) -> dict[int, WarpTrace]:
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


def _recording_vectorized(monkeypatch) -> dict[int, WarpTrace]:
    traces: dict[int, WarpTrace] = {}
    run_block = VectorizedEngine.run_block

    def record(self, warps, shared_memories, **kwargs):
        traces.update(run_block(self, warps, shared_memories, **kwargs))
        return traces

    monkeypatch.setattr(VectorizedEngine, "run_block", record)
    return traces


def _queues(traces: dict[int, WarpTrace]) -> dict[int, tuple]:
    return {warp: tuple(getattr(trace, queue) for queue in WarpTrace.__slots__)
            for warp, trace in traces.items()}


@pytest.mark.parametrize("gpu_name", ["gtx580", "gtx680"])
def test_timing_and_traces_match_reference(gpu_name, monkeypatch):
    gpu = get_gpu_spec(gpu_name)
    results, traces = [], []
    for executor in ("reference", "vectorized"):
        with monkeypatch.context() as patch:
            recorded = (_recording_reference if executor == "reference"
                        else _recording_vectorized)(patch)
            memory, out = _memory()
            simulator = SmSimulator(gpu, _kernel(out), global_memory=memory,
                                    executor=executor)
            results.append(simulator.run(
                LaunchConfig(grid=BlockGrid(grid_x=BLOCKS, block_x=THREADS)),
                collect_profile=True,
            ))
            traces.append(_queues(recorded))
    ref, vec = results
    assert traces[0] == traces[1]
    assert ref.cycles == vec.cycles
    assert ref.stalls.as_dict() == vec.stalls.as_dict()
    assert ref.instruction_histogram == vec.instruction_histogram
    for name in ("issues", "issue_cycles", "smem_replays", "dram_bytes"):
        assert np.array_equal(getattr(ref.counters, name), getattr(vec.counters, name)), name
    for reason in ref.counters.stall_events:
        assert np.array_equal(ref.counters.stall_events[reason],
                              vec.counters.stall_events[reason]), reason
        assert np.array_equal(ref.counters.stall_cycles[reason],
                              vec.counters.stall_cycles[reason]), reason
