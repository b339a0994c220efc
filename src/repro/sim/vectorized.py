"""Vectorized functional execution: whole-grid lock-step, one op per instruction.

The reference executor (:mod:`repro.sim.reference`) steps one warp, one
instruction, one lane at a time.  This engine executes *every resident block*
ahead of the timing loop in one pass: warps at the same pc, whichever block
they belong to, are grouped and advanced lock-step through straight-line
regions (everything up to the next BRA/BAR/EXIT), so each instruction becomes
one NumPy operation over a ``(warps, 32)`` lane matrix.  Guard predicates and
active masks are 2-D lane masks; memory accesses become the masked
gather/scatters of :mod:`repro.sim.memory`.  CTAID is read per row, and each
block keeps its own shared memory (a :class:`~repro.sim.memory.PackedSharedMemory`
segment chosen by ``WarpState.block_id`` and bounds-checked against that
block's size).  Per-instruction operand decoding (`isinstance` dispatch on
every step in the reference executor) happens once: each pc is compiled to a
closure over pre-resolved register indices, immediates and constant-bank
values, cached per engine.

Lock-step batching is only defined for race-free programs.  Within a block,
different warps may not write the same shared/global location between two
barriers.  Across blocks, which run lock-step with each other too, no block
may write a global word that another block reads or writes.  Ordinary CUDA
kernels without grid-wide synchronisation meet both conditions, the
differential fuzz harness generates only such programs, and the registry
differential checks every registry workload against the reference engine.
For race-free programs every warp interleaving produces the same
architectural state, so executing the blocks ahead of the cycle-level
schedule is sound.  The timing loop still needs the *functional decisions*
at the cycles it issues instructions, so the engine records a
:class:`WarpTrace` per warp — branch outcomes, EXIT lane-mask results,
shared-memory bank-conflict replay degrees and DRAM active-lane counts in
dynamic program order — which :class:`repro.sim.sm_sim.SmSimulator` then
replays.  Because per-warp register and predicate trajectories are
interleaving-independent, the recorded values equal what live execution
would have produced and the cycle, stall and profile accounting is
bit-identical to the reference executor (the differential harness asserts
exactly that).
"""

from __future__ import annotations

import numpy as np

from repro.arch.shared_memory import SharedMemorySpec
from repro.errors import ArchitectureError, SimulationError
from repro.isa.assembler import Kernel
from repro.isa.instructions import ConstRef, Immediate, Instruction, Opcode
from repro.isa.registers import Register, SpecialRegister
from repro.sim.memory import GlobalMemory, KernelParams, PackedSharedMemory, SharedMemoryArray
from repro.sim.warp import PREDICATE_COUNT, REGISTER_COUNT, WARP_SIZE, WarpState

#: Opcodes that terminate a straight-line region.
_REGION_ENDERS = frozenset({Opcode.BRA, Opcode.BAR, Opcode.EXIT})

_LANES = np.arange(WARP_SIZE, dtype=np.int64)

_ISETP_OPS = {
    "LT": np.less,
    "LE": np.less_equal,
    "EQ": np.equal,
    "NE": np.not_equal,
    "GE": np.greater_equal,
    "GT": np.greater,
}


class WarpTrace:
    """Functional decisions of one warp, in dynamic program order.

    The timing loop replays these instead of executing functionally: branch
    outcomes at BRA, ``mask.any()`` at EXIT, bank-conflict replay degrees at
    shared-memory accesses, and active-lane counts at global accesses.  The
    loop walks each queue with its own per-warp cursor and raises
    :class:`~repro.errors.SimulationError` if it asks for more decisions than
    were recorded or leaves any unconsumed (DRAM lanes are read, and so
    checked, only when profiling): either means the timing loop and the
    functional pre-pass disagreed about the dynamic instruction stream.
    """

    __slots__ = ("branches", "exits", "replays", "dram_lanes")

    def __init__(self) -> None:
        self.branches: list[bool] = []
        self.exits: list[bool] = []
        self.replays: list[int] = []
        self.dram_lanes: list[int] = []


class _ResidentState:
    """Stacked architectural state of the resident warps: ``(warps, ...)`` arrays.

    Rows may come from different blocks: ``ctaid_x``/``ctaid_y`` hold each
    row's block coordinates and ``block_ids`` its index into the packed
    shared memory.
    """

    __slots__ = ("regs", "preds", "active", "tid_x", "tid_y", "ctaid_x", "ctaid_y",
                 "block_ids", "warp_ids")

    def __init__(self, warps: list[WarpState]) -> None:
        self.regs = np.stack([w.registers for w in warps])  # (W, 64, 32) uint32
        self.preds = np.stack([w.predicates for w in warps])  # (W, 8, 32) bool
        self.active = np.stack([w.active_mask for w in warps])  # (W, 32) bool
        self.tid_x = np.stack([w.lane_tid_x for w in warps])  # (W, 32) int64
        self.tid_y = np.stack([w.lane_tid_y for w in warps])
        ctaid = np.array([w.block_idx for w in warps], dtype=np.int64).astype(np.uint32)
        self.ctaid_x = np.repeat(ctaid[:, :1], WARP_SIZE, axis=1)  # (W, 32) uint32
        self.ctaid_y = np.repeat(ctaid[:, 1:], WARP_SIZE, axis=1)
        self.block_ids = np.array([w.block_id for w in warps], dtype=np.intp)
        self.warp_ids = np.array([w.warp_id for w in warps], dtype=np.int64)

    def read_u32(self, g: np.ndarray, index: int) -> np.ndarray:
        if index == REGISTER_COUNT - 1:
            return np.zeros((g.size, WARP_SIZE), dtype=np.uint32)
        return self.regs[g, index]

    def read_s32(self, g: np.ndarray, index: int) -> np.ndarray:
        # Same cast chain as WarpState.read_s32 (wrap to int32, sign-extend).
        return self.read_u32(g, index).astype(np.int64).astype(np.int32).astype(np.int64)

    def read_f32(self, g: np.ndarray, index: int) -> np.ndarray:
        return self.read_u32(g, index).view(np.float32)

    def write_u32(self, g: np.ndarray, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        if index == REGISTER_COUNT - 1:
            return
        values = np.asarray(values, dtype=np.uint32)
        self.regs[g, index] = np.where(mask, values, self.regs[g, index])

    def write_f32(self, g: np.ndarray, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        self.write_u32(g, index, np.ascontiguousarray(values, dtype=np.float32).view(np.uint32), mask)

    def read_pred(self, g: np.ndarray, index: int, negated: bool) -> np.ndarray:
        values = self.preds[g, index]
        return ~values if negated else values

    def write_pred(self, g: np.ndarray, index: int, values: np.ndarray, mask: np.ndarray) -> None:
        if index == PREDICATE_COUNT - 1:
            return
        self.preds[g, index] = np.where(mask, values, self.preds[g, index])

    def writeback(self, warps: list[WarpState]) -> None:
        """Copy final registers/predicates back into the warp objects."""
        for row, warp in enumerate(warps):
            warp.registers[:] = self.regs[row]
            warp.predicates[:] = self.preds[row]


def _conflict_degrees(
    spec: SharedMemorySpec, addresses: np.ndarray, active: np.ndarray
) -> list[int]:
    """Per-row bank-conflict replay degrees, matching ``conflict_degree``.

    ``addresses``/``active`` are ``(rows, 32)``; inactive lanes do not
    participate, and a row without active lanes reads 1.  Negative active
    addresses raise like ``bank_of`` does.  The access width does not enter:
    ``conflict_degree``'s phase ``p`` of a wide access touches the words
    ``w + p``, the phase-0 distinct words shifted by ``p``, which only
    rotates the per-bank counts, so every phase has the phase-0 maximum.
    """
    if (active & (addresses < 0)).any():
        raise ArchitectureError("shared memory address must be non-negative")
    bank_count = spec.bank_count
    words = np.where(active, addresses // spec.bank_width_bytes, -1)
    words.sort(axis=1)
    # Each distinct active word of a row counts once, in its bank.
    distinct = words >= 0
    distinct[:, 1:] &= words[:, 1:] != words[:, :-1]
    rows = words.shape[0]
    keys = (np.arange(rows)[:, None] * bank_count + words % bank_count)[distinct]
    per_bank = np.bincount(keys, minlength=rows * bank_count).reshape(rows, bank_count)
    return np.maximum(per_bank.max(axis=1), 1).tolist()


class VectorizedEngine:
    """Compiles one kernel's instructions and executes blocks lock-step."""

    def __init__(
        self,
        kernel: Kernel,
        *,
        shared_spec: SharedMemorySpec | None = None,
        global_memory: GlobalMemory | None = None,
        params: KernelParams | None = None,
        grid_dim: tuple[int, int] = (1, 1),
    ) -> None:
        self._kernel = kernel
        self._shared_spec = shared_spec
        self._global_memory = global_memory
        self._params = params
        self._grid_dim = grid_dim
        count = kernel.instruction_count
        self._plans: list = [None] * count  # lazily compiled executors per pc
        self._compiled = [False] * count
        self._region_end: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Block execution.                                                    #
    # ------------------------------------------------------------------ #

    def run_block(
        self,
        warps: list[WarpState],
        shared_memories: list[SharedMemoryArray],
        *,
        max_instructions: int = 1_000_000,
    ) -> dict[int, WarpTrace]:
        """Functionally execute the resident blocks to completion, lock-step.

        ``warps`` are the warps of every resident block; each warp's
        ``block_id`` indexes ``shared_memories``, one array per block.  Warps
        at the same pc advance together whichever block they belong to, and
        a barrier releases once no warp can run, which is when every block's
        unfinished warps have all arrived.

        Returns the per-warp decision traces keyed by ``warp_id``.  Mutates
        ``shared_memories``, the engine's global memory, and the warps' final
        registers/predicates; the warps' scheduling state (pc, finished,
        barrier) is left untouched for the timing loop.
        """
        if self._kernel.instruction_count == 0:
            raise SimulationError("cannot execute an empty kernel")
        instructions = self._kernel.instructions
        count = len(instructions)
        state = _ResidentState(warps)
        shared_memory = PackedSharedMemory(shared_memories)
        traces = [WarpTrace() for _ in warps]
        pc = [w.pc for w in warps]
        finished = [w.finished for w in warps]
        at_barrier = [False] * len(warps)
        executed = [0] * len(warps)

        while True:
            runnable = [i for i in range(len(warps)) if not finished[i] and not at_barrier[i]]
            if not runnable:
                if all(finished):
                    break
                for i in range(len(warps)):
                    at_barrier[i] = False
                continue
            for start in sorted({pc[i] for i in runnable}):
                group = [i for i in runnable if pc[i] == start]
                if start >= count:
                    for i in group:
                        finished[i] = True
                    continue
                end = self._region_span(start)
                g = np.array(group, dtype=np.intp)
                for index in range(start, end):
                    plan = self._plan(index)
                    if plan is not None:
                        plan(state, g, shared_memory, traces)
                for i in group:
                    executed[i] += end - start + 1
                    if executed[i] > max_instructions:
                        raise SimulationError(
                            f"functional execution exceeded {max_instructions} "
                            f"instructions for warp {warps[i].warp_id}; the kernel "
                            f"may not terminate"
                        )
                if end >= count:
                    for i in group:
                        pc[i] = end
                        finished[i] = True
                    continue
                self._handle_control(
                    instructions[end], end, state, group, g, pc, finished, at_barrier, traces
                )

        state.writeback(warps)
        shared_memory.writeback()
        return {warps[i].warp_id: traces[i] for i in range(len(warps))}

    def _region_span(self, start: int) -> int:
        """First control-instruction index at or after ``start`` (cached)."""
        end = self._region_end.get(start)
        if end is None:
            instructions = self._kernel.instructions
            end = start
            while end < len(instructions) and instructions[end].opcode not in _REGION_ENDERS:
                end += 1
            self._region_end[start] = end
        return end

    def _handle_control(
        self,
        instruction: Instruction,
        index: int,
        state: _ResidentState,
        group: list[int],
        g: np.ndarray,
        pc: list[int],
        finished: list[bool],
        at_barrier: list[bool],
        traces: list[WarpTrace],
    ) -> None:
        opcode = instruction.opcode
        if opcode is Opcode.BAR:
            # BAR parks the warp regardless of its guard (matching the timing
            # loop, which never evaluates BAR predicates).
            for i in group:
                at_barrier[i] = True
                pc[i] = index + 1
            return
        if opcode is Opcode.EXIT:
            mask = state.active[g] & state.read_pred(
                g, instruction.predicate.index, instruction.predicate_negated
            )
            any_exit = mask.any(axis=1)
            for row, i in enumerate(group):
                taken = bool(any_exit[row])
                traces[i].exits.append(taken)
                if taken:
                    finished[i] = True
                else:
                    pc[i] = index + 1
            return
        # BRA: warp-uniform (possibly guarded) branch; divergence raises.
        if instruction.predicate.is_true and not instruction.predicate_negated:
            target = self._kernel.branch_targets[index]
            for i in group:
                traces[i].branches.append(True)
                pc[i] = target
            return
        values = state.read_pred(g, instruction.predicate.index, instruction.predicate_negated)
        active = state.active[g]
        for row, i in enumerate(group):
            active_values = values[row][active[row]]
            if active_values.size == 0:
                taken = False
            elif active_values.all():
                taken = True
            elif not active_values.any():
                taken = False
            else:
                raise SimulationError(
                    "divergent branch encountered; the simulator only supports "
                    "warp-uniform branches"
                )
            traces[i].branches.append(taken)
            pc[i] = self._kernel.branch_targets[index] if taken else index + 1

    # ------------------------------------------------------------------ #
    # Instruction compilation (operand plans).                            #
    # ------------------------------------------------------------------ #

    def _plan(self, index: int):
        if not self._compiled[index]:
            self._plans[index] = self._compile(self._kernel.instructions[index])
            self._compiled[index] = True
        return self._plans[index]

    def _read_constant(self, ref: ConstRef) -> int:
        if self._params is None:
            raise SimulationError("kernel reads constants but no parameters were provided")
        if ref.bank != 0:
            raise SimulationError(f"only constant bank 0 is modelled, got bank {ref.bank}")
        return self._params.read_word(ref.offset)

    def _f32_reader(self, operand):
        if isinstance(operand, Register):
            index = operand.index
            return lambda st, g: st.read_f32(g, index)
        if isinstance(operand, Immediate):
            value = np.float32(operand.as_float())
            return lambda st, g: np.full((g.size, WARP_SIZE), value, dtype=np.float32)
        if isinstance(operand, ConstRef):
            value = np.array([self._read_constant(operand)], dtype=np.uint32).view(np.float32)[0]
            return lambda st, g: np.full((g.size, WARP_SIZE), value, dtype=np.float32)
        raise SimulationError(f"operand {operand!r} cannot be read as float")

    def _s32_reader(self, operand):
        if isinstance(operand, Register):
            index = operand.index
            return lambda st, g: st.read_s32(g, index)
        if isinstance(operand, Immediate):
            value = int(operand.as_int())
            return lambda st, g: np.full((g.size, WARP_SIZE), value, dtype=np.int64)
        if isinstance(operand, ConstRef):
            raw = self._read_constant(operand)
            signed = raw - 2**32 if raw >= 2**31 else raw
            return lambda st, g: np.full((g.size, WARP_SIZE), signed, dtype=np.int64)
        raise SimulationError(f"operand {operand!r} cannot be read as integer")

    def _u32_reader(self, operand):
        if isinstance(operand, Register):
            index = operand.index
            return lambda st, g: st.read_u32(g, index)
        if isinstance(operand, Immediate):
            value = operand.as_int() & 0xFFFFFFFF
            return lambda st, g: np.full((g.size, WARP_SIZE), value, dtype=np.uint32)
        if isinstance(operand, ConstRef):
            value = self._read_constant(operand)
            return lambda st, g: np.full((g.size, WARP_SIZE), value, dtype=np.uint32)
        raise SimulationError(f"operand {operand!r} cannot be read as unsigned integer")

    def _guard(self, instruction: Instruction):
        predicate_index = instruction.predicate.index
        negated = instruction.predicate_negated
        return lambda st, g: st.active[g] & st.read_pred(g, predicate_index, negated)

    def _compile(self, instruction: Instruction):
        """Compile one instruction to ``fn(state, g, shared_memory, traces)``."""
        opcode = instruction.opcode
        guard = self._guard(instruction)

        if opcode in (Opcode.BRA, Opcode.BAR, Opcode.EXIT, Opcode.NOP):
            return None

        if opcode in (Opcode.FFMA, Opcode.FADD, Opcode.FMUL):
            readers = [self._f32_reader(op) for op in instruction.sources]
            dest = instruction.dest.index
            if opcode is Opcode.FFMA:
                a, b, c = readers

                def fn(st, g, shared, traces):
                    st.write_f32(g, dest, a(st, g) * b(st, g) + c(st, g), guard(st, g))
            elif opcode is Opcode.FADD:
                a, b = readers

                def fn(st, g, shared, traces):
                    st.write_f32(g, dest, a(st, g) + b(st, g), guard(st, g))
            else:
                a, b = readers

                def fn(st, g, shared, traces):
                    st.write_f32(g, dest, a(st, g) * b(st, g), guard(st, g))
            return fn

        if opcode in (Opcode.IADD, Opcode.IMUL, Opcode.IMAD,
                      Opcode.LOP_AND, Opcode.LOP_OR, Opcode.LOP_XOR):
            readers = [self._s32_reader(op) for op in instruction.sources]
            dest = instruction.dest.index
            if opcode is Opcode.IMAD:
                a, b, c = readers

                def fn(st, g, shared, traces):
                    st.write_u32(
                        g, dest, (a(st, g) * b(st, g) + c(st, g)).astype(np.uint32), guard(st, g)
                    )
                return fn
            a, b = readers
            operation = {
                Opcode.IADD: np.add,
                Opcode.IMUL: np.multiply,
                Opcode.LOP_AND: np.bitwise_and,
                Opcode.LOP_OR: np.bitwise_or,
                Opcode.LOP_XOR: np.bitwise_xor,
            }[opcode]

            def fn(st, g, shared, traces):
                st.write_u32(
                    g, dest, operation(a(st, g), b(st, g)).astype(np.uint32), guard(st, g)
                )
            return fn

        if opcode is Opcode.ISCADD:
            a_op, b_op, shift = instruction.sources
            a = self._s32_reader(a_op)
            b = self._s32_reader(b_op)
            amount = int(shift.as_int()) if isinstance(shift, Immediate) else 0
            dest = instruction.dest.index

            def fn(st, g, shared, traces):
                st.write_u32(
                    g, dest,
                    ((a(st, g) << amount) + b(st, g)).astype(np.uint32), guard(st, g),
                )
            return fn

        if opcode in (Opcode.SHL, Opcode.SHR):
            a = self._u32_reader(instruction.sources[0])
            amount = self._u32_reader(instruction.sources[1])
            dest = instruction.dest.index
            left = opcode is Opcode.SHL

            def fn(st, g, shared, traces):
                value = a(st, g).astype(np.uint64)
                # Shift amounts are unsigned and clamp at 32 (=> result 0),
                # identically for register / immediate / constant sources.
                count = np.minimum(amount(st, g).astype(np.uint64), 32)
                result = (value << count) if left else (value >> count)
                st.write_u32(g, dest, result.astype(np.uint32), guard(st, g))
            return fn

        if opcode in (Opcode.MOV, Opcode.MOV32I):
            source = instruction.sources[0]
            dest = instruction.dest.index
            if isinstance(source, Register):
                index = source.index

                def fn(st, g, shared, traces):
                    st.write_u32(g, dest, st.read_u32(g, index), guard(st, g))
                return fn
            if isinstance(source, Immediate) and isinstance(source.value, float):
                value = np.float32(source.value)

                def fn(st, g, shared, traces):
                    st.write_f32(
                        g, dest,
                        np.full((g.size, WARP_SIZE), value, dtype=np.float32), guard(st, g),
                    )
                return fn
            if isinstance(source, Immediate):
                value = source.as_int() & 0xFFFFFFFF
            elif isinstance(source, ConstRef):
                value = self._read_constant(source)
            else:
                raise SimulationError(f"MOV source {source!r} not supported")

            def fn(st, g, shared, traces):
                st.write_u32(
                    g, dest, np.full((g.size, WARP_SIZE), value, dtype=np.uint32), guard(st, g)
                )
            return fn

        if opcode is Opcode.S2R:
            dest = instruction.dest.index
            special = instruction.special
            reader = self._special_reader(special)

            def fn(st, g, shared, traces):
                st.write_u32(g, dest, reader(st, g), guard(st, g))
            return fn

        if opcode is Opcode.ISETP:
            a = self._s32_reader(instruction.sources[0])
            b = self._s32_reader(instruction.sources[1])
            compare = _ISETP_OPS[instruction.compare_op]
            dest = instruction.dest_predicate.index

            def fn(st, g, shared, traces):
                st.write_pred(g, dest, compare(a(st, g), b(st, g)), guard(st, g))
            return fn

        if opcode in (Opcode.LDS, Opcode.LD, Opcode.STS, Opcode.ST):
            return self._compile_memory(instruction, guard)

        raise SimulationError(f"functional semantics for {opcode.value} are not implemented")

    def _special_reader(self, special: SpecialRegister):
        if special is SpecialRegister.TID_X:
            return lambda st, g: st.tid_x[g].astype(np.uint32)
        if special is SpecialRegister.TID_Y:
            return lambda st, g: st.tid_y[g].astype(np.uint32)
        if special in (SpecialRegister.TID_Z, SpecialRegister.CTAID_Z):
            return lambda st, g: np.zeros((g.size, WARP_SIZE), dtype=np.uint32)
        if special is SpecialRegister.CTAID_X:
            return lambda st, g: st.ctaid_x[g]
        if special is SpecialRegister.CTAID_Y:
            return lambda st, g: st.ctaid_y[g]
        if special is SpecialRegister.LANEID:
            return lambda st, g: np.tile(_LANES.astype(np.uint32), (g.size, 1))
        if special is SpecialRegister.WARPID:
            return lambda st, g: np.broadcast_to(
                st.warp_ids[g].astype(np.uint32)[:, None], (g.size, WARP_SIZE)
            ).copy()
        raise SimulationError(f"special register {special!r} not modelled")

    def _compile_memory(self, instruction: Instruction, guard):
        operand = instruction.memory_operand
        if operand is None:
            raise SimulationError(f"{instruction.mnemonic} has no memory operand")
        base_index = operand.base.index
        offset = operand.offset
        words = instruction.width // 32
        opcode = instruction.opcode
        is_shared = opcode in (Opcode.LDS, Opcode.STS)
        is_load = opcode in (Opcode.LDS, Opcode.LD)
        spec = self._shared_spec if is_shared else None
        global_memory = self._global_memory
        mnemonic = instruction.mnemonic

        if is_load:
            dest = instruction.dest.index
            data_index = None
        else:
            data_registers = [op for op in instruction.sources if isinstance(op, Register)]
            if not data_registers:
                raise SimulationError(f"{mnemonic} has no data register")
            dest = None
            data_index = data_registers[-1].index

        def fn(st, g, shared, traces):
            addresses = st.read_u32(g, base_index).astype(np.int64) + offset
            if spec is not None:
                # Replay degrees use the raw active mask (not the guard),
                # exactly like SmSimulator._shared_memory_replays.
                degrees = _conflict_degrees(spec, addresses, st.active[g])
                for row, i in enumerate(g):
                    traces[i].replays.append(degrees[row])
            mask = guard(st, g)
            if not is_shared:
                if global_memory is None:
                    verb = "loads" if is_load else "stores"
                    raise SimulationError(
                        f"kernel {verb} global memory but none was provided"
                    )
                lanes = mask.sum(axis=1)
                for row, i in enumerate(g):
                    traces[i].dram_lanes.append(int(lanes[row]))
            target = shared if is_shared else global_memory
            # A shared access also names each row's block.
            rows = (st.block_ids[g],) if is_shared else ()
            for word in range(words):
                word_addresses = addresses + 4 * word
                if is_load:
                    values = target.load_words(word_addresses, mask, *rows)
                    st.write_u32(g, dest + word, values, mask)
                else:
                    values = st.read_u32(g, data_index + word)
                    target.store_words(word_addresses, values, mask, *rows)

        return fn
