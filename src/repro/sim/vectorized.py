"""Vectorized functional execution: whole-grid lock-step, one op per instruction.

The reference executor (:mod:`repro.sim.reference`) steps one warp, one
instruction, one lane at a time.  This engine executes *every resident block*
ahead of the timing loop in one pass: warps at the same pc, whichever block
they belong to, form a group that advances lock-step through a straight-line
region (everything up to the next BRA/BAR/EXIT), so each instruction becomes
one NumPy operation over the ``(warps, 32)`` lane matrix of every resident
warp.  The state is register-major: ``regs[r]`` and ``preds[p]`` are each one
contiguous ``(warps, 32)`` block, so an operand is a view and a write lands in
place through ``where=`` a lane mask.  A region runs over all resident rows;
rows outside its group are masked exactly like inactive lanes (the
*masked-row rule*), and an unguarded instruction over fully active warps
writes with no mask at all.  Memory accesses become the masked gather/scatters
of :mod:`repro.sim.memory`.  CTAID is read per row, and each block keeps its
own shared memory (a :class:`~repro.sim.memory.PackedSharedMemory` segment
chosen by ``WarpState.block_id`` and bounds-checked against that block's
size).  Per-instruction operand decoding (`isinstance` dispatch on every step
in the reference executor) happens once per run: each distinct instruction is
compiled, at its first execution, to a closure over the register views,
immediates and constant-bank values it reads, and every pc holding that
instruction object runs the one closure (a plan does not depend on its pc).

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

from collections import deque

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

_RZ = REGISTER_COUNT - 1
_PT = PREDICATE_COUNT - 1

#: Placeholder of an instruction whose plan has not been compiled yet.
_UNCOMPILED = object()

#: An address above every real one: a row without active lanes reads it.
_FAR = 1 << 62

_ISETP_OPS = {
    "LT": np.less,
    "LE": np.less_equal,
    "EQ": np.equal,
    "NE": np.not_equal,
    "GE": np.greater_equal,
    "GT": np.greater,
}

_INTEGER_OPS = {
    Opcode.IADD: np.add,
    Opcode.IMUL: np.multiply,
    Opcode.LOP_AND: np.bitwise_and,
    Opcode.LOP_OR: np.bitwise_or,
    Opcode.LOP_XOR: np.bitwise_xor,
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
    """Register-major architectural state of the resident warps.

    ``regs`` is ``(64, warps, 32)`` uint32 and ``preds`` ``(8, warps, 32)``
    bool, so ``regs[r]`` and ``preds[p]`` are each one contiguous
    ``(warps, 32)`` block.  Plans bind the per-index views below once:
    ``reads[r]`` is what register ``r`` reads (RZ reads ``zeros``),
    ``floats[r]`` its float32 view, and ``writes[r]``/``pred_writes[p]``
    where writes land (RZ's and PT's in sinks nothing reads).
    ``guards[negated][p]`` is ``fn(lanes)``, the lanes of ``lanes`` that a
    ``@P``/``@!P`` guard passes.  PT reads what it holds, so a PT guard is
    ``lanes`` itself only when PT holds True everywhere.  Rows may come from
    different blocks: ``ctaid_x``/``ctaid_y`` hold each row's block
    coordinates and ``block_ids`` its index into the packed shared memory.
    """

    __slots__ = ("regs", "preds", "active", "zeros", "reads", "floats", "writes",
                 "pred_writes", "guards", "tid_x", "tid_y", "ctaid_x", "ctaid_y",
                 "block_ids", "warp_ids")

    def __init__(self, warps: list[WarpState]) -> None:
        self.regs = np.stack([w.registers for w in warps], axis=1)
        self.preds = np.stack([w.predicates for w in warps], axis=1)
        self.active = np.stack([w.active_mask for w in warps])  # (W, 32) bool
        self.zeros = np.zeros(self.active.shape, dtype=np.uint32)
        self.zeros.flags.writeable = False
        self.reads = [*self.regs[:_RZ], self.zeros]
        self.floats = [view.view(np.float32) for view in self.reads]
        self.writes = [*self.regs[:_RZ], np.empty_like(self.zeros)]
        self.pred_writes = [*self.preds[:_PT], np.empty_like(self.active)]
        self.guards = (
            [_lane_guard(values, False) for values in self.preds],
            [_lane_guard(values, True) for values in self.preds],
        )
        if self.preds[_PT].all():
            self.guards[False][_PT] = lambda lanes: lanes
        self.tid_x = np.stack([w.lane_tid_x for w in warps])  # (W, 32) int64
        self.tid_y = np.stack([w.lane_tid_y for w in warps])
        ctaid = np.array([w.block_idx for w in warps], dtype=np.int64).astype(np.uint32)
        self.ctaid_x = np.repeat(ctaid[:, :1], WARP_SIZE, axis=1)  # (W, 32) uint32
        self.ctaid_y = np.repeat(ctaid[:, 1:], WARP_SIZE, axis=1)
        self.block_ids = np.array([w.block_id for w in warps], dtype=np.intp)
        self.warp_ids = np.array([w.warp_id for w in warps], dtype=np.int64)

    def writeback(self, warps: list[WarpState]) -> None:
        """Copy final registers/predicates back into the warp objects."""
        for row, warp in enumerate(warps):
            warp.registers[:] = self.regs[:, row]
            warp.predicates[:] = self.preds[:, row]


def _lane_guard(values: np.ndarray, negated: bool):
    """``fn(lanes)``: the lanes of ``lanes`` (``True`` for all) where ``values`` (negated) holds."""
    if negated:
        # For bools, ``lanes > values`` is ``lanes & ~values``.
        return lambda lanes: ~values if lanes is True else lanes > values
    return lambda lanes: values if lanes is True else lanes & values


class _Region:
    """The group one straight-line region runs, as masks over every resident row.

    ``active`` is the resident active mask with the rows outside the group
    cleared; ``lanes`` is what an unguarded instruction writes under:
    ``True`` when the group is every row and every lane is active, else
    ``active``.  ``rows`` lists the group's rows (``None`` when it is every
    row) and ``queues`` maps each :class:`WarpTrace` queue name to the
    group's queues, in row order.
    """

    __slots__ = ("lanes", "active", "rows", "queues")

    def __init__(self, state: _ResidentState, group: np.ndarray,
                 queues: dict[str, list[list]], full_lanes) -> None:
        if group.all():
            self.lanes = full_lanes
            self.active = state.active
            self.rows = None
            self.queues = queues
        else:
            self.active = self.lanes = state.active & group[:, None]
            self.rows = np.flatnonzero(group).tolist()
            self.queues = {name: [lists[row] for row in self.rows]
                           for name, lists in queues.items()}

    def record(self, queue: str, values: list) -> None:
        """Append each group row's entry of ``values`` (one per resident row) to ``queue``."""
        if self.rows is not None:
            values = [values[row] for row in self.rows]
        # Consume the appends at C speed, one per row.
        deque(map(list.append, self.queues[queue], values), maxlen=0)


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

    Bank width and count are powers of two, so a word is a shift and its
    bank a mask.  An inactive lane repeats its row's lowest active address
    (a repeated word adds no distinct word), so every row sorts whole.  A
    row whose words span fewer than ``bank_count`` words has them all in
    distinct banks; when every row does, every degree is 1.  Otherwise a
    row's degree is its largest count of distinct words sharing a bank.
    """
    if not active.all():
        lowest = np.where(active, addresses, _FAR).min(axis=1, keepdims=True)
        addresses = np.where(active, addresses, lowest)
    words = addresses >> (spec.bank_width_bytes.bit_length() - 1)
    words.sort(axis=1)
    rows = len(words)
    low = words[:, 0]
    if low.min() < 0:
        raise ArchitectureError("shared memory address must be non-negative")
    if (words[:, -1] - low).max() < spec.bank_count:
        return [1] * rows
    distinct = np.empty(words.shape, dtype=bool)
    distinct[:, 0] = True
    np.not_equal(words[:, 1:], words[:, :-1], out=distinct[:, 1:])
    bank_bits = spec.bank_count.bit_length() - 1
    words &= spec.bank_count - 1
    words |= np.arange(rows)[:, None] << bank_bits
    per_bank = np.bincount(words[distinct], minlength=rows << bank_bits)
    return per_bank.reshape(rows, -1).max(axis=1).tolist()


class VectorizedEngine:
    """Compiles one kernel's instructions and executes blocks lock-step."""

    def __init__(
        self,
        kernel: Kernel,
        *,
        shared_spec: SharedMemorySpec | None = None,
        global_memory: GlobalMemory | None = None,
        params: KernelParams | None = None,
    ) -> None:
        self._kernel = kernel
        self._shared_spec = shared_spec
        self._global_memory = global_memory
        self._params = params
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
        shared_memory = PackedSharedMemory(shared_memories, state.block_ids)
        full_lanes = True if state.active.all() else state.active
        # id() -> plan of that instruction object, shared by every pc holding
        # it; the kernel keeps every key's object alive.
        plans: dict[int, object] = {}
        traces = [WarpTrace() for _ in warps]
        queues = {name: [getattr(trace, name) for trace in traces]
                  for name in WarpTrace.__slots__}
        pc = np.array([w.pc for w in warps], dtype=np.int64)
        finished = np.array([w.finished for w in warps], dtype=bool)
        at_barrier = np.zeros(len(warps), dtype=bool)
        executed = np.zeros(len(warps), dtype=np.int64)

        while True:
            runnable = ~(finished | at_barrier)
            if not runnable.any():
                if finished.all():
                    break
                at_barrier[:] = False
                continue
            # ``runnable`` is fixed for the sweep, while pcs move: a group
            # that branches or parks onto a later start joins that start's
            # group in this same sweep.
            for start in sorted(set(pc[runnable].tolist())):
                group = runnable & (pc == start)
                if start >= count:
                    finished |= group
                    continue
                end = self._region_span(start)
                region = _Region(state, group, queues, full_lanes)
                for instruction in instructions[start:end]:
                    plan = plans.get(id(instruction), _UNCOMPILED)
                    if plan is _UNCOMPILED:
                        plan = plans[id(instruction)] = self._compile(
                            instruction, state, shared_memory
                        )
                    if plan is not None:
                        plan(region)
                executed[group] += end - start + 1
                runaway = group & (executed > max_instructions)
                if runaway.any():
                    raise SimulationError(
                        f"functional execution exceeded {max_instructions} "
                        f"instructions for warp {warps[int(runaway.argmax())].warp_id}; "
                        f"the kernel may not terminate"
                    )
                if end >= count:
                    pc[group] = end
                    finished |= group
                    continue
                self._handle_control(
                    instructions[end], end, state, region, group, pc, finished, at_barrier
                )

        state.writeback(warps)
        shared_memory.writeback()
        return {warp.warp_id: trace for warp, trace in zip(warps, traces)}

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
        region: _Region,
        group: np.ndarray,
        pc: np.ndarray,
        finished: np.ndarray,
        at_barrier: np.ndarray,
    ) -> None:
        opcode = instruction.opcode
        if opcode is Opcode.BAR:
            # BAR parks the warp regardless of its guard (matching the timing
            # loop, which never evaluates BAR predicates).
            at_barrier |= group
            pc[group] = index + 1
            return
        if opcode is Opcode.EXIT:
            guard = state.guards[instruction.predicate_negated][instruction.predicate.index]
            any_exit = guard(region.active).any(axis=1)
            region.record("exits", any_exit.tolist())
            finished |= any_exit
            pc[group & ~any_exit] = index + 1
            return
        # BRA: warp-uniform (possibly guarded) branch; divergence raises.
        target = self._kernel.branch_targets[index]
        if instruction.predicate.is_true and not instruction.predicate_negated:
            region.record("branches", [True] * len(group))
            pc[group] = target
            return
        values = state.preds[instruction.predicate.index]
        if instruction.predicate_negated:
            values = ~values
        active = region.active
        # A row without active lanes does not branch.
        taken = (active & values).any(axis=1)
        if (taken & (active > values).any(axis=1)).any():
            raise SimulationError(
                "divergent branch encountered; the simulator only supports "
                "warp-uniform branches"
            )
        region.record("branches", taken.tolist())
        pc[group & taken] = target
        pc[group & ~taken] = index + 1

    # ------------------------------------------------------------------ #
    # Instruction compilation (operand plans).                            #
    # ------------------------------------------------------------------ #

    def _read_constant(self, ref: ConstRef) -> int:
        if self._params is None:
            raise SimulationError("kernel reads constants but no parameters were provided")
        if ref.bank != 0:
            raise SimulationError(f"only constant bank 0 is modelled, got bank {ref.bank}")
        return self._params.read_word(ref.offset)

    def _f32(self, operand, state: _ResidentState) -> np.ndarray:
        """A float32 view of a register, or a 0-d float32 constant."""
        if isinstance(operand, Register):
            return state.floats[operand.index]
        if isinstance(operand, Immediate):
            return np.array(operand.as_float(), dtype=np.float32)
        if isinstance(operand, ConstRef):
            return np.array(self._read_constant(operand), dtype=np.uint32).view(np.float32)
        raise SimulationError(f"operand {operand!r} cannot be read as float")

    def _u32(self, operand, state: _ResidentState, kind: str) -> np.ndarray:
        """A uint32 view of a register, or a 0-d uint32 constant."""
        if isinstance(operand, Register):
            return state.reads[operand.index]
        if isinstance(operand, Immediate):
            return np.array(operand.as_int() & 0xFFFFFFFF, dtype=np.uint32)
        if isinstance(operand, ConstRef):
            return np.array(self._read_constant(operand), dtype=np.uint32)
        raise SimulationError(f"operand {operand!r} cannot be read as {kind}")

    def _s32(self, operand, state: _ResidentState) -> np.ndarray:
        """An int32 view of a register, or a 0-d int64 constant (sign-extended)."""
        if isinstance(operand, Register):
            return state.reads[operand.index].view(np.int32)
        if isinstance(operand, Immediate):
            return np.array(int(operand.as_int()), dtype=np.int64)
        if isinstance(operand, ConstRef):
            raw = self._read_constant(operand)
            return np.array(raw - 2**32 if raw >= 2**31 else raw, dtype=np.int64)
        raise SimulationError(f"operand {operand!r} cannot be read as integer")

    def _compile(self, instruction: Instruction, state: _ResidentState,
                 shared_memory: PackedSharedMemory):
        """Compile one instruction to ``fn(region)`` over ``state``."""
        opcode = instruction.opcode
        if opcode in (Opcode.BRA, Opcode.BAR, Opcode.EXIT, Opcode.NOP):
            return None
        guard = state.guards[instruction.predicate_negated][instruction.predicate.index]

        if opcode in (Opcode.FFMA, Opcode.FADD, Opcode.FMUL):
            sources = [self._f32(op, state) for op in instruction.sources]
            out = state.writes[instruction.dest.index].view(np.float32)
            if opcode is Opcode.FFMA:
                a, b, c = sources

                def fn(region):
                    np.add(a * b, c, out=out, where=guard(region.lanes))
                return fn
            a, b = sources
            operation = np.add if opcode is Opcode.FADD else np.multiply

            def fn(region):
                operation(a, b, out=out, where=guard(region.lanes))
            return fn

        if opcode in (Opcode.IMAD, *_INTEGER_OPS):
            # Two's-complement add, multiply and bitwise ops agree with the
            # reference's sign-extended int64 arithmetic modulo 2**32, so
            # they run on the uint32 registers directly.
            sources = [self._u32(op, state, "integer") for op in instruction.sources]
            out = state.writes[instruction.dest.index]
            if opcode is Opcode.IMAD:
                a, b, c = sources

                def fn(region):
                    np.add(a * b, c, out=out, where=guard(region.lanes))
                return fn
            a, b = sources
            operation = _INTEGER_OPS[opcode]

            def fn(region):
                operation(a, b, out=out, where=guard(region.lanes))
            return fn

        if opcode is Opcode.ISCADD:
            a_op, b_op, shift = instruction.sources
            a = self._s32(a_op, state)
            b = self._s32(b_op, state)
            amount = int(shift.as_int()) if isinstance(shift, Immediate) else 0
            out = state.writes[instruction.dest.index]

            def fn(region):
                value = (a.astype(np.int64) << amount) + b
                np.copyto(out, value.astype(np.uint32), where=guard(region.lanes))
            return fn

        if opcode in (Opcode.SHL, Opcode.SHR):
            a = self._u32(instruction.sources[0], state, "unsigned integer")
            amount = self._u32(instruction.sources[1], state, "unsigned integer")
            out = state.writes[instruction.dest.index]
            left = opcode is Opcode.SHL

            def fn(region):
                value = a.astype(np.uint64)
                # Shift amounts are unsigned and clamp at 32 (=> result 0),
                # identically for register / immediate / constant sources.
                count = np.minimum(amount.astype(np.uint64), 32)
                result = (value << count) if left else (value >> count)
                np.copyto(out, result.astype(np.uint32), where=guard(region.lanes))
            return fn

        if opcode in (Opcode.MOV, Opcode.MOV32I):
            source = instruction.sources[0]
            if isinstance(source, Register):
                value = state.reads[source.index]
            elif isinstance(source, Immediate) and isinstance(source.value, float):
                value = np.array(source.value, dtype=np.float32).view(np.uint32)
            elif isinstance(source, Immediate):
                value = np.array(source.as_int() & 0xFFFFFFFF, dtype=np.uint32)
            elif isinstance(source, ConstRef):
                value = np.array(self._read_constant(source), dtype=np.uint32)
            else:
                raise SimulationError(f"MOV source {source!r} not supported")
            return self._copy_plan(state.writes[instruction.dest.index], value, guard)

        if opcode is Opcode.S2R:
            value = self._special(instruction.special, state)
            return self._copy_plan(state.writes[instruction.dest.index], value, guard)

        if opcode is Opcode.ISETP:
            a = self._s32(instruction.sources[0], state)
            b = self._s32(instruction.sources[1], state)
            compare = _ISETP_OPS[instruction.compare_op]
            out = state.pred_writes[instruction.dest_predicate.index]

            def fn(region):
                compare(a, b, out=out, where=guard(region.lanes))
            return fn

        if opcode in (Opcode.LDS, Opcode.LD, Opcode.STS, Opcode.ST):
            return self._compile_memory(instruction, guard, state, shared_memory)

        raise SimulationError(f"functional semantics for {opcode.value} are not implemented")

    @staticmethod
    def _copy_plan(out: np.ndarray, value: np.ndarray, guard):
        def fn(region):
            np.copyto(out, value, where=guard(region.lanes))
        return fn

    def _special(self, special: SpecialRegister, state: _ResidentState) -> np.ndarray:
        """The ``(warps, 32)`` uint32 value of a special register."""
        if special is SpecialRegister.TID_X:
            return state.tid_x.astype(np.uint32)
        if special is SpecialRegister.TID_Y:
            return state.tid_y.astype(np.uint32)
        if special in (SpecialRegister.TID_Z, SpecialRegister.CTAID_Z):
            return state.zeros
        if special is SpecialRegister.CTAID_X:
            return state.ctaid_x
        if special is SpecialRegister.CTAID_Y:
            return state.ctaid_y
        if special is SpecialRegister.LANEID:
            return np.broadcast_to(np.arange(WARP_SIZE, dtype=np.uint32), state.zeros.shape)
        if special is SpecialRegister.WARPID:
            return np.broadcast_to(state.warp_ids.astype(np.uint32)[:, None], state.zeros.shape)
        raise SimulationError(f"special register {special!r} not modelled")

    def _compile_memory(self, instruction: Instruction, guard, state: _ResidentState,
                        shared_memory: PackedSharedMemory):
        operand = instruction.memory_operand
        if operand is None:
            raise SimulationError(f"{instruction.mnemonic} has no memory operand")
        base = state.reads[operand.base.index]
        offset = operand.offset
        words = instruction.width // 32
        opcode = instruction.opcode
        is_shared = opcode in (Opcode.LDS, Opcode.STS)
        is_load = opcode in (Opcode.LDS, Opcode.LD)
        spec = self._shared_spec if is_shared else None
        global_memory = self._global_memory
        target = shared_memory if is_shared else global_memory

        if is_load:
            registers = [state.writes[instruction.dest.index + word] for word in range(words)]
        else:
            data_registers = [op for op in instruction.sources if isinstance(op, Register)]
            if not data_registers:
                raise SimulationError(f"{instruction.mnemonic} has no data register")
            data_index = data_registers[-1].index
            registers = [state.reads[data_index + word] for word in range(words)]

        def fn(region):
            addresses = np.add(base, offset, dtype=np.int64)
            if spec is not None:
                # Replay degrees use the raw active mask (not the guard),
                # exactly like SmSimulator._shared_memory_replays.
                region.record("replays", _conflict_degrees(spec, addresses, region.active))
            mask = guard(region.lanes)
            if not is_shared:
                if global_memory is None:
                    verb = "loads" if is_load else "stores"
                    raise SimulationError(
                        f"kernel {verb} global memory but none was provided"
                    )
                if mask is True:
                    mask = region.active
                region.record("dram_lanes", np.count_nonzero(mask, axis=1).tolist())
            for word, register in enumerate(registers):
                word_addresses = addresses + 4 * word if word else addresses
                if is_load:
                    np.copyto(register, target.load_words(word_addresses, mask), where=mask)
                else:
                    target.store_words(word_addresses, register, mask)

        return fn
