"""Reference (scalar) functional execution — the differential-testing oracle.

This module is the semantic bedrock of the simulator: one warp at a time, one
instruction at a time, per-lane Python loops for every memory access (via the
``*_reference`` accessors of :class:`~repro.sim.memory.SharedMemoryArray` and
:class:`~repro.sim.memory.GlobalMemory`).  It is deliberately slow and
deliberately simple — every operand is re-dispatched with ``isinstance`` on
every step so the code reads like the ISA manual.

The production path is :mod:`repro.sim.vectorized`, which batches straight-line
regions across all warps of a block.  ``tests/sim/test_differential.py`` and
``tests/sim/test_fuzz_semantics.py`` run both engines over random programs and
every registry workload and assert bit-identical architectural state; any new
opcode lands here first (see ``docs/simulator.md``).

Shift semantics (shared by both engines, pinned by ``tests/sim/test_shifts.py``):
``SHR`` is a *logical* shift on the 32-bit value regardless of whether the
shift amount comes from a register, an immediate or a constant — an earlier
version arithmetically shifted the sign-extended value for non-register
amounts.  Shift amounts are taken as unsigned and clamp at 32: shifting by
32 or more yields zero for both ``SHL`` and ``SHR``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.isa.assembler import Kernel
from repro.isa.instructions import ConstRef, Immediate, Instruction, MemRef, Opcode
from repro.isa.registers import Register, SpecialRegister
from repro.sim.memory import GlobalMemory, KernelParams, SharedMemoryArray
from repro.sim.warp import WARP_SIZE, WarpState


def _shift_amount_u32(values: np.ndarray) -> np.ndarray:
    """Shift amounts as unsigned 32-bit counts clamped to 32 (=> result 0)."""
    return np.minimum(values.astype(np.uint32).astype(np.uint64), 32)


class ReferenceExecutor:
    """Executes instruction semantics for warps of one kernel launch.

    Control flow (BRA/EXIT/BAR) is resolved by the SM simulator (or by
    :func:`run_block_reference`), not here — this class only computes
    register, shared-memory and global-memory effects.
    """

    def __init__(
        self,
        global_memory: GlobalMemory | None,
        params: KernelParams | None,
    ) -> None:
        self._global_memory = global_memory
        self._params = params

    # ------------------------------------------------------------------ #
    # Operand evaluation.                                                 #
    # ------------------------------------------------------------------ #

    def _read_f32(self, warp: WarpState, operand: object) -> np.ndarray:
        if isinstance(operand, Register):
            return warp.read_f32(operand.index)
        if isinstance(operand, Immediate):
            return np.full(WARP_SIZE, np.float32(operand.as_float()), dtype=np.float32)
        if isinstance(operand, ConstRef):
            return np.full(
                WARP_SIZE,
                np.array([self._read_constant(operand)], dtype=np.uint32).view(np.float32)[0],
                dtype=np.float32,
            )
        raise SimulationError(f"operand {operand!r} cannot be read as float")

    def _read_s32(self, warp: WarpState, operand: object) -> np.ndarray:
        if isinstance(operand, Register):
            return warp.read_s32(operand.index)
        if isinstance(operand, Immediate):
            return np.full(WARP_SIZE, int(operand.as_int()), dtype=np.int64)
        if isinstance(operand, ConstRef):
            raw = self._read_constant(operand)
            signed = raw - 2**32 if raw >= 2**31 else raw
            return np.full(WARP_SIZE, signed, dtype=np.int64)
        raise SimulationError(f"operand {operand!r} cannot be read as integer")

    def _read_u32(self, warp: WarpState, operand: object) -> np.ndarray:
        if isinstance(operand, Register):
            return warp.read_u32(operand.index)
        if isinstance(operand, Immediate):
            return np.full(WARP_SIZE, operand.as_int() & 0xFFFFFFFF, dtype=np.uint32)
        if isinstance(operand, ConstRef):
            return np.full(WARP_SIZE, self._read_constant(operand), dtype=np.uint32)
        raise SimulationError(f"operand {operand!r} cannot be read as unsigned integer")

    def _read_constant(self, ref: ConstRef) -> int:
        if self._params is None:
            raise SimulationError("kernel reads constants but no parameters were provided")
        if ref.bank != 0:
            raise SimulationError(f"only constant bank 0 is modelled, got bank {ref.bank}")
        return self._params.read_word(ref.offset)

    def _memory_addresses(self, warp: WarpState, operand: MemRef) -> np.ndarray:
        base = warp.read_u32(operand.base.index).astype(np.int64)
        return base + operand.offset

    # ------------------------------------------------------------------ #
    # Instruction execution.                                              #
    # ------------------------------------------------------------------ #

    def execute(
        self,
        warp: WarpState,
        instruction: Instruction,
        shared_memory: SharedMemoryArray,
    ) -> None:
        """Apply ``instruction``'s architectural effects to ``warp``.

        Control-flow opcodes are no-ops here (handled by the scheduler).
        """
        mask = warp.active_mask & warp.read_predicate(
            instruction.predicate.index, instruction.predicate_negated
        )
        opcode = instruction.opcode

        if opcode in (Opcode.BRA, Opcode.BAR, Opcode.EXIT, Opcode.NOP):
            return

        if opcode is Opcode.FFMA:
            a, b, c = (self._read_f32(warp, op) for op in instruction.sources)
            result = np.float32(a) * np.float32(b) + np.float32(c)
            warp.write_f32(instruction.dest.index, result, mask)
            return
        if opcode is Opcode.FADD:
            a, b = (self._read_f32(warp, op) for op in instruction.sources)
            warp.write_f32(instruction.dest.index, np.float32(a) + np.float32(b), mask)
            return
        if opcode is Opcode.FMUL:
            a, b = (self._read_f32(warp, op) for op in instruction.sources)
            warp.write_f32(instruction.dest.index, np.float32(a) * np.float32(b), mask)
            return

        if opcode is Opcode.IADD:
            a, b = (self._read_s32(warp, op) for op in instruction.sources)
            warp.write_u32(instruction.dest.index, (a + b).astype(np.uint32), mask)
            return
        if opcode is Opcode.IMUL:
            a, b = (self._read_s32(warp, op) for op in instruction.sources)
            warp.write_u32(instruction.dest.index, (a * b).astype(np.uint32), mask)
            return
        if opcode is Opcode.IMAD:
            a, b, c = (self._read_s32(warp, op) for op in instruction.sources)
            warp.write_u32(instruction.dest.index, (a * b + c).astype(np.uint32), mask)
            return
        if opcode is Opcode.ISCADD:
            a, b, shift = instruction.sources
            base = self._read_s32(warp, a)
            addend = self._read_s32(warp, b)
            amount = int(shift.as_int()) if isinstance(shift, Immediate) else 0
            warp.write_u32(instruction.dest.index, ((base << amount) + addend).astype(np.uint32), mask)
            return
        if opcode is Opcode.SHL:
            a = self._read_u32(warp, instruction.sources[0]).astype(np.uint64)
            amount = _shift_amount_u32(self._read_u32(warp, instruction.sources[1]))
            warp.write_u32(instruction.dest.index, (a << amount).astype(np.uint32), mask)
            return
        if opcode is Opcode.SHR:
            a = self._read_u32(warp, instruction.sources[0]).astype(np.uint64)
            amount = _shift_amount_u32(self._read_u32(warp, instruction.sources[1]))
            warp.write_u32(instruction.dest.index, (a >> amount).astype(np.uint32), mask)
            return
        if opcode is Opcode.LOP_AND:
            a, b = (self._read_s32(warp, op) for op in instruction.sources)
            warp.write_u32(instruction.dest.index, (a & b).astype(np.uint32), mask)
            return
        if opcode is Opcode.LOP_OR:
            a, b = (self._read_s32(warp, op) for op in instruction.sources)
            warp.write_u32(instruction.dest.index, (a | b).astype(np.uint32), mask)
            return
        if opcode is Opcode.LOP_XOR:
            a, b = (self._read_s32(warp, op) for op in instruction.sources)
            warp.write_u32(instruction.dest.index, (a ^ b).astype(np.uint32), mask)
            return

        if opcode in (Opcode.MOV, Opcode.MOV32I):
            source = instruction.sources[0]
            if isinstance(source, Register):
                warp.write_u32(instruction.dest.index, warp.read_u32(source.index), mask)
            elif isinstance(source, Immediate) and isinstance(source.value, float):
                warp.write_f32(
                    instruction.dest.index,
                    np.full(WARP_SIZE, np.float32(source.value), dtype=np.float32),
                    mask,
                )
            elif isinstance(source, Immediate):
                warp.write_u32(
                    instruction.dest.index,
                    np.full(WARP_SIZE, source.as_int() & 0xFFFFFFFF, dtype=np.uint32),
                    mask,
                )
            elif isinstance(source, ConstRef):
                warp.write_u32(
                    instruction.dest.index,
                    np.full(WARP_SIZE, self._read_constant(source), dtype=np.uint32),
                    mask,
                )
            else:
                raise SimulationError(f"MOV source {source!r} not supported")
            return

        if opcode is Opcode.S2R:
            warp.write_u32(
                instruction.dest.index, self._special_value(warp, instruction.special), mask
            )
            return

        if opcode is Opcode.ISETP:
            a, b = (self._read_s32(warp, op) for op in instruction.sources)
            comparisons = {
                "LT": a < b,
                "LE": a <= b,
                "EQ": a == b,
                "NE": a != b,
                "GE": a >= b,
                "GT": a > b,
            }
            warp.write_predicate(instruction.dest_predicate.index, comparisons[instruction.compare_op], mask)
            return

        if opcode in (Opcode.LDS, Opcode.LD):
            self._execute_load(warp, instruction, shared_memory, mask)
            return
        if opcode in (Opcode.STS, Opcode.ST):
            self._execute_store(warp, instruction, shared_memory, mask)
            return

        raise SimulationError(f"functional semantics for {opcode.value} are not implemented")

    def _special_value(self, warp: WarpState, special: SpecialRegister) -> np.ndarray:
        values = {
            SpecialRegister.TID_X: warp.lane_tid_x,
            SpecialRegister.TID_Y: warp.lane_tid_y,
            SpecialRegister.TID_Z: np.zeros(WARP_SIZE, dtype=np.int64),
            SpecialRegister.CTAID_X: np.full(WARP_SIZE, warp.block_idx[0], dtype=np.int64),
            SpecialRegister.CTAID_Y: np.full(WARP_SIZE, warp.block_idx[1], dtype=np.int64),
            SpecialRegister.CTAID_Z: np.zeros(WARP_SIZE, dtype=np.int64),
            SpecialRegister.LANEID: np.arange(WARP_SIZE, dtype=np.int64),
            SpecialRegister.WARPID: np.full(WARP_SIZE, warp.warp_id, dtype=np.int64),
        }
        return values[special].astype(np.uint32)

    def _execute_load(
        self,
        warp: WarpState,
        instruction: Instruction,
        shared_memory: SharedMemoryArray,
        mask: np.ndarray,
    ) -> None:
        operand = instruction.memory_operand
        if operand is None:
            raise SimulationError(f"{instruction.mnemonic} has no memory operand")
        addresses = self._memory_addresses(warp, operand)
        words = instruction.width // 32
        for word in range(words):
            word_addresses = addresses + 4 * word
            if instruction.opcode is Opcode.LDS:
                values = shared_memory.load_words_reference(word_addresses, mask)
            else:
                if self._global_memory is None:
                    raise SimulationError("kernel loads global memory but none was provided")
                values = self._global_memory.load_words_reference(word_addresses, mask)
            warp.write_u32(instruction.dest.index + word, values, mask)

    def _execute_store(
        self,
        warp: WarpState,
        instruction: Instruction,
        shared_memory: SharedMemoryArray,
        mask: np.ndarray,
    ) -> None:
        operand = instruction.memory_operand
        if operand is None:
            raise SimulationError(f"{instruction.mnemonic} has no memory operand")
        data_registers = [op for op in instruction.sources if isinstance(op, Register)]
        if not data_registers:
            raise SimulationError(f"{instruction.mnemonic} has no data register")
        source = data_registers[-1]
        addresses = self._memory_addresses(warp, operand)
        words = instruction.width // 32
        for word in range(words):
            values = warp.read_u32(source.index + word)
            word_addresses = addresses + 4 * word
            if instruction.opcode is Opcode.STS:
                shared_memory.store_words_reference(word_addresses, values, mask)
            else:
                if self._global_memory is None:
                    raise SimulationError("kernel stores global memory but none was provided")
                self._global_memory.store_words_reference(word_addresses, values, mask)


def run_block_reference(
    kernel: Kernel,
    warps: list[WarpState],
    shared_memory: SharedMemoryArray,
    *,
    global_memory: GlobalMemory | None = None,
    params: KernelParams | None = None,
    max_instructions: int = 1_000_000,
) -> None:
    """Functionally execute one block to completion with the scalar oracle.

    Warps advance round-robin, one instruction per warp per turn, parking at
    barriers until every unfinished warp of the block arrives (the same
    block-level semantics the timing loop implements).  Any warp interleaving
    yields the same final state for race-free programs — the only programs
    whose lock-step batched execution (:mod:`repro.sim.vectorized`) is defined
    for — so the round-robin order is simply a deterministic choice.

    Mutates ``warps`` (registers, predicates, pc, finished), ``shared_memory``
    and ``global_memory`` in place; the differential harness compares those
    against the vectorized engine's results.
    """
    if kernel.instruction_count == 0:
        raise SimulationError("cannot execute an empty kernel")
    executor = ReferenceExecutor(global_memory, params)
    instructions = kernel.instructions
    executed = {w.warp_id: 0 for w in warps}
    while True:
        runnable = [w for w in warps if not w.finished and not w.at_barrier]
        if not runnable:
            if all(w.finished for w in warps):
                return
            for w in warps:
                w.at_barrier = False
            continue
        for warp in runnable:
            if warp.finished or warp.at_barrier:
                continue
            if warp.pc >= len(instructions):
                warp.finished = True
                continue
            instruction = instructions[warp.pc]
            executed[warp.warp_id] += 1
            if executed[warp.warp_id] > max_instructions:
                raise SimulationError(
                    f"functional execution exceeded {max_instructions} instructions "
                    f"for warp {warp.warp_id}; the kernel may not terminate"
                )
            executor.execute(warp, instruction, shared_memory)
            if instruction.opcode is Opcode.EXIT:
                mask = warp.active_mask & warp.read_predicate(
                    instruction.predicate.index, instruction.predicate_negated
                )
                if mask.any():
                    warp.finished = True
                else:
                    warp.pc += 1
                continue
            if instruction.opcode is Opcode.BAR:
                warp.at_barrier = True
                warp.pc += 1
                continue
            if instruction.opcode is Opcode.BRA:
                if _branch_taken_reference(warp, instruction):
                    warp.pc = kernel.branch_targets[warp.pc]
                else:
                    warp.pc += 1
                continue
            warp.pc += 1


def _branch_taken_reference(warp: WarpState, instruction: Instruction) -> bool:
    """Resolve a (possibly guarded) warp-uniform branch; divergence raises."""
    if instruction.predicate.is_true and not instruction.predicate_negated:
        return True
    values = warp.read_predicate(instruction.predicate.index, instruction.predicate_negated)
    active_values = values[warp.active_mask]
    if active_values.size == 0:
        return False
    if active_values.all():
        return True
    if not active_values.any():
        return False
    raise SimulationError(
        "divergent branch encountered; the simulator only supports warp-uniform branches"
    )
