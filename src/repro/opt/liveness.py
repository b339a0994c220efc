"""Liveness and def-use analysis over assembled kernels.

The optimization passes need to know, per instruction, which registers and
predicates are defined and used, and — across the whole kernel — where values
are live.  The analysis works on the resolved instruction stream of a
:class:`~repro.isa.assembler.Kernel`:

* :func:`def_use` classifies one instruction's register/predicate defs and
  uses (wide loads and stores expand to their register pairs/quads, memory
  bases count as uses, guard predicates count as predicate uses);
* :func:`analyse_liveness` runs the classic backward dataflow over the
  control-flow graph implied by the branch-target map and returns per-index
  live-in/live-out sets plus derived statistics (register pressure, live
  ranges); :func:`pressure_and_registers` reads the optimizer report's two
  figures off the same dataflow without building those sets.

Predicated instructions deserve one note: a write under a guard predicate may
not happen, so it does **not** kill the previous value — the analysis treats
predicated defs as non-killing, which keeps the live ranges conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.assembler import Kernel
from repro.isa.instructions import Instruction, Opcode


@dataclass(frozen=True)
class DefUse:
    """Register and predicate defs/uses of one instruction.

    Attributes
    ----------
    reg_defs:
        Indices of general-purpose registers written (RZ excluded, wide loads
        expanded to all written registers).
    reg_uses:
        Indices of general-purpose registers read (memory bases and wide
        stores included).
    pred_defs:
        Indices of predicate registers written (ISETP destinations).
    pred_uses:
        Indices of predicate registers read (guard predicates; PT excluded).
    killing:
        Whether the register defs unconditionally overwrite their targets
        (false for predicated instructions).
    """

    reg_defs: tuple[int, ...]
    reg_uses: tuple[int, ...]
    pred_defs: tuple[int, ...]
    pred_uses: tuple[int, ...]
    killing: bool


def def_use(instruction: Instruction) -> DefUse:
    """Classify the register/predicate defs and uses of ``instruction``.

    The classification is a pure function of the (immutable) instruction, so
    it is memoized on the instance — the fixed-point passes below re-derive
    it for the same instruction stream many times per kernel.
    """
    cached = instruction.__dict__.get("_def_use")
    if cached is not None:
        return cached
    reg_defs = tuple(r.index for r in instruction.registers_written)
    reg_uses = tuple(r.index for r in instruction.registers_read)
    pred_defs: tuple[int, ...] = ()
    if instruction.dest_predicate is not None and not instruction.dest_predicate.is_true:
        pred_defs = (instruction.dest_predicate.index,)
    pred_uses: tuple[int, ...] = ()
    if not instruction.predicate.is_true:
        pred_uses = (instruction.predicate.index,)
    result = DefUse(
        reg_defs=reg_defs,
        reg_uses=reg_uses,
        pred_defs=pred_defs,
        pred_uses=pred_uses,
        killing=instruction.predicate.is_true,
    )
    instruction.__dict__["_def_use"] = result
    return result


def inherit_def_use(renamed: Instruction, original: Instruction, mapping: dict[int, int]) -> None:
    """Memoize on ``renamed`` — ``original`` with its register indices mapped
    through ``mapping`` — ``original``'s def-use mapped the same way, instead
    of classifying it again.

    Exact when every pair or quad behind a wide operand maps onto the pair
    or quad behind the renamed operand, as register reallocation places
    them.  Indices ``mapping`` does not hold keep their value.
    """
    du = def_use(original)
    renamed.__dict__["_def_use"] = DefUse(
        reg_defs=tuple(map(mapping.get, du.reg_defs, du.reg_defs)),
        reg_uses=tuple(map(mapping.get, du.reg_uses, du.reg_uses)),
        pred_defs=du.pred_defs,
        pred_uses=du.pred_uses,
        killing=du.killing,
    )


def successors(kernel: Kernel, index: int) -> tuple[int, ...]:
    """Control-flow successors of the instruction at ``index``.

    EXIT has no successors; an unconditional BRA only its target; a
    predicated BRA both the fall-through and the target.  The index one past
    the last instruction is a legal successor (kernel end).
    """
    instruction = kernel.instructions[index]
    if instruction.opcode is Opcode.EXIT:
        return ()
    if instruction.opcode is Opcode.BRA:
        target = kernel.branch_targets.get(index)
        if target is None:  # pragma: no cover - assembler guarantees resolution
            return (index + 1,)
        if instruction.predicate.is_true and not instruction.predicate_negated:
            return (target,)
        return (index + 1, target)
    return (index + 1,)


@dataclass(frozen=True)
class LivenessInfo:
    """Result of the backward liveness dataflow over one kernel.

    Attributes
    ----------
    live_in / live_out:
        Per-instruction-index sets of live general-purpose register indices.
    def_points / use_points:
        For every register index, the instruction indices that define/use it.
    """

    live_in: tuple[frozenset[int], ...]
    live_out: tuple[frozenset[int], ...]
    def_points: dict[int, tuple[int, ...]]
    use_points: dict[int, tuple[int, ...]]

    @property
    def max_pressure(self) -> int:
        """Maximum number of simultaneously live registers."""
        if not self.live_in:
            return 0
        return max(len(live) for live in self.live_in)

    def pressure_at(self, index: int) -> int:
        """Number of registers live into instruction ``index``."""
        return len(self.live_in[index])

    def live_range(self, register: int) -> tuple[int, int] | None:
        """(first, last) instruction index at which ``register`` is live-in."""
        live_at = [i for i, live in enumerate(self.live_in) if register in live]
        if not live_at:
            return None
        return live_at[0], live_at[-1]

    def registers_used(self) -> tuple[int, ...]:
        """All register indices defined or used anywhere in the kernel."""
        return tuple(sorted(set(self.def_points) | set(self.use_points)))


def _dataflow(kernel: Kernel) -> tuple[list[DefUse], list[int], list[int]]:
    """Backward liveness dataflow: per-index def/use and live-in/out bitsets.

    Bit ``r`` of a live set stands for register index ``r``.
    """
    instructions = kernel.instructions
    count = len(instructions)
    info = [def_use(instruction) for instruction in instructions]

    # Hoisted loop invariants: the CFG and per-instruction def/use sets do
    # not change across fixed-point passes.  For a predicated (non-killing)
    # def the kill set is empty and ``defs & out`` is a subset of ``out``,
    # so new_in reduces to ``uses | out`` — the destination of a predicated
    # def stays allocated because it flows through untouched.  Register
    # indices are bounded (6-bit encoding), so the sets fit in machine-int
    # bitsets and the fixed point runs on bitwise ops instead of set algebra.
    succs = [
        tuple(s for s in successors(kernel, index) if s < count)
        for index in range(count)
    ]
    uses = [0] * count
    masks = [0] * count  # complement of the kill set (all-ones if non-killing)
    for index, du in enumerate(info):
        use_bits = 0
        for register in du.reg_uses:
            use_bits |= 1 << register
        uses[index] = use_bits
        kill_bits = 0
        if du.killing:
            for register in du.reg_defs:
                kill_bits |= 1 << register
        masks[index] = ~kill_bits

    live_in = [0] * count
    live_out = [0] * count
    changed = True
    while changed:
        changed = False
        for index in range(count - 1, -1, -1):
            out = 0
            for successor in succs[index]:
                out |= live_in[successor]
            new_in = uses[index] | (out & masks[index])
            if out != live_out[index] or new_in != live_in[index]:
                live_out[index] = out
                live_in[index] = new_in
                changed = True
    return info, live_in, live_out


def pressure_and_registers(kernel: Kernel) -> tuple[int, int]:
    """``(max_pressure, len(registers_used()))`` of ``kernel``'s liveness.

    The two figures the optimizer reports, read straight off the dataflow's
    bitsets without building :class:`LivenessInfo`'s per-index sets.
    """
    info, live_in, _ = _dataflow(kernel)
    used = 0
    for du in info:
        for register in du.reg_defs + du.reg_uses:
            used |= 1 << register
    return max((bits.bit_count() for bits in live_in), default=0), used.bit_count()


def analyse_liveness(kernel: Kernel) -> LivenessInfo:
    """Backward liveness dataflow over ``kernel``'s control-flow graph."""
    info, live_in, live_out = _dataflow(kernel)

    def_points: dict[int, list[int]] = {}
    use_points: dict[int, list[int]] = {}
    for index, du in enumerate(info):
        for register in du.reg_defs:
            def_points.setdefault(register, []).append(index)
        for register in du.reg_uses:
            use_points.setdefault(register, []).append(index)

    # Live sets change slowly along straight-line code, so the same bitset
    # value recurs at many indices — convert each distinct value only once.
    conversions: dict[int, frozenset[int]] = {}

    def _bits_to_set(bits: int) -> frozenset[int]:
        cached = conversions.get(bits)
        if cached is not None:
            return cached
        remaining = bits
        result = []
        while remaining:
            low = remaining & -remaining
            result.append(low.bit_length() - 1)
            remaining ^= low
        converted = frozenset(result)
        conversions[bits] = converted
        return converted

    return LivenessInfo(
        live_in=tuple(_bits_to_set(bits) for bits in live_in),
        live_out=tuple(_bits_to_set(bits) for bits in live_out),
        def_points={r: tuple(points) for r, points in def_points.items()},
        use_points={r: tuple(points) for r, points in use_points.items()},
    )
