"""Register reallocation: recolor registers to kill FFMA bank conflicts.

Generalizes the hand-crafted allocation of
:func:`repro.sgemm.register_allocation.allocate_conflict_free` (paper Fig. 9)
into a pass that works on *any* assembled kernel: it computes a global
renaming of the general-purpose registers (a bijection, RZ fixed) that
minimizes the operand register-bank conflicts of FFMA-class instructions
(FFMA/FADD/FMUL/IMAD — the opcodes the Kepler operand collector penalizes,
see :meth:`repro.sim.pipelines.CostModel.operand_bank_multiplier`).

Because the renaming is a bijection applied uniformly to every operand, the
kernel's dataflow — and therefore its semantics — is preserved exactly.  Two
structural constraints shape the search space:

* **wide-access runs**: ``LDS.64/128`` and ``LD.64/128`` write register
  pairs/quads and wide stores read them, so those registers must stay
  consecutive and in order.  Overlapping runs are merged into maximal runs
  that move as one unit.
* the 6-bit register fields cap physical indices at R62.

The solver works in two phases, mirroring how the paper reasons about the
problem (banks first, indices second):

1. **bank assignment** — each unit (run or singleton) gets a bank signature;
   a deterministic local search moves one unit at a time to the signature
   that most reduces the weighted conflict count, subject to per-bank
   capacity (16 registers per bank below R63, 15 on odd1 which loses RZ);
2. **index assignment** — units are placed into concrete free indices
   honoring their signatures, most-constrained first (runs, then registers
   with the highest conflict weight), with a lowest-index preference so the
   register footprint stays compact.

The pass validates itself: the reallocated kernel is re-analysed with
:func:`repro.sgemm.conflict_analysis.analyse_ffma_conflicts` and the result
is rejected (original kernel returned) if the renaming somehow increased the
FFMA conflict count — the pipeline therefore never regresses a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

from repro.arch.register_file import (
    _BANK_CODE_BY_RESIDUE,
    RegisterBank,
    register_bank,
)
from repro.errors import RegisterAllocationError
from repro.isa.assembler import Kernel
from repro.isa.instructions import Instruction, MemRef, Opcode, Register
from repro.isa.registers import MAX_GPR_INDEX
from repro.opt.rewrite import replace_instructions
from repro.sgemm.conflict_analysis import ConflictReport, analyse_ffma_conflicts

#: Opcodes whose source operands suffer register-bank conflicts on Kepler.
BANK_SENSITIVE_OPCODES = (Opcode.FFMA, Opcode.FADD, Opcode.FMUL, Opcode.IMAD)


@dataclass(frozen=True)
class ReallocationResult:
    """Outcome of one register-reallocation run.

    Attributes
    ----------
    kernel:
        The reallocated kernel (the input kernel if reallocation could not
        improve it).
    mapping:
        Old register index → new register index for every renamed register.
    before / after:
        FFMA conflict reports of the input and output kernels.
    applied:
        Whether the renaming was applied (False when it would not improve).
    """

    kernel: Kernel
    mapping: dict[int, int]
    before: ConflictReport
    after: ConflictReport

    applied: bool = True

    @property
    def conflicts_removed(self) -> int:
        """Number of conflicted FFMAs fixed by the renaming."""
        return (self.before.two_way + self.before.three_way) - (
            self.after.two_way + self.after.three_way
        )


# --------------------------------------------------------------------- #
# Kernel scanning: units, triples.                                      #
# --------------------------------------------------------------------- #


def _wide_accesses(instructions: tuple[Instruction, ...]) -> list[tuple[int, int]]:
    """(base register, word count) of every wide load/store in the stream."""
    accesses: list[tuple[int, int]] = []
    for instruction in instructions:
        words = instruction.width // 32
        if words <= 1:
            continue
        if instruction.opcode in (Opcode.LDS, Opcode.LD):
            if instruction.dest is not None and not instruction.dest.is_zero:
                accesses.append((instruction.dest.index, words))
        elif instruction.opcode in (Opcode.STS, Opcode.ST):
            for operand in instruction.sources:
                if isinstance(operand, Register) and not operand.is_zero:
                    accesses.append((operand.index, words))
    return accesses


def _wide_runs(instructions: tuple[Instruction, ...]) -> list[tuple[int, ...]]:
    """Maximal runs of registers that wide accesses force to stay consecutive."""
    intervals = [(base, base + words - 1) for base, words in _wide_accesses(instructions)]
    if not intervals:
        return []
    # Merge *overlapping* intervals (adjacent ones stay independent units).
    intervals.sort()
    merged: list[list[int]] = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(range(lo, hi + 1)) for lo, hi in merged]


def _allowed_residues(run: tuple[int, ...], accesses: list[tuple[int, int]]) -> tuple[int, ...]:
    """Start residues (mod 8) keeping every wide access in ``run`` aligned.

    Hardware requires an LDS.64/128 base register aligned to the access
    width (see :func:`repro.isa.validation.validate_kernel`), so a run may
    only start at indices where each access base lands on a multiple of its
    word count.  An unsatisfiable constraint set (overlapping accesses with
    incompatible phases — necessarily unaligned in the input kernel too)
    falls back to unconstrained.
    """
    residues = []
    for residue in range(8):
        ok = True
        for base, words in accesses:
            if base in run:
                position = run.index(base)
                if (residue + position) % words != 0:
                    ok = False
                    break
        if ok:
            residues.append(residue)
    return tuple(residues) if residues else tuple(range(8))


def _used_registers(instructions: tuple[Instruction, ...]) -> set[int]:
    """Every general-purpose register index the kernel touches."""
    used: set[int] = set()
    for instruction in instructions:
        for register in instruction.registers_written + instruction.registers_read:
            if not register.is_zero:
                used.add(register.index)
    return used


def _conflict_tuples(
    instructions: tuple[Instruction, ...],
) -> dict[tuple[int, ...], int]:
    """Distinct-source register tuples of bank-sensitive instructions → weight."""
    tuples: dict[tuple[int, ...], int] = {}
    for instruction in instructions:
        if instruction.opcode not in BANK_SENSITIVE_OPCODES:
            continue
        distinct = tuple(sorted(set(instruction.source_register_indices)))
        if len(distinct) < 2:
            continue
        tuples[distinct] = tuples.get(distinct, 0) + 1
    return tuples


# --------------------------------------------------------------------- #
# Phase 1: bank-signature assignment.                                   #
# --------------------------------------------------------------------- #

_ALL_BANKS = tuple(RegisterBank)


def _bank_capacities(max_register: int) -> dict[RegisterBank, int]:
    """Number of physical indices available per bank in [0, max_register]."""
    capacities = {bank: 0 for bank in _ALL_BANKS}
    for index in range(max_register + 1):
        capacities[register_bank(index)] += 1
    return capacities


@dataclass
class _Unit:
    """One relocatable unit: a singleton register or a consecutive run."""

    registers: tuple[int, ...]
    #: Signature: offset mod 8 of the unit's first register, which fixes the
    #: bank of every member.  Singletons use their bank's canonical offset.
    offset: int
    weight: int = 0
    #: Start residues (mod 8) the unit may be placed at; runs carrying wide
    #: accesses restrict these to alignment-preserving residues.
    allowed_offsets: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)

    @property
    def is_run(self) -> bool:
        return len(self.registers) > 1

    def __post_init__(self) -> None:
        self._position = {reg: i for i, reg in enumerate(self.registers)}

    def bank_of(self, register: int, offset: int | None = None) -> RegisterBank:
        """Bank of ``register`` when the unit sits at ``offset`` (mod 8)."""
        base = self.offset if offset is None else offset
        return register_bank((base + self._position[register]) % 8)


class _BankSolver:
    """Deterministic local search over unit bank signatures."""

    def __init__(
        self,
        units: list[_Unit],
        tuples: dict[tuple[int, ...], int],
        capacities: dict[RegisterBank, int],
    ) -> None:
        self._units = units
        self._tuples = tuples
        self._capacities = capacities
        self._unit_of: dict[int, _Unit] = {}
        for unit in units:
            for register in unit.registers:
                self._unit_of[register] = unit
        self._tuples_of: dict[int, list[tuple[int, ...]]] = {}
        for regs in tuples:
            for register in regs:
                self._tuples_of.setdefault(register, []).append(regs)
        # Static per-tuple membership: (unit, position-in-unit) per register,
        # and the de-duplicated tuple list around each unit.  The penalty
        # loops below run ~100k times during the local search; resolving
        # unit/position once keeps them to integer arithmetic.
        self._members: dict[tuple[int, ...], list[tuple[_Unit, int]]] = {
            regs: [(self._unit_of[r], self._unit_of[r]._position[r]) for r in regs]
            for regs in tuples
        }
        self._around: dict[int, list[tuple[tuple[int, ...], int, list[tuple[_Unit, int]]]]] = {}
        for unit in units:
            seen: set[tuple[int, ...]] = set()
            entries = []
            for register in unit.registers:
                for regs in self._tuples_of.get(register, ()):
                    if regs in seen:
                        continue
                    seen.add(regs)
                    entries.append((regs, tuples[regs], self._members[regs]))
            self._around[id(unit)] = entries

    def _penalty_around(self, unit: _Unit, offset: int | None = None) -> int:
        """Weighted penalty of all tuples touching ``unit`` (at ``offset``)."""
        base = unit.offset if offset is None else offset
        codes = _BANK_CODE_BY_RESIDUE
        total = 0
        for _, weight, members in self._around[id(unit)]:
            counts = [0, 0, 0, 0]
            for member, position in members:
                member_base = base if member is unit else member.offset
                counts[codes[(member_base + position) % 8]] += 1
            worst = max(counts)
            if worst > 1:
                total += (worst - 1) * weight
        return total

    def total_penalty(self) -> int:
        codes = _BANK_CODE_BY_RESIDUE
        total = 0
        for regs, weight in self._tuples.items():
            counts = [0, 0, 0, 0]
            for member, position in self._members[regs]:
                counts[codes[(member.offset + position) % 8]] += 1
            worst = max(counts)
            if worst > 1:
                total += (worst - 1) * weight
        return total

    def _demand(self) -> dict[RegisterBank, int]:
        """Per-bank demand of the *constrained* units only.

        Weight-0 singletons (bookkeeping registers that never feed a
        bank-sensitive instruction) are flexible: phase 2 places them in
        whatever slots remain, so they do not consume capacity here.  Runs
        always count — their contiguity pins them to concrete banks.
        """
        demand = {bank: 0 for bank in _ALL_BANKS}
        for unit in self._units:
            if not unit.is_run and unit.weight == 0:
                continue
            for register in unit.registers:
                demand[unit.bank_of(register)] += 1
        return demand

    def _fits(self, unit: _Unit, offset: int) -> bool:
        """Whether moving ``unit`` to ``offset`` keeps every bank in capacity."""
        demand = self._demand()
        for register in unit.registers:
            demand[unit.bank_of(register)] -= 1
        for position in range(len(unit.registers)):
            demand[register_bank((offset + position) % 8)] += 1
        return all(demand[bank] <= self._capacities[bank] for bank in _ALL_BANKS)

    def _swap_fits(self, first: _Unit, second: _Unit) -> bool:
        """Capacity check for a signature swap (matters when one side is
        flexible — a weight-0 singleton — and thus absent from demand)."""
        first.offset, second.offset = second.offset, first.offset
        demand = self._demand()
        fits = all(demand[bank] <= self._capacities[bank] for bank in _ALL_BANKS)
        first.offset, second.offset = second.offset, first.offset
        return fits

    def _swap_gain(self, first: _Unit, second: _Unit) -> int:
        """Penalty reduction from exchanging the signatures of two units."""
        before = self._penalty_around(first) + self._penalty_around_excluding(second, first)
        first.offset, second.offset = second.offset, first.offset
        after = self._penalty_around(first) + self._penalty_around_excluding(second, first)
        first.offset, second.offset = second.offset, first.offset
        return before - after

    def _penalty_around_excluding(self, unit: _Unit, excluded: _Unit) -> int:
        """Like :meth:`_penalty_around` but skipping tuples already counted."""
        excluded_tuples: set[tuple[int, ...]] = set()
        for register in excluded.registers:
            excluded_tuples.update(self._tuples_of.get(register, ()))
        codes = _BANK_CODE_BY_RESIDUE
        total = 0
        for regs, weight, members in self._around[id(unit)]:
            if regs in excluded_tuples:
                continue
            counts = [0, 0, 0, 0]
            for member, position in members:
                counts[codes[(member.offset + position) % 8]] += 1
            worst = max(counts)
            if worst > 1:
                total += (worst - 1) * weight
        return total

    def _partners_of(self, unit: _Unit) -> list[_Unit]:
        """Singleton units sharing a conflict tuple with ``unit`` (weight-desc)."""
        partners: dict[int, _Unit] = {}
        for register in unit.registers:
            for regs in self._tuples_of.get(register, ()):
                for other_register in regs:
                    other = self._unit_of[other_register]
                    if other is not unit and not other.is_run:
                        partners[id(other)] = other
        return sorted(partners.values(), key=lambda u: (-u.weight, u.registers))

    def _composite_gain(self, unit: _Unit, offset: int) -> tuple[int, list[tuple[_Unit, int]]]:
        """Gain from moving ``unit`` to ``offset`` with partner adaptation.

        Moving a run often trades one conflict for another *unless* the
        singletons it shares tuples with (e.g. FFMA accumulators) re-pick
        their banks too.  This evaluates the run move together with a greedy
        re-pick of every singleton partner, which escapes the plateaus a
        one-unit-at-a-time search cannot cross.
        """
        before = self.total_penalty()
        saved = [(unit, unit.offset)] + [(p, p.offset) for p in self._partners_of(unit)]
        plan: list[tuple[_Unit, int]] = []
        if not self._fits(unit, offset):
            return 0, []
        unit.offset = offset
        plan.append((unit, offset))
        for partner in self._partners_of(unit):
            best_offset = partner.offset
            best_penalty = self._penalty_around(partner)
            for candidate in (0, 1, 4, 5):
                if candidate == partner.offset:
                    continue
                penalty = self._penalty_around(partner, candidate)
                if penalty < best_penalty and self._fits(partner, candidate):
                    best_penalty = penalty
                    best_offset = candidate
            if best_offset != partner.offset:
                partner.offset = best_offset
                plan.append((partner, best_offset))
        gain = before - self.total_penalty()
        for moved, original in saved:
            moved.offset = original
        return gain, plan

    def solve(self, max_moves: int = 256) -> None:
        """Greedy best-improvement moves until a fixed point (or move cap).

        Three move kinds, tried in order of cost: re-signing one unit
        (subject to bank capacity); swapping the signatures of two
        equal-length units (demand-invariant, escapes capacity binds); and a
        composite run move with greedy partner re-picks (escapes plateaus
        where a run move alone only trades conflicts).  Every applied move
        strictly reduces the weighted conflict penalty, so the search
        terminates.
        """
        movable = [unit for unit in self._units if any(r in self._tuples_of for r in unit.registers)]
        swappable = [unit for unit in self._units]
        for _ in range(max_moves):
            best_gain = 0
            best_move: tuple[_Unit, int] | None = None
            for unit in movable:
                current = self._penalty_around(unit)
                if current == 0:
                    continue
                # Runs sweep their alignment-legal signatures; singletons only
                # need one canonical offset per bank (0/1/4/5).
                offsets = unit.allowed_offsets if unit.is_run else (0, 1, 4, 5)
                for offset in offsets:
                    if offset == unit.offset:
                        continue
                    gain = current - self._penalty_around(unit, offset)
                    if gain > best_gain and self._fits(unit, offset):
                        best_gain = gain
                        best_move = (unit, offset)
            if best_move is not None:
                unit, offset = best_move
                unit.offset = offset
                continue

            best_swap: tuple[_Unit, _Unit] | None = None
            for unit in movable:
                if self._penalty_around(unit) == 0:
                    continue
                for other in swappable:
                    if other is unit or len(other.registers) != len(unit.registers):
                        continue
                    if other.offset == unit.offset:
                        continue
                    if other.offset not in unit.allowed_offsets:
                        continue
                    if unit.offset not in other.allowed_offsets:
                        continue
                    gain = self._swap_gain(unit, other)
                    if gain > best_gain and self._swap_fits(unit, other):
                        best_gain = gain
                        best_swap = (unit, other)
            if best_swap is not None:
                first, second = best_swap
                first.offset, second.offset = second.offset, first.offset
                continue

            best_plan: list[tuple[_Unit, int]] | None = None
            for unit in movable:
                if not unit.is_run or self._penalty_around(unit) == 0:
                    continue
                for offset in unit.allowed_offsets:
                    if offset == unit.offset:
                        continue
                    gain, plan = self._composite_gain(unit, offset)
                    if gain > best_gain:
                        best_gain = gain
                        best_plan = plan
            if best_plan is None:
                return
            for unit, offset in best_plan:
                unit.offset = offset


# --------------------------------------------------------------------- #
# Phase 2: concrete index assignment.                                   #
# --------------------------------------------------------------------- #


def _assign_indices(
    units: list[_Unit],
    max_register: int,
) -> dict[int, int]:
    """Place every unit at concrete indices honoring its bank signature."""
    free = set(range(max_register + 1))
    mapping: dict[int, int] = {}

    def place_run(unit: _Unit) -> None:
        length = len(unit.registers)
        # Prefer starts matching the chosen signature, then any other
        # alignment-legal residue.  Alignment-violating starts are never
        # used: emitting a misaligned wide access would trade a soft
        # performance property for a hardware-invalid kernel, so running out
        # of legal windows aborts the reallocation instead (the caller then
        # keeps the original kernel).
        all_starts = list(range(max_register - length + 2))
        starts = [s for s in all_starts if s % 8 == unit.offset % 8]
        starts += [
            s
            for s in all_starts
            if s % 8 != unit.offset % 8 and s % 8 in unit.allowed_offsets
        ]
        for start in starts:
            window = range(start, start + length)
            if all(index in free for index in window):
                for register, index in zip(unit.registers, window):
                    mapping[register] = index
                    free.discard(index)
                return
        raise RegisterAllocationError(
            f"no alignment-preserving window of {length} free registers for a wide-access run"
        )

    def place_singleton(unit: _Unit) -> None:
        register = unit.registers[0]
        wanted = register_bank(unit.offset % 8)
        candidates = [i for i in sorted(free) if register_bank(i) == wanted]
        if not candidates:
            candidates = sorted(free)
        if not candidates:
            raise RegisterAllocationError("register file exhausted during reallocation")
        mapping[register] = candidates[0]
        free.discard(candidates[0])

    runs = sorted((u for u in units if u.is_run), key=lambda u: (-len(u.registers), u.registers))
    singles = sorted(
        (u for u in units if not u.is_run), key=lambda u: (-u.weight, u.registers)
    )
    for unit in runs:
        place_run(unit)
    for unit in singles:
        place_singleton(unit)
    return mapping


# --------------------------------------------------------------------- #
# Instruction rewriting.                                                #
# --------------------------------------------------------------------- #


def _rename_register(register: Register, mapping: dict[int, int]) -> Register:
    if register.is_zero:
        return register
    new_index = mapping.get(register.index, register.index)
    if new_index == register.index:
        return register
    return Register(new_index)


def rename_registers(instruction: Instruction, mapping: dict[int, int]) -> Instruction:
    """``instruction`` with every register operand renamed through ``mapping``.

    Returns ``instruction`` itself when no operand actually changes — the
    identity mapping is common and ``dataclasses.replace`` is not free.
    """
    changed = False
    new_sources = []
    for operand in instruction.sources:
        if isinstance(operand, Register):
            renamed = _rename_register(operand, mapping)
            changed = changed or renamed is not operand
            new_sources.append(renamed)
        elif isinstance(operand, MemRef):
            base = _rename_register(operand.base, mapping)
            if base is operand.base:
                new_sources.append(operand)
            else:
                changed = True
                new_sources.append(MemRef(base=base, offset=operand.offset))
        else:
            new_sources.append(operand)
    dest = instruction.dest
    if dest is not None:
        dest = _rename_register(dest, mapping)
        changed = changed or dest is not instruction.dest
    if not changed:
        return instruction
    return dc_replace(instruction, dest=dest, sources=tuple(new_sources))


# --------------------------------------------------------------------- #
# The pass.                                                             #
# --------------------------------------------------------------------- #


def reallocate_registers(
    kernel: Kernel,
    *,
    max_register: int = MAX_GPR_INDEX,
    max_moves: int = 256,
) -> ReallocationResult:
    """Compute and apply a bank-conflict-minimizing register renaming.

    Parameters
    ----------
    kernel:
        Any assembled kernel.
    max_register:
        Highest physical index the renaming may use (R62 by default — the
        6-bit encoding limit).
    max_moves:
        Cap on local-search moves in the bank-assignment phase.

    Returns
    -------
    ReallocationResult
        The (possibly unchanged) kernel plus before/after conflict reports.
        The renaming is only applied when it does not increase the FFMA
        conflict count, so the pass never regresses a kernel.
    """
    before = analyse_ffma_conflicts(kernel)
    used = _used_registers(kernel.instructions)
    if not used:
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)
    if max(used) > max_register:
        raise RegisterAllocationError(
            f"kernel uses R{max(used)}, beyond the requested max register R{max_register}"
        )

    runs = _wide_runs(kernel.instructions)
    accesses = _wide_accesses(kernel.instructions)
    in_run = {register for run in runs for register in run}
    tuples = _conflict_tuples(kernel.instructions)

    weight_of: dict[int, int] = {}
    for regs, weight in tuples.items():
        for register in regs:
            weight_of[register] = weight_of.get(register, 0) + weight

    units = [
        _Unit(
            registers=run,
            offset=run[0] % 8,
            weight=sum(weight_of.get(r, 0) for r in run),
            allowed_offsets=_allowed_residues(run, accesses),
        )
        for run in runs
    ]
    units += [
        _Unit(registers=(register,), offset=register % 8, weight=weight_of.get(register, 0))
        for register in sorted(used - in_run)
    ]

    solver = _BankSolver(units, tuples, _bank_capacities(max_register))
    solver.solve(max_moves=max_moves)
    try:
        mapping = _assign_indices(units, max_register)
    except RegisterAllocationError:
        # No legal placement (e.g. alignment constraints exhausted the free
        # windows): keep the original kernel rather than emit a worse one.
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)

    renamed = tuple(rename_registers(instruction, mapping) for instruction in kernel.instructions)
    candidate = replace_instructions(
        kernel,
        renamed,
        metadata_updates={"opt.reallocated": True},
    )
    after = analyse_ffma_conflicts(candidate)
    if after.two_way + after.three_way > before.two_way + before.three_way:
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)
    return ReallocationResult(kernel=candidate, mapping=mapping, before=before, after=after)
