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
FFMA conflict count — the optimizer therefore never regresses a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.register_file import (
    _BANK_CODE_BY_RESIDUE,
    RegisterBank,
    register_bank,
)
from repro.errors import RegisterAllocationError
from repro.isa.assembler import Kernel
from repro.isa.instructions import Instruction, MemRef, Opcode, Register
from repro.isa.registers import MAX_GPR_INDEX
from repro.opt.liveness import inherit_def_use
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


#: Cap on local-search moves in the bank-assignment phase.
MAX_MOVES = 256

#: Offsets a singleton is tried at: one canonical residue per bank.
_SINGLETON_OFFSETS = (0, 1, 4, 5)


def _bank_capacities() -> dict[RegisterBank, int]:
    """Number of physical indices available per bank in [0, MAX_GPR_INDEX]."""
    capacities = {bank: 0 for bank in _ALL_BANKS}
    for index in range(MAX_GPR_INDEX + 1):
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

    @property
    def constrained(self) -> bool:
        """Whether the unit consumes bank capacity in phase 1.

        Weight-0 singletons (bookkeeping registers that never feed a
        bank-sensitive instruction) are flexible: phase 2 places them in
        whatever slots remain.  Runs always count — their contiguity pins
        them to concrete banks.
        """
        return self.is_run or self.weight > 0

    def __post_init__(self) -> None:
        self._position = {reg: i for i, reg in enumerate(self.registers)}


def _shift(counts: list[int], positions, start: int, end: int) -> None:
    """Move the bank counts of a unit's ``positions`` from offset ``start`` to ``end``."""
    codes = _BANK_CODE_BY_RESIDUE
    for position in positions:
        counts[codes[(start + position) % 8]] -= 1
        counts[codes[(end + position) % 8]] += 1


class _BankSolver:
    """Deterministic local search over unit bank signatures.

    The search state is kept current move by move instead of being recounted
    for every candidate: the per-bank demand of the constrained units, the
    bank histogram of every conflict tuple, and a cache of each unit's
    penalty at each offset (its *move penalties*).  A move re-signs one unit,
    so it shifts that unit's banks in the demand and in the histograms of its
    own tuples, and drops the cached penalties of exactly the units that
    share a tuple with it — no other penalty can change.  Every figure the
    search compares is therefore the one a full recount would give, and the
    moves it picks are the same.
    """

    def __init__(
        self,
        units: list[_Unit],
        tuples: dict[tuple[int, ...], int],
        capacities: dict[RegisterBank, int],
    ) -> None:
        self.units = units
        self._tuples = tuples
        codes = _BANK_CODE_BY_RESIDUE
        self._capacity = [0, 0, 0, 0]
        for residue in range(8):
            self._capacity[codes[residue]] = capacities[register_bank(residue)]
        unit_of: dict[int, _Unit] = {}
        for unit in units:
            for register in unit.registers:
                unit_of[register] = unit
        # Per tuple: (unit, position-in-unit) of every member register.  Per
        # unit: each tuple it is in with its own positions there, and the
        # units sharing a tuple with it (itself included).
        self._members: dict[tuple[int, ...], list[tuple[_Unit, int]]] = {}
        self._around: dict[int, list[tuple[tuple[int, ...], tuple[int, ...], int]]] = {
            id(unit): [] for unit in units
        }
        self._neighbours: dict[int, dict[int, _Unit]] = {
            id(unit): {id(unit): unit} for unit in units
        }
        for regs in tuples:
            members = [(unit_of[r], unit_of[r]._position[r]) for r in regs]
            self._members[regs] = members
            positions: dict[int, list[int]] = {}
            for member, position in members:
                positions.setdefault(id(member), []).append(position)
            sharing = {id(member): member for member, _ in members}
            for key, unit_positions in positions.items():
                self._around[key].append((regs, tuple(unit_positions), tuples[regs]))
                self._neighbours[key].update(sharing)
        self._bank_counts = self._count_banks()
        self._demand = self._count_demand()
        self._move_penalties: dict[int, list[int | None]] = {
            id(unit): [None] * 8 for unit in units
        }

    # -- state, counted from scratch (construction and checks) ----------- #

    def _count_banks(self) -> dict[tuple[int, ...], list[int]]:
        """Bank histogram of every conflict tuple at the units' offsets."""
        codes = _BANK_CODE_BY_RESIDUE
        histograms: dict[tuple[int, ...], list[int]] = {}
        for regs, members in self._members.items():
            counts = [0, 0, 0, 0]
            for member, position in members:
                counts[codes[(member.offset + position) % 8]] += 1
            histograms[regs] = counts
        return histograms

    def _count_demand(self) -> list[int]:
        """Per-bank demand of the constrained units, indexed by bank code."""
        codes = _BANK_CODE_BY_RESIDUE
        demand = [0, 0, 0, 0]
        for unit in self.units:
            if unit.constrained:
                for position in range(len(unit.registers)):
                    demand[codes[(unit.offset + position) % 8]] += 1
        return demand

    # -- pricing ----------------------------------------------------------- #

    def _penalty_around(self, unit: _Unit, offset: int | None = None) -> int:
        """Weighted penalty of all tuples touching ``unit`` (at ``offset``).

        Priced off the per-tuple bank histograms, so the cost is
        O(the unit's tuples) whatever the tuples' sizes.
        """
        current = unit.offset
        base = current if offset is None else offset
        codes = _BANK_CODE_BY_RESIDUE
        total = 0
        for regs, positions, weight in self._around[id(unit)]:
            counts = self._bank_counts[regs]
            if base != current:
                counts = counts.copy()
                for position in positions:
                    counts[codes[(current + position) % 8]] -= 1
                    counts[codes[(base + position) % 8]] += 1
            worst = max(counts)
            if worst > 1:
                total += (worst - 1) * weight
        return total

    def _move_penalty(self, unit: _Unit, offset: int) -> int:
        """:meth:`_penalty_around` at ``offset``, cached until a neighbour moves."""
        cache = self._move_penalties[id(unit)]
        penalty = cache[offset]
        if penalty is None:
            penalty = cache[offset] = self._penalty_around(unit, offset)
        return penalty

    def total_penalty(self) -> int:
        total = 0
        for regs, counts in self._bank_counts.items():
            worst = max(counts)
            if worst > 1:
                total += (worst - 1) * self._tuples[regs]
        return total

    # -- moves ------------------------------------------------------------- #

    def _move(self, unit: _Unit, offset: int) -> None:
        """Re-sign ``unit``, keeping demand, histograms and move penalties current."""
        if offset == unit.offset:
            return
        if unit.constrained:
            _shift(self._demand, range(len(unit.registers)), unit.offset, offset)
        self._shift_tuples(unit, unit.offset, offset)
        unit.offset = offset
        for key in self._neighbours[id(unit)]:
            self._move_penalties[key] = [None] * 8

    def _shift_tuples(self, unit: _Unit, start: int, end: int) -> None:
        """Move ``unit``'s members from offset ``start`` to ``end`` in its tuples' histograms."""
        for regs, positions, _ in self._around[id(unit)]:
            _shift(self._bank_counts[regs], positions, start, end)

    def _fits(self, unit: _Unit, offset: int) -> bool:
        """Whether moving ``unit`` to ``offset`` keeps every bank in capacity."""
        demand = self._demand.copy()
        _shift(demand, range(len(unit.registers)), unit.offset, offset)
        return all(need <= room for need, room in zip(demand, self._capacity))

    def _swap_fits(self, first: _Unit, second: _Unit) -> bool:
        """Capacity check for a signature swap (matters when one side is
        flexible — a weight-0 singleton — and thus absent from demand)."""
        demand = self._demand.copy()
        for unit, offset in ((first, second.offset), (second, first.offset)):
            if unit.constrained:
                _shift(demand, range(len(unit.registers)), unit.offset, offset)
        return all(need <= room for need, room in zip(demand, self._capacity))

    def _swap_gain(self, first: _Unit, second: _Unit) -> int:
        """Penalty reduction from exchanging the signatures of two units.

        The exchange is priced as two moves in a row: ``first`` to
        ``second``'s offset, then ``second`` to ``first``'s old one with
        ``first`` already there.  When no tuple holds both, the second move
        does not see the first, and both halves are cached move penalties.
        """
        a, b = first.offset, second.offset
        gain = self._move_penalty(first, a) - self._move_penalty(first, b)
        if id(second) not in self._neighbours[id(first)]:
            return gain + self._move_penalty(second, b) - self._move_penalty(second, a)
        self._shift_tuples(first, a, b)
        gain += self._penalty_around(second) - self._penalty_around(second, a)
        self._shift_tuples(first, b, a)
        return gain

    def _partners_of(self, unit: _Unit) -> list[_Unit]:
        """Singleton units sharing a conflict tuple with ``unit`` (weight-desc)."""
        partners = [
            other for other in self._neighbours[id(unit)].values()
            if other is not unit and not other.is_run
        ]
        return sorted(partners, key=lambda u: (-u.weight, u.registers))

    def _composite_gain(self, unit: _Unit, offset: int) -> tuple[int, list[tuple[_Unit, int]]]:
        """Gain from moving ``unit`` to ``offset`` with partner adaptation.

        Moving a run often trades one conflict for another *unless* the
        singletons it shares tuples with (e.g. FFMA accumulators) re-pick
        their banks too.  This evaluates the run move together with a greedy
        re-pick of every singleton partner, which escapes the plateaus a
        one-unit-at-a-time search cannot cross.  Its trial moves go through
        :meth:`_move` and are undone the same way, so each partner's
        capacity check sees the demand the earlier trial moves left.
        """
        if not self._fits(unit, offset):
            return 0, []
        before = self.total_penalty()
        partners = self._partners_of(unit)
        saved = [(unit, unit.offset)] + [(p, p.offset) for p in partners]
        self._move(unit, offset)
        plan: list[tuple[_Unit, int]] = [(unit, offset)]
        for partner in partners:
            best_offset = partner.offset
            best_penalty = self._penalty_around(partner)
            for candidate in _SINGLETON_OFFSETS:
                if candidate == partner.offset:
                    continue
                penalty = self._penalty_around(partner, candidate)
                if penalty < best_penalty and self._fits(partner, candidate):
                    best_penalty = penalty
                    best_offset = candidate
            if best_offset != partner.offset:
                self._move(partner, best_offset)
                plan.append((partner, best_offset))
        gain = before - self.total_penalty()
        for moved, original in saved:
            self._move(moved, original)
        return gain, plan

    def solve(self) -> None:
        """Greedy best-improvement moves until a fixed point (or :data:`MAX_MOVES`).

        Three move kinds, tried in order of cost: re-signing one unit
        (subject to bank capacity); swapping the signatures of two
        equal-length units (demand-invariant, escapes capacity binds); and a
        composite run move with greedy partner re-picks (escapes plateaus
        where a run move alone only trades conflicts).  Every applied move
        strictly reduces the weighted conflict penalty, so the search
        terminates.
        """
        movable = [unit for unit in self.units if self._around[id(unit)]]
        for _ in range(MAX_MOVES):
            best_gain = 0
            best_move: tuple[_Unit, int] | None = None
            for unit in movable:
                current = self._move_penalty(unit, unit.offset)
                if current == 0:
                    continue
                # Runs sweep their alignment-legal signatures; singletons only
                # need one canonical offset per bank (0/1/4/5).
                offsets = unit.allowed_offsets if unit.is_run else _SINGLETON_OFFSETS
                for offset in offsets:
                    if offset == unit.offset:
                        continue
                    gain = current - self._move_penalty(unit, offset)
                    if gain > best_gain and self._fits(unit, offset):
                        best_gain = gain
                        best_move = (unit, offset)
            if best_move is not None:
                self._move(*best_move)
                continue

            best_swap: tuple[_Unit, _Unit] | None = None
            for unit in movable:
                if self._move_penalty(unit, unit.offset) == 0:
                    continue
                for other in self.units:
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
                first_offset, second_offset = first.offset, second.offset
                self._move(first, second_offset)
                self._move(second, first_offset)
                continue

            best_plan: list[tuple[_Unit, int]] | None = None
            for unit in movable:
                if not unit.is_run or self._move_penalty(unit, unit.offset) == 0:
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
                self._move(unit, offset)


# --------------------------------------------------------------------- #
# Phase 2: concrete index assignment.                                   #
# --------------------------------------------------------------------- #


def _assign_indices(units: list[_Unit]) -> dict[int, int]:
    """Place every unit at concrete indices honoring its bank signature."""
    free = set(range(MAX_GPR_INDEX + 1))
    mapping: dict[int, int] = {}

    def place_run(unit: _Unit) -> None:
        length = len(unit.registers)
        # Prefer starts matching the chosen signature, then any other
        # alignment-legal residue.  Alignment-violating starts are never
        # used: emitting a misaligned wide access would trade a soft
        # performance property for a hardware-invalid kernel, so running out
        # of legal windows aborts the reallocation instead (the caller then
        # keeps the original kernel).
        all_starts = list(range(MAX_GPR_INDEX - length + 2))
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


def rename_registers(
    instructions: tuple[Instruction, ...], mapping: dict[int, int]
) -> tuple[Instruction, ...]:
    """``instructions`` with every register operand renamed through ``mapping``.

    ``mapping`` holds general-purpose indices only, so RZ keeps its index.
    An instruction no renaming touches is kept as it is — the identity
    mapping is common and building an instruction is not free.

    A renamed instruction is copied without the constructor
    (:meth:`~repro.isa.instructions.Instruction.with_operands`) and inherits
    its original's def-use mapped through ``mapping``
    (:func:`~repro.opt.liveness.inherit_def_use`) — exact because the pass
    places every wide-access run contiguously.
    """
    moved = {old: Register(new) for old, new in mapping.items() if new != old}
    renamed: list[Instruction] = []
    for instruction in instructions:
        changed = False
        sources = []
        for operand in instruction.sources:
            if isinstance(operand, Register):
                target = moved.get(operand.index)
                if target is not None:
                    operand = target
                    changed = True
            elif isinstance(operand, MemRef):
                target = moved.get(operand.base.index)
                if target is not None:
                    operand = MemRef(base=target, offset=operand.offset)
                    changed = True
            sources.append(operand)
        dest = instruction.dest
        if dest is not None and dest.index in moved:
            dest = moved[dest.index]
            changed = True
        if not changed:
            renamed.append(instruction)
            continue
        copy = instruction.with_operands(dest, tuple(sources))
        inherit_def_use(copy, instruction, mapping)
        renamed.append(copy)
    return tuple(renamed)


# --------------------------------------------------------------------- #
# The pass.                                                             #
# --------------------------------------------------------------------- #


def _bank_solver(instructions: tuple[Instruction, ...], used: set[int]) -> _BankSolver:
    """The phase-1 search over the relocatable units of ``instructions``."""
    runs = _wide_runs(instructions)
    accesses = _wide_accesses(instructions)
    in_run = {register for run in runs for register in run}
    tuples = _conflict_tuples(instructions)

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
    return _BankSolver(units, tuples, _bank_capacities())


def reallocate_registers(kernel: Kernel) -> ReallocationResult:
    """Compute and apply a bank-conflict-minimizing register renaming.

    The renaming may use every encodable index up to R62 (the 6-bit limit).
    It is only applied when it does not increase the FFMA conflict count,
    so the pass never regresses a kernel; the result carries the (possibly
    unchanged) kernel plus before/after conflict reports.
    """
    before = analyse_ffma_conflicts(kernel)
    used = _used_registers(kernel.instructions)
    if not used:
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)

    solver = _bank_solver(kernel.instructions, used)
    solver.solve()
    try:
        mapping = _assign_indices(solver.units)
    except RegisterAllocationError:
        # No legal placement (e.g. alignment constraints exhausted the free
        # windows): keep the original kernel rather than emit a worse one.
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)

    renamed = rename_registers(kernel.instructions, mapping)
    candidate = replace_instructions(
        kernel,
        renamed,
        metadata_updates={"opt.reallocated": True},
    )
    after = analyse_ffma_conflicts(candidate)
    if after.two_way + after.three_way > before.two_way + before.three_way:
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)
    return ReallocationResult(kernel=candidate, mapping=mapping, before=before, after=after)
