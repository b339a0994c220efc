"""Instruction set definition.

Only the instructions actually needed by SGEMM kernels and by the paper's
micro-benchmarks are modelled, which keeps the functional simulator and the
encoders small while covering everything the analysis touches:

* floating point: FFMA, FADD, FMUL
* integer: IADD, IMUL, IMAD, ISCADD, SHL, SHR, LOP (and/or/xor), MOV, MOV32I
* shared memory: LDS / LDS.64 / LDS.128, STS / STS.64 / STS.128
* global memory: LD / LD.64 / LD.128, ST / ST.64 / ST.128
* predicates and control flow: ISETP, BRA, SSY-less straight-line loops,
  BAR.SYNC, EXIT, NOP
* special registers: S2R

Instructions are plain frozen dataclasses; semantics live in
:mod:`repro.sim.vectorized` (with :mod:`repro.sim.reference` as the scalar
oracle) and timing lives in :mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Union

from repro.errors import IsaError
from repro.isa.registers import PT, Predicate, Register, SpecialRegister


class cached_property:  # noqa: N801 — drop-in for functools.cached_property
    """Lock-free cached property.

    Python 3.11's :class:`functools.cached_property` acquires an RLock on
    every cache miss; instruction objects are created by the hundred
    thousand across an autotuning sweep, making that lock measurable.
    Instances here are effectively immutable, so the lock buys nothing.
    """

    def __init__(self, func):
        self.func = func
        self.attrname = None
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.attrname = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        instance.__dict__[self.attrname] = value
        return value


class Opcode(str, Enum):
    """Mnemonics of the modelled instruction set."""

    # Floating point.
    FFMA = "FFMA"
    FADD = "FADD"
    FMUL = "FMUL"
    # Integer.
    IADD = "IADD"
    IMUL = "IMUL"
    IMAD = "IMAD"
    ISCADD = "ISCADD"
    SHL = "SHL"
    SHR = "SHR"
    LOP_AND = "LOP.AND"
    LOP_OR = "LOP.OR"
    LOP_XOR = "LOP.XOR"
    MOV = "MOV"
    MOV32I = "MOV32I"
    S2R = "S2R"
    # Predicate / compare.
    ISETP = "ISETP"
    # Shared memory.
    LDS = "LDS"
    STS = "STS"
    # Global memory.
    LD = "LD"
    ST = "ST"
    # Control.
    BRA = "BRA"
    BAR = "BAR"
    EXIT = "EXIT"
    NOP = "NOP"


class MemSpace(str, Enum):
    """Memory space addressed by a load/store instruction."""

    SHARED = "shared"
    GLOBAL = "global"


class OperandKind(str, Enum):
    """Classification of instruction source operands."""

    REGISTER = "register"
    IMMEDIATE = "immediate"
    CONSTANT = "constant"
    MEMORY = "memory"
    SPECIAL = "special"


@dataclass(frozen=True)
class Immediate:
    """An immediate operand (integer or raw float bits)."""

    value: Union[int, float]

    def as_float(self) -> float:
        """The operand interpreted as a float."""
        return float(self.value)

    def as_int(self) -> int:
        """The operand interpreted as an integer (floats are truncated)."""
        return int(self.value)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.value)


@dataclass(frozen=True)
class ConstRef:
    """A constant-bank operand ``c[bank][offset]`` (kernel parameters)."""

    bank: int
    offset: int

    def __post_init__(self) -> None:
        if self.bank < 0:
            raise IsaError("constant bank must be non-negative")
        if self.offset < 0 or self.offset % 4 != 0:
            raise IsaError("constant offset must be a non-negative multiple of 4")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"c[{self.bank:#x}][{self.offset:#x}]"


@dataclass(frozen=True)
class MemRef:
    """A memory operand ``[Rbase + offset]``."""

    base: Register
    offset: int = 0

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.offset:
            return f"[{self.base}+{self.offset:#x}]"
        return f"[{self.base}]"


@dataclass(frozen=True)
class Label:
    """A branch target label."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise IsaError(f"invalid label name '{self.name}'")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


Operand = Union[Register, Immediate, ConstRef, MemRef, SpecialRegister, Label, Predicate]

#: Width (bits) suffixes allowed on memory instructions.
MEMORY_WIDTHS = (32, 64, 128)

#: Opcodes executed on the SP (CUDA core) pipeline.
_SP_OPCODES = {
    Opcode.FFMA,
    Opcode.FADD,
    Opcode.FMUL,
    Opcode.IADD,
    Opcode.IMUL,
    Opcode.IMAD,
    Opcode.ISCADD,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.LOP_AND,
    Opcode.LOP_OR,
    Opcode.LOP_XOR,
    Opcode.MOV,
    Opcode.MOV32I,
    Opcode.S2R,
    Opcode.ISETP,
}

#: Opcodes executed on the LD/ST pipeline.
_LDST_OPCODES = {Opcode.LDS, Opcode.STS, Opcode.LD, Opcode.ST}

#: Opcodes handled by the control path.
_CONTROL_OPCODES = {Opcode.BRA, Opcode.BAR, Opcode.EXIT, Opcode.NOP}

#: ISETP comparison operators accepted by the parser and the simulator.
ISETP_OPERATORS = ("LT", "LE", "EQ", "NE", "GE", "GT")

#: Assembly operand signatures per opcode, consumed by the ISA reference
#: generator (``scripts/gen_isa_reference.py`` → ``docs/isa.md``).  ``src``
#: stands for a register, immediate or constant-bank operand.
OPCODE_OPERANDS: dict[Opcode, str] = {
    Opcode.FFMA: "Rd, Ra, Rb, Rc",
    Opcode.FADD: "Rd, Ra, src",
    Opcode.FMUL: "Rd, Ra, src",
    Opcode.IADD: "Rd, Ra, src",
    Opcode.IMUL: "Rd, Ra, src",
    Opcode.IMAD: "Rd, Ra, src, src",
    Opcode.ISCADD: "Rd, Ra, src, shift",
    Opcode.SHL: "Rd, Ra, src",
    Opcode.SHR: "Rd, Ra, src",
    Opcode.LOP_AND: "Rd, Ra, src",
    Opcode.LOP_OR: "Rd, Ra, src",
    Opcode.LOP_XOR: "Rd, Ra, src",
    Opcode.MOV: "Rd, src",
    Opcode.MOV32I: "Rd, imm32",
    Opcode.S2R: "Rd, SR_*",
    Opcode.ISETP: "P, Ra, src",
    Opcode.LDS: "Rd, [Ra+offset]",
    Opcode.STS: "[Ra+offset], Rs",
    Opcode.LD: "Rd, [Ra+offset]",
    Opcode.ST: "[Ra+offset], Rs",
    Opcode.BRA: "label",
    Opcode.BAR: "id",
    Opcode.EXIT: "",
    Opcode.NOP: "",
}

#: One-line semantics notes per opcode, consumed by the ISA reference generator.
OPCODE_NOTES: dict[Opcode, str] = {
    Opcode.FFMA: "Rd := Ra * Rb + Rc (fused, 2 flops)",
    Opcode.FADD: "Rd := Ra + src (1 flop)",
    Opcode.FMUL: "Rd := Ra * src (1 flop)",
    Opcode.IADD: "Rd := Ra + src",
    Opcode.IMUL: "Rd := Ra * src",
    Opcode.IMAD: "Rd := Ra * src + src",
    Opcode.ISCADD: "Rd := (Ra << shift) + src",
    Opcode.SHL: "Rd := Ra << src",
    Opcode.SHR: "Rd := Ra >> src (logical)",
    Opcode.LOP_AND: "Rd := Ra & src",
    Opcode.LOP_OR: "Rd := Ra | src",
    Opcode.LOP_XOR: "Rd := Ra ^ src",
    Opcode.MOV: "Rd := src (register, immediate or c[bank][offset])",
    Opcode.MOV32I: "Rd := 32-bit immediate (int or float bits)",
    Opcode.S2R: "Rd := special register (tid/ctaid/laneid/warpid)",
    Opcode.ISETP: "P := Ra <op> src, op in {LT,LE,EQ,NE,GE,GT}",
    Opcode.LDS: "shared-memory load; .64/.128 fill a register pair/quad",
    Opcode.STS: "shared-memory store; .64/.128 drain a register pair/quad",
    Opcode.LD: "global-memory load; .64/.128 fill a register pair/quad",
    Opcode.ST: "global-memory store; .64/.128 drain a register pair/quad",
    Opcode.BRA: "warp-uniform (optionally predicated) branch",
    Opcode.BAR: "BAR.SYNC block-wide barrier",
    Opcode.EXIT: "terminate the thread",
    Opcode.NOP: "no operation (scheduling filler)",
}


@dataclass(frozen=True)
class Instruction:
    """One machine instruction.

    Attributes
    ----------
    opcode:
        The instruction mnemonic.
    dest:
        Destination register (or ``None`` for stores, branches, barriers…).
    sources:
        Source operands in assembly order.
    predicate:
        Guard predicate; ``PT`` means unconditional.
    predicate_negated:
        Whether the guard is ``@!P<n>``.
    width:
        Access width in bits for memory instructions (32, 64, 128).
    dest_predicate:
        Destination predicate for ISETP.
    compare_op:
        Comparison operator for ISETP.
    special:
        Source special register for S2R.
    target:
        Branch target label for BRA.
    comment:
        Free-form annotation kept through assembly/disassembly round trips.
    provenance:
        ``/``-separated origin path (IR node / schedule primitive) stamped by
        the generator that emitted the instruction.  Optimisation passes
        preserve it, so profilers can roll machine-level counters up to the
        tile-IR construct that produced each instruction.  Not encoded.
    """

    opcode: Opcode
    dest: Register | None = None
    sources: tuple[Operand, ...] = ()
    predicate: Predicate = PT
    predicate_negated: bool = False
    width: int = 32
    dest_predicate: Predicate | None = None
    compare_op: str | None = None
    special: SpecialRegister | None = None
    target: Label | None = None
    comment: str = ""
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.opcode in (Opcode.LDS, Opcode.STS, Opcode.LD, Opcode.ST):
            if self.width not in MEMORY_WIDTHS:
                raise IsaError(
                    f"{self.opcode.value} width must be one of {MEMORY_WIDTHS}, got {self.width}"
                )
        if self.opcode is Opcode.ISETP:
            if self.dest_predicate is None or self.compare_op is None:
                raise IsaError("ISETP requires a destination predicate and a comparison")
            if self.compare_op not in ISETP_OPERATORS:
                raise IsaError(f"unsupported ISETP comparison '{self.compare_op}'")
        if self.opcode is Opcode.S2R and self.special is None:
            raise IsaError("S2R requires a special register source")
        if self.opcode is Opcode.BRA and self.target is None:
            raise IsaError("BRA requires a target label")

    def __reduce__(self):
        state = self.__dict__
        args = (self.opcode, self.dest, self.sources, self.provenance)
        changed = {
            name: state[name]
            for name, default in _INSTRUCTION_DEFAULTS.items()
            if state[name] != default
        }
        return (_rebuild_instruction, args + (changed,) if changed else args)

    # ------------------------------------------------------------------ #
    # Classification helpers used throughout the simulator and analyses. #
    # ------------------------------------------------------------------ #

    @cached_property
    def is_math(self) -> bool:
        """Whether the instruction executes on the SP pipeline."""
        return self.opcode in _SP_OPCODES

    @cached_property
    def is_ffma(self) -> bool:
        """Whether the instruction is a fused multiply-add."""
        return self.opcode is Opcode.FFMA

    @cached_property
    def is_memory(self) -> bool:
        """Whether the instruction executes on the LD/ST pipeline."""
        return self.opcode in _LDST_OPCODES

    @cached_property
    def is_shared_load(self) -> bool:
        """Whether the instruction is an LDS of any width."""
        return self.opcode is Opcode.LDS

    @cached_property
    def is_shared_store(self) -> bool:
        """Whether the instruction is an STS of any width."""
        return self.opcode is Opcode.STS

    @cached_property
    def is_global_load(self) -> bool:
        """Whether the instruction is a global-memory load."""
        return self.opcode is Opcode.LD

    @cached_property
    def is_global_store(self) -> bool:
        """Whether the instruction is a global-memory store."""
        return self.opcode is Opcode.ST

    @cached_property
    def is_control(self) -> bool:
        """Whether the instruction is handled by the control path."""
        return self.opcode in _CONTROL_OPCODES

    @cached_property
    def is_barrier(self) -> bool:
        """Whether the instruction is a block-wide barrier."""
        return self.opcode is Opcode.BAR

    @cached_property
    def flop_count(self) -> int:
        """Floating-point operations performed per thread (2 for FFMA)."""
        if self.opcode is Opcode.FFMA:
            return 2
        if self.opcode in (Opcode.FADD, Opcode.FMUL):
            return 1
        return 0

    @cached_property
    def memory_space(self) -> MemSpace | None:
        """Memory space touched, if any."""
        if self.opcode in (Opcode.LDS, Opcode.STS):
            return MemSpace.SHARED
        if self.opcode in (Opcode.LD, Opcode.ST):
            return MemSpace.GLOBAL
        return None

    @cached_property
    def registers_written(self) -> tuple[Register, ...]:
        """Destination registers, expanding wide loads to register pairs/quads."""
        if self.dest is None or self.dest.is_zero:
            return ()
        if self.opcode in (Opcode.LDS, Opcode.LD) and self.width > 32:
            count = self.width // 32
            return tuple(self.dest.offset(i) for i in range(count))
        return (self.dest,)

    @cached_property
    def registers_read(self) -> tuple[Register, ...]:
        """Source registers, expanding wide stores and memory bases."""
        regs: list[Register] = []
        for operand in self.sources:
            if isinstance(operand, Register):
                if not operand.is_zero:
                    regs.append(operand)
                if self.opcode in (Opcode.STS, Opcode.ST) and self.width > 32:
                    # The stored data register expands to a pair/quad.
                    if not operand.is_zero:
                        for extra in range(1, self.width // 32):
                            regs.append(operand.offset(extra))
            elif isinstance(operand, MemRef):
                if not operand.base.is_zero:
                    regs.append(operand.base)
        return tuple(regs)

    @cached_property
    def source_register_indices(self) -> tuple[int, ...]:
        """Indices of plain register sources (used by bank-conflict analysis)."""
        return tuple(
            operand.index
            for operand in self.sources
            if isinstance(operand, Register) and not operand.is_zero
        )

    @cached_property
    def memory_operand(self) -> MemRef | None:
        """The memory operand of a load/store, if any."""
        for operand in self.sources:
            if isinstance(operand, MemRef):
                return operand
        return None

    def with_comment(self, comment: str) -> "Instruction":
        """A copy of this instruction carrying ``comment``."""
        return Instruction(
            opcode=self.opcode,
            dest=self.dest,
            sources=self.sources,
            predicate=self.predicate,
            predicate_negated=self.predicate_negated,
            width=self.width,
            dest_predicate=self.dest_predicate,
            compare_op=self.compare_op,
            special=self.special,
            target=self.target,
            comment=comment,
            provenance=self.provenance,
        )

    def with_provenance(self, provenance: str) -> "Instruction":
        """A copy of this instruction carrying ``provenance``."""
        return Instruction(
            opcode=self.opcode,
            dest=self.dest,
            sources=self.sources,
            predicate=self.predicate,
            predicate_negated=self.predicate_negated,
            width=self.width,
            dest_predicate=self.dest_predicate,
            compare_op=self.compare_op,
            special=self.special,
            target=self.target,
            comment=self.comment,
            provenance=provenance,
        )

    @cached_property
    def mnemonic(self) -> str:
        """Opcode text including the width suffix for memory instructions."""
        if self.opcode in (Opcode.LDS, Opcode.STS, Opcode.LD, Opcode.ST) and self.width > 32:
            return f"{self.opcode.value}.{self.width}"
        if self.opcode is Opcode.ISETP:
            return f"ISETP.{self.compare_op}"
        return self.opcode.value


#: Declared defaults of the instruction fields :func:`_rebuild_instruction`
#: does not take by position, in field order.
_INSTRUCTION_DEFAULTS = {
    f.name: f.default
    for f in fields(Instruction)
    if f.name not in ("opcode", "dest", "sources", "provenance")
}


def _rebuild_instruction(opcode, dest, sources, provenance, changed=None) -> Instruction:
    """The :class:`Instruction` a pickle names (the target of its ``__reduce__``).

    The four fields nearly every instruction sets come by position;
    ``changed`` holds, by name, the other fields whose values differ from
    their declared defaults, and every field left out takes its default.
    The instance was validated when first built, so its fields are filled in
    directly, in declaration order, and nothing cached on the pickled
    instance comes back.  Pickles name this function, so renaming it makes
    stored pickles unreadable.
    """
    instruction = object.__new__(Instruction)
    state = instruction.__dict__
    state["opcode"] = opcode
    state["dest"] = dest
    state["sources"] = sources
    state.update(_INSTRUCTION_DEFAULTS)
    state["provenance"] = provenance
    if changed:
        state.update(changed)
    return instruction


@dataclass(frozen=True)
class Program:
    """An assembled-but-unresolved instruction stream with labels.

    ``items`` interleaves :class:`Label` markers and :class:`Instruction`
    entries in program order; the assembler resolves labels to instruction
    indices when building a :class:`repro.isa.assembler.Kernel`.
    """

    items: tuple[Union[Label, Instruction], ...] = ()
    name: str = "kernel"
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """All instructions, in order, skipping label markers."""
        return tuple(item for item in self.items if isinstance(item, Instruction))

    def label_positions(self) -> dict[str, int]:
        """Map of label name to the index of the instruction it precedes."""
        positions: dict[str, int] = {}
        index = 0
        for item in self.items:
            if isinstance(item, Label):
                if item.name in positions:
                    raise IsaError(f"label '{item.name}' defined twice")
                positions[item.name] = index
            else:
                index += 1
        return positions
