"""Programmatic kernel builder.

The SGEMM generator and the micro-benchmark generators construct kernels
instruction by instruction; :class:`KernelBuilder` offers a fluent interface
for that (one method per opcode, plus labels, loops and assembly), so the
generators read close to the hand-written SASS the paper describes.

A builder emits each distinct instruction once: an unrolled SGEMM issues the
same FFMA on the same registers once per k-step, and every repeat is the
object the first emission built.  Kernels therefore hold one object per
distinct instruction; what is cached on an instruction (its encoding, its
def-use) is then worked out once, and a pickle of the kernel writes it once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Union

from repro.errors import AssemblyError
from repro.isa.assembler import Kernel, assemble
from repro.isa.instructions import (
    ConstRef,
    Immediate,
    Instruction,
    Label,
    MemRef,
    Opcode,
    Program,
)
from repro.isa.registers import PT, Predicate, Register, SpecialRegister

RegisterLike = Union[Register, int]
OperandLike = Union[Register, int, float, Immediate, ConstRef, MemRef]


def _as_register(value: RegisterLike) -> Register:
    """Coerce an int or Register into a Register."""
    if isinstance(value, Register):
        return value
    return Register(value)


def _as_operand(value: OperandLike) -> object:
    """Coerce a Python value into an instruction operand."""
    if isinstance(value, (Register, Immediate, ConstRef, MemRef)):
        return value
    if isinstance(value, bool):
        raise AssemblyError("bool is not a valid operand")
    if isinstance(value, int):
        return Immediate(value)
    if isinstance(value, float):
        return Immediate(value)
    raise AssemblyError(f"cannot convert {value!r} into an operand")


def _exact(operand: object) -> object:
    """``operand`` as part of an emission key: equal only to the key of an
    operand that builds the same instruction bytes and pickle.

    Registers are interned, one class and one index each, so they key as
    themselves.  Other operands key by their class and by each field's class
    and value, and a float by its sign too: ``Immediate(1) == Immediate(1.0)``
    and ``0.0 == -0.0``, though each pair encodes differently.  Anything
    else keys by identity and so is never shared.
    """
    cls = operand.__class__
    if cls is Register:
        return operand
    if cls is Immediate:
        value = operand.value
        if value.__class__ is int:
            return (cls, int, value)
        if value.__class__ is float:
            return (cls, float, value, math.copysign(1.0, value))
    elif cls is MemRef:
        return (cls, operand.base, operand.offset.__class__, operand.offset)
    elif cls is ConstRef:
        return (cls, operand.bank.__class__, operand.bank,
                operand.offset.__class__, operand.offset)
    return (cls, id(operand))


@dataclass
class KernelBuilder:
    """Accumulates instructions and assembles them into a :class:`Kernel`.

    Parameters
    ----------
    name:
        Kernel name.
    shared_memory_bytes:
        Static shared-memory footprint per block.
    threads_per_block:
        Block size the kernel is generated for.
    metadata:
        Annotations the assembled kernel carries.
    """

    name: str = "kernel"
    shared_memory_bytes: int = 0
    threads_per_block: int = 0
    metadata: dict[str, object] = field(default_factory=dict)
    _items: list[object] = field(default_factory=list, repr=False)
    _guard: Predicate = field(default=PT, repr=False)
    _guard_negated: bool = field(default=False, repr=False)
    _label_counter: int = field(default=0, repr=False)
    _provenance: tuple[str, ...] = field(default=(), repr=False)
    _emitted: dict[tuple, Instruction] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # Structural helpers.                                                 #
    # ------------------------------------------------------------------ #

    def label(self, name: str | None = None) -> Label:
        """Define a label at the current position and return it."""
        if name is None:
            name = f"L_{self._label_counter}"
            self._label_counter += 1
        label = Label(name)
        self._items.append(label)
        return label

    def new_label(self, name: str | None = None) -> Label:
        """Create a label object without placing it (place it later with :meth:`place`)."""
        if name is None:
            name = f"L_{self._label_counter}"
            self._label_counter += 1
        return Label(name)

    def place(self, label: Label) -> Label:
        """Place a label previously created with :meth:`new_label`."""
        self._items.append(label)
        return label

    def raw(self, instruction: Instruction) -> Instruction:
        """Append an already-built instruction (stamping provenance if unset)."""
        if not instruction.provenance and self._provenance:
            instruction = instruction.with_provenance(self.current_provenance)
        self._items.append(instruction)
        return instruction

    def comment_last(self, text: str) -> None:
        """Attach a comment to the most recently appended instruction."""
        for position in range(len(self._items) - 1, -1, -1):
            item = self._items[position]
            if isinstance(item, Instruction):
                self._items[position] = item.with_comment(text)
                return
        raise AssemblyError("no instruction to comment")

    def guarded(self, predicate: Predicate, negated: bool = False) -> "_GuardScope":
        """Context manager applying a guard predicate to enclosed instructions."""
        return _GuardScope(self, predicate, negated)

    def provenance(self, tag: str) -> "_ProvenanceScope":
        """Context manager tagging enclosed instructions with an origin path.

        Scopes nest: ``provenance("loop(k)")`` inside ``provenance("main")``
        stamps ``main/loop(k)``.  The tag survives assembly, optimisation
        passes and profiling rollups (see :mod:`repro.prof`).
        """
        return _ProvenanceScope(self, tag)

    @property
    def current_provenance(self) -> str:
        """The ``/``-joined provenance path currently in scope.

        Interned, so the instructions emitted under equal paths share one
        string object (and a pickle of the kernel writes it once).
        """
        return sys.intern("/".join(self._provenance))

    @property
    def instruction_count(self) -> int:
        """Number of instructions appended so far."""
        return sum(1 for item in self._items if isinstance(item, Instruction))

    # ------------------------------------------------------------------ #
    # Instruction emitters.                                               #
    # ------------------------------------------------------------------ #

    def _emit(self, opcode: Opcode, dest: Register | None = None,
              sources: tuple = (), **fields) -> Instruction:
        """Append the instruction, the one this builder already emitted if equal.

        Equal means the same opcode, destination, operands (see
        :func:`_exact`), guard, negation, provenance scopes and keyword
        fields, each value of the same class: never ``Instruction.__eq__``,
        which calls ``Immediate(1)`` and ``Immediate(1.0)`` equal.  The key
        holds the scope tags, so the path is joined only for a new
        instruction.
        """
        guard, negated = self._guard, self._guard_negated
        key = (opcode, dest, tuple(map(_exact, sources)),
               guard.__class__, guard.index.__class__, guard.index,
               negated.__class__, negated, self._provenance)
        if fields:
            key += tuple([(name, value.__class__, value) for name, value in fields.items()])
        instruction = self._emitted.get(key)
        if instruction is None:
            instruction = self._emitted[key] = Instruction(
                opcode=opcode,
                dest=dest,
                sources=sources,
                predicate=guard,
                predicate_negated=negated,
                provenance=self.current_provenance,
                **fields,
            )
        self._items.append(instruction)
        return instruction

    def ffma(self, dest: RegisterLike, a: RegisterLike, b: RegisterLike, c: RegisterLike) -> Instruction:
        """``FFMA Rd, Ra, Rb, Rc`` — Rd := Ra * Rb + Rc."""
        return self._emit(
            opcode=Opcode.FFMA,
            dest=_as_register(dest),
            sources=(_as_register(a), _as_register(b), _as_register(c)),
        )

    def fadd(self, dest: RegisterLike, a: RegisterLike, b: OperandLike) -> Instruction:
        """``FADD Rd, Ra, b``."""
        return self._emit(
            opcode=Opcode.FADD, dest=_as_register(dest), sources=(_as_register(a), _as_operand(b))
        )

    def fmul(self, dest: RegisterLike, a: RegisterLike, b: OperandLike) -> Instruction:
        """``FMUL Rd, Ra, b``."""
        return self._emit(
            opcode=Opcode.FMUL, dest=_as_register(dest), sources=(_as_register(a), _as_operand(b))
        )

    def iadd(self, dest: RegisterLike, a: RegisterLike, b: OperandLike) -> Instruction:
        """``IADD Rd, Ra, b``."""
        return self._emit(
            opcode=Opcode.IADD, dest=_as_register(dest), sources=(_as_register(a), _as_operand(b))
        )

    def imul(self, dest: RegisterLike, a: RegisterLike, b: OperandLike) -> Instruction:
        """``IMUL Rd, Ra, b``."""
        return self._emit(
            opcode=Opcode.IMUL, dest=_as_register(dest), sources=(_as_register(a), _as_operand(b))
        )

    def imad(self, dest: RegisterLike, a: RegisterLike, b: OperandLike, c: OperandLike) -> Instruction:
        """``IMAD Rd, Ra, b, c`` — Rd := Ra * b + c."""
        return self._emit(
            opcode=Opcode.IMAD,
            dest=_as_register(dest),
            sources=(_as_register(a), _as_operand(b), _as_operand(c)),
        )

    def iscadd(self, dest: RegisterLike, a: RegisterLike, b: OperandLike, shift: int) -> Instruction:
        """``ISCADD Rd, Ra, b, shift`` — Rd := (Ra << shift) + b."""
        return self._emit(
            opcode=Opcode.ISCADD,
            dest=_as_register(dest),
            sources=(_as_register(a), _as_operand(b), Immediate(shift)),
        )

    def shl(self, dest: RegisterLike, a: RegisterLike, amount: OperandLike) -> Instruction:
        """``SHL Rd, Ra, amount``."""
        return self._emit(
            opcode=Opcode.SHL, dest=_as_register(dest), sources=(_as_register(a), _as_operand(amount))
        )

    def shr(self, dest: RegisterLike, a: RegisterLike, amount: OperandLike) -> Instruction:
        """``SHR Rd, Ra, amount``."""
        return self._emit(
            opcode=Opcode.SHR, dest=_as_register(dest), sources=(_as_register(a), _as_operand(amount))
        )

    def lop_and(self, dest: RegisterLike, a: RegisterLike, b: OperandLike) -> Instruction:
        """``LOP.AND Rd, Ra, b``."""
        return self._emit(
            opcode=Opcode.LOP_AND, dest=_as_register(dest), sources=(_as_register(a), _as_operand(b))
        )

    def lop_or(self, dest: RegisterLike, a: RegisterLike, b: OperandLike) -> Instruction:
        """``LOP.OR Rd, Ra, b``."""
        return self._emit(
            opcode=Opcode.LOP_OR, dest=_as_register(dest), sources=(_as_register(a), _as_operand(b))
        )

    def lop_xor(self, dest: RegisterLike, a: RegisterLike, b: OperandLike) -> Instruction:
        """``LOP.XOR Rd, Ra, b``."""
        return self._emit(
            opcode=Opcode.LOP_XOR, dest=_as_register(dest), sources=(_as_register(a), _as_operand(b))
        )

    def mov(self, dest: RegisterLike, source: OperandLike) -> Instruction:
        """``MOV Rd, src`` (register, immediate or constant-bank source)."""
        return self._emit(opcode=Opcode.MOV, dest=_as_register(dest), sources=(_as_operand(source),))

    def mov32i(self, dest: RegisterLike, value: Union[int, float]) -> Instruction:
        """``MOV32I Rd, imm32``."""
        return self._emit(opcode=Opcode.MOV32I, dest=_as_register(dest), sources=(Immediate(value),))

    def s2r(self, dest: RegisterLike, special: SpecialRegister) -> Instruction:
        """``S2R Rd, SR_*`` — read a special register."""
        return self._emit(opcode=Opcode.S2R, dest=_as_register(dest), special=special)

    def isetp(
        self,
        dest_predicate: Predicate,
        compare_op: str,
        a: RegisterLike,
        b: OperandLike,
    ) -> Instruction:
        """``ISETP.<op> P, Ra, b`` — integer compare into a predicate."""
        return self._emit(
            opcode=Opcode.ISETP,
            dest_predicate=dest_predicate,
            compare_op=compare_op,
            sources=(_as_register(a), _as_operand(b)),
        )

    def lds(self, dest: RegisterLike, address: MemRef, width: int = 32) -> Instruction:
        """``LDS[.64/.128] Rd, [Rbase+offset]`` — shared-memory load."""
        return self._emit(opcode=Opcode.LDS, dest=_as_register(dest), sources=(address,), width=width)

    def sts(self, address: MemRef, source: RegisterLike, width: int = 32) -> Instruction:
        """``STS[.64/.128] [Rbase+offset], Rsrc`` — shared-memory store."""
        return self._emit(opcode=Opcode.STS, sources=(address, _as_register(source)), width=width)

    def ld(self, dest: RegisterLike, address: MemRef, width: int = 32) -> Instruction:
        """``LD[.64/.128] Rd, [Rbase+offset]`` — global-memory load."""
        return self._emit(opcode=Opcode.LD, dest=_as_register(dest), sources=(address,), width=width)

    def st(self, address: MemRef, source: RegisterLike, width: int = 32) -> Instruction:
        """``ST[.64/.128] [Rbase+offset], Rsrc`` — global-memory store."""
        return self._emit(opcode=Opcode.ST, sources=(address, _as_register(source)), width=width)

    def bra(self, target: Label, predicate: Predicate | None = None, negated: bool = False) -> Instruction:
        """``[@P] BRA label`` — (conditional) branch."""
        guard = predicate if predicate is not None else self._guard
        instruction = Instruction(
            opcode=Opcode.BRA,
            target=target,
            predicate=guard,
            predicate_negated=negated if predicate is not None else self._guard_negated,
            provenance=self.current_provenance,
        )
        self._items.append(instruction)
        return instruction

    def bar(self, barrier_id: int = 0) -> Instruction:
        """``BAR.SYNC id`` — block-wide barrier."""
        return self._emit(opcode=Opcode.BAR, sources=(Immediate(barrier_id),))

    def exit(self) -> Instruction:
        """``EXIT`` — terminate the thread."""
        return self._emit(opcode=Opcode.EXIT)

    def nop(self) -> Instruction:
        """``NOP``."""
        return self._emit(opcode=Opcode.NOP)

    # ------------------------------------------------------------------ #
    # Final assembly.                                                     #
    # ------------------------------------------------------------------ #

    def program(self) -> Program:
        """The accumulated items as an unresolved :class:`Program`."""
        return Program(items=tuple(self._items), name=self.name, metadata=dict(self.metadata))

    def build(self) -> Kernel:
        """Assemble the accumulated instructions into a :class:`Kernel`."""
        return assemble(
            self.program(),
            shared_memory_bytes=self.shared_memory_bytes,
            threads_per_block=self.threads_per_block,
            metadata=self.metadata,
        )


class _GuardScope:
    """Context manager that applies a guard predicate inside a ``with`` block."""

    def __init__(self, builder: KernelBuilder, predicate: Predicate, negated: bool) -> None:
        self._builder = builder
        self._predicate = predicate
        self._negated = negated
        self._saved: tuple[Predicate, bool] | None = None

    def __enter__(self) -> KernelBuilder:
        self._saved = (self._builder._guard, self._builder._guard_negated)
        self._builder._guard = self._predicate
        self._builder._guard_negated = self._negated
        return self._builder

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._saved is not None
        self._builder._guard, self._builder._guard_negated = self._saved


class _ProvenanceScope:
    """Context manager that pushes a provenance path segment."""

    def __init__(self, builder: KernelBuilder, tag: str) -> None:
        self._builder = builder
        self._tag = tag

    def __enter__(self) -> KernelBuilder:
        self._builder._provenance = self._builder._provenance + (self._tag,)
        return self._builder

    def __exit__(self, exc_type, exc, tb) -> None:
        self._builder._provenance = self._builder._provenance[:-1]
