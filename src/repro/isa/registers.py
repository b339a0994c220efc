"""Registers, predicates and special registers of the Fermi/Kepler ISA.

The Fermi (sm_20) and Kepler GK104 (sm_30) instruction encodings reserve six
bits per register operand, so a thread can address registers ``R0`` … ``R62``
plus the always-zero register ``RZ`` (encoded as index 63).  That hard limit
of 63 usable registers per thread is one of the two constraints the paper's
upper-bound analysis is built on (the other being the scheduler issue
throughput).

Kepler additionally exhibits operand *register-bank* behaviour: registers are
spread over four banks (even0/even1/odd0/odd1 in the paper's naming) and FFMA
throughput drops when distinct source operands collide on a bank.  The bank of
a :class:`Register` is exposed here so the allocator and the conflict analyzer
can reason about it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.arch.register_file import RegisterBank, register_bank
from repro.errors import IsaError

#: Highest addressable general-purpose register index (R62); index 63 is RZ.
MAX_GPR_INDEX = 62

#: Encoding value of the zero register.
RZ_INDEX = 63


@dataclass(frozen=True, order=True, init=False)
class Register:
    """A general-purpose 32-bit register ``R<index>``.

    ``Register(63)`` denotes ``RZ``, the hard-wired zero register.  There is
    one instance per index: ``Register(5) is Register(5)``, so a kernel's
    operands share 64 objects at most, and a register pickles as
    ``Register(index)``, which unpickles to that same instance.
    """

    index: int

    def __new__(cls, index: int | None = None) -> "Register":
        if index is None:
            # A pickle written before registers were interned calls
            # ``Register.__new__`` bare and then fills in ``index`` itself.
            return object.__new__(cls)
        register = _REGISTERS.get(index)
        if register is None:
            raise IsaError(f"register index must be in [0, {RZ_INDEX}], got {index}")
        return register

    def __reduce__(self):
        return (Register, (self.index,))

    @property
    def is_zero(self) -> bool:
        """Whether this is the hard-wired zero register RZ."""
        return self.index == RZ_INDEX

    @property
    def bank(self) -> RegisterBank:
        """Operand-collector bank this register resides on (Kepler model)."""
        return register_bank(self.index)

    @property
    def name(self) -> str:
        """Assembly name, e.g. ``"R7"`` or ``"RZ"``."""
        return "RZ" if self.is_zero else f"R{self.index}"

    def offset(self, delta: int) -> "Register":
        """Register ``delta`` slots above this one (used by wide accesses)."""
        if self.is_zero:
            raise IsaError("cannot take an offset from RZ")
        return Register(self.index + delta)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Register({self.name})"


def _interned(index: int) -> Register:
    register = object.__new__(Register)
    object.__setattr__(register, "index", index)
    return register


#: The one instance of each register index (``Register(i)`` returns it).
_REGISTERS: dict[int, Register] = {index: _interned(index) for index in range(RZ_INDEX + 1)}

#: The hard-wired zero register.
RZ = Register(RZ_INDEX)


def reg(index: int) -> Register:
    """Shorthand constructor for ``Register(index)``."""
    return Register(index)


@dataclass(frozen=True, order=True)
class Predicate:
    """A predicate register ``P0`` … ``P6``; index 7 denotes ``PT`` (true)."""

    index: int

    MAX_INDEX = 7

    def __post_init__(self) -> None:
        if not 0 <= self.index <= self.MAX_INDEX:
            raise IsaError(f"predicate index must be in [0, 7], got {self.index}")

    @property
    def is_true(self) -> bool:
        """Whether this is PT, the always-true predicate."""
        return self.index == self.MAX_INDEX

    @property
    def name(self) -> str:
        """Assembly name, e.g. ``"P2"`` or ``"PT"``."""
        return "PT" if self.is_true else f"P{self.index}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


#: The always-true predicate.
PT = Predicate(Predicate.MAX_INDEX)


def predicate(index: int) -> Predicate:
    """Shorthand constructor for ``Predicate(index)``."""
    return Predicate(index)


class SpecialRegister(str, Enum):
    """Special read-only registers accessible through the S2R instruction."""

    TID_X = "SR_TID.X"
    TID_Y = "SR_TID.Y"
    TID_Z = "SR_TID.Z"
    CTAID_X = "SR_CTAID.X"
    CTAID_Y = "SR_CTAID.Y"
    CTAID_Z = "SR_CTAID.Z"
    LANEID = "SR_LANEID"
    WARPID = "SR_WARPID"

    @classmethod
    def from_name(cls, text: str) -> "SpecialRegister":
        """Parse an assembly special-register name."""
        normalized = text.strip().upper()
        for member in cls:
            if member.value == normalized:
                return member
        raise IsaError(f"unknown special register '{text}'")


def parse_register(text: str) -> Register:
    """Parse an assembly register token such as ``"R12"`` or ``"RZ"``."""
    token = text.strip().upper()
    if token == "RZ":
        return RZ
    if not token.startswith("R"):
        raise IsaError(f"expected a register, got '{text}'")
    try:
        index = int(token[1:])
    except ValueError as exc:
        raise IsaError(f"malformed register token '{text}'") from exc
    if not 0 <= index <= MAX_GPR_INDEX:
        raise IsaError(
            f"register {token} is not encodable: only R0..R{MAX_GPR_INDEX} and RZ exist "
            "on Fermi/GK104 (6-bit register fields)"
        )
    return Register(index)


def parse_predicate(text: str) -> Predicate:
    """Parse an assembly predicate token such as ``"P3"`` or ``"PT"``."""
    token = text.strip().upper()
    if token == "PT":
        return PT
    if not token.startswith("P"):
        raise IsaError(f"expected a predicate, got '{text}'")
    try:
        index = int(token[1:])
    except ValueError as exc:
        raise IsaError(f"malformed predicate token '{text}'") from exc
    if not 0 <= index < Predicate.MAX_INDEX:
        raise IsaError(f"predicate {token} out of range")
    return Predicate(index)
