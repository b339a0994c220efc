"""Kepler control notation (per-7-instruction scheduling words).

Section 3.2 of the paper describes the scheduling information that the Kepler
(GK104) toolchain embeds in the binary: one 64-bit word precedes each group of
seven instructions, it carries identifier nibbles (0x7 in the low word, 0x2 in
the high word in the paper's hex rendering), and the remaining bits split into
seven per-instruction fields.  The authors could not fully decrypt the fields
and used a fixed notation per instruction *type*; we model the same structure:

* a :class:`ControlNotation` holds one 8-bit hint per instruction in a group
  of seven;
* :func:`encode_control_word` / :func:`decode_control_word` pack/unpack the
  64-bit notation word with the identifier nibbles in place;
* the simulator interprets a hint's low three bits as extra *stall cycles*
  requested before issuing the instruction and bit 3 as a *yield* flag,
  which is enough to reproduce the "bad notation → poor performance"
  behaviour the paper reports for its first Kepler attempts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IsaError

#: Number of instructions covered by one control word.
GROUP_SIZE = 7

#: Identifier nibble stored in the low 4 bits of the control word.
LOW_IDENTIFIER = 0x7

#: Identifier nibble stored in the top 4 bits of the control word.
HIGH_IDENTIFIER = 0x2

#: Default hint used by the paper-style "same notation per instruction type" scheme.
DEFAULT_HINT = 0x25 & 0xFF


@dataclass(frozen=True)
class ControlNotation:
    """Scheduling hints for one group of up to seven instructions.

    Attributes
    ----------
    hints:
        One 8-bit hint per instruction slot.  Missing slots (for the last,
        partial group of a kernel) default to :data:`DEFAULT_HINT`.
    """

    hints: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(self.hints) > GROUP_SIZE:
            raise IsaError(f"a control notation covers at most {GROUP_SIZE} instructions")
        for hint in self.hints:
            if not 0 <= hint <= 0xFF:
                raise IsaError(f"control hint {hint:#x} does not fit in 8 bits")

    def hint_for(self, slot: int) -> int:
        """Hint for instruction ``slot`` within the group (0-based)."""
        if not 0 <= slot < GROUP_SIZE:
            raise IsaError(f"slot must be in [0, {GROUP_SIZE}), got {slot}")
        if slot < len(self.hints):
            return self.hints[slot]
        return DEFAULT_HINT

    def padded(self) -> "ControlNotation":
        """This notation with all seven slots filled in."""
        full = tuple(self.hint_for(slot) for slot in range(GROUP_SIZE))
        return ControlNotation(hints=full)

    @staticmethod
    def uniform(hint: int, count: int = GROUP_SIZE) -> "ControlNotation":
        """A notation using the same hint for ``count`` slots."""
        return ControlNotation(hints=tuple(hint for _ in range(count)))

    def stall_cycles(self, slot: int) -> int:
        """Extra stall cycles requested before issuing instruction ``slot``."""
        return self.hint_for(slot) & 0x7

    def yield_flag(self, slot: int) -> bool:
        """Whether the scheduler should yield to another warp after ``slot``."""
        return bool((self.hint_for(slot) >> 3) & 0x1)


def encode_control_word(notation: ControlNotation) -> int:
    """Pack a :class:`ControlNotation` into the 64-bit notation word.

    Layout (low to high): 4 identifier bits (0x7), then seven 8-bit hint
    fields, then 4 identifier bits (0x2) in the top nibble.
    """
    hints = notation.hints + (DEFAULT_HINT,) * (GROUP_SIZE - len(notation.hints))
    word = LOW_IDENTIFIER & 0xF
    for slot, hint in enumerate(hints):
        word |= (hint & 0xFF) << (4 + 8 * slot)
    word |= (HIGH_IDENTIFIER & 0xF) << 60
    return word


def decode_control_word(word: int) -> ControlNotation:
    """Unpack a 64-bit notation word produced by :func:`encode_control_word`.

    Raises
    ------
    IsaError
        If the identifier nibbles are not the expected 0x7 / 0x2 markers.
    """
    if word & 0xF != LOW_IDENTIFIER:
        raise IsaError("control word is missing the 0x7 low identifier nibble")
    if (word >> 60) & 0xF != HIGH_IDENTIFIER:
        raise IsaError("control word is missing the 0x2 high identifier nibble")
    hints = tuple((word >> (4 + 8 * slot)) & 0xFF for slot in range(GROUP_SIZE))
    return ControlNotation(hints=hints)


def notation_schedule_for(instruction_count: int, hint: int = DEFAULT_HINT) -> list[ControlNotation]:
    """Uniform control notations covering ``instruction_count`` instructions.

    This mirrors the paper's Kepler compromise of using the same notation for
    every instruction of a given type when the real encoding is unknown.
    """
    if instruction_count < 0:
        raise IsaError("instruction count must be non-negative")
    groups = -(-instruction_count // GROUP_SIZE) if instruction_count else 0
    notations: list[ControlNotation] = []
    for group in range(groups):
        remaining = instruction_count - group * GROUP_SIZE
        slots = min(GROUP_SIZE, remaining)
        notations.append(ControlNotation.uniform(hint, slots))
    return notations
