"""Binary encoding of instructions.

The important property reproduced here is structural: Fermi and Kepler GK104
instructions are 64-bit words whose register operand fields are **six bits
wide**, so a thread can name at most 63 general-purpose registers (plus RZ).
That encoding limit is the root cause of the paper's register-blocking-factor
ceiling (Equation 2 / Section 4.5), so the encoder refuses any register index
that does not fit the field, exactly like real hardware.

The bit layout used here is a documented, self-consistent layout for this
library (NVIDIA has never published the real one); round-tripping through
:func:`encode_instruction` / :func:`decode_instruction` is lossless for the
modelled instruction set.
"""

from __future__ import annotations

from dataclasses import dataclass
import struct

from repro.errors import EncodingError
from repro.isa.instructions import (
    ConstRef,
    Immediate,
    Instruction,
    MemRef,
    Opcode,
    ISETP_OPERATORS,
)
from repro.isa.registers import Predicate, Register, RZ_INDEX, SpecialRegister

#: Width of a register operand field in bits — the source of the 63-register limit.
REGISTER_FIELD_BITS = 6

#: Maximum register index encodable in a register field.
MAX_ENCODABLE_REGISTER = (1 << REGISTER_FIELD_BITS) - 1  # 63 == RZ

_OPCODE_CODES: dict[Opcode, int] = {op: i + 1 for i, op in enumerate(Opcode)}
_CODE_OPCODES: dict[int, Opcode] = {v: k for k, v in _OPCODE_CODES.items()}

_WIDTH_CODES = {32: 0, 64: 1, 128: 2}
_CODE_WIDTHS = {v: k for k, v in _WIDTH_CODES.items()}

_SPECIAL_CODES = {sr: i for i, sr in enumerate(SpecialRegister)}
_CODE_SPECIALS = {v: k for k, v in _SPECIAL_CODES.items()}

_COMPARE_CODES = {name: i for i, name in enumerate(ISETP_OPERATORS)}
_CODE_COMPARES = {v: k for k, v in _COMPARE_CODES.items()}


def opcode_code(opcode: Opcode) -> int:
    """The numeric code the encoder assigns to ``opcode``.

    Exposed for the ISA reference generator (``docs/isa.md``); the binary
    layout itself is internal to this module.
    """
    return _OPCODE_CODES[opcode]


def _encode_register_field(register: Register | None) -> int:
    """Encode a register (or absence thereof) into a 6-bit field."""
    if register is None:
        return RZ_INDEX
    if register.index > MAX_ENCODABLE_REGISTER:
        raise EncodingError(
            f"register R{register.index} does not fit the {REGISTER_FIELD_BITS}-bit field"
        )
    return register.index


@dataclass(frozen=True)
class EncodedInstruction:
    """A 64-bit primary word plus an optional 64-bit extension word.

    The extension word carries 32-bit immediates, constant-bank offsets and
    memory offsets that do not fit the primary word — mirroring how wide
    immediates consume extra encoding space on real hardware.
    """

    primary: int
    extension: int = 0

    def __reduce__(self):
        if self.extension:
            return (_rebuild_encoded, (self.primary, {"extension": self.extension}))
        return (_rebuild_encoded, (self.primary,))

    def to_bytes(self) -> bytes:
        """Little-endian byte representation (8 or 16 bytes)."""
        if self.extension:
            return struct.pack("<QQ", self.primary, self.extension)
        return struct.pack("<Q", self.primary)


def _rebuild_encoded(primary: int, changed=None) -> EncodedInstruction:
    """The :class:`EncodedInstruction` a pickle names (its ``__reduce__``
    target): ``primary`` by position, and ``extension`` by name in
    ``changed`` when it is not 0.  Pickles name this function, so renaming
    it makes stored pickles unreadable."""
    encoded = object.__new__(EncodedInstruction)
    state = encoded.__dict__
    state["primary"] = primary
    state["extension"] = 0
    if changed:
        state.update(changed)
    return encoded


def _float_bits(value: float) -> int:
    """IEEE-754 bit pattern of a float32 value."""
    return struct.unpack("<I", struct.pack("<f", float(value)))[0]


def _bits_to_float(bits: int) -> float:
    """Float32 value for an IEEE-754 bit pattern."""
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]


def encode_instruction(instruction: Instruction) -> EncodedInstruction:
    """Encode one instruction into its binary words.

    The encoding is a pure function of the (immutable) instruction, so the
    result is memoized on the instance: optimization pipelines re-assemble
    the same instruction objects several times per kernel.

    Raises
    ------
    EncodingError
        If any operand does not fit its field — most importantly a register
        index above 63.
    """
    cached = instruction.__dict__.get("_encoded")
    if cached is not None:
        return cached
    opcode_code = _OPCODE_CODES[instruction.opcode]

    word = 0
    word |= opcode_code & 0xFF                                   # bits 0..7
    word |= (instruction.predicate.index & 0x7) << 8             # bits 8..10
    word |= (1 if instruction.predicate_negated else 0) << 11    # bit 11
    word |= _encode_register_field(instruction.dest) << 12       # bits 12..17
    word |= (_WIDTH_CODES[instruction.width] & 0x3) << 18        # bits 18..19

    if instruction.dest_predicate is not None:
        word |= (instruction.dest_predicate.index & 0x7) << 20   # bits 20..22
    if instruction.compare_op is not None:
        word |= (_COMPARE_CODES[instruction.compare_op] & 0x7) << 23  # bits 23..25
    if instruction.special is not None:
        word |= (_SPECIAL_CODES[instruction.special] & 0xF) << 26  # bits 26..29

    extension = 0
    source_slot = 0
    operand_kind_bits = 0
    for operand in instruction.sources:
        if source_slot >= 3:
            raise EncodingError("at most three source operands are encodable")
        shift = 30 + source_slot * 6
        if isinstance(operand, Register):
            word |= _encode_register_field(operand) << shift
            kind = 0
        elif isinstance(operand, Immediate):
            if isinstance(operand.value, float):
                if source_slot >= 2:
                    raise EncodingError("float immediates only encodable in slots 0 and 1")
                extension |= _float_bits(operand.value) << (32 * source_slot)
            else:
                imm = int(operand.value) & 0xFFFFFFFF
                if source_slot >= 2:
                    # The extension word only has room for two 32-bit
                    # operands; a third integer immediate rides in the free
                    # top bits of the primary word instead.  Five bits cover
                    # the one producer of slot-2 immediates, ISCADD's shift
                    # count — the same field width real hardware gives it.
                    if not 0 <= int(operand.value) < 32:
                        raise EncodingError(
                            "slot-2 immediates must fit the 5-bit shift field"
                        )
                    word |= (imm & 0x1F) << 59
                else:
                    extension |= imm << (32 * source_slot)
            kind = 1 if isinstance(operand.value, int) else 2
        elif isinstance(operand, ConstRef):
            if source_slot >= 2:
                raise EncodingError("constant operands only encodable in slots 0 and 1")
            packed = ((operand.bank & 0xF) << 20) | (operand.offset & 0xFFFFF)
            extension |= packed << (32 * source_slot)
            kind = 3
        elif isinstance(operand, MemRef):
            word |= _encode_register_field(operand.base) << shift
            if not 0 <= operand.offset < (1 << 20):
                raise EncodingError("memory offsets must fit in 20 bits")
            if source_slot >= 2:
                raise EncodingError("memory operands only encodable in slots 0 and 1")
            extension |= (operand.offset & 0xFFFFF) << (32 * source_slot)
            kind = 4
        else:
            raise EncodingError(f"operand {operand!r} is not encodable")
        operand_kind_bits |= (kind & 0x7) << (source_slot * 3)
        source_slot += 1

    word |= (source_slot & 0x3) << 48                            # bits 48..49
    word |= (operand_kind_bits & 0x1FF) << 50                    # bits 50..58
    if instruction.target is not None:
        # Branch displacement is resolved by the assembler; the raw encoding
        # stores a placeholder in the extension word's top half.
        extension |= 0x1 << 63
    encoded = EncodedInstruction(primary=word, extension=extension)
    instruction.__dict__["_encoded"] = encoded
    return encoded


def decode_instruction(encoded: EncodedInstruction) -> Instruction:
    """Decode binary words produced by :func:`encode_instruction`.

    Branch targets cannot be recovered without the surrounding kernel's label
    table, so decoded BRA instructions carry a synthetic ``Ldecoded`` label.
    """
    from repro.isa.instructions import Label  # local import to avoid a cycle at module load

    word = encoded.primary
    opcode_code = word & 0xFF
    if opcode_code not in _CODE_OPCODES:
        raise EncodingError(f"unknown opcode code {opcode_code}")
    opcode = _CODE_OPCODES[opcode_code]

    pred_index = (word >> 8) & 0x7
    negated = bool((word >> 11) & 0x1)
    dest_index = (word >> 12) & 0x3F
    width = _CODE_WIDTHS[(word >> 18) & 0x3]
    dest_pred_index = (word >> 20) & 0x7
    compare_code = (word >> 23) & 0x7
    special_code = (word >> 26) & 0xF
    source_count = (word >> 48) & 0x3
    operand_kind_bits = (word >> 50) & 0x1FF

    sources: list[object] = []
    for slot in range(source_count):
        kind = (operand_kind_bits >> (slot * 3)) & 0x7
        reg_field = (word >> (30 + slot * 6)) & 0x3F
        ext_field = (encoded.extension >> (32 * slot)) & 0xFFFFFFFF
        if kind == 0:
            sources.append(Register(reg_field))
        elif kind == 1:
            if slot >= 2:  # 5-bit shift field in the primary word (ISCADD)
                sources.append(Immediate((word >> 59) & 0x1F))
            else:
                sources.append(Immediate(ext_field if ext_field < 2**31 else ext_field - 2**32))
        elif kind == 2:
            sources.append(Immediate(_bits_to_float(ext_field)))
        elif kind == 3:
            sources.append(ConstRef(bank=(ext_field >> 20) & 0xF, offset=ext_field & 0xFFFFF))
        elif kind == 4:
            sources.append(MemRef(base=Register(reg_field), offset=ext_field & 0xFFFFF))
        else:
            raise EncodingError(f"unknown operand kind {kind}")

    dest = None if dest_index == RZ_INDEX and opcode not in (Opcode.MOV, Opcode.FFMA) else Register(dest_index)
    if opcode in (Opcode.STS, Opcode.ST, Opcode.BRA, Opcode.BAR, Opcode.EXIT, Opcode.NOP, Opcode.ISETP):
        dest = None

    return Instruction(
        opcode=opcode,
        dest=dest,
        sources=tuple(sources),
        predicate=Predicate(pred_index),
        predicate_negated=negated,
        width=width,
        dest_predicate=Predicate(dest_pred_index) if opcode is Opcode.ISETP else None,
        compare_op=_CODE_COMPARES[compare_code] if opcode is Opcode.ISETP else None,
        special=_CODE_SPECIALS[special_code] if opcode is Opcode.S2R else None,
        target=Label("Ldecoded") if opcode is Opcode.BRA else None,
    )
