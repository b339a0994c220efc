"""Assembler: turn a :class:`Program` into an executable :class:`Kernel`.

A :class:`Kernel` bundles everything the simulator, the analyses and the
benchmarks need:

* the resolved instruction stream (labels converted to instruction indices),
* the binary encoding of every instruction (which is where the 63-register
  limit is enforced),
* the Kepler control notations (one word per group of seven instructions),
* resource metadata: registers used, shared memory used, threads per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AssemblyError
from repro.isa.instructions import cached_property
from repro.isa.control_notation import ControlNotation, GROUP_SIZE
from repro.isa.encoding import EncodedInstruction, encode_instruction
from repro.isa.instructions import Instruction, Opcode, Program
from repro.isa.parser import parse_program


@dataclass(frozen=True)
class Kernel:
    """An assembled kernel ready for simulation and analysis.

    Attributes
    ----------
    name:
        Kernel name.
    instructions:
        The resolved instruction stream in program order.
    branch_targets:
        For each instruction index holding a BRA, the index of its target.
    encoded:
        Binary encodings, one per instruction.
    control_notations:
        Kepler scheduling words, one per group of seven instructions (empty
        for Fermi-only kernels).
    shared_memory_bytes:
        Static shared-memory allocation per block.
    threads_per_block:
        Block size the kernel was generated for (0 when unspecified).
    metadata:
        Free-form annotations (blocking factor, variant, …).
    """

    name: str
    instructions: tuple[Instruction, ...]
    branch_targets: dict[int, int] = field(default_factory=dict)
    encoded: tuple[EncodedInstruction, ...] = ()
    control_notations: tuple[ControlNotation, ...] = ()
    shared_memory_bytes: int = 0
    threads_per_block: int = 0
    metadata: dict[str, object] = field(default_factory=dict)

    def __getstate__(self) -> dict:
        """The declared fields: what :attr:`register_count` and the analyses
        cache on a kernel is recomputed on use, never pickled."""
        state = self.__dict__
        return {name: state[name] for name in self.__dataclass_fields__}

    @property
    def instruction_count(self) -> int:
        """Number of instructions in the kernel."""
        return len(self.instructions)

    @cached_property
    def register_count(self) -> int:
        """Number of architectural registers the kernel touches.

        Computed as 1 + the highest register index read or written (ignoring
        RZ), which matches how the hardware allocates a contiguous register
        window per thread.  Cached: kernels are immutable and the walk over
        every operand of every instruction is hot in autotune sweeps.
        """
        highest = -1
        for instruction in self.instructions:
            for register in instruction.registers_written:
                if register.index > highest and not register.is_zero:
                    highest = register.index
            for register in instruction.registers_read:
                if register.index > highest and not register.is_zero:
                    highest = register.index
        return highest + 1

    def instruction_mix(self) -> dict[str, int]:
        """Histogram of instruction mnemonics (with memory width suffixes)."""
        mix: dict[str, int] = {}
        for instruction in self.instructions:
            mix[instruction.mnemonic] = mix.get(instruction.mnemonic, 0) + 1
        return mix

    def ffma_fraction(self) -> float:
        """Fraction of instructions that are FFMA (static count)."""
        if not self.instructions:
            return 0.0
        ffma = sum(1 for instruction in self.instructions if instruction.is_ffma)
        return ffma / len(self.instructions)

    def control_notation_for(self, instruction_index: int) -> ControlNotation | None:
        """The control notation covering ``instruction_index``, if any."""
        if not self.control_notations:
            return None
        group = instruction_index // GROUP_SIZE
        if group >= len(self.control_notations):
            return None
        return self.control_notations[group]

    def binary_size_bytes(self) -> int:
        """Size of the encoded kernel, including Kepler control words."""
        instruction_bytes = sum(len(enc.to_bytes()) for enc in self.encoded)
        return instruction_bytes + 8 * len(self.control_notations)


def assemble(
    program: Program,
    *,
    shared_memory_bytes: int = 0,
    threads_per_block: int = 0,
    metadata: dict[str, object] | None = None,
) -> Kernel:
    """Assemble a :class:`Program` into a :class:`Kernel`.

    Parameters
    ----------
    program:
        Parsed or programmatically built instruction stream.
    shared_memory_bytes:
        Static shared-memory allocation the kernel requires per block.
    threads_per_block:
        Block size the kernel expects (stored as metadata; the simulator can
        still launch other sizes for micro-benchmarks).
    metadata:
        Annotations merged under the program's own.

    Raises
    ------
    AssemblyError
        If a branch references an undefined label or the program ends without
        an EXIT on a fall-through path.
    """
    instructions = program.instructions
    label_positions = program.label_positions()

    branch_targets: dict[int, int] = {}
    for index, instruction in enumerate(instructions):
        if instruction.opcode is Opcode.BRA:
            assert instruction.target is not None  # guaranteed by Instruction validation
            target_name = instruction.target.name
            if target_name not in label_positions:
                raise AssemblyError(f"branch to undefined label '{target_name}'")
            target_index = label_positions[target_name]
            if target_index > len(instructions):
                raise AssemblyError(f"label '{target_name}' points past the end of the kernel")
            branch_targets[index] = target_index

    return Kernel(
        name=program.name,
        instructions=instructions,
        branch_targets=branch_targets,
        encoded=tuple(encode_instruction(instruction) for instruction in instructions),
        shared_memory_bytes=shared_memory_bytes,
        threads_per_block=threads_per_block,
        metadata=dict(metadata or {}) | dict(program.metadata),
    )


def assemble_text(
    text: str,
    *,
    name: str = "kernel",
    shared_memory_bytes: int = 0,
    threads_per_block: int = 0,
) -> Kernel:
    """Parse assembly text and assemble it in one step."""
    program = parse_program(text, name=name)
    return assemble(
        program,
        shared_memory_bytes=shared_memory_bytes,
        threads_per_block=threads_per_block,
    )
