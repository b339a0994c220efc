"""Kernel editing and identity utilities shared by the optimization passes.

Passes transform an assembled :class:`~repro.isa.assembler.Kernel` without
going back through the parser: they produce a new instruction tuple (same
length, possibly renamed registers or a new order) and this module rebuilds a
consistent kernel around it — re-encoding every instruction so the 63-register
limit stays enforced, carrying the branch-target map over, and recording the
pass in the kernel metadata.

:func:`kernel_hash` gives kernels a stable content hash (encoded instruction
bytes, control words and launch resources).  It names kernels: the autotuner
reports each measured kernel's hash and its naive kernel's, the kernel store
records and checks the hashes of the kernels it serves, and run-ledger
records carry it.  Nothing keys a cache on it, so two configurations that
generate byte-identical kernels are each optimized and simulated.
"""

from __future__ import annotations

import hashlib
import struct

from repro.errors import AssemblyError
from repro.isa.assembler import Kernel
from repro.isa.control_notation import ControlNotation, encode_control_word
from repro.isa.encoding import encode_instruction
from repro.isa.instructions import Instruction


def replace_instructions(
    kernel: Kernel,
    instructions: tuple[Instruction, ...],
    *,
    control_notations: tuple[ControlNotation, ...] | None = None,
    metadata_updates: dict[str, object] | None = None,
) -> Kernel:
    """A copy of ``kernel`` with a new instruction stream.

    The replacement must preserve the control-flow skeleton: passes reorder or
    rewrite instructions *between* branch targets and control instructions, so
    every branch-target index of the original kernel must still be valid.

    Raises
    ------
    AssemblyError
        If the instruction count changes (which would invalidate the
        branch-target indices).
    """
    if len(instructions) != len(kernel.instructions):
        raise AssemblyError(
            f"pass changed the instruction count ({len(kernel.instructions)} -> "
            f"{len(instructions)}); branch targets would be invalidated"
        )
    encoded = tuple(encode_instruction(instruction) for instruction in instructions)
    metadata = dict(kernel.metadata)
    if metadata_updates:
        metadata.update(metadata_updates)
    return Kernel(
        name=kernel.name,
        instructions=instructions,
        branch_targets=dict(kernel.branch_targets),
        encoded=encoded,
        control_notations=(
            kernel.control_notations if control_notations is None else control_notations
        ),
        shared_memory_bytes=kernel.shared_memory_bytes,
        threads_per_block=kernel.threads_per_block,
        metadata=metadata,
    )


def kernel_hash(kernel: Kernel) -> str:
    """Stable content hash of a kernel (hex digest).

    Covers the encoded instruction stream, the branch targets, the control
    notations and the launch resources — everything that affects simulation —
    but not the kernel name or free-form metadata, so renamed-but-identical
    kernels hash equal.
    """
    # The bytes of every EncodedInstruction.to_bytes() in a row (the
    # extension word only when it is not 0), packed in one call.
    words: list[int] = []
    for encoded in kernel.encoded:
        words.append(encoded.primary)
        if encoded.extension:
            words.append(encoded.extension)
    digest = hashlib.sha256(struct.pack(f"<{len(words)}Q", *words))
    for index in sorted(kernel.branch_targets):
        digest.update(index.to_bytes(4, "little"))
        digest.update(kernel.branch_targets[index].to_bytes(4, "little"))
    controls = [encode_control_word(notation) for notation in kernel.control_notations]
    digest.update(struct.pack(f"<{len(controls)}Q", *controls))
    digest.update(kernel.shared_memory_bytes.to_bytes(8, "little"))
    digest.update(kernel.threads_per_block.to_bytes(4, "little"))
    return digest.hexdigest()
