"""Kepler control-notation assignment (per-7-instruction scheduling words).

Section 3.2 of the paper describes how the Kepler toolchain embeds one 64-bit
scheduling word per group of seven instructions, and reports that a *bad*
notation costs a large fraction of peak while a per-instruction-type notation
recovers it.  :func:`repro.isa.control_notation.notation_schedule_for`
models the uniform fallback (one hint for every slot, default ``0x25`` —
2.5 stall cycles per instruction on the simulator).  This pass assigns
**per-instruction** hints instead: zero stall bits everywhere, and the yield
flag after long-latency instructions (shared/global memory operations and
barriers) so a real scheduler would switch warps behind them.  On the
simulator, which derives dependence stalls from its scoreboard and reads
only the stall bits, this is the fastest legal notation — the "good
notation" of the paper's story.
"""

from __future__ import annotations

from repro.isa.assembler import Kernel
from repro.isa.control_notation import GROUP_SIZE, ControlNotation
from repro.opt.rewrite import replace_instructions

#: Yield-to-another-warp flag (bit 3 of the hint byte).
YIELD_FLAG = 0x08


def build_notations(hints: list[int]) -> tuple[ControlNotation, ...]:
    """Pack per-instruction hint bytes into per-group control notations."""
    notations: list[ControlNotation] = []
    for start in range(0, len(hints), GROUP_SIZE):
        notations.append(ControlNotation(hints=tuple(hints[start : start + GROUP_SIZE])))
    return tuple(notations)


def assign_control_hints(kernel: Kernel) -> Kernel:
    """Attach per-instruction Kepler control notations to ``kernel``.

    Every hint has zero stall bits; memory operations and barriers also
    carry :data:`YIELD_FLAG`.
    """
    hints = [
        YIELD_FLAG if instruction.is_memory or instruction.is_barrier else 0
        for instruction in kernel.instructions
    ]
    return replace_instructions(
        kernel,
        kernel.instructions,
        control_notations=build_notations(hints),
        metadata_updates={"opt.control_hints": True},
    )
