"""SASS inspection helpers for lowered kernels, imported as ``tile_inspect``.

A plain module with a name of its own, not a ``conftest``, so collecting
several test directories together cannot hand a test another directory's
helpers.
"""

from __future__ import annotations

from repro.isa.instructions import Opcode


def barriers_per_main_loop(kernel) -> int:
    """``BAR.SYNC`` count of one main-loop iteration of ``kernel``.

    The main loop is identified structurally: among the kernel's backward
    branches (a ``BRA`` whose target precedes it), the one whose body spans
    the most instructions is the staging loop.  The count pins the barrier
    economics of the lowering — the classic pipelined path pays
    ``BAR; STS; BAR`` (2 per iteration), the double-buffered path exactly 1.

    Returns 0 when the kernel has no backward branch (fully unrolled).
    """
    backward = [
        (target, index)
        for index, target in kernel.branch_targets.items()
        if target <= index
    ]
    if not backward:
        return 0
    target, index = max(backward, key=lambda span: span[1] - span[0])
    return sum(
        1
        for instruction in kernel.instructions[target:index + 1]
        if instruction.opcode is Opcode.BAR
    )
