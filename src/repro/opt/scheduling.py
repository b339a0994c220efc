"""Latency-aware list scheduling of straight-line regions.

The paper's hand-written kernels carefully order the main loop so that
shared-memory loads issue early enough to hide their latency behind the FFMA
stream, keeping the FFMA:LDS interleave near the analytic ratio.  This pass
reproduces that discipline mechanically:

* the kernel is split into **regions** at control-flow boundaries — branch
  targets, BRA/BAR/EXIT instructions — which never move;
* inside each region a dependence DAG is built (register RAW/WAR/WAW,
  predicate dependences, and per-memory-space load/store ordering);
* a list scheduler emits the region in a new order: at each step it picks,
  among the dependence-ready instructions, the one heading the longest
  latency-weighted path to the region exit (critical path first).

Any topological order of the region DAG preserves the kernel's semantics
(cross-region order is untouched and all same-register and same-memory-space
orderings are kept), so the pass is safe by construction; ``optimize_kernel``
additionally re-validates structural invariants after it runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.arch.specs import GpuSpec
from repro.isa.assembler import Kernel
from repro.isa.instructions import Instruction, MemSpace
from repro.opt.liveness import def_use
from repro.opt.rewrite import replace_instructions
from repro.sim.pipelines import LatencyTable, latency_table_for


@dataclass(frozen=True)
class ScheduleStats:
    """What the scheduler did to one kernel.

    Attributes
    ----------
    regions:
        Number of schedulable regions found.
    instructions_moved:
        Instructions whose position changed relative to program order.
    """

    regions: int
    instructions_moved: int


#: Dependence kinds; RAW carries the producer latency, the rest only ordering.
_RAW, _ORDER = 0, 1

#: Offset of predicate names above the register indices in the DAG builder.
_PREDICATE_NAME = 64


def _region_boundaries(kernel: Kernel) -> list[tuple[int, int]]:
    """Half-open [start, stop) index ranges of schedulable regions."""
    count = len(kernel.instructions)
    cuts = set(kernel.branch_targets.values())
    regions: list[tuple[int, int]] = []
    start = 0
    for index, instruction in enumerate(kernel.instructions):
        if index in cuts and index > start:
            regions.append((start, index))
            start = index
        if instruction.is_control:
            if index > start:
                regions.append((start, index))
            start = index + 1
    if count > start:
        regions.append((start, count))
    return regions


def _build_dag(
    instructions: list[Instruction],
) -> tuple[list[list[tuple[int, int]]], list[list[int]]]:
    """Dependence DAG of one region.

    Returns ``(preds, succs)`` where ``preds[i]`` holds ``(j, kind)`` edges
    meaning instruction ``i`` depends on ``j`` (kind RAW or ORDER).
    """
    preds: list[list[tuple[int, int]]] = [[] for _ in instructions]
    succs: list[list[int]] = [[] for _ in instructions]

    # Dependence names: register r is r, predicate p is _PREDICATE_NAME + p.
    last_write: dict[int, int] = {}
    reads_since_write: dict[int, list[int]] = {}
    last_store: dict[MemSpace, int] = {}
    loads_since_store: dict[MemSpace, list[int]] = {}

    def add_edge(producer: int, consumer: int, kind: int) -> None:
        if producer == consumer:
            return
        preds[consumer].append((producer, kind))
        succs[producer].append(consumer)

    for index, instruction in enumerate(instructions):
        du = def_use(instruction)
        uses = du.reg_uses + tuple(_PREDICATE_NAME + p for p in du.pred_uses)
        defs = du.reg_defs + tuple(_PREDICATE_NAME + p for p in du.pred_defs)

        for name in uses:
            if name in last_write:
                add_edge(last_write[name], index, _RAW)
            reads_since_write.setdefault(name, []).append(index)
        for name in defs:
            if name in last_write:
                add_edge(last_write[name], index, _ORDER)  # WAW
            for reader in reads_since_write.get(name, ()):
                add_edge(reader, index, _ORDER)  # WAR
            last_write[name] = index
            reads_since_write[name] = []

        space = instruction.memory_space
        if space is not None:
            is_store = instruction.is_shared_store or instruction.is_global_store
            if is_store:
                if space in last_store:
                    add_edge(last_store[space], index, _ORDER)
                for load in loads_since_store.get(space, ()):
                    add_edge(load, index, _ORDER)
                last_store[space] = index
                loads_since_store[space] = []
            else:
                if space in last_store:
                    add_edge(last_store[space], index, _RAW)
                loads_since_store.setdefault(space, []).append(index)
    return preds, succs


def _critical_path(
    instructions: list[Instruction],
    succs: list[list[int]],
    latencies: LatencyTable,
) -> list[float]:
    """Longest latency-weighted path from each instruction to the region exit."""
    count = len(instructions)
    path = [0.0] * count
    for index in range(count - 1, -1, -1):
        tail = max((path[s] for s in succs[index]), default=0.0)
        path[index] = latencies.latency_for(instructions[index]) + tail
    return path


def _schedule_region(instructions: list[Instruction], latencies: LatencyTable) -> list[int]:
    """List-schedule one region; returns the new order as original indices.

    Selection is pure critical-path-first: among dependence-ready
    instructions, the one heading the longest latency-weighted chain issues
    next.  On a latency-hiding machine this is the right objective — a warp
    that stalls on a just-issued load costs nothing while other warps fill
    the bubble, but *delaying* a long-latency load delays everything behind
    it in every warp.  (A readiness-horizon scheduler that avoids own-thread
    stalls — optimal for an in-order CPU — measurably regresses the
    simulated SGEMM by pushing the prologue's global loads behind cheap
    accumulator initialisation.)  Ties go to the earlier instruction.
    """
    count = len(instructions)
    if count <= 1:
        return list(range(count))
    preds, succs = _build_dag(instructions)
    priority = _critical_path(instructions, succs, latencies)

    unscheduled_preds = [len(p) for p in preds]
    # A heap of (-priority, index): the most urgent ready instruction pops
    # first, the earlier one on a tie.
    ready = [(-priority[i], i) for i in range(count) if unscheduled_preds[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, chosen = heapq.heappop(ready)
        order.append(chosen)
        for successor in succs[chosen]:
            unscheduled_preds[successor] -= 1
            if unscheduled_preds[successor] == 0:
                heapq.heappush(ready, (-priority[successor], successor))

    if len(order) != count:  # pragma: no cover - DAG is acyclic by construction
        raise AssertionError("list scheduler failed to schedule every instruction")
    return order


def schedule_kernel(kernel: Kernel, *, gpu: GpuSpec) -> tuple[Kernel, ScheduleStats]:
    """Reorder independent instructions to hide latency.

    ``gpu``'s latency table drives the critical-path priorities.
    """
    latencies = latency_table_for(gpu)
    instructions = list(kernel.instructions)
    permutation: list[int] = []  # original index of each new position
    moved = 0
    regions = 0
    cursor = 0
    for start, stop in _region_boundaries(kernel):
        while cursor < start:  # control instructions between regions stay put
            permutation.append(cursor)
            cursor += 1
        regions += 1
        order = _schedule_region(instructions[start:stop], latencies)
        moved += sum(1 for position, original in enumerate(order) if position != original)
        permutation.extend(start + original for original in order)
        cursor = stop
    while cursor < len(instructions):
        permutation.append(cursor)
        cursor += 1
    new_order = [instructions[original] for original in permutation]

    # Per-instruction control hints must follow their instructions: permute
    # the hint bytes and re-pack them into per-group notations.  (Without
    # this, a stall hint meant for a load would land on whatever instruction
    # was moved into the load's old slot.)
    notations = kernel.control_notations
    if notations:
        from repro.isa.control_notation import GROUP_SIZE
        from repro.opt.control_hints import build_notations

        old_hints = [
            kernel.control_notation_for(index).hint_for(index % GROUP_SIZE)
            for index in range(len(instructions))
        ]
        notations = build_notations([old_hints[original] for original in permutation])

    stats = ScheduleStats(regions=regions, instructions_moved=moved)
    scheduled = replace_instructions(
        kernel,
        tuple(new_order),
        control_notations=notations if kernel.control_notations else None,
        metadata_updates={"opt.scheduled": True},
    )
    return scheduled, stats
