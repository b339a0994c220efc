"""Derive upper-bound resource counts from the loop nest itself.

The hand-written workloads carry hand-derived traffic formulas (Eq. 6-style
accounting done on paper); a tile-IR proc *is* that accounting.  Walking the
scheduled nest and multiplying by loop extents yields, exactly:

* ``flops`` — one per ``mul``/``add`` evaluation (an FFMA counts two);
* ``dram_bytes`` — direct tensor-parameter accesses, each staged window
  (counted once per *block*, because the cooperative copy is executed by the
  block, not per thread — the one place the interpreter's per-thread
  re-execution and the hardware cost model differ), and the write-backs;
* ``shared_bytes`` — staging-buffer writes (the window, once per block) plus
  the per-thread reads of shared buffers, counted per *distinct address*
  within an unrolled subtree: the lowering caches a loaded operand in a
  register for the whole batch, so a value read by all six FFMAs of a row
  costs one LDS, exactly the paper's ``2·B_R`` per-k-step accounting.

Guarded statements count only the iterations whose predicate holds, so
``predicate_tail`` schedules report the true (not rounded-up) traffic.

The result plugs straight into
:func:`repro.model.analyse_workload_bound` — deriving the paper's bound
inputs from the IR instead of re-deriving them per workload by hand.
"""

from __future__ import annotations

from itertools import product

from repro.arch.occupancy import OccupancyCalculator, OccupancyResult
from repro.arch.specs import GpuSpec
from repro.model.workload_bounds import WorkloadResources
from repro.tile.ir import (
    Assign,
    BinOp,
    Expr,
    Guard,
    Loop,
    LoopKind,
    Proc,
    Stage,
    Stmt,
    Unstage,
    expr_reads,
)

__all__ = ["proc_resources", "proc_shared_footprint", "proc_occupancy"]

#: The architectural per-thread register budget every lowering stays inside.
REGISTER_BUDGET = 63


def proc_shared_footprint(proc: Proc) -> int:
    """Shared-memory bytes one block of ``proc`` allocates, as lowered.

    Uses the lowering's actual layout (:func:`repro.tile.lower.shared_layout`),
    so double-buffered tiles are priced at their true cost: two copies *plus*
    the power-of-two alignment hole the parity-XOR addressing needs.
    """
    from repro.tile.lower import shared_layout

    return shared_layout(proc.buffers)[1]


def proc_occupancy(proc: Proc, gpu: GpuSpec, *,
                   registers_per_thread: int = REGISTER_BUDGET) -> OccupancyResult:
    """Occupancy of ``proc`` on ``gpu`` from its launch geometry and footprint.

    Raises :class:`~repro.errors.ResourceLimitError` when the configuration
    cannot be resident at all — e.g. when a double-buffered schedule's
    doubled tiles exceed the SM's shared-memory capacity.  The autotuner uses
    exactly that signal to prune schedules whose doubled tiles kill
    occupancy before simulating them.
    """
    from repro.tile.lower import launch_geometry

    geometry = launch_geometry(proc)
    return OccupancyCalculator(gpu).resolve(
        threads_per_block=geometry.threads_per_block,
        registers_per_thread=registers_per_thread,
        shared_memory_per_block=proc_shared_footprint(proc),
    )


def _expr_flops(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return 1 + _expr_flops(expr.lhs) + _expr_flops(expr.rhs)
    return 0


def _enumerated_fraction(guards, ranges: dict[str, int]) -> float:
    """Exact satisfied fraction of one guard group by enumeration."""
    involved = sorted({v for expr, _ in guards for v in expr.vars()})
    if not involved:
        return 1.0 if all(expr.const < bound for expr, bound in guards) else 0.0
    total = 0
    satisfied = 0
    for values in product(*(range(ranges[v]) for v in involved)):
        env = dict(zip(involved, values))
        total += 1
        if all(expr.evaluate(env) < bound for expr, bound in guards):
            satisfied += 1
    return satisfied / total if total else 1.0


def _independent_groups(items, vars_of) -> list[tuple[set[str], list]]:
    """Partition ``items`` into groups whose variable sets are disjoint."""
    groups: list[tuple[set[str], list]] = []
    for item in items:
        merged: tuple[set[str], list] = (set(vars_of(item)), [item])
        remaining = []
        for group_vars, group_items in groups:
            if group_vars & merged[0]:
                merged = (merged[0] | group_vars, merged[1] + group_items)
            else:
                remaining.append((group_vars, group_items))
        groups = remaining + [merged]
    return groups


def _guard_fraction(guards, ranges: dict[str, int]) -> float:
    """Fraction of iterations (over the guard expressions' variables) that
    satisfy every active guard.

    Guards over disjoint variable sets are independent, so the fraction
    factorises over connected components — the i/j/k tail guards of a
    predicated SGEMM each enumerate their own few hundred points instead of
    one cross product over the whole iteration space.
    """
    if not guards:
        return 1.0
    fraction = 1.0
    for _, group_guards in _independent_groups(guards, lambda guard: guard[0].vars()):
        fraction *= _enumerated_fraction(group_guards, ranges)
    return fraction


def _window_elements(base, sizes_by_dim: dict[int, int], limits,
                     ranges: dict[str, int], rank: int) -> float:
    """Mean in-bounds elements of one bulk-copy window per execution.

    Unclipped windows are their full size; clipped windows average the
    per-dimension in-bounds counts over the values of the base expressions'
    loop variables (the boundary tiles of an imperfect problem copy fewer
    elements, and that is the *compulsory* traffic the bound model prices).
    Clipped dimensions whose bases share no variable vary independently, so
    the sum over every combination of values is the product of each
    group's own sum: exact integers, divided once.
    """
    sizes = [sizes_by_dim.get(dim, 1) for dim in range(rank)]
    clipped = [dim for dim in range(rank) if limits and limits[dim] is not None]
    total = 1
    for dim in range(rank):
        if dim not in clipped:
            total *= sizes[dim]
    count = 1
    for group_vars, dims in _independent_groups(clipped, lambda dim: base[dim].vars()):
        involved = sorted(group_vars)
        group_total = 0
        for values in product(*(range(ranges[v]) for v in involved)):
            env = dict(zip(involved, values))
            elements = 1
            for dim in dims:
                in_bounds = min(sizes[dim], limits[dim] - base[dim].evaluate(env))
                elements *= max(0, in_bounds)
            group_total += elements
        total *= group_total
        for var in involved:
            count *= ranges[var]
    return total / count


def proc_resources(proc: Proc) -> WorkloadResources:
    """Count flops and DRAM/shared traffic of one full execution of ``proc``.

    Works on naive and scheduled procs alike; on a scheduled proc the staging
    structure is priced the way the simulator prices it (cooperative copies
    once per block, buffer reads per thread).
    """
    is_shared = {
        b.name for b in proc.buffers if b.memory == "shared"
    }
    is_register = {
        b.name for b in proc.buffers if b.memory == "register"
    }

    flops = 0.0
    dram = 0.0
    shared = 0.0

    def access(tensor: str, count: float) -> None:
        nonlocal dram, shared
        if tensor in is_register:
            return
        if tensor in is_shared:
            shared += 4 * count
        else:
            dram += 4 * count

    def visit(stmts: tuple[Stmt, ...], trip: float, thread_trip: float,
              ranges: dict[str, int], guards, unrolled: dict[str, int]) -> None:
        nonlocal flops
        for stmt in stmts:
            if isinstance(stmt, Loop):
                inner_ranges = {**ranges, stmt.var: stmt.extent}
                inner_unrolled = unrolled
                if stmt.kind is LoopKind.UNROLL:
                    inner_unrolled = {**unrolled, stmt.var: stmt.extent}
                if stmt.kind.is_thread:
                    visit(stmt.body, trip * stmt.extent,
                          thread_trip * stmt.extent, inner_ranges, guards,
                          inner_unrolled)
                else:
                    visit(stmt.body, trip * stmt.extent, thread_trip,
                          inner_ranges, guards, inner_unrolled)
            elif isinstance(stmt, Guard):
                visit(stmt.body, trip, thread_trip, ranges,
                      guards + ((stmt.expr, stmt.bound),), unrolled)
            elif isinstance(stmt, Assign):
                count = trip * _guard_fraction(guards, ranges)
                flops += count * (
                    _expr_flops(stmt.value) + (1 if stmt.accumulate else 0)
                )
                for r in expr_reads(stmt.value):
                    # A value whose address is invariant across enclosing
                    # unrolled loops is loaded once and reused from a
                    # register (the lowering's batch cache).
                    reuse = 1
                    varies = frozenset().union(*(i.vars() for i in r.index)) \
                        if r.index else frozenset()
                    for var, extent in unrolled.items():
                        if var not in varies:
                            reuse *= extent
                    access(r.tensor, count / reuse)
                if stmt.accumulate and stmt.tensor not in is_register:
                    # Read-modify-write touches the element twice.
                    access(stmt.tensor, count)
                access(stmt.tensor, count)
            elif isinstance(stmt, Stage):
                rank = len(stmt.base)
                sizes_by_dim = {
                    stmt.axes[bd]: stmt.sizes[bd] for bd in range(len(stmt.axes))
                }
                window = _window_elements(
                    stmt.base, sizes_by_dim, stmt.limits, ranges, rank
                )
                full_window = 1
                for size in stmt.sizes:
                    full_window *= size
                # The cooperative copy runs once per block: divide out the
                # thread-loop multiplicity the IR's per-thread semantics add.
                block_trip = trip / max(thread_trip, 1.0)
                access(stmt.tensor, block_trip * window)          # global reads
                access(stmt.buffer, block_trip * full_window)     # shared writes
            elif isinstance(stmt, Unstage):
                rank = len(stmt.base)
                sizes_by_dim = {dim: stmt.sizes[dim] for dim in range(rank)}
                window = _window_elements(
                    stmt.base, sizes_by_dim, stmt.limits, ranges, rank
                )
                access(stmt.tensor, trip * window)

    visit(proc.body, 1.0, 1.0, {}, (), {})
    return WorkloadResources(
        flops=int(round(flops)),
        dram_bytes=int(round(dram)),
        shared_bytes=int(round(shared)),
    )
