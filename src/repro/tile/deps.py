"""Dependence analysis: the legality core behind every scheduling primitive.

Every question a scheduling primitive asks — "may these loops interchange?",
"may this loop fission?", "is this subtree safe to batch-unroll?" — reduces
to one analysis: for every pair of accesses to the same tensor where at least
one access writes, which *iteration distances* can separate the two accesses?

The engine computes, per statement pair, a **dependence distance vector**
over the loops enclosing both accesses.  Accesses are affine, extents are
concrete integers, so each tensor dimension yields one linear equation over
the per-loop distances ``δ_v`` (and over "free" variables: loops enclosing
only one side, and the synthetic window coordinates of ``Stage``/``Unstage``
bulk copies).  The solver runs interval-constraint propagation with a GCD
feasibility test:

* an infeasible system (0 excluded from the attainable range, or the GCD of
  the coefficients not dividing the constant) proves *independence* — no
  dependence is recorded;
* a distance whose interval collapses to a point is **exact** (the classic
  constant-distance entry);
* anything else stays in the conservative **unknown** lattice element ``*``
  (rendered so in diagnostics), optionally with a provable sign.

Non-affine constructs never reach the solver — the IR is affine by
construction — but the same lattice discipline applies wherever the solver
cannot pin a distance: primitives must treat ``*`` as "any distance,
including the hostile one".  Guards are *ignored* (the analysis
over-approximates the guarded iteration space), which is conservative for
every transformation the primitives perform.

The primitive-facing checks (:func:`check_reorder`, :func:`check_fission`,
:func:`check_unroll`) return the *blocking* :class:`Dependence` (or ``None``
when the rewrite is legal), so a rejection can name the exact dependence in
its :class:`~repro.errors.ScheduleError`.

>>> from repro.tile import library
>>> from repro.tile.deps import dependences
>>> for dep in dependences(library.matmul_proc(m=2, n=2, k=2)):
...     print(dep.describe())
flow dependence on 'C' at distance (i: 0, j: 0): 'C[i, j] = 0.0' -> 'C[i, j] += (A[i, k] * B[k, j])'
output dependence on 'C' at distance (i: 0, j: 0): 'C[i, j] = 0.0' -> 'C[i, j] += (A[i, k] * B[k, j])'
anti dependence on 'C' at distance (i: 0, j: 0, k: *): 'C[i, j] += (A[i, k] * B[k, j])' -> 'C[i, j] += (A[i, k] * B[k, j])'
output dependence on 'C' at distance (i: 0, j: 0, k: *): 'C[i, j] += (A[i, k] * B[k, j])' -> 'C[i, j] += (A[i, k] * B[k, j])'
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from repro.tile.ir import (
    Affine,
    Assign,
    Guard,
    Loop,
    Proc,
    Stage,
    Stmt,
    Unstage,
    expr_reads,
)

__all__ = [
    "Access",
    "Dependence",
    "collect_accesses",
    "dependences",
    "solve_pair",
    "check_reorder",
    "check_fission",
    "check_unroll",
    "check_double_buffer",
]


# --------------------------------------------------------------------------- #
# Accesses.                                                                    #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Access:
    """One tensor access site with its full static context.

    ``loops`` is the stack of enclosing loop variables (outer → inner);
    ``free`` holds synthetic window coordinates (``Stage``/``Unstage`` walk a
    whole window per execution) with their extents.  ``implicit`` marks the
    read half of an accumulating ``+=`` — it is performed *inside* the
    instruction, so it can never be hoisted apart from its write (the
    batching hazard check exploits this).
    """

    tensor: str
    index: tuple[Affine, ...]
    is_write: bool
    position: int
    loops: tuple[str, ...]
    guards: tuple[tuple[Affine, int], ...] = ()
    free: tuple[tuple[str, int], ...] = ()
    implicit: bool = False
    stmt: str = ""

    def describe(self) -> str:
        return self.stmt or f"{self.tensor}[{', '.join(str(i) for i in self.index)}]"


def collect_accesses(
    stmts: tuple[Stmt, ...],
    *,
    base_loops: tuple[str, ...] = (),
    base_guards: tuple[tuple[Affine, int], ...] = (),
    counter_start: int = 0,
) -> list[Access]:
    """Every access in ``stmts``, with loop/guard context and textual order."""
    found: list[Access] = []
    counter = [counter_start]
    window = [0]

    def fresh_window(extent: int) -> tuple[str, int]:
        window[0] += 1
        return (f"%w{window[0]}", extent)

    def add(tensor: str, index: tuple[Affine, ...], is_write: bool,
            loops: tuple[str, ...], guards, free=(), implicit=False,
            stmt: str = "") -> None:
        found.append(
            Access(
                tensor=tensor,
                index=index,
                is_write=is_write,
                position=counter[0],
                loops=loops,
                guards=tuple(guards),
                free=tuple(free),
                implicit=implicit,
                stmt=stmt,
            )
        )
        counter[0] += 1

    def visit(stmts_: tuple[Stmt, ...], loops: tuple[str, ...], guards) -> None:
        for stmt in stmts_:
            if isinstance(stmt, Loop):
                visit(stmt.body, loops + (stmt.var,), guards)
            elif isinstance(stmt, Guard):
                visit(stmt.body, loops, guards + ((stmt.expr, stmt.bound),))
            elif isinstance(stmt, Assign):
                text = str(stmt)
                for r in expr_reads(stmt.value):
                    add(r.tensor, r.index, False, loops, guards, stmt=text)
                if stmt.accumulate:
                    add(stmt.tensor, stmt.index, False, loops, guards,
                        implicit=True, stmt=text)
                add(stmt.tensor, stmt.index, True, loops, guards, stmt=text)
            elif isinstance(stmt, Stage):
                text = str(stmt)
                coords = [fresh_window(size) for size in stmt.sizes]
                src_index = list(stmt.base)
                buf_index = []
                for buffer_dim, tensor_dim in enumerate(stmt.axes):
                    name, _ = coords[buffer_dim]
                    src_index[tensor_dim] = src_index[tensor_dim] + Affine.var(name)
                    buf_index.append(Affine.var(name))
                add(stmt.tensor, tuple(src_index), False, loops, guards,
                    free=coords, stmt=text)
                add(stmt.buffer, tuple(buf_index), True, loops, guards,
                    free=coords, stmt=text)
            elif isinstance(stmt, Unstage):
                text = str(stmt)
                coords = [fresh_window(size) for size in stmt.sizes]
                dst_index = tuple(
                    base + Affine.var(coords[d][0]) for d, base in enumerate(stmt.base)
                )
                add(stmt.buffer, (Affine.constant(0),), False, loops, guards,
                    free=coords, stmt=text)
                add(stmt.tensor, dst_index, True, loops, guards,
                    free=coords, stmt=text)

    visit(stmts, base_loops, base_guards)
    return found


# --------------------------------------------------------------------------- #
# Dependences and the distance solver.                                         #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Dependence:
    """A may-dependence between two accesses of the same tensor.

    ``loops`` are the loops enclosing both accesses (outer → inner);
    ``ranges`` bounds the per-loop iteration distance ``sink − source``; an
    entry that collapses to one value is an exact distance, anything wider is
    the conservative unknown ``*``.  ``source`` is always the textually
    earlier access.
    """

    kind: str  # "flow" | "anti" | "output"
    tensor: str
    source: Access
    sink: Access
    loops: tuple[str, ...]
    ranges: tuple[tuple[int, int], ...]

    @property
    def distance(self) -> tuple[int | None, ...]:
        """Exact per-loop distances (``None`` = unknown)."""
        return tuple(lo if lo == hi else None for lo, hi in self.ranges)

    def range_of(self, var: str) -> tuple[int, int] | None:
        """The distance interval of ``var`` (``None`` when not a common loop)."""
        for name, bounds in zip(self.loops, self.ranges):
            if name == var:
                return bounds
        return None

    def distance_str(self) -> str:
        parts = []
        for var, (lo, hi) in zip(self.loops, self.ranges):
            parts.append(f"{var}: {lo}" if lo == hi else f"{var}: *")
        return "(" + ", ".join(parts) + ")"

    def describe(self) -> str:
        source, sink = self.source.describe(), self.sink.describe()
        return (
            f"{self.kind} dependence on '{self.tensor}' at distance "
            f"{self.distance_str()}: '{source}' -> '{sink}'"
        )


def _classify(source: Access, sink: Access) -> str:
    if source.is_write and sink.is_write:
        return "output"
    return "flow" if source.is_write else "anti"


def _common_prefix(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    common: list[str] = []
    for x, y in zip(a, b):
        if x != y:
            break
        common.append(x)
    return tuple(common)


def _tighten(
    equations: list[tuple[dict[str, int], int]],
    bounds: dict[str, tuple[int, int]],
) -> dict[str, tuple[int, int]] | None:
    """Interval-constraint propagation over ``Σ coeff·var + const == 0``.

    Returns tightened bounds, or ``None`` when the system is infeasible
    (which proves independence).
    """
    # The live-coefficient sets and divisibility screen are invariant across
    # propagation passes — hoist them out of the fixed-point loop.
    prepared: list[tuple[dict[str, int], int]] = []
    for coeffs, const in equations:
        live = {v: c for v, c in coeffs.items() if c != 0}
        if not live:
            if const != 0:
                return None
            continue
        divisor = 0
        for c in live.values():
            divisor = gcd(divisor, abs(c))
        if divisor and const % divisor:
            return None
        prepared.append((live, const))

    for _ in range(64):
        changed = False
        for live, const in prepared:
            lo = hi = const
            for var, c in live.items():
                vlo, vhi = bounds[var]
                lo += min(c * vlo, c * vhi)
                hi += max(c * vlo, c * vhi)
            if lo > 0 or hi < 0:
                return None
            for var, c in live.items():
                vlo, vhi = bounds[var]
                rest_lo = lo - min(c * vlo, c * vhi)
                rest_hi = hi - max(c * vlo, c * vhi)
                # c·var must equal -(rest) for some rest in [rest_lo, rest_hi].
                new_lo, new_hi = _solve_interval(c, rest_lo, rest_hi)
                if new_lo > vlo:
                    vlo, changed = new_lo, True
                if new_hi < vhi:
                    vhi, changed = new_hi, True
                if vlo > vhi:
                    return None
                bounds[var] = (vlo, vhi)
        if not changed:
            return bounds
    return bounds


def _solve_interval(coeff: int, rest_lo: int, rest_hi: int) -> tuple[int, int]:
    """Integer ``var`` range satisfying ``coeff·var + rest == 0`` for some
    ``rest`` in ``[rest_lo, rest_hi]`` — i.e. ``coeff·var ∈ [-rest_hi, -rest_lo]``."""
    lo_num, hi_num = -rest_hi, -rest_lo
    if coeff < 0:
        coeff, lo_num, hi_num = -coeff, -hi_num, -lo_num
    # var >= lo_num / coeff (ceil), var <= hi_num / coeff (floor)
    lo = -((-lo_num) // coeff)
    hi = hi_num // coeff
    return lo, hi


def solve_pair(
    a: Access, b: Access, extents: dict[str, int]
) -> Dependence | None:
    """The dependence between ``a`` and ``b``, or ``None`` when independent.

    ``a`` must be the textually earlier access; the distance is the iteration
    of ``b`` minus the iteration of ``a`` over their common loops.
    """
    if a.tensor != b.tensor or not (a.is_write or b.is_write):
        return None
    common = _common_prefix(a.loops, b.loops)
    if len(a.index) != len(b.index):
        # Rank mismatch (a collapsed register buffer against its full-rank
        # bulk copy): no equations to solve — assume every distance.
        return Dependence(
            kind=_classify(a, b),
            tensor=a.tensor,
            source=a,
            sink=b,
            loops=common,
            ranges=tuple(
                (-(extents[v] - 1), extents[v] - 1) for v in common
            ),
        )
    bounds: dict[str, tuple[int, int]] = {}
    for var in common:
        span = extents[var] - 1
        bounds[f"δ{var}"] = (-span, span)
    free_ranges: dict[str, int] = {}
    for side, access in (("a", a), ("b", b)):
        for var in access.loops[len(common):]:
            free_ranges[f"{side}.{var}"] = extents[var]
        for var, extent in access.free:
            free_ranges[f"{side}.{var}"] = extent
    for name, extent in free_ranges.items():
        bounds[name] = (0, extent - 1)

    equations: list[tuple[dict[str, int], int]] = []
    for dim in range(len(a.index)):
        ia, ib = a.index[dim], b.index[dim]
        coeffs: dict[str, int] = {}
        const = ib.const - ia.const
        for var in common:
            ca, cb = ia.coeff(var), ib.coeff(var)
            if cb:
                coeffs[f"δ{var}"] = coeffs.get(f"δ{var}", 0) + cb
            if cb != ca:
                # The absolute iteration matters: treat it as a free value.
                name = f"v.{var}"
                bounds.setdefault(name, (0, extents[var] - 1))
                coeffs[name] = coeffs.get(name, 0) + (cb - ca)
        handled = set(common)
        for var in ia.vars() - handled:
            key = f"a.{var}"
            if key not in bounds:  # pragma: no cover - defensive
                bounds[key] = (0, extents.get(var, 1) - 1)
            coeffs[key] = coeffs.get(key, 0) - ia.coeff(var)
        for var in ib.vars() - handled:
            key = f"b.{var}"
            if key not in bounds:  # pragma: no cover - defensive
                bounds[key] = (0, extents.get(var, 1) - 1)
            coeffs[key] = coeffs.get(key, 0) + ib.coeff(var)
        equations.append((coeffs, const))

    solved = _tighten(equations, bounds)
    if solved is None:
        return None
    ranges = tuple(solved[f"δ{var}"] for var in common)
    if a.position == b.position and all(lo == hi == 0 for lo, hi in ranges):
        return None  # an access trivially "depends" on its own instance
    return Dependence(
        kind=_classify(a, b),
        tensor=a.tensor,
        source=a,
        sink=b,
        loops=common,
        ranges=ranges,
    )


def _pairwise(
    group_a: list[Access],
    group_b: list[Access],
    extents: dict[str, int],
) -> list[Dependence]:
    """Dependences between two textual groups (``group_a`` earlier)."""
    found: list[Dependence] = []
    for a in group_a:
        for b in group_b:
            dep = solve_pair(a, b, extents)
            if dep is not None:
                found.append(dep)
    return found


def dependences(proc: Proc, *, tensor: str | None = None) -> list[Dependence]:
    """All may-dependences of ``proc`` (optionally restricted to ``tensor``).

    Pairs are oriented textually (source first); self-pairs of one statement
    across iterations are included — the accumulation chain of a ``+=`` shows
    up as the classic ``(0, ..., *)`` flow/output pair on its own statement.
    """
    extents = {var: loop.extent for var, loop in proc.loops().items()}
    accesses = collect_accesses(proc.body)
    if tensor is not None:
        accesses = [a for a in accesses if a.tensor == tensor]
    found: list[Dependence] = []
    for i, a in enumerate(accesses):
        for b in accesses[i:]:
            dep = solve_pair(a, b, extents)
            if dep is not None:
                found.append(dep)
    return found


# --------------------------------------------------------------------------- #
# Primitive-facing legality checks.                                            #
# --------------------------------------------------------------------------- #


def _carried_outside(dep: Dependence, var: str) -> bool:
    """Whether an exact non-zero distance on a loop outside ``var`` fixes the
    execution order of every instance pair regardless of inner interchanges."""
    for name, (lo, hi) in zip(dep.loops, dep.ranges):
        if name == var:
            return False
        if lo == hi and lo != 0:
            return True
    return False


def check_reorder(proc: Proc, outer: str, inner: str) -> Dependence | None:
    """The dependence blocking ``reorder(outer, inner)``, or ``None``.

    Interchange reverses the execution order exactly of instance pairs whose
    distances on ``(outer, inner)`` have strictly opposite signs; a
    dependence is blocking unless that sign pattern is provably impossible.
    Only accesses nested in both loops can form such a pair: any other pair
    has no distance on one of the two loops, so it is never solved.
    """
    extents = {var: loop.extent for var, loop in proc.loops().items()}
    accesses = [
        access for access in collect_accesses(proc.body)
        if outer in access.loops and inner in access.loops
    ]
    for i, a in enumerate(accesses):
        for b in accesses[i:]:
            if a.tensor != b.tensor or not (a.is_write or b.is_write):
                continue
            dep = solve_pair(a, b, extents)
            if dep is None:
                continue
            d_outer, d_inner = dep.range_of(outer), dep.range_of(inner)
            if d_outer is None or d_inner is None:
                continue  # not carried by this pair of loops
            if _carried_outside(dep, outer):
                continue
            olo, ohi = d_outer
            ilo, ihi = d_inner
            if olo == ohi == 0 or ilo == ihi == 0:
                continue
            if (olo >= 0 and ilo >= 0) or (ohi <= 0 and ihi <= 0):
                continue
            return dep
    return None


def check_fission(
    proc: Proc,
    loop: Loop,
    first: tuple[Stmt, ...],
    second: tuple[Stmt, ...],
    *,
    path: tuple[str, ...],
    guards: tuple[tuple[Affine, int], ...] = (),
) -> Dependence | None:
    """The dependence blocking ``fission`` of ``loop`` into the two groups.

    Fission runs all iterations of ``first`` before any iteration of
    ``second``; that reverses exactly the instance pairs where a ``second``
    statement at iteration *i* precedes a ``first`` statement at iteration
    *j > i* — i.e. a cross-group dependence with a possibly *negative*
    distance on the fissioned loop.
    """
    extents = {var: inner.extent for var, inner in proc.loops().items()}
    base = path + (loop.var,)
    group_a = collect_accesses(first, base_loops=base, base_guards=guards)
    group_b = collect_accesses(
        second, base_loops=base, base_guards=guards,
        counter_start=len(group_a),
    )
    for dep in _pairwise(group_a, group_b, extents):
        interval = dep.range_of(loop.var)
        if interval is None:  # pragma: no cover - loop.var always common
            return dep
        if interval[0] < 0:
            return dep
    return None


def check_double_buffer(
    proc: Proc, loop: Loop, stage: Stage, *, path: tuple[str, ...]
) -> Dependence | None:
    """The dependence blocking ``double_buffer`` of ``stage`` in ``loop``.

    Double buffering commits the lowering to *prefetching*: the staged window
    of iteration ``i`` is read from global memory during iteration ``i − 1``
    (the loads land in the inactive tile while the compute still reads the
    active one).  That is only sound when no value the window reads is
    produced too late: a cross-iteration flow from a write inside the loop
    into the staged window must have an **exact** distance of at least 2
    iterations — distance 1 means the producing write and the prefetching
    read share an iteration, and an unknown (``*``) distance may hide exactly
    that case, so both are rejected.  Same-iteration writes after the stage
    (``δ = 0`` anti direction) are harmless: the stage semantically reads the
    pre-write value, and the prefetch reads it even earlier.

    ``stage_shared`` never creates this situation (it requires the staged
    tensor to be read-only inside the loop), so schedules built from the
    primitives always pass; the check guards hand-constructed IR.
    """
    extents = {var: inner.extent for var, inner in proc.loops().items()}
    accesses = collect_accesses(loop.body, base_loops=path + (loop.var,))
    stage_text = str(stage)
    window_reads = [
        a for a in accesses
        if a.tensor == stage.tensor and not a.is_write and a.stmt == stage_text
    ]
    writes = [a for a in accesses if a.tensor == stage.tensor and a.is_write]
    for read in window_reads:
        for write in writes:
            a, b = (read, write) if read.position <= write.position else (write, read)
            dep = solve_pair(a, b, extents)
            if dep is None:
                continue
            interval = dep.range_of(loop.var)
            if interval is None:  # pragma: no cover - loop.var always common
                return dep
            lo, hi = interval
            if a is read:
                # δ = write iter − read iter; the write feeds the window when
                # δ ≤ −1, and the prefetch honors only δ ≤ −2.
                if lo <= -1 <= hi:
                    return dep
            else:
                # Write textually before the stage: it feeds the window at
                # δ ≥ 0, but the prefetch reads one iteration early, so δ of
                # 0 or 1 both land after the load was issued.
                if lo <= 1 and hi >= 0:
                    return dep
    return None


def check_unroll(proc: Proc, loop: Loop, *, path: tuple[str, ...]) -> Dependence | None:
    """The dependence blocking full unrolling of ``loop``.

    The lowering emits unrolled subtrees batch-wise: every (explicit) operand
    read of the batch is hoisted ahead of the batch's arithmetic and stores.
    That is only sound when no *memory* value written inside the batch is
    also read inside it — a flow dependence through a non-register tensor
    whose distance on every loop *outside* the subtree can be zero (register
    buffers resolve to registers, and the implicit read of a ``+=`` happens
    inside its own instruction; neither is hoisted).
    """
    extents = {var: inner.extent for var, inner in proc.loops().items()}
    outside = set(path)
    accesses = collect_accesses(loop.body, base_loops=path + (loop.var,))
    writes = [
        a for a in accesses
        if a.is_write and not (
            proc.is_buffer(a.tensor) and proc.buffer(a.tensor).memory == "register"
        )
    ]
    reads = [
        a for a in accesses
        if not a.is_write and not a.implicit and not (
            proc.is_buffer(a.tensor) and proc.buffer(a.tensor).memory == "register"
        )
    ]
    for w in writes:
        for r in reads:
            a, b = (w, r) if w.position <= r.position else (r, w)
            dep = solve_pair(a, b, extents)
            if dep is None:
                continue
            hoistable = True
            for name, (lo, hi) in zip(dep.loops, dep.ranges):
                if name in outside and not (lo <= 0 <= hi):
                    hoistable = False  # carried strictly outside the batch
                    break
            if hoistable:
                return dep
    return None
