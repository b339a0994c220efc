"""The schedulable loop-nest IR.

A :class:`Proc` is a kernel written as a naive loop nest over sized tensors:
``Loop`` nodes with concrete integer extents, ``Assign`` statements whose
indices are affine expressions of the surrounding loop variables, and two
staging nodes (``Stage``/``Unstage``) that the scheduling primitives insert
when a tensor window is staged through shared memory or registers.

The IR is deliberately small — it expresses exactly the kernels the paper
hand-writes (dense affine loop nests with accumulation), nothing more.  Its
semantics are defined by the NumPy interpreter (:mod:`repro.tile.interp`),
which serves as the oracle every scheduling rewrite and the SASS lowering are
validated against.

Design choices mirror the rest of the repository:

* **Extents and shapes are concrete integers.**  The existing generators
  specialise kernels per problem size (leading dimensions folded into
  immediate offsets); the IR does the same, which keeps affine arithmetic in
  plain ``int`` and the lowering free of division code.
* **Everything is immutable.**  Scheduling primitives are pure
  ``Proc -> Proc`` functions; a schedule is an ordinary Python composition.
* **Loop bindings are loop attributes.**  ``split``/``reorder`` restructure
  the tree; ``bind_block``/``bind_thread``/``unroll`` only retag a loop.  The
  interpreter ignores tags entirely, which is what makes "every schedule is
  semantics-preserving" checkable by running both versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, Union

from repro.errors import TileError

# --------------------------------------------------------------------------- #
# Affine index expressions.                                                    #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Affine:
    """An affine expression ``const + Σ coeff · var`` over loop variables.

    Terms are kept sorted by variable name with zero coefficients dropped, so
    structurally equal expressions compare equal.

    >>> i, j = Affine.var("i"), Affine.var("j")
    >>> str(i * 4 + j + 1)
    '4*i + j + 1'
    >>> (i * 4 + j).evaluate({"i": 2, "j": 3})
    11
    """

    const: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine(const=int(value))

    @staticmethod
    def var(name: str, coeff: int = 1) -> "Affine":
        return Affine(terms=_normalise({name: coeff}))

    # -- algebra ---------------------------------------------------------- #

    def __add__(self, other: Union["Affine", int]) -> "Affine":
        other = to_affine(other)
        if not other.terms:
            return Affine(const=self.const + other.const, terms=self.terms)
        if not self.terms:
            return Affine(const=self.const + other.const, terms=other.terms)
        merged = dict(self.terms)
        for name, coeff in other.terms:
            merged[name] = merged.get(name, 0) + coeff
        return Affine(const=self.const + other.const, terms=_normalise(merged))

    __radd__ = __add__

    def __sub__(self, other: Union["Affine", int]) -> "Affine":
        return self + to_affine(other) * -1

    def __mul__(self, factor: int) -> "Affine":
        if not isinstance(factor, int):
            raise TileError("affine expressions can only be scaled by integers")
        if factor == 0:
            return Affine(const=0)
        # Scaling by a non-zero factor kills no term and keeps the name order,
        # so the result is already normalised.
        return Affine(
            const=self.const * factor,
            terms=tuple((name, coeff * factor) for name, coeff in self.terms),
        )

    __rmul__ = __mul__

    # -- queries ---------------------------------------------------------- #

    def vars(self) -> frozenset[str]:
        """Variables with a non-zero coefficient."""
        return frozenset(name for name, _ in self.terms)

    def coeff(self, name: str) -> int:
        """Coefficient of ``name`` (0 when absent)."""
        for term_name, term_coeff in self.terms:
            if term_name == name:
                return term_coeff
        return 0

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def evaluate(self, env: dict[str, int]) -> int:
        """Value of the expression under a variable assignment."""
        total = self.const
        for name, coeff in self.terms:
            if name not in env:
                raise TileError(f"unbound loop variable '{name}' in {self}")
            total += coeff * env[name]
        return total

    def substitute(self, mapping: dict[str, "Affine"]) -> "Affine":
        """Replace variables by affine expressions."""
        const = self.const
        merged: dict[str, int] = {}
        for name, coeff in self.terms:
            repl = mapping.get(name)
            if repl is None:
                merged[name] = merged.get(name, 0) + coeff
            else:
                const += repl.const * coeff
                for rname, rcoeff in repl.terms:
                    merged[rname] = merged.get(rname, 0) + rcoeff * coeff
        return Affine(const=const, terms=_normalise(merged))

    def bounds(self, ranges: dict[str, int]) -> tuple[int, int]:
        """(min, max) over ``var in [0, ranges[var])`` for every variable."""
        lo = hi = self.const
        for name, coeff in self.terms:
            if name not in ranges:
                raise TileError(f"no range known for loop variable '{name}'")
            span = coeff * (ranges[name] - 1)
            lo += min(0, span)
            hi += max(0, span)
        return lo, hi

    def split_terms(self, offset_vars: frozenset[str]) -> tuple["Affine", "Affine"]:
        """Split into (base, offset): offset holds the ``offset_vars`` terms."""
        base: dict[str, int] = {}
        offset: dict[str, int] = {}
        for name, coeff in self.terms:
            (offset if name in offset_vars else base)[name] = coeff
        return (
            Affine(const=self.const, terms=_normalise(base)),
            Affine(terms=_normalise(offset)),
        )

    def __str__(self) -> str:
        parts = [
            (f"{coeff}*{name}" if coeff != 1 else name) for name, coeff in self.terms
        ]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def _normalise(terms: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((n, c) for n, c in terms.items() if c != 0))


IndexLike = Union[Affine, int, str]


def to_affine(value: IndexLike) -> Affine:
    """Coerce an int (constant) or str (variable) into an :class:`Affine`."""
    if isinstance(value, Affine):
        return value
    if isinstance(value, bool):
        raise TileError("bool is not a valid index expression")
    if isinstance(value, int):
        return Affine.constant(value)
    if isinstance(value, str):
        return Affine.var(value)
    raise TileError(f"cannot convert {value!r} into an affine expression")


# --------------------------------------------------------------------------- #
# Value expressions.                                                           #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Read:
    """A scalar read ``tensor[index...]`` (tensor parameter or staging buffer)."""

    tensor: str
    index: tuple[Affine, ...]

    def __str__(self) -> str:
        return f"{self.tensor}[{', '.join(str(i) for i in self.index)}]"


@dataclass(frozen=True)
class Const:
    """A float32 literal."""

    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BinOp:
    """``lhs op rhs`` with ``op`` in {'add', 'mul'} (float32 semantics)."""

    op: str
    lhs: "Expr"
    rhs: "Expr"

    def __post_init__(self) -> None:
        if self.op not in ("add", "mul"):
            raise TileError(f"unsupported operator '{self.op}'")

    def __str__(self) -> str:
        symbol = "+" if self.op == "add" else "*"
        return f"({self.lhs} {symbol} {self.rhs})"


Expr = Union[Read, Const, BinOp]


def read(tensor: str, *index: IndexLike) -> Read:
    """Convenience constructor: ``read("A", "i", "k")`` → ``A[i, k]``."""
    return Read(tensor=tensor, index=tuple(to_affine(i) for i in index))


def mul(lhs: Expr, rhs: Expr) -> BinOp:
    return BinOp(op="mul", lhs=lhs, rhs=rhs)


def add(lhs: Expr, rhs: Expr) -> BinOp:
    return BinOp(op="add", lhs=lhs, rhs=rhs)


def expr_reads(expr: Expr) -> Iterator[Read]:
    """All :class:`Read` leaves of an expression."""
    if isinstance(expr, Read):
        yield expr
    elif isinstance(expr, BinOp):
        yield from expr_reads(expr.lhs)
        yield from expr_reads(expr.rhs)


def map_expr_reads(expr: Expr, fn) -> Expr:
    """Rebuild an expression with ``fn`` applied to every :class:`Read`."""
    if isinstance(expr, Read):
        return fn(expr)
    if isinstance(expr, BinOp):
        return BinOp(op=expr.op, lhs=map_expr_reads(expr.lhs, fn), rhs=map_expr_reads(expr.rhs, fn))
    return expr


# --------------------------------------------------------------------------- #
# Statements.                                                                  #
# --------------------------------------------------------------------------- #


class LoopKind(str, Enum):
    """How a loop executes after lowering.

    ``SEQ`` loops become SASS counter/branch loops, ``UNROLL`` loops are fully
    expanded at lowering time, and the four binding kinds map iterations onto
    the launch grid (block indices) or the threads of a block.
    """

    SEQ = "seq"
    UNROLL = "unroll"
    BLOCK_X = "block_x"
    BLOCK_Y = "block_y"
    THREAD_X = "thread_x"
    THREAD_Y = "thread_y"

    @property
    def is_block(self) -> bool:
        return self in (LoopKind.BLOCK_X, LoopKind.BLOCK_Y)

    @property
    def is_thread(self) -> bool:
        return self in (LoopKind.THREAD_X, LoopKind.THREAD_Y)


@dataclass(frozen=True)
class Assign:
    """``tensor[index...] = value`` or, with ``accumulate``, ``+= value``."""

    tensor: str
    index: tuple[Affine, ...]
    value: Expr
    accumulate: bool = False

    def __str__(self) -> str:
        op = "+=" if self.accumulate else "="
        return f"{self.tensor}[{', '.join(str(i) for i in self.index)}] {op} {self.value}"


@dataclass(frozen=True)
class Loop:
    """``for var in range(extent): body`` with a lowering tag."""

    var: str
    extent: int
    body: tuple["Stmt", ...]
    kind: LoopKind = LoopKind.SEQ

    def __post_init__(self) -> None:
        if self.extent < 1:
            raise TileError(f"loop '{self.var}' must have extent >= 1, got {self.extent}")


@dataclass(frozen=True)
class Guard:
    """``if expr < bound: body`` — the predicated tail of an imperfect split."""

    expr: Affine
    bound: int
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class Stage:
    """Bulk copy of a tensor window into a staging buffer.

    ``buffer[o0, o1, ...] = tensor[base + permute(o)]`` for every offset tuple
    ``o`` with ``o_d < sizes[d]``; ``axes[d]`` names the tensor dimension that
    buffer dimension ``d`` walks (so ``axes=(1, 0)`` stages a 2-D window
    transposed).  Inserted by ``stage_shared``; the lowering turns it into a
    barrier-fenced cooperative load, optionally software-pipelined
    (``prefetch``) the way the paper's main loop prefetches the next tile
    while computing on the current one.

    ``limits`` (one entry per *tensor* dimension, ``None`` = unclipped) marks
    a window that may overhang the tensor: only elements with
    ``base_d + offset_d < limits[d]`` are copied, the rest of the buffer
    reads as zero.  ``stage_shared`` derives the limits from ``predicate_tail``
    guards, which is what lets boundary tiles of an imperfect problem size
    stage a full-shape buffer.

    ``parity`` names the sequential loop whose iteration parity selects which
    of a double-buffered target's two tiles the copy fills (and the compute
    reads): iteration ``i`` uses tile ``i % 2``.  Set by the ``double_buffer``
    scheduling primitive, always together with the target buffer's ``double``
    flag; the lowering exploits it to drop one of the two per-iteration
    barriers.
    """

    buffer: str
    tensor: str
    base: tuple[Affine, ...]
    sizes: tuple[int, ...]
    axes: tuple[int, ...]
    prefetch: bool = True
    limits: tuple[int | None, ...] = ()
    parity: str | None = None

    def __str__(self) -> str:
        base = ", ".join(str(b) for b in self.base)
        clip = ""
        if any(limit is not None for limit in self.limits):
            clip = f" clip<{list(self.limits)}"
        par = f" parity({self.parity})" if self.parity else ""
        return f"stage {self.buffer}{list(self.sizes)} <- {self.tensor}[{base} ...]{clip}{par}"


@dataclass(frozen=True)
class Unstage:
    """Bulk copy of a register-staged buffer back into its tensor window.

    ``limits`` (one entry per tensor dimension, ``None`` = unclipped) marks a
    window that may overhang the tensor: only elements with
    ``base_d + offset_d < limits[d]`` are stored.  ``stage_registers`` derives
    the limits from ``predicate_tail`` guards around the staged accesses — the
    predicated epilogue stores of a boundary tile.

    ``parity`` mirrors :class:`Stage.parity` for the (rare) write-back from a
    double-buffered shared buffer: the copy reads tile ``parity % 2``.
    """

    tensor: str
    base: tuple[Affine, ...]
    buffer: str
    sizes: tuple[int, ...]
    limits: tuple[int | None, ...] = ()
    parity: str | None = None

    def __str__(self) -> str:
        base = ", ".join(str(b) for b in self.base)
        clip = ""
        if any(limit is not None for limit in self.limits):
            clip = f" clip<{list(self.limits)}"
        par = f" parity({self.parity})" if self.parity else ""
        return f"unstage {self.tensor}[{base} ...] <- {self.buffer}{list(self.sizes)}{clip}{par}"


Stmt = Union[Assign, Loop, Guard, Stage, Unstage]


# --------------------------------------------------------------------------- #
# Procedures.                                                                  #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class TensorParam:
    """A sized tensor parameter (float32, row-major)."""

    name: str
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.shape or any(s < 1 for s in self.shape):
            raise TileError(f"tensor '{self.name}' must have positive dimensions")

    @property
    def size(self) -> int:
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    def strides(self) -> tuple[int, ...]:
        """Row-major element strides."""
        strides = [1] * len(self.shape)
        for d in range(len(self.shape) - 2, -1, -1):
            strides[d] = strides[d + 1] * self.shape[d + 1]
        return tuple(strides)


@dataclass(frozen=True)
class Buffer:
    """A staging buffer introduced by a scheduling primitive.

    ``memory`` is ``"shared"`` (cooperatively filled, barrier-fenced) or
    ``"register"`` (per-thread scalars).  Shared buffers may carry a row
    ``pad`` — extra words appended to the innermost dimension, the paper's
    §5.1 bank-conflict padding.

    ``double`` marks a double-buffered shared tile: the allocation holds
    *two* copies of ``shape`` and the ``Stage`` filling it alternates between
    them by the parity of its staging loop (``Stage.parity``).  ``shape``,
    ``padded_shape`` and ``size_words`` keep describing one tile; the
    lowering's shared-memory layout doubles the footprint.
    """

    name: str
    shape: tuple[int, ...]
    memory: str
    pad: int = 0
    double: bool = False

    def __post_init__(self) -> None:
        if self.memory not in ("shared", "register"):
            raise TileError(f"buffer memory must be 'shared' or 'register', got {self.memory!r}")
        if self.pad and self.memory != "shared":
            raise TileError("only shared buffers can be padded")
        if self.double and self.memory != "shared":
            raise TileError("only shared buffers can be double-buffered")
        if not self.shape or any(s < 1 for s in self.shape):
            raise TileError(f"buffer '{self.name}' must have positive dimensions")

    @property
    def padded_shape(self) -> tuple[int, ...]:
        """Allocation shape: the innermost dimension grown by ``pad`` words."""
        return self.shape[:-1] + (self.shape[-1] + self.pad,)

    @property
    def size_words(self) -> int:
        total = 1
        for dim in self.padded_shape:
            total *= dim
        return total

    def strides(self) -> tuple[int, ...]:
        """Row-major element strides over the *padded* allocation."""
        padded = self.padded_shape
        strides = [1] * len(padded)
        for d in range(len(padded) - 2, -1, -1):
            strides[d] = strides[d + 1] * padded[d + 1]
        return tuple(strides)


@dataclass(frozen=True)
class Proc:
    """A kernel as a loop nest over tensor parameters.

    ``params`` order is the kernel-parameter ABI: the lowering expects the
    pointer for ``params[i]`` at constant-bank offset ``0x20 + 4 i``, matching
    :class:`repro.sim.memory.KernelParams`.
    """

    name: str
    params: tuple[TensorParam, ...]
    body: tuple[Stmt, ...]
    buffers: tuple[Buffer, ...] = field(default=())

    def _param_map(self) -> dict[str, TensorParam]:
        cached = self.__dict__.get("_params_by_name")
        if cached is None:
            cached = {p.name: p for p in self.params}
            object.__setattr__(self, "_params_by_name", cached)
        return cached

    def _buffer_map(self) -> dict[str, "Buffer"]:
        cached = self.__dict__.get("_buffers_by_name")
        if cached is None:
            cached = {b.name: b for b in self.buffers}
            object.__setattr__(self, "_buffers_by_name", cached)
        return cached

    def param(self, name: str) -> TensorParam:
        param = self._param_map().get(name)
        if param is None:
            raise TileError(f"proc '{self.name}' has no tensor parameter '{name}'")
        return param

    def buffer(self, name: str) -> "Buffer":
        buffer = self._buffer_map().get(name)
        if buffer is None:
            raise TileError(f"proc '{self.name}' has no staging buffer '{name}'")
        return buffer

    def is_buffer(self, name: str) -> bool:
        return name in self._buffer_map()

    def outputs(self) -> tuple[str, ...]:
        """Names of tensor parameters the proc writes (in param order)."""
        written: set[str] = set()
        for stmt in walk_stmts(self.body):
            if isinstance(stmt, Assign) and not self.is_buffer(stmt.tensor):
                written.add(stmt.tensor)
            elif isinstance(stmt, Unstage):
                written.add(stmt.tensor)
        return tuple(p.name for p in self.params if p.name in written)

    def loops(self) -> dict[str, Loop]:
        """Every loop keyed by its variable name.

        Cached per (immutable) proc: the schedule primitives and the
        dependence analysis look loops up far more often than trees change.
        Callers treat the mapping as read-only.
        """
        cached = self.__dict__.get("_loops_by_var")
        if cached is not None:
            return cached
        found: dict[str, Loop] = {}
        for stmt in walk_stmts(self.body):
            if isinstance(stmt, Loop):
                if stmt.var in found:
                    raise TileError(f"duplicate loop variable '{stmt.var}'")
                found[stmt.var] = stmt
        object.__setattr__(self, "_loops_by_var", found)
        return found

    def find_loop(self, var: str) -> Loop:
        loop = self.loops().get(var)
        if loop is None:
            known = ", ".join(sorted(self.loops())) or "<none>"
            raise TileError(f"no loop '{var}' in proc '{self.name}' (loops: {known})")
        return loop

    def with_body(self, body: tuple[Stmt, ...]) -> "Proc":
        return replace(self, body=body)

    def __str__(self) -> str:
        lines = [f"proc {self.name}({', '.join(f'{p.name}: f32{list(p.shape)}' for p in self.params)})"]
        for buffer in self.buffers:
            lines.append(f"  {buffer.memory} {buffer.name}: f32{list(buffer.shape)}"
                         + (f" pad={buffer.pad}" if buffer.pad else "")
                         + (" x2" if buffer.double else ""))
        _format_stmts(self.body, lines, indent=1)
        return "\n".join(lines)


def _format_stmts(stmts: tuple[Stmt, ...], lines: list[str], indent: int) -> None:
    pad = "  " * indent
    for stmt in stmts:
        if isinstance(stmt, Loop):
            tag = "" if stmt.kind is LoopKind.SEQ else f"  # {stmt.kind.value}"
            lines.append(f"{pad}for {stmt.var} in {stmt.extent}:{tag}")
            _format_stmts(stmt.body, lines, indent + 1)
        elif isinstance(stmt, Guard):
            lines.append(f"{pad}if {stmt.expr} < {stmt.bound}:")
            _format_stmts(stmt.body, lines, indent + 1)
        else:
            lines.append(f"{pad}{stmt}")


def walk_stmts(stmts: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """Depth-first pre-order walk over a statement tree.

    One generator with an explicit stack of sibling iterators, so a
    statement costs the same at any depth.
    """
    stack = [iter(stmts)]
    while stack:
        for stmt in stack[-1]:
            yield stmt
            if isinstance(stmt, (Loop, Guard)):
                stack.append(iter(stmt.body))
                break
        else:
            stack.pop()


def map_stmts(stmts: tuple[Stmt, ...], fn) -> tuple[Stmt, ...]:
    """Rebuild a statement tree bottom-up.

    ``fn`` receives each (already-rebuilt) statement and returns a statement,
    a tuple of statements (splice) or ``None`` (drop).
    """
    result: list[Stmt] = []
    for stmt in stmts:
        if isinstance(stmt, (Loop, Guard)):
            # Rebuild only when the body actually changed (same objects in the
            # same order) — most primitives rewrite one region and leave the
            # rest of the tree untouched.
            body = map_stmts(stmt.body, fn)
            old = stmt.body
            if len(body) != len(old) or any(
                n is not o for n, o in zip(body, old)
            ):
                stmt = replace(stmt, body=body)
        mapped = fn(stmt)
        if mapped is None:
            continue
        if isinstance(mapped, tuple):
            result.extend(mapped)
        else:
            result.append(mapped)
    return tuple(result)


def substitute_stmts(stmts: tuple[Stmt, ...], mapping: dict[str, Affine]) -> tuple[Stmt, ...]:
    """Substitute loop variables by affine expressions everywhere."""

    def sub_affine(a: Affine) -> Affine:
        return a.substitute(mapping)

    def sub_expr(expr: Expr) -> Expr:
        return map_expr_reads(
            expr, lambda r: Read(tensor=r.tensor, index=tuple(sub_affine(i) for i in r.index))
        )

    def fn(stmt: Stmt):
        if isinstance(stmt, Assign):
            return Assign(
                tensor=stmt.tensor,
                index=tuple(sub_affine(i) for i in stmt.index),
                value=sub_expr(stmt.value),
                accumulate=stmt.accumulate,
            )
        if isinstance(stmt, Guard):
            return replace(stmt, expr=sub_affine(stmt.expr))
        if isinstance(stmt, Stage):
            return replace(stmt, base=tuple(sub_affine(b) for b in stmt.base))
        if isinstance(stmt, Unstage):
            return replace(stmt, base=tuple(sub_affine(b) for b in stmt.base))
        return stmt

    return map_stmts(stmts, fn)


# --------------------------------------------------------------------------- #
# Static checking.                                                             #
# --------------------------------------------------------------------------- #


def check_proc(proc: Proc) -> None:
    """Static sanity check: names, nesting tags and index bounds.

    Raises :class:`~repro.errors.TileError` on duplicate loop variables,
    unknown tensors, multiply-bound block/thread axes, or any access whose
    static interval (every loop variable ranging over its extent) can fall
    outside the tensor or buffer shape.

    A proc that passed once is marked and not re-checked: every schedule
    primitive checks its result, and the same object then reaches the
    lowering and the interpreter.
    """
    if proc.__dict__.get("_check_proc_passed"):
        return
    proc.loops()  # raises on duplicate loop variables

    names = {p.name for p in proc.params} | {b.name for b in proc.buffers}
    if len(names) != len(proc.params) + len(proc.buffers):
        raise TileError(f"proc '{proc.name}' has duplicate tensor/buffer names")

    # Which loop's parity selects each double-buffered tile's active copy.
    # Every access to such a buffer must sit inside that loop — outside it
    # "the" tile is ambiguous (and the interpreter and the lowering would be
    # free to disagree) — and two stages alternating the same tile on
    # different loops are equally ambiguous.
    parity_loop: dict[str, str] = {}
    for stmt in walk_stmts(proc.body):
        if isinstance(stmt, Stage) and stmt.parity is not None:
            known = parity_loop.setdefault(stmt.buffer, stmt.parity)
            if known != stmt.parity:
                raise TileError(
                    f"buffer '{stmt.buffer}' is staged under two parity loops "
                    f"('{known}' and '{stmt.parity}')"
                )

    bound_axes: dict[LoopKind, str] = {}
    for stmt in walk_stmts(proc.body):
        if isinstance(stmt, Loop) and stmt.kind not in (LoopKind.SEQ, LoopKind.UNROLL):
            if stmt.kind in bound_axes:
                raise TileError(
                    f"loops '{bound_axes[stmt.kind]}' and '{stmt.var}' are both bound to "
                    f"{stmt.kind.value}"
                )
            bound_axes[stmt.kind] = stmt.var

    def shape_of(name: str) -> tuple[int, ...]:
        if proc.is_buffer(name):
            return proc.buffer(name).shape
        return proc.param(name).shape

    def check_access(name: str, index: tuple[Affine, ...], ranges: dict[str, int],
                     guards: tuple[tuple[Affine, int], ...] = ()) -> None:
        if proc.is_buffer(name) and proc.buffer(name).double:
            loop_var = parity_loop.get(name)
            if loop_var is None or loop_var not in ranges:
                raise TileError(
                    f"access to double-buffered '{name}' outside its parity "
                    f"loop{f' {loop_var!r}' if loop_var else ''}: which tile is "
                    f"active is undefined there"
                )
        shape = shape_of(name)
        if len(index) != len(shape):
            raise TileError(
                f"'{name}' is {len(shape)}-dimensional but indexed with {len(index)} expressions"
            )
        for dim, expr in enumerate(index):
            lo, hi = expr.bounds(ranges)
            for guard_expr, bound in guards:
                # A guard `e < bound` caps any index that differs from e by a
                # constant — the predicate_tail pattern.  Terms are kept
                # normalised, so that is exactly "the same terms".
                if expr.terms == guard_expr.terms:
                    hi = min(hi, bound - 1 + expr.const - guard_expr.const)
            if lo < 0 or hi >= shape[dim]:
                raise TileError(
                    f"index {expr} of '{name}' spans [{lo}, {hi}] outside dimension {shape[dim]}"
                )

    def check_parity(parity: str | None, buffer: Buffer, ranges: dict[str, int]) -> None:
        if buffer.double:
            if parity is None:
                raise TileError(
                    f"double-buffered '{buffer.name}' is staged without a parity loop"
                )
            if parity not in ranges:
                raise TileError(
                    f"parity loop '{parity}' of '{buffer.name}' does not enclose the "
                    f"staging copy"
                )
        elif parity is not None:
            raise TileError(
                f"staging of '{buffer.name}' carries parity loop '{parity}' but the "
                f"buffer is not double-buffered"
            )

    def check_window(name: str, base: tuple[Affine, ...], sizes: tuple[int, ...],
                     axes: tuple[int, ...], ranges: dict[str, int],
                     limits: tuple[int | None, ...] = ()) -> None:
        shape = shape_of(name)
        if len(base) != len(shape):
            raise TileError(f"stage of '{name}' has {len(base)} base expressions for shape {shape}")
        if limits and len(limits) != len(shape):
            raise TileError(
                f"window of '{name}' has {len(limits)} clip limits for shape {shape}"
            )
        extent_of_dim = {axes[d]: sizes[d] for d in range(len(axes))}
        for dim, expr in enumerate(base):
            lo, hi = expr.bounds(ranges)
            hi += extent_of_dim.get(dim, 1) - 1
            limit = limits[dim] if limits else None
            if limit is not None:
                if limit < 1 or limit > shape[dim]:
                    raise TileError(
                        f"window clip limit {limit} of '{name}' dimension {dim} is outside "
                        f"its extent {shape[dim]}"
                    )
                # Clipped dimensions copy only in-bounds elements; the static
                # window may overhang.
                hi = min(hi, limit - 1)
            if lo < 0 or hi >= shape[dim]:
                raise TileError(
                    f"staged window of '{name}' spans [{lo}, {hi}] outside dimension {shape[dim]}"
                )

    def recurse(stmts: tuple[Stmt, ...], ranges: dict[str, int],
                guards: tuple[tuple[Affine, int], ...] = ()) -> None:
        for stmt in stmts:
            if isinstance(stmt, Loop):
                recurse(stmt.body, {**ranges, stmt.var: stmt.extent}, guards)
            elif isinstance(stmt, Guard):
                stmt.expr.bounds(ranges)  # raises on unbound variables
                recurse(stmt.body, ranges, guards + ((stmt.expr, stmt.bound),))
            elif isinstance(stmt, Assign):
                check_access(stmt.tensor, stmt.index, ranges, guards)
                for r in expr_reads(stmt.value):
                    check_access(r.tensor, r.index, ranges, guards)
            elif isinstance(stmt, Stage):
                buffer = proc.buffer(stmt.buffer)
                if tuple(stmt.sizes) != buffer.shape:
                    raise TileError(
                        f"stage sizes {stmt.sizes} do not match buffer '{buffer.name}' "
                        f"shape {buffer.shape}"
                    )
                check_parity(stmt.parity, buffer, ranges)
                check_window(stmt.tensor, stmt.base, stmt.sizes, stmt.axes, ranges,
                             stmt.limits)
            elif isinstance(stmt, Unstage):
                if proc.is_buffer(stmt.buffer):
                    check_parity(stmt.parity, proc.buffer(stmt.buffer), ranges)
                identity = tuple(range(len(stmt.sizes)))
                check_window(stmt.tensor, stmt.base, stmt.sizes, identity, ranges,
                             stmt.limits)

    recurse(proc.body, {})
    object.__setattr__(proc, "_check_proc_passed", True)
