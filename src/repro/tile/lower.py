"""Lowering: scheduled loop nests → SASS kernels.

The backend walks a canonically scheduled :class:`~repro.tile.ir.Proc` —
block-bound loops outermost, thread-bound loops next, then the thread body —
and emits instructions through :class:`repro.isa.builder.KernelBuilder`,
reproducing the structure of the hand-written generators:

* a **prologue** that decomposes ``TID.X`` with shift/mask, materialises one
  base-pointer register per distinct access pattern (block/thread terms folded
  in with IMAD chains) and the shared-memory store/read address registers;
* **incremental addressing**: a pointer whose accesses walk one sequential
  loop is advanced by an IADD per iteration instead of recomputed (accesses
  with irregular loop terms fall back to IMAD-computed scratch addresses);
* **software-pipelined staging**: a ``Stage`` with ``prefetch`` at the top of
  a sequential loop becomes the paper's main-loop shape — initial global
  loads before the loop, then per iteration ``BAR; STS; BAR``, pointer
  advance, a predicated prefetch of the *next* tile, and the compute;
* **batched operand loads**: unrolled compute is emitted batch-wise — the
  reads of a subtree are hoisted in address order ahead of its arithmetic,
  reusing a small register pool, and adjacent 32-bit loads into consecutive
  registers fuse into LDS.64/LD.64 pairs (the paper's wide operand fetch);
* an **epilogue** whose write-back pointers are computed late, reusing
  registers freed by the main loop — the trick that keeps the SGEMM register
  budget inside the 63-register limit.

The result is assembled, unoptimized SASS in program order with sequential
register assignment — exactly the "compiler-like" starting point the
:mod:`repro.opt` pipeline expects to recolor and reschedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import LoweringError
from repro.isa.assembler import Kernel
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import ConstRef, MemRef
from repro.isa.registers import RZ, Register, SpecialRegister, predicate
from repro.prof.trace import trace_span
from repro.tile.ir import (
    Affine,
    Assign,
    BinOp,
    Buffer,
    Const,
    Expr,
    Guard,
    Loop,
    LoopKind,
    Proc,
    Read,
    Stage,
    Stmt,
    Unstage,
    check_proc,
    expr_reads,
    walk_stmts,
)

#: Constant-bank offset of the first kernel parameter (CUDA-ABI-like).
PARAM_BASE_OFFSET = 0x20

#: Smallest operand-register pool for batched loads (the pool grows to the
#: largest eager staging run).
MIN_POOL_SIZE = 8

#: Guard predicates alternate between these two indices (P0 is the loop
#: branch, P1 the prefetch guard).
_LOOP_PREDICATE = 0
_PREFETCH_PREDICATE = 1
_GUARD_PREDICATES = (2, 3)
#: Predicates for clip conditions of cooperative staging loads (P4 holds the
#: element-invariant conjunction, P5 the per-element condition).
_CLIP_PREDICATES = (4, 5)


def shared_layout(
    buffers: tuple[Buffer, ...]
) -> tuple[dict[str, int], int, int]:
    """Shared-memory layout of a proc's buffers: (bases, total bytes, mask).

    Double-buffered tiles are laid out first, their parity-1 copies at a
    power-of-two byte offset ``mask`` above the parity-0 block: because every
    parity-0 address of a double tile is below ``mask``, ``address XOR mask``
    *is* ``address + mask`` — one ``LOP.XOR`` on a pointer register flips it
    between the two tiles.  Single-buffered tiles follow after the parity-1
    block.  The mask is 0 when nothing is double-buffered (and the layout is
    then the plain declaration-order packing it always was).
    """
    doubles = [b for b in buffers if b.memory == "shared" and b.double]
    singles = [b for b in buffers if b.memory == "shared" and not b.double]
    bases: dict[str, int] = {}
    offset = 0
    for buffer in doubles:
        bases[buffer.name] = offset
        offset += buffer.size_words * 4
    if doubles:
        mask = 1 << (offset - 1).bit_length()
        total = mask + offset
    else:
        mask = 0
        total = 0
    for buffer in singles:
        bases[buffer.name] = total
        total += buffer.size_words * 4
    return bases, total, mask


@dataclass(frozen=True)
class LaunchGeometry:
    """Grid/block geometry implied by a scheduled proc's loop bindings."""

    grid_x: int
    grid_y: int
    threads_x: int
    threads_y: int

    @property
    def threads_per_block(self) -> int:
        return self.threads_x * self.threads_y


def launch_geometry(proc: Proc) -> LaunchGeometry:
    """Read the launch geometry off a scheduled proc's bound loops."""
    extents = {LoopKind.BLOCK_X: 1, LoopKind.BLOCK_Y: 1,
               LoopKind.THREAD_X: 1, LoopKind.THREAD_Y: 1}
    for stmt in walk_stmts(proc.body):
        if isinstance(stmt, Loop) and stmt.kind in extents:
            extents[stmt.kind] = stmt.extent
    if extents[LoopKind.THREAD_X] == 1 and extents[LoopKind.THREAD_Y] > 1:
        raise LoweringError("a thread-y binding requires a thread-x binding")
    return LaunchGeometry(
        grid_x=extents[LoopKind.BLOCK_X],
        grid_y=extents[LoopKind.BLOCK_Y],
        threads_x=extents[LoopKind.THREAD_X],
        threads_y=extents[LoopKind.THREAD_Y],
    )


def lower(proc: Proc, *, lds_width_bits: int = 64) -> Kernel:
    """Lower a scheduled proc to an assembled (unoptimized) kernel.

    Adjacent *global* loads into consecutive registers always pair into
    LD.64 (the hand SGEMV's ``wide_loads``).  The reusable operand pool for
    batched loads is sized from a liveness estimate: whatever the
    63-register file has left after the fixed allocations (accumulators,
    pointers, counters, prefetch registers), grown to cover the largest
    eager staging run so wide tiles do not fall back to chunked copies.

    Parameters
    ----------
    proc:
        The scheduled loop nest.  At least one loop must be thread-bound.
    lds_width_bits:
        64 fuses adjacent *shared-memory* operand loads into register-pair
        LDS.64 (the paper's wide operand fetch); 32 keeps them narrow.
    """
    if lds_width_bits not in (32, 64):
        raise LoweringError(f"lds_width_bits must be 32 or 64, got {lds_width_bits}")
    check_proc(proc)
    with trace_span(f"lower.{proc.name}", category="tile") as span:
        kernel = _Lowering(proc, lds_width_bits=lds_width_bits).lower()
        span["instructions"] = kernel.instruction_count
        span["registers"] = kernel.register_count
    return kernel


# --------------------------------------------------------------------------- #
# Register bookkeeping.                                                        #
# --------------------------------------------------------------------------- #


class _RegFile:
    """Bump allocator over the 63 general registers."""

    def __init__(self) -> None:
        self._next = 0

    def take(self, count: int = 1, *, what: str = "value") -> list[Register]:
        if self._next + count > 63:
            raise LoweringError(
                f"register file exhausted allocating {count} {what} register(s) "
                f"(already using {self._next}); simplify the schedule or shrink "
                f"the register tile"
            )
        taken = [Register(self._next + i) for i in range(count)]
        self._next += count
        return taken

    @property
    def used(self) -> int:
        return self._next


class _Pool:
    """A small reusable register pool with stack-style release.

    Allocation prefers the lowest free indices and can reserve *consecutive*
    pairs, which is what lets adjacent loads fuse into LDS.64/LD.64 (wide
    loads write ``Rd`` and ``Rd+1``).
    """

    def __init__(self, regs: list[Register]) -> None:
        self._regs = regs
        self._free = sorted(r.index for r in regs)

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def size(self) -> int:
        return len(self._regs)

    def alloc(self) -> Register:
        if not self._free:
            raise LoweringError(
                "operand pool exhausted; split the loop or shrink the register tile"
            )
        return Register(self._free.pop(0))

    def alloc_pair(self) -> tuple[Register, Register] | None:
        """A consecutive (prefer even-aligned) register pair, if available."""
        candidates = [
            i for pos, i in enumerate(self._free[:-1]) if self._free[pos + 1] == i + 1
        ]
        if not candidates:
            return None
        aligned = [i for i in candidates if i % 2 == 0]
        index = (aligned or candidates)[0]
        self._free.remove(index)
        self._free.remove(index + 1)
        return Register(index), Register(index + 1)

    def release(self, regs: list[Register]) -> None:
        for reg in regs:
            self._free.append(reg.index)
        self._free.sort()

    def mark(self) -> tuple[int, ...]:
        return tuple(self._free)

    def restore(self, mark: tuple[int, ...]) -> None:
        self._free = list(mark)


# --------------------------------------------------------------------------- #
# Access planning.                                                             #
# --------------------------------------------------------------------------- #


@dataclass
class _Pointer:
    """One base-pointer register: a distinct (tensor, runtime-term) pattern."""

    key: tuple
    tensor: str
    param_offset: int | None          # constant-bank slot; None for shared buffers
    shared_base: int                  # byte offset of the buffer in shared memory
    runtime_terms: tuple[tuple[str, int], ...]  # (var, byte coeff), block/thread/dist vars
    seq_terms: dict[str, int] = field(default_factory=dict)  # advance steps per loop
    scratch_seq: bool = False         # True → recompute seq terms per access
    epilogue: bool = False            # all uses in the trailing write-back zone
    is_store: bool = False            # the shared-store side of a Stage copy
    force_register: bool = False      # double-buffered: parity XOR needs a home
    sites_after_loop: set[str] = field(default_factory=set)
    reg: Register | None = None

    @property
    def needs_register(self) -> bool:
        return (self.param_offset is not None or bool(self.runtime_terms)
                or bool(self.seq_terms) or self.force_register)


@dataclass
class _StagePlan:
    """Lowering plan for one cooperative Stage copy."""

    stage: Stage
    buffer: Buffer
    shared_base: int
    per_thread: int
    groups_per_row: int               # 1-D staging: 0
    src_pointer: _Pointer
    store_pointer: _Pointer
    q_src_step: int                   # source byte stride between a thread's loads
    q_store_step: int                 # shared byte stride between a thread's stores
    src_const: int = 0                # constant byte offset of the window base
    pipelined: bool = False           # set when the stage heads a prefetch loop
    prefetch_regs: list[Register] = field(default_factory=list)


class _Lowering:
    def __init__(self, proc: Proc, *, lds_width_bits: int) -> None:
        self._proc = proc
        self._wide_shared = lds_width_bits == 64
        # (tensor, index) -> _split_access result; accesses are resolved once
        # per unroll iteration but classify identically every time.
        self._split_cache: dict[tuple, tuple] = {}
        # id(Read) -> env-independent half of _resolve_read.
        self._resolve_cache: dict[int, tuple] = {}
        # (id(Guard), values of its variables) -> _fold_guard result.
        self._folds: dict[tuple, tuple] = {}
        self._geometry = launch_geometry(proc)
        if not any(
            stmt.kind.is_thread
            for stmt in walk_stmts(proc.body)
            if isinstance(stmt, Loop)
        ):
            raise LoweringError(
                "the proc has no thread-bound loop; apply bind_thread before lowering"
            )
        if self._geometry.threads_per_block < 1:
            raise LoweringError("the proc binds no thread loops")
        if self._geometry.threads_y > 1:
            tx = self._geometry.threads_x
            if tx & (tx - 1):
                raise LoweringError(
                    "thread-x extent must be a power of two when thread-y is bound "
                    f"(got {tx}); the flat TID is decomposed with shift/mask"
                )

        self._kinds: dict[str, LoopKind] = {
            stmt.var: stmt.kind for stmt in walk_stmts(proc.body) if isinstance(stmt, Loop)
        }
        self._extents: dict[str, int] = {
            stmt.var: stmt.extent for stmt in walk_stmts(proc.body) if isinstance(stmt, Loop)
        }
        self._param_offsets = {
            p.name: PARAM_BASE_OFFSET + 4 * i for i, p in enumerate(proc.params)
        }
        self._shared_bases, self._shared_bytes, self._parity_mask = shared_layout(
            proc.buffers
        )

        self._regs = _RegFile()
        self._pointers: dict[tuple, _Pointer] = {}
        self._stage_plans: dict[int, _StagePlan] = {}
        self._counters: dict[str, Register] = {}
        self._up_counters: dict[str, Register] = {}
        self._needs_up: set[str] = set()
        self._persistent_vars: set[str] = set()
        self._var_regs: dict[str, Register] = {}
        self._buffer_regs: dict[str, list[Register]] = {}
        self._guard_cursor = 0
        self._active_guard_slots: list[int] = []
        self._guard_slot_key: dict[int, object] = {}
        self._unstage_for: dict[str, Unstage] = {}
        self._droppable: set[int] = set()
        self._epilogue_clip_vars: set[str] = set()
        self._epilogue_env: dict[str, Register] = {}

        self._builder = KernelBuilder(
            name=proc.name,
            shared_memory_bytes=self._shared_bytes,
            threads_per_block=self._geometry.threads_per_block,
            metadata={"tile_proc": proc.name, "lds_width_bits": lds_width_bits},
        )

    # ------------------------------------------------------------------ #
    # Plan: classify accesses, decide pointers, advancing and counters.    #
    # ------------------------------------------------------------------ #

    def _var_class(self, var: str) -> str:
        kind = self._kinds.get(var)
        if kind is None:
            raise LoweringError(f"variable '{var}' has no loop")
        if kind.is_block or kind.is_thread:
            return "launch"
        return "seq" if kind is LoopKind.SEQ else "unroll"

    def _flatten(self, tensor: str, index: tuple[Affine, ...]) -> Affine:
        """Byte-offset affine of an access (padded strides for buffers)."""
        if self._proc.is_buffer(tensor):
            strides = self._proc.buffer(tensor).strides()
        else:
            strides = self._proc.param(tensor).strides()
        flat = Affine.constant(0)
        for expr, stride in zip(index, strides):
            flat = flat + expr * (stride * 4)
        return flat

    def _split_access(self, tensor: str, index: tuple[Affine, ...]):
        """(runtime_terms, seq_terms, unroll_affine) of a flattened access."""
        key = (tensor, index)
        cached = self._split_cache.get(key)
        if cached is not None:
            return cached
        flat = self._flatten(tensor, index)
        runtime: list[tuple[str, int]] = []
        seq: dict[str, int] = {}
        unroll_terms: dict[str, int] = {}
        for var, coeff in flat.terms:
            cls = self._var_class(var)
            if cls == "launch":
                runtime.append((var, coeff))
            elif cls == "seq":
                seq[var] = coeff
            else:
                unroll_terms[var] = coeff
        unroll_affine = Affine(const=flat.const,
                               terms=tuple(sorted(unroll_terms.items())))
        result = (tuple(sorted(runtime)), seq, unroll_affine)
        self._split_cache[key] = result
        return result

    def _pointer_for(self, tensor: str, runtime_terms: tuple[tuple[str, int], ...],
                     seq_terms: dict[str, int]) -> _Pointer:
        key = (tensor, runtime_terms)
        pointer = self._pointers.get(key)
        if pointer is None:
            pointer = _Pointer(
                key=key,
                tensor=tensor,
                param_offset=self._param_offsets.get(tensor),
                shared_base=self._shared_bases.get(tensor, 0),
                runtime_terms=runtime_terms,
                seq_terms=dict(seq_terms),
                # A double-buffered tile is addressed through a register even
                # when the access has no runtime terms: the parity XOR needs
                # a pointer to flip.
                force_register=(
                    self._proc.is_buffer(tensor)
                    and self._proc.buffer(tensor).memory == "shared"
                    and self._proc.buffer(tensor).double
                ),
            )
            self._pointers[key] = pointer
        elif pointer.seq_terms != seq_terms:
            # Accesses disagree on their sequential-loop pattern: give up on
            # incremental advancing and recompute addresses per access.
            pointer.scratch_seq = True
            for var in set(pointer.seq_terms) | set(seq_terms):
                self._needs_up.add(var)
        return pointer

    def _epilogue_zone(self) -> tuple[tuple[Stmt, ...], tuple[Stmt, ...]]:
        """Split the thread body into (main, trailing-Unstage epilogue)."""
        body = self._thread_body
        cut = len(body)
        while cut > 0 and isinstance(body[cut - 1], Unstage):
            cut -= 1
        return body[:cut], body[cut:]

    def _parse_structure(self) -> None:
        """Find block loops, block-level stages and the thread body.

        ``predicate_tail`` guards interposed between block/thread loops are
        *sunk* into the thread body (a guard never references a loop nested
        inside it, so pushing it below the loop filters the same instances);
        the sunk wrappers predicate per-thread work while the cooperative
        staging copies stay unguarded — their out-of-window loads land in
        buffer lanes the guarded compute never reads.
        """
        pending: list[Guard] = []
        stmts: tuple[Stmt, ...] = self._proc.body
        while len(stmts) == 1:
            head = stmts[0]
            if isinstance(head, Loop) and head.kind.is_block:
                stmts = head.body
            elif isinstance(head, Guard):
                pending.append(head)
                stmts = head.body
            else:
                break
        self._block_stages: list[Stage] = []
        thread_loop: Loop | None = None
        trailing: list[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, Stage) and thread_loop is None:
                self._block_stages.append(stmt)
            elif isinstance(stmt, Loop) and stmt.kind.is_thread and thread_loop is None:
                thread_loop = stmt
            elif thread_loop is None:
                raise LoweringError(
                    f"unexpected block-level statement {stmt!r}; only staging copies may "
                    f"appear between the block and thread loops"
                )
            else:
                trailing.append(stmt)
        if thread_loop is None:
            raise LoweringError("the proc has no thread-bound loop to lower onto TID")
        if trailing:
            raise LoweringError("statements after the thread loops are not supported")
        inner = thread_loop.body
        while len(inner) == 1:
            head = inner[0]
            if isinstance(head, Loop) and head.kind.is_thread:
                inner = head.body
            elif isinstance(head, Guard):
                pending.append(head)
                inner = head.body
            else:
                break
        for stmt in inner:
            if isinstance(stmt, Loop) and stmt.kind.is_thread:
                raise LoweringError("thread loops must be perfectly nested")
        for guard in reversed(pending):
            inner = (replace(guard, body=inner),)
        self._thread_body: tuple[Stmt, ...] = inner
        self._unstage_for = {
            stmt.buffer: stmt
            for stmt in walk_stmts(self._thread_body)
            if isinstance(stmt, Unstage)
        }
        self._droppable = {
            id(stmt)
            for stmt in walk_stmts(self._thread_body)
            if isinstance(stmt, Guard) and self._guard_droppable(stmt)
        }

    def _guard_droppable(self, guard: Guard) -> bool:
        """Whether the lowering may execute ``guard``'s body unpredicated.

        True when every write in the body targets a register buffer whose
        write-back is clipped by exactly this guard's condition: the lanes
        the guard disables are then never stored, so computing garbage in
        them is unobservable (and their overhanging loads stay within the
        flat simulated memory).  A cooperative ``Stage`` does not block
        dropping — its addresses depend only on loop variables, so executing
        it for guarded-out lanes rewrites the buffer with identical content
        (and it *must* execute unguarded: every thread of the block
        participates in the copy and its barriers).
        """
        for stmt in walk_stmts(guard.body):
            if isinstance(stmt, Unstage):
                return False
            if not isinstance(stmt, Assign):
                continue
            if not (
                self._proc.is_buffer(stmt.tensor)
                and self._proc.buffer(stmt.tensor).memory == "register"
            ):
                return False
            unstage = self._unstage_for.get(stmt.tensor)
            if unstage is None or not unstage.limits:
                return False
            if not self._clip_matches(guard, unstage, stmt):
                return False
        return True

    @staticmethod
    def _clip_matches(guard: Guard, unstage: Unstage, assign: Assign) -> bool:
        """Whether ``guard`` restates a clipped write-back dimension for the
        element ``assign`` writes: ``unstage.base[d] + buffer_index == expr``
        with the same bound."""
        for dim, limit in enumerate(unstage.limits):
            if limit != guard.bound:
                continue
            for index in assign.index:
                if unstage.base[dim] + index == guard.expr:
                    return True
        return False

    def _plan(self) -> None:
        self._parse_structure()
        main, epilogue = self._epilogue_zone()

        def visit(stmts: tuple[Stmt, ...], in_epilogue: bool, seq_path: tuple[str, ...]) -> None:
            for stmt in stmts:
                if isinstance(stmt, Loop):
                    path = seq_path + ((stmt.var,) if stmt.kind is LoopKind.SEQ else ())
                    visit(stmt.body, in_epilogue, path)
                elif isinstance(stmt, Guard):
                    if id(stmt) not in self._droppable:
                        for var in stmt.expr.vars():
                            cls = self._var_class(var)
                            if cls == "launch":
                                self._persistent_vars.add(var)
                            elif cls == "seq":
                                self._needs_up.add(var)
                    visit(stmt.body, in_epilogue, seq_path)
                elif isinstance(stmt, Assign):
                    for r in expr_reads(stmt.value):
                        self._plan_access(r.tensor, r.index, in_epilogue, seq_path)
                    self._plan_access(stmt.tensor, stmt.index, in_epilogue, seq_path)
                elif isinstance(stmt, Stage):
                    self._plan_stage(stmt, seq_path)
                elif isinstance(stmt, Unstage):
                    for dim, limit in enumerate(stmt.limits):
                        if limit is None:
                            continue
                        for var in stmt.base[dim].vars():
                            cls = self._var_class(var)
                            if cls == "seq":
                                self._needs_up.add(var)
                            elif cls == "launch":
                                if in_epilogue:
                                    self._epilogue_clip_vars.add(var)
                                else:
                                    self._persistent_vars.add(var)
                    self._plan_access(stmt.tensor, stmt.base, in_epilogue, seq_path,
                                      window=stmt.sizes)

        for stage in self._block_stages:
            self._plan_stage(stage, ())
        visit(main, False, ())
        visit(epilogue, True, ())

        # A stage software-pipelines only when it heads a sequential loop
        # whose whole leading stage group asked for prefetch; everything else
        # copies eagerly and must not reserve prefetch registers.
        for stmt in walk_stmts(self._proc.body):
            if not (isinstance(stmt, Loop) and stmt.kind is LoopKind.SEQ):
                continue
            leading: list[Stage] = []
            for inner in stmt.body:
                if isinstance(inner, Stage):
                    leading.append(inner)
                else:
                    break
            if leading and all(s.prefetch for s in leading):
                for stage in leading:
                    self._stage_plans[id(stage)].pipelined = True

        # Decide advancing: a pointer whose seq terms are not all enclosed by
        # the loops it is used under cannot be advanced incrementally.
        for pointer in self._pointers.values():
            if pointer.scratch_seq:
                continue
            for var in pointer.seq_terms:
                if var not in self._seq_enclosure.get(pointer.key, set()):
                    pointer.scratch_seq = True
                    self._needs_up.update(pointer.seq_terms)
                    break

    _seq_enclosure: dict[tuple, set[str]]

    def _note_site(self, pointer: _Pointer, in_epilogue: bool,
                   seq_path: tuple[str, ...]) -> None:
        enclosure = self._seq_enclosure.setdefault(pointer.key, set(seq_path))
        enclosure.intersection_update(seq_path)
        if not hasattr(pointer, "_any_site"):
            pointer.epilogue = in_epilogue
            pointer._any_site = True  # type: ignore[attr-defined]
        elif pointer.epilogue and not in_epilogue:
            pointer.epilogue = False
        if not in_epilogue:
            # Sites in the main zone after a loop that advances the pointer
            # would observe the advanced value; record which loops must
            # restore.  Main-zone sites outside a seq loop of the pointer:
            for var in pointer.seq_terms:
                if var not in seq_path:
                    pointer.sites_after_loop.add(var)

    def _plan_access(self, tensor: str, index: tuple[Affine, ...], in_epilogue: bool,
                     seq_path: tuple[str, ...], window: tuple[int, ...] | None = None) -> None:
        if self._proc.is_buffer(tensor) and self._proc.buffer(tensor).memory == "register":
            return
        runtime, seq, _ = self._split_access(tensor, index)
        pointer = self._pointer_for(tensor, runtime, seq)
        self._note_site(pointer, in_epilogue, seq_path)

    def _plan_stage(self, stage: Stage, seq_path: tuple[str, ...]) -> None:
        buffer = self._proc.buffer(stage.buffer)
        if buffer.memory != "shared":
            raise LoweringError(f"stage target '{buffer.name}' is not a shared buffer")
        if len(stage.sizes) not in (1, 2):
            raise LoweringError("only 1-D and 2-D staging is supported")
        threads = self._geometry.threads_per_block
        elements = 1
        for size in stage.sizes:
            elements *= size
        if elements % threads:
            raise LoweringError(
                f"staged window of {elements} elements does not divide across "
                f"{threads} threads"
            )
        per_thread = elements // threads
        groups_per_row = 0
        if len(stage.sizes) == 2:
            last = stage.sizes[-1]
            if last % per_thread:
                raise LoweringError(
                    f"per-thread run of {per_thread} elements does not divide the "
                    f"staged row of {last}"
                )
            groups_per_row = last // per_thread
            if groups_per_row > 1 and groups_per_row & (groups_per_row - 1):
                raise LoweringError(
                    f"{groups_per_row} load groups per staged row is not a power of "
                    f"two; the thread distribution needs shift/mask decomposition"
                )

        tensor = stage.tensor
        strides = self._proc.param(tensor).strides()
        # Distribution variables are synthetic "launch" terms on the source
        # pointer: __b0 walks the leading buffer dimension, __b1 the group
        # within a row (already scaled by per_thread at compute time).
        runtime: list[tuple[str, int]] = []
        base_seq: dict[str, int] = {}
        base_runtime: dict[str, int] = {}
        flat_base = Affine.constant(0)
        for expr, stride in zip(stage.base, strides):
            flat_base = flat_base + expr * (stride * 4)
        for var, coeff in flat_base.terms:
            cls = self._var_class(var)
            if cls == "launch":
                base_runtime[var] = coeff
            elif cls == "seq":
                base_seq[var] = coeff
            else:
                raise LoweringError(
                    f"staged window base of '{tensor}' depends on unrolled loop '{var}'"
                )
        runtime.extend(sorted(base_runtime.items()))
        if len(stage.sizes) == 1:
            src_b0 = strides[stage.axes[0]] * 4 * per_thread
            runtime.append(("__flat_tid", src_b0))
            q_src_step = strides[stage.axes[0]] * 4
            q_store_step = 4
            store_terms: tuple[tuple[str, int], ...] = (("__flat_tid", 4 * per_thread),)
        else:
            row_stride = strides[stage.axes[0]] * 4
            col_stride = strides[stage.axes[1]] * 4
            runtime.append(("__b0", row_stride))
            runtime.append(("__b1", col_stride * per_thread))
            q_src_step = col_stride
            pitch_bytes = buffer.strides()[0] * 4
            q_store_step = 4
            store_terms = (("__b0", pitch_bytes), ("__b1", 4 * per_thread))

        src_pointer = self._pointer_for(tensor, tuple(sorted(runtime)), base_seq)
        self._note_site(src_pointer, False, seq_path)
        store_key = (stage.buffer + "@store", store_terms)
        store_pointer = self._pointers.get(store_key)
        if store_pointer is None:
            store_pointer = _Pointer(
                key=store_key,
                tensor=stage.buffer,
                param_offset=None,
                shared_base=self._shared_bases[stage.buffer],
                runtime_terms=store_terms,
                is_store=True,
            )
            self._pointers[store_key] = store_pointer
            self._seq_enclosure[store_key] = set()

        # Clipped cooperative loads predicate per element on the runtime
        # window base: sequential base terms read the loop's iteration count.
        if any(limit is not None for limit in stage.limits):
            for dim, limit in enumerate(stage.limits):
                if limit is None:
                    continue
                for var in stage.base[dim].vars():
                    if self._var_class(var) == "seq":
                        self._needs_up.add(var)

        self._stage_plans[id(stage)] = _StagePlan(
            stage=stage,
            buffer=buffer,
            shared_base=self._shared_bases[stage.buffer],
            per_thread=per_thread,
            groups_per_row=groups_per_row,
            src_pointer=src_pointer,
            store_pointer=store_pointer,
            q_src_step=q_src_step,
            q_store_step=q_store_step,
            src_const=flat_base.const,
        )

    # ------------------------------------------------------------------ #
    # Emission.                                                            #
    # ------------------------------------------------------------------ #

    def lower(self) -> Kernel:
        self._seq_enclosure = {}
        self._plan()
        self._allocate_registers()
        self._emit_prologue()
        if self._block_stages:
            self._emit_stage_group(self._block_stages, {}, guard=None,
                                   leading_barrier=False)
        main, epilogue = self._epilogue_zone()
        self._emit_block(main, {}, None)
        self._emit_epilogue(epilogue)
        with self._builder.provenance("exit"):
            self._builder.exit()
        kernel = self._builder.build()
        if kernel.register_count > 63:
            raise LoweringError(
                f"lowered kernel uses {kernel.register_count} registers, beyond the "
                f"63-register limit"
            )
        return kernel

    def _allocate_registers(self) -> None:
        # Register buffers first: their indices start at R0, and the prologue
        # borrows the first few as scratch before they are initialised.
        for buffer in self._proc.buffers:
            if buffer.memory == "register":
                count = 1
                for dim in buffer.shape:
                    count *= dim
                self._buffer_regs[buffer.name] = self._regs.take(
                    count, what=f"'{buffer.name}' accumulator"
                )
        for var in sorted(self._persistent_vars):
            self._var_regs[var] = self._regs.take(what=f"'{var}' index")[0]
        for pointer in self._pointers.values():
            if pointer.needs_register and not pointer.epilogue:
                pointer.reg = self._regs.take(what=f"'{pointer.tensor}' pointer")[0]
        seq_vars = sorted(
            var for var, kind in self._kinds.items() if kind is LoopKind.SEQ
        )
        for var in seq_vars:
            self._counters[var] = self._regs.take(what=f"'{var}' counter")[0]
            if var in self._needs_up:
                self._up_counters[var] = self._regs.take(what=f"'{var}' index")[0]
        for plan in self._stage_plans.values():
            if plan.pipelined:
                plan.prefetch_regs = self._regs.take(
                    plan.per_thread, what=f"'{plan.stage.buffer}' prefetch"
                )
        # Liveness-derived sizing: the fixed allocations above are live for
        # the whole kernel, everything else is the pool's to batch with.
        # Grow the minimum up to the largest eager (non-pipelined) staging
        # run so wide tiles load in one sweep instead of chunking.
        eager_need = max(
            (
                plan.per_thread
                for plan in self._stage_plans.values()
                if not plan.pipelined
            ),
            default=0,
        )
        desired = max(MIN_POOL_SIZE, eager_need)
        self._pool = _Pool(self._regs.take(
            min(desired, 63 - self._regs.used) if 63 - self._regs.used >= 2
            else desired,
            what="operand pool",
        ))

    # -- prologue ------------------------------------------------------- #

    def _emit_prologue(self) -> None:
        with self._builder.provenance("prologue"):
            self._emit_prologue_inner()

    def _emit_prologue_inner(self) -> None:
        builder = self._builder
        geometry = self._geometry

        needed: set[str] = set()
        for pointer in self._pointers.values():
            if not pointer.epilogue:
                needed.update(var for var, _ in pointer.runtime_terms)
        block_vars = {
            var for var, kind in self._kinds.items() if kind.is_block
        }
        thread_vars = {var for var, kind in self._kinds.items() if kind.is_thread}
        needed |= self._persistent_vars
        distributions = {
            (plan.per_thread, plan.groups_per_row, len(plan.stage.sizes))
            for plan in self._stage_plans.values()
        }
        needs_tid = bool(distributions) or bool(needed & thread_vars)

        scratch: list[Register] = []
        borrow_source: list[Register] = []
        for regs in self._buffer_regs.values():
            borrow_source.extend(regs)

        def scratch_reg() -> Register:
            if borrow_source:
                return borrow_source.pop(0)
            reg = self._pool.alloc()
            scratch.append(reg)
            return reg

        env: dict[str, Register] = {}

        def materialise(var: str) -> Register:
            if var in env:
                return env[var]
            reg = self._var_regs.get(var) or scratch_reg()
            env[var] = reg
            return reg

        tid: Register | None = None
        if needs_tid:
            tid = scratch_reg()
            builder.s2r(tid, SpecialRegister.TID_X)
        for var in sorted(needed & block_vars):
            reg = materialise(var)
            axis = self._kinds[var]
            builder.s2r(
                reg,
                SpecialRegister.CTAID_X if axis is LoopKind.BLOCK_X else SpecialRegister.CTAID_Y,
            )
        thread_sorted = sorted(needed & thread_vars, key=lambda v: self._kinds[v].value)
        for var in thread_sorted:
            reg = materialise(var)
            if self._kinds[var] is LoopKind.THREAD_X:
                if geometry.threads_y > 1:
                    builder.lop_and(reg, tid, geometry.threads_x - 1)
                else:
                    builder.mov(reg, tid)
            else:
                builder.shr(reg, tid, geometry.threads_x.bit_length() - 1)

        # Cooperative-load distribution registers (shared across stages with
        # the same shape).
        dist_regs: dict[tuple, dict[str, Register]] = {}
        for plan in self._stage_plans.values():
            sig = (plan.per_thread, plan.groups_per_row, len(plan.stage.sizes))
            if sig in dist_regs:
                continue
            regs: dict[str, Register] = {}
            if len(plan.stage.sizes) == 1:
                regs["__flat_tid"] = tid
            elif (
                plan.groups_per_row == geometry.threads_x
                and geometry.threads_y > 1
                and any(self._kinds[v] is LoopKind.THREAD_X for v in env)
                and any(self._kinds[v] is LoopKind.THREAD_Y for v in env)
            ):
                # The distribution coincides with the thread decomposition:
                # reuse the already-materialised tx/ty registers.
                for var, reg in env.items():
                    if self._kinds[var] is LoopKind.THREAD_Y:
                        regs["__b0"] = reg
                    elif self._kinds[var] is LoopKind.THREAD_X:
                        regs["__b1"] = reg
            else:
                b0 = scratch_reg()
                b1 = scratch_reg()
                if plan.groups_per_row > 1:
                    builder.shr(b0, tid, plan.groups_per_row.bit_length() - 1)
                    builder.lop_and(b1, tid, plan.groups_per_row - 1)
                else:
                    builder.mov(b0, tid)
                    builder.mov32i(b1, 0)
                regs["__b0"] = b0
                regs["__b1"] = b1
            dist_regs[sig] = regs
        self._dist_regs_by_stage = {}
        for plan in self._stage_plans.values():
            sig = (plan.per_thread, plan.groups_per_row, len(plan.stage.sizes))
            self._dist_regs_by_stage[id(plan.stage)] = dist_regs[sig]

        # Base pointers.
        for pointer in self._pointers.values():
            if pointer.epilogue or pointer.reg is None:
                continue
            term_env = dict(env)
            for stage_id, regs in self._dist_regs_by_stage.items():
                plan = self._stage_plans[stage_id]
                if pointer is plan.src_pointer or pointer is plan.store_pointer:
                    term_env.update(regs)
            self._emit_pointer(pointer, pointer.reg, term_env)

        self._pool.release(scratch)
        # Borrowed accumulator registers fall out of scope here; they are
        # re-initialised by the register-buffer init statements before use.

    def _emit_pointer(self, pointer: _Pointer, reg: Register,
                      env: dict[str, Register]) -> None:
        """Materialise a base pointer into ``reg`` with MOV/IMUL + IMAD."""
        builder = self._builder
        started = False
        if pointer.param_offset is not None:
            builder.mov(reg, ConstRef(bank=0, offset=pointer.param_offset))
            started = True
        for var, coeff in pointer.runtime_terms:
            src = env.get(var)
            if src is None:
                raise LoweringError(
                    f"pointer for '{pointer.tensor}' needs '{var}' which is not "
                    f"materialised"
                )
            if started:
                builder.imad(reg, src, coeff, reg)
            else:
                builder.imul(reg, src, coeff)
                started = True
        if not started:
            builder.mov32i(reg, 0)

    # -- statement walk -------------------------------------------------- #

    def _emit_block(self, stmts: tuple[Stmt, ...], env: dict[str, int],
                    pred) -> None:
        position = 0
        stmts = tuple(stmts)
        while position < len(stmts):
            stmt = stmts[position]
            if isinstance(stmt, Stage):
                group = [stmt]
                while position + 1 < len(stmts) and isinstance(stmts[position + 1], Stage):
                    position += 1
                    group.append(stmts[position])
                self._emit_stage_group(group, env, guard=pred,
                                       leading_barrier=False)
            elif isinstance(stmt, Loop) and stmt.kind is LoopKind.SEQ:
                if pred is not None:
                    raise LoweringError("sequential loops inside guards are not supported")
                self._emit_seq_loop(stmt, env)
            elif isinstance(stmt, Loop) and stmt.kind is LoopKind.UNROLL:
                self._emit_compute((stmt,), env, pred)
            elif isinstance(stmt, Loop):
                raise LoweringError(
                    f"loop '{stmt.var}' ({stmt.kind.value}) in a position the lowering "
                    f"does not support"
                )
            elif isinstance(stmt, Guard):
                self._emit_guard(stmt, env, pred)
            elif isinstance(stmt, Assign):
                self._emit_compute((stmt,), env, pred)
            elif isinstance(stmt, Unstage):
                self._emit_unstage(stmt, env, pred)
            position += 1

    def _fold_guard(self, stmt: Guard, env: dict[str, int]):
        """(decision, residual): 'taken'/'skipped' when static, else 'runtime'.

        A fold depends only on the guard and the values its own variables
        take, so it is kept per guard and values: the batch walk and the
        emission walk meet the same guard once per unrolled iteration.
        """
        key = (id(stmt), *[env.get(var) for var, _ in stmt.expr.terms])
        folded = self._folds.get(key)
        if folded is None:
            folded = self._folds[key] = self._fold(stmt, env)
        return folded

    def _fold(self, stmt: Guard, env: dict[str, int]):
        const = stmt.expr.const
        residual: dict[str, int] = {}
        for var, coeff in stmt.expr.terms:
            value = env.get(var)
            if value is None:
                residual[var] = residual.get(var, 0) + coeff
            else:
                const += coeff * value
        expr = Affine(const=const, terms=tuple(sorted(residual.items())))
        if not expr.terms:
            return ("taken" if expr.const < stmt.bound else "skipped"), expr
        ranges = {var: self._extents[var] for var, _ in expr.terms}
        lo, hi = expr.bounds(ranges)
        if hi < stmt.bound:
            return "taken", expr
        if lo >= stmt.bound:
            return "skipped", expr
        return "runtime", expr

    def _guard_slot(self, pred) -> int:
        """A guard-predicate slot not in use by an enclosing runtime guard."""
        for offset in range(len(_GUARD_PREDICATES)):
            slot = _GUARD_PREDICATES[
                (self._guard_cursor + offset) % len(_GUARD_PREDICATES)
            ]
            if slot in self._active_guard_slots:
                continue
            if pred is not None and slot == pred.index:
                continue
            self._guard_cursor += 1
            return slot
        raise LoweringError(
            f"runtime guards nest deeper than the {len(_GUARD_PREDICATES)} "
            f"available guard predicates"
        )

    def _materialise_guard(self, expr: Affine, bound: int, pred):
        """ISETP ``expr < bound`` into a fresh guard predicate.

        With an enclosing predicate the result is the conjunction: the slot
        is preset false and the compare executes under the outer predicate,
        so masked lanes keep the false value (a per-lane AND).
        """
        with self._builder.provenance("guard"):
            return self._materialise_guard_inner(expr, bound, pred)

    def _materialise_guard_inner(self, expr: Affine, bound: int, pred):
        builder = self._builder
        scratch = self._pool.alloc()
        builder.mov32i(scratch, expr.const)
        for var in sorted(expr.vars()):
            reg = self._var_regs.get(var) or self._up_counters.get(var)
            if reg is None:
                raise LoweringError(f"guard variable '{var}' has no runtime register")
            builder.imad(scratch, reg, expr.coeff(var), scratch)
        slot = self._guard_slot(pred)
        guard = predicate(slot)
        if pred is None:
            builder.isetp(guard, "LT", scratch, bound)
        else:
            builder.isetp(guard, "GE", RZ, 1)  # preset false: 0 >= 1
            with builder.guarded(pred):
                builder.isetp(guard, "LT", scratch, bound)
        self._guard_slot_key[slot] = None
        self._pool.release([scratch])
        return guard

    def _compute_guard(self, expr: Affine, bound: int, pred):
        """A (cached) runtime guard predicate for unrolled compute.

        Unrolled tails evaluate the same residual condition for a run of
        instances (every register-tile element of one ``ki`` step shares one
        ``stride·ko + ki < K``); caching by residual reuses the ISETP until
        its slot is recycled.
        """
        key = (expr, bound, None if pred is None else pred.index)
        for slot in _GUARD_PREDICATES:
            if self._guard_slot_key.get(slot) == key and (
                pred is None or slot != pred.index
            ):
                return predicate(slot)
        guard = self._materialise_guard(expr, bound, pred)
        self._guard_slot_key[guard.index] = key
        return guard

    def _emit_guard(self, stmt: Guard, env: dict[str, int], pred) -> None:
        decision, expr = self._fold_guard(stmt, env)
        if decision == "skipped":
            return
        if decision == "taken" or id(stmt) in self._droppable:
            self._emit_block(stmt.body, env, pred)
            return
        guard = self._materialise_guard(expr, stmt.bound, pred)
        self._active_guard_slots.append(guard.index)
        try:
            self._emit_block(stmt.body, env, guard)
        finally:
            self._active_guard_slots.pop()

    # -- sequential loops ------------------------------------------------ #

    def _emit_seq_loop(self, loop: Loop, env: dict[str, int]) -> None:
        with self._builder.provenance(f"loop({loop.var})"):
            self._emit_seq_loop_inner(loop, env)

    def _emit_seq_loop_inner(self, loop: Loop, env: dict[str, int]) -> None:
        builder = self._builder
        counter = self._counters[loop.var]
        up = self._up_counters.get(loop.var)
        builder.mov32i(counter, loop.extent)
        if up is not None:
            builder.mov32i(up, 0)
        enclosing_seq = bool(getattr(self, "_seq_stack", ()))
        self._seq_stack = getattr(self, "_seq_stack", []) + [loop.var]

        body = list(loop.body)
        stages: list[Stage] = []
        while body and isinstance(body[0], Stage):
            stages.append(body.pop(0))
        pipelined = bool(stages) and all(
            self._stage_plans[id(s)].pipelined for s in stages
        )
        parity = bool(stages) and all(s.parity is not None for s in stages)
        if not parity and any(s.parity is not None for s in stages):
            raise LoweringError(
                f"loop '{loop.var}' mixes double-buffered and single-buffered "
                f"stages; double_buffer every staged operand of the loop"
            )
        if parity and any(s.parity != loop.var for s in stages):
            raise LoweringError(
                f"a stage heading '{loop.var}' alternates on a different loop"
            )

        advanced = [
            p for p in self._pointers.values()
            if not p.scratch_seq and loop.var in p.seq_terms and p.reg is not None
        ]
        stage_pointers = {
            id(self._stage_plans[id(s)].src_pointer) for s in stages
        } if pipelined else set()
        early = [p for p in advanced if id(p) in stage_pointers]
        late = [p for p in advanced if id(p) not in stage_pointers]

        # Pointers whose parity bit flips each iteration of a double-buffered
        # loop: the stage's shared-store pointers, and every pointer that
        # reads one of the alternating tiles.
        parity_stores: list[_Pointer] = []
        parity_reads: list[_Pointer] = []
        if parity:
            buffers = {s.buffer for s in stages}
            seen: set[int] = set()
            for stage in stages:
                pointer = self._stage_plans[id(stage)].store_pointer
                if id(pointer) not in seen:
                    seen.add(id(pointer))
                    parity_stores.append(pointer)
            parity_reads = [
                p for p in self._pointers.values()
                if p.tensor in buffers and not p.is_store and p.reg is not None
            ]

        if pipelined:
            for stage in stages:
                self._emit_prefetch_loads(self._stage_plans[id(stage)], guard=None)
        if parity and pipelined:
            # Double buffering needs only ONE barrier per iteration: tile 0
            # is staged into parity half 0 ahead of the loop, the in-loop
            # barrier separates each iteration's reads from the previous
            # iteration's stores, and the prefetched stores of tile ``i + 1``
            # land in the *inactive* half after iteration ``i``'s compute —
            # the write-after-read hazard the second barrier used to fence is
            # gone.  Re-entry from an enclosing loop needs one fence: the
            # previous run's final reads may target the half these pre-loop
            # stores rewrite.
            if enclosing_seq:
                builder.bar(0)
            for stage in stages:
                self._emit_stage_stores(self._stage_plans[id(stage)],
                                        from_prefetch=True, guard=None)

        if parity and not pipelined and enclosing_seq:
            # Eager parity stores write their half right at the loop head;
            # fence them once from a previous run's final reads.
            builder.bar(0)

        label = builder.label(f"L_{loop.var}")
        # Guard predicates computed outside the loop may involve this loop's
        # iteration counter; force re-evaluation inside the body (and again
        # after the loop, when the counter holds its final value).
        self._guard_slot_key.clear()
        p_more = predicate(_PREFETCH_PREDICATE)
        bottom_decrement = True
        if stages and parity:
            if pipelined:
                builder.bar(0)
                if loop.extent > 1:
                    for pointer in early:
                        builder.iadd(pointer.reg, pointer.reg,
                                     pointer.seq_terms[loop.var])
                    builder.iadd(counter, counter, -1)
                    bottom_decrement = False
                    builder.isetp(p_more, "GT", counter, 0)
                    for stage in stages:
                        self._emit_prefetch_loads(
                            self._stage_plans[id(stage)], guard=p_more,
                            advance_var=loop.var, advance_steps=1,
                        )
            else:
                # Eager double buffering: the current tile lands in its
                # parity half, then a single barrier fences the stores from
                # the reads.  (Re-entry from an enclosing loop was fenced
                # once, ahead of the label.)
                self._emit_stage_group(stages, env, guard=None,
                                       leading_barrier=False)
        elif stages:
            builder.bar(0)
            if pipelined:
                for stage in stages:
                    self._emit_stage_stores(self._stage_plans[id(stage)],
                                            from_prefetch=True, guard=None)
            else:
                self._emit_stage_group(stages, env, guard=None,
                                       leading_barrier=False)
            builder.bar(0)

        if pipelined and not parity:
            for pointer in early:
                builder.iadd(pointer.reg, pointer.reg, pointer.seq_terms[loop.var])
            builder.iadd(counter, counter, -1)
            bottom_decrement = False
            builder.isetp(p_more, "GT", counter, 0)
            for stage in stages:
                self._emit_prefetch_loads(self._stage_plans[id(stage)], guard=p_more,
                                          advance_var=loop.var)

        self._emit_block(tuple(body), env, None)

        if parity and loop.extent > 1:
            if pipelined:
                # After the compute: tile ``i + 1``'s prefetched values land
                # in the inactive half, fenced from their readers by the
                # *next* iteration's barrier.  The prefetch predicate is
                # re-evaluated here — a nested pipelined staging loop in the
                # body shares P1 and would otherwise leave it false.
                builder.isetp(p_more, "GT", counter, 0)
                for pointer in parity_stores:
                    builder.lop_xor(pointer.reg, pointer.reg, self._parity_mask)
                for stage in stages:
                    self._emit_stage_stores(self._stage_plans[id(stage)],
                                            from_prefetch=True, guard=p_more)
                for pointer in parity_reads:
                    builder.lop_xor(pointer.reg, pointer.reg, self._parity_mask)
            else:
                for pointer in parity_stores + parity_reads:
                    builder.lop_xor(pointer.reg, pointer.reg, self._parity_mask)

        for pointer in late:
            builder.iadd(pointer.reg, pointer.reg, pointer.seq_terms[loop.var])
        if bottom_decrement:
            builder.iadd(counter, counter, -1)
        if up is not None:
            builder.iadd(up, up, 1)
        p_loop = predicate(_LOOP_PREDICATE)
        builder.isetp(p_loop, "GT", counter, 0)
        builder.bra(label, predicate=p_loop)
        self._guard_slot_key.clear()

        self._seq_stack.pop()
        for pointer in advanced:
            # Rewind the pointer when its advanced value survives the loop:
            # either later statements use it, or an enclosing sequential loop
            # will run this loop again from the advanced value.  (A parity
            # loop of one iteration never advances its stage pointers — the
            # in-loop prefetch is elided entirely.)
            steps = loop.extent
            if parity and pipelined and loop.extent == 1 and pointer in early:
                steps = 0
            if steps and (loop.var in pointer.sites_after_loop or enclosing_seq):
                builder.iadd(
                    pointer.reg, pointer.reg, -steps * pointer.seq_terms[loop.var]
                )
        if parity and loop.extent > 1 and loop.extent % 2 and enclosing_seq:
            # An enclosing loop will run this loop again: restore parity 0.
            for pointer in parity_stores + parity_reads:
                builder.lop_xor(pointer.reg, pointer.reg, self._parity_mask)

    # -- staging --------------------------------------------------------- #

    def _stage_clip_dims(self, stage: Stage) -> tuple[list[int], int | None]:
        """Clipped tensor dims of a stage: (element-invariant, q-varying).

        A thread's consecutive elements walk ``axes[-1]``; a clip on that
        dimension needs a per-element predicate, clips on any other dimension
        are invariant across the thread's run.
        """
        if not stage.limits or all(limit is None for limit in stage.limits):
            return [], None
        qdim = stage.axes[-1]
        invariant = [
            dim for dim, limit in enumerate(stage.limits)
            if limit is not None and dim != qdim
        ]
        varying = qdim if stage.limits[qdim] is not None else None
        return invariant, varying

    def _clip_var_reg(self, var: str, plan: _StagePlan,
                      cache: dict[str, Register], temps: list[Register]) -> Register:
        """A live register holding ``var``'s runtime value at staging time.

        Persistent index registers and up-counters are reused; everything
        else (block/thread indices, the cooperative-load distribution) is
        recomputed from the special registers into pool scratch — the clip
        conditions must not widen the kernel's persistent register set.
        """
        if var in cache:
            return cache[var]
        builder = self._builder
        geometry = self._geometry

        def fresh() -> Register:
            reg = self._pool.alloc()
            temps.append(reg)
            return reg

        def tid_reg() -> Register:
            if "__tid" not in cache:
                reg = fresh()
                builder.s2r(reg, SpecialRegister.TID_X)
                cache["__tid"] = reg
            return cache["__tid"]

        reg = self._var_regs.get(var) or self._up_counters.get(var)
        if reg is None and var == "__flat_tid":
            reg = tid_reg()
        elif reg is None and var in ("__b0", "__b1"):
            groups = plan.groups_per_row
            if groups <= 1:
                if var == "__b0":
                    reg = tid_reg()
                else:
                    reg = fresh()
                    builder.mov32i(reg, 0)
            else:
                tid = tid_reg()
                reg = fresh()
                if var == "__b0":
                    builder.shr(reg, tid, groups.bit_length() - 1)
                else:
                    builder.lop_and(reg, tid, groups - 1)
        elif reg is None:
            kind = self._kinds.get(var)
            if kind is None:
                raise LoweringError(f"no runtime value for staging variable '{var}'")
            if kind.is_block:
                reg = fresh()
                builder.s2r(
                    reg,
                    SpecialRegister.CTAID_X if kind is LoopKind.BLOCK_X
                    else SpecialRegister.CTAID_Y,
                )
            elif kind is LoopKind.THREAD_X:
                tid = tid_reg()
                if geometry.threads_y > 1:
                    reg = fresh()
                    builder.lop_and(reg, tid, geometry.threads_x - 1)
                else:
                    reg = tid
            elif kind is LoopKind.THREAD_Y:
                tid = tid_reg()
                reg = fresh()
                builder.shr(reg, tid, geometry.threads_x.bit_length() - 1)
            else:
                raise LoweringError(
                    f"staging clip condition depends on {kind.value} loop '{var}'"
                )
        cache[var] = reg
        return reg

    def _emit_clip_index(self, plan: _StagePlan, dim: int, advance_var: str | None,
                         cache: dict[str, Register], temps: list[Register],
                         advance_steps: int = 1) -> Register:
        """The runtime tensor-dim index of a thread's first element in ``dim``.

        ``advance_var`` shifts the sequential base ``advance_steps`` staging
        steps forward — the in-loop prefetch targets a tile *ahead* of the
        one the iteration register describes.
        """
        builder = self._builder
        stage = plan.stage
        expr = stage.base[dim]
        const = expr.const + (
            expr.coeff(advance_var) * advance_steps if advance_var else 0
        )
        reg = self._pool.alloc()
        temps.append(reg)
        builder.mov32i(reg, const)
        for var in sorted(expr.vars()):
            builder.imad(
                reg, self._clip_var_reg(var, plan, cache, temps), expr.coeff(var), reg
            )
        if len(stage.sizes) == 2:
            if dim == stage.axes[0]:
                builder.iadd(reg, reg, self._clip_var_reg("__b0", plan, cache, temps))
            elif dim == stage.axes[1]:
                builder.imad(
                    reg, self._clip_var_reg("__b1", plan, cache, temps),
                    plan.per_thread, reg,
                )
        elif dim == stage.axes[0]:
            builder.imad(
                reg, self._clip_var_reg("__flat_tid", plan, cache, temps),
                plan.per_thread, reg,
            )
        return reg

    def _stage_clip_plan(self, plan: _StagePlan, guard, advance_var: str | None,
                         cache: dict[str, Register], temps: list[Register],
                         advance_steps: int = 1):
        """Prepare a clipped stage's load predicates.

        Returns ``(base_pred, varying_reg, varying_limit)``: the
        element-invariant clip conjunction (folded with ``guard``) lands in
        one predicate, and the q-varying dimension's index register is left
        for :meth:`_element_guard` to compare per element.
        """
        builder = self._builder
        invariant, varying = self._stage_clip_dims(plan.stage)
        base_pred = guard
        first = True
        for dim in invariant:
            slot = predicate(_CLIP_PREDICATES[0])
            reg = self._emit_clip_index(plan, dim, advance_var, cache, temps,
                                        advance_steps)
            limit = plan.stage.limits[dim]
            if first and base_pred is None:
                builder.isetp(slot, "LT", reg, limit)
            elif first:
                builder.isetp(slot, "GE", RZ, 1)  # preset false: 0 >= 1
                with builder.guarded(base_pred):
                    builder.isetp(slot, "LT", reg, limit)
            else:
                with builder.guarded(slot):
                    builder.isetp(slot, "LT", reg, limit)
            first = False
            base_pred = slot
            temps.remove(reg)
            self._pool.release([reg])
        varying_reg = None
        varying_limit = 0
        if varying is not None:
            varying_reg = self._emit_clip_index(plan, varying, advance_var, cache,
                                                temps, advance_steps)
            varying_limit = plan.stage.limits[varying]
        return base_pred, varying_reg, varying_limit

    def _element_guard(self, base_pred, varying_reg, varying_limit: int, q: int):
        """The load predicate of staged element ``q`` (``None`` = unguarded)."""
        if varying_reg is None:
            return base_pred
        builder = self._builder
        slot = predicate(_CLIP_PREDICATES[1])
        if base_pred is None:
            builder.isetp(slot, "LT", varying_reg, varying_limit - q)
        else:
            builder.isetp(slot, "GE", RZ, 1)  # preset false: 0 >= 1
            with builder.guarded(base_pred):
                builder.isetp(slot, "LT", varying_reg, varying_limit - q)
        return slot

    def _emit_prefetch_loads(self, plan: _StagePlan, guard, *,
                             advance_var: str | None = None,
                             advance_steps: int = 1) -> None:
        """Global loads of one staged tile into the prefetch registers.

        Clipped stages predicate every element's load on its window
        condition (conjoined with ``guard``), so the dead lanes of a
        boundary tile stop reading slack memory — the simulated DRAM traffic
        of a clipped pipelined stage equals the compulsory traffic the bound
        model prices.
        """
        with self._builder.provenance(f"stage_shared({plan.stage.buffer})/prefetch"):
            self._emit_prefetch_loads_inner(plan, guard, advance_var=advance_var,
                                            advance_steps=advance_steps)

    def _emit_prefetch_loads_inner(self, plan: _StagePlan, guard, *,
                                   advance_var: str | None = None,
                                   advance_steps: int = 1) -> None:
        builder = self._builder
        base = plan.src_pointer.reg
        if not plan.stage.limits or all(l is None for l in plan.stage.limits):
            def emit() -> None:
                q = 0
                while q < plan.per_thread:
                    offset = plan.src_const + q * plan.q_src_step
                    reg = plan.prefetch_regs[q]
                    if (
                        plan.q_src_step == 4
                        and q + 1 < plan.per_thread
                        and plan.prefetch_regs[q + 1].index == reg.index + 1
                    ):
                        builder.ld(reg, MemRef(base=base, offset=offset), width=64)
                        q += 2
                    else:
                        builder.ld(reg, MemRef(base=base, offset=offset), width=32)
                        q += 1

            if guard is not None:
                with builder.guarded(guard):
                    emit()
            else:
                emit()
            return

        temps: list[Register] = []
        cache: dict[str, Register] = {}
        base_pred, varying_reg, varying_limit = self._stage_clip_plan(
            plan, guard, advance_var, cache, temps, advance_steps
        )
        for q in range(plan.per_thread):
            pred = self._element_guard(base_pred, varying_reg, varying_limit, q)
            offset = plan.src_const + q * plan.q_src_step
            if pred is not None:
                with builder.guarded(pred):
                    builder.ld(plan.prefetch_regs[q], MemRef(base=base, offset=offset),
                               width=32)
            else:
                builder.ld(plan.prefetch_regs[q], MemRef(base=base, offset=offset),
                           width=32)
        self._pool.release(temps)

    def _emit_stage_stores(self, plan: _StagePlan, *, from_prefetch: bool,
                           guard, temps: list[Register] | None = None) -> None:
        with self._builder.provenance(f"stage_shared({plan.stage.buffer})/store"):
            self._emit_stage_stores_inner(plan, from_prefetch=from_prefetch,
                                          guard=guard, temps=temps)

    def _emit_stage_stores_inner(self, plan: _StagePlan, *, from_prefetch: bool,
                                 guard, temps: list[Register] | None = None) -> None:
        builder = self._builder
        regs = plan.prefetch_regs if from_prefetch else temps
        store_base = plan.store_pointer.reg

        def emit() -> None:
            for q in range(plan.per_thread):
                builder.sts(
                    MemRef(base=store_base, offset=plan.shared_base + q * plan.q_store_step),
                    regs[q],
                )

        if guard is not None:
            with builder.guarded(guard):
                emit()
        else:
            emit()

    def _emit_stage_group(self, stages: list[Stage], env: dict[str, int], *,
                          guard, leading_barrier: bool) -> None:
        """Non-pipelined staging: loads into pool temps, stores, barrier.

        Each stage's temporaries are released before the next stage loads, so
        two staged operands never need 2× the per-tile registers (the price is
        load-use adjacency — the pipelined path avoids it).
        """
        builder = self._builder
        if leading_barrier:
            with builder.provenance("barrier"):
                builder.bar(0)
        for stage in stages:
            with builder.provenance(f"stage_shared({stage.buffer})/copy"):
                self._emit_stage_copy(stage, guard)
        with builder.provenance("barrier"):
            builder.bar(0)

    def _emit_stage_copy(self, stage: Stage, guard) -> None:
        """One eager cooperative copy: chunked loads into pool temps, stores."""
        builder = self._builder
        plan = self._stage_plans[id(stage)]
        base = plan.src_pointer.reg
        clipped = bool(stage.limits) and any(
            limit is not None for limit in stage.limits
        )
        clip_temps: list[Register] = []
        base_pred, varying_reg, varying_limit = guard, None, 0
        if clipped:
            base_pred, varying_reg, varying_limit = self._stage_clip_plan(
                plan, guard, None, {}, clip_temps
            )
        chunk = max(1, min(plan.per_thread, self._pool.free_count))
        for start in range(0, plan.per_thread, chunk):
            count = min(chunk, plan.per_thread - start)
            temps = [self._pool.alloc() for _ in range(count)]
            for i in range(count):
                pred = (
                    self._element_guard(
                        base_pred, varying_reg, varying_limit, start + i
                    )
                    if clipped else guard
                )
                self._emit_predicated(
                    lambda i=i: builder.ld(
                        temps[i],
                        MemRef(
                            base=base,
                            offset=plan.src_const + (start + i) * plan.q_src_step,
                        ),
                    ),
                    pred,
                )
            for i in range(count):
                self._emit_predicated(
                    lambda i=i: builder.sts(
                        MemRef(
                            base=plan.store_pointer.reg,
                            offset=plan.shared_base + (start + i) * plan.q_store_step,
                        ),
                        temps[i],
                    ),
                    guard,
                )
            self._pool.release(temps)
        self._pool.release(clip_temps)

    # -- batched compute -------------------------------------------------- #

    def _resolve_read(self, read_: Read, env: dict[str, int]):
        """A loadable read → ('mem', base_reg, offset, space) or ('reg', register)."""
        # The pointer, seq pattern and unroll affine of a read are all
        # env-independent; only the constant fold of the unroll terms varies
        # across iterations.  Key by identity: the template Read objects stay
        # alive (and are re-visited per unroll value) for the whole lowering.
        cached = self._resolve_cache.get(id(read_))
        if cached is None:
            tensor = read_.tensor
            if (
                self._proc.is_buffer(tensor)
                and self._proc.buffer(tensor).memory == "register"
            ):
                cached = (read_, None, None, 0, False, None)
            else:
                runtime, seq, unroll_affine = self._split_access(tensor, read_.index)
                pointer = self._pointer_for(tensor, runtime, seq)
                shared = self._proc.is_buffer(tensor)
                extra = pointer.shared_base if shared else 0
                cached = (read_, pointer, unroll_affine, extra, shared, seq)
            self._resolve_cache[id(read_)] = cached
        _, pointer, unroll_affine, extra, shared, seq = cached
        if pointer is None:
            return ("reg", self._register_element(read_.tensor, read_.index, env))
        total = unroll_affine.const
        for var, coeff in unroll_affine.terms:
            value = env.get(var)
            if value is None:
                offset = unroll_affine.substitute(
                    {v: Affine.constant(c) for v, c in env.items()}
                )
                raise LoweringError(
                    f"access {read_} keeps unresolved unrolled terms {offset}; "
                    f"unroll the loops it indexes with"
                )
            total += coeff * value
        base = pointer.reg if pointer.reg is not None else RZ
        return ("mem", pointer, base, total + extra, shared, seq)

    def _register_element(self, buffer_name: str, index: tuple[Affine, ...],
                          env: dict[str, int]) -> Register:
        """The register of one register-buffer element, flattened row-major.

        No range check: :func:`lower` runs :func:`check_proc` first, which
        proves every index inside the buffer's shape.
        """
        flat = 0
        for expr, extent in zip(index, self._proc.buffer(buffer_name).shape):
            total = expr.const
            for var, coeff in expr.terms:
                value = env.get(var)
                if value is None:
                    raise LoweringError(
                        f"register buffer '{buffer_name}' indexed by non-unrolled "
                        f"expression {expr}"
                    )
                total += coeff * value
            flat = flat * extent + total
        return self._buffer_regs[buffer_name][flat]

    def _scratch_address(self, pointer: _Pointer, base: Register, offset: int,
                         seq_terms: dict[str, int]):
        """IMAD-compose a scratch address for irregular seq-loop accesses."""
        if not (pointer.scratch_seq and seq_terms):
            return base, offset, None
        builder = self._builder
        scratch = self._pool.alloc()
        first = True
        for var, coeff in sorted(seq_terms.items()):
            up = self._up_counters.get(var)
            if up is None:
                raise LoweringError(f"no iteration register for seq loop '{var}'")
            if first:
                builder.imad(scratch, up, coeff, base)
                first = False
            else:
                builder.imad(scratch, up, coeff, scratch)
        return scratch, offset, scratch

    def _collect_leaves(self, stmts: tuple[Stmt, ...], env: dict[str, int]) -> list:
        """Every loadable read of a compute batch, resolved once.

        One walk over the batch's unrolled iterations.  Each leaf is
        ``(frames, resolved)``: ``frames`` holds ``(value, container)`` for
        every loop entered on the way down — its iteration value and the
        statement tuple the loop sits in — so a batch split into iterations
        takes each sub-batch's reads and groups from this one walk.
        """
        leaves: list = []

        def visit(stmts_: tuple[Stmt, ...], env_: dict[str, int], frames: tuple) -> None:
            for stmt in stmts_:
                if isinstance(stmt, Loop):
                    for value in range(stmt.extent):
                        visit(stmt.body, {**env_, stmt.var: value},
                              frames + ((value, stmts_),))
                elif isinstance(stmt, Guard):
                    if self._fold_guard(stmt, env_)[0] != "skipped":
                        visit(stmt.body, env_, frames)
                elif isinstance(stmt, Assign):
                    for r in expr_reads(stmt.value):
                        resolved = self._resolve_read(r, env_)
                        if resolved[0] == "mem":
                            leaves.append((frames, resolved))

        visit(stmts, env, ())
        return leaves

    @staticmethod
    def _batch_reads(leaves: list, depth: int, root: tuple[Stmt, ...]) -> dict:
        """Unique loadable reads of a batch, with the groups that use them.

        A read's group is its iteration of the loop at ``depth`` when that
        loop sits directly in the batch's statements ``root``, else -1.
        """
        found: dict[tuple, list] = {}
        for frames, (_, pointer, base, offset, shared, seq) in leaves:
            key = (id(pointer), offset)
            entry = found.get(key)
            if entry is None:
                entry = found[key] = [pointer, base, offset, shared, seq, set()]
            if len(frames) > depth and frames[depth][1] is root:
                entry[5].add(frames[depth][0])
            else:
                entry[5].add(-1)
        return found

    def _emit_compute(self, stmts: tuple[Stmt, ...], env: dict[str, int], pred) -> None:
        mark = self._pool.mark()
        self._compute_cache: dict[tuple, Register] = {}
        with self._builder.provenance("compute"):
            self._emit_compute_rec(stmts, env, pred, self._compute_cache,
                                   self._collect_leaves(stmts, env), 0)
        self._pool.restore(mark)

    def _guard_scratch_reserve(self, stmts: tuple[Stmt, ...]) -> int:
        """Pool registers to hold back for runtime-guard ISETP scratch."""
        for stmt in walk_stmts(stmts):
            if isinstance(stmt, Guard) and id(stmt) not in self._droppable:
                if any(
                    self._var_class(var) in ("launch", "seq")
                    for var in stmt.expr.vars()
                ):
                    return 1
        return 0

    def _emit_compute_rec(self, stmts: tuple[Stmt, ...], env: dict[str, int], pred,
                          cache: dict[tuple, Register], leaves: list, depth: int) -> None:
        """Emit a batch whose loadable reads are ``leaves`` (``depth`` loops down)."""
        if len(stmts) == 1 and isinstance(stmts[0], Guard):
            # A guard heading the batch: fold it, drop it, or predicate the
            # whole batch, then keep batching its body.
            stmt = stmts[0]
            decision, expr = self._fold_guard(stmt, env)
            if decision == "skipped":
                return
            if decision == "taken" or id(stmt) in self._droppable:
                self._emit_compute_rec(stmt.body, env, pred, cache, leaves, depth)
                return
            guard = self._compute_guard(expr, stmt.bound, pred)
            self._active_guard_slots.append(guard.index)
            try:
                self._emit_compute_rec(stmt.body, env, guard, cache, leaves, depth)
            finally:
                self._active_guard_slots.pop()
            return
        reads = self._batch_reads(leaves, depth, stmts)
        uncached = {k: v for k, v in reads.items() if k not in cache}
        budget = self._pool.free_count - self._guard_scratch_reserve(stmts)
        if len(uncached) <= budget:
            self._preload(uncached, pred, cache)
            self._emit_compute_body(stmts, env, pred, cache)
            return
        if len(stmts) != 1 or not isinstance(stmts[0], Loop):
            raise LoweringError(
                f"compute batch needs {len(uncached)} operand registers but the pool "
                f"holds {self._pool.free_count}; split the loop or shrink the register tile"
            )
        loop = stmts[0]
        common = {
            k: v for k, v in uncached.items() if len(v[5]) > 1
        }
        if len(common) > self._pool.free_count:
            raise LoweringError(
                f"{len(common)} loop-invariant operands exceed the {self._pool.free_count}"
                f"-register pool; split the loop further or shrink the register tile"
            )
        self._preload(common, pred, cache)
        # Every leaf sits under this loop: split them by its iteration.
        per_value: list[list] = [[] for _ in range(loop.extent)]
        for leaf in leaves:
            per_value[leaf[0][depth][0]].append(leaf)
        for value in range(loop.extent):
            mark = self._pool.mark()
            inner_cache = dict(cache)
            self._emit_compute_rec(loop.body, {**env, loop.var: value}, pred, inner_cache,
                                   per_value[value], depth + 1)
            self._pool.restore(mark)

    def _preload(self, reads: dict, pred, cache: dict[tuple, Register]) -> None:
        """Load a batch of operands, pairing adjacent addresses into wide loads."""
        builder = self._builder
        ordered = sorted(reads.items(), key=lambda item: (item[1][0].key, item[1][2]))
        position = 0
        while position < len(ordered):
            key, (pointer, base, offset, shared, seq, _) = ordered[position]
            paired = None
            if (self._wide_shared or not shared) and position + 1 < len(ordered):
                next_key, (next_pointer, _, next_offset, _, _, _) = ordered[position + 1]
                if next_pointer is pointer and next_offset == offset + 4 and not (
                    pointer.scratch_seq and seq
                ):
                    paired = next_key
            address, resolved_offset, scratch = self._scratch_address(
                pointer, base, offset, seq
            )
            opcode = builder.lds if shared else builder.ld
            if paired is not None:
                pair = self._pool.alloc_pair()
                if pair is None:
                    paired = None
                else:
                    lo, hi = pair
                    if pred is not None:
                        with builder.guarded(pred):
                            opcode(lo, MemRef(base=address, offset=resolved_offset), width=64)
                    else:
                        opcode(lo, MemRef(base=address, offset=resolved_offset), width=64)
                    cache[key] = lo
                    cache[paired] = hi
                    position += 2
            if paired is None:
                reg = self._pool.alloc()
                if pred is not None:
                    with builder.guarded(pred):
                        opcode(reg, MemRef(base=address, offset=resolved_offset), width=32)
                else:
                    opcode(reg, MemRef(base=address, offset=resolved_offset), width=32)
                cache[key] = reg
                position += 1
            if scratch is not None:
                self._pool.release([scratch])

    def _emit_compute_body(self, stmts: tuple[Stmt, ...], env: dict[str, int], pred,
                           cache: dict[tuple, Register]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Loop):
                for value in range(stmt.extent):
                    self._emit_compute_body(stmt.body, {**env, stmt.var: value}, pred, cache)
            elif isinstance(stmt, Guard):
                decision, expr = self._fold_guard(stmt, env)
                if decision == "skipped":
                    continue
                if decision == "taken" or id(stmt) in self._droppable:
                    self._emit_compute_body(stmt.body, env, pred, cache)
                else:
                    guard = self._compute_guard(expr, stmt.bound, pred)
                    self._active_guard_slots.append(guard.index)
                    try:
                        self._emit_compute_body(stmt.body, env, guard, cache)
                    finally:
                        self._active_guard_slots.pop()
            elif isinstance(stmt, Assign):
                self._emit_assign(stmt, env, pred, cache)
            else:
                raise LoweringError(f"statement {stmt!r} inside a compute batch")

    def _operand(self, expr: Expr, env: dict[str, int], pred,
                 cache: dict[tuple, Register], temps: list[Register]) -> Register:
        builder = self._builder
        if isinstance(expr, Read):
            resolved = self._resolve_read(expr, env)
            if resolved[0] == "reg":
                return resolved[1]
            _, pointer, base, offset, shared, seq = resolved
            key = (id(pointer), offset)
            if key in cache:
                return cache[key]
            address, resolved_offset, scratch = self._scratch_address(
                pointer, base, offset, seq
            )
            reg = self._pool.alloc()
            temps.append(reg)
            op = builder.lds if shared else builder.ld
            if pred is not None:
                with builder.guarded(pred):
                    op(reg, MemRef(base=address, offset=resolved_offset), width=32)
            else:
                op(reg, MemRef(base=address, offset=resolved_offset), width=32)
            if scratch is not None:
                self._pool.release([scratch])
            return reg
        if isinstance(expr, Const):
            reg = self._pool.alloc()
            temps.append(reg)
            self._emit_predicated(lambda: builder.mov32i(reg, float(expr.value)), pred)
            return reg
        if isinstance(expr, BinOp):
            lhs = self._operand(expr.lhs, env, pred, cache, temps)
            rhs = self._operand(expr.rhs, env, pred, cache, temps)
            reg = self._pool.alloc()
            temps.append(reg)
            emit = builder.fmul if expr.op == "mul" else builder.fadd
            self._emit_predicated(lambda: emit(reg, lhs, rhs), pred)
            return reg
        raise LoweringError(f"cannot lower expression {expr!r}")

    def _emit_predicated(self, emit, pred) -> None:
        if pred is not None:
            with self._builder.guarded(pred):
                emit()
        else:
            emit()

    def _emit_assign(self, stmt: Assign, env: dict[str, int], pred,
                     cache: dict[tuple, Register]) -> None:
        builder = self._builder
        temps: list[Register] = []
        is_reg_dest = (
            self._proc.is_buffer(stmt.tensor)
            and self._proc.buffer(stmt.tensor).memory == "register"
        )
        if is_reg_dest:
            dest = self._register_element(stmt.tensor, stmt.index, env)
            value = stmt.value
            if stmt.accumulate and isinstance(value, BinOp) and value.op == "mul":
                a = self._operand(value.lhs, env, pred, cache, temps)
                b = self._operand(value.rhs, env, pred, cache, temps)
                self._emit_predicated(lambda: builder.ffma(dest, a, b, dest), pred)
            elif stmt.accumulate:
                v = self._operand(value, env, pred, cache, temps)
                self._emit_predicated(lambda: builder.fadd(dest, dest, v), pred)
            elif isinstance(value, Const):
                self._emit_predicated(lambda: builder.mov32i(dest, float(value.value)), pred)
            elif isinstance(value, Read):
                src = self._operand(value, env, pred, cache, temps)
                self._emit_predicated(lambda: builder.mov(dest, src), pred)
            else:
                v = self._operand(value, env, pred, cache, temps)
                self._emit_predicated(lambda: builder.mov(dest, v), pred)
        else:
            runtime, seq, unroll_affine = self._split_access(stmt.tensor, stmt.index)
            offset_expr = unroll_affine.substitute(
                {v: Affine.constant(c) for v, c in env.items()}
            )
            if not offset_expr.is_constant:
                raise LoweringError(
                    f"store {stmt} keeps unresolved unrolled terms; unroll its loops"
                )
            pointer = self._pointer_for(stmt.tensor, runtime, seq)
            shared = self._proc.is_buffer(stmt.tensor)
            base = pointer.reg if pointer.reg is not None else RZ
            offset = offset_expr.const + (pointer.shared_base if shared else 0)
            address, offset, scratch = self._scratch_address(pointer, base, offset, seq)
            store = builder.sts if shared else builder.st
            load = builder.lds if shared else builder.ld
            if stmt.accumulate:
                old = self._pool.alloc()
                temps.append(old)
                self._emit_predicated(
                    lambda: load(old, MemRef(base=address, offset=offset), width=32), pred
                )
                if isinstance(stmt.value, BinOp) and stmt.value.op == "mul":
                    a = self._operand(stmt.value.lhs, env, pred, cache, temps)
                    b = self._operand(stmt.value.rhs, env, pred, cache, temps)
                    self._emit_predicated(lambda: builder.ffma(old, a, b, old), pred)
                else:
                    v = self._operand(stmt.value, env, pred, cache, temps)
                    self._emit_predicated(lambda: builder.fadd(old, old, v), pred)
                self._emit_predicated(
                    lambda: store(MemRef(base=address, offset=offset), old), pred
                )
            else:
                v = self._operand(stmt.value, env, pred, cache, temps)
                self._emit_predicated(
                    lambda: store(MemRef(base=address, offset=offset), v), pred
                )
            if scratch is not None:
                self._pool.release([scratch])
        self._pool.release(temps)

    # -- epilogue --------------------------------------------------------- #

    def _runtime_reg(self, var: str) -> Register:
        """The live register holding a launch index or seq iteration count."""
        reg = (
            self._epilogue_env.get(var)
            or self._var_regs.get(var)
            or self._up_counters.get(var)
        )
        if reg is None:
            raise LoweringError(f"variable '{var}' has no runtime register")
        return reg

    def _clip_base_reg(self, expr: Affine, env: dict[str, int]) -> Register:
        """Materialise the runtime value of a clipped window-base dimension."""
        builder = self._builder
        value = expr.substitute({v: Affine.constant(c) for v, c in env.items()})
        reg = self._pool.alloc()
        builder.mov32i(reg, value.const)
        for var in sorted(value.vars()):
            builder.imad(reg, self._runtime_reg(var), value.coeff(var), reg)
        return reg

    def _emit_unstage(self, stmt: Unstage, env: dict[str, int], pred) -> None:
        with self._builder.provenance(f"unstage({stmt.buffer})"):
            self._emit_unstage_inner(stmt, env, pred)

    def _emit_unstage_inner(self, stmt: Unstage, env: dict[str, int], pred) -> None:
        builder = self._builder
        regs = self._buffer_regs[stmt.buffer]
        runtime, seq, unroll_affine = self._split_access(stmt.tensor, stmt.base)
        base_expr = unroll_affine.substitute(
            {v: Affine.constant(c) for v, c in env.items()}
        )
        if not base_expr.is_constant:
            raise LoweringError("write-back base keeps unresolved unrolled terms")
        pointer = self._pointer_for(stmt.tensor, runtime, seq)
        if pointer.reg is None:
            raise LoweringError(f"write-back pointer for '{stmt.tensor}' was never planned")
        strides = self._proc.param(stmt.tensor).strides()
        address, base_offset, scratch = self._scratch_address(
            pointer, pointer.reg, base_expr.const, seq
        )
        clipped = [d for d, limit in enumerate(stmt.limits) if limit is not None]
        clip_regs: dict[int, Register] = {}
        if clipped:
            if pred is not None:
                raise LoweringError("a clipped write-back under a guard is not supported")
            for dim in clipped:
                clip_regs[dim] = self._clip_base_reg(stmt.base[dim], env)
        total = 1
        for size in stmt.sizes:
            total *= size
        for flat in range(total):
            coords = np.unravel_index(flat, stmt.sizes)
            offset = base_offset + 4 * sum(
                int(c) * s for c, s in zip(coords, strides)
            )
            if clipped:
                # base_d + coord_d < limit_d per clipped dim, AND-chained by
                # running the follow-up compares under the predicate.
                guard = predicate(self._guard_slot(None))
                for position, dim in enumerate(clipped):
                    bound = stmt.limits[dim] - int(coords[dim])
                    if position == 0:
                        builder.isetp(guard, "LT", clip_regs[dim], bound)
                    else:
                        with builder.guarded(guard):
                            builder.isetp(guard, "LT", clip_regs[dim], bound)
                self._guard_slot_key[guard.index] = None
                with builder.guarded(guard):
                    builder.st(MemRef(base=address, offset=offset), regs[flat])
            else:
                self._emit_predicated(
                    lambda reg=regs[flat], off=offset: builder.st(
                        MemRef(base=address, offset=off), reg
                    ),
                    pred,
                )
        if clip_regs:
            self._pool.release(list(clip_regs.values()))
        if scratch is not None:
            self._pool.release([scratch])

    def _emit_epilogue(self, stmts: tuple[Stmt, ...]) -> None:
        if not stmts:
            return
        with self._builder.provenance("epilogue"):
            self._emit_epilogue_inner(stmts)

    def _emit_epilogue_inner(self, stmts: tuple[Stmt, ...]) -> None:
        builder = self._builder
        # The main loop is over: prefetch and pool registers are dead, so the
        # write-back pointers can reuse them (the hand kernels' trick for
        # staying inside the register budget).
        pool = self._pool
        epilogue_pointers = [
            p for p in self._pointers.values() if p.epilogue and p.needs_register
        ]
        has_clip = any(
            isinstance(stmt, Unstage) and any(l is not None for l in stmt.limits)
            for stmt in walk_stmts(stmts)
        )
        if has_clip:
            # Clipped write-backs need index registers alongside the pointers;
            # the dead prefetch registers widen the pool to make room.
            for plan in self._stage_plans.values():
                if plan.prefetch_regs:
                    pool.release(plan.prefetch_regs)
                    plan.prefetch_regs = []
        scratch: list[Register] = []
        if epilogue_pointers or self._epilogue_clip_vars:
            needed: set[str] = set(self._epilogue_clip_vars)
            for pointer in epilogue_pointers:
                needed.update(var for var, _ in pointer.runtime_terms)
            env: dict[str, Register] = {}

            def take() -> Register:
                reg = pool.alloc()
                scratch.append(reg)
                return reg

            thread_vars = {
                v for v in needed
                if v not in self._var_regs and self._kinds[v].is_thread
            }
            tid = take() if thread_vars else None
            if tid is not None:
                builder.s2r(tid, SpecialRegister.TID_X)
            for var in sorted(needed):
                if var in self._var_regs:
                    env[var] = self._var_regs[var]
                    continue
                kind = self._kinds[var]
                reg = take()
                env[var] = reg
                if kind is LoopKind.BLOCK_X:
                    builder.s2r(reg, SpecialRegister.CTAID_X)
                elif kind is LoopKind.BLOCK_Y:
                    builder.s2r(reg, SpecialRegister.CTAID_Y)
                elif kind is LoopKind.THREAD_X:
                    if self._geometry.threads_y > 1:
                        builder.lop_and(reg, tid, self._geometry.threads_x - 1)
                    else:
                        builder.mov(reg, tid)
                else:
                    builder.shr(reg, tid, self._geometry.threads_x.bit_length() - 1)
            for pointer in epilogue_pointers:
                pointer.reg = pool.alloc()
                self._emit_pointer(pointer, pointer.reg, env)
            self._epilogue_env = env
        if not has_clip:
            # Without clip conditions the env registers are dead once the
            # pointers are built — the historical (register-minimal) shape.
            pool.release(scratch)
            scratch = []
        self._emit_block(stmts, {}, None)
        pool.release(scratch)
        self._epilogue_env = {}
