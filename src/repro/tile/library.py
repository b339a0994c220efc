"""The DSL kernel library: naive loop nests and their golden schedules.

Each workload is written *once* as the textbook loop nest, and every
optimized variant is derived by composing scheduling primitives — the whole
point of the tile IR.  The schedules below reproduce, step by step, the
hand-written structure of the paper's kernels:

* :func:`schedule_sgemm` rebuilds Section 5's SGEMM: block/thread/register
  blocking by two levels of ``split`` (:func:`decompose_sgemm`, cached by
  value, so the points of one shape, tile and register blocking extend one
  decomposition), the accumulator tile via ``stage_registers``, the
  software-pipelined shared-memory staging of the A and B tiles via
  ``stage_shared`` (A transposed so its column is read with unit stride,
  enabling LDS.64 pairing), and the unrolled B-register-pair inner loop via
  a 2-wide ``split`` of the j tile.
* :func:`schedule_transpose` rebuilds the padded tiled transpose: the thread
  axes are deliberately bound *crosswise* (row loop → thread x) so the
  global stores stay coalesced, and the staging buffer takes the §5.1
  ``pad=1`` that keeps the column-order shared reads conflict-free.
* :func:`schedule_sgemv` rebuilds the row-per-thread SGEMV with its
  shared-memory x tile, and goes one step beyond the hand kernel by
  software-pipelining the x staging loads.

The naive procs are also each schedule's oracle: tests require
``interpret(naive) == interpret(scheduled)`` bit-for-bit.
"""

from __future__ import annotations

import functools

from repro.errors import ScheduleError
from repro.tile import schedule as S
from repro.tile.ir import (
    Assign,
    Const,
    Loop,
    Proc,
    TensorParam,
    mul,
    read,
    to_affine,
)

__all__ = [
    "copy_proc",
    "matmul_proc",
    "transpose_proc",
    "sgemv_proc",
    "decompose_sgemm",
    "check_sgemm_schedule",
    "schedule_sgemm",
    "schedule_transpose",
    "schedule_sgemv",
]


# --------------------------------------------------------------------------- #
# Naive loop nests.                                                            #
# --------------------------------------------------------------------------- #


def copy_proc(n: int) -> Proc:
    """``dst = src`` over a vector — the smallest demo/testing proc."""
    body = (
        Loop(
            var="i",
            extent=n,
            body=(Assign(tensor="dst", index=(to_affine("i"),), value=read("src", "i")),),
        ),
    )
    return Proc(
        name=f"copy_{n}",
        params=(TensorParam("src", (n,)), TensorParam("dst", (n,))),
        body=body,
    )


def matmul_proc(m: int, n: int, k: int, *, init_separate: bool = False) -> Proc:
    """``C = A · B`` as the textbook triple loop.

    With ``init_separate`` the zero-initialisation runs in its own loop nest
    (variables ``i0``/``j0``); the default keeps it inline above the k-loop,
    which is the form the SGEMM schedule starts from.
    """
    accum = Loop(
        var="k",
        extent=k,
        body=(
            Assign(
                tensor="C",
                index=(to_affine("i"), to_affine("j")),
                value=mul(read("A", "i", "k"), read("B", "k", "j")),
                accumulate=True,
            ),
        ),
    )
    init = Assign(tensor="C", index=(to_affine("i"), to_affine("j")), value=Const(0.0))
    if init_separate:
        body = (
            Loop(
                var="i0",
                extent=m,
                body=(
                    Loop(
                        var="j0",
                        extent=n,
                        body=(
                            Assign(
                                tensor="C",
                                index=(to_affine("i0"), to_affine("j0")),
                                value=Const(0.0),
                            ),
                        ),
                    ),
                ),
            ),
            Loop(var="i", extent=m, body=(Loop(var="j", extent=n, body=(accum,)),)),
        )
    else:
        body = (
            Loop(var="i", extent=m, body=(Loop(var="j", extent=n, body=(init, accum)),)),
        )
    return Proc(
        name=f"matmul_{m}x{n}x{k}",
        params=(
            TensorParam("A", (m, k)),
            TensorParam("B", (k, n)),
            TensorParam("C", (m, n)),
        ),
        body=body,
    )


def transpose_proc(m: int, n: int) -> Proc:
    """``out = inᵀ`` with ``in`` stored m × n row-major."""
    body = (
        Loop(
            var="i",
            extent=m,
            body=(
                Loop(
                    var="j",
                    extent=n,
                    body=(
                        Assign(
                            tensor="out",
                            index=(to_affine("j"), to_affine("i")),
                            value=read("in", "i", "j"),
                        ),
                    ),
                ),
            ),
        ),
    )
    return Proc(
        name=f"transpose_{m}x{n}",
        params=(TensorParam("in", (m, n)), TensorParam("out", (n, m))),
        body=body,
    )


def sgemv_proc(m: int, k: int) -> Proc:
    """``y = A · x`` with A stored m × k row-major."""
    body = (
        Loop(
            var="i",
            extent=m,
            body=(
                Assign(tensor="y", index=(to_affine("i"),), value=Const(0.0)),
                Loop(
                    var="k",
                    extent=k,
                    body=(
                        Assign(
                            tensor="y",
                            index=(to_affine("i"),),
                            value=mul(read("A", "i", "k"), read("x", "k")),
                            accumulate=True,
                        ),
                    ),
                ),
            ),
        ),
    )
    return Proc(
        name=f"sgemv_{m}x{k}",
        params=(
            TensorParam("A", (m, k)),
            TensorParam("x", (k,)),
            TensorParam("y", (m,)),
        ),
        body=body,
    )


# --------------------------------------------------------------------------- #
# Golden schedules.                                                            #
# --------------------------------------------------------------------------- #


@functools.lru_cache(maxsize=256)
def decompose_sgemm(proc: Proc, *, tile: int = 96, register_blocking: int = 6) -> Proc:
    """The block/thread decomposition every SGEMM schedule starts with.

    The first steps of :func:`schedule_sgemm`, which depend on the problem
    shape, the block tile and the register blocking only: the ``i``/``j``
    block and thread splits, their binding, the register-resident
    accumulator tile, and the zero-initialisation split off so the k-loop
    sits above the register-tile loops.

    The result is a pure function of ``proc``'s value and the two
    arguments, so it is cached by them (the least recently used of 256
    entries leaves first; ``decompose_sgemm.cache_info()`` reports the
    cache): the schedule points of one shape, tile and register blocking
    extend one decomposition.  Procs are immutable, so sharing one is safe.
    """
    br = register_blocking
    if tile % br:
        raise ScheduleError(f"register blocking {br} must divide the tile {tile}")

    # Block and thread decomposition: i = by·tile + ty·br + iq, same for j.
    # predicate_tail is split when the tile divides and the guarded tail
    # otherwise, so arbitrary (M, N, K) flow through the same schedule.
    p = S.predicate_tail(proc, "i", tile, "by", "ii")
    p = S.split(p, "ii", br, "ty", "iq")
    p = S.predicate_tail(p, "j", tile, "bx", "jj")
    p = S.split(p, "jj", br, "tx", "jq")
    # Nest order by, bx, ty, tx, iq, jq (blocks out, register tile in).
    p = S.reorder(p, "iq", "bx")
    p = S.reorder(p, "ty", "bx")
    p = S.reorder(p, "iq", "tx")
    p = S.bind_block(p, "by", "y")
    p = S.bind_block(p, "bx", "x")
    p = S.bind_thread(p, "ty", "y")
    p = S.bind_thread(p, "tx", "x")

    # The accumulator tile lives in registers for the whole k-loop.
    p = S.stage_registers(p, "tx", "C")

    # Separate the zero-initialisation from the accumulation so the k-loop
    # can move above the register-tile loops.
    p = S.fission(p, "jq")
    p = S.fission(p, "iq")
    p = S.reorder(p, "jq1", "k")
    return S.reorder(p, "iq1", "k")


def check_sgemm_schedule(
    *, tile: int, register_blocking: int, b_window: int, stage: bool, double_buffer: bool
) -> None:
    """Raise :class:`ScheduleError` for a point :func:`schedule_sgemm` rejects
    before it applies any primitive."""
    br = register_blocking
    if tile % br:
        raise ScheduleError(f"register blocking {br} must divide the tile {tile}")
    if br % b_window:
        raise ScheduleError(f"b_window {b_window} must divide register blocking {br}")
    if double_buffer and not stage:
        raise ScheduleError("double_buffer requires staged shared tiles")


def schedule_sgemm(
    proc: Proc,
    *,
    tile: int = 96,
    register_blocking: int = 6,
    stride: int = 16,
    b_window: int = 2,
    stage: bool = True,
    prefetch: bool = True,
    unroll_inner: bool = True,
    double_buffer: bool = False,
) -> Proc:
    """The paper's SGEMM structure, derived from the naive triple loop.

    Parameters mirror :class:`repro.sgemm.config.SgemmKernelConfig`:
    ``tile`` is the block tile (B_Sh), ``register_blocking`` the per-thread
    tile edge (B_R), ``stride`` the K-extent staged per iteration (L), and
    ``b_window`` the B-register group width (2 ⇒ the LDS.64 pairs of the
    hand kernel; 1 ⇒ 32-bit B loads).  ``stage``/``prefetch``/``unroll_inner``
    exist so the autotuner can sweep the staging and pipelining decisions;
    ``double_buffer`` alternates both shared tiles by k-iteration parity, so
    the lowered main loop pays one ``BAR.SYNC`` instead of two (at twice the
    shared-memory footprint).

    ``proc`` is the naive triple loop.  The schedule extends its cached
    :func:`decompose_sgemm` at ``tile`` and ``register_blocking``; a point
    :func:`check_sgemm_schedule` rejects raises before anything is
    decomposed, so it leaves the cache as it was.
    """
    check_sgemm_schedule(
        tile=tile, register_blocking=register_blocking, b_window=b_window,
        stage=stage, double_buffer=double_buffer,
    )
    p = decompose_sgemm(proc, tile=tile, register_blocking=register_blocking)

    # Software-pipelined staging loop over K in steps of the stride.
    p = S.predicate_tail(p, "k", stride, "ko", "ki")
    if stage:
        p = S.stage_shared(p, "ko", "A", transpose=True, prefetch=prefetch)
        p = S.stage_shared(p, "ko", "B", prefetch=prefetch)
        if double_buffer:
            p = S.double_buffer(p, "A_shared")
            p = S.double_buffer(p, "B_shared")

    # Inner loop: per k-step, walk the B row in windows of `b_window`
    # registers against the whole A column (the hand kernel's 2-register
    # B scheme), then unroll everything below the staging loop.
    if b_window > 1:
        p = S.split(p, "jq1", b_window, "jw", "jv")
        p = S.reorder(p, "iq1", "jw")
        p = S.reorder(p, "iq1", "jv")
        inner = ("ki", "jw", "jv", "iq1")
    else:
        p = S.reorder(p, "iq1", "jq1")
        inner = ("ki", "jq1", "iq1")
    if unroll_inner:
        for var in inner + ("iq0", "jq0"):
            p = S.unroll(p, var)
    return p


def schedule_transpose(proc: Proc, *, tile: int = 16, pad: int = 1) -> Proc:
    """The padded tiled transpose.

    The row loop binds to thread *x* and the column loop to thread *y* — the
    crosswise binding that makes both the global loads (performed by the
    cooperative staging copy) and the global stores unit-stride, while the
    shared-memory tile eats the transposition.  ``pad`` is the §5.1 row
    padding that keeps the column-order shared reads bank-conflict-free.
    Arbitrary (m, n) are accepted: boundary tiles stage clipped windows and
    predicate their stores.
    """
    p = S.predicate_tail(proc, "i", tile, "by", "ii")
    p = S.predicate_tail(p, "j", tile, "bx", "jj")
    p = S.reorder(p, "ii", "bx")
    p = S.bind_block(p, "by", "y")
    p = S.bind_block(p, "bx", "x")
    p = S.bind_thread(p, "ii", "x")
    p = S.bind_thread(p, "jj", "y")
    return S.stage_shared(p, "bx", "in", pad=pad, prefetch=False)


def schedule_sgemv(
    proc: Proc,
    *,
    threads: int = 32,
    k_window: int = 2,
    stage: bool = True,
    prefetch: bool = True,
) -> Proc:
    """Row-per-thread SGEMV with a shared-memory x tile.

    ``k_window`` pairs the unrolled A loads so the lowering fuses them into
    LD.64 (the hand generator's ``wide_loads``); ``prefetch`` pipelines the
    x-tile staging load — one step beyond the hand kernel, which leaves the
    load on the critical path between its barriers.  Arbitrary (m, k) are
    accepted through ``predicate_tail`` row/column guards.
    """
    p = S.predicate_tail(proc, "i", threads, "bx", "tx")
    p = S.bind_block(p, "bx", "x")
    p = S.bind_thread(p, "tx", "x")
    p = S.stage_registers(p, "tx", "y")
    p = S.predicate_tail(p, "k", threads, "ko", "ki")
    if stage:
        p = S.stage_shared(p, "ko", "x", prefetch=prefetch)
    if k_window > 1:
        if threads % k_window:
            raise ScheduleError(f"k_window {k_window} must divide the x tile {threads}")
        p = S.split(p, "ki", k_window, "kw", "kq")
        p = S.unroll(p, "kw")
        p = S.unroll(p, "kq")
    else:
        p = S.unroll(p, "ki")
    return p
