"""SASS-level SGEMM kernel generator (paper Section 5).

The generator emits the kernel structure the paper describes:

* a prologue that computes all global and shared-memory addresses once and
  zero-initialises the accumulator tile;
* a software-pipelined main loop over K in steps of the stride L: the
  registers prefetched from global memory are stored to shared memory behind
  a barrier, the next tiles are prefetched (predicated off for the final
  iteration), and the fully unrolled inner loop performs, per k-step, the
  A-column and B-row shared loads (LDS.64 by default) and the B_R × B_R FFMA
  outer product — giving exactly the FFMA:LDS ratio the analysis predicts;
* an epilogue that scales by alpha and stores the C tile.

Register usage follows the Section 5.2 budget (63 registers, zero spills for
the 6-register-blocking configuration) and the main-loop operands use either
the bank-conflict-free allocation of Figure 9 or a naive sequential
allocation, so the Figure 8 comparison can be regenerated.

Kernels are specialised for concrete (M, N, K, alpha): leading dimensions are
folded into immediate offsets, which keeps the address arithmetic identical in
shape to the hand-written kernels while avoiding integer-division code.  This
*hand* generator still requires M and N to be multiples of the block tile and
K a multiple of the stride (matching the paper's evaluation sizes); for
arbitrary problem sizes use the schedule-derived ``tile_sgemm`` workload,
whose ``predicate_tail`` guards lower boundary tiles to clipped staging and
predicated epilogue stores (see :mod:`repro.tile`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelGenerationError
from repro.isa.assembler import Kernel
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import MemRef
from repro.isa.registers import Register, SpecialRegister, predicate
from repro.sgemm.config import SgemmKernelConfig
from repro.sgemm.register_allocation import (
    RegisterAllocation,
    allocate_conflict_free,
    allocate_naive,
)

#: Constant-bank offsets at which the kernel expects its pointer parameters.
PARAM_A_OFFSET = 0x20
PARAM_B_OFFSET = 0x24
PARAM_C_OFFSET = 0x28


@dataclass(frozen=True)
class _RegisterPlan:
    """Physical register assignment for everything outside the FFMA operands."""

    allocation: RegisterAllocation
    prefetch_a: tuple[Register, ...]
    prefetch_b: tuple[Register, ...]
    global_a: Register
    global_b: Register
    shared_store_a: Register
    shared_store_b: Register
    shared_read_a: Register
    shared_read_b: Register
    loop_counter: Register

    def register_count(self) -> int:
        """1 + highest register index used by the plan."""
        highest = max(r.index for r in self.all_registers())
        return highest + 1

    def all_registers(self) -> list[Register]:
        """Every register the plan assigns."""
        registers = list(self.allocation.all_registers())
        registers.extend(self.prefetch_a)
        registers.extend(self.prefetch_b)
        registers.extend(
            [
                self.global_a,
                self.global_b,
                self.shared_store_a,
                self.shared_store_b,
                self.shared_read_a,
                self.shared_read_b,
                self.loop_counter,
            ]
        )
        return registers


class SgemmKernelGenerator:
    """Generates one specialised SGEMM kernel from a :class:`SgemmKernelConfig`."""

    def __init__(self, config: SgemmKernelConfig) -> None:
        self._config = config
        self._geometry = config.geometry
        if self._geometry.thread_grid * self._geometry.thread_grid != config.threads_per_block:
            raise KernelGenerationError("threads_per_block must be a perfect square")
        grid = self._geometry.thread_grid
        if grid & (grid - 1):
            raise KernelGenerationError(
                "the generator decomposes the thread index with shift/mask, so the thread "
                f"grid edge must be a power of two (got {grid})"
            )
        if config.register_blocking < 3:
            raise KernelGenerationError(
                "register blocking factors below 3 leave too few accumulator registers "
                "for the prologue scratch values; use the analytic model for such points"
            )

    @property
    def config(self) -> SgemmKernelConfig:
        """The configuration being generated."""
        return self._config

    # ------------------------------------------------------------------ #
    # Register planning.                                                   #
    # ------------------------------------------------------------------ #

    def plan_registers(self) -> _RegisterPlan:
        """Assign physical registers to every value the kernel keeps live."""
        config = self._config
        b_operands = max(1, config.lds_width_bits // 32)
        if config.conflict_free_allocation:
            allocation = allocate_conflict_free(config.register_blocking, b_operands)
        else:
            allocation = allocate_naive(config.register_blocking, b_operands)

        used = {r.index for r in allocation.all_registers()}
        free = [index for index in range(0, 63) if index not in used]
        elements = self._geometry.elements_per_thread_per_tile
        needed = 2 * elements + 7
        if len(free) < needed:
            raise KernelGenerationError(
                f"register file exhausted: need {needed} bookkeeping registers, "
                f"only {len(free)} remain after the operand allocation"
            )
        cursor = 0

        def take(count: int) -> tuple[Register, ...]:
            nonlocal cursor
            taken = tuple(Register(index) for index in free[cursor : cursor + count])
            cursor += count
            return taken

        prefetch_a = take(elements)
        prefetch_b = take(elements)
        (global_a,) = take(1)
        (global_b,) = take(1)
        (shared_store_a,) = take(1)
        (shared_store_b,) = take(1)
        (shared_read_a,) = take(1)
        (shared_read_b,) = take(1)
        (loop_counter,) = take(1)
        return _RegisterPlan(
            allocation=allocation,
            prefetch_a=prefetch_a,
            prefetch_b=prefetch_b,
            global_a=global_a,
            global_b=global_b,
            shared_store_a=shared_store_a,
            shared_store_b=shared_store_b,
            shared_read_a=shared_read_a,
            shared_read_b=shared_read_b,
            loop_counter=loop_counter,
        )

    # ------------------------------------------------------------------ #
    # Address arithmetic helpers.                                          #
    # ------------------------------------------------------------------ #

    def _global_a_strides(self) -> tuple[int, int, int, int]:
        """(row-term, k-term, per-element stride, per-iteration step) for op(A).

        The thread's first A element sits at
        ``A + (row_term · (by·tile + ty·B_R) + k_term · tx) · 4`` and its
        ``elements_per_thread`` loads are ``per-element stride`` bytes apart;
        every main-loop iteration advances the pointer by ``step`` bytes.
        """
        config = self._config
        if config.variant.transpose_a:
            # op(A)[i][k] = A[k][i], A stored K × M row-major.
            row_term = 4                      # moving down op(A) rows moves along A's columns
            k_term = config.m * 4             # moving along k jumps A rows
            element_stride = 4
            step = self._geometry.stride * config.m * 4
        else:
            row_term = config.k * 4
            k_term = 4
            element_stride = config.k * 4
            step = self._geometry.stride * 4
        return row_term, k_term, element_stride, step

    def _global_b_strides(self) -> tuple[int, int, int, int]:
        """(col-term, k-term, per-element stride, per-iteration step) for op(B)."""
        config = self._config
        if config.variant.transpose_b:
            # op(B)[k][j] = B[j][k], B stored N × K row-major.
            col_term = config.k * 4
            k_term = 4
            element_stride = config.k * 4
            step = self._geometry.stride * 4
        else:
            col_term = 4
            k_term = config.n * 4
            element_stride = 4
            step = self._geometry.stride * config.n * 4
        return col_term, k_term, element_stride, step

    # ------------------------------------------------------------------ #
    # Kernel generation.                                                   #
    # ------------------------------------------------------------------ #

    def generate(self) -> Kernel:
        """Generate and assemble the kernel."""
        config = self._config
        geometry = self._geometry
        plan = self.plan_registers()
        tile = geometry.block_tile
        b_r = config.register_blocking
        stride = geometry.stride
        shared_b_base = tile * stride * 4

        builder = KernelBuilder(
            name=config.kernel_name,
            shared_memory_bytes=2 * tile * stride * 4,
            threads_per_block=config.threads_per_block,
            metadata={
                "variant": config.variant.value,
                "register_blocking": b_r,
                "lds_width_bits": config.lds_width_bits,
                "m": config.m,
                "n": config.n,
                "k": config.k,
                "conflict_free_allocation": config.conflict_free_allocation,
            },
        )

        # Prologue scratch registers: accumulators are not live yet, so the
        # first few accumulator registers hold tid/tx/ty/bx/by temporarily.
        acc = plan.allocation.accumulators
        flat_acc = [register for row in acc for register in row]
        tid, tx, ty, bx, by = flat_acc[:5]

        builder.s2r(tid, SpecialRegister.TID_X)
        builder.s2r(bx, SpecialRegister.CTAID_X)
        builder.s2r(by, SpecialRegister.CTAID_Y)
        builder.lop_and(tx, tid, geometry.thread_grid - 1)
        builder.shr(ty, tid, geometry.thread_grid.bit_length() - 1)

        # Global pointer for op(A): A + (row_term·(by·tile + tx·B_R) + k_term·ty).
        # The staging assignment intentionally uses tx for the row group and ty
        # for the k column: the resulting shared-memory store addresses are 24
        # bytes apart across a warp's lanes, which avoids the 16-way bank
        # conflict a ty-major assignment would cause (paper §5.1: "proper
        # padding needs to be applied" — our layout achieves the same effect
        # by choosing the staging order instead of padding).
        a_row_term, a_k_term, a_elem_stride, a_step = self._global_a_strides()
        builder.mov(plan.global_a, self._const(PARAM_A_OFFSET))
        builder.imad(plan.global_a, by, tile * a_row_term, plan.global_a)
        builder.imad(plan.global_a, tx, b_r * a_row_term, plan.global_a)
        builder.imad(plan.global_a, ty, a_k_term, plan.global_a)

        # Global pointer for op(B): B + (col_term·(bx·tile + tx·B_R) + k_term·ty).
        b_col_term, b_k_term, b_elem_stride, b_step = self._global_b_strides()
        builder.mov(plan.global_b, self._const(PARAM_B_OFFSET))
        builder.imad(plan.global_b, bx, tile * b_col_term, plan.global_b)
        builder.imad(plan.global_b, tx, b_r * b_col_term, plan.global_b)
        builder.imad(plan.global_b, ty, b_k_term, plan.global_b)

        # Shared-memory store addresses: As[k=ty][i=tx·B_R + j], Bs[k=ty][c=tx·B_R + j].
        builder.imul(plan.shared_store_a, ty, tile * 4)
        builder.imad(plan.shared_store_a, tx, b_r * 4, plan.shared_store_a)
        builder.imul(plan.shared_store_b, ty, tile * 4)
        builder.imad(plan.shared_store_b, tx, b_r * 4, plan.shared_store_b)
        builder.iadd(plan.shared_store_b, plan.shared_store_b, shared_b_base)

        # Shared-memory read addresses: A column at rows ty·B_R…, B row at cols tx·B_R….
        builder.imul(plan.shared_read_a, ty, b_r * 4)
        builder.imul(plan.shared_read_b, tx, b_r * 4)
        builder.iadd(plan.shared_read_b, plan.shared_read_b, shared_b_base)

        # Loop counter.
        iterations = geometry.k_iterations(config.k)
        builder.mov32i(plan.loop_counter, iterations)

        # First global prefetch (unconditional).
        self._emit_global_prefetch(builder, plan, a_elem_stride, b_elem_stride, guarded=False)

        # Zero the accumulators (this also ends the scratch lifetime of tid/tx/ty/bx/by —
        # every address they fed is already materialised above).
        for row in acc:
            for register in row:
                builder.mov32i(register, 0.0)

        loop_label = builder.label("MAIN_LOOP")

        # Stage the prefetched tiles into shared memory.
        builder.bar(0)
        for j, register in enumerate(plan.prefetch_a):
            builder.sts(MemRef(base=plan.shared_store_a, offset=4 * j), register)
        for j, register in enumerate(plan.prefetch_b):
            builder.sts(MemRef(base=plan.shared_store_b, offset=4 * j), register)
        builder.bar(0)

        # Advance the global pointers and prefetch the next tiles (guarded so the
        # final iteration does not read past the matrices).
        builder.iadd(plan.global_a, plan.global_a, a_step)
        builder.iadd(plan.global_b, plan.global_b, b_step)
        builder.iadd(plan.loop_counter, plan.loop_counter, -1)
        p_more = predicate(1)
        builder.isetp(p_more, "GT", plan.loop_counter, 0)
        self._emit_global_prefetch(
            builder, plan, a_elem_stride, b_elem_stride, guarded=True, guard=p_more
        )

        # The fully unrolled compute loop over the staged K-slice.
        self._emit_inner_loop(builder, plan, tile)

        p_loop = predicate(0)
        builder.isetp(p_loop, "GT", plan.loop_counter, 0)
        builder.bra(loop_label, predicate=p_loop)

        # Epilogue: compute the C addresses (reusing prefetch registers as scratch)
        # and store the accumulator tile.
        self._emit_epilogue(builder, plan)
        builder.exit()

        kernel = builder.build()
        if kernel.register_count > 63:
            raise KernelGenerationError(
                f"generated kernel uses {kernel.register_count} registers, beyond the 63-register limit"
            )
        return kernel

    # ------------------------------------------------------------------ #
    # Internal emission helpers.                                           #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _const(offset: int):
        from repro.isa.instructions import ConstRef

        return ConstRef(bank=0, offset=offset)

    def _emit_global_prefetch(
        self,
        builder: KernelBuilder,
        plan: _RegisterPlan,
        a_elem_stride: int,
        b_elem_stride: int,
        *,
        guarded: bool,
        guard=None,
    ) -> None:
        """Emit the global-memory loads filling the prefetch registers."""
        def emit() -> None:
            for j, register in enumerate(plan.prefetch_a):
                builder.ld(register, MemRef(base=plan.global_a, offset=j * a_elem_stride))
            for j, register in enumerate(plan.prefetch_b):
                builder.ld(register, MemRef(base=plan.global_b, offset=j * b_elem_stride))

        if guarded:
            with builder.guarded(guard):
                emit()
        else:
            emit()

    def _emit_inner_loop(self, builder: KernelBuilder, plan: _RegisterPlan, tile: int) -> None:
        """Emit the unrolled k-loop: A-column/B-row loads and the FFMA outer product."""
        config = self._config
        b_r = config.register_blocking
        allocation = plan.allocation
        lds_width = config.lds_width_bits
        words = lds_width // 32
        for kk in range(self._geometry.stride):
            row_offset = kk * tile * 4
            # Load the A column for this k-step.  With LDS.64 the column is
            # fetched in register pairs (the allocator guarantees consecutive
            # pair registers); an odd final element falls back to a 32-bit LDS.
            if words == 2:
                element = 0
                while element < b_r:
                    if element + 1 < b_r:
                        builder.lds(
                            allocation.a_column[element],
                            MemRef(base=plan.shared_read_a, offset=row_offset + element * 4),
                            width=64,
                        )
                        element += 2
                    else:
                        builder.lds(
                            allocation.a_column[element],
                            MemRef(base=plan.shared_read_a, offset=row_offset + element * 4),
                            width=32,
                        )
                        element += 1
            else:
                for i in range(b_r):
                    builder.lds(
                        allocation.a_column[i],
                        MemRef(base=plan.shared_read_a, offset=row_offset + i * 4),
                        width=32,
                    )
            # Walk the B row in windows of `words` elements, multiplying each
            # window against the whole A column (the paper's 2-register B scheme).
            # With 32-bit loads the destination alternates between the two B
            # registers so consecutive FFMAs keep conflict-free operand banks.
            for window_index, window in enumerate(range(0, b_r, words)):
                window_width = lds_width
                if words == 2 and window + 1 < b_r:
                    window_registers = allocation.b_row
                else:
                    # Single-element window (32-bit LDS or the odd tail of an
                    # odd blocking factor): alternate the destination register.
                    window_registers = (allocation.b_row[window_index % len(allocation.b_row)],)
                    window_width = 32
                builder.lds(
                    window_registers[0],
                    MemRef(base=plan.shared_read_b, offset=row_offset + window * 4),
                    width=window_width,
                )
                for q in range(words):
                    column = window + q
                    if column >= b_r:
                        break
                    b_register = window_registers[q]
                    for i in range(b_r):
                        accumulator = allocation.accumulators[i][column]
                        builder.ffma(accumulator, allocation.a_column[i], b_register, accumulator)

    def _emit_epilogue(self, builder: KernelBuilder, plan: _RegisterPlan) -> None:
        """Emit the alpha scaling and the C-tile stores."""
        config = self._config
        geometry = self._geometry
        b_r = config.register_blocking
        tile = geometry.block_tile
        allocation = plan.allocation

        # Recompute tx/ty/bx/by into bookkeeping registers whose main-loop role is over.
        scratch = list(plan.prefetch_a) + list(plan.prefetch_b) + [
            plan.shared_store_a,
            plan.shared_store_b,
            plan.shared_read_a,
            plan.shared_read_b,
        ]
        tid, tx, ty, bx, by = scratch[:5]
        c_pointer = plan.global_a  # the A tracker is dead after the main loop
        builder.s2r(tid, SpecialRegister.TID_X)
        builder.s2r(bx, SpecialRegister.CTAID_X)
        builder.s2r(by, SpecialRegister.CTAID_Y)
        builder.lop_and(tx, tid, geometry.thread_grid - 1)
        builder.shr(ty, tid, geometry.thread_grid.bit_length() - 1)

        # C + ((by·tile + ty·B_R)·N + bx·tile + tx·B_R) · 4
        builder.mov(c_pointer, self._const(PARAM_C_OFFSET))
        builder.imad(c_pointer, by, tile * config.n * 4, c_pointer)
        builder.imad(c_pointer, ty, b_r * config.n * 4, c_pointer)
        builder.imad(c_pointer, bx, tile * 4, c_pointer)
        builder.imad(c_pointer, tx, b_r * 4, c_pointer)

        apply_alpha = abs(config.alpha - 1.0) > 1e-12
        for i in range(b_r):
            for j in range(b_r):
                accumulator = allocation.accumulators[i][j]
                if apply_alpha:
                    builder.fmul(accumulator, accumulator, float(config.alpha))
                builder.st(
                    MemRef(base=c_pointer, offset=(i * config.n + j) * 4),
                    accumulator,
                )


def generate_sgemm_kernel(config: SgemmKernelConfig) -> Kernel:
    """Generate one specialised SGEMM kernel.

    With ``config.conflict_free_allocation`` set this emits the hand-crafted
    Figure 9 allocation directly — the *golden reference* the optimization
    pipeline is validated against.  The production path for optimized kernels
    is the ``"sgemm"`` workload's ``generate_optimized``, which starts from
    the naive allocation and lets :mod:`repro.opt` recolor and reschedule it.
    """
    return SgemmKernelGenerator(config).generate()


def generate_naive_sgemm_kernel(config: SgemmKernelConfig) -> Kernel:
    """Generate the bank-oblivious (compiler-like) kernel for ``config``.

    This is the pipeline's input: the same code structure as the optimized
    kernel but with the sequential register allocation whose conflicts
    Figure 8 quantifies, and no scheduling effort beyond program order.
    """
    from dataclasses import replace

    return SgemmKernelGenerator(
        replace(config, conflict_free_allocation=False)
    ).generate()
