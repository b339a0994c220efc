"""Lowering mechanics: structure, geometry, guards, resource limits."""

import numpy as np
import pytest

from repro.errors import LoweringError
from repro.isa.instructions import Opcode
from repro.sim.launch import BlockGrid, LaunchConfig
from repro.sim.memory import GlobalMemory, KernelParams
from repro.sim.sm_sim import SmSimulator
from repro.tile import interpret, launch_geometry, library, lower
from repro.tile import schedule as S


def simulate(proc, kernel, inputs, gpu, max_cycles=2_000_000):
    """Run a lowered kernel functionally and read back the proc's outputs."""
    geometry = launch_geometry(proc)
    memory = GlobalMemory()
    params = KernelParams()
    for param in proc.params:
        if param.name in inputs:
            base = memory.allocate_array(param.name, inputs[param.name])
        else:
            base = memory.allocate(param.name, param.size * 4)
        params.add_pointer(param.name, base)
    grid = BlockGrid(
        grid_x=geometry.grid_x, grid_y=geometry.grid_y,
        block_x=geometry.threads_per_block,
    )
    simulator = SmSimulator(gpu, kernel, global_memory=memory, params=params)
    simulator.run(
        LaunchConfig(grid=grid, functional=True, max_cycles=max_cycles),
        block_indices=grid.block_indices(),
    )
    return {
        name: memory.read_array(name, np.float32, proc.param(name).shape)
        for name in proc.outputs()
    }


class TestLaunchGeometry:
    def test_geometry_from_bindings(self):
        proc = library.schedule_transpose(library.transpose_proc(64, 32), tile=16)
        geometry = launch_geometry(proc)
        assert (geometry.grid_x, geometry.grid_y) == (2, 4)
        assert (geometry.threads_x, geometry.threads_y) == (16, 16)
        assert geometry.threads_per_block == 256

    def test_thread_y_without_x_rejected(self):
        proc = S.bind_thread(library.copy_proc(8), "i", "y")
        with pytest.raises(LoweringError, match="thread-x"):
            launch_geometry(proc)

    def test_unbound_proc_rejected(self):
        with pytest.raises(LoweringError, match="thread-bound"):
            lower(library.copy_proc(8))


class TestKernelStructure:
    def test_sgemm_stays_inside_the_register_budget(self):
        proc = library.schedule_sgemm(library.matmul_proc(96, 96, 16))
        kernel = lower(proc)
        assert kernel.register_count <= 63
        assert kernel.shared_memory_bytes == 2 * 16 * 96 * 4
        assert kernel.threads_per_block == 256

    def test_wide_loads_are_fused(self):
        proc = library.schedule_sgemm(library.matmul_proc(96, 96, 16))
        mix = lower(proc).instruction_mix()
        assert mix.get("LDS.64", 0) > 0          # paired operand fetch
        assert "LDS.128" not in mix

    def test_lds_width_32_disables_fusion(self):
        proc = library.schedule_sgemm(library.matmul_proc(96, 96, 16))
        mix = lower(proc, lds_width_bits=32).instruction_mix()
        assert "LDS.64" not in mix
        assert mix["LDS"] > 0

    def test_pipelined_staging_shape(self):
        proc = library.schedule_sgemm(library.matmul_proc(96, 96, 16))
        kernel = lower(proc)
        opcodes = [i.opcode for i in kernel.instructions]
        # Software pipelining: global loads *before* the first barrier.
        first_bar = opcodes.index(Opcode.BAR)
        assert Opcode.LD in opcodes[:first_bar]
        # Predicated prefetch of the next tile inside the loop.
        assert any(
            i.opcode is Opcode.LD and not i.predicate.is_true
            for i in kernel.instructions
        )

    def test_barriers_fence_the_staging(self):
        proc = library.schedule_transpose(library.transpose_proc(32, 32))
        kernel = lower(proc)
        opcodes = [i.opcode for i in kernel.instructions]
        bar = opcodes.index(Opcode.BAR)
        assert Opcode.STS in opcodes[:bar]
        assert Opcode.LDS in opcodes[bar:]

    def test_invalid_width_rejected(self):
        proc = library.schedule_transpose(library.transpose_proc(32, 32))
        with pytest.raises(LoweringError, match="lds_width_bits"):
            lower(proc, lds_width_bits=48)


class TestGuardLowering:
    def test_predicated_tail_matches_oracle(self, fermi):
        naive = library.copy_proc(40)
        p = S.predicate_tail(naive, "i", 32, outer="bx", inner="tx")
        p = S.bind_block(p, "bx", "x")
        p = S.bind_thread(p, "tx", "x")
        kernel = lower(p)
        # The tail lowers to predication, not branches.
        assert any(not i.predicate.is_true for i in kernel.instructions)
        rng = np.random.default_rng(5)
        inputs = {"src": rng.uniform(-1, 1, (40,)).astype(np.float32)}
        outputs = simulate(p, kernel, inputs, fermi)
        expected = interpret(naive, inputs)
        assert np.array_equal(outputs["dst"], expected["dst"])

    def test_static_guards_fold_away(self, fermi):
        naive = library.copy_proc(12)
        p = S.predicate_tail(naive, "i", 4, outer="bx", inner="tx")  # divides: no guard
        p = S.bind_block(p, "bx", "x")
        p = S.bind_thread(p, "tx", "x")
        kernel = lower(p)
        assert all(i.predicate.is_true for i in kernel.instructions)


class TestNaiveSchedulesLower:
    """Minimal (bind-only) schedules exercise the scratch-address fallback."""

    def test_unstaged_sgemm_is_functional(self, fermi):
        naive = library.matmul_proc(8, 8, 4)
        p = library.schedule_sgemm(
            naive, tile=4, register_blocking=2, stride=2, stage=False,
            prefetch=False,
        )
        kernel = lower(p)
        rng = np.random.default_rng(6)
        inputs = {
            "A": rng.uniform(-1, 1, (8, 4)).astype(np.float32),
            "B": rng.uniform(-1, 1, (4, 8)).astype(np.float32),
        }
        outputs = simulate(p, kernel, inputs, fermi)
        expected = interpret(naive, inputs)
        assert np.array_equal(outputs["C"], expected["C"])

    def test_staged_window_with_constant_base_offset(self, fermi):
        # Regression: the constant term of the staged-window base must reach
        # the cooperative loads' offsets (dst = src[8:16] staged via shared).
        from repro.tile.ir import (
            Assign, Buffer, Loop, LoopKind, Proc, Stage, TensorParam,
            Affine, read, to_affine,
        )

        proc = Proc(
            name="shifted_copy",
            params=(TensorParam("src", (16,)), TensorParam("dst", (8,))),
            buffers=(Buffer(name="buf", shape=(8,), memory="shared"),),
            body=(
                Stage(buffer="buf", tensor="src", base=(Affine.constant(8),),
                      sizes=(8,), axes=(0,), prefetch=False),
                Loop(var="i", extent=8, kind=LoopKind.THREAD_X, body=(
                    Assign(tensor="dst", index=(to_affine("i"),),
                           value=read("buf", "i")),
                )),
            ),
        )
        kernel = lower(proc)
        rng = np.random.default_rng(9)
        inputs = {"src": rng.uniform(-1, 1, (16,)).astype(np.float32)}
        outputs = simulate(proc, kernel, inputs, fermi)
        assert np.array_equal(outputs["dst"], inputs["src"][8:])

    def test_block_level_stage_reserves_no_prefetch_registers(self):
        # A block-level stage never pipelines, so prefetch=True (the
        # stage_shared default) must not inflate the register count.
        naive = library.transpose_proc(32, 32)
        eager = lower(library.schedule_transpose(naive, tile=16))
        defaulted = S.split(naive, "i", 16, "by", "ii")
        defaulted = S.split(defaulted, "j", 16, "bx", "jj")
        defaulted = S.reorder(defaulted, "ii", "bx")
        defaulted = S.bind_block(defaulted, "by", "y")
        defaulted = S.bind_block(defaulted, "bx", "x")
        defaulted = S.bind_thread(defaulted, "ii", "x")
        defaulted = S.bind_thread(defaulted, "jj", "y")
        defaulted = S.stage_shared(defaulted, "bx", "in", pad=1)  # prefetch=True
        assert lower(defaulted).register_count == eager.register_count

    def test_nested_seq_loops_advance_and_rewind_pointers(self, fermi):
        # Both k levels stay sequential: the A/x pointers advance in the
        # inner loop and must rewind at its exit so the outer re-entry reads
        # the right tile.
        naive = library.sgemv_proc(8, 8)
        p = S.split(naive, "i", 4, "bx", "tx")
        p = S.bind_block(p, "bx", "x")
        p = S.bind_thread(p, "tx", "x")
        p = S.split(p, "k", 4)
        kernel = lower(p)
        rng = np.random.default_rng(8)
        inputs = {
            "A": rng.uniform(-1, 1, (8, 8)).astype(np.float32),
            "x": rng.uniform(-1, 1, (8,)).astype(np.float32),
        }
        outputs = simulate(p, kernel, inputs, fermi)
        expected = interpret(naive, inputs)
        assert np.array_equal(outputs["y"], expected["y"])


class TestClippedTails:
    """Imperfect problem sizes: guarded compute, clipped epilogue stores."""

    def test_sgemm_prime_sizes_are_bit_exact(self, fermi):
        naive = library.matmul_proc(13, 11, 7)
        p = library.schedule_sgemm(naive, tile=8, register_blocking=2, stride=2)
        kernel = lower(p)
        # Predicated epilogue stores, not unguarded ones.
        from repro.isa.instructions import Opcode
        stores = [i for i in kernel.instructions if i.opcode is Opcode.ST]
        assert any(not i.predicate.is_true for i in stores)
        rng = np.random.default_rng(11)
        inputs = {
            "A": rng.uniform(-1, 1, (13, 7)).astype(np.float32),
            "B": rng.uniform(-1, 1, (7, 11)).astype(np.float32),
        }
        outputs = simulate(p, kernel, inputs, fermi)
        assert np.array_equal(outputs["C"], interpret(naive, inputs)["C"])

    def test_unstaged_tail_sgemm_is_bit_exact(self, fermi):
        naive = library.matmul_proc(7, 5, 3)
        p = library.schedule_sgemm(
            naive, tile=4, register_blocking=2, stride=2,
            stage=False, prefetch=False,
        )
        kernel = lower(p)
        rng = np.random.default_rng(12)
        inputs = {
            "A": rng.uniform(-1, 1, (7, 3)).astype(np.float32),
            "B": rng.uniform(-1, 1, (3, 5)).astype(np.float32),
        }
        outputs = simulate(p, kernel, inputs, fermi)
        assert np.array_equal(outputs["C"], interpret(naive, inputs)["C"])

    def test_transpose_tail_predicates_the_stores(self, fermi):
        naive = library.transpose_proc(13, 10)
        p = library.schedule_transpose(naive, tile=8)
        kernel = lower(p)
        rng = np.random.default_rng(13)
        inputs = {"in": rng.uniform(-1, 1, (13, 10)).astype(np.float32)}
        outputs = simulate(p, kernel, inputs, fermi)
        assert np.array_equal(outputs["out"], interpret(naive, inputs)["out"])

    def test_sgemv_tail_is_bit_exact(self, fermi):
        naive = library.sgemv_proc(13, 11)
        p = library.schedule_sgemv(naive, threads=8)
        kernel = lower(p, lds_width_bits=32)
        rng = np.random.default_rng(14)
        inputs = {
            "A": rng.uniform(-1, 1, (13, 11)).astype(np.float32),
            "x": rng.uniform(-1, 1, (11,)).astype(np.float32),
        }
        outputs = simulate(p, kernel, inputs, fermi)
        assert np.array_equal(outputs["y"], interpret(naive, inputs)["y"])

    def test_tail_kernel_stays_inside_the_register_budget(self):
        p = library.schedule_sgemm(library.matmul_proc(193, 161, 97))
        kernel = lower(p)
        assert kernel.register_count <= 63


class TestLivenessSizedPool:
    def test_default_sgemm_pool_is_unchanged(self):
        # The liveness estimate must not perturb the golden kernel: the
        # default geometry still lands on exactly 63 registers.
        proc = library.schedule_sgemm(library.matmul_proc(96, 96, 16))
        assert lower(proc).register_count == 63

    def test_wide_eager_staging_no_longer_chunks(self):
        # t48/noprefetch staging moves 12 elements per thread, more than the
        # 8-register minimum pool.  The liveness-sized pool loads the run in
        # one sweep: the loads of each staged tile arrive as one contiguous
        # LD block instead of chunked rounds.
        from repro.isa.instructions import Opcode
        from repro.tile.lower import MIN_POOL_SIZE

        proc = library.schedule_sgemm(
            library.matmul_proc(96, 96, 16), tile=48, register_blocking=6,
            prefetch=False,
        )
        best = run = 0
        for instruction in lower(proc).instructions:
            if instruction.opcode is Opcode.LD:
                run += 1
                best = max(best, run)
            else:
                run = 0
        assert best >= 12 > MIN_POOL_SIZE


def test_deeply_nested_runtime_guards_raise_instead_of_corrupting():
    # Only two guard predicates exist; a third distinct runtime guard inside
    # an unrolled batch must be an explicit error, not a silent clobber of
    # the grandparent's predicate.
    from repro.tile.ir import (
        Affine, Assign, Guard, Loop, LoopKind, Proc, TensorParam, read,
        to_affine,
    )

    def guarded(var, body):
        return Guard(expr=Affine.var(var), bound=1, body=body)

    inner = Assign(tensor="dst", index=(to_affine("u"),), value=read("src", "u"))
    sibling = Assign(tensor="dst2", index=(to_affine("u"),), value=read("src", "u"))
    proc = Proc(
        name="deep_guards",
        params=(
            TensorParam("src", (2,)),
            TensorParam("dst", (2,)),
            TensorParam("dst2", (2,)),
        ),
        body=(
            Loop(var="tx", extent=2, kind=LoopKind.THREAD_X, body=(
                Loop(var="a", extent=2, body=(
                    Loop(var="b", extent=2, body=(
                        Loop(var="c", extent=2, body=(
                            Loop(var="u", extent=2, kind=LoopKind.UNROLL, body=(
                                guarded("a", (
                                    guarded("b", (guarded("c", (inner,)),)),
                                    sibling,
                                )),
                            )),
                        )),
                    )),
                )),
            )),
        ),
    )
    with pytest.raises(LoweringError, match="guards nest deeper"):
        lower(proc)
