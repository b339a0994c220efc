"""Tests for the latency-aware list scheduler."""

from __future__ import annotations

from repro.arch import fermi_gtx580
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import MemRef, Opcode
from repro.isa.registers import Register, predicate
from repro.opt.scheduling import _build_dag, _region_boundaries, schedule_kernel


def _position_of(kernel, opcode, occurrence=0):
    hits = [i for i, ins in enumerate(kernel.instructions) if ins.opcode is opcode]
    return hits[occurrence]


class TestRegions:
    def test_boundaries_at_controls_and_targets(self, naive_kernel):
        regions = _region_boundaries(naive_kernel)
        instructions = naive_kernel.instructions
        boundary_indices = {i for i, ins in enumerate(instructions) if ins.is_control}
        for start, stop in regions:
            assert not any(start <= b < stop for b in boundary_indices)
        # A branch target is either a region start or a control instruction
        # (which never moves), so target indices stay valid after scheduling.
        targets = set(naive_kernel.branch_targets.values())
        for target in targets:
            assert (
                any(start == target for start, _ in regions)
                or target >= len(instructions)
                or instructions[target].is_control
            )

    def test_regions_cover_all_non_control_instructions(self, naive_kernel):
        regions = _region_boundaries(naive_kernel)
        covered = set()
        for start, stop in regions:
            covered.update(range(start, stop))
        non_control = {
            i for i, ins in enumerate(naive_kernel.instructions) if not ins.is_control
        }
        assert non_control <= covered


class TestDependences:
    def test_raw_war_waw_edges(self):
        builder = KernelBuilder()
        builder.mov32i(0, 1)          # 0: writes R0
        builder.iadd(1, 0, 2)         # 1: reads R0 (RAW on 0)
        builder.mov32i(0, 3)          # 2: rewrites R0 (WAW on 0, WAR on 1)
        builder.exit()
        kernel = builder.build()
        preds, _ = _build_dag(list(kernel.instructions[:3]))
        assert (0, 0) in preds[1]          # RAW
        assert any(p == 0 for p, _ in preds[2])  # WAW
        assert any(p == 1 for p, _ in preds[2])  # WAR

    def test_memory_ordering_per_space(self):
        builder = KernelBuilder()
        builder.sts(MemRef(base=Register(1)), 2)        # 0: shared store
        builder.lds(3, MemRef(base=Register(1)))        # 1: shared load (after store)
        builder.ld(4, MemRef(base=Register(5)))         # 2: global load (independent)
        builder.exit()
        kernel = builder.build()
        preds, _ = _build_dag(list(kernel.instructions[:3]))
        assert any(p == 0 for p, _ in preds[1])  # load ordered after store
        assert preds[2] == []                    # different space — independent

    def test_predicate_dependence(self):
        builder = KernelBuilder()
        p = predicate(1)
        builder.isetp(p, "GT", 0, 0)
        with builder.guarded(p):
            builder.mov32i(2, 7)
        builder.exit()
        kernel = builder.build()
        preds, _ = _build_dag(list(kernel.instructions[:2]))
        assert (0, 0) in preds[1]


class TestScheduling:
    def test_schedule_preserves_structure(self, naive_kernel):
        scheduled, stats = schedule_kernel(naive_kernel, gpu=fermi_gtx580())
        assert scheduled.instruction_mix() == naive_kernel.instruction_mix()
        assert scheduled.branch_targets == naive_kernel.branch_targets
        assert scheduled.instruction_count == naive_kernel.instruction_count
        assert stats.regions >= 3
        assert stats.instructions_moved > 0

    def test_global_loads_hoisted_in_prologue(self, naive_kernel):
        """The prefetch LDs must not sink behind the accumulator zeroing."""
        scheduled, _ = schedule_kernel(naive_kernel, gpu=fermi_gtx580())
        first_ld = _position_of(scheduled, Opcode.LD)
        mov32i_positions = [
            i
            for i, ins in enumerate(scheduled.instructions)
            if ins.opcode is Opcode.MOV32I and i < 70
        ]
        # At least the bulk of the 37 prologue MOV32I sit after the first LD.
        after = sum(1 for p in mov32i_positions if p > first_ld)
        assert after >= len(mov32i_positions) // 2

    def test_schedule_respects_dependences(self, naive_kernel):
        """Every value must still be written before it is read, region-wise."""
        scheduled, _ = schedule_kernel(naive_kernel, gpu=fermi_gtx580())
        from repro.opt.liveness import def_use

        written_at: dict[int, int] = {}
        for index, instruction in enumerate(scheduled.instructions):
            du = def_use(instruction)
            for register in du.reg_uses:
                if register in written_at:
                    assert written_at[register] < index
            for register in du.reg_defs:
                written_at[register] = index

    def test_empty_like_kernel(self, fermi):
        builder = KernelBuilder()
        builder.exit()
        kernel = builder.build()
        scheduled, stats = schedule_kernel(kernel, gpu=fermi)
        assert scheduled.instruction_count == 1

    def test_control_hints_follow_their_instructions(self, naive_kernel):
        """Scheduling a kernel that already carries per-instruction hints must
        permute the hint bytes along with the instructions."""
        from repro.isa.control_notation import GROUP_SIZE
        from repro.opt.control_hints import assign_control_hints

        hinted = assign_control_hints(naive_kernel)
        scheduled, _ = schedule_kernel(hinted, gpu=fermi_gtx580())
        for index, instruction in enumerate(scheduled.instructions):
            notation = scheduled.control_notation_for(index)
            expected_yield = instruction.is_memory or instruction.is_barrier
            assert notation.yield_flag(index % GROUP_SIZE) == expected_yield
            assert notation.stall_cycles(index % GROUP_SIZE) == 0
