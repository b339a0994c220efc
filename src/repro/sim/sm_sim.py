"""Cycle-level simulation of one streaming multiprocessor.

The SM simulator holds the warps of the blocks resident on one SM and advances
a shader-cycle loop.  Every cycle it walks the warps in a rotating (loose
round-robin) order and issues at most one instruction per warp, subject to:

* the per-cycle issue budget (thread instructions per cycle),
* a cap on warp instructions issued per cycle (number of warp schedulers),
* SP / LD-ST pipe availability,
* scoreboard readiness of the source and destination registers,
* barrier state,
* Kepler control-notation stall hints.

Functional execution comes in two interchangeable flavours selected by the
``executor`` argument:

* ``"vectorized"`` (default): all resident blocks are executed ahead of the
  timing loop in one pass of :class:`repro.sim.vectorized.VectorizedEngine` —
  lock-step across the warps of every block, one NumPy op per instruction —
  which records per-warp traces of the functional decisions (branches, EXIT
  masks, bank-conflict replay degrees, DRAM lane counts).  The timing loop
  then replays those traces; for the race-free programs the simulator
  supports (no block writes a global word another block reads or writes)
  this is cycle-identical to executing at issue time, at a fraction of the
  cost.
* ``"reference"``: the scalar oracle (:mod:`repro.sim.reference`) executes
  every instruction at issue time, exactly as dependences resolve.  This is
  the behavioural baseline the differential test harness compares against.

Static per-instruction timing facts (issue cost, pipe occupancies, latencies,
scoreboard register sets, control-notation stalls) are precompiled into
``_InstrPlan`` records so the hot per-cycle loop does no operand decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.specs import GpuGeneration, GpuSpec
from repro.errors import SimulationError
from repro.isa.assembler import Kernel
from repro.isa.instructions import Instruction, Opcode
from repro.sim.launch import LaunchConfig
from repro.sim.memory import GlobalMemory, KernelParams, SharedMemoryArray
from repro.sim.pipelines import CostModel, PipelineState
from repro.sim.reference import ReferenceExecutor
from repro.sim.results import InstructionCounters, SimResult, StallBreakdown
from repro.sim.vectorized import VectorizedEngine, WarpTrace
from repro.sim.warp import REGISTER_COUNT, WarpState, build_warps_for_block

#: Issue-efficiency derating applied to the ideal throughput model.  Real SMs
#: lose a few percent of issue slots to instruction-fetch bubbles, dual-issue
#: restrictions and operand-collector arbitration; the paper's measured mixed
#: throughputs (e.g. 30.4 of 32 on Fermi at FFMA:LDS.64 = 6:1, 122.4 of 132 on
#: Kepler) sit a few percent under the analytic limits.  A single scalar per
#: generation captures that gap.
ISSUE_EFFICIENCY = {
    GpuGeneration.GT200: 0.97,
    GpuGeneration.FERMI: 0.965,
    GpuGeneration.KEPLER: 0.93,
}

#: Valid values for the ``executor`` argument of :class:`SmSimulator`.
EXECUTORS = ("vectorized", "reference")


class _InstrPlan:
    """Precompiled per-instruction timing facts (static, kernel-lifetime)."""

    __slots__ = (
        "instruction",
        "opcode",
        "mnemonic",
        "is_math",
        "is_memory",
        "is_shared",
        "is_ffma",
        "flops32",
        "wait_indices",
        "dest_indices",
        "issue_cost",
        "sp_cost",
        "ldst_cost_base",
        "latency",
        "bytes_moved",
        "width_bytes",
        "ready_delta",
    )

    def __init__(self, kernel: Kernel, pc: int, cost_model: CostModel) -> None:
        instruction = kernel.instructions[pc]
        self.instruction = instruction
        self.opcode = instruction.opcode
        self.mnemonic = instruction.mnemonic
        self.is_math = instruction.is_math
        self.is_memory = instruction.is_memory
        self.is_shared = instruction.is_shared_load or instruction.is_shared_store
        self.is_ffma = instruction.is_ffma
        self.flops32 = instruction.flop_count * 32
        # RZ (the last register index) is always ready and never tracked, so
        # it is dropped at plan-build time; the issue loop can then test the
        # scoreboard without per-index guards.  Duplicates wait identically.
        source_indices = tuple(r.index for r in instruction.registers_read)
        dest_indices = tuple(r.index for r in instruction.registers_written)
        self.dest_indices = tuple(
            i for i in dest_indices if i < REGISTER_COUNT - 1
        )
        wait: list[int] = []
        for index in source_indices + dest_indices:
            if index < REGISTER_COUNT - 1 and index not in wait:
                wait.append(index)
        self.wait_indices = tuple(wait)
        self.issue_cost = cost_model.issue_cost_threads(instruction)
        self.sp_cost = cost_model.sp_cost_cycles(instruction)
        self.ldst_cost_base = cost_model.ldst_cost_cycles(instruction, 1)
        self.latency = cost_model.result_latency(instruction)
        self.bytes_moved = cost_model.global_memory_bytes(instruction)
        self.width_bytes = instruction.width // 8
        notation = kernel.control_notation_for(pc)
        if notation is not None:
            # Hints are charged at half weight, rounded up to keep wake cycles
            # integral — a fractional ready_cycle used to leak into the
            # scheduler's cycle arithmetic.
            self.ready_delta = float(1 + (notation.stall_cycles(pc % 7) + 1) // 2)
        else:
            self.ready_delta = 1.0


@dataclass
class _BlockContext:
    """Per-block bookkeeping: shared memory and barrier state."""

    block_id: int
    shared_memory: SharedMemoryArray
    warps: list[WarpState] = field(default_factory=list)

    def barrier_complete(self) -> bool:
        """Whether every unfinished warp of the block has reached the barrier."""
        waiting = [w for w in self.warps if not w.finished]
        return all(w.at_barrier for w in waiting) and bool(waiting)

    def release_barrier(self) -> None:
        """Release all warps parked at the barrier."""
        for warp in self.warps:
            warp.at_barrier = False


class SmSimulator:
    """Simulates the warps resident on a single SM executing one kernel."""

    def __init__(
        self,
        gpu: GpuSpec,
        kernel: Kernel,
        *,
        global_memory: GlobalMemory | None = None,
        params: KernelParams | None = None,
        executor: str = "vectorized",
    ) -> None:
        if executor not in EXECUTORS:
            raise SimulationError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self._gpu = gpu
        self._kernel = kernel
        self._global_memory = global_memory
        self._params = params
        self._executor = executor
        self._cost_model = CostModel(gpu)
        self._issue_efficiency = ISSUE_EFFICIENCY.get(gpu.generation, 0.96)
        self._plans: list[_InstrPlan] | None = None

    @property
    def gpu(self) -> GpuSpec:
        """Machine description used by this simulator."""
        return self._gpu

    @property
    def kernel(self) -> Kernel:
        """Kernel being simulated."""
        return self._kernel

    @property
    def cost_model(self) -> CostModel:
        """Cost model used for timing."""
        return self._cost_model

    @property
    def executor(self) -> str:
        """Functional-execution engine: ``"vectorized"`` or ``"reference"``."""
        return self._executor

    # ------------------------------------------------------------------ #
    # Launch preparation.                                                  #
    # ------------------------------------------------------------------ #

    def _build_blocks(self, config: LaunchConfig, block_indices: list[tuple[int, int]]) -> list[_BlockContext]:
        shared_bytes = self._kernel.shared_memory_bytes + config.shared_memory_bytes
        blocks: list[_BlockContext] = []
        warp_id = 0
        for block_id, block_idx in enumerate(block_indices):
            context = _BlockContext(
                block_id=block_id,
                shared_memory=SharedMemoryArray(shared_bytes),
            )
            context.warps = build_warps_for_block(
                block_id=block_id,
                block_idx=block_idx,
                block_dim=(config.grid.block_x, config.grid.block_y),
                first_warp_id=warp_id,
            )
            warp_id += len(context.warps)
            blocks.append(context)
        return blocks

    def _build_plans(self) -> list[_InstrPlan]:
        if self._plans is None:
            self._plans = [
                _InstrPlan(self._kernel, pc, self._cost_model)
                for pc in range(self._kernel.instruction_count)
            ]
        return self._plans

    def _shared_memory_replays(
        self, warp: WarpState, instruction: Instruction, block: _BlockContext
    ) -> int:
        """Bank-conflict replay count for a shared-memory access (1 = conflict-free)."""
        operand = instruction.memory_operand
        if operand is None:
            return 1
        base = warp.read_u32(operand.base.index).astype(np.int64) + operand.offset
        mask = warp.active_mask
        addresses = [int(a) for a in base[mask]]
        if not addresses:
            return 1
        return self._gpu.shared_memory.conflict_degree(addresses, access_bytes=instruction.width // 8)

    # ------------------------------------------------------------------ #
    # Main loop.                                                           #
    # ------------------------------------------------------------------ #

    def run(
        self,
        config: LaunchConfig,
        block_indices: list[tuple[int, int]] | None = None,
        *,
        collect_profile: bool = False,
    ) -> SimResult:
        """Simulate the given blocks (default: all blocks of the grid) on this SM.

        Parameters
        ----------
        config:
            Launch configuration (grid geometry, functional flag, cycle cap).
        block_indices:
            The (blockIdx.x, blockIdx.y) pairs resident on this SM.  Pass a
            subset to model one SM's share of a larger grid.
        collect_profile:
            Attribute issue slots, wall-clock cycles, stall events, shared
            bank-conflict replays and DRAM bytes to individual instructions;
            the result's ``counters`` field then holds the per-instruction
            arrays (see :class:`repro.sim.results.InstructionCounters`).

        Returns
        -------
        SimResult
            Cycle count, instruction counts and stall pressure for this SM.
        """
        if block_indices is None:
            block_indices = config.grid.block_indices()
        if not block_indices:
            raise SimulationError("no blocks to simulate")

        instruction_count = self._kernel.instruction_count
        if instruction_count == 0:
            raise SimulationError("cannot simulate an empty kernel")
        plans = self._build_plans()

        blocks = self._build_blocks(config, block_indices)
        all_warps: list[WarpState] = [warp for block in blocks for warp in block.warps]
        block_of_warp: dict[int, _BlockContext] = {}
        for block in blocks:
            for warp in block.warps:
                block_of_warp[warp.warp_id] = block

        functional = config.functional
        vectorized = functional and self._executor == "vectorized"
        executor: ReferenceExecutor | None = None
        traces: dict[int, WarpTrace] = {}
        if vectorized:
            # Functional pre-pass: execute all blocks in one lock-step pass
            # ahead of the timing loop, recording the per-warp decision traces
            # the loop replays below.  A warp issues at most one instruction
            # per cycle, so the cycle cap bounds the dynamic instruction count
            # too.
            engine = VectorizedEngine(
                self._kernel,
                shared_spec=self._gpu.shared_memory,
                global_memory=self._global_memory,
                params=self._params,
                grid_dim=(config.grid.grid_x, config.grid.grid_y),
            )
            traces = engine.run_block(
                all_warps,
                [block.shared_memory for block in blocks],
                max_instructions=min(1_000_000, int(config.max_cycles) + 1),
            )
        elif functional:
            executor = ReferenceExecutor(
                self._global_memory,
                self._params,
                block_dim=(config.grid.block_x, config.grid.block_y),
                grid_dim=(config.grid.grid_x, config.grid.grid_y),
            )

        pipes = PipelineState()
        stalls = StallBreakdown()
        # Per-reason stall tallies as locals; folded into ``stalls`` after the
        # loop (and on the runaway error path) — attribute increments are
        # measurably slower than local-int increments in the issue loop.
        stall_scoreboard = 0
        stall_issue_bandwidth = 0
        stall_sp_pipe = 0
        stall_ldst_pipe = 0
        stall_barrier = 0
        stall_control_notation = 0
        counters = InstructionCounters.zeros(instruction_count) if collect_profile else None
        # Per-pc issue tally; the histogram and instruction totals are folded
        # from it after the loop so the hot path is one list increment.
        issue_counts = [0] * instruction_count
        memory_bytes_in_flight = 0.0

        issue_capacity = self._cost_model.issue_capacity_per_cycle * self._issue_efficiency
        max_warp_issues_per_cycle = max(1, self._gpu.sm.warp_schedulers)
        if self._gpu.generation is GpuGeneration.KEPLER:
            # Each Kepler scheduler has two dispatch units; allow dual issue.
            max_warp_issues_per_cycle = self._gpu.sm.dispatch_units
        # Token-bucket issue model: fractional per-cycle budget carries over so
        # that capacities slightly below a warp-instruction cost (e.g. 30.9
        # thread instructions per cycle on Fermi) still sustain the right
        # long-run rate instead of deadlocking.
        issue_tokens = 0.0
        issue_token_cap = max(issue_capacity * 2.0, 64.0)

        # Per-SM share of global memory bandwidth, in bytes per shader cycle.
        bandwidth_bytes_per_cycle = (
            self._gpu.global_memory_bandwidth_gbs
            * 1e9
            / (self._gpu.clocks.shader_mhz * 1e6)
            / self._gpu.sm_count
        )

        # Scoreboard matrix: row ``i`` aliases warp ``i``'s register_ready
        # array, so per-warp mark_written updates are visible to the matrix
        # and the no-progress fast-forward below is a single reduction.
        warp_count = len(all_warps)
        register_ready_matrix = np.zeros((warp_count, REGISTER_COUNT), dtype=np.float64)
        for row, warp in enumerate(all_warps):
            register_ready_matrix[row] = warp.register_ready
            warp.register_ready = register_ready_matrix[row]
        # Python-list mirror of the scoreboard rows: the per-instruction wait
        # checks dominate the issue loop and NumPy scalar indexing is several
        # times slower than a list read.  Writes go to both views.
        matrix_rows = list(register_ready_matrix)
        ready_lists = [[float(v) for v in row] for row in register_ready_matrix]
        ready_cycles = np.array([w.ready_cycle for w in all_warps], dtype=np.float64)
        # Round-robin visit orders, one per rotation residue, precomputed so
        # the issue loop avoids a modulo per warp per cycle.
        issue_orders = [
            [(offset + rotation) % warp_count for offset in range(warp_count)]
            for rotation in range(warp_count)
        ]

        cycle = 0.0
        rotation_residue = 0
        unfinished = warp_count
        while unfinished > 0:
            if cycle > config.max_cycles:
                states = ", ".join(
                    f"w{w.warp_id}@pc={w.pc}"
                    f"{'/fin' if w.finished else ''}{'/bar' if w.at_barrier else ''}"
                    f"/rdy={w.ready_cycle:.0f}"
                    for w in all_warps
                )
                stalls.scoreboard = stall_scoreboard
                stalls.issue_bandwidth = stall_issue_bandwidth
                stalls.sp_pipe = stall_sp_pipe
                stalls.ldst_pipe = stall_ldst_pipe
                stalls.barrier = stall_barrier
                stalls.control_notation = stall_control_notation
                raise SimulationError(
                    f"simulation exceeded {config.max_cycles} cycles; the kernel may not "
                    f"terminate (issued {sum(issue_counts)} warp instructions; "
                    f"stalls={stalls.as_dict()}; warps: {states})"
                )
            issue_tokens = min(issue_tokens + issue_capacity, issue_token_cap)
            warp_issues = 0
            progress = False
            barrier_state_changed = False
            cycle_horizon = cycle + 1.0
            if counters is not None:
                issued_pcs: list[int] = []
                stalled: list[tuple[int, str]] = []

            for index in issue_orders[rotation_residue]:
                if issue_tokens < 32.0 or warp_issues >= max_warp_issues_per_cycle:
                    break
                warp = all_warps[index]
                if warp.finished:
                    continue
                if warp.at_barrier:
                    stall_barrier += 1
                    if counters is not None:
                        # The warp's pc already advanced past the BAR it waits at.
                        bar_pc = max(warp.pc - 1, 0)
                        counters.stall_events["barrier"][bar_pc] += 1
                        stalled.append((bar_pc, "barrier"))
                    continue
                if warp.ready_cycle > cycle:
                    stall_control_notation += 1
                    if counters is not None:
                        counters.stall_events["control_notation"][warp.pc] += 1
                        stalled.append((warp.pc, "control_notation"))
                    continue
                if warp.pc >= instruction_count:
                    warp.finished = True
                    unfinished -= 1
                    barrier_state_changed = True
                    continue
                pc = warp.pc
                plan = plans[pc]

                # Scoreboard: sources and (for wide loads) destination pairs
                # must be ready (inlined WarpState.registers_ready; the plan's
                # wait_indices are pre-filtered of RZ).
                register_ready = ready_lists[index]
                ready = True
                for wait_index in plan.wait_indices:
                    if register_ready[wait_index] > cycle:
                        ready = False
                        break
                if not ready:
                    stall_scoreboard += 1
                    if counters is not None:
                        counters.stall_events["scoreboard"][pc] += 1
                        stalled.append((pc, "scoreboard"))
                    continue

                # Pipe availability.
                if plan.is_math and not pipes.sp_free_at < cycle_horizon:
                    stall_sp_pipe += 1
                    if counters is not None:
                        counters.stall_events["sp_pipe"][pc] += 1
                        stalled.append((pc, "sp_pipe"))
                    continue
                if plan.is_memory and not pipes.ldst_free_at < cycle_horizon:
                    stall_ldst_pipe += 1
                    if counters is not None:
                        counters.stall_events["ldst_pipe"][pc] += 1
                        stalled.append((pc, "ldst_pipe"))
                    continue

                smem_replays = 1
                if plan.is_shared and functional and not vectorized:
                    block = block_of_warp[warp.warp_id]
                    smem_replays = self._shared_memory_replays(warp, plan.instruction, block)

                if plan.issue_cost > issue_tokens:
                    stall_issue_bandwidth += 1
                    if counters is not None:
                        counters.stall_events["issue_bandwidth"][pc] += 1
                        stalled.append((pc, "issue_bandwidth"))
                    continue

                # --- The instruction issues. ---
                if vectorized:
                    if plan.is_shared:
                        smem_replays = traces[warp.warp_id].next_replay()
                elif functional:
                    executor.execute(
                        warp, plan.instruction,
                        block_of_warp[warp.warp_id].shared_memory,
                    )

                issue_tokens -= plan.issue_cost
                warp_issues += 1
                progress = True
                issue_counts[pc] += 1
                if counters is not None:
                    issued_pcs.append(pc)
                    if smem_replays > 1:
                        counters.smem_replays[pc] += smem_replays - 1

                latency = plan.latency
                if plan.is_math:
                    # Inlined PipelineState.occupy_sp.
                    free_at = pipes.sp_free_at
                    pipes.sp_free_at = (
                        free_at if free_at > cycle else cycle
                    ) + plan.sp_cost
                if plan.is_memory:
                    # Inlined PipelineState.occupy_ldst.
                    free_at = pipes.ldst_free_at
                    pipes.ldst_free_at = (
                        free_at if free_at > cycle else cycle
                    ) + plan.ldst_cost_base * max(1, smem_replays)
                    bytes_moved = plan.bytes_moved
                    if bytes_moved:
                        if counters is not None:
                            if vectorized:
                                # Lanes recorded by the functional pre-pass:
                                # active lanes under the instruction's
                                # predicate, matching GlobalMemory counters.
                                lanes = traces[warp.warp_id].next_dram_lanes()
                                counters.dram_bytes[pc] += lanes * plan.width_bytes
                            elif functional:
                                # Count what actually moves: active lanes under
                                # the instruction's predicate, matching the
                                # GlobalMemory byte counters exactly.
                                mask = warp.active_mask & warp.read_predicate(
                                    plan.instruction.predicate.index,
                                    plan.instruction.predicate_negated,
                                )
                                counters.dram_bytes[pc] += int(mask.sum()) * plan.width_bytes
                            else:
                                counters.dram_bytes[pc] += bytes_moved
                        memory_bytes_in_flight += bytes_moved
                        # Bandwidth queueing delay added to the load latency.
                        queue_delay = memory_bytes_in_flight / max(bandwidth_bytes_per_cycle, 1e-9)
                        latency += min(queue_delay, 2000.0)
                        memory_bytes_in_flight *= 0.95  # drain the queue model geometrically

                # Inlined WarpState.mark_written (dest_indices exclude RZ).
                # Updates land in both the list mirror and the NumPy row the
                # fast-forward reduction (and warp.register_ready) aliases.
                ready_at = cycle + latency
                matrix_row = matrix_rows[index]
                for dest_index in plan.dest_indices:
                    if register_ready[dest_index] < ready_at:
                        register_ready[dest_index] = ready_at
                        matrix_row[dest_index] = ready_at

                # Control notation / static stall hints (Kepler), precompiled
                # into the plan's ready_delta (1.0 when no notation applies).
                warp.ready_cycle = cycle + plan.ready_delta
                ready_cycles[index] = warp.ready_cycle

                # Control flow.
                opcode = plan.opcode
                if opcode is Opcode.EXIT:
                    if vectorized:
                        finished = traces[warp.warp_id].next_exit()
                    elif functional:
                        mask = warp.active_mask & warp.read_predicate(
                            plan.instruction.predicate.index,
                            plan.instruction.predicate_negated,
                        )
                        finished = bool(mask.any())
                    else:
                        finished = True
                    if finished:
                        warp.finished = True
                        unfinished -= 1
                        barrier_state_changed = True
                    else:
                        warp.pc += 1
                    continue
                if opcode is Opcode.BAR:
                    warp.at_barrier = True
                    warp.pc += 1
                    barrier_state_changed = True
                    block = block_of_warp[warp.warp_id]
                    if block.barrier_complete():
                        block.release_barrier()
                    continue
                if opcode is Opcode.BRA:
                    if vectorized:
                        taken = traces[warp.warp_id].next_branch()
                    else:
                        taken = self._branch_taken(warp, plan.instruction, functional)
                    if taken:
                        warp.pc = self._kernel.branch_targets[pc]
                    else:
                        warp.pc += 1
                    continue
                warp.pc += 1

            # Release barriers whose blocks completed this cycle (e.g. when the
            # last warp parked itself above after the check).  Barrier
            # completion only changes when a warp parks or finishes.
            if barrier_state_changed:
                for block in blocks:
                    if any(w.at_barrier for w in block.warps) and block.barrier_complete():
                        block.release_barrier()

            rotation_residue += 1
            if rotation_residue == warp_count:
                rotation_residue = 0
            cycle_before = cycle
            cycle += 1.0
            if not progress:
                # Jump ahead to the next interesting event instead of burning
                # cycles.  Per warp the wake cycle is the later of ready_cycle
                # and the earliest still-pending scoreboard release; one
                # reduction over the aliased scoreboard matrix covers all warps.
                rows = [
                    row
                    for row, w in enumerate(all_warps)
                    if not w.finished and not w.at_barrier
                ]
                if rows:
                    pending = np.where(
                        register_ready_matrix > cycle, register_ready_matrix, np.inf
                    ).min(axis=1)
                    candidates = np.maximum(
                        ready_cycles, np.where(np.isinf(pending), ready_cycles, pending)
                    )
                    next_ready = float(candidates[rows].min())
                    if next_ready > cycle:
                        cycle = float(np.ceil(next_ready))

            if counters is not None:
                # Wall-clock attribution: split the elapsed span (one cycle,
                # or the whole fast-forwarded idle jump) among this cycle's
                # issuers, else among the instructions warps stalled on.
                elapsed = cycle - cycle_before
                if issued_pcs:
                    share = elapsed / len(issued_pcs)
                    for pc in issued_pcs:
                        counters.issue_cycles[pc] += share
                elif stalled:
                    share = elapsed / len(stalled)
                    for pc, reason in stalled:
                        counters.stall_cycles[reason][pc] += share
                else:
                    # Token starvation / scheduler cap before any warp was
                    # examined: charge the first runnable warp's instruction.
                    for w in all_warps:
                        if w.finished:
                            continue
                        if w.at_barrier:
                            counters.stall_cycles["barrier"][max(w.pc - 1, 0)] += elapsed
                        else:
                            pc = min(w.pc, instruction_count - 1)
                            counters.stall_cycles["issue_bandwidth"][pc] += elapsed
                        break

        stalls.scoreboard = stall_scoreboard
        stalls.issue_bandwidth = stall_issue_bandwidth
        stalls.sp_pipe = stall_sp_pipe
        stalls.ldst_pipe = stall_ldst_pipe
        stalls.barrier = stall_barrier
        stalls.control_notation = stall_control_notation

        histogram: dict[str, int] = {}
        warp_instructions = 0
        ffma_thread_instructions = 0
        flops = 0
        for pc, count in enumerate(issue_counts):
            if not count:
                continue
            plan = plans[pc]
            warp_instructions += count
            histogram[plan.mnemonic] = histogram.get(plan.mnemonic, 0) + count
            if plan.is_ffma:
                ffma_thread_instructions += count * 32
            flops += plan.flops32 * count
        if counters is not None:
            counters.issues[:] = issue_counts

        return SimResult(
            cycles=cycle,
            thread_instructions=warp_instructions * 32,
            warp_instructions=warp_instructions,
            ffma_thread_instructions=ffma_thread_instructions,
            flops=flops,
            instruction_histogram=histogram,
            stalls=stalls,
            warps_simulated=len(all_warps),
            blocks_simulated=len(blocks),
            counters=counters,
            executor=self._executor if functional else "",
        )

    def _branch_taken(self, warp: WarpState, instruction: Instruction, functional: bool) -> bool:
        """Resolve a (possibly guarded) branch.

        Divergent branches are not modelled — SGEMM's loop branches are uniform
        across a warp; a divergent branch raises so mistakes are loud.
        """
        if not functional:
            # Timing-only runs cannot evaluate predicates; treat backwards
            # branches as not-taken to guarantee termination.
            return False
        if instruction.predicate.is_true and not instruction.predicate_negated:
            return True
        mask = warp.active_mask
        values = warp.read_predicate(instruction.predicate.index, instruction.predicate_negated)
        active_values = values[mask]
        if active_values.size == 0:
            return False
        if active_values.all():
            return True
        if not active_values.any():
            return False
        raise SimulationError(
            "divergent branch encountered; the simulator only supports warp-uniform branches"
        )
