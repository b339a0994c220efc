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
  then replays those traces through per-warp cursors and, after the run,
  checks that every recorded decision was consumed; for the race-free
  programs the simulator supports (no block writes a global word another
  block reads or writes) this is cycle-identical to executing at issue time,
  at a fraction of the cost.
* ``"reference"``: the scalar oracle (:mod:`repro.sim.reference`) executes
  every instruction at issue time, exactly as dependences resolve.  This is
  the behavioural baseline the differential test harness compares against.

The timing loop keeps its state in flat lists: static per-pc facts (issue
cost, pipe and pipe occupancy, latency, scoreboard register sets,
control-notation delay, control kind) in :class:`_PcFacts`, and per-warp
rows for status, pc, the control-notation ready cycle and a *scoreboard wake
cycle* — the latest pending release among the next instruction's registers.
A warp's scoreboard changes only when it issues, so the wake is computed
once per issue and a sleeping warp costs one comparison per visit.  Idle
cycles are skipped by jumping to the earliest pending release; the jump is
skipped outright when some runnable warp has no register pending and is past
its ready cycle, since no jump is then possible.  ``docs/simulator.md``
("The timing loop") walks through both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.arch.specs import GpuGeneration, GpuSpec
from repro.errors import SimulationError
from repro.isa.assembler import Kernel
from repro.isa.control_notation import GROUP_SIZE
from repro.isa.instructions import Instruction, Opcode
from repro.sim.launch import BlockGrid, LaunchConfig
from repro.sim.memory import GlobalMemory, KernelParams, SharedMemoryArray
from repro.sim.pipelines import CostModel
from repro.sim.reference import ReferenceExecutor
from repro.sim.results import InstructionCounters, SimResult, StallBreakdown
from repro.sim.vectorized import VectorizedEngine
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

# Pipe an instruction occupies (``_PcFacts.pipe``).
_NO_PIPE, _SP_PIPE, _LDST_PIPE = 0, 1, 2

# How an instruction moves its warp's pc (``_PcFacts.control``).
_NEXT, _EXIT, _BAR, _BRA = 0, 1, 2, 3

# Warp status rows of the timing loop.
_RUNNABLE, _AT_BARRIER, _FINISHED = 0, 1, 2


class _PcFacts:
    """Static per-instruction timing facts as parallel lists indexed by pc.

    ``wait`` has one extra, empty entry at index ``instruction_count``, so a
    warp whose pc ran past the last instruction has a (vacuous) wait set.
    """

    __slots__ = (
        "instructions",
        "mnemonic",
        "is_ffma",
        "flops32",
        "wait",
        "dests",
        "pipe",
        "pipe_cost",
        "is_shared",
        "issue_cost",
        "latency",
        "dram_bytes",
        "width_bytes",
        "ready_delta",
        "control",
        "branch_target",
    )

    def __init__(self, kernel: Kernel, cost_model: CostModel) -> None:
        self.instructions = instructions = list(kernel.instructions)
        # Everything but the register sets, the control-notation delay, the
        # branch target and the Kepler operand-bank multiplier is a function
        # of (opcode, width, compare_op) (the last only for the ISETP
        # mnemonic), so each class is priced once per kernel.
        classes: dict[tuple, tuple] = {}
        rows = []
        for instruction in instructions:
            key = (instruction.opcode, instruction.width, instruction.compare_op)
            facts = classes.get(key)
            if facts is None:
                facts = classes[key] = _class_facts(instruction, cost_model)
            rows.append(facts)
        (self.mnemonic, self.is_ffma, self.flops32, self.pipe, self.pipe_cost,
         self.is_shared, self.latency, self.dram_bytes, self.width_bytes,
         self.control) = (list(column) for column in list(zip(*rows)) or [()] * 10)
        self.issue_cost = [cost_model.issue_cost_threads(i) for i in instructions]
        # RZ (the last register index) is always ready and never tracked, so
        # it is dropped here; duplicates wait identically.
        self.dests = []
        self.wait = []
        for instruction in instructions:
            written = instruction.registers_written
            self.dests.append(tuple(r.index for r in written if r.index < REGISTER_COUNT - 1))
            wait: list[int] = []
            for r in (*instruction.registers_read, *written):
                if r.index < REGISTER_COUNT - 1 and r.index not in wait:
                    wait.append(r.index)
            self.wait.append(tuple(wait))
        self.wait.append(())
        # Hints are charged at half weight, rounded up to keep wake cycles
        # integral — a fractional ready cycle used to leak into the
        # scheduler's cycle arithmetic.
        self.ready_delta = [1.0] * len(instructions)
        for pc in range(min(len(instructions), GROUP_SIZE * len(kernel.control_notations))):
            notation = kernel.control_notations[pc // GROUP_SIZE]
            self.ready_delta[pc] = float(1 + (notation.stall_cycles(pc % GROUP_SIZE) + 1) // 2)
        targets = kernel.branch_targets
        self.branch_target = [targets.get(pc, pc + 1) for pc in range(len(instructions))]


def _class_facts(instruction: Instruction, cost_model: CostModel) -> tuple:
    """The per-class timing facts of ``instruction``, in :class:`_PcFacts` order."""
    if instruction.is_math:
        pipe, pipe_cost = _SP_PIPE, cost_model.sp_cost_cycles(instruction)
    elif instruction.is_memory:
        pipe, pipe_cost = _LDST_PIPE, cost_model.ldst_cost_cycles(instruction, 1)
    else:
        pipe, pipe_cost = _NO_PIPE, 0.0
    opcode = instruction.opcode
    return (
        instruction.mnemonic,
        instruction.is_ffma,
        instruction.flop_count * 32,
        pipe,
        pipe_cost,
        instruction.is_shared_load or instruction.is_shared_store,
        cost_model.result_latency(instruction),
        cost_model.global_memory_bytes(instruction),
        instruction.width // 8,
        _EXIT if opcode is Opcode.EXIT
        else _BAR if opcode is Opcode.BAR
        else _BRA if opcode is Opcode.BRA
        else _NEXT,
    )


@dataclass
class _BlockContext:
    """Per-block bookkeeping: shared memory and the block's warps."""

    block_id: int
    shared_memory: SharedMemoryArray
    warps: list[WarpState] = field(default_factory=list)


def _release_barrier(status: list[int], rows: list[int]) -> None:
    """Release every warp of ``rows`` parked at the block's barrier."""
    for row in rows:
        if status[row] == _AT_BARRIER:
            status[row] = _RUNNABLE


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
        self._facts: _PcFacts | None = None

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

    def _pc_facts(self) -> _PcFacts:
        if self._facts is None:
            self._facts = _PcFacts(self._kernel, self._cost_model)
        return self._facts

    def _shared_memory_replays(self, warp: WarpState, instruction: Instruction) -> int:
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
        facts = self._pc_facts()

        blocks = self._build_blocks(config, block_indices)
        all_warps: list[WarpState] = [warp for block in blocks for warp in block.warps]
        warp_count = len(all_warps)

        functional = config.functional
        vectorized = functional and self._executor == "vectorized"
        executor: ReferenceExecutor | None = None
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
            )
            traces = engine.run_block(
                all_warps,
                [block.shared_memory for block in blocks],
                max_instructions=min(1_000_000, int(config.max_cycles) + 1),
            )
            # Per-warp replay cursors over the recorded decisions.
            row_traces = [traces[warp.warp_id] for warp in all_warps]
            branch_cursor = [iter(t.branches) for t in row_traces]
            exit_cursor = [iter(t.exits) for t in row_traces]
            replay_cursor = [iter(t.replays) for t in row_traces]
            dram_cursor = [iter(t.dram_lanes) for t in row_traces]
        elif functional:
            executor = ReferenceExecutor(self._global_memory, self._params)

        # Static per-pc facts, bound to locals for the issue loop.
        wait_of = facts.wait
        dests_of = facts.dests
        pipe_of = facts.pipe
        pipe_cost_of = facts.pipe_cost
        is_shared_of = facts.is_shared
        issue_cost_of = facts.issue_cost
        latency_of = facts.latency
        dram_bytes_of = facts.dram_bytes
        width_bytes_of = facts.width_bytes
        ready_delta_of = facts.ready_delta
        control_of = facts.control
        branch_target_of = facts.branch_target
        instructions = facts.instructions

        # Per-warp rows, indexed like ``all_warps``.  ``ready`` is the
        # control-notation ready cycle; ``wake`` the latest scoreboard
        # release among the registers the instruction at the warp's pc waits
        # on (0.0 if none), recomputed whenever the warp issues — the only
        # time its scoreboard row or pc changes; ``latest`` the latest
        # release of any of its registers.
        status = [_RUNNABLE] * warp_count
        pcs = [warp.pc for warp in all_warps]
        ready = [0.0] * warp_count
        wake = [0.0] * warp_count
        latest = [0.0] * warp_count
        scoreboard = [[0.0] * REGISTER_COUNT for _ in range(warp_count)]
        block_of = [warp.block_id for warp in all_warps]
        shared_of = [blocks[b].shared_memory for b in block_of]
        block_rows = [[row for row in range(warp_count) if block_of[row] == b]
                      for b in range(len(blocks))]
        # Barrier books per block: unfinished warps, and those parked at BAR.
        alive = [len(rows) for rows in block_rows]
        arrived = [0] * len(blocks)

        stalls = StallBreakdown()
        # Per-reason stall tallies as locals; folded into ``stalls`` after the
        # loop (and on the runaway error path).
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
        sp_free_at = 0.0
        ldst_free_at = 0.0

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
        bandwidth_bytes_per_cycle = max(
            self._gpu.global_memory_bandwidth_gbs
            * 1e9
            / (self._gpu.clocks.shader_mhz * 1e6)
            / self._gpu.sm_count,
            1e-9,
        )

        # Round-robin visit orders, one per rotation residue, precomputed so
        # the issue loop avoids a modulo per warp per cycle.
        issue_orders = [
            [(offset + rotation) % warp_count for offset in range(warp_count)]
            for rotation in range(warp_count)
        ]

        max_cycles = config.max_cycles
        cycle = 0.0
        rotation_residue = 0
        unfinished = warp_count
        while unfinished:
            if cycle > max_cycles:
                states = ", ".join(
                    f"w{warp.warp_id}@pc={pcs[row]}"
                    f"{'/fin' if status[row] == _FINISHED else ''}"
                    f"{'/bar' if status[row] == _AT_BARRIER else ''}"
                    f"/rdy={ready[row]:.0f}"
                    for row, warp in enumerate(all_warps)
                )
                stalls.scoreboard = stall_scoreboard
                stalls.issue_bandwidth = stall_issue_bandwidth
                stalls.sp_pipe = stall_sp_pipe
                stalls.ldst_pipe = stall_ldst_pipe
                stalls.barrier = stall_barrier
                stalls.control_notation = stall_control_notation
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles; the kernel may not "
                    f"terminate (issued {sum(issue_counts)} warp instructions; "
                    f"stalls={stalls.as_dict()}; warps: {states})"
                )
            issue_tokens += issue_capacity
            if issue_tokens > issue_token_cap:
                issue_tokens = issue_token_cap
            warp_issues = 0
            barrier_state_changed = False
            if counters is not None:
                issued_pcs: list[int] = []
                stalled: list[tuple[int, str]] = []

            # The budget and the scheduler cap only change when a warp issues,
            # so they are checked here and after each issue, not per visit.
            if issue_tokens >= 32.0:
                cycle_horizon = cycle + 1.0
                for row in issue_orders[rotation_residue]:
                    state = status[row]
                    if state:
                        if state == _AT_BARRIER:
                            stall_barrier += 1
                            if counters is not None:
                                # The warp's pc already advanced past its BAR.
                                bar_pc = max(pcs[row] - 1, 0)
                                counters.stall_events["barrier"][bar_pc] += 1
                                stalled.append((bar_pc, "barrier"))
                        continue
                    if ready[row] > cycle:
                        stall_control_notation += 1
                        if counters is not None:
                            pc = pcs[row]
                            counters.stall_events["control_notation"][pc] += 1
                            stalled.append((pc, "control_notation"))
                        continue
                    if wake[row] > cycle:
                        stall_scoreboard += 1
                        if counters is not None:
                            pc = pcs[row]
                            counters.stall_events["scoreboard"][pc] += 1
                            stalled.append((pc, "scoreboard"))
                        continue
                    pc = pcs[row]
                    if pc >= instruction_count:
                        # Ran off the end without EXIT (``wake`` is 0.0 there).
                        status[row] = _FINISHED
                        unfinished -= 1
                        alive[block_of[row]] -= 1
                        barrier_state_changed = True
                        continue

                    pipe = pipe_of[pc]
                    if pipe == _SP_PIPE:
                        if sp_free_at >= cycle_horizon:
                            stall_sp_pipe += 1
                            if counters is not None:
                                counters.stall_events["sp_pipe"][pc] += 1
                                stalled.append((pc, "sp_pipe"))
                            continue
                    elif pipe == _LDST_PIPE and ldst_free_at >= cycle_horizon:
                        stall_ldst_pipe += 1
                        if counters is not None:
                            counters.stall_events["ldst_pipe"][pc] += 1
                            stalled.append((pc, "ldst_pipe"))
                        continue
                    issue_cost = issue_cost_of[pc]
                    if issue_cost > issue_tokens:
                        stall_issue_bandwidth += 1
                        if counters is not None:
                            counters.stall_events["issue_bandwidth"][pc] += 1
                            stalled.append((pc, "issue_bandwidth"))
                        continue

                    # --- The instruction issues. ---
                    issue_tokens -= issue_cost
                    warp_issues += 1
                    issue_counts[pc] += 1
                    if counters is not None:
                        issued_pcs.append(pc)
                    latency = latency_of[pc]
                    if pipe == _SP_PIPE:
                        sp_free_at = (sp_free_at if sp_free_at > cycle else cycle) + pipe_cost_of[pc]
                    elif pipe == _LDST_PIPE:
                        smem_replays = 1
                        if is_shared_of[pc]:
                            if vectorized:
                                smem_replays = next(replay_cursor[row], None)
                                if smem_replays is None:
                                    raise _desynchronised(all_warps[row], "replay")
                            elif functional:
                                smem_replays = self._shared_memory_replays(
                                    all_warps[row], instructions[pc]
                                )
                            if counters is not None and smem_replays > 1:
                                counters.smem_replays[pc] += smem_replays - 1
                        ldst_cost = pipe_cost_of[pc]
                        if smem_replays > 1:
                            ldst_cost *= smem_replays
                        ldst_free_at = (ldst_free_at if ldst_free_at > cycle else cycle) + ldst_cost
                        bytes_moved = dram_bytes_of[pc]
                        if bytes_moved:
                            if counters is not None:
                                if vectorized:
                                    # Lanes recorded by the functional pre-pass:
                                    # active lanes under the instruction's
                                    # predicate, matching GlobalMemory counters.
                                    lanes = next(dram_cursor[row], None)
                                    if lanes is None:
                                        raise _desynchronised(all_warps[row], "DRAM-lane")
                                    counters.dram_bytes[pc] += lanes * width_bytes_of[pc]
                                elif functional:
                                    # Executed below; the guard predicate is
                                    # not among a memory access's writes.
                                    counters.dram_bytes[pc] += (
                                        _active_lanes(all_warps[row], instructions[pc])
                                        * width_bytes_of[pc]
                                    )
                                else:
                                    counters.dram_bytes[pc] += bytes_moved
                            memory_bytes_in_flight += bytes_moved
                            # Bandwidth queueing delay added to the load latency.
                            queue_delay = memory_bytes_in_flight / bandwidth_bytes_per_cycle
                            latency += min(queue_delay, 2000.0)
                            memory_bytes_in_flight *= 0.95  # drain the queue model geometrically
                    if executor is not None:
                        executor.execute(all_warps[row], instructions[pc], shared_of[row])

                    registers = scoreboard[row]
                    dests = dests_of[pc]
                    if dests:
                        ready_at = cycle + latency
                        for dest in dests:
                            if registers[dest] < ready_at:
                                registers[dest] = ready_at
                        if latest[row] < ready_at:
                            latest[row] = ready_at
                    # Control notation / static stall hints (Kepler), 1.0
                    # when no notation applies.
                    ready[row] = cycle + ready_delta_of[pc]

                    # Control flow.
                    control = control_of[pc]
                    next_pc = pc + 1
                    if control == _EXIT:
                        if vectorized:
                            finished = next(exit_cursor[row], None)
                            if finished is None:
                                raise _desynchronised(all_warps[row], "exit")
                        elif functional:
                            finished = _active_lanes(all_warps[row], instructions[pc]) > 0
                        else:
                            finished = True
                        if finished:
                            status[row] = _FINISHED
                            unfinished -= 1
                            alive[block_of[row]] -= 1
                            barrier_state_changed = True
                            next_pc = pc
                    elif control == _BAR:
                        status[row] = _AT_BARRIER
                        barrier_state_changed = True
                        block = block_of[row]
                        arrived[block] += 1
                        if arrived[block] == alive[block]:
                            _release_barrier(status, block_rows[block])
                            arrived[block] = 0
                    elif control == _BRA:
                        if vectorized:
                            taken = next(branch_cursor[row], None)
                            if taken is None:
                                raise _desynchronised(all_warps[row], "branch")
                        else:
                            taken = self._branch_taken(all_warps[row], instructions[pc], functional)
                        if taken:
                            next_pc = branch_target_of[pc]
                    pcs[row] = next_pc
                    # The scoreboard wake of the warp's next instruction.
                    pending = 0.0
                    for index in wait_of[next_pc]:
                        if registers[index] > pending:
                            pending = registers[index]
                    wake[row] = pending

                    if issue_tokens < 32.0 or warp_issues >= max_warp_issues_per_cycle:
                        break

            # Release barriers whose blocks completed this cycle (a warp that
            # finishes can complete its block's barrier).  Barrier completion
            # only changes when a warp parks or finishes.
            if barrier_state_changed:
                for block, count in enumerate(arrived):
                    if count and count == alive[block]:
                        _release_barrier(status, block_rows[block])
                        arrived[block] = 0

            rotation_residue += 1
            if rotation_residue == warp_count:
                rotation_residue = 0
            cycle_before = cycle
            cycle += 1.0
            if not warp_issues:
                # Jump ahead to the next interesting event instead of burning
                # cycles: the earliest, over runnable warps, of the later of
                # the warp's ready cycle and its earliest still-pending
                # register release (the ready cycle alone when nothing is
                # pending).  A runnable warp past its ready cycle with nothing
                # pending puts that at or before ``cycle``, so no jump is
                # possible: skip the scan.
                for row in range(warp_count):
                    if status[row] == _RUNNABLE and ready[row] <= cycle and latest[row] <= cycle:
                        break
                else:
                    next_ready = math.inf
                    for row in range(warp_count):
                        if status[row] != _RUNNABLE:
                            continue
                        candidate = ready[row]
                        if latest[row] > cycle:
                            earliest = min([v for v in scoreboard[row] if v > cycle])
                            if earliest > candidate:
                                candidate = earliest
                        if candidate < next_ready:
                            next_ready = candidate
                    if cycle < next_ready < math.inf:
                        cycle = float(math.ceil(next_ready))

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
                    for row in range(warp_count):
                        if status[row] == _FINISHED:
                            continue
                        if status[row] == _AT_BARRIER:
                            counters.stall_cycles["barrier"][max(pcs[row] - 1, 0)] += elapsed
                        else:
                            pc = min(pcs[row], instruction_count - 1)
                            counters.stall_cycles["issue_bandwidth"][pc] += elapsed
                        break

        if vectorized:
            # The loop must consume exactly what the pre-pass recorded; DRAM
            # lanes are only read when profiling.
            cursors = [("branch", branch_cursor), ("exit", exit_cursor),
                       ("replay", replay_cursor)]
            if counters is not None:
                cursors.append(("DRAM-lane", dram_cursor))
            for what, rows in cursors:
                for row, cursor in enumerate(rows):
                    if next(cursor, None) is not None:
                        raise SimulationError(
                            f"vectorized trace desynchronised: warp "
                            f"{all_warps[row].warp_id} left {what} decisions the "
                            f"functional pre-pass recorded unconsumed by the timing loop"
                        )

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
            mnemonic = facts.mnemonic[pc]
            warp_instructions += count
            histogram[mnemonic] = histogram.get(mnemonic, 0) + count
            if facts.is_ffma[pc]:
                ffma_thread_instructions += count * 32
            flops += facts.flops32[pc] * count
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
            warps_simulated=warp_count,
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
            # Timing-only runs cannot evaluate predicates, so every branch
            # falls through, forward or backward, guarded or not: the warp
            # makes one straight pass to its first EXIT, running each loop
            # body once and any code a branch would have skipped.
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


def simulate_kernel(
    gpu: GpuSpec,
    kernel: Kernel,
    grid: BlockGrid,
    *,
    global_memory: GlobalMemory | None = None,
    params: KernelParams | None = None,
    functional: bool = True,
    max_cycles: int = 5_000_000,
    executor: str = "vectorized",
) -> SimResult:
    """Convenience wrapper: simulate all blocks of ``grid`` on one SM.

    Suitable for small functional-validation runs and micro-benchmarks where
    the grid fits on (or is intended for) a single SM.  ``executor`` selects
    the functional engine (``"vectorized"`` fast path or the scalar
    ``"reference"`` oracle); both produce bit-identical results.
    """
    simulator = SmSimulator(
        gpu, kernel, global_memory=global_memory, params=params, executor=executor
    )
    config = LaunchConfig(grid=grid, functional=functional, max_cycles=max_cycles)
    return simulator.run(config)


def _active_lanes(warp: WarpState, instruction: Instruction) -> int:
    """Lanes of ``warp`` that are active under ``instruction``'s guard."""
    mask = warp.active_mask & warp.read_predicate(
        instruction.predicate.index, instruction.predicate_negated
    )
    return int(mask.sum())


def _desynchronised(warp: WarpState, what: str) -> SimulationError:
    return SimulationError(
        f"vectorized trace desynchronised: the timing loop requested more {what} "
        f"decisions for warp {warp.warp_id} than the functional pre-pass recorded"
    )
