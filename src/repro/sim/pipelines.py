"""Timing parameters and pipeline occupancy model.

The timing model is deliberately simple and throughput-oriented, because the
paper's analysis is about *sustained* throughput of mixed instruction streams:

* each SM has an **issue** budget of ``issue_per_cycle`` thread instructions
  per shader cycle (32 on Fermi, ~132 effective on Kepler);
* the **SP pipe** accepts FFMA/ALU warp instructions at a rate given by the
  SP count (one warp instruction costs ``32 / sp_count`` pipe-cycles);
* the **LD/ST pipe** accepts shared/global memory warp instructions at a
  width-dependent rate measured in Section 4.1 of the paper (an LDS.X warp
  instruction costs ``32 / lds_throughput(width)`` pipe-cycles, multiplied by
  any shared-memory bank-conflict replay factor);
* destination registers become ready ``latency`` cycles after issue, which is
  what makes the throughput sensitive to the number of active warps (Fig 4);
* on Kepler, an FFMA whose distinct source registers collide on a register
  bank consumes proportionally more issue bandwidth (Section 3.3 / Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.register_file import bank_conflict_degree
from repro.arch.specs import GpuGeneration, GpuSpec
from repro.isa.instructions import Instruction, Opcode


@dataclass(frozen=True)
class LatencyTable:
    """Result latencies (in shader cycles) per instruction class."""

    math: float
    shared_load: float
    global_load: float
    global_store: float = 4.0
    shared_store: float = 4.0
    control: float = 1.0

    def latency_for(self, instruction: Instruction) -> float:
        """Latency before the destination of ``instruction`` becomes readable."""
        if instruction.is_shared_load:
            return self.shared_load
        if instruction.is_global_load:
            return self.global_load
        if instruction.is_shared_store:
            return self.shared_store
        if instruction.is_global_store:
            return self.global_store
        if instruction.is_control:
            return self.control
        return self.math


def latency_table_for(gpu: GpuSpec) -> LatencyTable:
    """Default latencies for a GPU generation.

    The absolute values follow published micro-benchmarking studies of the two
    architectures (math latency ≈ 18–22 cycles on Fermi, ≈ 9–11 on Kepler;
    shared loads in the 30-cycle range; global loads several hundred cycles).
    The model only needs them to be in the right regime: they control how many
    active warps are required to reach peak throughput (paper Fig 4).
    """
    if gpu.generation is GpuGeneration.KEPLER:
        return LatencyTable(math=9.0, shared_load=33.0, global_load=300.0)
    if gpu.generation is GpuGeneration.FERMI:
        return LatencyTable(math=18.0, shared_load=36.0, global_load=450.0)
    return LatencyTable(math=24.0, shared_load=38.0, global_load=500.0)


class CostModel:
    """Converts instructions into issue/pipe costs for a particular GPU."""

    def __init__(self, gpu: GpuSpec) -> None:
        self._gpu = gpu
        self._latencies = latency_table_for(gpu)

    @property
    def gpu(self) -> GpuSpec:
        """The machine description this cost model is bound to."""
        return self._gpu

    @property
    def latencies(self) -> LatencyTable:
        """The latency table in use."""
        return self._latencies

    @property
    def issue_capacity_per_cycle(self) -> float:
        """Thread instructions the SM can issue per shader cycle."""
        return self._gpu.issue.issue_per_cycle

    def operand_bank_multiplier(self, instruction: Instruction) -> float:
        """Issue-cost multiplier caused by operand register-bank conflicts.

        On Kepler, an FFMA whose three distinct source registers include two
        (three) registers on the same bank runs at 1/2 (1/3) throughput, which
        the model charges as a 2× (3×) issue cost.  Fermi and GT200 do not
        show the effect in the paper's measurements.
        """
        if not self._gpu.register_file.has_operand_bank_conflicts:
            return 1.0
        if instruction.opcode not in (Opcode.FFMA, Opcode.FADD, Opcode.FMUL, Opcode.IMAD):
            return 1.0
        degree = bank_conflict_degree(list(instruction.source_register_indices))
        return float(degree)

    def issue_cost_threads(self, instruction: Instruction, smem_replays: int = 1) -> float:
        """Issue-bandwidth cost of one warp instruction, in thread instructions.

        Shared-memory bank-conflict replays are charged to the LD/ST pipe (see
        :meth:`ldst_cost_cycles`), not to issue bandwidth — replayed accesses
        occupy the memory pipeline, they do not consume scheduler slots again.
        """
        del smem_replays  # replays are charged to the LD/ST pipe
        return 32.0 * self.operand_bank_multiplier(instruction)

    def sp_cost_cycles(self, instruction: Instruction) -> float:
        """SP-pipe occupancy of one warp instruction, in pipe-cycles."""
        if not instruction.is_math:
            return 0.0
        return 32.0 / float(self._gpu.sm.sp_count)

    def ldst_cost_cycles(self, instruction: Instruction, smem_replays: int = 1) -> float:
        """LD/ST-pipe occupancy of one warp instruction, in pipe-cycles.

        Shared-memory instructions use the measured width-dependent LDS
        throughput; global-memory instructions use the LD/ST unit count.  Bank
        conflicts multiply the occupancy by the replay count.
        """
        if not instruction.is_memory:
            return 0.0
        if instruction.memory_space is not None and instruction.is_shared_load:
            throughput = self._gpu.issue.lds_throughput(instruction.width)
        elif instruction.is_shared_store:
            throughput = self._gpu.issue.lds_throughput(instruction.width)
        else:
            throughput = float(self._gpu.sm.ldst_units)
        return (32.0 / throughput) * max(1, smem_replays)

    def result_latency(self, instruction: Instruction) -> float:
        """Cycles until the destination registers of ``instruction`` are readable."""
        return self._latencies.latency_for(instruction)

    def global_memory_bytes(self, instruction: Instruction) -> int:
        """Bytes moved by a global-memory warp instruction (0 otherwise)."""
        if instruction.is_global_load or instruction.is_global_store:
            return 32 * instruction.width // 8
        return 0
