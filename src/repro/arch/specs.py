"""GPU machine descriptions (paper Table 1).

The analytic model and the simulator are both parametrised by a
:class:`GpuSpec` that bundles the clock domains, per-SM resources and the
measured peak throughputs of the relevant functional units.  Three concrete
descriptions ship with the library, matching the three generations compared in
Table 1 of the paper:

* GT200 (GeForce GTX 280)
* Fermi GF110 (GeForce GTX 580)
* Kepler GK104 (GeForce GTX 680)

The numbers come directly from the paper's Table 1 and Section 3/4 benchmark
results (e.g. the 132 thread-instructions/cycle effective FFMA issue ceiling on
GK104 and the LDS.X throughput table of Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.arch.clocks import ClockDomains
from repro.arch.register_file import RegisterFileSpec
from repro.arch.shared_memory import SharedMemorySpec
from repro.errors import ArchitectureError


class GpuGeneration(str, Enum):
    """NVIDIA GPU generations covered by the paper."""

    GT200 = "gt200"
    FERMI = "fermi"
    KEPLER = "kepler"


@dataclass(frozen=True)
class SmResources:
    """Static execution resources of one streaming multiprocessor.

    Attributes
    ----------
    warp_schedulers:
        Number of warp schedulers per SM.
    dispatch_units:
        Number of dispatch units per SM (Kepler has 2 per scheduler).
    sp_count:
        Number of streaming processors (CUDA cores) per SM.
    ldst_units:
        Number of load/store units per SM.
    sfu_count:
        Number of special-function units per SM.
    max_threads:
        Hardware limit on resident threads per SM.
    max_blocks:
        Hardware limit on resident blocks per SM.
    max_warps:
        Hardware limit on resident warps per SM.
    """

    warp_schedulers: int
    dispatch_units: int
    sp_count: int
    ldst_units: int
    sfu_count: int
    max_threads: int
    max_blocks: int
    max_warps: int

    def __post_init__(self) -> None:
        for name in (
            "warp_schedulers",
            "dispatch_units",
            "sp_count",
            "ldst_units",
            "sfu_count",
            "max_threads",
            "max_blocks",
            "max_warps",
        ):
            if getattr(self, name) <= 0:
                raise ArchitectureError(f"{name} must be positive")


@dataclass(frozen=True)
class IssueThroughput:
    """Measured per-SM instruction throughputs, in thread instructions per shader cycle.

    These are the quantities the paper measures with assembly-level
    micro-benchmarks and then feeds into the bound equations.

    Attributes
    ----------
    issue_per_cycle:
        Scheduler issue ceiling: the maximum number of thread instructions the
        SM's schedulers/dispatch units can issue per shader cycle (32 on
        Fermi; nominally 128 on Kepler but measured at ~132 for FFMA with
        distinct operand registers).
    ffma_per_cycle:
        Sustained FFMA throughput with conflict-free distinct operands.
    ffma_same_operand_per_cycle:
        FFMA throughput when operand reuse lets the hardware exceed the
        normal ceiling (the paper reports ~178 on Kepler for carefully
        structured reuse patterns); equal to ``ffma_per_cycle`` elsewhere.
    lds32_per_cycle / lds64_per_cycle / lds128_per_cycle:
        Sustained LDS/LDS.64/LDS.128 throughput in thread instructions per
        shader cycle.
    """

    issue_per_cycle: float
    ffma_per_cycle: float
    ffma_same_operand_per_cycle: float
    lds32_per_cycle: float
    lds64_per_cycle: float
    lds128_per_cycle: float

    def __post_init__(self) -> None:
        for name in (
            "issue_per_cycle",
            "ffma_per_cycle",
            "ffma_same_operand_per_cycle",
            "lds32_per_cycle",
            "lds64_per_cycle",
            "lds128_per_cycle",
        ):
            if getattr(self, name) <= 0:
                raise ArchitectureError(f"{name} must be positive")

    def lds_throughput(self, width_bits: int) -> float:
        """Throughput of the LDS instruction with the given access width."""
        if width_bits == 32:
            return self.lds32_per_cycle
        if width_bits == 64:
            return self.lds64_per_cycle
        if width_bits == 128:
            return self.lds128_per_cycle
        raise ArchitectureError(f"unsupported LDS width: {width_bits}")


@dataclass(frozen=True)
class GpuSpec:
    """Complete machine description of one GPU."""

    name: str
    chip: str
    generation: GpuGeneration
    compute_capability: tuple[int, int]
    sm_count: int
    clocks: ClockDomains
    sm: SmResources
    register_file: RegisterFileSpec
    shared_memory: SharedMemorySpec
    issue: IssueThroughput
    global_memory_bandwidth_gbs: float
    flops_per_sp_per_cycle: int = 2
    extras: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sm_count <= 0:
            raise ArchitectureError("sm_count must be positive")
        if self.global_memory_bandwidth_gbs <= 0:
            raise ArchitectureError("global memory bandwidth must be positive")
        if self.flops_per_sp_per_cycle <= 0:
            raise ArchitectureError("flops_per_sp_per_cycle must be positive")

    @property
    def theoretical_peak_gflops(self) -> float:
        """Theoretical single-precision peak in GFLOPS.

        Fermi/Kepler SPs retire one FFMA (2 flops) per shader cycle; GT200
        additionally dual-issues a MUL on the SFU path, which is why its
        marketing peak counts 3 flops per SP per cycle (Table 1's 933 GFLOPS).
        """
        return (
            float(self.flops_per_sp_per_cycle)
            * self.sm.sp_count
            * self.sm_count
            * self.clocks.shader_mhz
            / 1000.0
        )

    @property
    def sp_throughput_per_cycle(self) -> int:
        """SP thread-instruction processing throughput per SM per shader cycle."""
        return self.sm.sp_count

    @property
    def max_active_threads_per_sm(self) -> int:
        """Hardware thread-residency limit per SM."""
        return self.sm.max_threads

    def peak_gflops_at_throughput(self, ffma_per_cycle: float) -> float:
        """GFLOPS achieved when each SM sustains ``ffma_per_cycle`` FFMAs/cycle."""
        if ffma_per_cycle < 0:
            raise ArchitectureError("throughput must be non-negative")
        return 2.0 * ffma_per_cycle * self.sm_count * self.clocks.shader_mhz / 1000.0

    def with_shared_memory_config(self, size_bytes: int) -> "GpuSpec":
        """Return a copy of this spec with a different shared-memory split."""
        return replace(self, shared_memory=replace(self.shared_memory, size_bytes=size_bytes))


def gt200_gtx280() -> GpuSpec:
    """GeForce GTX 280 (GT200), the oldest generation in Table 1."""
    return GpuSpec(
        name="GeForce GTX 280",
        chip="GT200",
        generation=GpuGeneration.GT200,
        compute_capability=(1, 3),
        sm_count=30,
        clocks=ClockDomains(core_mhz=602.0, shader_mhz=1296.0),
        sm=SmResources(
            warp_schedulers=1,
            dispatch_units=1,
            sp_count=8,
            ldst_units=8,
            sfu_count=2,
            max_threads=1024,
            max_blocks=8,
            max_warps=32,
        ),
        register_file=RegisterFileSpec(
            registers_per_sm=16 * 1024,
            max_registers_per_thread=127,
            has_operand_bank_conflicts=False,
        ),
        shared_memory=SharedMemorySpec(size_bytes=16 * 1024, bank_count=16, bank_width_bytes=4),
        issue=IssueThroughput(
            issue_per_cycle=16.0,
            ffma_per_cycle=8.0,
            ffma_same_operand_per_cycle=8.0,
            lds32_per_cycle=8.0,
            lds64_per_cycle=4.0,
            lds128_per_cycle=2.0,
        ),
        global_memory_bandwidth_gbs=141.7,
        flops_per_sp_per_cycle=3,
    )


def fermi_gtx580() -> GpuSpec:
    """GeForce GTX 580 (Fermi GF110), the paper's primary target."""
    return GpuSpec(
        name="GeForce GTX 580",
        chip="GF110",
        generation=GpuGeneration.FERMI,
        compute_capability=(2, 0),
        sm_count=16,
        clocks=ClockDomains(core_mhz=772.0, shader_mhz=1544.0),
        sm=SmResources(
            warp_schedulers=2,
            dispatch_units=2,
            sp_count=32,
            ldst_units=16,
            sfu_count=4,
            max_threads=1536,
            max_blocks=8,
            max_warps=48,
        ),
        register_file=RegisterFileSpec(
            registers_per_sm=32 * 1024,
            max_registers_per_thread=63,
            has_operand_bank_conflicts=False,
        ),
        shared_memory=SharedMemorySpec(size_bytes=48 * 1024, bank_count=32, bank_width_bytes=4),
        issue=IssueThroughput(
            issue_per_cycle=32.0,
            ffma_per_cycle=32.0,
            ffma_same_operand_per_cycle=32.0,
            # Section 4.1: LDS peaks at 16 32-bit ops/cycle/SM; LDS.64 does not
            # raise the data throughput (8 instructions/cycle); LDS.128 incurs a
            # 2-way conflict and reaches only 2 instructions/cycle.
            lds32_per_cycle=16.0,
            lds64_per_cycle=8.0,
            lds128_per_cycle=2.0,
        ),
        global_memory_bandwidth_gbs=192.4,
    )


def kepler_gtx680() -> GpuSpec:
    """GeForce GTX 680 (Kepler GK104), the paper's second target."""
    return GpuSpec(
        name="GeForce GTX 680",
        chip="GK104",
        generation=GpuGeneration.KEPLER,
        compute_capability=(3, 0),
        sm_count=8,
        clocks=ClockDomains(core_mhz=1006.0, shader_mhz=1006.0, boost_mhz=1058.0),
        sm=SmResources(
            warp_schedulers=4,
            dispatch_units=8,
            sp_count=192,
            ldst_units=32,
            sfu_count=32,
            max_threads=2048,
            max_blocks=16,
            max_warps=64,
        ),
        register_file=RegisterFileSpec(
            registers_per_sm=64 * 1024,
            max_registers_per_thread=63,
            has_operand_bank_conflicts=True,
        ),
        shared_memory=SharedMemorySpec(size_bytes=48 * 1024, bank_count=32, bank_width_bytes=8),
        issue=IssueThroughput(
            # Section 3.3: the schedulers issue at most ~132 "useful" FFMA
            # thread instructions per cycle even though 192 SPs are available;
            # carefully structured operand reuse can approach 178.
            issue_per_cycle=132.0,
            ffma_per_cycle=132.0,
            ffma_same_operand_per_cycle=178.0,
            # Section 4.1: LDS.64 reaches ~33.1 64-bit ops/cycle/SM, 32-bit LDS
            # halves the data rate (same instruction rate), LDS.128 halves the
            # instruction rate without a data-rate penalty.
            lds32_per_cycle=33.1,
            lds64_per_cycle=33.1,
            lds128_per_cycle=16.5,
        ),
        global_memory_bandwidth_gbs=192.26,
    )


GPU_SPECS: dict[str, GpuSpec] = {
    "gtx280": gt200_gtx280(),
    "gtx580": fermi_gtx580(),
    "gtx680": kepler_gtx680(),
}

_ALIASES: dict[str, str] = {
    "gt200": "gtx280",
    "fermi": "gtx580",
    "gf110": "gtx580",
    "kepler": "gtx680",
    "gk104": "gtx680",
}


def get_gpu_spec(name: str) -> GpuSpec:
    """Look up a shipped machine description by name or alias.

    Accepted names: ``gtx280``/``gt200``, ``gtx580``/``fermi``/``gf110``,
    ``gtx680``/``kepler``/``gk104`` (case-insensitive).
    """
    key = name.strip().lower().replace(" ", "")
    key = _ALIASES.get(key, key)
    if key not in GPU_SPECS:
        known = ", ".join(sorted(GPU_SPECS))
        raise ArchitectureError(f"unknown GPU '{name}'; known GPUs: {known}")
    return GPU_SPECS[key]


def normalize_gpu(name: str) -> str:
    """Canonical short GPU key (``"GeForce GTX 580"`` → ``"gtx580"``).

    The one spelling every layer keys GPUs by: the throughput database,
    autotune outcomes, run-ledger records and kernel-cache routine keys.
    """
    return name.lower().replace("geforce ", "").replace(" ", "")


def architecture_evolution_table() -> list[dict[str, object]]:
    """Reproduce the rows of paper Table 1 ("Architecture Evolution").

    Returns one dictionary per GPU generation with the same quantities the
    paper tabulates, so the Table 1 benchmark can print them side by side.
    """
    rows: list[dict[str, object]] = []
    for key in ("gtx280", "gtx580", "gtx680"):
        spec = GPU_SPECS[key]
        rows.append(
            {
                "gpu": spec.name,
                "chip": spec.chip,
                "core_clock_mhz": spec.clocks.core_mhz,
                "shader_clock_mhz": spec.clocks.shader_mhz,
                "global_memory_bandwidth_gbs": spec.global_memory_bandwidth_gbs,
                "warp_schedulers_per_sm": spec.sm.warp_schedulers,
                "dispatch_units_per_sm": spec.sm.dispatch_units,
                "issue_throughput_per_cycle": spec.issue.issue_per_cycle,
                "sp_per_sm": spec.sm.sp_count,
                "ldst_units_per_sm": spec.sm.ldst_units,
                "shared_memory_per_sm_kb": spec.shared_memory.size_bytes // 1024,
                "registers_per_sm": spec.register_file.registers_per_sm,
                "max_registers_per_thread": spec.register_file.max_registers_per_thread,
                "theoretical_peak_gflops": round(spec.theoretical_peak_gflops, 1),
            }
        )
    return rows
