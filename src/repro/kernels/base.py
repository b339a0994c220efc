"""The ``Workload`` protocol and the generic run/validate harness.

The paper's methodology is a loop: derive an analytic upper bound for a
kernel, generate the kernel at SASS level, optimize it, measure, compare.
:class:`Workload` captures the per-kernel pieces of that loop so the
machinery around it — the optimization pipeline, the simulator harness, the
autotuner and the benchmarks — can be written once:

* ``generate_naive`` — the compiler-like kernel (sequential register
  allocation, program order), the optimization pipeline's input;
* ``generate_optimized`` — the naive kernel pushed through
  :mod:`repro.opt` (register reallocation, scheduling, control hints);
* ``prepare_inputs`` / ``reference`` — NumPy semantics to validate against;
* ``build_launch`` / ``read_output`` — simulated-memory plumbing;
* ``resources`` — the upper-bound inputs (flops, DRAM and shared traffic)
  consumed by :func:`repro.model.analyse_workload_bound`;
* ``config_space`` — the sweep points the autotuner explores.

:func:`run_workload` drives a full functional simulation of any workload and
checks the result against NumPy; :func:`workload_cycles` is the cheap
timing-only single-block evaluation the autotuner and benchmarks use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.arch.specs import GpuSpec, normalize_gpu
from repro.context import current
from repro.errors import ReproError
from repro.isa.assembler import Kernel
from repro.model.workload_bounds import (
    WorkloadBound,
    WorkloadResources,
    analyse_workload_bound,
)
from repro.sim.launch import BlockGrid, LaunchConfig
from repro.sim.memory import GlobalMemory, KernelParams
from repro.sim.results import SimResult
from repro.sim.sm_sim import SmSimulator
from repro.telemetry.ledger import config_digest, record_run
from repro.telemetry.metrics import counter_inc, gauge_set


@dataclass
class WorkloadLaunch:
    """Everything needed to simulate one workload launch.

    Built by :meth:`Workload.build_launch`: the simulated global memory with
    the inputs (and zeroed outputs) allocated, the kernel-parameter block,
    and the block grid.
    """

    memory: GlobalMemory
    params: KernelParams
    grid: BlockGrid


@dataclass
class WorkloadRun:
    """Outcome of one simulated workload execution.

    Attributes
    ----------
    workload_name / config:
        What ran.
    kernel:
        The generated (naive or optimized) kernel.
    result:
        Timing/issue statistics of the simulated blocks.
    output:
        The output array read back from simulated global memory.
    max_error:
        Maximum absolute deviation from the NumPy reference.
    optimized:
        Whether the kernel went through the optimization pipeline.
    dram_load_bytes / dram_store_bytes:
        Simulated DRAM traffic of the run — bytes actually moved by active
        lanes (predicated-off lanes move nothing), summed over every block
        of the grid.  Comparable against the compulsory traffic the bound
        model prices.
    """

    workload_name: str
    config: Any
    kernel: Kernel
    result: SimResult
    output: np.ndarray
    max_error: float
    optimized: bool
    dram_load_bytes: int = 0
    dram_store_bytes: int = 0

    @property
    def dram_bytes(self) -> int:
        """Total simulated DRAM traffic (loads plus stores)."""
        return self.dram_load_bytes + self.dram_store_bytes


class Workload(ABC):
    """One kernel family the repository can generate, bound and simulate."""

    #: Registry name (e.g. ``"sgemm"``); unique across the registry.
    name: str = ""
    #: One-line description for listings.
    description: str = ""
    #: Validation tolerances against the NumPy reference.
    rtol: float = 1e-4
    atol: float = 1e-3

    # ------------------------------------------------------------------ #
    # Kernel generation.                                                  #
    # ------------------------------------------------------------------ #

    @abstractmethod
    def default_config(self) -> Any:
        """The workload's canonical small configuration."""

    def config_space(self) -> tuple[Any, ...]:
        """Configurations the autotuner sweeps (default: just the canonical one)."""
        return (self.default_config(),)

    @abstractmethod
    def generate_naive(self, config: Any) -> Kernel:
        """The compiler-like kernel: program order, sequential registers."""

    def generate_optimized(self, config: Any, gpu: GpuSpec):
        """The naive kernel run through :func:`repro.opt.optimize_kernel` for ``gpu``.

        Returns ``(kernel, PipelineResult)``.
        """
        from repro.opt.pipeline import optimize_kernel

        result = optimize_kernel(self.generate_naive(config), gpu)
        return result.kernel, result

    # ------------------------------------------------------------------ #
    # Semantics.                                                          #
    # ------------------------------------------------------------------ #

    @abstractmethod
    def prepare_inputs(self, config: Any, seed: int = 0) -> dict[str, np.ndarray]:
        """Random input arrays in the layout the kernel expects."""

    @abstractmethod
    def reference(self, config: Any, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """The NumPy reference result for ``inputs``."""

    @abstractmethod
    def build_launch(self, config: Any, inputs: dict[str, np.ndarray]) -> WorkloadLaunch:
        """Allocate inputs/outputs in simulated memory and build the launch."""

    @abstractmethod
    def read_output(self, config: Any, memory: GlobalMemory) -> np.ndarray:
        """Read the kernel's output array back from simulated memory."""

    def validate(self, computed: np.ndarray, expected: np.ndarray) -> float:
        """Check ``computed`` against ``expected``; returns the max abs error."""
        if computed.shape != expected.shape:
            raise ReproError(
                f"{self.name}: result shape {computed.shape} does not match "
                f"the reference {expected.shape}"
            )
        error = float(
            np.max(np.abs(computed.astype(np.float64) - expected.astype(np.float64)))
        )
        if not np.allclose(computed, expected, rtol=self.rtol, atol=self.atol):
            raise ReproError(
                f"{self.name} result differs from the NumPy reference "
                f"(max |error| = {error:.3e})"
            )
        return error

    # ------------------------------------------------------------------ #
    # Upper bound.                                                        #
    # ------------------------------------------------------------------ #

    @abstractmethod
    def resources(self, config: Any) -> WorkloadResources:
        """The upper-bound inputs: flops, DRAM traffic, shared traffic."""

    def bound(self, config: Any, gpu: GpuSpec) -> WorkloadBound:
        """The analytic upper bound of ``config`` on ``gpu``."""
        return analyse_workload_bound(self.resources(config), gpu)


def run_workload(
    gpu: GpuSpec,
    workload: Workload,
    config: Any = None,
    *,
    optimized: bool = False,
    seed: int = 0,
    validate: bool = True,
    max_cycles: int = 20_000_000,
    collect_profile: bool = False,
) -> WorkloadRun:
    """Generate, simulate (functionally) and validate one workload.

    Simulates every block of the launch grid so the full output is computed
    and comparable against NumPy — keep the problem sizes small.
    ``collect_profile`` threads through to :meth:`SmSimulator.run`, filling
    the result's per-instruction :class:`~repro.sim.results.InstructionCounters`.
    """
    if config is None:
        config = workload.default_config()
    if optimized:
        kernel, _ = workload.generate_optimized(config, gpu)
    else:
        kernel = workload.generate_naive(config)

    inputs = workload.prepare_inputs(config, seed=seed)
    launch = workload.build_launch(config, inputs)
    simulator = SmSimulator(
        gpu, kernel, global_memory=launch.memory, params=launch.params
    )
    result = simulator.run(
        LaunchConfig(grid=launch.grid, functional=True, max_cycles=max_cycles),
        block_indices=launch.grid.block_indices(),
        collect_profile=collect_profile,
    )
    output = workload.read_output(config, launch.memory)
    max_error = 0.0
    if validate:
        expected = workload.reference(config, inputs)
        max_error = workload.validate(output, expected)
    run = WorkloadRun(
        workload_name=workload.name,
        config=config,
        kernel=kernel,
        result=result,
        output=output,
        max_error=max_error,
        optimized=optimized,
        dram_load_bytes=launch.memory.load_bytes,
        dram_store_bytes=launch.memory.store_bytes,
    )
    context = current()
    if context.metrics is not None or context.ledger is not None:
        _record_workload_run(gpu, run)
    return run


def _record_workload_run(gpu: GpuSpec, run: WorkloadRun) -> None:
    """Publish one ``run_workload`` execution to the telemetry spine.

    The metrics series and the ledger record carry the simulator's own
    books — ``SimResult.cycles`` and the global memory's byte counts (the
    sums of the per-instruction :class:`~repro.sim.results
    .InstructionCounters` when the run was profiled) — so telemetry never
    disagrees with the simulation it describes.
    """
    from repro.opt.rewrite import kernel_hash

    labels = (
        ("workload", run.workload_name),
        ("variant", "opt" if run.optimized else "naive"),
    )
    stalls = run.result.stalls.as_dict()
    context = current()
    if context.metrics is not None:
        counter_inc("sim.runs", 1, labels)
        gauge_set("sim.cycles", run.result.cycles, labels)
        gauge_set("sim.dram_bytes", float(run.dram_bytes), labels)
        gauge_set("sim.stall_total", float(run.result.stalls.total()), labels)
    if context.ledger is not None:
        digest = config_digest(run.config)
        gpu_key = normalize_gpu(gpu.name)
        variant = "opt" if run.optimized else "naive"
        record_run(
            "sim",
            f"run:{run.workload_name}:{digest}:{gpu_key}:{variant}",
            workload=run.workload_name,
            gpu=gpu_key,
            kernel_hash=kernel_hash(run.kernel),
            config=run.config,
            metrics={
                "cycles": run.result.cycles,
                "dram_load_bytes": run.dram_load_bytes,
                "dram_store_bytes": run.dram_store_bytes,
                "dram_bytes": run.dram_bytes,
                "thread_instructions": run.result.thread_instructions,
                "flops": run.result.flops,
                "max_error": run.max_error,
                "stall_total": run.result.stalls.total(),
                "stalls": stalls,
            },
        )


def workload_cycles(
    gpu: GpuSpec,
    kernel: Kernel,
    *,
    max_cycles: int = 5_000_000,
) -> float:
    """Timing-only single-block cycle count of ``kernel`` on ``gpu``.

    The autotuner's and benchmarks' cheap figure of merit; grid-wide
    functional runs go through :func:`run_workload`.
    """
    from repro.opt.autotune import simulate_one_block

    return simulate_one_block(gpu, kernel, max_cycles=max_cycles).cycles
