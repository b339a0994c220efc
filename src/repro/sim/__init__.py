"""Warp-level functional and timing simulator for Fermi/Kepler-style SMs.

The paper measures instruction throughput on real GTX580/GTX680 boards; this
package provides the stand-in: a simulator detailed enough to expose the
mechanisms the paper's analysis depends on —

* scheduler issue throughput (thread instructions per shader cycle per SM),
* SP and LD/ST pipeline throughput, including the width-dependent LDS rates,
* Kepler operand register-bank conflicts,
* shared-memory bank conflicts,
* scoreboard (dependence) stalls and latency hiding as a function of the
  number of active warps,
* block-wide barriers,
* a bandwidth-limited global-memory model,

— while also executing kernels *functionally* (NumPy-vectorised across the 32
lanes of a warp) so that generated SGEMM kernels can be validated numerically.
"""

from repro.sim.launch import BlockGrid, LaunchConfig
from repro.sim.memory import GlobalMemory, KernelParams, SharedMemoryArray
from repro.sim.reference import ReferenceExecutor, run_block_reference
from repro.sim.results import SimResult, StallBreakdown
from repro.sim.sm_sim import EXECUTORS, SmSimulator, simulate_kernel
from repro.sim.vectorized import VectorizedEngine, WarpTrace

__all__ = [
    "BlockGrid",
    "LaunchConfig",
    "GlobalMemory",
    "KernelParams",
    "SharedMemoryArray",
    "ReferenceExecutor",
    "run_block_reference",
    "SimResult",
    "StallBreakdown",
    "EXECUTORS",
    "SmSimulator",
    "VectorizedEngine",
    "WarpTrace",
    "simulate_kernel",
]
