"""SGEMM as the first citizen of the workload registry.

The SGEMM machinery predates the registry (it *is* the paper), so this
module is a thin adapter: generation delegates to
:mod:`repro.sgemm.generator`, semantics to :mod:`repro.sgemm.reference`,
launch plumbing to :mod:`repro.sgemm.runner`.  The upper-bound resources
follow the paper's Eq. 6 traffic accounting — each block tile streams
``2·B_Sh·K`` elements, i.e. ``8·m·n·k / B_Sh`` bytes across the whole
problem — so the generic :func:`repro.model.analyse_workload_bound`
reproduces the SM-throughput-vs-memory crossover the SGEMM-specific model
derives from arithmetic intensity.
"""

from __future__ import annotations

import numpy as np

from repro.isa.assembler import Kernel
from repro.kernels.base import Workload, WorkloadLaunch
from repro.kernels.registry import register_workload
from repro.model.workload_bounds import WorkloadResources
from repro.sgemm.config import SgemmKernelConfig
from repro.sgemm.generator import generate_naive_sgemm_kernel
from repro.sgemm.reference import expected_result, random_matrices
from repro.sgemm.runner import build_launch as build_sgemm_launch
from repro.sim.memory import GlobalMemory


class SgemmWorkload(Workload):
    """The paper's SGEMM through the workload registry."""

    name = "sgemm"
    description = "register-blocked SGEMM with software pipelining (SM-bound)"

    def default_config(self) -> SgemmKernelConfig:
        # The Fermi-point geometry on a single-tile problem: one simulated
        # block covers the whole grid.
        return SgemmKernelConfig(m=96, n=96, k=16, conflict_free_allocation=False)

    def config_space(self) -> tuple[SgemmKernelConfig, ...]:
        return (
            SgemmKernelConfig(m=96, n=96, k=16, conflict_free_allocation=False),
            SgemmKernelConfig(
                m=96, n=96, k=16, lds_width_bits=32, conflict_free_allocation=False
            ),
        )

    def generate_naive(self, config: SgemmKernelConfig) -> Kernel:
        return generate_naive_sgemm_kernel(config)

    def prepare_inputs(
        self, config: SgemmKernelConfig, seed: int = 0
    ) -> dict[str, np.ndarray]:
        a, b = random_matrices(config, seed=seed)
        return {"a": a, "b": b}

    def reference(
        self, config: SgemmKernelConfig, inputs: dict[str, np.ndarray]
    ) -> np.ndarray:
        return expected_result(config, inputs["a"], inputs["b"])

    def build_launch(
        self, config: SgemmKernelConfig, inputs: dict[str, np.ndarray]
    ) -> WorkloadLaunch:
        memory, params, grid = build_sgemm_launch(config, inputs["a"], inputs["b"])
        return WorkloadLaunch(memory=memory, params=params, grid=grid)

    def read_output(
        self, config: SgemmKernelConfig, memory: GlobalMemory
    ) -> np.ndarray:
        return memory.read_array("C", np.float32, (config.m, config.n))

    def resources(self, config: SgemmKernelConfig) -> WorkloadResources:
        geometry = config.geometry
        tile = geometry.block_tile
        blocks = (config.m // tile) * (config.n // tile)
        flops = config.useful_flops
        # Eq. 6 traffic: each block tile streams a tile-wide column of A and
        # row of B per k step, plus the C tile writeback.
        dram = 4 * (blocks * 2 * tile * config.k + config.m * config.n)
        # Staging: each k step is written once and read 2·B_R times per thread.
        shared = 4 * blocks * config.k * (
            2 * tile + config.threads_per_block * 2 * config.register_blocking
        )
        return WorkloadResources(flops=flops, dram_bytes=dram, shared_bytes=shared)


SGEMM = register_workload(SgemmWorkload())
