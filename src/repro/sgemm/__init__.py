"""SGEMM kernels, register allocation and baselines.

This package is the executable counterpart of the paper's Section 5: a
parametric SASS-level SGEMM kernel generator (register blocking, shared-memory
tiling, global-memory prefetching, LDS.64 operand fetch), the register budget
accounting of Section 5.2, the bank-conflict-free register allocation of
Section 5.4 / Figure 9, the static conflict analyzer behind Figure 8, and the
CUBLAS/MAGMA-like baselines used for Figures 5-7.

SGEMM is also the first entry of the workload registry
(:mod:`repro.kernels`); :func:`workload` returns that registration, and the
functions exported here remain the thin, SGEMM-named wrappers around the
same machinery.
"""

from repro.sgemm.tiling import TileGeometry, tile_geometry
from repro.sgemm.config import SgemmKernelConfig, SgemmVariant
from repro.sgemm.register_budget import RegisterBudget, fermi_register_budget
from repro.sgemm.register_allocation import (
    RegisterAllocation,
    allocate_conflict_free,
    allocate_naive,
)
from repro.sgemm.conflict_analysis import ConflictReport, analyse_ffma_conflicts
from repro.sgemm.generator import (
    SgemmKernelGenerator,
    generate_naive_sgemm_kernel,
    generate_sgemm_kernel,
)
from repro.sgemm.reference import reference_sgemm, random_matrices, validate_result
from repro.sgemm.baselines import BaselinePerformanceModel, cublas_model, magma_model
from repro.sgemm.performance import (
    AsmPerformanceModel,
    PerformancePoint,
    performance_curve,
)


def workload():
    """SGEMM's :class:`~repro.kernels.base.Workload` registration.

    Imported lazily — :mod:`repro.kernels` depends on this package, so the
    registry cannot be imported at module load time.
    """
    from repro.kernels.registry import get_workload

    return get_workload("sgemm")

__all__ = [
    "TileGeometry",
    "tile_geometry",
    "SgemmKernelConfig",
    "SgemmVariant",
    "RegisterBudget",
    "fermi_register_budget",
    "RegisterAllocation",
    "allocate_conflict_free",
    "allocate_naive",
    "ConflictReport",
    "analyse_ffma_conflicts",
    "SgemmKernelGenerator",
    "generate_naive_sgemm_kernel",
    "generate_sgemm_kernel",
    "reference_sgemm",
    "random_matrices",
    "validate_result",
    "BaselinePerformanceModel",
    "cublas_model",
    "magma_model",
    "AsmPerformanceModel",
    "PerformancePoint",
    "performance_curve",
    "workload",
]
