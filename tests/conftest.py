"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.arch import fermi_gtx580, gt200_gtx280, kepler_gtx680
from repro.context import Context, install
from repro.microbench import paper_database


@pytest.fixture(autouse=True)
def _nothing_left_installed():
    """Fail a test that leaves anything in :mod:`repro.context`, and clear it."""
    yield
    leaked = install(Context())
    assert leaked == Context(), f"the test left {leaked} installed"


@pytest.fixture(scope="session")
def fermi():
    """The GTX580 (Fermi GF110) machine description."""
    return fermi_gtx580()


@pytest.fixture(scope="session")
def kepler():
    """The GTX680 (Kepler GK104) machine description."""
    return kepler_gtx680()


@pytest.fixture(scope="session")
def gt200():
    """The GTX280 (GT200) machine description."""
    return gt200_gtx280()


@pytest.fixture(scope="session")
def paper_db():
    """The paper-reported throughput database."""
    return paper_database()


@pytest.fixture(scope="session")
def small_sgemm_kernels():
    """A (conflict-free, naive-allocation) pair of small generated SGEMM kernels.

    Generated once per session because kernel generation is not free and many
    tests only inspect the instruction stream.
    """
    from repro.sgemm.config import SgemmKernelConfig
    from repro.sgemm.generator import generate_sgemm_kernel

    conflict_free = generate_sgemm_kernel(
        SgemmKernelConfig(m=96, n=96, k=16, conflict_free_allocation=True)
    )
    naive = generate_sgemm_kernel(
        SgemmKernelConfig(m=96, n=96, k=16, conflict_free_allocation=False)
    )
    return conflict_free, naive
