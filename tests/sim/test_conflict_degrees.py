"""Vectorized bank-conflict degrees against the scalar bank model.

:func:`repro.sim.vectorized._conflict_degrees` computes one replay degree per
row of a ``(rows, 32)`` address matrix with shifts, masks, one row-wise sort
and, unless every row's words span fewer than ``bank_count`` words, one
bincount; :meth:`SharedMemorySpec.conflict_degree` is the per-warp scalar
model the reference executor charges.  Every row must read the same degree
as the scalar model over that row's active lanes, for both bank counts (16
on GT200, 32 on Fermi/Kepler), both bank widths and every access width (the
vectorized form takes no access width: the scalar model's wide phases all
share the phase-0 maximum, which these comparisons pin).  Inactive lanes,
rows with no active lane and the rows of warps outside a region's group
(which the engine passes as rows with no active lane) do not participate,
whatever address they hold, negative included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.shared_memory import SharedMemorySpec
from repro.errors import ArchitectureError
from repro.sim.vectorized import _conflict_degrees

BANK_COUNTS = (16, 32)
BANK_WIDTHS = (4, 8)
ACCESS_WIDTHS = (4, 8, 16)


def _spec(bank_count=32, bank_width=4):
    return SharedMemorySpec(size_bytes=48 * 1024, bank_count=bank_count,
                            bank_width_bytes=bank_width)


def _scalar_degrees(spec, addresses, active, access_bytes):
    return [
        spec.conflict_degree([int(a) for a in row[mask]], access_bytes=access_bytes)
        for row, mask in zip(addresses, active)
    ]


def _seeded_matrix(seed: int):
    """Rows of strided, random, broadcast and partially/fully masked accesses."""
    rng = np.random.default_rng(seed)
    lanes = np.arange(32, dtype=np.int64)
    rows = [lanes * 4 * stride + 4 * rng.integers(0, 64) for stride in (1, 2, 3, 4, 8, 16, 32, 33)]
    rows += [lanes * 8, lanes * 16, (lanes // 2) * 8, (lanes % 4) * 128]
    rows += [np.full(32, 4 * int(rng.integers(0, 1024)), dtype=np.int64)]  # broadcast
    rows += [4 * rng.integers(0, 96, 32) for _ in range(12)]  # dense duplicates
    rows += [rng.integers(0, 16384, 32) for _ in range(8)]  # unaligned, sparse
    addresses = np.stack(rows)
    active = np.ones(addresses.shape, dtype=bool)
    active[len(rows) // 2:] = rng.random((len(rows) - len(rows) // 2, 32)) < 0.6
    active[-1] = False  # an empty mask
    active[2, 16:] = False  # a half warp
    # Inactive lanes hold addresses that must not matter, negative included.
    addresses = np.where(active, addresses, -4 * (lanes + 1))
    return addresses, active


@pytest.mark.parametrize("bank_count", BANK_COUNTS)
@pytest.mark.parametrize("bank_width", BANK_WIDTHS)
@pytest.mark.parametrize("access_bytes", ACCESS_WIDTHS)
@pytest.mark.parametrize("seed", range(3))
def test_seeded_rows_match_scalar_model(bank_count, bank_width, access_bytes, seed):
    spec = _spec(bank_count, bank_width)
    addresses, active = _seeded_matrix(seed)
    assert _conflict_degrees(spec, addresses, active) == _scalar_degrees(
        spec, addresses, active, access_bytes
    )


@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=2048), min_size=32, max_size=32),
            st.integers(min_value=0, max_value=2**32 - 1),  # active-lane bitmask
        ),
        min_size=1,
        max_size=8,
    ),
    bank_count=st.sampled_from(BANK_COUNTS),
    bank_width=st.sampled_from(BANK_WIDTHS),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_rows_match_scalar_model(rows, bank_count, bank_width):
    spec = _spec(bank_count, bank_width)
    addresses = np.array([row for row, _ in rows], dtype=np.int64)
    active = np.array([[(bits >> lane) & 1 for lane in range(32)] for _, bits in rows], dtype=bool)
    degrees = _conflict_degrees(spec, addresses, active)
    for access_bytes in ACCESS_WIDTHS:
        assert degrees == _scalar_degrees(spec, addresses, active, access_bytes)


def test_negative_active_address_raises(fermi):
    addresses = np.zeros((2, 32), dtype=np.int64)
    addresses[1, 5] = -4
    with pytest.raises(ArchitectureError, match="non-negative"):
        _conflict_degrees(fermi.shared_memory, addresses, np.ones((2, 32), dtype=bool))


def test_negative_inactive_address_is_ignored(fermi):
    addresses = np.zeros((2, 32), dtype=np.int64)
    addresses[1, 5] = -4
    active = np.ones((2, 32), dtype=bool)
    active[1, 5] = False
    assert _conflict_degrees(fermi.shared_memory, addresses, active) == [1, 1]


@pytest.mark.parametrize("bank_count", BANK_COUNTS)
@pytest.mark.parametrize("bank_width", BANK_WIDTHS)
def test_rows_within_one_bank_span_are_conflict_free(bank_count, bank_width):
    """Words spanning fewer than ``bank_count`` words never share a bank.

    The first matrix spans ``bank_count - 1`` words in every row, so every
    degree is 1 without a per-bank count; the second adds one row spanning
    exactly ``bank_count`` words, a 2-way conflict, so all rows are counted.
    """
    spec = _spec(bank_count, bank_width)
    lanes = np.arange(32, dtype=np.int64)
    within = bank_width * (lanes % bank_count)
    within[-1] = bank_width * (bank_count - 1)
    addresses = np.stack([within, within + 4096, within[::-1]])
    active = np.ones(addresses.shape, dtype=bool)
    assert _conflict_degrees(spec, addresses, active) == [1, 1, 1]
    wider = within.copy()
    wider[0] = bank_width * bank_count  # the same bank as word 0, one row down
    wider[1] = 0
    addresses = np.vstack([addresses, wider])
    active = np.ones(addresses.shape, dtype=bool)
    expected = _scalar_degrees(spec, addresses, active, 4)
    assert expected == [1, 1, 1, 2]
    assert _conflict_degrees(spec, addresses, active) == expected


@pytest.mark.parametrize("bank_count", BANK_COUNTS)
def test_rows_without_active_lanes_read_one(bank_count):
    """Rows of warps outside the group: no active lane, any address."""
    spec = _spec(bank_count)
    lanes = np.arange(32, dtype=np.int64)
    addresses = np.stack([-4 * (lanes + 1), lanes * 4 * bank_count, -lanes * 64])
    active = np.zeros(addresses.shape, dtype=bool)
    assert _conflict_degrees(spec, addresses, active) == [1, 1, 1]
    active[1] = True  # one group row: 32 distinct words, all in bank 0
    assert _conflict_degrees(spec, addresses, active) == [1, 32, 1]


def test_negative_addresses_outside_the_group_are_ignored(fermi):
    """Negative addresses in inactive lanes and in rows outside the group."""
    lanes = np.arange(32, dtype=np.int64)
    addresses = np.stack([lanes * 8, -4 - lanes, lanes * 4])
    addresses[2, 7] = -8
    active = np.ones(addresses.shape, dtype=bool)
    active[1] = False  # a row outside the group
    active[2, 7] = False  # an inactive lane
    assert _conflict_degrees(fermi.shared_memory, addresses, active) == [2, 1, 1]
    active[2, 7] = True
    with pytest.raises(ArchitectureError, match="non-negative"):
        _conflict_degrees(fermi.shared_memory, addresses, active)


def test_bank_count_must_be_a_power_of_two():
    """Words and banks are shifts and masks, so the spec rejects other counts."""
    with pytest.raises(ArchitectureError, match="power of two"):
        SharedMemorySpec(size_bytes=48 * 1024, bank_count=24)
