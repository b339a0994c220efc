"""Tile-test fixtures: SASS inspection helpers for lowered kernels."""

from __future__ import annotations

import pytest

from tile_inspect import barriers_per_main_loop


@pytest.fixture
def bar_counter():
    """The :func:`barriers_per_main_loop` inspection utility, as a fixture."""
    return barriers_per_main_loop
