"""Pinned outputs of the SASS optimizer.

``optimize_kernel`` must emit the same bytes for the same input: every
kernel the registry and the generative sweep build goes through it, and the
cycle-level pins only see the kernels they simulate.  These cases freeze,
at a known-good commit, for every registry workload configuration on both
GPUs and every ``tile_sgemm`` sweep candidate at the 193x161x97 tail shape:

* the ``kernel_hash`` of the naive kernel (the lowering's output, which is
  the optimizer's input);
* the ``kernel_hash`` of the optimized kernel;
* for registry points, the four ``PassStats`` rows;
* for ``tile_*`` points, the ``proc_resources`` of the scheduled proc
  (flops, DRAM and shared bytes), which price ``prune_by_bound``;
* for sweep candidates, whether ``prune_by_bound`` keeps them (``kept``).

The pins live in ``optimizer_pins.json`` beside this file.  Re-record them
only when the optimizer's output changes on purpose, and say so in the
change::

    PYTHONPATH=src python tests/opt/test_optimizer_pins.py --record
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.arch import get_gpu_spec
from repro.kernels import get_workload, workload_names
from repro.opt.pipeline import PipelineResult, optimize_kernel
from repro.opt.rewrite import kernel_hash
from repro.tile.autotune import prune_by_bound, schedule_space
from repro.tile.workloads import TileSgemmConfig, TileWorkload

PINS_PATH = Path(__file__).with_name("optimizer_pins.json")

GPUS = ("gtx580", "gtx680")

#: The sweep shape: a tail in every dimension, so clipping guards are live.
SWEEP_SHAPE = TileSgemmConfig(m=193, n=161, k=97)


def point_observation(workload, config, gpu) -> tuple[dict, PipelineResult]:
    """Naive and optimized kernel hashes of one point, plus a tile proc's resources."""
    naive = workload.generate_naive(config)
    result = optimize_kernel(naive, gpu)
    observed = {
        "naive_hash": kernel_hash(naive),
        "kernel_hash": kernel_hash(result.kernel),
    }
    if isinstance(workload, TileWorkload):
        observed["resources"] = dataclasses.asdict(workload.resources(config))
    return observed, result


def registry_observations(name: str, gpu_name: str) -> dict:
    """Hashes, pass rows and resources of every ``config_space()`` point of ``name``."""
    workload = get_workload(name)
    gpu = get_gpu_spec(gpu_name)
    observed = {}
    for index, config in enumerate(workload.config_space()):
        point, result = point_observation(workload, config, gpu)
        point["stats"] = [dataclasses.asdict(row) for row in result.stats]
        observed[f"{name}.{index}.{gpu_name}"] = point
    return observed


def sweep_observations(gpu_name: str) -> dict:
    """Hashes, resources and prune decision of every ``tile_sgemm`` candidate
    at :data:`SWEEP_SHAPE`."""
    gpu = get_gpu_spec(gpu_name)
    workload = get_workload("tile_sgemm")
    space = schedule_space("tile_sgemm", SWEEP_SHAPE)
    kept = {candidate.label for candidate in prune_by_bound(gpu, space).kept}
    return {
        f"sweep.{candidate.label}.{gpu_name}": {
            **point_observation(workload, candidate.config, gpu)[0],
            "kept": candidate.label in kept,
        }
        for candidate in space
    }


def observe_all() -> dict:
    observed: dict = {}
    for gpu_name in GPUS:
        for name in workload_names():
            observed.update(registry_observations(name, gpu_name))
        observed.update(sweep_observations(gpu_name))
    return observed


# --------------------------------------------------------------------- #
# Tests.                                                                 #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("gpu_name", GPUS)
@pytest.mark.parametrize("name", workload_names())
def test_registry_kernels_match_pins(pins, name, gpu_name):
    observed = registry_observations(name, gpu_name)
    assert observed == {key: pins[key] for key in observed}


@pytest.mark.parametrize("gpu_name", GPUS)
def test_sweep_candidates_match_pins(pins, gpu_name):
    observed = sweep_observations(gpu_name)
    assert len(observed) == 32
    assert observed == {key: pins[key] for key in observed}


def test_pins_cover_every_case(pins):
    expected = set()
    for gpu_name in GPUS:
        for name in workload_names():
            expected.update(
                f"{name}.{index}.{gpu_name}"
                for index in range(len(get_workload(name).config_space()))
            )
    sweep = {key for key in pins if key.startswith("sweep.")}
    assert set(pins) - sweep == expected
    assert len(sweep) == 32 * len(GPUS)


def record() -> None:
    """Write ``optimizer_pins.json`` from the code on the import path."""
    observed = observe_all()
    PINS_PATH.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(observed)} pins to {PINS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
