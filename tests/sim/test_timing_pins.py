"""Pinned outputs of the cycle-level timing loop.

The differential harness runs both functional engines through the same
``SmSimulator.run`` loop, so it cannot see a change in the loop itself.
These cases freeze what the loop produced at a known-good commit: cycles,
warp instructions, the instruction histogram, the stall breakdown and a
SHA-256 per ``InstructionCounters`` array.  Every case runs with and
without ``collect_profile`` (the scalars must not depend on profiling), and
every functional case runs under both executors.

The pins live in ``timing_pins.json`` beside this file.  Re-record them only
when the timing model changes on purpose, and say so in the change::

    PYTHONPATH=src python tests/sim/test_timing_pins.py --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch import get_gpu_spec
from repro.isa import ControlNotation, KernelBuilder
from repro.isa.instructions import MemRef
from repro.isa.registers import SpecialRegister, predicate, reg
from repro.kernels import get_workload
from repro.microbench import mix_kernel
from repro.opt.autotune import simulate_one_block
from repro.sim import BlockGrid, GlobalMemory, LaunchConfig, SmSimulator
from repro.sim.results import STALL_REASONS
from repro.tile.workloads import TileSgemmConfig

PINS_PATH = Path(__file__).with_name("timing_pins.json")

#: Reasons the timing loop charges; ``memory`` is reported but never charged.
CHARGED_REASONS = tuple(reason for reason in STALL_REASONS if reason != "memory")


# --------------------------------------------------------------------- #
# Cases.                                                                 #
# --------------------------------------------------------------------- #


def _optimized(gpu, name, config=None):
    workload = get_workload(name)
    kernel, _ = workload.generate_optimized(config or workload.default_config(), gpu)
    return kernel


def _one_block(gpu_name, name, config=None):
    """A timing-only ``simulate_one_block`` run of an optimized registry kernel."""

    def run(executor, collect_profile):
        del executor  # timing-only: nothing executes
        gpu = get_gpu_spec(gpu_name)
        return simulate_one_block(gpu, _optimized(gpu, name, config),
                                  collect_profile=collect_profile)

    return run


def _mix(gpu_name):
    """The Fig. 2 FFMA:LDS.64 = 6:1 dependent mix, 512 threads, timing-only.

    The run ``simulate_kernel(..., functional=False)`` makes, with the
    profile switch ``simulate_kernel`` does not expose.
    """

    def run(executor, collect_profile):
        del executor
        gpu = get_gpu_spec(gpu_name)
        simulator = SmSimulator(gpu, mix_kernel(6, 64, dependent=True, groups=32))
        config = LaunchConfig(grid=BlockGrid(grid_x=1, block_x=512), functional=False)
        return simulator.run(config, collect_profile=collect_profile)

    return run


def _grid(gpu_name, name, config=None):
    """A functional run of every block of a registry workload's launch grid."""

    def run(executor, collect_profile):
        gpu = get_gpu_spec(gpu_name)
        workload = get_workload(name)
        cfg = config or workload.default_config()
        launch = workload.build_launch(cfg, workload.prepare_inputs(cfg, seed=0))
        simulator = SmSimulator(gpu, _optimized(gpu, name, cfg), global_memory=launch.memory,
                                params=launch.params, executor=executor)
        return simulator.run(
            LaunchConfig(grid=launch.grid, functional=True, max_cycles=20_000_000),
            block_indices=launch.grid.block_indices(),
            collect_profile=collect_profile,
        )

    return run


#: Per-slot Kepler hints whose low three bits request 0, 1, 3, 5, 7, 2 and 6
#: stall cycles, so both roundings of the half-weight charge occur.
_NOTATION = ControlNotation(hints=(0x20, 0x21, 0x23, 0x25, 0x27, 0x22, 0x26))


def notated_kernel():
    """A looping four-warp kernel whose control notations set stall bits.

    Each thread loads its own global word, then three times: stores it to
    its own shared cell, syncs, reads it back and folds it into two FFMAs;
    finally it stores the result.  No registry kernel produces a
    control-notation stall, so this is the case that pins them.
    """
    b = KernelBuilder(name="notated_loop", threads_per_block=128,
                      shared_memory_bytes=128 * 4)
    p0 = predicate(0)
    b.s2r(1, SpecialRegister.TID_X)
    b.shl(2, 1, 2)
    b.mov32i(3, GlobalMemory.ALIGNMENT)
    b.iadd(3, 3, reg(2))
    b.ld(8, MemRef(base=reg(3)))
    b.mov32i(20, 3)
    top = b.label("top")
    b.sts(MemRef(base=reg(2)), 8)
    b.bar()
    b.lds(9, MemRef(base=reg(2)))
    b.ffma(8, 9, 9, 8)
    b.ffma(10, 8, 9, 8)
    b.iadd(20, 20, -1)
    b.isetp(p0, "GT", 20, 0)
    b.bra(top, predicate=p0)
    b.st(MemRef(base=reg(3)), 10)
    b.exit()
    kernel = b.build()
    groups = -(-kernel.instruction_count // 7)
    return dataclasses.replace(kernel, control_notations=(_NOTATION,) * groups)


def _notated(functional):
    def run(executor, collect_profile):
        memory = GlobalMemory(size_bytes=4096)
        base = memory.allocate("buf", 128 * 4)
        memory.data[base:base + 128 * 4] = (
            np.linspace(0.0, 1.0, 128, dtype=np.float32).view(np.uint8))
        simulator = SmSimulator(get_gpu_spec("gtx680"), notated_kernel(),
                                global_memory=memory, executor=executor)
        config = LaunchConfig(grid=BlockGrid(grid_x=1, block_x=128), functional=functional)
        return simulator.run(config, collect_profile=collect_profile)

    return run


_DOUBLE_BUFFER = TileSgemmConfig(m=96, n=96, k=32, double_buffer=True)
_ARBITRARY = TileSgemmConfig(m=193, n=161, k=97)
_TAIL_GRID = TileSgemmConfig(m=100, n=100, k=20)

#: Timing-only cases: ``functional=False``, the autotuner's sweep path.
TIMING_CASES = {
    "tile_sgemm.default.gtx580": _one_block("gtx580", "tile_sgemm"),
    "tile_sgemm.default.gtx680": _one_block("gtx680", "tile_sgemm"),
    "tile_sgemm.193x161x97.gtx580": _one_block("gtx580", "tile_sgemm", _ARBITRARY),
    "tile_sgemm.193x161x97.gtx680": _one_block("gtx680", "tile_sgemm", _ARBITRARY),
    "tile_sgemm.double_buffer.gtx580": _one_block("gtx580", "tile_sgemm", _DOUBLE_BUFFER),
    "sgemm.default.gtx580": _one_block("gtx580", "sgemm"),
    "sgemm.default.gtx680": _one_block("gtx680", "sgemm"),
    "mix_6_lds64_512.gtx580": _mix("gtx580"),
    "mix_6_lds64_512.gtx680": _mix("gtx680"),
    "notated_loop.timing.gtx680": _notated(functional=False),
}

#: Functional cases, each run under both executors against one pin.
FUNCTIONAL_CASES = {
    "reduction.grid.gtx580": _grid("gtx580", "reduction"),
    "sgemv.grid.gtx580": _grid("gtx580", "sgemv"),
    "tile_sgemm.100x100x20.grid.gtx580": _grid("gtx580", "tile_sgemm", _TAIL_GRID),
    "tile_sgemm.100x100x20.grid.gtx680": _grid("gtx680", "tile_sgemm", _TAIL_GRID),
    "notated_loop.functional.gtx680": _notated(functional=True),
}


# --------------------------------------------------------------------- #
# Observables.                                                           #
# --------------------------------------------------------------------- #


def counter_digests(counters) -> dict[str, str]:
    """SHA-256 of every ``InstructionCounters`` array, little-endian."""
    arrays = {
        "issues": counters.issues,
        "issue_cycles": counters.issue_cycles,
        "smem_replays": counters.smem_replays,
        "dram_bytes": counters.dram_bytes,
    }
    for reason in STALL_REASONS:
        arrays[f"stall_events.{reason}"] = counters.stall_events[reason]
        arrays[f"stall_cycles.{reason}"] = counters.stall_cycles[reason]
    return {
        name: hashlib.sha256(
            np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<")).tobytes()
        ).hexdigest()
        for name, array in arrays.items()
    }


def scalars(result) -> dict:
    """The run's pinned scalar observables."""
    return {
        "cycles": result.cycles,
        "warp_instructions": result.warp_instructions,
        "histogram": dict(sorted(result.instruction_histogram.items())),
        "stalls": result.stalls.as_dict(),
    }


def observe(run, executor: str) -> dict:
    """Scalars of an unprofiled run, plus the counter digests of a profiled one."""
    plain = scalars(run(executor, False))
    profiled = run(executor, True)
    assert scalars(profiled) == plain, "profiling changed the simulated scalars"
    return {**plain, "counters": counter_digests(profiled.counters)}


# --------------------------------------------------------------------- #
# Tests.                                                                 #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", sorted(TIMING_CASES))
def test_timing_only_run_matches_pin(pins, name):
    assert observe(TIMING_CASES[name], "vectorized") == pins[name]


@pytest.mark.parametrize("executor", ("vectorized", "reference"))
@pytest.mark.parametrize("name", sorted(FUNCTIONAL_CASES))
def test_functional_run_matches_pin(pins, name, executor):
    assert observe(FUNCTIONAL_CASES[name], executor) == pins[name]


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted({**TIMING_CASES, **FUNCTIONAL_CASES})


@pytest.mark.parametrize("reason", CHARGED_REASONS)
def test_every_charged_stall_reason_is_pinned_nonzero(pins, reason):
    assert any(pin["stalls"][reason] > 0 for pin in pins.values()), reason


def record() -> None:
    """Write ``timing_pins.json`` from the code on the import path."""
    observed = {name: observe(run, "vectorized")
                for name, run in sorted({**TIMING_CASES, **FUNCTIONAL_CASES}.items())}
    PINS_PATH.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(observed)} pins to {PINS_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
