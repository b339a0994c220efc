"""The timing loop consumes exactly the decisions the vectorized pre-pass recorded.

Each test patches one warp's :class:`~repro.sim.vectorized.WarpTrace` after
the pre-pass: a removed decision leaves the loop asking for more than was
recorded, an appended one is left unconsumed.  Both must raise.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.kernels import get_workload
from repro.sim import LaunchConfig, SmSimulator
from repro.sim.vectorized import VectorizedEngine
from repro.tile.workloads import TileSgemmConfig

#: Two k-iterations, so the trace holds loop branches beside the exit,
#: shared-memory replays and DRAM lanes.
CONFIG = TileSgemmConfig(m=96, n=96, k=32)

QUEUES = ("branches", "exits", "replays", "dram_lanes")


def _run(gpu, monkeypatch, patch, *, collect_profile):
    """Simulate ``CONFIG`` with ``patch`` applied to the first warp's trace."""
    run_block = VectorizedEngine.run_block

    def patched(self, warps, shared_memories, **kwargs):
        traces = run_block(self, warps, shared_memories, **kwargs)
        patch(traces[warps[0].warp_id])
        return traces

    monkeypatch.setattr(VectorizedEngine, "run_block", patched)
    workload = get_workload("tile_sgemm")
    kernel, _ = workload.generate_optimized(CONFIG, gpu)
    launch = workload.build_launch(CONFIG, workload.prepare_inputs(CONFIG, seed=0))
    simulator = SmSimulator(gpu, kernel, global_memory=launch.memory, params=launch.params)
    return simulator.run(
        LaunchConfig(grid=launch.grid, functional=True),
        block_indices=launch.grid.block_indices(),
        collect_profile=collect_profile,
    )


def test_every_queue_is_recorded(fermi, monkeypatch):
    lengths = {}
    _run(fermi, monkeypatch,
         lambda trace: lengths.update({q: len(getattr(trace, q)) for q in QUEUES}),
         collect_profile=True)
    assert all(lengths[q] > 0 for q in QUEUES), lengths


@pytest.mark.parametrize("queue", QUEUES)
def test_removed_decision_raises(fermi, monkeypatch, queue):
    with pytest.raises(SimulationError, match="requested more"):
        _run(fermi, monkeypatch, lambda trace: getattr(trace, queue).pop(),
             collect_profile=True)


@pytest.mark.parametrize("queue", QUEUES)
def test_appended_decision_raises(fermi, monkeypatch, queue):
    with pytest.raises(SimulationError, match="unconsumed"):
        _run(fermi, monkeypatch, lambda trace: getattr(trace, queue).append(1),
             collect_profile=True)


def test_dram_lanes_are_checked_only_when_profiling(fermi, monkeypatch):
    """Only profiled runs read DRAM lanes, so only they can find a stray one."""
    result = _run(fermi, monkeypatch, lambda trace: trace.dram_lanes.append(1),
                  collect_profile=False)
    assert result.cycles > 0
