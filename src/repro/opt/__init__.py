"""SASS optimizer (paper Sections 3.2-3.3, 5.4-5.5).

The :mod:`repro.opt` subsystem turns the hand-crafted optimizations of the
paper's SGEMM kernels — bank-conflict-free register allocation, careful
LDS/FFMA interleaving, Kepler control notations — into passes over any
assembled :class:`~repro.isa.assembler.Kernel`:

* :mod:`repro.opt.liveness` — def-use and liveness analysis;
* :mod:`repro.opt.reallocation` — register recoloring that eliminates FFMA
  operand bank conflicts (generalises Figure 9);
* :mod:`repro.opt.scheduling` — latency-aware list scheduling of
  straight-line regions;
* :mod:`repro.opt.control_hints` — per-instruction Kepler control-notation
  assignment;
* :mod:`repro.opt.pipeline` — :func:`optimize_kernel`, which runs the four
  in that fixed order with invariant checking after each;
* :mod:`repro.opt.autotune` — the parallel sweep over
  :class:`~repro.opt.autotune.WorkloadCandidate` points (any registered
  workload and configuration, naive or optimized).
"""

from repro.opt.autotune import (
    TuneOutcome,
    WorkloadCandidate,
    autotune_workloads,
    evaluate_workload_candidate,
    format_leaderboard,
    simulate_one_block,
    workload_candidates,
)
from repro.opt.control_hints import assign_control_hints
from repro.opt.liveness import DefUse, LivenessInfo, analyse_liveness, def_use
from repro.opt.pipeline import PassStats, PipelineResult, optimize_kernel
from repro.opt.reallocation import ReallocationResult, reallocate_registers
from repro.opt.rewrite import kernel_hash, replace_instructions
from repro.opt.scheduling import ScheduleStats, schedule_kernel

__all__ = [
    "DefUse",
    "LivenessInfo",
    "PassStats",
    "PipelineResult",
    "ReallocationResult",
    "ScheduleStats",
    "TuneOutcome",
    "WorkloadCandidate",
    "analyse_liveness",
    "assign_control_hints",
    "autotune_workloads",
    "def_use",
    "evaluate_workload_candidate",
    "format_leaderboard",
    "kernel_hash",
    "optimize_kernel",
    "reallocate_registers",
    "replace_instructions",
    "schedule_kernel",
    "simulate_one_block",
    "workload_candidates",
]
