"""``repro.prof`` — counter-based profiling with tile-IR provenance.

The observability layer over the simulator, the tile compiler and the
autotuner:

* **Provenance** — the lowering stamps every emitted SASS instruction with
  its schedule-primitive origin path, preserved through the optimization
  pipeline (see :attr:`repro.isa.instructions.Instruction.provenance`);
* **Counters** — the simulator attributes issue slots, wall-clock cycles,
  stall events, shared-memory bank-conflict replays and DRAM bytes to
  individual instructions (``collect_profile=True``);
* **Rollup** — :func:`rollup_by_provenance` groups the per-instruction
  counters by provenance tag, exhaustively (rows sum to the cycle count);
* **Gap attribution** — :func:`attribute_gap` joins the rollup against the
  workload's Eq. 6/8/9 analytic floors;
* **Tracing** — a :class:`Tracer` installed with
  ``repro.context.session(tracer=Tracer())`` records the :func:`trace_span`
  spans of schedule primitives, lowering, optimization passes and autotune
  sweeps as Chrome trace events (Perfetto-loadable), against an injectable
  clock.

``scripts/profile_kernel.py`` is the command-line front end.
"""

from __future__ import annotations

from repro.prof.report import (
    BoundFloors,
    GapReport,
    attribute_gap,
    bound_floors,
    format_gap,
)
from repro.prof.rollup import ProfileRollup, ProvenanceRow, rollup_by_provenance
from repro.prof.trace import (
    TraceEvent,
    Tracer,
    trace_instant,
    trace_span,
)

__all__ = [
    "BoundFloors",
    "GapReport",
    "KernelProfile",
    "ProfileRollup",
    "ProvenanceRow",
    "TraceEvent",
    "Tracer",
    "attribute_gap",
    "bound_floors",
    "format_gap",
    "format_profile",
    "profile_kernel",
    "profile_workload",
    "rollup_by_provenance",
    "trace_instant",
    "trace_span",
]

#: Profiler entry points live in :mod:`repro.prof.profiler`, which reaches
#: into the kernel registry and the autotuner; importing it lazily keeps
#: ``repro.prof.trace`` importable from those very modules (no cycle).
_PROFILER_EXPORTS = {"KernelProfile", "profile_kernel", "profile_workload", "format_profile"}


def __getattr__(name: str):
    if name in _PROFILER_EXPORTS:
        from repro.prof import profiler

        return getattr(profiler, name)
    raise AttributeError(f"module 'repro.prof' has no attribute '{name}'")
