"""The SASS optimization-pass pipeline.

Chains the analyses and transforms of :mod:`repro.opt` into a configurable
pipeline that takes any assembled :class:`~repro.isa.assembler.Kernel` and
returns an optimized one plus a per-pass report:

1. liveness report (analysis only — records register pressure),
2. register reallocation (bank-conflict elimination, Fig. 8/9),
3. latency-aware list scheduling (LDS/global-load hiding, FFMA:LDS mix),
4. Kepler control-notation assignment (when targeting a GPU that reads it).

Every pass must preserve the kernel's structure: the pipeline verifies after
each pass that the instruction-mnemonic histogram is unchanged, the register
footprint still fits the 6-bit encoding, and the branch-target map survived.
A violation raises — a broken optimizer must never silently produce a broken
kernel.

The canonical entry points are :func:`default_pipeline` (build the pipeline
for a GPU) and :func:`optimize_kernel` (one-call convenience).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

from repro.arch.specs import GpuSpec
from repro.context import current as current_context
from repro.errors import AssemblyError
from repro.isa.assembler import Kernel
from repro.opt.control_hints import assign_control_hints
from repro.opt.liveness import analyse_liveness
from repro.opt.reallocation import reallocate_registers
from repro.opt.scheduling import schedule_kernel
from repro.prof.trace import trace_span
from repro.sgemm.conflict_analysis import analyse_ffma_conflicts
from repro.telemetry.metrics import counter_inc, observe


@dataclass
class PassContext:
    """Shared state the passes read and annotate.

    Attributes
    ----------
    gpu:
        Target machine description (None → architecture-neutral defaults).
    options:
        Free-form per-pass options (see :func:`default_pipeline`).
    notes:
        Pass-written annotations, accumulated across passes (namespaced by
        pass name, e.g. ``liveness.max_pressure``) and surfaced per-pass in
        the pipeline report.
    """

    gpu: GpuSpec | None = None
    options: dict[str, object] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)


class KernelPass(Protocol):
    """One transform (or analysis) over an assembled kernel."""

    name: str

    def run(self, kernel: Kernel, context: PassContext) -> Kernel:
        """Return the transformed kernel (or the input for analyses)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class PassStats:
    """Before/after metrics of one pass application."""

    name: str
    ffma_conflicts_before: int
    ffma_conflicts_after: int
    register_count_before: int
    register_count_after: int
    notes: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of running a pipeline over one kernel."""

    kernel: Kernel
    stats: tuple[PassStats, ...]

    @property
    def ffma_conflicts(self) -> int:
        """Remaining FFMA bank conflicts (2-way + 3-way) after all passes."""
        report = analyse_ffma_conflicts(self.kernel)
        return report.two_way + report.three_way


class LivenessReportPass:
    """Analysis-only pass: records register pressure in the context notes."""

    name = "liveness"

    def run(self, kernel: Kernel, context: PassContext) -> Kernel:
        info = analyse_liveness(kernel)
        context.notes["liveness.max_pressure"] = info.max_pressure
        context.notes["liveness.registers_used"] = len(info.registers_used())
        return kernel


class RegisterReallocationPass:
    """Bank-conflict-eliminating register recoloring (see ``reallocation``)."""

    name = "reallocate"

    def run(self, kernel: Kernel, context: PassContext) -> Kernel:
        result = reallocate_registers(
            kernel,
            max_moves=int(context.options.get("reallocate.max_moves", 256)),
        )
        context.notes["reallocate.applied"] = result.applied
        context.notes["reallocate.conflicts_removed"] = result.conflicts_removed
        return result.kernel


class LatencyAwareSchedulingPass:
    """Critical-path list scheduling of straight-line regions."""

    name = "schedule"

    def run(self, kernel: Kernel, context: PassContext) -> Kernel:
        scheduled, stats = schedule_kernel(
            kernel,
            gpu=context.gpu,
            ffma_per_lds=context.options.get("schedule.ffma_per_lds"),
        )
        context.notes["schedule.instructions_moved"] = stats.instructions_moved
        context.notes["schedule.regions"] = stats.regions
        return scheduled


class ControlHintPass:
    """Kepler control-notation assignment (skipped on GPUs that ignore it)."""

    name = "control_hints"

    def run(self, kernel: Kernel, context: PassContext) -> Kernel:
        gpu = context.gpu
        if gpu is not None and not gpu.register_file.has_operand_bank_conflicts:
            # The notation words are a Kepler feature; Fermi/GT200 binaries
            # carry none, so emitting them would only inflate the binary.
            context.notes["control_hints.skipped"] = True
            return kernel
        scheme = str(context.options.get("control_hints.scheme", "minimal"))
        return assign_control_hints(kernel, scheme=scheme)


class PassPipeline:
    """An ordered list of passes applied with invariant checking."""

    def __init__(self, passes: list[KernelPass], *, gpu: GpuSpec | None = None,
                 options: dict[str, object] | None = None) -> None:
        self._passes = list(passes)
        self._gpu = gpu
        self._options = dict(options or {})

    def run(self, kernel: Kernel) -> PipelineResult:
        """Apply every pass in order and return the result with stats."""
        context = PassContext(gpu=self._gpu, options=dict(self._options))
        stats: list[PassStats] = []
        current = kernel
        for pipeline_pass in self._passes:
            before_conflicts = analyse_ffma_conflicts(current)
            before_registers = current.register_count
            with trace_span(
                f"opt.{pipeline_pass.name}", category="opt", kernel=kernel.name
            ):
                started = time.perf_counter()
                transformed = pipeline_pass.run(current, context)
                seconds = time.perf_counter() - started
            _verify_invariants(pipeline_pass.name, current, transformed)
            after_conflicts = analyse_ffma_conflicts(transformed)
            if current_context().metrics is not None:
                pass_labels = (("pass", pipeline_pass.name),)
                counter_inc("opt.passes_run", 1, pass_labels)
                observe("opt.pass_seconds", seconds, pass_labels)
                # The structural invariant pins the delta at zero; recording
                # it makes any future pass that grows/shrinks code visible
                # in the same ledgered series instead of only as a raise.
                observe(
                    "opt.pass.instruction_delta",
                    transformed.instruction_count - current.instruction_count,
                    pass_labels,
                )
                observe(
                    "opt.pass.register_delta",
                    transformed.register_count - before_registers,
                    pass_labels,
                )
                observe(
                    "opt.pass.conflict_delta",
                    (after_conflicts.two_way + after_conflicts.three_way)
                    - (before_conflicts.two_way + before_conflicts.three_way),
                    pass_labels,
                )
            # Notes accumulate in the context (later passes may read earlier
            # passes' annotations); each pass's stats carry its own namespace.
            own_notes = {
                key: value
                for key, value in context.notes.items()
                if key.startswith(f"{pipeline_pass.name}.")
            }
            stats.append(
                PassStats(
                    name=pipeline_pass.name,
                    ffma_conflicts_before=before_conflicts.two_way + before_conflicts.three_way,
                    ffma_conflicts_after=after_conflicts.two_way + after_conflicts.three_way,
                    register_count_before=before_registers,
                    register_count_after=transformed.register_count,
                    notes=own_notes,
                )
            )
            current = transformed
        return PipelineResult(kernel=current, stats=tuple(stats))


def _verify_invariants(pass_name: str, before: Kernel, after: Kernel) -> None:
    """Structural invariants every pass must preserve."""
    if after.instruction_mix() != before.instruction_mix():
        raise AssemblyError(f"pass '{pass_name}' changed the instruction mix")
    if after.register_count > 63:
        raise AssemblyError(
            f"pass '{pass_name}' produced a kernel using {after.register_count} registers"
        )
    if after.branch_targets != before.branch_targets:
        raise AssemblyError(f"pass '{pass_name}' moved a branch target")
    if (
        after.shared_memory_bytes != before.shared_memory_bytes
        or after.threads_per_block != before.threads_per_block
    ):
        raise AssemblyError(f"pass '{pass_name}' changed the kernel's launch resources")


def default_pipeline(
    gpu: GpuSpec | None = None,
    *,
    reallocate: bool = True,
    schedule: bool = True,
    control_hints: bool = True,
    options: dict[str, object] | None = None,
) -> PassPipeline:
    """The standard pipeline: liveness → reallocate → schedule → hints.

    Parameters
    ----------
    gpu:
        Target machine; drives the scheduler's latency table and whether the
        control-hint pass emits notations.
    reallocate / schedule / control_hints:
        Toggles for the individual transforms (the liveness report always
        runs — it is free and feeds the stats).
    options:
        Per-pass options, e.g. ``{"schedule.ffma_per_lds": 6.0,
        "control_hints.scheme": "minimal"}``.
    """
    passes: list[KernelPass] = [LivenessReportPass()]
    if reallocate:
        passes.append(RegisterReallocationPass())
    if schedule:
        passes.append(LatencyAwareSchedulingPass())
    if control_hints:
        passes.append(ControlHintPass())
    return PassPipeline(passes, gpu=gpu, options=options)


def optimize_kernel(kernel: Kernel, gpu: GpuSpec | None = None) -> PipelineResult:
    """Run the default pipeline over ``kernel`` for ``gpu``."""
    return default_pipeline(gpu).run(kernel)
