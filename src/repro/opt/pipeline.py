"""The SASS optimizer: four fixed steps over one assembled kernel.

:func:`optimize_kernel` takes any assembled :class:`~repro.isa.assembler.Kernel`
and a target GPU and returns an optimized kernel plus a per-step report.
The steps always run in this order:

1. liveness (analysis only — records register pressure),
2. register reallocation (bank-conflict elimination, Fig. 8/9),
3. latency-aware list scheduling (LDS/global-load hiding),
4. Kepler control-notation assignment (skipped, and reported as skipped,
   on GPUs that do not read the notation words).

Every step must preserve the kernel's structure: after each one the
optimizer verifies that the instruction-mnemonic histogram is unchanged, the
register footprint still fits the 6-bit encoding, the branch-target map
survived and the launch resources are the same.  The scheduling and hint
steps may only permute or annotate: their output must hold the very
instruction objects of their input, each as often, so the input's
instruction mix, register count and FFMA conflict report carry over
instead of being counted again.  A violation raises — a broken optimizer
must never silently produce a broken kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.arch.specs import GpuSpec
from repro.context import current as current_context
from repro.errors import AssemblyError
from repro.isa.assembler import Kernel
from repro.opt.control_hints import assign_control_hints
from repro.opt.liveness import pressure_and_registers
from repro.opt.reallocation import reallocate_registers
from repro.opt.scheduling import schedule_kernel
from repro.prof.trace import trace_span
from repro.sgemm.conflict_analysis import analyse_ffma_conflicts, inherit_ffma_conflicts
from repro.telemetry.metrics import counter_inc, observe


@dataclass(frozen=True)
class PassStats:
    """Before/after metrics of one optimizer step.

    ``notes`` holds the step's own annotations, namespaced by step name
    (e.g. ``liveness.max_pressure``).
    """

    name: str
    ffma_conflicts_before: int
    ffma_conflicts_after: int
    register_count_before: int
    register_count_after: int
    notes: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of :func:`optimize_kernel` over one kernel."""

    kernel: Kernel
    stats: tuple[PassStats, ...]

    @property
    def ffma_conflicts(self) -> int:
        """Remaining FFMA bank conflicts (2-way + 3-way) after all steps."""
        return self.stats[-1].ffma_conflicts_after


def _liveness(kernel: Kernel, gpu: GpuSpec) -> tuple[Kernel, dict[str, object]]:
    max_pressure, registers_used = pressure_and_registers(kernel)
    return kernel, {
        "liveness.max_pressure": max_pressure,
        "liveness.registers_used": registers_used,
    }


def _reallocate(kernel: Kernel, gpu: GpuSpec) -> tuple[Kernel, dict[str, object]]:
    result = reallocate_registers(kernel)
    return result.kernel, {
        "reallocate.applied": result.applied,
        "reallocate.conflicts_removed": result.conflicts_removed,
    }


def _schedule(kernel: Kernel, gpu: GpuSpec) -> tuple[Kernel, dict[str, object]]:
    scheduled, stats = schedule_kernel(kernel, gpu=gpu)
    return scheduled, {
        "schedule.instructions_moved": stats.instructions_moved,
        "schedule.regions": stats.regions,
    }


def _control_hints(kernel: Kernel, gpu: GpuSpec) -> tuple[Kernel, dict[str, object]]:
    if not gpu.register_file.has_operand_bank_conflicts:
        # The notation words are a Kepler feature; Fermi/GT200 binaries
        # carry none, so emitting them would only inflate the binary.
        return kernel, {"control_hints.skipped": True}
    return assign_control_hints(kernel), {}


#: The optimizer's steps in order, each with whether it may only permute
#: or annotate its input's instructions; each name is also its
#: ``opt.<name>`` span.
_STEPS = (
    ("liveness", _liveness, True),
    ("reallocate", _reallocate, False),
    ("schedule", _schedule, True),
    ("control_hints", _control_hints, True),
)


def _conflict_count(kernel: Kernel) -> int:
    report = analyse_ffma_conflicts(kernel)
    return report.two_way + report.three_way


def optimize_kernel(kernel: Kernel, gpu: GpuSpec) -> PipelineResult:
    """Run the four optimizer steps over ``kernel`` for ``gpu``."""
    stats: list[PassStats] = []
    current = kernel
    conflicts = _conflict_count(kernel)
    mix = kernel.instruction_mix()
    for name, step, permutes in _STEPS:
        with trace_span(f"opt.{name}", category="opt", kernel=kernel.name):
            started = time.perf_counter()
            transformed, notes = step(current, gpu)
            seconds = time.perf_counter() - started
        mix = _verify_invariants(name, current, transformed, mix, permutes)
        after = _conflict_count(transformed)
        if current_context().metrics is not None:
            labels = (("pass", name),)
            counter_inc("opt.passes_run", 1, labels)
            observe("opt.pass_seconds", seconds, labels)
            observe(
                "opt.pass.register_delta",
                transformed.register_count - current.register_count,
                labels,
            )
            observe("opt.pass.conflict_delta", after - conflicts, labels)
        stats.append(
            PassStats(
                name=name,
                ffma_conflicts_before=conflicts,
                ffma_conflicts_after=after,
                register_count_before=current.register_count,
                register_count_after=transformed.register_count,
                notes=notes,
            )
        )
        current, conflicts = transformed, after
    return PipelineResult(kernel=current, stats=tuple(stats))


def _verify_invariants(
    step_name: str,
    before: Kernel,
    after: Kernel,
    before_mix: dict[str, int],
    permutes: bool = False,
) -> dict[str, int]:
    """Structural invariants every step must preserve; returns ``after``'s mix.

    ``before_mix`` is ``before.instruction_mix()``, carried over from the
    previous step's check so each kernel's mix is counted once.  A step
    that ``permutes`` must return ``before``'s instruction objects, each as
    often, in any order; ``after`` then inherits ``before``'s mix, register
    count and FFMA conflict report (functions of that multiset) instead of
    counting them again.
    """
    if permutes and after is not before:
        if sorted(map(id, after.instructions)) != sorted(map(id, before.instructions)):
            raise AssemblyError(
                f"pass '{step_name}' did more than reorder or annotate the instructions"
            )
        after.inherit_register_count(before)
        inherit_ffma_conflicts(after, before)
    after_mix = before_mix if permutes or after is before else after.instruction_mix()
    if after_mix != before_mix:
        raise AssemblyError(f"pass '{step_name}' changed the instruction mix")
    if after.register_count > 63:
        raise AssemblyError(
            f"pass '{step_name}' produced a kernel using {after.register_count} registers"
        )
    if after.branch_targets != before.branch_targets:
        raise AssemblyError(f"pass '{step_name}' moved a branch target")
    if (
        after.shared_memory_bytes != before.shared_memory_bytes
        or after.threads_per_block != before.threads_per_block
    ):
        raise AssemblyError(f"pass '{step_name}' changed the kernel's launch resources")
    return after_mix
