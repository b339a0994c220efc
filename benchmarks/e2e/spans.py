"""Per-layer spans and counts of a traced phase.

Recording goes through the library's own instruments: the process-wide span
tracer (:mod:`repro.prof.trace`) and metrics facade
(:mod:`repro.telemetry.metrics`).  The layers already open spans when they
lower a proc, run an opt pass or prune a sweep by bound, and already count
sweep candidates, sim-cache hits, cache requests and store writes.  For a
traced phase a :class:`Recorder` installs one tracer and one registry and
wraps the remaining layer boundaries — the public callables the layers call
each other through — in :meth:`Tracer.span`, restoring everything
afterwards, so nothing under ``src/`` changes.

Self time is a span's duration minus its direct children's (single-threaded,
so children nest inside their parent and never overlap).  Library spans
without a layer name of their own (schedule primitives, the opt sweep) are
transparent: their time stays with the nearest named ancestor.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager

from repro.prof.trace import Tracer, install_tracer
from repro.telemetry.metrics import MetricsRegistry, install_metrics


def _bytes_read(entry, args, kwargs) -> dict:
    return {"bytes": int(entry.meta.get("payload_bytes", 0))} if entry is not None else {}


def _sim_counts(result, args, kwargs) -> dict:
    return {"cycles": result.cycles, "warp_instructions": result.warp_instructions}


#: (module, attribute path, span name, span-args hook) of every boundary the
#: library does not span itself.  Each entry names the object a layer is
#: *called through*: module globals are patched in the module that looks
#: them up at call time, methods on their class.
WRAPPED: tuple[tuple[str, str, str, object], ...] = (
    ("repro.kcache", "get_kernel", "kcache.get_kernel", None),
    ("repro.tile.autotune", "run_generative_sweep", "tile.autotune.run_generative_sweep", None),
    ("repro.tile.workloads", "proc_resources", "tile.resources.proc_resources", None),
    ("repro.tile.library", "schedule_sgemm", "tile.library.schedule_sgemm", None),
    ("repro.tile.library", "schedule_transpose", "tile.library.schedule_transpose", None),
    ("repro.tile.library", "schedule_sgemv", "tile.library.schedule_sgemv", None),
    ("repro.opt.pipeline", "optimize_kernel", "opt.pipeline.optimize_kernel", None),
    ("repro.opt.autotune", "evaluate_workload_candidate",
     "opt.autotune.evaluate_workload_candidate", None),
    ("repro.sim.sm_sim", "SmSimulator.run", "sim.run", _sim_counts),
    ("repro.sim.vectorized", "VectorizedEngine.run_block", "sim.vectorized.run_block", None),
    ("repro.kcache.store", "KernelStore.load", "kcache.store.load", _bytes_read),
    ("repro.kcache.store", "KernelStore.compose", "kcache.store.compose", None),
    ("repro.kcache.store", "KernelStore.publish", "kcache.store.publish", None),
    ("repro.kcache.warmstart", "nearest_tuned", "kcache.warmstart.nearest_tuned", None),
    ("repro.kcache.service", "claim_build", "kcache.locks.claim_build", None),
    ("repro.kernels.base", "Workload.validate", "kernels.validate", None),
)

#: Spans the library opens itself, and the layer each one reports as
#: (``lower.<proc>`` is matched by its prefix).
LIBRARY_SPANS = {
    "autotune.prune_by_bound": "tile.autotune.prune_by_bound",
    "opt.liveness": "opt.pass.liveness",
    "opt.reallocate": "opt.pass.reallocation",
    "opt.schedule": "opt.pass.scheduling",
    "opt.control_hints": "opt.pass.control_hints",
}
LOWER_PREFIX, LOWER_SPAN = "lower.", "tile.lower.lower"

#: Every layer span, in report order.
SPAN_NAMES: tuple[str, ...] = (
    "kcache.get_kernel",
    "tile.autotune.run_generative_sweep",
    "tile.autotune.prune_by_bound",
    "tile.resources.proc_resources",
    LOWER_SPAN,
    "tile.library.schedule_sgemm",
    "tile.library.schedule_transpose",
    "tile.library.schedule_sgemv",
    "opt.pipeline.optimize_kernel",
    "opt.pass.liveness",
    "opt.pass.reallocation",
    "opt.pass.scheduling",
    "opt.pass.control_hints",
    "opt.autotune.evaluate_workload_candidate",
    "sim.run",
    "sim.vectorized.run_block",
    "kcache.store.load",
    "kcache.store.compose",
    "kcache.store.publish",
    "kcache.warmstart.nearest_tuned",
    "kcache.locks.claim_build",
    "kernels.validate",
)
_WRAPPED_NAMES = frozenset(site[2] for site in WRAPPED)


def layer_of(event_name: str) -> str | None:
    """The layer span a trace event reports as, or None when transparent."""
    if event_name in _WRAPPED_NAMES:
        return event_name
    if event_name.startswith(LOWER_PREFIX):
        return LOWER_SPAN
    return LIBRARY_SPANS.get(event_name)


class Recorder:
    """One tracer and one metrics registry shared by every traced round."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.request: int | None = None  # stamped on every wrapped span

    def _wrap(self, name: str, fn, hook):
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, "bench", request=self.request) as span_args:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span_args.update(hook(result, args, kwargs))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route the library's spans and counters, and every wrapped site, here."""
        undo: list[tuple[object, str, object]] = []
        previous = install_tracer(self.tracer), install_metrics(self.registry)
        try:
            for module_name, path, name, hook in WRAPPED:
                owner = importlib.import_module(module_name)
                *outer, attribute = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute]
                undo.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)
            install_tracer(previous[0])
            install_metrics(previous[1])


def self_times(events) -> dict[str, tuple[int, float]]:
    """Layer span name -> (calls, total self seconds) over trace ``events``."""
    spans = sorted(
        (event.start_us, -event.duration_us, layer)
        for event in events
        if event.phase == "X" and (layer := layer_of(event.name)) is not None
    )
    totals: dict[str, tuple[int, float]] = {}

    def close(span) -> None:
        _, duration, children, layer = span
        calls, seconds = totals.get(layer, (0, 0.0))
        totals[layer] = (calls + 1, seconds + (duration - children) / 1e6)

    open_spans: list[list] = []  # [end_us, duration_us, children_us, layer]
    for start, negative, layer in spans:
        while open_spans and open_spans[-1][0] <= start:
            close(open_spans.pop())
        if open_spans:
            open_spans[-1][2] += -negative
        open_spans.append([start - negative, -negative, 0.0, layer])
    while open_spans:
        close(open_spans.pop())
    return totals


# --------------------------------------------------------------------------- #
# Per-layer metrics.                                                           #
# --------------------------------------------------------------------------- #


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _requests(snapshot, name: str) -> float:
    """A kcache service counter (labelled by request mode), over all modes."""
    return sum(value for (series, labels), value in snapshot.counters.items()
               if series == name and any(key == "mode" for key, _ in labels))


def layer_metrics(recorder: Recorder, wall_s: float) -> dict[str, float]:
    """Per-span calls/self time/share plus the layers' own counts.

    Every name is present whether or not the workload reached that layer:
    a zero is the expected reading for a layer the workload bypasses.
    """
    events = recorder.tracer.events
    totals = self_times(events)
    snapshot = recorder.registry.snapshot()
    count = snapshot.counter_total
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = float(calls)
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.share"] = _ratio(self_s, wall_s)

    lowered = [e.args["instructions"] for e in events if layer_of(e.name) == LOWER_SPAN]
    sims = [e for e in events if e.name == "sim.run"]
    sim_s = sum(e.duration_us for e in sims) / 1e6
    sweeps = totals.get("tile.autotune.run_generative_sweep", (0, 0.0))[0]
    generated = count("autotune.candidates_generated")
    evaluated = count("autotune.candidates_evaluated")
    hits = _requests(snapshot, "kcache.hits")
    metrics.update(
        {
            "tile.lower.instructions": _ratio(sum(lowered), len(lowered)),
            "tile.autotune.candidates": _ratio(generated, sweeps),
            "tile.autotune.pruned_rate": _ratio(count("autotune.candidates_pruned"), generated),
            "tile.autotune.simulated": _ratio(evaluated, sweeps),
            "tile.autotune.warm_seeds": _ratio(count("kcache.warm.seeds"), sweeps),
            "tile.autotune.warm_pruned": _ratio(count("kcache.warm.pruned"), sweeps),
            "opt.autotune.sim_cache_hit_rate": _ratio(count("autotune.sim_cache.hits"), evaluated),
            "kcache.hit_rate": _ratio(hits, hits + _requests(snapshot, "kcache.misses")),
            "kcache.builds": _requests(snapshot, "kcache.builds"),
            "kcache.store.bytes_read": float(sum(e.args.get("bytes", 0) for e in events
                                                 if e.name == "kcache.store.load")),
            "kcache.store.bytes_written": count("kcache.store.put_bytes"),
            "sim.warp_instructions_per_s": _ratio(
                sum(e.args["warp_instructions"] for e in sims), sim_s),
            "sim.cycles_per_host_s": _ratio(sum(e.args["cycles"] for e in sims), sim_s),
        }
    )
    return metrics


def layer_metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    table: list[tuple[str, str, str]] = []
    for name in SPAN_NAMES:
        table += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.share", "fraction", "lower"),
        ]
    table += [
        ("tile.lower.instructions", "count", "lower"),
        ("tile.autotune.candidates", "count", "lower"),
        ("tile.autotune.pruned_rate", "fraction", "higher"),
        ("tile.autotune.simulated", "count", "lower"),
        ("tile.autotune.warm_seeds", "count", "higher"),
        ("tile.autotune.warm_pruned", "count", "higher"),
        ("opt.autotune.sim_cache_hit_rate", "fraction", "higher"),
        ("kcache.hit_rate", "fraction", "higher"),
        ("kcache.builds", "count", "lower"),
        ("kcache.store.bytes_read", "bytes", "lower"),
        ("kcache.store.bytes_written", "bytes", "lower"),
        ("sim.warp_instructions_per_s", "1/s", "higher"),
        ("sim.cycles_per_host_s", "cycles/s", "higher"),
        ("trace.overhead_rate", "fraction", "lower"),
    ]
    return table
