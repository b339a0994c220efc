#!/usr/bin/env python
"""Profile a registry workload: per-provenance cycles, stalls and bound gap.

Functionally simulates the whole grid of one workload on each requested
machine model with per-instruction counters enabled, rolls the counters up
by tile-IR provenance tag, and joins the result against the workload's
analytic upper bound (Eq. 6/8/9) — the achieved-vs-bound gap decomposed into
issue slots and per-reason stall cycles.

Usage::

    PYTHONPATH=src python scripts/profile_kernel.py tile_sgemm
    PYTHONPATH=src python scripts/profile_kernel.py tile_sgemm --gpu gtx580 \
        --m 193 --n 161 --k 97 --json profile.json --trace profile.trace.json

``--json`` writes the full machine-readable profile; ``--trace`` writes a
Chrome trace-event file (load it in Perfetto) covering schedule application,
lowering and the optimization passes of the profiled build.
``--check-attribution`` exits non-zero unless every profile attributes at
least the given fraction of simulated cycles — the CI smoke gate.
``--ledger`` appends one ``kind="profile"`` record per profiled GPU to the
run ledger (``--ledger-root``, default ``.repro/ledger``) — the rollup and
gap-attribution headline figures, diffable across runs with
``scripts/ledger.py diff``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.arch.specs import get_gpu_spec
from repro.context import session
from repro.kernels.registry import get_workload, workload_names
from repro.opt.rewrite import kernel_hash
from repro.prof import Tracer, format_profile, profile_workload
from repro.telemetry.ledger import (
    DEFAULT_LEDGER_ROOT,
    RunLedger,
    config_digest,
    normalize_gpu,
    record_run,
)

DEFAULT_GPUS = ("gtx580", "gtx680")


def _ledger_profile(profile, workload: str, config, optimized: bool) -> None:
    """Append one profile record: cycles, stall totals and the bound gap."""
    gpu_key = normalize_gpu(profile.gpu_name)
    variant = "opt" if optimized else "naive"
    metrics: dict[str, object] = {
        "cycles": profile.result.cycles,
        "warp_instructions": profile.result.warp_instructions,
        "flops": profile.result.flops,
        "attributed_fraction": profile.rollup.attributed_fraction,
        "stall_cycles": profile.rollup.stall_cycle_totals,
    }
    if profile.gap is not None:
        metrics["gap_cycles"] = profile.gap.gap_cycles
        metrics["gap_fraction"] = profile.gap.gap_fraction
        metrics["bound_efficiency"] = profile.gap.bound_efficiency
        metrics["gap_terms"] = dict(profile.gap.gap_terms)
    record_run(
        "profile",
        f"profile:{workload}:{config_digest(config)}:{gpu_key}:{variant}",
        workload=workload,
        gpu=gpu_key,
        kernel_hash=kernel_hash(profile.kernel),
        config=config,
        metrics=metrics,
    )


def _build_config(workload_name: str, args: argparse.Namespace):
    """The workload's default config with any --m/--n/--k overrides applied."""
    config = get_workload(workload_name).default_config()
    overrides = {
        name: getattr(args, name)
        for name in ("m", "n", "k")
        if getattr(args, name) is not None and hasattr(config, name)
    }
    return replace(config, **overrides) if overrides else config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", nargs="?", default="tile_sgemm",
                        help="registry workload name (default: tile_sgemm)")
    parser.add_argument("--list", action="store_true",
                        help="list profilable workloads and exit")
    parser.add_argument("--gpu", action="append", default=None,
                        help="GPU name (repeatable; default: gtx580 and gtx680)")
    parser.add_argument("--m", type=int, default=None, help="problem-size override")
    parser.add_argument("--n", type=int, default=None, help="problem-size override")
    parser.add_argument("--k", type=int, default=None, help="problem-size override")
    parser.add_argument("--naive", action="store_true",
                        help="profile the naive kernel instead of the opt pipeline's")
    parser.add_argument("--depth", type=int, default=None,
                        help="truncate provenance tags to this many path segments")
    parser.add_argument("--max-cycles", type=int, default=50_000_000,
                        help="simulation cycle cap per run")
    parser.add_argument("--json", type=str, default=None,
                        help="write the machine-readable profiles to this file")
    parser.add_argument("--trace", type=str, default=None,
                        help="write a Chrome trace-event JSON to this file")
    parser.add_argument("--check-attribution", type=float, default=None,
                        metavar="FRACTION",
                        help="fail unless every profile attributes at least this "
                             "fraction of simulated cycles (e.g. 0.95)")
    parser.add_argument("--ledger", action="store_true",
                        help="append one run-ledger record per profiled GPU")
    parser.add_argument("--ledger-root", type=str, default=DEFAULT_LEDGER_ROOT,
                        help=f"ledger directory (default: {DEFAULT_LEDGER_ROOT})")
    args = parser.parse_args(argv)

    if args.list:
        for name in workload_names():
            print(name)
        return 0

    gpus = args.gpu if args.gpu else list(DEFAULT_GPUS)
    config = _build_config(args.workload, args)

    profiles = []
    tracer = Tracer()
    with session(tracer=tracer):
        for gpu_name in gpus:
            profiles.append(
                profile_workload(
                    get_gpu_spec(gpu_name),
                    args.workload,
                    config,
                    optimized=not args.naive,
                    max_cycles=args.max_cycles,
                    depth=args.depth,
                )
            )
    if args.trace:
        tracer.dump(args.trace)

    if args.ledger:
        with session(ledger=RunLedger(args.ledger_root)):
            for profile in profiles:
                _ledger_profile(profile, args.workload, config, not args.naive)
        print(f"ledger: appended {len(profiles)} profile record"
              f"{'s' if len(profiles) != 1 else ''} under {args.ledger_root}")

    for index, profile in enumerate(profiles):
        if index:
            print()
        print(format_profile(profile))

    if args.json:
        payload = {"workload": args.workload, "profiles": [p.as_dict() for p in profiles]}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)

    if args.check_attribution is not None:
        for profile in profiles:
            fraction = profile.rollup.attributed_fraction
            if fraction < args.check_attribution:
                print(
                    f"attribution check failed on {profile.gpu_name}: "
                    f"{fraction:.4f} < {args.check_attribution}",
                    file=sys.stderr,
                )
                return 1
        print(f"attribution >= {args.check_attribution:.0%} on "
              f"{len(profiles)} profile{'s' if len(profiles) != 1 else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
