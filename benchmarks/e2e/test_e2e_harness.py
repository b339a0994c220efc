"""Fast checks of the end-to-end benchmark harness (collected by the root run).

The workload smokes shrink each workload to one or two ops by patching its
size constants, so the whole file stays within a few seconds of simulation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

import compare
import harness
import repro.kcache as kcache
import run
import spans
import speed
import workloads
from repro.arch.specs import get_gpu_spec
from repro.errors import BuildFailedError
from repro.kcache import SCHEDULE_FIELDS, KernelReply, KernelStore, StoreEntry
from repro.kernels import get_workload
from repro.opt.rewrite import kernel_hash
from repro.prof.trace import Tracer, current_tracer
from repro.telemetry.metrics import current_metrics
from repro.tile.autotune import SGEMM_STRIDES, SGEMM_TILES
from repro.tile.workloads import TileSgemmConfig
from stats import END_TO_END, JUDGED, Metric, geomean, tail_percentile
from workloads import Stratum, point

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------------- #
# Seeded streams.                                                              #
# --------------------------------------------------------------------------- #


def _keys() -> list[workloads.Op]:
    return [workloads.Op("gtx580", (m, m, 16), "hit") for m in range(64, 80)]


STREAMS = {
    "tune_cold": lambda seed: workloads.tune_cold_stream(seed),
    "serve_warm_keys": lambda seed: iter([workloads.serve_warm_keys(seed)]),
    "serve_warm": lambda seed: workloads.serve_warm_stream(seed, _keys()),
    "tune_mixed": lambda seed: workloads.tune_mixed_stream(seed),
    "simulate_grid_shapes": lambda seed: iter([workloads.simulate_grid_shapes(seed)]),
    "simulate_grid": lambda seed: workloads.simulate_grid_stream(seed, 16),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_streams_are_deterministic_and_differ_across_seeds(name):
    def first(seed):
        return list(islice(STREAMS[name](seed), 20))

    assert first(1) == first(1)
    assert first(1) != first(2)


SEEDED_STRATA = [
    *(s for s in workloads.TUNE_COLD_ROUND if not s.anchor),
    *(s for s in workloads.TUNE_MIXED_FAMILIES if not s.anchor),
    *workloads.SIMULATE_GRID_SEEDED,
]


@pytest.mark.parametrize("stratum", SEEDED_STRATA, ids=str)
def test_seeded_strata_fix_block_and_k_step_counts(stratum):
    """A seed moves how full the last tile is, never how many tiles there are."""
    for lo, hi in (stratum.m, stratum.n):
        assert hi % min(SGEMM_TILES) == 0  # the top of every stratum is a tile edge
        for tile in SGEMM_TILES:
            assert -(-lo // tile) == -(-hi // tile), (stratum, tile)
    lo, hi = stratum.k
    assert hi % max(SGEMM_STRIDES) == 0
    for stride in SGEMM_STRIDES:
        assert -(-lo // stride) == -(-hi // stride), (stratum, stride)


def _anchor_ops(ops):
    return [(op.gpu, op.shape) for op in ops if op.anchor]


def test_streams_keep_anchors_fixed_and_seeded_ops_inside_their_strata():
    rounds = {seed: list(islice(workloads.tune_cold_stream(seed), 3)) for seed in (1, 2)}
    for ops in rounds[1] + rounds[2]:
        assert _anchor_ops(ops) == [(s.gpu, (s.m[0], s.n[0], s.k[0]))
                                    for s in workloads.TUNE_COLD_ROUND if s.anchor]
        for op, stratum in zip(ops, workloads.TUNE_COLD_ROUND):
            assert op.gpu == stratum.gpu and op.anchor == stratum.anchor
            assert all(lo <= side <= hi for side, (lo, hi)
                       in zip(op.shape, (stratum.m, stratum.n, stratum.k)))

    keys = {seed: workloads.serve_warm_keys(seed) for seed in (1, 2)}
    for seed_keys in keys.values():
        assert len(seed_keys) == 16 and len(set(seed_keys)) == 16
        assert [i for i, key in enumerate(seed_keys) if key.anchor] == list(
            workloads.SERVE_WARM_ANCHOR_RANKS)
    assert _anchor_ops(keys[1]) == _anchor_ops(keys[2])

    streams = {seed: next(workloads.tune_mixed_stream(seed)) for seed in (1, 2)}
    assert _anchor_ops(streams[1]) == _anchor_ops(streams[2])
    for stream in streams.values():
        builds = [op for op in stream if op.expect == "built"]
        assert len(builds) == 2 * len(workloads.TUNE_MIXED_FAMILIES)
        assert len({(op.gpu, op.shape) for op in builds}) == len(builds)
        assert [op.anchor for op in builds[:2]] == [True, True]  # built first
        seen = set()
        for op in stream:  # a hit only ever asks for a key already built
            if op.expect == "hit":
                assert (op.gpu, op.shape) in seen
            seen.add((op.gpu, op.shape))


# --------------------------------------------------------------------------- #
# Statistics and spans.                                                        #
# --------------------------------------------------------------------------- #


def test_p90_is_reported_only_with_ten_samples_beyond_it():
    values = list(range(1, 101))
    p90 = tail_percentile(values)
    assert p90 is not None and sum(v > p90 for v in values) >= 10
    assert tail_percentile(list(range(1, 60))) is None
    assert tail_percentile([5.0]) is None


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_slowdown_is_the_mean_probe_over_the_reference():
    assert speed.slowdown([]) == 1.0
    ref = speed.REF_PROBE_S
    assert speed.slowdown([ref, ref]) == pytest.approx(1.0)
    assert speed.slowdown([ref, 3 * ref]) == pytest.approx(2.0)  # mean, not median
    assert 0 < speed.probe() < 0.1


def test_sampler_probes_while_started_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(period_s=0.005)
    sampler.start()
    try:
        mark = sampler.mark()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    taken = sampler.since(mark)
    assert len(taken) >= 3 and all(0 < d < 0.1 for d in taken)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_phase_keeps_the_probes_taken_during_its_rounds():
    class Sampler:
        samples = [1.0]

        def mark(self):
            return len(self.samples)

        def since(self, mark):
            return self.samples[mark:]

    class Ticking:
        def begin_round(self):
            pass

        def execute(self, op):
            Sampler.samples.append(2.0)  # a probe lands inside the op
            return workloads.Outcome(0.0)

    phase = harness.Phase()
    phase.run_round(Ticking(), [workloads.Op("gtx580")] * 2, sampler=Sampler())
    assert phase.probes == [2.0, 2.0]


def test_self_time_subtracts_direct_children_and_skips_transparent_spans():
    ticks = iter(range(11))  # the first tick is the tracer's origin
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("kcache.get_kernel"):        # 1 .. 10
        with tracer.span("lower.sgemm"):          # 2 .. 5
            with tracer.span("opt.reallocate"):   # 3 .. 4
                pass
        with tracer.span("autotune.sweep"):       # 6 .. 9, no layer of its own
            with tracer.span("sim.run"):          # 7 .. 8
                pass
    assert spans.self_times(tracer.events) == {
        "kcache.get_kernel": (1, 5.0),
        "tile.lower.lower": (1, 2.0),
        "opt.pass.reallocation": (1, 1.0),
        "sim.run": (1, 1.0),
    }


def test_recorder_restores_every_call_site_and_facade():
    before = {site: _resolve(site) for site in spans.WRAPPED}
    recorder = spans.Recorder()
    with recorder.installed():
        assert all(_resolve(site) is not fn for site, fn in before.items())
        assert current_tracer() is recorder.tracer
        assert current_metrics() is recorder.registry
    assert all(_resolve(site) is fn for site, fn in before.items())
    assert current_tracer() is None and current_metrics() is None


def _resolve(site):
    import importlib

    owner = importlib.import_module(site[0])
    for name in site[1].split("."):
        owner = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner


# --------------------------------------------------------------------------- #
# A/B comparer.                                                                #
# --------------------------------------------------------------------------- #

THROUGHPUT = Metric("ops_per_s", "ops/s", "higher", 0.10)
CYCLES = Metric("sim_cycles_geomean", "cycles", "lower", 0.02, exact=True)


@pytest.mark.parametrize(
    "metric, parent, change, verdict",
    [
        (THROUGHPUT, [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "improved"),
        (THROUGHPUT, [100] * 10, [85, 86, 84, 85, 85, 86, 84, 85, 85, 85], "regressed"),
        (THROUGHPUT, [60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
         [100, 101, 99, 100, 100, 100, 100, 101, 99, 100], "unresolved"),
        (THROUGHPUT, [100, 101, 99, 100, 100, 100, 100, 101, 99, 100],
         [101, 100, 100, 99, 100, 100, 101, 100, 99, 100], "unchanged"),
        (CYCLES, [5000.0] * 10, [5000.0] * 10, "same"),
        (CYCLES, [5000.0] * 10, [5001.0] * 10, "regressed"),
        (CYCLES, [5000.0] * 10, [4900.0] * 10, "improved"),
        (CYCLES, [5000.0, 5002.0], [5001.0, 5001.0], "unresolved"),
    ],
)
def test_compare_verdicts(metric, parent, change, verdict):
    assert compare.judge(metric, parent, change)[0] == verdict


def _write_runs(root: Path, e2e_by_run: list[dict | None]) -> None:
    """One summary per run; None writes a run that lacks the workload."""
    for index, e2e in enumerate(e2e_by_run):
        run_dir = root / f"pair{index:02d}"
        run_dir.mkdir(parents=True)
        summary = {"seed": 1, "seconds": run.RUN_SECONDS, "trace": False,
                   "workloads": {} if e2e is None else {"serve_warm": {"e2e": e2e}}}
        (run_dir / "summary.json").write_text(json.dumps(summary))


def _e2e(**overrides) -> dict:
    values = {m.name: 1.0 for m in JUDGED}
    values["fail_rate"] = 0.0
    return {**values, **overrides}


def test_compare_skips_a_pair_missing_a_workload(tmp_path):
    cycles = [5000.0, 6000.0, 7000.0]
    _write_runs(tmp_path / "parent", [_e2e(sim_cycles_geomean=cycles[0]), None,
                                      _e2e(sim_cycles_geomean=cycles[2])])
    _write_runs(tmp_path / "change", [_e2e(sim_cycles_geomean=c) for c in cycles])
    rows = compare.compare(compare.load_runs(tmp_path / "parent"),
                           compare.load_runs(tmp_path / "change"))
    (row,) = [row for row in rows if row[1].name == "sim_cycles_geomean"]
    assert row[2:4] == ([5000.0, 7000.0], [5000.0, 7000.0])
    assert (row[5], row[6]) == (2, "same")


@pytest.mark.parametrize(
    "change, status",
    [({}, 0), ({"latency_p50_ms": 1.5}, 1), ({"fail_rate": 0.01}, 1)],
)
def test_compare_exit_status(tmp_path, capsys, change, status):
    _write_runs(tmp_path / "parent", [_e2e()] * 10)
    _write_runs(tmp_path / "change", [_e2e(**change)] * 10)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == status
    assert "serve_warm" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# Workload smokes, isolation and correctness accounting.                       #
# --------------------------------------------------------------------------- #

#: (max ops, traced) of each workload's in-process smoke.
SMOKES = {"tune_cold": (1, False), "serve_warm": (2, True),
          "tune_mixed": (2, True), "simulate_grid": (2, True)}


#: A cheap anchor and a cheap seeded stratum for the shrunken workloads.
SMALL_ANCHOR = point("gtx680", 96, 96, 32)
SMALL_STRATUM = Stratum("gtx680", (64, 72), (64, 72), (24, 32))


def _shrink_serve_warm(patch) -> None:
    patch.setattr(workloads, "SERVE_WARM_ANCHORS", ((96, 96, 16),))
    patch.setattr(workloads, "SERVE_WARM_BOX", SMALL_STRATUM)
    patch.setattr(workloads, "SERVE_WARM_SEEDED", 1)


def _shrink(patch) -> None:
    patch.setattr(workloads.TuneCold, "WARMUP", ())
    patch.setattr(workloads.TuneMixed, "WARMUP", ())
    patch.setattr(workloads, "TUNE_COLD_ROUND", (SMALL_ANCHOR,))
    _shrink_serve_warm(patch)
    patch.setattr(workloads, "TUNE_MIXED_FAMILIES", (SMALL_ANCHOR,))
    patch.setattr(workloads.SimulateGrid, "EXTRA_SGEMM", ())


def _bench_digests() -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((ROOT / "benchmarks").glob("BENCH_*.json"))
    }


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload run in-process on 1-2 ops from a scratch cwd."""
    cwd = tmp_path_factory.mktemp("cwd")
    digests = _bench_digests()
    roots: list[Path] = []
    original_init = KernelStore.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        roots.append(Path(self.root).resolve())

    reports = {}
    with pytest.MonkeyPatch.context() as patch:
        _shrink(patch)
        patch.chdir(cwd)
        patch.setattr(KernelStore, "__init__", recording_init)
        for name, (max_ops, traced) in SMOKES.items():
            out_dir = (cwd / "out" / name).resolve()
            before = len(roots)
            reports[name] = harness.run_workload(
                name, 1, seconds=math.inf, trace=traced, out_dir=out_dir, max_ops=max_ops
            )
            reports[name]["store_roots"] = roots[before:]
            reports[name]["out_dir"] = out_dir
    return {"reports": reports, "cwd": cwd, "digests": digests}


@pytest.mark.parametrize("name", sorted(SMOKES))
def test_workload_smoke_has_no_failures(smoke, name):
    report = smoke["reports"][name]
    max_ops, traced = SMOKES[name]
    assert report["failed"] == 0, report["errors"]
    assert report["timed_ops"] == max_ops
    assert report["attempted"] == max_ops * (2 if traced else 1)
    assert report["e2e"]["sim_cycles_geomean"] > 0
    assert 0 < report["e2e"]["bound_fraction_geomean"] <= 1
    if name in ("serve_warm", "simulate_grid"):  # seeded kernels built in set-up
        assert 0 < report["e2e"]["seeded_bound_fraction_geomean"] <= 1
    if traced:
        names = [name for name, _, _ in spans.layer_metric_table()]
        assert sorted(report["layers"]) == sorted(names)


def test_serve_warm_touches_no_compile_layer(smoke):
    layers = smoke["reports"]["serve_warm"]["layers"]
    assert layers["kcache.store.load.calls"] == 2
    for span in ("tile.lower.lower", "opt.pipeline.optimize_kernel", "sim.run"):
        assert layers[f"{span}.calls"] == 0
    assert layers["kcache.hit_rate"] == 1


def test_tune_mixed_reaches_the_library_spans_and_counters(smoke):
    layers = smoke["reports"]["tune_mixed"]["layers"]  # one build, one hit
    for span in ("tile.lower.lower", "opt.pass.liveness", "opt.pass.reallocation",
                 "opt.pass.scheduling", "tile.autotune.prune_by_bound",
                 "kcache.store.publish", "sim.run"):
        assert layers[f"{span}.calls"] > 0, span
    assert layers["tile.autotune.run_generative_sweep.calls"] == 1
    assert layers["kcache.builds"] == 1 and layers["kcache.hit_rate"] == 0.5
    assert layers["tile.autotune.candidates"] > layers["tile.autotune.simulated"] > 0
    assert layers["tile.lower.instructions"] > 0
    assert layers["kcache.store.bytes_written"] > 0 and layers["kcache.store.bytes_read"] > 0


def test_simulate_grid_bypasses_the_kernel_cache(smoke):
    layers = smoke["reports"]["simulate_grid"]["layers"]
    assert layers["sim.run.calls"] == 2 and layers["kernels.validate.calls"] == 2
    for span in ("kcache.get_kernel", "kcache.store.load", "tile.lower.lower",
                 "opt.pipeline.optimize_kernel"):
        assert layers[f"{span}.calls"] == 0


def test_smoke_runs_leave_shared_state_alone(smoke):
    assert not (smoke["cwd"] / ".repro").exists()
    assert _bench_digests() == smoke["digests"]
    for name, report in smoke["reports"].items():
        assert bool(report["store_roots"]) == (name != "simulate_grid"), name
        for root in report["store_roots"]:
            assert root.is_relative_to(report["out_dir"] / "stores"), (name, root)
        assert not (report["out_dir"] / "stores").exists()


def _other_kernel(gpu: str):
    config = TileSgemmConfig(m=64, n=64, k=16)
    return get_workload("tile_sgemm").generate_optimized(config, get_gpu_spec(gpu))[0]


def test_tampered_serve_warm_replies_count_as_failures(tmp_path, monkeypatch):
    _shrink_serve_warm(monkeypatch)
    workload = workloads.ServeWarm(1, tmp_path / "stores")
    workload.setup()
    real = kcache.get_kernel
    calls = []

    def tampered(*args, **kwargs):
        calls.append(None)
        reply = real(*args, **kwargs)
        other = _other_kernel(reply.entry.meta["gpu"])
        artifacts = {**reply.entry.artifacts, "kernel_opt": other}
        meta = dict(reply.entry.meta)
        if len(calls) == 1:
            return replace(reply, source="built")  # a miss on a warm key
        if len(calls) == 2:  # the served kernel disagrees with its entry's hash
            return replace(reply, entry=StoreEntry(reply.key, meta, artifacts))
        if len(calls) == 3:  # a self-consistent entry holding another kernel
            meta["kernel_hashes"] = {**meta["kernel_hashes"], "kernel_opt": kernel_hash(other)}
            return replace(reply, entry=StoreEntry(reply.key, meta, artifacts))
        raise BuildFailedError("injected", key=reply.key)

    monkeypatch.setattr(kcache, "get_kernel", tampered)
    report = harness.measure(workload, seconds=math.inf, trace=False, out_dir=tmp_path, max_ops=4)
    assert (report["attempted"], report["failed"]) == (4, 4)
    assert report["e2e"]["sim_cycles_geomean"] > 0  # the set-up builds still validate


def test_swapped_kernel_fails_grid_validation(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.TuneCold, "WARMUP", ())
    monkeypatch.setattr(workloads, "TUNE_COLD_ROUND", (SMALL_ANCHOR,))
    workload = workloads.TuneCold(1, tmp_path / "stores")
    workload.setup()

    def swapped(name, config, gpu, **kwargs):
        kernel = _other_kernel(gpu)
        schedule = {field: getattr(config, field) for field in SCHEDULE_FIELDS
                    if hasattr(config, field)}
        meta = {
            "gpu": gpu,
            "kernel_hashes": {"kernel_opt": kernel_hash(kernel)},
            "shape": [["m", config.m], ["n", config.n], ["k", config.k]],
            "winner_schedule": schedule,
        }
        entry = StoreEntry("swapped", meta, {"kernel_opt": kernel})
        return KernelReply(key="swapped", source="built", entry=entry)

    monkeypatch.setattr(kcache, "get_kernel", swapped)
    report = harness.measure(workload, seconds=math.inf, trace=False, out_dir=tmp_path, max_ops=1)
    assert (report["attempted"], report["failed"]) == (1, 1)
    assert report["errors"][0].startswith("grid validation")


# --------------------------------------------------------------------------- #
# BENCHMARK.json mirrors the code.                                             #
# --------------------------------------------------------------------------- #


def test_benchmark_json_matches_the_harness():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in spans.layer_metric_table()
    ]
