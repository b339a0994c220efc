"""The request front-end: ``get_kernel(workload, config, gpu)``.

Four outcomes, in order of preference:

* **hit** — the store holds a committed entry for the routine key: the
  artifacts are unpickled and returned in O(lookup), with no scheduling,
  lowering, optimization or simulation (the acceptance test asserts this
  through the telemetry facade);
* **deduped** — another thread/process holds the build claim
  (:mod:`repro.kcache.locks`): the request polls for the committed entry and
  returns it, so N concurrent requesters of one cold key trigger exactly one
  build;
* **built** — the claim was won: the kernel is built (directly at the
  requested schedule point, or — with ``tune=True`` — by a generative sweep
  over the requested problem size, seeded from the store's nearest tuned
  shapes, whose winner is published with the sweep's own measurement of
  it), published durably, and the claim released;
* **degraded** — the durable store is unusable (read-only, full, failing):
  the kernel is built anyway and served from an in-memory session store,
  correct but not persisted (``kcache.degraded`` telemetry).

Failure is typed.  Whatever goes wrong underneath — injected or real — a
request either returns a bit-exact kernel or raises a
:class:`repro.errors.KernelCacheError` subclass:

* :class:`~repro.kcache.locks.ClaimTimeout` — the single per-request
  **deadline** lapsed.  One monotonic budget spans the whole request —
  lookup, claim contention, dedupe waits and every re-contention after a
  dead builder — so repeated re-contention cannot extend the caller's wait;
* :class:`repro.errors.BuildFailedError` — the build failed
  deterministically.  The key is **poisoned** (a TTL'd negative entry), so
  deduped followers and later requests fail fast instead of re-running the
  doomed build as a thundering retry storm;
* :class:`repro.errors.StoreUnavailableError` — transient store errors
  persisted through a build past the bounded :class:`RetryPolicy`
  (exponential backoff with deterministic per-key jitter; a claim or a
  publish that runs out of retries degrades instead).

Economics flow through :mod:`repro.telemetry.metrics`: ``kcache.hits`` /
``kcache.misses`` / ``kcache.builds`` counters (labelled by request mode),
``kcache.degraded`` / ``kcache.retries`` / ``kcache.poison.hits`` failure
telemetry, plus lookup/build/dedupe-wait second histograms.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from dataclasses import dataclass

from repro.context import current
from repro.errors import BuildFailedError, KernelCacheError, ReproError, StoreUnavailableError
from repro.kcache.keys import routine_key, shape_of
from repro.kcache.locks import STALE_CLAIM_S, ClaimTimeout, claim_build, wait_for
from repro.kcache.store import DEFAULT_POISON_TTL_S, KernelStore, StoreEntry
from repro.kcache.warmstart import SCHEDULE_FIELDS, warm_seed_candidates
from repro.telemetry.metrics import counter_inc, observe

__all__ = [
    "Deadline",
    "KernelReply",
    "RetryPolicy",
    "clear_session_store",
    "get_kernel",
]

#: Constant label tuples (the uninstalled facade path allocates nothing).
_DIRECT_LABELS = (("mode", "direct"),)
_TUNED_LABELS = (("mode", "tuned"),)
_RETRY_CLAIM = (("op", "claim"),)
_RETRY_PUT = (("op", "put"),)
_RETRY_BUILD = (("op", "build"),)
_DEGRADED_CLAIM = (("reason", "claim"),)
_DEGRADED_PUBLISH = (("reason", "publish"),)

#: OSError errnos worth retrying: the operation may succeed on a second try.
#: EROFS/ENOSPC/EACCES are deliberately absent — a read-only or full store
#: does not heal on a backoff schedule; those degrade immediately.
_TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EBUSY, errno.EINTR, errno.ESTALE}
)

class Deadline:
    """One monotonic per-request time budget.

    Armed once when the request starts; every phase — claim contention,
    dedupe waits, retry backoffs, re-contention after dead builders — draws
    from the same remainder, so the request as a whole cannot overstay
    ``timeout`` (the bug this replaces re-armed the wait budget on every
    re-contend cycle).
    """

    __slots__ = ("timeout", "_expires_at")

    def __init__(self, timeout: float) -> None:
        self.timeout = float(timeout)
        self._expires_at = time.monotonic() + self.timeout

    def remaining(self) -> float:
        """Seconds left (negative once the deadline has lapsed)."""
        return self._expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, activity: str) -> None:
        """Raise :class:`ClaimTimeout` when the budget is spent."""
        if self.expired:
            raise ClaimTimeout(
                f"request deadline of {self.timeout:.1f}s exhausted while {activity}"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transient store errors.

    ``attempts`` counts *retries* (so an operation runs at most
    ``attempts + 1`` times).  Jitter is deterministic per request: the
    service seeds its RNG from the routine key, so a replayed fault
    schedule observes identical backoff timing.
    """

    attempts: int = 3
    backoff_s: float = 0.02
    multiplier: float = 2.0
    max_backoff_s: float = 0.25
    jitter: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(self.backoff_s * self.multiplier**attempt, self.max_backoff_s)
        return base * (1.0 + self.jitter * rng.random())


#: The default policy of every request that does not bring its own.
DEFAULT_RETRY = RetryPolicy()


def _retrying(operation, op_labels, retry: RetryPolicy, rng: random.Random,
              deadline: Deadline):
    """``operation()``, retried on transient OS errors.

    Retries back off on ``retry``'s schedule while attempts and ``deadline``
    remain, each counted on ``kcache.retries`` under ``op_labels``.  Once
    they run out, or for any other error, the error propagates: what an
    exhausted operation means is the caller's decision.
    """
    attempt = 0
    while True:
        try:
            return operation()
        except OSError as exc:
            if (exc.errno not in _TRANSIENT_ERRNOS or attempt >= retry.attempts
                    or deadline.expired):
                raise
            counter_inc("kcache.retries", 1, op_labels)
            remaining = deadline.remaining()
            if remaining > 0:
                time.sleep(min(retry.delay(attempt, rng), remaining))
            attempt += 1


# --------------------------------------------------------------------------- #
# The in-memory session store (the bottom rung of the degradation ladder).     #
# --------------------------------------------------------------------------- #

_SESSION_LOCK = threading.Lock()
#: Correct-but-not-durable entries, keyed by (store root, routine key).
_SESSION_ENTRIES: dict[tuple[str, str], StoreEntry] = {}
#: In-process poison fallback when the marker cannot land on disk:
#: (store root, key) -> (expires_at, message).
_SESSION_POISON: dict[tuple[str, str], tuple[float, str]] = {}
#: Per-key build locks so concurrent degraded threads build once.
_SESSION_BUILD_LOCKS: dict[tuple[str, str], threading.Lock] = {}


def clear_session_store() -> None:
    """Drop every degraded session entry and in-process poison (tests)."""
    with _SESSION_LOCK:
        _SESSION_ENTRIES.clear()
        _SESSION_POISON.clear()
        _SESSION_BUILD_LOCKS.clear()


def _session_key(store: KernelStore, key: str) -> tuple[str, str]:
    return (str(store.root), key)


def _session_get(skey: tuple[str, str]) -> StoreEntry | None:
    with _SESSION_LOCK:
        return _SESSION_ENTRIES.get(skey)


def _park(store: KernelStore, key: str, meta: dict, artifacts: dict) -> StoreEntry:
    """Park an entry the durable store could not take in the session store.

    The entry is stamped ``durable=False`` and served as it is; later
    degraded requests of the key reuse it instead of building again.
    """
    entry = StoreEntry(key=key, meta={**meta, "durable": False}, artifacts=dict(artifacts))
    with _SESSION_LOCK:
        _SESSION_ENTRIES[_session_key(store, key)] = entry
    return entry


def _session_build_lock(skey: tuple[str, str]) -> threading.Lock:
    with _SESSION_LOCK:
        lock = _SESSION_BUILD_LOCKS.get(skey)
        if lock is None:
            lock = _SESSION_BUILD_LOCKS[skey] = threading.Lock()
        return lock


def _mark_poisoned(store: KernelStore, key: str, message: str, ttl_s: float) -> None:
    """Poison ``key`` durably, falling back to the in-process map."""
    if not store.mark_poisoned(key, message, ttl_s=ttl_s):
        with _SESSION_LOCK:
            _SESSION_POISON[_session_key(store, key)] = (time.time() + ttl_s, message)
        counter_inc("kcache.poisoned", 1)


def _check_poison(store: KernelStore, key: str, labels) -> None:
    """Raise :class:`BuildFailedError` when ``key`` carries live poison."""
    document = store.load_poison(key)
    message = str(document.get("error", "")) if document else None
    if message is None:
        skey = _session_key(store, key)
        with _SESSION_LOCK:
            entry = _SESSION_POISON.get(skey)
            if entry is not None:
                if entry[0] <= time.time():
                    del _SESSION_POISON[skey]
                else:
                    message = entry[1]
    if message is not None:
        counter_inc("kcache.poison.hits", 1, labels)
        raise BuildFailedError(
            f"build of {key!r} is poisoned (a recent build failed "
            f"deterministically): {message}",
            key=key,
        )


@dataclass(frozen=True)
class KernelReply:
    """One served request: the committed entry plus how it was obtained.

    ``source`` is ``"hit"`` (served from the store), ``"built"`` (this
    request won the claim and built the entry), ``"deduped"`` (another
    in-flight request built it; this one only waited) or ``"degraded"``
    (the durable store was unusable; the entry was built — or found in the
    in-memory session store — and served without durable publish).
    """

    key: str
    source: str
    entry: StoreEntry
    lookup_s: float = 0.0
    build_s: float = 0.0
    wait_s: float = 0.0

    @property
    def kernel(self):
        """The served kernel: the entry's optimized kernel."""
        return self.entry.artifacts["kernel_opt"]

    @property
    def durable(self) -> bool:
        """Whether the served entry is committed on disk."""
        return self.entry.durable

    @property
    def cycles(self) -> float | None:
        """Recorded simulated cycles of :attr:`kernel`, when measured."""
        return self.entry.metric("cycles")


def _resolve(workload, config, gpu):
    """Normalise the request triple to (workload obj, name, config, spec, gpu key)."""
    from repro.arch.specs import get_gpu_spec, normalize_gpu
    from repro.kernels.registry import get_workload

    obj = get_workload(workload) if isinstance(workload, str) else workload
    if config is None:
        config = obj.default_config()
    spec = get_gpu_spec(gpu) if isinstance(gpu, str) else gpu
    return obj, obj.name, config, spec, normalize_gpu(spec.name)


def _schedule_dict(config) -> dict:
    """The schedule knobs present on ``config`` (the warm-start seed record)."""
    return {
        name: getattr(config, name)
        for name in SCHEDULE_FIELDS
        if hasattr(config, name)
    }


def _entry_payload(workload, config, spec):
    """The artifacts and kernel hashes of a directly built point's entry.

    The entry holds only the kernel it serves, ``kernel_opt``: the pass
    pipeline run over the naive kernel.  The hashes name both kernels.  A
    swept entry holds the same two, taken from the sweep's best outcome.
    """
    from repro.opt.pipeline import optimize_kernel
    from repro.opt.rewrite import kernel_hash

    naive = workload.generate_naive(config)
    optimized = optimize_kernel(naive, spec).kernel
    return (
        {"kernel_opt": optimized},
        {"kernel": kernel_hash(naive), "kernel_opt": kernel_hash(optimized)},
    )


def _provenance_metrics(workload, config, cycles, gflops, efficiency) -> dict:
    """Measured cycles plus compulsory-traffic provenance for the meta document."""
    metrics = {
        "cycles": float(cycles),
        "gflops": float(gflops),
        "efficiency": float(efficiency),
    }
    try:
        resources = workload.resources(config)
        metrics["dram_bytes"] = float(resources.dram_bytes)
        metrics["flops"] = float(resources.flops)
    except ReproError:
        pass
    return metrics


def _build(store, key, workload, config, spec, gpu_key, *, tune, workers, warm_start, space):
    """Build ``key``'s entry; returns its composed (meta, payload, artifacts).

    With ``tune`` and a workload in
    :data:`repro.tile.autotune.SWEPT_WORKLOADS`, a generative sweep over the
    requested problem size picks the schedule point.  With ``warm_start``,
    the winners of the store's nearest tuned shapes seed the sweep
    (:func:`repro.kcache.warmstart.warm_seed_candidates`).  The winner is
    neither rebuilt nor simulated again: its entry publishes the optimized
    kernel the sweep measured, with that kernel's hash, its naive kernel's
    hash and the sweep's own measurement.

    Otherwise, or when nothing in the swept space is viable for the shape
    (e.g. every generative tile is structurally invalid), the requested
    point itself is built and simulated once.
    """
    from repro.opt.autotune import simulate_one_block
    from repro.tile.autotune import SWEPT_WORKLOADS, run_generative_sweep

    name = workload.name
    winner = None
    if tune and name in SWEPT_WORKLOADS:
        seeds = warm_seed_candidates(store, name, gpu_key, config) if warm_start else ()
        sweep = run_generative_sweep(
            spec, name, config, seeds=seeds, workers=workers, **(space or {})
        )
        winner = next((o for o in sweep.outcomes if o.ok), None)
    if winner is None:
        point = config
        artifacts, hashes = _entry_payload(workload, point, spec)
        result = simulate_one_block(spec, artifacts["kernel_opt"])
        metrics = _provenance_metrics(
            workload, point, result.cycles, result.gflops(spec), result.efficiency(spec)
        )
        extra = {"tune_mode": "direct"}
    else:
        point = winner.candidate.config
        artifacts = {"kernel_opt": winner.kernel}
        hashes = {"kernel": winner.naive_kernel_hash, "kernel_opt": winner.kernel_hash}
        metrics = _provenance_metrics(
            workload, point, winner.cycles, winner.gflops, winner.efficiency
        )
        metrics.update(
            sweep_candidates=float(sweep.prune.total),
            sweep_pruned=float(len(sweep.prune.pruned)),
            sweep_simulated=float(sweep.simulated),
            sweep_warm_seeds=float(len(sweep.seed_candidates)),
            sweep_warm_pruned=float(sweep.warm_pruned),
            sweep_seconds=float(sweep.total_elapsed_s),
        )
        extra = {
            "tune_mode": "sweep",
            "winner_label": winner.label,
            "winner_config": repr(point),
        }
    extra["winner_schedule"] = _schedule_dict(point)
    extra["shape"] = [list(pair) for pair in shape_of(config)]
    meta, payload = store.compose(
        key,
        kind="tuned",
        artifacts=artifacts,
        workload=name,
        gpu=gpu_key,
        config=config,
        kernel_hashes=hashes,
        metrics=metrics,
        extra=extra,
    )
    return meta, payload, artifacts


def _checked_build(
    builder, store, key, retry, rng, deadline, poison_ttl,
) -> StoreEntry:
    """Run ``builder`` with typed-failure semantics.

    Transient OS errors retry on the policy's backoff; exhausted retries
    raise :class:`StoreUnavailableError`.  Any deterministic failure
    poisons the key (TTL'd) and raises :class:`BuildFailedError`, so
    deduped followers fail fast instead of re-running the doomed build.
    :class:`KernelCacheError` and :class:`InjectedCrash` (simulated death)
    pass through untouched.
    """
    try:
        return _retrying(builder, _RETRY_BUILD, retry, rng, deadline)
    except KernelCacheError:
        raise
    except OSError as exc:
        raise StoreUnavailableError(
            f"store failed while building {key!r}: {exc}", key=key, cause=exc
        ) from exc
    except Exception as exc:
        _mark_poisoned(store, key, f"{type(exc).__name__}: {exc}", poison_ttl)
        raise BuildFailedError(
            f"build of {key!r} failed deterministically: {exc}",
            key=key,
            cause=exc,
        ) from exc


def get_kernel(
    workload,
    config=None,
    gpu="gtx580",
    *,
    tune: bool = False,
    store: KernelStore | None = None,
    workers: int | None = 1,
    warm_start: bool = True,
    space: dict | None = None,
    timeout: float = 120.0,
    stale_after: float = STALE_CLAIM_S,
) -> KernelReply:
    """Serve one kernel request from the store, deduping in-flight builds.

    Parameters
    ----------
    workload:
        Registry name (``"tile_sgemm"``) or a workload object.
    config:
        Workload configuration; ``None`` uses the workload's default.
    gpu:
        Machine description or its name (``"gtx580"``, ``"gtx680"``).
    tune:
        On a cold miss, run the generative sweep over the requested problem
        size and store its winner, instead of building the requested
        schedule point directly.
    store:
        Explicit store; defaults to the one installed in the process context
        (:func:`repro.context.current`), else the default root.
    workers:
        Process count of the sweep on a tuned cold miss.
    warm_start:
        Seed a tuned cold miss's sweep with the winners of the store's
        nearest tuned shapes.
    space:
        :func:`repro.tile.autotune.schedule_space` axes for the tuned sweep
        (e.g. ``{"tiles": (4, 8)}`` for small problems).
    timeout:
        The single per-request deadline (seconds).  One monotonic budget
        spans lookup, claim contention, dedupe waits and every
        re-contention; when it lapses the request raises
        :class:`~repro.kcache.locks.ClaimTimeout`.
    stale_after:
        Claim staleness threshold (seconds).

    Transient store errors back off on :data:`DEFAULT_RETRY`, and a
    deterministically failing build suppresses rebuilds of its key for
    :data:`repro.kcache.store.DEFAULT_POISON_TTL_S` seconds.

    Raises
    ------
    KernelCacheError
        Every failure mode is a subclass: :class:`ClaimTimeout`,
        :class:`repro.errors.BuildFailedError` (deterministic build
        failures and poisoned keys), :class:`repro.errors
        .StoreUnavailableError` (store errors past retries).
    """
    obj, name, config, spec, gpu_key = _resolve(workload, config, gpu)
    if store is None:
        store = current().store or KernelStore()
    key = routine_key(name, config, gpu_key)
    labels = _TUNED_LABELS if tune else _DIRECT_LABELS
    deadline = Deadline(timeout)

    started = time.perf_counter()
    entry = store.load(key)
    lookup_s = time.perf_counter() - started
    if entry is not None:
        counter_inc("kcache.hits", 1, labels)
        observe("kcache.lookup_seconds", lookup_s)
        return KernelReply(key=key, source="hit", entry=entry, lookup_s=lookup_s)
    counter_inc("kcache.misses", 1, labels)
    rng = random.Random(key)  # deterministic jitter: replayed schedules replay

    def build_reply(durable: bool) -> KernelReply:
        """Build the entry, publish it (``durable``) or park it, and reply."""

        def build() -> StoreEntry:
            meta, payload, artifacts = _build(
                store, key, obj, config, spec, gpu_key,
                tune=tune, workers=workers, warm_start=warm_start, space=space,
            )
            if durable:
                try:
                    return _retrying(
                        lambda: store.publish(key, meta, payload, artifacts),
                        _RETRY_PUT, DEFAULT_RETRY, rng, deadline,
                    )
                except OSError:
                    # Read-only, full, or failing past the retries: the
                    # build is served from memory, not thrown away.
                    counter_inc("kcache.degraded", 1, _DEGRADED_PUBLISH)
            return _park(store, key, meta, artifacts)

        built_at = time.perf_counter()
        entry = _checked_build(
            build, store, key, DEFAULT_RETRY, rng, deadline, DEFAULT_POISON_TTL_S
        )
        build_s = time.perf_counter() - built_at
        counter_inc("kcache.builds", 1, labels)
        observe("kcache.build_seconds", build_s)
        source = "built" if entry.durable else "degraded"
        return KernelReply(key=key, source=source, entry=entry, build_s=build_s,
                           lookup_s=lookup_s)

    while True:
        deadline.check(f"contending for the build claim of {key!r}")
        _check_poison(store, key, labels)
        try:
            claim = _retrying(
                lambda: claim_build(store.lock_path(key), stale_after=stale_after),
                _RETRY_CLAIM, DEFAULT_RETRY, rng, deadline,
            )
        except OSError:
            # Claims fail (read-only, full, or failing past the retries):
            # build anyway and serve from the in-memory session store.
            counter_inc("kcache.degraded", 1, _DEGRADED_CLAIM)
            skey = _session_key(store, key)
            entry = _session_get(skey)
            if entry is None:
                with _session_build_lock(skey):
                    entry = _session_get(skey)
                    if entry is None:
                        _check_poison(store, key, labels)
                        return build_reply(durable=False)
            return KernelReply(key=key, source="degraded", entry=entry, lookup_s=lookup_s)
        if claim is not None:
            with claim:
                # A racer may have published between our miss and our claim.
                entry = store.load(key)
                if entry is not None:
                    counter_inc("kcache.hits", 1, labels)
                    return KernelReply(key=key, source="hit", entry=entry, lookup_s=lookup_s)
                return build_reply(durable=True)
        waited_at = time.perf_counter()
        entry = wait_for(
            lambda: store.load(key),
            store.lock_path(key),
            timeout=max(deadline.remaining(), 0.0),
            stale_after=stale_after,
        )
        wait_s = time.perf_counter() - waited_at
        if entry is not None:
            counter_inc("kcache.dedupe.waits", 1, labels)
            observe("kcache.dedupe.wait_seconds", wait_s)
            return KernelReply(key=key, source="deduped", entry=entry, wait_s=wait_s,
                               lookup_s=lookup_s)
        # The claim holder died without publishing: re-contend the claim
        # (the deadline check at the top of the loop bounds the whole wait).
