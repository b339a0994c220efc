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
  persisted past the bounded :class:`RetryPolicy` (exponential backoff with
  deterministic per-key jitter).

Economics flow through :mod:`repro.telemetry.metrics`: ``kcache.hits`` /
``kcache.misses`` / ``kcache.builds`` counters (labelled by request mode),
``kcache.degraded`` / ``kcache.retries`` / ``kcache.poison.hits`` failure
telemetry, plus lookup/build/dedupe-wait second histograms.
"""

from __future__ import annotations

import errno
import functools
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


def _transient(exc: OSError) -> bool:
    return exc.errno in _TRANSIENT_ERRNOS


def _sleep_backoff(
    retry: RetryPolicy, attempt: int, rng: random.Random, deadline: Deadline
) -> None:
    remaining = deadline.remaining()
    if remaining > 0:
        time.sleep(min(retry.delay(attempt, rng), remaining))


class _StoreUnusable(Exception):
    """Internal signal: the durable store rejected an essential operation."""

    def __init__(self, reason_labels, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.reason_labels = reason_labels
        self.cause = cause


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
    def proc(self):
        """The scheduled Proc, when the workload has one."""
        return self.entry.artifacts.get("proc")

    @property
    def kernel(self):
        """The served kernel: the optimized one, else the naive one."""
        return self.entry.artifacts.get("kernel_opt") or self.entry.artifacts.get("kernel")

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


def _entry_payload(workload, config, spec, *, optimize: bool = True):
    """Build the artifact dict and kernel hashes for one schedule point.

    The entry holds only the kernel it serves: ``kernel_opt``, the pass
    pipeline run over the naive kernel, or ``kernel`` itself when
    ``optimize`` is off.  The hashes name both.  The scheduled proc comes
    from the workload's memo, so a point the sweep already scheduled
    in-process is not scheduled again.
    """
    from repro.opt.pipeline import optimize_kernel
    from repro.opt.rewrite import kernel_hash

    artifacts: dict = {}
    hashes: dict[str, str] = {}
    cached_proc = getattr(workload, "cached_scheduled_proc", None)
    if cached_proc is not None:
        artifacts["proc"] = cached_proc(config)
    naive = workload.generate_naive(config)
    hashes["kernel"] = kernel_hash(naive)
    if optimize:
        optimized = optimize_kernel(naive, spec).kernel
        artifacts["kernel_opt"] = optimized
        hashes["kernel_opt"] = kernel_hash(optimized)
    else:
        artifacts["kernel"] = naive
    return artifacts, hashes


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


def _build_direct(publish, key, workload, name, config, spec, gpu_key):
    """Cold-miss path without tuning: build the requested point and publish."""
    from repro.opt.autotune import simulate_one_block

    artifacts, hashes = _entry_payload(workload, config, spec)
    result = simulate_one_block(spec, artifacts["kernel_opt"])
    return publish(
        key,
        kind="tuned",
        artifacts=artifacts,
        workload=name,
        gpu=gpu_key,
        config=config,
        kernel_hashes=hashes,
        metrics=_provenance_metrics(
            workload, config, result.cycles, result.gflops(spec), result.efficiency(spec)
        ),
        extra={
            "tune_mode": "direct",
            "winner_schedule": _schedule_dict(config),
            "shape": [list(pair) for pair in shape_of(config)],
        },
    )


def _build_tuned(
    publish, store, key, workload, name, config, spec, gpu_key,
    *, workers, warm_start, space,
):
    """Cold-miss path with tuning: a sweep over the requested problem size.

    Workloads outside :data:`repro.tile.autotune.SWEPT_WORKLOADS` have no
    schedule space to sweep and fall back to a direct build at the
    requested configuration.  With ``warm_start``, the winners of the
    store's nearest tuned shapes seed the sweep
    (:func:`repro.kcache.warmstart.warm_seed_candidates`).

    The winner is not simulated again: its entry publishes the sweep's own
    measurement once the rebuilt kernel's content hash matches the one the
    sweep simulated.  A mismatch fails the build: the key is poisoned and
    nothing is published.
    """
    from repro.tile.autotune import SWEPT_WORKLOADS, run_generative_sweep

    if name not in SWEPT_WORKLOADS:
        return _build_direct(publish, key, workload, name, config, spec, gpu_key)
    seeds = warm_seed_candidates(store, name, gpu_key, config) if warm_start else ()
    sweep = run_generative_sweep(
        spec, name, config, seeds=seeds, workers=workers, **(space or {})
    )
    winner = next((o for o in sweep.outcomes if o.ok), None)
    if winner is None:
        # Nothing in the swept space was viable for this shape (e.g. every
        # generative tile is structurally invalid): the requested point
        # itself is still buildable.
        return _build_direct(publish, key, workload, name, config, spec, gpu_key)
    candidate = winner.candidate
    artifacts, hashes = _entry_payload(
        workload, candidate.config, spec, optimize=candidate.optimize
    )
    rebuilt = hashes.get("kernel_opt", hashes["kernel"])
    if rebuilt != winner.kernel_hash:
        # A ReproError, not a KernelCacheError: _checked_build passes the
        # latter through unpoisoned.
        raise ReproError(
            f"sweep winner {winner.label!r} rebuilt to kernel {rebuilt[:12]}, "
            f"not the measured {winner.kernel_hash[:12]}"
        )
    metrics = _provenance_metrics(
        workload, candidate.config, winner.cycles, winner.gflops, winner.efficiency
    )
    metrics.update(
        sweep_candidates=float(sweep.prune.total),
        sweep_pruned=float(len(sweep.prune.pruned)),
        sweep_simulated=float(len(sweep.outcomes)),
        sweep_warm_seeds=float(len(sweep.seed_candidates)),
        sweep_warm_pruned=float(sweep.warm_pruned),
        sweep_seconds=float(sweep.total_elapsed_s),
    )
    return publish(
        key,
        kind="tuned",
        artifacts=artifacts,
        workload=name,
        gpu=gpu_key,
        config=config,
        kernel_hashes=hashes,
        metrics=metrics,
        extra={
            "tune_mode": "sweep",
            "winner_label": winner.label,
            "winner_config": repr(candidate.config),
            "winner_schedule": _schedule_dict(candidate.config),
            "shape": [list(pair) for pair in shape_of(config)],
        },
    )


# --------------------------------------------------------------------------- #
# Hardened plumbing: retrying claim/publish, checked builds.                   #
# --------------------------------------------------------------------------- #


def _claim_with_retry(store, key, retry, rng, deadline, stale_after):
    """claim_build with transient-error retries; degrades on hard failure."""
    attempt = 0
    while True:
        try:
            return claim_build(store.lock_path(key), stale_after=stale_after)
        except OSError as exc:
            if _transient(exc) and attempt < retry.attempts and not deadline.expired:
                counter_inc("kcache.retries", 1, _RETRY_CLAIM)
                _sleep_backoff(retry, attempt, rng, deadline)
                attempt += 1
                continue
            raise _StoreUnusable(_DEGRADED_CLAIM, exc) from exc


def _durable_publish(store, retry, rng, deadline, key, **kwargs):
    """store.put with transient-error retries; degrades to the session store.

    When the durable store rejects the publish outright (read-only, full,
    or retries exhausted), the freshly built artifacts are *not* discarded:
    the composed entry is stamped non-durable, parked in the session store
    and served — build-and-serve without durable publish.
    """
    artifacts = kwargs["artifacts"]
    meta, payload = store.compose(key, **kwargs)
    attempt = 0
    while True:
        try:
            return store.publish(key, meta, payload, artifacts)
        except OSError as exc:
            if _transient(exc) and attempt < retry.attempts and not deadline.expired:
                counter_inc("kcache.retries", 1, _RETRY_PUT)
                _sleep_backoff(retry, attempt, rng, deadline)
                attempt += 1
                continue
            counter_inc("kcache.degraded", 1, _DEGRADED_PUBLISH)
            meta = dict(meta)
            meta["durable"] = False
            entry = StoreEntry(key=key, meta=meta, artifacts=dict(artifacts))
            with _SESSION_LOCK:
                _SESSION_ENTRIES[_session_key(store, key)] = entry
            return entry


def _session_publish(store, key, **kwargs):
    """Compose an entry in memory only (the degraded build's publish)."""
    meta, _payload = store.compose(key, **kwargs)
    meta["durable"] = False
    entry = StoreEntry(key=key, meta=meta, artifacts=dict(kwargs["artifacts"]))
    with _SESSION_LOCK:
        _SESSION_ENTRIES[_session_key(store, key)] = entry
    return entry


def _checked_build(
    builder, store, key, retry, rng, deadline, poison_ttl,
) -> StoreEntry:
    """Run ``builder`` with typed-failure semantics.

    Transient OS errors retry on the policy's backoff; exhausted retries
    raise :class:`StoreUnavailableError`.  Any deterministic failure
    poisons the key (TTL'd) and raises :class:`BuildFailedError`, so
    deduped followers fail fast instead of re-running the doomed build.
    :class:`InjectedCrash` (simulated death) passes through untouched.
    """
    attempt = 0
    while True:
        try:
            return builder()
        except KernelCacheError:
            raise
        except OSError as exc:
            if _transient(exc) and attempt < retry.attempts and not deadline.expired:
                counter_inc("kcache.retries", 1, _RETRY_BUILD)
                _sleep_backoff(retry, attempt, rng, deadline)
                attempt += 1
                continue
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


def _degraded_request(
    store, key, builder_factory, labels, reason_labels, deadline, retry, rng,
    poison_ttl, lookup_s,
) -> KernelReply:
    """Serve ``key`` from the in-memory session store, building if needed."""
    counter_inc("kcache.degraded", 1, reason_labels)
    skey = _session_key(store, key)
    entry = _session_get(skey)
    if entry is not None:
        return KernelReply(key=key, source="degraded", entry=entry, lookup_s=lookup_s)
    with _session_build_lock(skey):
        entry = _session_get(skey)
        if entry is not None:
            return KernelReply(key=key, source="degraded", entry=entry, lookup_s=lookup_s)
        _check_poison(store, key, labels)
        session_publish = functools.partial(_session_publish, store)
        built_at = time.perf_counter()
        entry = _checked_build(
            builder_factory(session_publish), store, key, retry, rng, deadline,
            poison_ttl,
        )
        build_s = time.perf_counter() - built_at
    counter_inc("kcache.builds", 1, labels)
    observe("kcache.build_seconds", build_s)
    return KernelReply(
        key=key, source="degraded", entry=entry, build_s=build_s, lookup_s=lookup_s
    )


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
    retry: RetryPolicy | None = None,
    poison_ttl: float = DEFAULT_POISON_TTL_S,
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
    retry:
        Backoff policy for transient store errors (:data:`DEFAULT_RETRY`
        when None).
    poison_ttl:
        How long a deterministically failing build suppresses rebuilds of
        its key (seconds).

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
    retry = DEFAULT_RETRY if retry is None else retry
    rng = random.Random(key)  # deterministic jitter: replayed schedules replay
    deadline = Deadline(timeout)

    def builder_factory(publish):
        if tune:
            return lambda: _build_tuned(
                publish, store, key, obj, name, config, spec, gpu_key,
                workers=workers, warm_start=warm_start, space=space,
            )
        return lambda: _build_direct(publish, key, obj, name, config, spec, gpu_key)

    started = time.perf_counter()
    entry = store.load(key)
    lookup_s = time.perf_counter() - started
    if entry is not None:
        counter_inc("kcache.hits", 1, labels)
        observe("kcache.lookup_seconds", lookup_s)
        return KernelReply(key=key, source="hit", entry=entry, lookup_s=lookup_s)
    counter_inc("kcache.misses", 1, labels)

    while True:
        deadline.check(f"contending for the build claim of {key!r}")
        _check_poison(store, key, labels)
        try:
            claim = _claim_with_retry(store, key, retry, rng, deadline, stale_after)
        except _StoreUnusable as unusable:
            return _degraded_request(
                store, key, builder_factory, labels, unusable.reason_labels,
                deadline, retry, rng, poison_ttl, lookup_s,
            )
        if claim is not None:
            with claim:
                # A racer may have published between our miss and our claim.
                entry = store.load(key)
                if entry is not None:
                    counter_inc("kcache.hits", 1, labels)
                    return KernelReply(key=key, source="hit", entry=entry, lookup_s=lookup_s)
                durable_publish = functools.partial(
                    _durable_publish, store, retry, rng, deadline
                )
                built_at = time.perf_counter()
                entry = _checked_build(
                    builder_factory(durable_publish), store, key, retry, rng,
                    deadline, poison_ttl,
                )
                build_s = time.perf_counter() - built_at
            counter_inc("kcache.builds", 1, labels)
            observe("kcache.build_seconds", build_s)
            source = "built" if entry.durable else "degraded"
            return KernelReply(key=key, source=source, entry=entry, build_s=build_s,
                               lookup_s=lookup_s)
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
