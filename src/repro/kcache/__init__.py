"""Persistent content-addressed kernel cache.

The durable answer to "every process re-runs scheduling, lowering, the opt
pipeline and the sweep": canonical routine keys (:mod:`repro.kcache.keys`)
over a sharded atomic-rename store (:mod:`repro.kcache.store`), fronted by
:func:`get_kernel` (:mod:`repro.kcache.service`) which serves warm hits in
O(lookup), dedupes in-flight builds with lock-file claims
(:mod:`repro.kcache.locks`) and warm-starts cold sweeps from the nearest
cached shapes (:mod:`repro.kcache.warmstart`).

See ``docs/kcache.md`` for the key grammar, store layout and protocols.
"""

from repro.kcache.keys import (
    KEY_DIGEST_CHARS,
    SHAPE_FIELDS,
    config_fingerprint,
    routine_key,
    shard_of,
    shape_of,
)
from repro.kcache.locks import BuildClaim, ClaimTimeout, claim_build, wait_for
from repro.kcache.service import (
    DEFAULT_RETRY,
    Deadline,
    KernelReply,
    RetryPolicy,
    clear_session_store,
    get_kernel,
)
from repro.kcache.store import (
    DEFAULT_KCACHE_ROOT,
    DEFAULT_POISON_TTL_S,
    KCACHE_SCHEMA,
    DoctorReport,
    GcReport,
    KernelStore,
    StoreEntry,
    StoreStats,
)
from repro.kcache.warmstart import (
    SCHEDULE_FIELDS,
    WarmSeed,
    block_cycle_floor,
    nearest_tuned,
    shape_distance,
    warm_seed_configs,
)

__all__ = [
    "DEFAULT_KCACHE_ROOT",
    "DEFAULT_POISON_TTL_S",
    "DEFAULT_RETRY",
    "KCACHE_SCHEMA",
    "KEY_DIGEST_CHARS",
    "SCHEDULE_FIELDS",
    "SHAPE_FIELDS",
    "BuildClaim",
    "ClaimTimeout",
    "Deadline",
    "DoctorReport",
    "GcReport",
    "KernelReply",
    "RetryPolicy",
    "KernelStore",
    "StoreEntry",
    "StoreStats",
    "WarmSeed",
    "block_cycle_floor",
    "claim_build",
    "clear_session_store",
    "config_fingerprint",
    "get_kernel",
    "nearest_tuned",
    "routine_key",
    "shape_distance",
    "shape_of",
    "shard_of",
    "wait_for",
    "warm_seed_configs",
]
