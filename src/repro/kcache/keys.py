"""Canonical routine keys: the durable identity of one tuned kernel request.

A routine key names *what was asked for* — workload, problem shape, schedule
configuration and GPU — in one filesystem-safe string, the way yateto's
``generateRoutineName`` names a GEMM variant.  Two processes that build the
same request derive the same key byte-for-byte, which is what lets the
on-disk store (:mod:`repro.kcache.store`) dedupe work across processes and
survive restarts.

Key grammar::

    <workload>_<shape>_<gpu>[_db]_<digest12>

* ``workload`` — the registry name (``tile_sgemm``, ``sgemv``, ...);
* ``shape`` — the problem dimensions present on the configuration, in
  ``m193_n161_k97`` form (dimension letters are fixed: ``m``/``n``/``k``);
* ``gpu`` — the short GPU key (:func:`repro.arch.specs.normalize_gpu`:
  ``"GeForce GTX 580"`` → ``gtx580``), or ``any`` for GPU-independent
  artifacts (scheduling and lowering do not consult the machine model);
* ``db`` — present when the configuration double-buffers, the one schedule
  flag worth surfacing to humans (it doubles the footprint class);
* ``digest12`` — 12 hex chars of SHA-256 over the configuration ``repr``.
  Configurations are frozen dataclasses with deterministic, value-complete
  reprs (the same identity :func:`repro.telemetry.ledger.config_digest`
  keys on), so the digest pins *every* knob, readable or not.

>>> from repro.tile.workloads import TileSgemmConfig
>>> key = routine_key("tile_sgemm", TileSgemmConfig(m=193, n=161, k=97,
...                                                 double_buffer=True), "gtx580")
>>> key.startswith("tile_sgemm_m193_n161_k97_gtx580_db_")
True
>>> len(key.rsplit("_", 1)[1])
12
"""

from __future__ import annotations

import hashlib
import re

__all__ = ["KEY_DIGEST_CHARS", "SHAPE_FIELDS", "routine_key", "shard_of", "shape_of"]

#: Hex chars of the configuration digest embedded in every key.
KEY_DIGEST_CHARS = 12

#: Problem-shape fields looked up (in order) on a configuration.
SHAPE_FIELDS = ("m", "n", "k")

#: Characters a key may contain (enforced — keys name files and directories).
_SAFE = re.compile(r"^[a-z0-9_.\-]+$")


def config_fingerprint(config: object) -> str:
    """The full SHA-256 hex digest of ``config``'s deterministic repr."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()


def shape_of(config: object) -> tuple[tuple[str, int], ...]:
    """The problem dimensions present on ``config`` as ``((dim, size), ...)``.

    >>> from repro.tile.workloads import TileTransposeConfig
    >>> shape_of(TileTransposeConfig(m=29, n=23))
    (('m', 29), ('n', 23))
    """
    dims = []
    for field in SHAPE_FIELDS:
        value = getattr(config, field, None)
        if isinstance(value, int):
            dims.append((field, value))
    return tuple(dims)


def routine_key(workload: str, config: object, gpu: object = None) -> str:
    """The canonical key of one ``(workload, config, gpu)`` request.

    ``gpu`` may be a machine description, a GPU name, or None/``"any"`` for
    GPU-independent artifacts (scheduled procs and lowered kernels).
    """
    from repro.arch.specs import normalize_gpu

    if gpu is None:
        gpu_key = "any"
    else:
        name = getattr(gpu, "name", gpu)
        gpu_key = normalize_gpu(str(name)) or "any"
    parts = [workload]
    parts.extend(f"{dim}{size}" for dim, size in shape_of(config))
    parts.append(gpu_key)
    if getattr(config, "double_buffer", False):
        parts.append("db")
    parts.append(config_fingerprint(config)[:KEY_DIGEST_CHARS])
    key = "_".join(parts).lower()
    if not _SAFE.match(key):
        raise ValueError(f"routine key contains unsafe characters: {key!r}")
    return key


def shard_of(key: str) -> str:
    """The two-hex-char shard directory ``key`` lives under.

    Sharding hashes the *key* (not the config) so every entry kind — tuned
    winners, build artifacts, simulation records — distributes uniformly
    even when keys share long human-readable prefixes.
    """
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:2]
