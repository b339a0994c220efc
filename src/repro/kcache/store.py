"""The durable, sharded, content-addressed kernel store.

One entry per routine key (:mod:`repro.kcache.keys`), laid out as::

    .repro/kcache/<shard>/<key>.json   # meta: the commit marker
    .repro/kcache/<shard>/<key>.pkl    # pickled artifacts (the served kernel)

Write discipline (the segment-file lesson of :mod:`repro.telemetry.ledger`,
applied to two-file entries):

* each file is written to a ``.tmp-<pid>-<seq>`` sibling and published with
  :func:`os.replace` — readers never observe a half-written file;
* the payload is published *first*, the meta last: the meta is the commit
  marker, and it carries the payload's SHA-256 and byte count, so a reader
  that finds a meta whose payload is missing, truncated or torn detects the
  mismatch, discards the entry and rebuilds — a damaged entry can cost a
  rebuild, never a wrong kernel;
* concurrent writers of the same key race benignly: both publish complete
  entries and the last :func:`os.replace` wins atomically.

Artifacts are pickled because bit-exactness is the contract: a reloaded
kernel must hash (:func:`repro.opt.rewrite.kernel_hash`) identically to a
fresh schedule→lower→optimize run, including the provenance tags and control
notations a text round-trip would drop.  Integrity is checked against the
pickle bytes' SHA-256 (cheap), not by re-hashing the kernel on every read.
A kernel entry holds the one kernel it serves and nothing else.  A
kernel pickles its declared fields only, and each instruction and each
encoding pickles as one call of a module-level reconstructor
(``repro.isa.instructions._rebuild_instruction``,
``repro.isa.encoding._rebuild_encoded``) that takes the fields nearly every
instance sets by position and only the non-default rest by name.  What an
analysis cached on them is recomputed on use, and each register is a
reference to the one :class:`repro.isa.registers.Register` of its index, so
the bytes a hit reads and unpickles are the kernel's content and nothing
else.  A kernel holds one object per distinct instruction (and encoding),
so the pickle memo writes each once and every repeat as a reference, and
a hit unpickles each once.  A hit checks the payload's SHA-256 first and
then unpickles it with the cyclic collector paused: the thousands of
objects a kernel unpickles to would otherwise set off collections that
find nothing to free.

Every filesystem operation passes through a named :mod:`repro.faults` fault
point (``kcache.store.payload.write`` … ``kcache.store.read.payload``), so
seeded chaos schedules can tear writes, fill the disk, or kill the process
between the payload landing and the meta committing — and the two-file
discipline is what keeps every such schedule recoverable.

Beyond entries, the store keeps two kinds of side records:

* **poison markers** (``<key>.poison``) — a deterministically failing build
  writes one so deduped followers fail fast (:class:`repro.errors
  .BuildFailedError`) instead of re-running the doomed build; the marker
  carries a TTL and expires on read;
* **build claims** (``<key>.lock``, :mod:`repro.kcache.locks`).

:meth:`KernelStore.doctor` is the offline counterpart of the self-healing
read path: it checksum-verifies every entry, finds orphan payloads, stale
tmp files, dead claims and expired poison, and (with ``repair=True``)
removes them.

Like the metrics facade and the run ledger, the store can be installed in
the process context: ``repro.context.session(store=KernelStore(root))`` sets
the store that :func:`repro.kcache.get_kernel` requests naming none use, and
that warm-started sweeps read their neighbours from.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Iterator

from repro.errors import StoreCorruptionError
from repro.faults import fault_mutate, fault_point
from repro.kcache.keys import shard_of

__all__ = [
    "DEFAULT_KCACHE_ROOT",
    "DEFAULT_POISON_TTL_S",
    "KCACHE_SCHEMA",
    "DoctorReport",
    "GcReport",
    "KernelStore",
    "StoreEntry",
    "StoreStats",
]

#: Entry format version, stamped into every meta; no reader checks it.
#: Schema 2: kernels pickle their declared fields only, and an entry holds
#: one kernel beside the scheduled proc.  Schema 3: instructions and
#: encodings pickle through their reconstructors.  Schema 4: an entry holds
#: ``kernel_opt`` alone.  Schema-1 to schema-3 entries still serve their
#: ``kernel_opt`` (their other artifacts are ignored), and schema-3 code
#: serves a schema-4 entry as a hit.  Code older than schema 3 cannot find
#: the reconstructors a payload names, so it finds the payload unpicklable,
#: discards it and rebuilds: it never serves a wrong kernel.  A schema-4
#: payload written since kernels hold one object per distinct instruction
#: writes each shared instruction and encoding once through the pickle
#: memo; it names the same reconstructors, so it keeps schema 4, and any
#: schema-3 or schema-4 reader loads it to an equal kernel.
KCACHE_SCHEMA = 4

#: Where the store lives unless told otherwise (relative to the CWD).
DEFAULT_KCACHE_ROOT = ".repro/kcache"

#: How long a poison marker suppresses rebuilds of its key (seconds).
DEFAULT_POISON_TTL_S = 60.0

#: Claims older than this count as stale in a doctor pass (seconds).
STALE_CLAIM_DOCTOR_S = 300.0

#: Per-process temp-file sequence (uniquifies concurrent writes in one pid).
_TMP_SEQ = iter(range(1, 1 << 62))

#: Fault-point site triples (write/mutate, pre-commit, post-commit) per file
#: role.  Constant tuples so the uninstalled facade path allocates nothing.
_PAYLOAD_SITES = (
    "kcache.store.payload.write",
    "kcache.store.payload.commit",
    "kcache.store.payload.committed",
)
_META_SITES = (
    "kcache.store.meta.write",
    "kcache.store.meta.commit",
    "kcache.store.meta.committed",
)
_POISON_SITES = (
    "kcache.store.poison.write",
    "kcache.store.poison.commit",
    "kcache.store.poison.committed",
)


def _checked_artifacts(meta: dict, payload: bytes) -> tuple[dict | None, str]:
    """``payload``'s artifacts, or why the commit marker ``meta`` disowns it.

    Byte count and SHA-256 are checked before anything is unpickled, and the
    cyclic collector is paused around ``pickle.loads`` only (its state is
    restored whatever happens): the thousands of objects a kernel unpickles
    to would set off collections that find nothing to free.  Returns
    ``(artifacts, "")`` or ``(None, reason)``.
    """
    if len(payload) != meta.get("payload_bytes"):
        return None, f"payload is {len(payload)} bytes, meta committed {meta.get('payload_bytes')}"
    if sha256(payload).hexdigest() != meta.get("payload_sha256"):
        return None, "payload SHA-256 disagrees with the commit marker"
    collecting = gc.isenabled()
    gc.disable()
    try:
        return pickle.loads(payload), ""
    except Exception:  # pickle raises broadly on hostile/torn bytes
        return None, "payload does not unpickle"
    finally:
        if collecting:
            gc.enable()


@dataclass(frozen=True)
class StoreEntry:
    """One loaded store entry: the meta document plus the artifact dict.

    ``meta`` is the committed JSON object (key, kind, workload, gpu, config
    repr, kernel hashes, metrics, provenance, payload checksum).
    ``artifacts`` maps artifact names to the unpickled objects.  An entry of
    :func:`repro.kcache.get_kernel` holds exactly the kernel it serves,
    ``"kernel_opt"``; its ``meta["kernel_hashes"]`` names both the naive and
    the optimized kernel.
    """

    key: str
    meta: dict
    artifacts: dict

    @property
    def kind(self) -> str:
        """What produced the entry: ``"build"``, ``"tuned"``, ..."""
        return str(self.meta.get("kind", ""))

    @property
    def durable(self) -> bool:
        """Whether the entry was committed to disk (False = degraded/in-memory)."""
        return bool(self.meta.get("durable", True))

    def metric(self, name: str) -> float | None:
        """One numeric metric from the meta, or None."""
        value = self.meta.get("metrics", {}).get(name)
        return float(value) if isinstance(value, (int, float)) else None


@dataclass(frozen=True)
class StoreStats:
    """Aggregate figures of one store: entry counts and on-disk bytes."""

    entries: int
    total_bytes: int
    by_kind: dict[str, int] = field(default_factory=dict)
    corrupt_discarded: int = 0


@dataclass(frozen=True)
class GcReport:
    """Outcome of one :meth:`KernelStore.gc` pass."""

    evicted: tuple[str, ...]
    freed_bytes: int
    kept_bytes: int
    stale_locks_removed: int = 0


@dataclass(frozen=True)
class DoctorReport:
    """Outcome of one :meth:`KernelStore.doctor` pass.

    ``torn`` maps damaged keys to what is wrong with them; after a repair
    pass those keys move to ``repaired`` instead.  ``clean`` is the CI
    contract: nothing torn, orphaned or stale remains on disk.
    """

    ok: tuple[str, ...] = ()
    torn: dict[str, str] = field(default_factory=dict)
    repaired: tuple[str, ...] = ()
    orphan_payloads: tuple[str, ...] = ()
    tmp_files_removed: int = 0
    tmp_files: int = 0
    stale_claims: int = 0
    live_claims: int = 0
    poisoned: tuple[str, ...] = ()
    expired_poison: int = 0

    @property
    def clean(self) -> bool:
        """No torn entries, orphans, stray tmp files or stale claims remain."""
        return not self.torn and not self.orphan_payloads and not self.tmp_files \
            and not self.stale_claims

    def as_dict(self) -> dict:
        """JSON-safe view (the ``scripts/kcache.py doctor --json`` document)."""
        return {
            "ok": list(self.ok),
            "torn": dict(self.torn),
            "repaired": list(self.repaired),
            "orphan_payloads": list(self.orphan_payloads),
            "tmp_files": self.tmp_files,
            "tmp_files_removed": self.tmp_files_removed,
            "stale_claims": self.stale_claims,
            "live_claims": self.live_claims,
            "poisoned": list(self.poisoned),
            "expired_poison": self.expired_poison,
            "clean": self.clean,
        }


class KernelStore:
    """A sharded on-disk kernel store rooted at one directory."""

    def __init__(self, root: str | os.PathLike = DEFAULT_KCACHE_ROOT) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # Paths.                                                              #
    # ------------------------------------------------------------------ #

    def meta_path(self, key: str) -> Path:
        return self.root / shard_of(key) / f"{key}.json"

    def payload_path(self, key: str) -> Path:
        return self.root / shard_of(key) / f"{key}.pkl"

    def lock_path(self, key: str) -> Path:
        return self.root / shard_of(key) / f"{key}.lock"

    def poison_path(self, key: str) -> Path:
        return self.root / shard_of(key) / f"{key}.poison"

    def _publish(
        self, path: Path, data: bytes, sites: tuple[str, str, str] | None = None
    ) -> None:
        """Atomically place ``data`` at ``path`` (tmp file + rename).

        ``sites`` names the (write, pre-commit, post-commit) fault points;
        a torn fault at the write site truncates/corrupts the bytes that
        land, a crash at the commit sites models dying before/after the
        rename.  ``None`` publishes without fault points (internal callers
        that rewrite already-committed documents, e.g. gc bookkeeping).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        if sites is not None:
            fault_point(sites[0])
            data = fault_mutate(sites[0], data)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{next(_TMP_SEQ)}")
        with open(tmp, "wb") as handle:
            handle.write(data)
        if sites is not None:
            fault_point(sites[1])
        os.replace(tmp, path)
        if sites is not None:
            fault_point(sites[2])

    # ------------------------------------------------------------------ #
    # Write / read.                                                       #
    # ------------------------------------------------------------------ #

    def compose(
        self,
        key: str,
        *,
        kind: str,
        artifacts: dict,
        workload: str = "",
        gpu: str = "",
        config: object = None,
        kernel_hashes: dict[str, str] | None = None,
        metrics: dict | None = None,
        extra: dict | None = None,
    ) -> tuple[dict, bytes]:
        """The (meta, payload) pair of one entry, composed but unpublished.

        The degraded serving path uses this to stamp an in-memory entry with
        the same meta document a durable publish would have committed.
        """
        from repro.telemetry.ledger import environment_provenance

        payload = pickle.dumps(artifacts, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {
            "schema": KCACHE_SCHEMA,
            "key": key,
            "kind": kind,
            "workload": workload,
            "gpu": gpu,
            "config": "" if config is None else repr(config),
            "kernel_hashes": dict(kernel_hashes or {}),
            "metrics": dict(metrics or {}),
            "artifacts": sorted(artifacts),
            "payload_sha256": sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "provenance": environment_provenance(),
            "created_at": time.time(),
            "pid": os.getpid(),
        }
        if extra:
            meta.update(extra)
        return meta, payload

    def publish(self, key: str, meta: dict, payload: bytes, artifacts: dict) -> StoreEntry:
        """Durably publish one composed entry; returns the committed view.

        The payload lands before the meta, so a reader either sees the full
        entry or (by checksum) no entry at all.  A successful publish clears
        any poison marker on the key — the build evidently works now.
        """
        from repro.telemetry.metrics import counter_inc

        self._publish(self.payload_path(key), payload, _PAYLOAD_SITES)
        self._publish(
            self.meta_path(key),
            (json.dumps(meta, sort_keys=True) + "\n").encode("utf-8"),
            _META_SITES,
        )
        self.clear_poison(key)
        kind = str(meta.get("kind", ""))
        counter_inc("kcache.store.puts", 1, (("kind", kind),))
        counter_inc("kcache.store.put_bytes", len(payload), (("kind", kind),))
        return StoreEntry(key=key, meta=meta, artifacts=dict(artifacts))

    def put(
        self,
        key: str,
        *,
        kind: str,
        artifacts: dict,
        workload: str = "",
        gpu: str = "",
        config: object = None,
        kernel_hashes: dict[str, str] | None = None,
        metrics: dict | None = None,
        extra: dict | None = None,
    ) -> StoreEntry:
        """Compose and durably publish one entry (compose + publish)."""
        meta, payload = self.compose(
            key,
            kind=kind,
            artifacts=artifacts,
            workload=workload,
            gpu=gpu,
            config=config,
            kernel_hashes=kernel_hashes,
            metrics=metrics,
            extra=extra,
        )
        return self.publish(key, meta, payload, artifacts)

    def load_meta(self, key: str) -> dict | None:
        """The committed meta of ``key``, or None (unreadable metas count as absent)."""
        try:
            fault_point("kcache.store.read.meta")
            text = self.meta_path(key).read_text(encoding="utf-8")
            meta = json.loads(text)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return meta if isinstance(meta, dict) and meta.get("key") == key else None

    def verify(self, key: str) -> str | None:
        """Why ``key``'s committed entry is damaged, or None when intact.

        Checks meta readability, payload presence, byte count, SHA-256 and
        unpicklability without retaining the artifacts.  A missing entry
        (no meta) is not damage — it reports None like an intact one.
        """
        try:
            text = self.meta_path(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            return f"meta unreadable: {exc}"
        try:
            meta = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return "meta is not valid JSON (torn commit marker)"
        if not isinstance(meta, dict) or meta.get("key") != key:
            return "meta does not describe this key"
        try:
            payload = self.payload_path(key).read_bytes()
        except OSError:
            return "payload missing or unreadable"
        return _checked_artifacts(meta, payload)[1] or None

    def load(self, key: str, *, on_corrupt: str = "discard") -> StoreEntry | None:
        """The full entry of ``key``, integrity-checked; None on miss.

        The payload passes the same check as :meth:`verify`'s: byte count
        and SHA-256 against the committed meta, then the unpickle, with the
        cyclic collector paused.  A torn, truncated or otherwise
        corrupt entry (payload checksum or byte count disagreeing with the
        committed meta, or an unpicklable payload, such as one naming a
        reconstructor this code lacks) is *discarded* — both files removed —
        so the caller's rebuild republishes a clean entry instead of
        tripping forever.  With ``on_corrupt="raise"`` a damaged entry
        raises :class:`repro.errors.StoreCorruptionError` instead (the
        doctor's strict mode).
        """
        from repro.telemetry.metrics import counter_inc

        meta = self.load_meta(key)
        if meta is None:
            return None
        try:
            fault_point("kcache.store.read.payload")
            payload = self.payload_path(key).read_bytes()
            payload = fault_mutate("kcache.store.read.payload", payload)
        except OSError:
            payload = b""
        artifacts, reason = _checked_artifacts(meta, payload)
        if reason:
            if on_corrupt == "raise":
                raise StoreCorruptionError(
                    f"entry {key!r} is corrupt: {reason}", key=key, reason=reason
                )
            self.discard(key)
            counter_inc("kcache.store.corrupt", 1)
            return None
        return StoreEntry(key=key, meta=meta, artifacts=artifacts)

    def contains(self, key: str) -> bool:
        """Whether a committed meta exists for ``key`` (no payload check)."""
        return self.load_meta(key) is not None

    def discard(self, key: str) -> None:
        """Remove ``key``'s files (missing files are fine)."""
        for path in (self.meta_path(key), self.payload_path(key)):
            try:
                fault_point("kcache.store.unlink")
                os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Poison markers.                                                     #
    # ------------------------------------------------------------------ #

    def mark_poisoned(
        self, key: str, error: str, *, ttl_s: float = DEFAULT_POISON_TTL_S
    ) -> bool:
        """Durably mark ``key`` as deterministically failing for ``ttl_s``.

        Returns False when the marker cannot be written (read-only or
        failing store) — the service then falls back to its in-process
        poison map, so followers in this process still fail fast.
        """
        from repro.telemetry.metrics import counter_inc

        document = {
            "key": key,
            "error": error,
            "created_at": time.time(),
            "ttl_s": float(ttl_s),
            "pid": os.getpid(),
        }
        try:
            self._publish(
                self.poison_path(key),
                (json.dumps(document, sort_keys=True) + "\n").encode("utf-8"),
                _POISON_SITES,
            )
        except OSError:
            return False
        counter_inc("kcache.poisoned", 1)
        return True

    def load_poison(self, key: str) -> dict | None:
        """The live poison marker of ``key``, or None (expired ones removed)."""
        try:
            fault_point("kcache.store.poison.read")
            document = json.loads(self.poison_path(key).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(document, dict) or document.get("key") != key:
            return None
        age = time.time() - float(document.get("created_at", 0.0))
        if age > float(document.get("ttl_s", 0.0)):
            self.clear_poison(key)
            return None
        return document

    def clear_poison(self, key: str) -> None:
        """Remove ``key``'s poison marker (a missing marker is fine)."""
        try:
            os.unlink(self.poison_path(key))
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Enumeration / economics.                                            #
    # ------------------------------------------------------------------ #

    def keys(self) -> list[str]:
        """Every committed key, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.root.glob("*/*.json")
            if not path.name.endswith(".lock")
        )

    def metas(self) -> Iterator[dict]:
        """Every committed meta document (unreadable ones skipped)."""
        for key in self.keys():
            meta = self.load_meta(key)
            if meta is not None:
                yield meta

    def entry_bytes(self, key: str) -> int:
        """On-disk footprint of one entry (meta + payload)."""
        total = 0
        for path in (self.meta_path(key), self.payload_path(key)):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def stats(self) -> StoreStats:
        """Entry counts and byte totals, grouped by entry kind."""
        by_kind: dict[str, int] = {}
        total = 0
        entries = 0
        corrupt = 0
        for meta in self.metas():
            key = str(meta["key"])
            payload = self.payload_path(key)
            try:
                size = payload.stat().st_size
            except OSError:
                size = -1
            if size != meta.get("payload_bytes"):
                corrupt += 1
                continue
            entries += 1
            footprint = self.entry_bytes(key)
            total += footprint
            kind = str(meta.get("kind", ""))
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return StoreStats(
            entries=entries,
            total_bytes=total,
            by_kind=dict(sorted(by_kind.items())),
            corrupt_discarded=corrupt,
        )

    def gc(self, max_bytes: int, *, stale_lock_s: float = 300.0) -> GcReport:
        """Evict oldest entries until the store fits in ``max_bytes``.

        Age is the committed ``created_at`` stamp (publish order), so a
        warm-serving entry that was recently *rebuilt* survives over a stale
        one.  Locks older than ``stale_lock_s`` (dead builders) are swept in
        the same pass.
        """
        aged = sorted(
            (float(meta.get("created_at", 0.0)), str(meta["key"]))
            for meta in self.metas()
        )
        kept = sum(self.entry_bytes(key) for _, key in aged)
        evicted: list[str] = []
        freed = 0
        for _, key in aged:
            if kept <= max_bytes:
                break
            size = self.entry_bytes(key)
            self.discard(key)
            evicted.append(key)
            freed += size
            kept -= size
        stale = 0
        now = time.time()
        if self.root.is_dir():
            for lock in self.root.glob("*/*.lock"):
                try:
                    if now - lock.stat().st_mtime > stale_lock_s:
                        os.unlink(lock)
                        stale += 1
                except OSError:
                    pass
        return GcReport(
            evicted=tuple(evicted),
            freed_bytes=freed,
            kept_bytes=kept,
            stale_locks_removed=stale,
        )

    # ------------------------------------------------------------------ #
    # Doctor.                                                             #
    # ------------------------------------------------------------------ #

    def doctor(
        self, *, repair: bool = False, stale_after: float = STALE_CLAIM_DOCTOR_S
    ) -> DoctorReport:
        """Checksum-verify the whole store; optionally repair what's damaged.

        Verifies every committed entry end to end (:meth:`verify`), and
        sweeps the debris fault injection and real crashes leave behind:
        orphan payloads (a builder died between the payload landing and the
        meta committing), stray ``.tmp-*`` files, claims whose holder is
        dead (:func:`repro.kcache.locks` liveness rules) and expired poison
        markers.  With ``repair=True`` torn entries are discarded and the
        debris removed; the following doctor pass reports ``clean``.
        """
        from repro.kcache.locks import _holder_alive

        ok: list[str] = []
        torn: dict[str, str] = {}
        repaired: list[str] = []
        for key in self.keys():
            reason = self.verify(key)
            if reason is None:
                ok.append(key)
            elif repair:
                self.discard(key)
                repaired.append(key)
            else:
                torn[key] = reason

        orphans: list[str] = []
        tmp_files = 0
        tmp_removed = 0
        stale_claims = 0
        live_claims = 0
        poisoned: list[str] = []
        expired_poison = 0
        if self.root.is_dir():
            for payload in self.root.glob("*/*.pkl"):
                if not payload.with_name(f"{payload.stem}.json").exists():
                    if repair:
                        try:
                            os.unlink(payload)
                            repaired.append(payload.stem)
                        except OSError:
                            orphans.append(payload.stem)
                    else:
                        orphans.append(payload.stem)
            for tmp in self.root.glob("*/*.tmp-*"):
                if repair:
                    try:
                        os.unlink(tmp)
                        tmp_removed += 1
                    except OSError:
                        tmp_files += 1
                else:
                    tmp_files += 1
            for lock in self.root.glob("*/*.lock"):
                if _holder_alive(lock, stale_after):
                    live_claims += 1
                elif repair:
                    try:
                        os.unlink(lock)
                        repaired.append(lock.stem)
                    except OSError:
                        stale_claims += 1
                else:
                    stale_claims += 1
            for marker in self.root.glob("*/*.poison"):
                key = marker.stem
                if self.load_poison(key) is None:  # expired markers self-remove
                    expired_poison += 1
                else:
                    poisoned.append(key)
        return DoctorReport(
            ok=tuple(sorted(ok)),
            torn=dict(sorted(torn.items())),
            repaired=tuple(sorted(set(repaired))),
            orphan_payloads=tuple(sorted(orphans)),
            tmp_files=tmp_files,
            tmp_files_removed=tmp_removed,
            stale_claims=stale_claims,
            live_claims=live_claims,
            poisoned=tuple(sorted(poisoned)),
            expired_poison=expired_poison,
        )
