"""The durable run ledger: append-only JSONL records that survive processes.

Every sweep, simulation or profiling run the repository performs produces
numbers — cycles, DRAM traffic, sweep economics, cache hit rates — that
today evaporate when the interpreter exits.  The ledger persists them:

* **Records** (:class:`LedgerRecord`) carry a *key* (what was run: workload,
  config digest, kernel content hash, GPU), a *metrics* dict (what it
  achieved), and *provenance* (git revision, python/numpy versions,
  timestamp) — enough to compare any two runs of the same thing across
  processes, branches and machines.
* **Storage** is append-only JSONL under ``.repro/ledger/`` with one
  *segment file per process* (``segment-<pid>.jsonl``): the multiprocessing
  autotuner's workers never contend for one file, a torn final line (a
  killed process) corrupts nothing that parses, and a merged read
  (:meth:`RunLedger.records`) sees every segment ordered by timestamp.
* **Diffing** (:func:`diff_records`) compares two records of the same key
  and flags regressions in the gated fields (cycles, DRAM bytes) beyond a
  threshold — the same >2% contract ``bench_trajectory.py --check``
  enforces between PRs, now usable between any two local runs via
  ``scripts/ledger.py diff``.

Like the metrics facade and the tracer, the ledger has an install point:
:func:`install_ledger` makes :func:`record_run` a durable append, and
leaves it a strict no-op otherwise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

from repro.arch.specs import normalize_gpu

__all__ = [
    "DEFAULT_LEDGER_ROOT",
    "LEDGER_SCHEMA",
    "LedgerDiff",
    "LedgerRecord",
    "RunLedger",
    "build_record",
    "config_digest",
    "current_ledger",
    "diff_records",
    "environment_provenance",
    "install_ledger",
    "ledger_session",
    "normalize_gpu",
    "record_run",
    "scaled_copy",
]

#: Record format version, stamped into every record.
LEDGER_SCHEMA = 1

#: Where the ledger lives unless told otherwise (relative to the CWD).
DEFAULT_LEDGER_ROOT = ".repro/ledger"

#: Metric fields the regression diff gates, lower-is-better.
GATED_FIELDS = ("cycles", "dram_bytes")

#: The same contract as ``scripts/bench_trajectory.py --check``.
REGRESSION_TOLERANCE = 0.02


def config_digest(config: object) -> str:
    """A short stable digest of a workload configuration.

    Workload configs are frozen dataclasses whose ``repr`` is deterministic
    and value-complete, so hashing the repr identifies the schedule point
    exactly — the same identity the in-process schedule caches key on.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


def environment_provenance() -> dict[str, object]:
    """Where a record came from: git revision, interpreter, numpy, time."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unknown"
    return {
        "git_rev": rev,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "hostname": os.uname().nodename if hasattr(os, "uname") else "unknown",
    }


@dataclass(frozen=True)
class LedgerRecord:
    """One durable run record.

    Attributes
    ----------
    kind:
        What produced it: ``"sweep"``, ``"sim"`` or ``"profile"``.
    key:
        The cross-run identity — records with equal keys are comparable
        (same workload, config digest, GPU, variant).  ``diff`` operates
        within one key.
    workload / gpu / kernel_hash / config:
        The key's components, kept readable: registry workload name, short
        GPU key, kernel content hash (:func:`repro.opt.rewrite.kernel_hash`)
        and the configuration ``repr``.
    metrics:
        The run's figures (``cycles``, ``dram_bytes``, stall totals, sweep
        economics, a metrics-facade snapshot, ...).  Values must be
        JSON-serialisable.
    provenance:
        :func:`environment_provenance` output.
    timestamp / seq:
        Append wall-clock time plus a per-process sequence number; the merge
        order of a read.
    """

    kind: str
    key: str
    workload: str = ""
    gpu: str = ""
    kernel_hash: str = ""
    config: str = ""
    metrics: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    timestamp: float = 0.0
    seq: int = 0
    pid: int = 0
    schema: int = LEDGER_SCHEMA

    def metric(self, name: str) -> float | None:
        """One numeric metric, or None when absent/non-numeric."""
        value = self.metrics.get(name)
        return float(value) if isinstance(value, (int, float)) else None

    def as_dict(self) -> dict[str, object]:
        """The JSON object one ledger line holds."""
        return {
            "schema": self.schema,
            "kind": self.kind,
            "key": self.key,
            "workload": self.workload,
            "gpu": self.gpu,
            "kernel_hash": self.kernel_hash,
            "config": self.config,
            "metrics": self.metrics,
            "provenance": self.provenance,
            "timestamp": self.timestamp,
            "seq": self.seq,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerRecord":
        """Inverse of :meth:`as_dict` (unknown extra keys are ignored)."""
        return cls(
            kind=str(payload["kind"]),
            key=str(payload["key"]),
            workload=str(payload.get("workload", "")),
            gpu=str(payload.get("gpu", "")),
            kernel_hash=str(payload.get("kernel_hash", "")),
            config=str(payload.get("config", "")),
            metrics=dict(payload.get("metrics", {})),
            provenance=dict(payload.get("provenance", {})),
            timestamp=float(payload.get("timestamp", 0.0)),
            seq=int(payload.get("seq", 0)),
            pid=int(payload.get("pid", 0)),
            schema=int(payload.get("schema", LEDGER_SCHEMA)),
        )


#: Per-process monotonically increasing record sequence.
_SEQ = itertools.count()


def build_record(
    kind: str,
    key: str,
    *,
    workload: str = "",
    gpu: str = "",
    kernel_hash: str = "",
    config: object = None,
    metrics: dict | None = None,
) -> LedgerRecord:
    """A fully stamped record: provenance, timestamp and sequence included."""
    return LedgerRecord(
        kind=kind,
        key=key,
        workload=workload,
        gpu=gpu,
        kernel_hash=kernel_hash,
        config="" if config is None else repr(config),
        metrics=dict(metrics or {}),
        provenance=environment_provenance(),
        timestamp=time.time(),
        seq=next(_SEQ),
        pid=os.getpid(),
    )


class RunLedger:
    """An append-only record store rooted at one directory.

    Appends go to this process's own segment file — a single ``write`` of
    one JSON line in append mode, so concurrent writers (the autotuner's
    pool workers) never interleave *within* a record even if they shared a
    segment, and never contend because they don't.  Reads merge every
    segment, skipping unparseable (torn) lines.
    """

    def __init__(self, root: str | os.PathLike = DEFAULT_LEDGER_ROOT) -> None:
        self.root = Path(root)

    @property
    def segment_path(self) -> Path:
        """This process's segment file."""
        return self.root / f"segment-{os.getpid()}.jsonl"

    def append(self, record: LedgerRecord) -> LedgerRecord:
        """Durably append one record; returns it (for chaining/tests).

        Raises :class:`OSError` when the append cannot land (full or
        read-only disk, or an injected ``telemetry.ledger.append`` fault);
        the :func:`record_run` facade absorbs that into a counter, because
        telemetry must never fail the run it describes.
        """
        from repro.faults import fault_point

        line = json.dumps(record.as_dict(), sort_keys=True)
        if "\n" in line:  # defensive: a record is exactly one line
            raise ValueError("ledger record serialised to multiple lines")
        fault_point("telemetry.ledger.append")
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.segment_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record

    def records(
        self, *, key: str | None = None, kind: str | None = None
    ) -> list[LedgerRecord]:
        """Every record across all segments, oldest first.

        Merged deterministically by ``(timestamp, pid, seq)``; lines that do
        not parse (a torn tail from a killed writer) are skipped, never
        fatal.
        """
        merged: list[LedgerRecord] = []
        if not self.root.is_dir():
            return merged
        for segment in sorted(self.root.glob("*.jsonl")):
            try:
                text = segment.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = LedgerRecord.from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    continue  # torn or foreign line: skip, don't fail the read
                if key is not None and record.key != key:
                    continue
                if kind is not None and record.kind != kind:
                    continue
                merged.append(record)
        merged.sort(key=lambda r: (r.timestamp, r.pid, r.seq))
        return merged

    def keys(self) -> list[str]:
        """Every distinct record key, sorted."""
        return sorted({record.key for record in self.records()})

    def latest(self, key: str, count: int = 1) -> list[LedgerRecord]:
        """The last ``count`` records of ``key``, oldest of the slice first."""
        matching = self.records(key=key)
        return matching[-count:] if count else []


@dataclass(frozen=True)
class FieldDelta:
    """One gated field's movement between two records of the same key."""

    field: str
    baseline: float
    current: float

    @property
    def relative(self) -> float:
        """Fractional change (+0.05 = 5% worse for lower-is-better fields)."""
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return self.current / self.baseline - 1.0


@dataclass(frozen=True)
class LedgerDiff:
    """The comparison of two records sharing a key.

    ``regressions`` names the gated fields whose current value exceeds the
    baseline by more than the tolerance (lower-is-better semantics — the
    cycle/traffic contract of the trajectory gate).
    """

    key: str
    baseline: LedgerRecord
    current: LedgerRecord
    deltas: tuple[FieldDelta, ...]
    tolerance: float

    @property
    def regressions(self) -> list[str]:
        """Gated fields that regressed beyond the tolerance."""
        return [d.field for d in self.deltas if d.relative > self.tolerance]

    @property
    def ok(self) -> bool:
        """True when no gated field regressed."""
        return not self.regressions


def diff_records(
    baseline: LedgerRecord,
    current: LedgerRecord,
    *,
    tolerance: float = REGRESSION_TOLERANCE,
    fields: tuple[str, ...] = GATED_FIELDS,
) -> LedgerDiff:
    """Compare two records of one key on the gated lower-is-better fields.

    Fields absent from either record are skipped (older records may predate
    a metric); present-in-both fields produce a :class:`FieldDelta` and gate.
    """
    if baseline.key != current.key:
        raise ValueError(
            f"cannot diff records of different keys: "
            f"{baseline.key!r} vs {current.key!r}"
        )
    deltas = []
    for name in fields:
        old = baseline.metric(name)
        new = current.metric(name)
        if old is None or new is None:
            continue
        deltas.append(FieldDelta(field=name, baseline=old, current=new))
    return LedgerDiff(
        key=current.key,
        baseline=baseline,
        current=current,
        deltas=tuple(deltas),
        tolerance=tolerance,
    )


# --------------------------------------------------------------------------- #
# The process-wide install point.                                              #
# --------------------------------------------------------------------------- #

#: The installed ledger instrumented code appends to (None = off).
_CURRENT: RunLedger | None = None


def install_ledger(ledger: RunLedger | None) -> RunLedger | None:
    """Install ``ledger`` as the process-wide ledger; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = ledger
    return previous


def current_ledger() -> RunLedger | None:
    """The installed ledger, or None when durable recording is off."""
    return _CURRENT


@contextmanager
def ledger_session(root: str | os.PathLike = DEFAULT_LEDGER_ROOT) -> Iterator[RunLedger]:
    """Install a :class:`RunLedger` at ``root`` for the ``with`` body."""
    ledger = RunLedger(root)
    previous = install_ledger(ledger)
    try:
        yield ledger
    finally:
        install_ledger(previous)


def record_run(
    kind: str,
    key: str,
    *,
    workload: str = "",
    gpu: str = "",
    kernel_hash: str = "",
    config: object = None,
    metrics: dict | None = None,
) -> LedgerRecord | None:
    """Append a stamped record to the installed ledger; no-op when off.

    A failing append (full or read-only disk) is absorbed into the
    ``telemetry.ledger.write_errors`` counter and returns None — the run
    being recorded must not fail because its telemetry could not land.
    """
    from repro.telemetry.metrics import counter_inc

    ledger = _CURRENT
    if ledger is None:
        return None
    record = build_record(
        kind,
        key,
        workload=workload,
        gpu=gpu,
        kernel_hash=kernel_hash,
        config=config,
        metrics=metrics,
    )
    try:
        return ledger.append(record)
    except OSError:
        counter_inc("telemetry.ledger.write_errors", 1)
        return None


def scaled_copy(record: LedgerRecord, scales: dict[str, float]) -> LedgerRecord:
    """A fresh re-stamped copy of ``record`` with metric fields multiplied.

    The synthetic-regression helper behind ``scripts/ledger.py inject`` and
    the CI ledger smoke: scaling ``{"cycles": 1.05}`` fabricates a 5% cycle
    regression for the diff gate to catch.
    """
    metrics = dict(record.metrics)
    for name, factor in scales.items():
        value = record.metric(name)
        if value is not None:
            metrics[name] = value * factor
    return replace(
        record,
        metrics=metrics,
        provenance=environment_provenance(),
        timestamp=time.time(),
        seq=next(_SEQ),
        pid=os.getpid(),
    )
