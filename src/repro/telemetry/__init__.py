"""``repro.telemetry`` — metrics registry + durable run ledger.

The cross-run observability spine (see ``docs/telemetry.md``):

* **Metrics facade** (:mod:`repro.telemetry.metrics`) — process-wide
  labeled counters, gauges and histograms, instrumented through the
  autotune sweep, the opt pipeline and ``run_workload``.  A strict no-op
  when no registry is installed (:mod:`repro.context`): one context read,
  zero allocations.
* **Exporters** (:mod:`repro.telemetry.exporters`) — lossless JSON snapshot
  round-trip and the Prometheus text exposition format.
* **Run ledger** (:mod:`repro.telemetry.ledger`) — append-only JSONL
  records under ``.repro/ledger/``, one per sweep/sim/profile run, keyed by
  kernel-content and config hashes plus GPU, carrying a metrics snapshot
  and environment provenance.  Safe under the multiprocessing autotuner via
  per-process segment files merged on read.  ``scripts/ledger.py`` is the
  command-line front end (``list``/``show``/``summary``/``diff``).

This package is a dependency leaf (stdlib + numpy only) so every layer —
``tile``, ``opt``, ``kernels``, ``prof`` — can instrument through it
without import cycles.
"""

from __future__ import annotations

from repro.telemetry.exporters import (
    escape_label_value,
    snapshot_from_json,
    snapshot_to_dict,
    snapshot_to_json,
    to_prometheus,
)
from repro.telemetry.ledger import (
    DEFAULT_LEDGER_ROOT,
    LEDGER_SCHEMA,
    LedgerDiff,
    LedgerRecord,
    RunLedger,
    build_record,
    config_digest,
    diff_records,
    environment_provenance,
    normalize_gpu,
    record_run,
    scaled_copy,
)
from repro.telemetry.metrics import (
    HistogramStat,
    MetricsRegistry,
    MetricsSnapshot,
    counter_inc,
    gauge_set,
    observe,
)

__all__ = [
    "DEFAULT_LEDGER_ROOT",
    "HistogramStat",
    "LEDGER_SCHEMA",
    "LedgerDiff",
    "LedgerRecord",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RunLedger",
    "build_record",
    "config_digest",
    "counter_inc",
    "diff_records",
    "environment_provenance",
    "escape_label_value",
    "gauge_set",
    "normalize_gpu",
    "observe",
    "record_run",
    "scaled_copy",
    "snapshot_from_json",
    "snapshot_to_dict",
    "snapshot_to_json",
    "to_prometheus",
]
