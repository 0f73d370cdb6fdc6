"""Persistent, content-addressed cache layer for incremental runs.

Corpus-scale vetting re-analyzes the same corpora as tools and API
databases evolve; this package makes the *unchanged* part of every
re-run cost near zero.  Each tier is a namespace of one
:class:`~repro.cache.store.ContentStore`:

* **framework snapshots** (:mod:`.snapshot`) — the materialized
  repository + mined API database serialized once per framework
  fingerprint, loaded by the next cold process instead of
  regenerated (pool workers inherit the parent's substrate over
  fork and never read it);
* **per-app results** (:mod:`.results`) — finalized
  :class:`~repro.eval.runner.AppResult` records keyed by (APK content,
  framework, detector configuration) fingerprints; warm runs are
  fingerprint-identical to cold ones while skipping the analysis;
* **per-class artifacts** (:mod:`.classes`) and framework summary
  tables (:mod:`repro.analysis.fwsummaries`);
* **bookkeeping** (:mod:`.store`, :mod:`.manifest`) — checksummed
  entries, corruption-as-miss, one size-bounded LRU budget.

Everything is keyed through :mod:`.fingerprint`; nothing in here
affects *what* a run computes, only whether it recomputes it.
"""

from .classes import (
    ClassArtifact,
    ClassStore,
    ClassStoreStats,
    class_store,
)
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    canonical_json,
    class_key,
    digest_json,
    fingerprint_apk,
    fingerprint_clazz,
    fingerprint_config,
    fingerprint_spec,
    result_key,
)
from .manifest import (
    CacheManifest,
    atomic_write_bytes,
    atomic_write_text,
    shared_manifest,
)
from .results import ResultCache
from .snapshot import (
    ensure_snapshot,
    load_or_build_substrate,
    snapshot_path,
    write_snapshot,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheManifest",
    "ClassArtifact",
    "ClassStore",
    "ClassStoreStats",
    "ResultCache",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "class_key",
    "class_store",
    "digest_json",
    "ensure_snapshot",
    "fingerprint_apk",
    "fingerprint_clazz",
    "fingerprint_config",
    "fingerprint_spec",
    "load_or_build_substrate",
    "result_key",
    "shared_manifest",
    "snapshot_path",
    "write_snapshot",
]
