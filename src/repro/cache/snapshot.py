"""Framework snapshots: the substrate serialized once, loaded forever.

Every corpus run needs the same two artifacts before it can analyze
its first app: the :class:`~repro.framework.repository.FrameworkRepository`
and the :class:`~repro.core.apidb.ApiDatabase` mined from it.  Both
are pure functions of the framework spec, so a snapshot materializes
them exactly once and serves every later consumer from disk:

* the snapshot stores the spec, the database (with its prebuilt
  hierarchy/level indexes), and the *key set* of the repository's
  materialized-class cache — a snapshot written after a corpus run
  records every framework class that run touched, and loading
  re-materializes them from the spec (cheaper than unpickling the
  full class graphs), so the next run's CLVM starts warm;
* snapshots live in the ``framework`` namespace of the
  :class:`~repro.cache.store.ContentStore`, keyed by the caller's
  ``key`` (normally :func:`~repro.cache.fingerprint.fingerprint_spec`),
  which the payload also embeds and loading re-checks; their traffic
  is the ``snapshots`` section of a run's ``cache_stats``.

Loading also registers the database in :mod:`repro.core.arm`'s
build cache, so a later ``build_api_database(repository)`` over the
loaded spec is a dictionary hit rather than a re-mine.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from ..core.apidb import ApiDatabase
from ..core.arm import build_api_database, cached_database, register_database
from ..framework.generator import materialize_class
from ..framework.repository import FrameworkRepository
from ..framework.spec import FrameworkSpec
from .fingerprint import CACHE_SCHEMA_VERSION, fingerprint_spec
from .store import ContentStore, pickled, tracked_stats, unframe

__all__ = [
    "snapshot_path",
    "write_snapshot",
    "ensure_snapshot",
    "load_or_build_substrate",
]


def _store(cache_dir: str | Path) -> ContentStore:
    return ContentStore(
        cache_dir,
        "framework",
        CACHE_SCHEMA_VERSION,
        suffix=".snapshot",
        stats=tracked_stats("snapshots"),
    )


def snapshot_path(cache_dir: str | Path, key: str) -> Path:
    return _store(cache_dir).path(key)


def _payload(
    framework: FrameworkRepository, apidb: ApiDatabase, key: str
) -> dict:
    """The substrate as one picklable document."""
    return {
        "version": CACHE_SCHEMA_VERSION,
        "key": key,
        "spec": framework.spec,
        # Keys only: materialization is a pure function of the
        # spec, and re-running it on load is several times cheaper
        # than unpickling the full class graphs.
        "warm_classes": sorted(framework.export_class_cache()),
        "apidb": apidb,
    }


def _decode(
    payload: bytes, key: str | None
) -> tuple[FrameworkRepository, ApiDatabase]:
    """Rebuild ``(framework, apidb)`` from a pickled :func:`_payload`
    document; ``ValueError`` on any structural defect or key
    mismatch."""
    doc = pickle.loads(payload)
    if (
        not isinstance(doc, dict)
        or doc.get("version") != CACHE_SCHEMA_VERSION
        or (key is not None and doc.get("key") != key)
        or not isinstance(doc.get("spec"), FrameworkSpec)
        or not isinstance(doc.get("apidb"), ApiDatabase)
    ):
        raise ValueError("not a substrate snapshot for this key")
    framework = FrameworkRepository(doc["spec"])
    framework.preload_class_cache(
        {
            (level, name): materialize_class(doc["spec"], name, level)
            for level, name in doc.get("warm_classes") or ()
        }
    )
    apidb = doc["apidb"]
    apidb.reset_cache_counters()
    register_database(framework.spec, apidb)
    return framework, apidb


def write_snapshot(
    cache_dir: str | Path,
    key: str,
    framework: FrameworkRepository,
    apidb: ApiDatabase,
) -> Path:
    """Serialize the substrate under ``key``; returns the file path."""
    store = _store(cache_dir)
    store.put(key, pickled(_payload(framework, apidb, key)))
    return store.path(key)


def ensure_snapshot(
    cache_dir: str | Path,
    framework: FrameworkRepository,
    apidb: ApiDatabase,
    *,
    key: str | None = None,
) -> Path:
    """Write the snapshot for ``framework`` unless an intact one
    (checksum and stamp verified, not unpickled) exists; returns its
    path either way.  Also adopts snapshots other processes wrote:
    nothing else flushes this namespace."""
    key = key or fingerprint_spec(framework.spec)
    store = _store(cache_dir)
    store.adopt_untracked()
    if store.get(key) is None:
        return write_snapshot(cache_dir, key, framework, apidb)
    return store.path(key)


def _load_snapshot(
    path: str | Path, *, key: str | None = None
) -> tuple[FrameworkRepository, ApiDatabase] | None:
    """Load the snapshot file at ``path`` directly, outside the
    store's accounting; ``None`` on any defect
    (missing, truncated, checksum mismatch, version/key mismatch) — a
    miss, never an error.  Without ``key`` the embedded key is
    trusted."""
    try:
        return _decode(
            unframe(Path(path).read_bytes(), CACHE_SCHEMA_VERSION, key),
            key,
        )
    except Exception:
        return None


def load_or_build_substrate(
    cache_dir: str | Path | None,
    spec: FrameworkSpec,
    *,
    key: str | None = None,
) -> tuple[FrameworkRepository, ApiDatabase, str]:
    """The substrate for ``spec``, from the snapshot store when
    possible.

    Returns ``(framework, apidb, source)`` where ``source`` is
    ``"snapshot"`` (served from disk), ``"built"`` (mined now and — if
    a cache directory was given — snapshotted for the next caller), or
    ``"memory"`` (the in-process build cache already had it, so disk
    was not consulted).
    """
    cached = cached_database(spec)
    if cached is not None:
        # Already mined in this process (or inherited over fork):
        # cheaper than any disk read.
        return FrameworkRepository(spec), cached, "memory"
    if cache_dir is None:
        framework = FrameworkRepository(spec)
        return framework, build_api_database(framework), "built"
    key = key or fingerprint_spec(spec)
    loaded = _store(cache_dir).get(
        key, lambda payload: _decode(payload, key)
    )
    if loaded is not None:
        return loaded[0], loaded[1], "snapshot"
    framework = FrameworkRepository(spec)
    apidb = build_api_database(framework)
    write_snapshot(cache_dir, key, framework, apidb)
    return framework, apidb, "built"
