"""Corpus-wide content-addressed store of per-class analysis
artifacts — the engine behind ``--dedup``.

Apps overwhelmingly share code: common libraries and SDK scaffolding
dominate each APK, so two apps that differ by one class should not
each pay full per-class analysis.  This store caches, keyed by a
canonical digest of the class bytecode plus the framework-spec and
tool-config digests (:func:`repro.cache.fingerprint.class_key`), every
fact the per-app phases derive *from the class alone*:

* **explore effects** — the ordered per-method effect stream the lazy
  class-loader VM derives by scanning instructions and running the
  constant-string dataflow over ``Class.forName``-style sites: which
  classes a method instantiates, which targets it invokes (as *static*
  refs — virtual dispatch is re-resolved live against each app's
  hierarchy), and which dynamically-loaded names its strings resolve
  to;
* **version-helper summaries** — the per-level concrete evaluation of
  every candidate SDK-predicate helper
  (:func:`repro.analysis.summaries.summarize_version_helper`), the
  most expensive pure-per-class computation in the pipeline;
* **guard rows** — for each ``(method, entry interval, helper-set)``
  context the guard propagation has ever asked about, the refined
  interval at every reachable call site (the product of
  ``build_cfg`` + forward dataflow in :mod:`repro.analysis.guards`).

What is deliberately *not* cached: anything that depends on the whole
app — virtual/interface dispatch resolution, subtype overrides,
callback overrides, manifest-derived intervals.  Replay re-derives
those live, which is what makes a cached artifact valid across apps.

Chaos discipline: artifacts produced while analyzing an app are
**staged**, and only an explicit end-of-pipeline commit publishes
them.  A crash, timeout, or injected fault aborts the pipeline before
the commit pass runs, so a faulted app can never populate the store
(the same rule the result cache enforces with ``result.ok``).

Disk entries are pickled artifacts in the ``classes`` namespace of the
:class:`~repro.cache.store.ContentStore`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .fingerprint import (
    canonical_json,
    class_key,
    fingerprint_clazz,
)
from .store import ContentStore, StoreStats, pickled, unpickle

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..ir.clazz import Clazz

__all__ = [
    "CLASS_ARTIFACT_VERSION",
    "ClassArtifact",
    "ClassStoreStats",
    "ClassStore",
    "class_store",
    "reset_class_stores",
]

#: Version of the artifact payload semantics (effect encoding, helper
#: map, guard-row keying).  Stamped into every entry: bumping it
#: orphans old entries without migration code.  v2: semantic-delta
#: (SEM) facts joined the analysis substrate — pre-SEM artifacts must
#: degrade to misses, never resurface as findings.
CLASS_ARTIFACT_VERSION = 2


@dataclass(eq=False)  # identity semantics: artifacts are cache
# entries, and downstream memos key them (weakly) by instance.
class ClassArtifact:
    """Everything derivable from one class in isolation.

    ``effects`` is aligned with ``clazz.methods``: one tuple of effect
    records per declared method, in declaration order, each record one
    of::

        ("loadclass", (name, ...))   # constant-resolved dynamic names
                                     # (empty tuple = unresolved site)
        ("new", class_name)          # NewInstance allocation
        ("invoke", kind, (class_name, name, descriptor))

    ``helpers`` maps ``(name, descriptor)`` of every summarizable
    version-predicate method to its true-level set.  ``guard_rows``
    maps ``(signature, entry_lo, entry_hi, helpers_digest)`` to the
    refined interval at each reachable call site:
    ``((class_name, name, descriptor), lo, hi)`` per row.  Guard rows
    accumulate as new contexts are observed; the rest is immutable.
    """

    effects: tuple[tuple, ...] = ()
    helpers: dict = field(default_factory=dict)
    guard_rows: dict = field(default_factory=dict)


@dataclass
class ClassStoreStats(StoreStats):
    """One process's traffic against the class-artifact store; hits
    count in-memory and disk hits alike."""

    discarded: int = 0
    guard_hits: int = 0
    guard_misses: int = 0

    @property
    def guard_hit_rate(self) -> float:
        total = self.guard_hits + self.guard_misses
        return self.guard_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "discarded": self.discarded,
            "guard_hits": self.guard_hits,
            "guard_misses": self.guard_misses,
            "guard_hit_rate": self.guard_hit_rate,
        }


def helpers_digest(helper_items) -> str:
    """Digest of the helper summaries visible to one guard context.

    ``helper_items`` is an iterable of ``((class, name, descriptor),
    levels)`` pairs; the digest is order-insensitive, so the same
    helper environment always keys the same guard rows.
    """
    doc = sorted(
        (list(key), sorted(levels)) for key, levels in helper_items
    )
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


class ClassStore:
    """In-memory + on-disk store of :class:`ClassArtifact` entries.

    One instance is scoped to a (framework fingerprint, config
    fingerprint) pair; lookups take a :class:`Clazz` and are keyed by
    its content digest.  ``cache_dir=None`` keeps the store purely in
    memory — dedup still amortizes across the apps of one run (or the
    lifetime of a daemon worker), it just does not survive the
    process.
    """

    def __init__(
        self,
        cache_dir: str | Path | None,
        *,
        framework_fingerprint: str,
        config_fingerprint: str,
    ) -> None:
        self.framework_fingerprint = framework_fingerprint
        self.config_fingerprint = config_fingerprint
        self.stats = ClassStoreStats()
        self._memory: dict[str, ClassArtifact] = {}
        self._staged: dict[str, ClassArtifact] = {}
        self._staged_guards: dict[str, dict] = {}
        self.disk = (
            class_disk(cache_dir, self.stats)
            if cache_dir is not None
            else None
        )

    def key_for(self, clazz: "Clazz") -> str:
        return class_key(
            fingerprint_clazz(clazz),
            self.framework_fingerprint,
            self.config_fingerprint,
        )

    # -- lookup --------------------------------------------------------

    def get(self, clazz: "Clazz") -> "ClassArtifact | None":
        """The cached artifact for this exact class content, or
        ``None`` (corrupt disk entries are dropped and count as
        misses)."""
        key = self.key_for(clazz)
        artifact = self._memory.get(key)
        if artifact is not None:
            self.stats.hits += 1
            return artifact
        if self.disk is None:
            self.stats.misses += 1
            return None
        artifact = self.disk.get(key, unpickle(ClassArtifact))
        if artifact is not None:
            self._memory[key] = artifact
        return artifact

    # -- staging (one app's pipeline) ----------------------------------

    def begin_app(self) -> None:
        """Discard any staging left by an aborted pipeline (fault,
        timeout, crash): a faulted app must never publish artifacts."""
        self.stats.discarded += len(self._staged)
        self._staged.clear()
        self._staged_guards.clear()

    def stage(self, key: str, artifact: ClassArtifact) -> None:
        """Stage a freshly-recorded artifact; published on commit."""
        self._staged[key] = artifact

    def record_guard_rows(self, key: str, row_key: tuple, rows) -> None:
        """Stage guard rows for an artifact (cached or staged)."""
        self._staged_guards.setdefault(key, {})[row_key] = tuple(rows)

    def commit_app(self) -> None:
        """Publish this app's staged artifacts and guard rows.  Runs
        only as the final pipeline pass — any earlier failure leaves
        the store untouched."""
        dirty = set(self._staged)
        self._memory.update(self._staged)
        for key, row_map in self._staged_guards.items():
            artifact = self._memory.get(key)
            if artifact is None:
                continue  # artifact itself was evicted or never staged
            artifact.guard_rows.update(row_map)
            dirty.add(key)
        self._staged.clear()
        self._staged_guards.clear()
        if self.disk is None or not dirty:
            return
        for key in sorted(dirty):
            self.disk.put(key, pickled(self._memory[key]))
        self.disk.prune()
        self.disk.save()

    # -- maintenance ---------------------------------------------------

    def flush(self) -> None:
        """Adopt stray entries, enforce the byte budget, persist the
        manifest.  Called at end of run / daemon drain."""
        if self.disk is not None:
            self.disk.flush()


def class_disk(
    cache_dir: str | Path, stats: StoreStats | None = None
) -> ContentStore:
    """The ``classes`` namespace of ``cache_dir``'s content store."""
    return ContentStore(
        cache_dir,
        "classes",
        CLASS_ARTIFACT_VERSION,
        suffix=".cls",
        stats=stats,
    )


# One store per (directory, framework, config) per process: the lazy
# VM, the guard propagation, and the pipeline passes of every app in a
# run — or every job through a daemon worker — must share the
# in-memory table for dedup to amortize.
_STORES: dict[tuple, ClassStore] = {}


def class_store(
    cache_dir: str | Path | None,
    *,
    framework_fingerprint: str,
    config_fingerprint: str,
) -> ClassStore:
    key = (
        os.path.abspath(os.fspath(cache_dir))
        if cache_dir is not None
        else None,
        framework_fingerprint,
        config_fingerprint,
    )
    store = _STORES.get(key)
    if store is None:
        store = ClassStore(
            cache_dir,
            framework_fingerprint=framework_fingerprint,
            config_fingerprint=config_fingerprint,
        )
        _STORES[key] = store
    return store


def registered_stores() -> tuple[ClassStore, ...]:
    """Every store opened by this process (observability)."""
    return tuple(_STORES.values())


def reset_class_stores() -> None:
    """Drop the registry (tests needing cold stores)."""
    _STORES.clear()
