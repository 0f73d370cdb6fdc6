"""Whole-framework pre-summaries: stop the CLVM at the boundary.

The lazy CLVM follows app→framework calls into framework method bodies
(to ``DEFAULT_FRAMEWORK_DEPTH``) because that is where virtual
dispatchers reach app callbacks and permission enforcement lives.  But
framework code is immutable per (spec, level): everything exploration
can learn from a framework class is a pure function of the framework,
not of the app.  This module precomputes it once per framework —
CID-style whole-framework pre-analysis, amortized over the corpus:

* a :class:`ClassSummary` per framework class records the *worklist
  effects* of analyzing that class — allocations, resolved call
  targets, and virtual/interface dispatch sites — in the exact order
  the lazy per-instruction analysis would produce them, so a
  summarized exploration enqueues the same app methods in the same
  order as a lazy one (findings parity, enforced by test);
* a :class:`MethodSummary` per framework method records the
  depth-bounded *reachable API interval* (the hull of API-level
  lifetimes over the method's framework-internal call region) and the
  *permission set* enforced within that region — the table artifact
  the paper's pre-analysis framing calls for;
* tables are built lazily per API level, memoized in-process (and
  shared with pool workers over fork, like the API database), and
  persisted in the ``summaries`` namespace of a cache directory's
  :class:`~repro.cache.store.ContentStore`, keyed on the framework spec
  digest, level and depth budget.

The consumer is :class:`~repro.analysis.clvm.ClassLoaderVM` in
summarized mode (``summaries=``): a framework method popped from the
worklist costs one table lookup instead of a class materialization
plus a per-instruction scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..cache.fingerprint import fingerprint_spec
from ..cache.store import ContentStore, pickled, tracked_stats, unpickle
from ..core.apidb import ApiDatabase
from ..framework.generator import materialize_image
from ..framework.repository import FrameworkRepository
from ..ir.clazz import Clazz
from ..ir.instructions import Invoke, InvokeKind, NewInstance
from ..ir.types import ClassName, MethodRef
from .clvm import DEFAULT_FRAMEWORK_DEPTH, LOADCLASS_SIGNATURES
from .intervals import ApiInterval
from .reaching import strings_at_invocations

__all__ = [
    "SUMMARY_SCHEMA_VERSION",
    "MethodSummary",
    "ClassSummary",
    "SummaryTableStats",
    "FrameworkSummaryTable",
    "summary_table",
    "register_table",
    "cached_table",
]

SUMMARY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MethodSummary:
    """Pre-analysis record for one framework method.

    ``interval`` is the hull of API-level lifetimes over every
    framework method reachable from this one within the exploration's
    framework-depth budget (the method itself included);
    ``permissions`` is the union of permissions required anywhere in
    that region.  Both answer "what could executing this API touch?"
    without loading a single framework body at analysis time.
    """

    ref: MethodRef
    interval: tuple[int, int]
    permissions: frozenset[str]
    instructions: int


@dataclass(frozen=True)
class ClassSummary:
    """Worklist effects + method table for one framework class.

    ``effects`` replays, in order, every enqueue the lazy CLVM would
    perform while analyzing this class: ``("loadclass", names, m)``
    for statically-resolved dynamic loads, ``("new", class_name, m)``
    for allocations, ``("call", target, m)`` for resolved invocations,
    and ``("dispatch", callee, m)`` for virtual/interface sites that
    may dispatch into app overrides (``m`` is the containing method,
    kept so dispatch edges carry their true caller).
    """

    name: ClassName
    instruction_count: int
    method_count: int
    effects: tuple[tuple, ...]
    methods: dict[str, MethodSummary] = field(default_factory=dict)

    def method(self, signature: str) -> MethodSummary | None:
        return self.methods.get(signature)


@dataclass
class SummaryTableStats:
    """Where each level's table came from, and what it cost."""

    levels_built: int = 0
    levels_loaded: int = 0
    lookups: int = 0
    build_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "levels_built": self.levels_built,
            "levels_loaded": self.levels_loaded,
            "lookups": self.lookups,
            "build_seconds": self.build_seconds,
        }


# -- image-local hierarchy walks -------------------------------------------
#
# Summary construction replays the lazy CLVM's dispatch resolution, but
# against the full image dict instead of the lazy resolver (same
# classes, same materialization) — no app is involved, so the walks are
# a pure function of (spec, level).

def _all_supertypes(
    image: dict[ClassName, Clazz],
    cache: dict[ClassName, tuple[Clazz, ...]],
    name: ClassName,
) -> tuple[Clazz, ...]:
    """Mirror of ``HierarchyResolver.all_supertypes`` over the image:
    breadth-first over supers + interfaces, absent names skipped."""
    cached = cache.get(name)
    if cached is not None:
        return cached
    out: list[Clazz] = []
    seen: set[ClassName] = {name}
    queue: list[ClassName] = []
    first = image.get(name)
    if first is not None:
        queue.extend(first.supertypes)
    while queue:
        super_name = queue.pop(0)
        if super_name in seen:
            continue
        seen.add(super_name)
        clazz = image.get(super_name)
        if clazz is None:
            continue
        out.append(clazz)
        queue.extend(clazz.supertypes)
    result = tuple(out)
    cache[name] = result
    return result


def _resolve_dispatch(
    image: dict[ClassName, Clazz],
    supers_cache: dict[ClassName, tuple[Clazz, ...]],
    instruction: Invoke,
) -> MethodRef | None:
    """Mirror of ``ClassLoaderVM._resolve_dispatch`` for call sites
    inside framework bodies (whose callees are framework refs, so the
    app never participates in the walk)."""
    callee = instruction.method
    clazz = image.get(callee.class_name)
    if instruction.kind in (InvokeKind.STATIC, InvokeKind.DIRECT):
        if clazz is not None and clazz.declares(callee.signature):
            return callee
        return None
    if clazz is None:
        return None
    if clazz.declares(callee.signature):
        declaring = clazz
    else:
        declaring = None
        for ancestor in _all_supertypes(
            image, supers_cache, callee.class_name
        ):
            if ancestor.declares(callee.signature):
                declaring = ancestor
                break
        if declaring is None:
            return None
    return MethodRef(declaring.name, callee.name, callee.descriptor)


# -- table construction ----------------------------------------------------

def _class_effects(
    clazz: Clazz,
    image: dict[ClassName, Clazz],
    supers_cache: dict[ClassName, tuple[Clazz, ...]],
) -> tuple[tuple, ...]:
    """The ordered worklist effects of analyzing ``clazz`` lazily."""
    effects: list[tuple] = []
    for method in clazz.methods:
        if method.body is None:
            continue
        has_dynamic_site = any(
            (invoke.method.class_name, invoke.method.name)
            in LOADCLASS_SIGNATURES
            for invoke in method.invocations
        )
        if has_dynamic_site:
            for invoke, resolved in strings_at_invocations(method):
                key = (invoke.method.class_name, invoke.method.name)
                if key in LOADCLASS_SIGNATURES:
                    effects.append(
                        (
                            "loadclass",
                            frozenset(resolved.get(0, frozenset())),
                            method.ref,
                        )
                    )
        for instruction in method.body.instructions:
            if isinstance(instruction, NewInstance):
                effects.append(
                    ("new", instruction.class_name, method.ref)
                )
            if not isinstance(instruction, Invoke):
                continue
            resolved = _resolve_dispatch(image, supers_cache, instruction)
            target = resolved or instruction.method
            effects.append(("call", target, method.ref))
            if instruction.kind in (
                InvokeKind.VIRTUAL, InvokeKind.INTERFACE
            ):
                effects.append(
                    ("dispatch", instruction.method, method.ref)
                )
    return tuple(effects)


def _method_region(
    start: MethodRef,
    direct: dict[MethodRef, tuple[MethodRef, ...]],
    max_depth: int | None,
) -> set[MethodRef]:
    """Framework refs reachable from ``start`` within the depth
    budget, ``start`` included (depth 0)."""
    region: set[MethodRef] = {start}
    frontier = [start]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier: list[MethodRef] = []
        for ref in frontier:
            for callee in direct.get(ref, ()):
                if callee not in region:
                    region.add(callee)
                    next_frontier.append(callee)
        frontier = next_frontier
    return region


class FrameworkSummaryTable:
    """Per-level framework summaries, built lazily and cached.

    One table serves every app analyzed against the same framework
    spec; pool workers inherit the parent's table over fork exactly
    like the API database, and a ``store_dir`` persists each level's
    summaries content-addressed on the spec digest so later processes
    load instead of rebuilding.
    """

    def __init__(
        self,
        framework: FrameworkRepository,
        apidb: ApiDatabase,
        *,
        max_depth: int | None = DEFAULT_FRAMEWORK_DEPTH,
        store_dir: str | Path | None = None,
    ) -> None:
        self._framework = framework
        self._apidb = apidb
        self._max_depth = max_depth
        self._store_dir = (
            Path(store_dir) if store_dir is not None else None
        )
        self._levels: dict[int, dict[ClassName, ClassSummary]] = {}
        self.stats = SummaryTableStats()

    @property
    def framework(self) -> FrameworkRepository:
        return self._framework

    @property
    def max_depth(self) -> int | None:
        return self._max_depth

    @property
    def store_dir(self) -> Path | None:
        return self._store_dir

    def set_store_dir(self, store_dir: str | Path | None) -> None:
        """Late-bind the persistence directory (the corpus layer knows
        the cache dir, the detector that constructs the table does
        not)."""
        if store_dir is not None and self._store_dir is None:
            self._store_dir = Path(store_dir)

    # -- lookups ------------------------------------------------------

    def level_summaries(
        self, level: int
    ) -> dict[ClassName, ClassSummary]:
        """Every class summary at ``level`` (built on first use)."""
        table = self._levels.get(level)
        if table is None:
            table = self._load(level)
            if table is None:
                table = self._build(level)
                self._store(level, table)
            self._levels[level] = table
        return table

    def class_summary(
        self, name: ClassName, level: int
    ) -> ClassSummary | None:
        self.stats.lookups += 1
        return self.level_summaries(level).get(name)

    def method_summary(
        self, ref: MethodRef, level: int
    ) -> MethodSummary | None:
        summary = self.level_summaries(level).get(ref.class_name)
        if summary is None:
            return None
        return summary.method(ref.name + ref.descriptor)

    # -- construction -------------------------------------------------

    def _build(self, level: int) -> dict[ClassName, ClassSummary]:
        started = time.perf_counter()
        spec = self._framework.spec
        image = materialize_image(spec, level)
        supers_cache: dict[ClassName, tuple[Clazz, ...]] = {}

        # First pass: per-class effects + the framework-internal
        # direct-call graph the method regions are computed over.
        effects_by_class: dict[ClassName, tuple[tuple, ...]] = {}
        direct: dict[MethodRef, tuple[MethodRef, ...]] = {}
        for name, clazz in image.items():
            effects = _class_effects(clazz, image, supers_cache)
            effects_by_class[name] = effects
            calls: dict[MethodRef, list[MethodRef]] = {}
            for kind, target, container in effects:
                if kind == "call" and target.is_framework:
                    calls.setdefault(container, []).append(target)
            for container, targets in calls.items():
                direct[container] = tuple(targets)

        # Second pass: per-method reachable interval + permission set.
        table: dict[ClassName, ClassSummary] = {}
        for name, clazz in image.items():
            methods: dict[str, MethodSummary] = {}
            for method in clazz.methods:
                region = _method_region(
                    method.ref, direct, self._max_depth
                )
                hull = ApiInterval.empty()
                permissions: set[str] = set()
                for ref in region:
                    entry = self._apidb.resolve(
                        ref.class_name, ref.name + ref.descriptor
                    )
                    if entry is not None:
                        lo, hi = entry.lifetime
                        hull = hull.join(ApiInterval.of(lo, hi))
                    permissions.update(
                        self._apidb.permissions_for(ref, deep=False)
                    )
                lo_hi = (
                    (hull.lo, hull.hi) if not hull.is_empty else (0, 0)
                )
                methods[method.signature] = MethodSummary(
                    ref=method.ref,
                    interval=lo_hi,
                    permissions=frozenset(permissions),
                    instructions=(
                        len(method.body) if method.body is not None else 0
                    ),
                )
            table[name] = ClassSummary(
                name=name,
                instruction_count=clazz.instruction_count,
                method_count=len(clazz.methods),
                effects=effects_by_class[name],
                methods=methods,
            )
        self.stats.levels_built += 1
        self.stats.build_seconds += time.perf_counter() - started
        return table

    # -- persistence --------------------------------------------------

    def _disk(self):
        """The persistent store, or ``None`` without a ``store_dir``."""
        if self._store_dir is None:
            return None
        return ContentStore(
            self._store_dir,
            "summaries",
            SUMMARY_SCHEMA_VERSION,
            suffix=".summ",
            stats=tracked_stats("summaries"),
        )

    def _key(self, level: int) -> str:
        depth = (
            "all" if self._max_depth is None else str(self._max_depth)
        )
        spec_key = fingerprint_spec(self._framework.spec)
        return f"{spec_key}-L{level}-d{depth}"

    def _store(self, level: int, table: dict) -> None:
        store = self._disk()
        if store is None:
            return
        store.put(self._key(level), pickled(table))
        store.prune()
        store.save()

    def _load(self, level: int) -> dict[ClassName, ClassSummary] | None:
        """Load one level from the store; ``None`` on a miss (a corrupt
        entry is dropped, so the rebuilt level replaces it)."""
        store = self._disk()
        if store is None:
            return None
        table = store.get(self._key(level), unpickle(dict))
        if table is not None:
            self.stats.levels_loaded += 1
        return table


# -- in-process registry (fork-shared, like the API database) --------------

_TABLES: dict[tuple[int, int | None], FrameworkSummaryTable] = {}


def summary_table(
    framework: FrameworkRepository,
    apidb: ApiDatabase,
    *,
    max_depth: int | None = DEFAULT_FRAMEWORK_DEPTH,
    store_dir: str | Path | None = None,
) -> FrameworkSummaryTable:
    """The shared summary table for ``framework``'s spec, creating it
    on first request.  Keyed by spec identity so forked pool workers
    inherit the parent's built levels for free."""
    key = (id(framework.spec), max_depth)
    table = _TABLES.get(key)
    if table is None:
        table = FrameworkSummaryTable(
            framework, apidb, max_depth=max_depth, store_dir=store_dir
        )
        _TABLES[key] = table
    elif store_dir is not None:
        table.set_store_dir(store_dir)
    return table


def register_table(table: FrameworkSummaryTable) -> None:
    """Adopt an externally built table into the registry (parent
    prebuild before forking a pool)."""
    _TABLES[(id(table.framework.spec), table.max_depth)] = table


def cached_table(
    spec, max_depth: int | None = DEFAULT_FRAMEWORK_DEPTH
) -> FrameworkSummaryTable | None:
    """The registered table for ``spec``, if any (no build)."""
    return _TABLES.get((id(spec), max_depth))
