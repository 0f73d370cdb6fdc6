"""Cache artifacts written by older builds must invalidate cleanly.

Two mechanisms rotate the persistent caches when semantic deltas
joined the analysis substrate, and both are pinned here:

* the framework-spec fingerprint hashes every method's ``semantics``
  field unconditionally, so a spec that gains (or changes) a delta is
  a different framework as far as every content-addressed key is
  concerned;
* ``CLASS_ARTIFACT_VERSION`` was bumped, so artifacts pickled by a
  pre-SEM build degrade to misses — re-analyzed, never replayed into
  wrong findings.

A directory written before the stores shared one entry frame (bare
JSON results, sha256-prefixed pickles, flat summary and snapshot
directories) must open without error too: every old entry is a miss
and is replaced.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from pathlib import Path

import pytest

import repro.cache.classes as classes_module
from repro.analysis.fwsummaries import (
    SUMMARY_SCHEMA_VERSION,
    FrameworkSummaryTable,
)
from repro.cache.classes import registered_stores, reset_class_stores
from repro.cache.fingerprint import CACHE_SCHEMA_VERSION, fingerprint_spec
from repro.cache.manifest import _reset_shared_manifests
from repro.cache.snapshot import _load_snapshot, snapshot_path
from repro.cache.store import frame, unframe
from repro.eval.runner import ToolSet, run_tools
from repro.framework.spec import (
    ClassHistory,
    FrameworkSpec,
    MethodHistory,
    SemanticDelta,
)
from repro.workload.appgen import AppForge


LEVEL = 26


def _checksummed_pickle(doc) -> bytes:
    payload = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).digest() + payload


def _rewrite_in_old_format(cache_dir: Path) -> None:
    """Turn every entry into what the per-store formats wrote before
    the shared frame, with a manifest listing the old paths (snapshots
    were never listed)."""
    rows: dict[str, int] = {}
    for path in (cache_dir / "results").rglob("*.json"):
        result = json.loads(unframe(path.read_bytes(), CACHE_SCHEMA_VERSION))
        blob = json.dumps(
            {"version": CACHE_SCHEMA_VERSION, "result": result}
        ).encode()
        path.write_bytes(blob)
        rows[path.relative_to(cache_dir).as_posix()] = len(blob)
    version = classes_module.CLASS_ARTIFACT_VERSION
    for path in (cache_dir / "classes").rglob("*.cls"):
        artifact = pickle.loads(unframe(path.read_bytes(), version))
        blob = _checksummed_pickle((version, artifact))
        path.write_bytes(blob)
        rows[path.relative_to(cache_dir).as_posix()] = len(blob)
    for path in list((cache_dir / "summaries").rglob("*.summ")):
        table = pickle.loads(
            unframe(path.read_bytes(), SUMMARY_SCHEMA_VERSION)
        )
        level, depth = path.stem.split("-L")[1].split("-d")
        blob = _checksummed_pickle(
            {
                "version": SUMMARY_SCHEMA_VERSION,
                "level": int(level),
                "max_depth": None if depth == "all" else int(depth),
                "classes": table,
            }
        )
        flat = cache_dir / "summaries" / path.name
        flat.write_bytes(blob)
        path.unlink()
        rows[flat.relative_to(cache_dir).as_posix()] = len(blob)
    for path in list((cache_dir / "framework").rglob("*.snapshot")):
        payload = unframe(path.read_bytes(), CACHE_SCHEMA_VERSION)
        flat = cache_dir / "framework" / path.name
        flat.write_bytes(hashlib.sha256(payload).digest() + payload)
        path.unlink()
    (cache_dir / "manifest.json").write_text(
        json.dumps(
            {
                "version": CACHE_SCHEMA_VERSION,
                "entries": {
                    relative: {"size": size, "touched": time.time()}
                    for relative, size in rows.items()
                },
            }
        )
    )


def _spec(semantics=()):
    return FrameworkSpec(
        (
            ClassHistory("java.lang.Object", super_name=None),
            ClassHistory(
                "android.x.Widget",
                methods=(
                    MethodHistory(
                        "tune", introduced=2, semantics=tuple(semantics)
                    ),
                ),
            ),
        )
    )


class TestSpecFingerprintRotation:
    def test_semantic_delta_rotates_the_digest(self):
        plain = _spec()
        delta = _spec(
            (SemanticDelta(24, "return-contract", "may return null"),)
        )
        assert fingerprint_spec(plain) != fingerprint_spec(delta)

    def test_delta_detail_is_part_of_the_digest(self):
        one = _spec(
            (SemanticDelta(24, "return-contract", "may return null"),)
        )
        other = _spec(
            (SemanticDelta(24, "return-contract", "always absolute"),)
        )
        assert fingerprint_spec(one) != fingerprint_spec(other)


class TestStaleArtifacts:
    @pytest.fixture()
    def corpus(self, apidb, picker):
        apps = []
        for index in range(2):
            forge = AppForge(
                f"com.stale.app{index}",
                f"Stale{index}",
                apidb=apidb,
                picker=picker,
                min_sdk=19,
                target_sdk=26,
                seed=700 + index,
            )
            forge.add_semantic_issue()
            forge.add_direct_issue()
            apps.append(forge.build())
        return apps

    def test_old_store_degrades_to_misses_never_wrong_findings(
        self, framework, apidb, corpus, tmp_path, monkeypatch
    ):
        store_dir = str(tmp_path / "store")
        lazy = run_tools(
            corpus,
            ToolSet.default(framework, apidb, include=("SAINTDroid",)),
        )

        # Populate the store as a pre-SEM build would have: same
        # artifacts, older version stamp.
        reset_class_stores()
        with monkeypatch.context() as patch:
            patch.setattr(classes_module, "CLASS_ARTIFACT_VERSION", 1)
            stale = run_tools(
                corpus,
                ToolSet.default(
                    framework, apidb, include=("SAINTDroid",),
                    dedup=True, dedup_dir=store_dir,
                ),
            )
        assert (
            stale.findings_fingerprint() == lazy.findings_fingerprint()
        )

        stale_entries = set(Path(store_dir).rglob("*.cls"))
        assert stale_entries

        # A current build over the stale store: the version is part of
        # the config fingerprint, so every pre-SEM entry is simply
        # unreachable — zero replays, full re-analysis, findings still
        # match the lazy run exactly.
        reset_class_stores()
        rerun = run_tools(
            corpus,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                dedup=True, dedup_dir=store_dir,
            ),
        )
        assert (
            rerun.findings_fingerprint() == lazy.findings_fingerprint()
        )
        hits = sum(s.stats.hits for s in registered_stores())
        misses = sum(s.stats.misses for s in registered_stores())
        assert hits == 0 and misses > 0
        fresh_entries = (
            set(Path(store_dir).rglob("*.cls")) - stale_entries
        )
        assert fresh_entries, "rerun should key under the new version"
        reset_class_stores()

        # Second line of defense: an entry whose frame carries the
        # old version stamp under a current key (a downgraded build
        # re-stamping files, a partial restore) is dropped as corrupt,
        # never replayed.
        victim = sorted(fresh_entries)[0]
        payload = unframe(
            victim.read_bytes(), classes_module.CLASS_ARTIFACT_VERSION
        )
        victim.write_bytes(frame(1, victim.stem, payload))
        reset_class_stores()
        downgraded = run_tools(
            corpus,
            ToolSet.default(
                framework, apidb, include=("SAINTDroid",),
                dedup=True, dedup_dir=store_dir,
            ),
        )
        assert (
            downgraded.findings_fingerprint()
            == lazy.findings_fingerprint()
        )
        assert sum(s.stats.corrupt for s in registered_stores()) > 0
        reset_class_stores()

    def test_old_format_directory_degrades_to_misses_and_heals(
        self, framework, apidb, corpus, tmp_path
    ):
        cache_dir = tmp_path / "store"

        def run():
            # Each run opens the directory cold, like a new process.
            reset_class_stores()
            _reset_shared_manifests()
            return run_tools(
                corpus,
                ToolSet.default(
                    framework, apidb, include=("SAINTDroid",),
                    dedup=True, dedup_dir=str(cache_dir),
                ),
                cache_dir=cache_dir,
            )

        cold = run()
        FrameworkSummaryTable(
            framework, apidb, store_dir=cache_dir
        ).level_summaries(LEVEL)
        _rewrite_in_old_format(cache_dir)

        reopened = run()
        assert reopened.fingerprint() == cold.fingerprint()
        assert reopened.cached_indices == ()
        assert reopened.cache_stats["results"]["corrupt"] == len(corpus)
        classes = reopened.cache_stats["classes"]
        assert classes["hits"] == 0 and classes["corrupt"] > 0

        # Old results and class artifacts were replaced in place: the
        # next run is served entirely from the cache.
        warm = run()
        assert warm.fingerprint() == cold.fingerprint()
        assert len(warm.cached_indices) == len(corpus)
        assert warm.cache_stats["results"]["corrupt"] == 0

        # Summary tables and snapshots moved to the sharded layout:
        # their old files are unreachable misses, rebuilt once under
        # the new layout, and stay under the byte budget until evicted.
        rebuilt = FrameworkSummaryTable(
            framework, apidb, store_dir=cache_dir
        )
        rebuilt.level_summaries(LEVEL)
        assert rebuilt.stats.levels_built == 1
        loaded = FrameworkSummaryTable(
            framework, apidb, store_dir=cache_dir
        )
        loaded.level_summaries(LEVEL)
        assert loaded.stats.levels_loaded == 1
        key = fingerprint_spec(framework.spec)
        assert _load_snapshot(snapshot_path(cache_dir, key), key=key)
        manifest = json.loads((cache_dir / "manifest.json").read_text())
        assert f"framework/{key}.snapshot" in manifest["entries"]
        reset_class_stores()
        _reset_shared_manifests()
