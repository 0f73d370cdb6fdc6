"""Tests for the per-app result cache and its manifest bookkeeping."""

from __future__ import annotations

import json
import re

import pytest

from repro.cache import (
    CACHE_SCHEMA_VERSION,
    CacheManifest,
    ResultCache,
    fingerprint_apk,
)
from repro.cache.manifest import atomic_write_text, shared_manifest
from repro.cache.store import frame, unframe
from repro.core.errors import AnalysisError, ErrorKind
from repro.eval import ToolSet, analyze_app
from repro.workload.corpus import CorpusConfig, generate_corpus

TOOLS = ("SAINTDroid", "CID")


@pytest.fixture(scope="module")
def toolset(framework, apidb):
    return ToolSet.default(framework, apidb, include=TOOLS)


@pytest.fixture(scope="module")
def forged(apidb):
    config = CorpusConfig(count=1, kloc_median=1.0, kloc_max=2.0)
    return next(iter(generate_corpus(config, apidb))).forged


@pytest.fixture(scope="module")
def result(toolset, forged):
    return analyze_app(toolset, forged)


def _cache(tmp_path, **kwargs):
    defaults = dict(
        framework_fingerprint="fw", config_fingerprint="cfg"
    )
    defaults.update(kwargs)
    return ResultCache(tmp_path, **defaults)


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path, forged, result):
        cache = _cache(tmp_path)
        fp = fingerprint_apk(forged.apk)
        assert cache.get(fp) is None
        assert cache.put(fp, result)
        restored = cache.get(fp)
        assert restored is not None
        assert restored.fingerprint() == result.fingerprint()
        assert restored.from_cache
        assert not result.from_cache
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_hit_preserves_phase_timings(
        self, tmp_path, forged, result
    ):
        cache = _cache(tmp_path)
        fp = fingerprint_apk(forged.apk)
        cache.put(fp, result)
        restored = cache.get(fp)
        assert restored.phase_seconds() == pytest.approx(
            result.phase_seconds()
        )

    def test_failed_results_are_refused(self, tmp_path, result):
        cache = _cache(tmp_path)
        result_copy = analyze_result_with_error(result)
        assert not cache.put("whatever", result_copy)
        assert cache.get("whatever") is None

    def test_framework_fingerprint_partitions(
        self, tmp_path, forged, result
    ):
        fp = fingerprint_apk(forged.apk)
        _cache(tmp_path, framework_fingerprint="fw1").put(fp, result)
        assert (
            _cache(tmp_path, framework_fingerprint="fw2").get(fp) is None
        )

    def test_config_fingerprint_partitions(
        self, tmp_path, forged, result
    ):
        fp = fingerprint_apk(forged.apk)
        _cache(tmp_path, config_fingerprint="a").put(fp, result)
        assert _cache(tmp_path, config_fingerprint="b").get(fp) is None


def analyze_result_with_error(result):
    from copy import copy

    failed = copy(result)
    failed.error = AnalysisError(
        kind=ErrorKind.CRASH, message="injected", attempts=1
    )
    return failed


class TestCorruption:
    def _stored(self, tmp_path, forged, result):
        cache = _cache(tmp_path)
        fp = fingerprint_apk(forged.apk)
        cache.put(fp, result)
        (path,) = (tmp_path / "results").rglob("*.json")
        assert path.exists()
        return cache, fp, path

    def test_truncated_entry_is_a_miss(self, tmp_path, forged, result):
        cache, fp, path = self._stored(tmp_path, forged, result)
        path.write_text(path.read_text()[:40])
        assert cache.get(fp) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # dropped, will be re-stored

    def test_edited_field_fails_the_checksum(
        self, tmp_path, forged, result
    ):
        # An edit that still parses (a bumped work-unit count) must not
        # be served: it would change the corpus fingerprint silently.
        cache, fp, path = self._stored(tmp_path, forged, result)
        text, edits = re.subn(
            r'"workUnits": (\d+)',
            lambda match: f'"workUnits": {int(match.group(1)) + 1}',
            path.read_text(),
            count=1,
        )
        assert edits == 1
        path.write_text(text)
        assert cache.get(fp) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.hits == 0

    def test_binary_garbage_is_a_miss(self, tmp_path, forged, result):
        cache, fp, path = self._stored(tmp_path, forged, result)
        path.write_bytes(b"\xff\xfe garbage \x00")
        assert cache.get(fp) is None
        assert cache.stats.corrupt == 1

    def test_wrong_schema_version_is_a_miss(
        self, tmp_path, forged, result
    ):
        cache, fp, path = self._stored(tmp_path, forged, result)
        payload = unframe(path.read_bytes(), CACHE_SCHEMA_VERSION)
        path.write_bytes(frame(999, path.stem, payload))
        assert cache.get(fp) is None
        assert cache.stats.corrupt == 1

    def test_valid_json_bad_payload_is_a_miss(
        self, tmp_path, forged, result
    ):
        cache, fp, path = self._stored(tmp_path, forged, result)
        payload = json.dumps({"bogus": 1}).encode()
        path.write_bytes(frame(CACHE_SCHEMA_VERSION, path.stem, payload))
        assert cache.get(fp) is None
        assert cache.stats.corrupt == 1


class TestManifest:
    def test_corrupt_manifest_starts_empty(self, tmp_path):
        atomic_write_text(tmp_path / "manifest.json", "{not json")
        manifest = CacheManifest(tmp_path)
        assert manifest.entries == {}

    def test_wrong_version_starts_empty(self, tmp_path):
        atomic_write_text(
            tmp_path / "manifest.json",
            json.dumps({"version": 999, "entries": {"x": {}}}),
        )
        assert CacheManifest(tmp_path).entries == {}

    def test_save_load_round_trip(self, tmp_path):
        manifest = CacheManifest(tmp_path)
        manifest.record("results/ab/abc.json", 120)
        manifest.save()
        reloaded = CacheManifest(tmp_path)
        assert "results/ab/abc.json" in reloaded.entries
        assert reloaded.total_bytes == 120

    def test_prune_evicts_lru(self, tmp_path):
        manifest = CacheManifest(tmp_path, max_bytes=250)
        for index in range(3):
            relative = f"results/{index}.json"
            (tmp_path / "results").mkdir(exist_ok=True)
            (tmp_path / relative).write_text("x" * 100)
            manifest.record(relative, 100)
            manifest.entries[relative]["touched"] = float(index)
        evicted = manifest.prune()
        assert evicted == ["results/0.json"]
        assert not (tmp_path / "results/0.json").exists()
        assert (tmp_path / "results/2.json").exists()
        assert manifest.total_bytes == 200

    def test_eviction_through_result_cache(
        self, tmp_path, forged, result
    ):
        shared_manifest(tmp_path, max_bytes=1)  # everything over budget
        cache = _cache(tmp_path)
        fp = fingerprint_apk(forged.apk)
        cache.put(fp, result)
        assert cache.stats.evicted == 1
        assert cache.get(fp) is None
