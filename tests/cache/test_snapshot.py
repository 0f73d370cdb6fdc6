"""Tests for framework snapshots: write-once, corruption-as-miss."""

from __future__ import annotations

from repro.cache import (
    ensure_snapshot,
    fingerprint_spec,
    load_or_build_substrate,
    snapshot_path,
    write_snapshot,
)
from repro.cache.snapshot import _load_snapshot
from repro.core.arm import build_api_database
from repro.framework.catalog import build_spec
from repro.framework.repository import FrameworkRepository


def _small_substrate():
    spec = build_spec(bulk_classes=40, seed=7)
    framework = FrameworkRepository(spec)
    return spec, framework, build_api_database(framework)


class TestRoundTrip:
    def test_load_returns_equivalent_substrate(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        key = fingerprint_spec(spec)
        path = write_snapshot(tmp_path, key, framework, apidb)
        loaded = _load_snapshot(path, key=key)
        assert loaded is not None
        loaded_framework, loaded_db = loaded
        assert sorted(loaded_framework.spec.class_names) == sorted(
            spec.class_names
        )
        # The mined database resolves the same classes.
        for name in list(spec.class_names)[:10]:
            assert (name in loaded_db) == (name in apidb)

    def test_snapshot_carries_warm_class_cache(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        # Materialize a few classes so the cache has content.
        for name in list(spec.class_names)[:5]:
            framework.load_class_cached(name, 26)
        assert framework.export_class_cache()
        key = fingerprint_spec(spec)
        path = write_snapshot(tmp_path, key, framework, apidb)
        loaded_framework, _ = _load_snapshot(path, key=key)
        assert (
            loaded_framework.export_class_cache().keys()
            == framework.export_class_cache().keys()
        )

    def test_ensure_snapshot_writes_once(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        first = ensure_snapshot(tmp_path, framework, apidb)
        stamp = first.stat().st_mtime_ns
        second = ensure_snapshot(tmp_path, framework, apidb)
        assert first == second
        assert second.stat().st_mtime_ns == stamp


    def test_ensure_snapshot_rewrites_a_corrupt_snapshot(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        key = fingerprint_spec(spec)
        path = ensure_snapshot(tmp_path, framework, apidb)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert _load_snapshot(path, key=key) is None

        assert ensure_snapshot(tmp_path, framework, apidb) == path
        assert _load_snapshot(path, key=key) is not None


class TestDefectsAreMisses:
    def test_missing_file(self, tmp_path):
        assert _load_snapshot(tmp_path / "nope.snapshot") is None

    def test_truncated_file(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        key = fingerprint_spec(spec)
        path = write_snapshot(tmp_path, key, framework, apidb)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert _load_snapshot(path, key=key) is None

    def test_bit_flip_fails_checksum(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        key = fingerprint_spec(spec)
        path = write_snapshot(tmp_path, key, framework, apidb)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert _load_snapshot(path, key=key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        spec, framework, apidb = _small_substrate()
        path = write_snapshot(tmp_path, "some-key", framework, apidb)
        assert _load_snapshot(path, key="other-key") is None
        # Without a key constraint, the embedded key is trusted.
        assert _load_snapshot(path) is not None

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.snapshot"
        path.write_bytes(b"short")
        assert _load_snapshot(path) is None


class TestLoadOrBuild:
    def test_builds_then_snapshots_then_loads(self, tmp_path):
        spec = build_spec(bulk_classes=40, seed=8)
        fw1, db1, source1 = load_or_build_substrate(tmp_path, spec)
        assert source1 == "built"
        assert snapshot_path(tmp_path, fingerprint_spec(spec)).exists()
        # Same spec object again: in-process memory wins.
        fw2, db2, source2 = load_or_build_substrate(tmp_path, spec)
        assert source2 == "memory"
        assert db2 is db1
        # A fresh-but-equal spec (new process in spirit) hits the disk
        # snapshot.
        fresh = build_spec(bulk_classes=40, seed=8)
        fw3, db3, source3 = load_or_build_substrate(tmp_path, fresh)
        assert source3 == "snapshot"

    def test_no_cache_dir_always_builds(self):
        spec = build_spec(bulk_classes=30, seed=9)
        _, _, source = load_or_build_substrate(None, spec)
        assert source == "built"
