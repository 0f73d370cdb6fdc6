"""Tests for the corpus-wide content-addressed class-artifact store.

The store's contract: lookups key on class *content* (plus framework
and config digests), disk corruption is a miss never an error, staged
artifacts publish only on an explicit end-of-pipeline commit, and the
directory's shared manifest keeps class artifacts inside the same LRU
byte budget as every other store.
"""

from __future__ import annotations

import pickle

from repro.cache.classes import (
    CLASS_ARTIFACT_VERSION,
    ClassArtifact,
    ClassStore,
    class_store,
    registered_stores,
    reset_class_stores,
)
from repro.cache.manifest import shared_manifest
from repro.cache.store import frame
from repro.ir import ClassBuilder


def make_class(name="MainActivity", calls=("getSystemService",)):
    builder = ClassBuilder(
        f"com.test.app.{name}", super_name="android.app.Activity"
    )
    method = builder.method("run")
    for call in calls:
        method.invoke_virtual("android.content.Context", call)
    method.return_void()
    builder.finish(method)
    return builder.build()


def make_store(tmp_path, *, fw="fw-digest", cfg="cfg-digest", **kwargs):
    return ClassStore(
        tmp_path, framework_fingerprint=fw, config_fingerprint=cfg, **kwargs
    )


def artifact_for(clazz):
    return ClassArtifact(
        effects=tuple(
            (("invoke", "virtual", ("android.app.Activity", "x", "()void")),)
            for _ in clazz.methods
        ),
        helpers={("isAtLeastN", "()boolean"): frozenset({24, 25})},
    )


def publish(store, clazz, artifact=None):
    """Stage and commit one artifact the way a pipeline run does."""
    key = store.key_for(clazz)
    store.begin_app()
    store.stage(key, artifact or artifact_for(clazz))
    store.commit_app()
    return key


class TestKeying:
    def test_identical_content_shares_a_key(self, tmp_path):
        store = make_store(tmp_path)
        a, b = make_class(), make_class()
        assert a is not b
        assert store.key_for(a) == store.key_for(b)

    def test_body_change_changes_key(self, tmp_path):
        store = make_store(tmp_path)
        assert store.key_for(make_class()) != store.key_for(
            make_class(calls=("getSystemService", "checkPermission"))
        )

    def test_framework_digest_partitions_the_store(self, tmp_path):
        clazz = make_class()
        published = make_store(tmp_path)
        publish(published, clazz)
        other_fw = make_store(tmp_path, fw="fw-digest-v2")
        assert other_fw.get(clazz) is None
        assert other_fw.stats.misses == 1

    def test_config_digest_partitions_the_store(self, tmp_path):
        clazz = make_class()
        publish(make_store(tmp_path), clazz)
        other_cfg = make_store(tmp_path, cfg="cfg-digest-v2")
        assert other_cfg.get(clazz) is None


class TestRoundTrip:
    def test_memory_hit_after_commit(self, tmp_path):
        store = make_store(tmp_path)
        clazz = make_class()
        assert store.get(clazz) is None
        publish(store, clazz)
        artifact = store.get(clazz)
        assert isinstance(artifact, ClassArtifact)
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_disk_round_trip_across_instances(self, tmp_path):
        clazz = make_class()
        first = make_store(tmp_path)
        publish(first, clazz)
        assert first.stats.stores == 1

        fresh = make_store(tmp_path)
        loaded = fresh.get(clazz)
        assert loaded is not None
        assert loaded.helpers == artifact_for(clazz).helpers
        assert fresh.stats.hits == 1

    def test_memory_only_store_never_touches_disk(self, tmp_path):
        store = ClassStore(
            None, framework_fingerprint="fw", config_fingerprint="cfg"
        )
        clazz = make_class()
        publish(store, clazz)
        assert store.get(clazz) is not None
        assert not list(tmp_path.iterdir())

    def test_guard_rows_accumulate_on_cached_artifact(self, tmp_path):
        store = make_store(tmp_path)
        clazz = make_class()
        key = publish(store, clazz)

        store.begin_app()
        row_key = ("run()void", 16, 30, "helpers-digest")
        rows = ((("android.app.Activity", "x", "()void"), 21, 30),)
        store.record_guard_rows(key, row_key, rows)
        store.commit_app()

        fresh = make_store(tmp_path)
        assert fresh.get(clazz).guard_rows[row_key] == rows


class TestCorruption:
    def _entry_path(self, store, clazz):
        return store.disk.path(store.key_for(clazz))

    def test_flipped_bytes_are_a_miss_and_dropped(self, tmp_path):
        clazz = make_class()
        publish(make_store(tmp_path), clazz)
        fresh = make_store(tmp_path)
        path = self._entry_path(fresh, clazz)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        assert fresh.get(clazz) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert not path.exists()

    def test_truncated_entry_is_a_miss(self, tmp_path):
        clazz = make_class()
        publish(make_store(tmp_path), clazz)
        fresh = make_store(tmp_path)
        path = self._entry_path(fresh, clazz)
        path.write_bytes(path.read_bytes()[:10])
        assert fresh.get(clazz) is None
        assert fresh.stats.corrupt == 1

    def test_artifact_version_bump_orphans_old_entries(self, tmp_path):
        clazz = make_class()
        store = make_store(tmp_path)
        key = publish(store, clazz)
        path = store.disk.path(key)
        payload = pickle.dumps(artifact_for(clazz))
        path.write_bytes(frame(CLASS_ARTIFACT_VERSION + 1, key, payload))

        fresh = make_store(tmp_path)
        assert fresh.get(clazz) is None
        assert fresh.stats.corrupt == 1


class TestStagingDiscipline:
    def test_staged_without_commit_never_publishes(self, tmp_path):
        store = make_store(tmp_path)
        clazz = make_class()
        store.begin_app()
        store.stage(store.key_for(clazz), artifact_for(clazz))
        # Pipeline aborts (fault/timeout/crash): the next app's
        # begin_app discards the stage instead of committing it.
        store.begin_app()
        store.commit_app()
        assert store.stats.discarded == 1
        assert store.get(clazz) is None
        fresh = make_store(tmp_path)
        assert fresh.get(clazz) is None

    def test_guard_rows_for_unpublished_artifact_are_dropped(
        self, tmp_path
    ):
        store = make_store(tmp_path)
        clazz = make_class()
        key = store.key_for(clazz)
        store.begin_app()
        store.record_guard_rows(key, ("sig", 16, 30, "d"), ())
        store.commit_app()  # no artifact staged or cached for the key
        assert store.get(clazz) is None


class TestEviction:
    def test_lru_bound_holds_for_class_artifacts(self, tmp_path):
        shared_manifest(tmp_path, max_bytes=2_000)
        store = make_store(tmp_path)
        for index in range(20):
            publish(store, make_class(name=f"Bulk{index}"))
        assert store.stats.evicted > 0
        manifest = shared_manifest(tmp_path)
        assert manifest.total_bytes <= 2_000
        on_disk = list((tmp_path / "classes").rglob("*.cls"))
        assert len(on_disk) == len(manifest.entries)

    def test_adopt_untracked_brings_strays_under_the_budget(
        self, tmp_path
    ):
        store = make_store(tmp_path)
        clazz = make_class()
        key = publish(store, clazz)
        # Simulate a concurrent worker whose manifest save lost the
        # race: the entry file exists but the manifest forgot it.
        store.disk.manifest.forget(store.disk.relative(key))
        assert store.disk.adopt_untracked() == 1
        assert store.disk.adopt_untracked() == 0  # idempotent


class TestRegistry:
    def test_registry_shares_instances_per_scope(self, tmp_path):
        reset_class_stores()
        try:
            a = class_store(
                tmp_path, framework_fingerprint="f", config_fingerprint="c"
            )
            b = class_store(
                tmp_path, framework_fingerprint="f", config_fingerprint="c"
            )
            assert a is b
            c = class_store(
                tmp_path, framework_fingerprint="f2", config_fingerprint="c"
            )
            assert c is not a
            assert set(registered_stores()) == {a, c}
        finally:
            reset_class_stores()
        assert registered_stores() == ()
