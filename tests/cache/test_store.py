"""Failure handling of the content store, once per mechanism.

Every persistent namespace — per-app results, per-class artifacts,
framework summary tables and framework snapshots — is a
:class:`~repro.cache.store.ContentStore` opened by its owner.  Each
case below runs against the store each owner actually opens, so an
owner that stopped delegating to the shared mechanism would fail here.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.fwsummaries import FrameworkSummaryTable
from repro.cache import snapshot
from repro.cache.classes import ClassStore
from repro.cache.manifest import shared_manifest
from repro.cache.results import ResultCache
from repro.cache.store import ContentStore, frame, reset_tracked_stats

KEY = "ab" + "0" * 62
OTHER_KEY = "cd" + "1" * 62
PAYLOAD = b"payload \x00\xff bytes\n" * 20


def _results(cache_dir, framework, apidb):
    return ResultCache(
        cache_dir, framework_fingerprint="fw", config_fingerprint="cfg"
    ).store


def _classes(cache_dir, framework, apidb):
    return ClassStore(
        cache_dir, framework_fingerprint="fw", config_fingerprint="cfg"
    ).disk


def _summaries(cache_dir, framework, apidb):
    return FrameworkSummaryTable(
        framework, apidb, store_dir=cache_dir
    )._disk()


def _framework(cache_dir, framework, apidb):
    return snapshot._store(cache_dir)


OWNERS = {
    "results": _results,
    "classes": _classes,
    "summaries": _summaries,
    "framework": _framework,
}


@pytest.fixture(params=sorted(OWNERS))
def store(request, tmp_path, framework, apidb) -> ContentStore:
    # Summary tables and snapshots count into process-wide counters;
    # every case starts them at zero.
    reset_tracked_stats()
    opened = OWNERS[request.param](tmp_path, framework, apidb)
    assert opened.namespace == request.param
    return opened


def _assert_dropped(store: ContentStore, key: str) -> None:
    assert store.get(key) is None
    assert store.stats.corrupt == 1
    assert store.stats.misses == 1
    assert store.stats.hits == 0
    assert not store.path(key).exists()
    assert store.relative(key) not in store.manifest.entries


class TestRoundTrip:
    def test_put_then_get(self, store):
        store.put(KEY, PAYLOAD)
        assert store.get(KEY) == PAYLOAD
        assert store.stats.stores == 1
        assert store.stats.hits == 1
        relative = store.relative(KEY)
        assert relative == (
            f"{store.namespace}/{KEY[:2]}/{KEY}{store.suffix}"
        )
        assert store.manifest.entries[relative]["size"] == (
            store.path(KEY).stat().st_size
        )

    def test_missing_entry_is_a_plain_miss(self, store):
        assert store.get(KEY) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_rewrite_is_not_a_new_store(self, store):
        store.put(KEY, PAYLOAD)
        store.put(KEY, PAYLOAD + b"more")
        assert store.stats.stores == 1
        assert store.get(KEY) == PAYLOAD + b"more"


class TestCorruptionIsAMiss:
    def test_truncated_entry(self, store):
        store.put(KEY, PAYLOAD)
        path = store.path(KEY)
        path.write_bytes(path.read_bytes()[:-5])
        _assert_dropped(store, KEY)

    @pytest.mark.parametrize("where", [0, 70, -1])  # checksum, stamp, payload
    def test_flipped_byte(self, store, where):
        store.put(KEY, PAYLOAD)
        path = store.path(KEY)
        blob = bytearray(path.read_bytes())
        blob[where] ^= 0x01
        path.write_bytes(bytes(blob))
        _assert_dropped(store, KEY)

    def test_version_stamp_drift(self, store):
        store.path(KEY).parent.mkdir(parents=True)
        store.path(KEY).write_bytes(
            frame(f"{store.version}-old", KEY, PAYLOAD)
        )
        _assert_dropped(store, KEY)

    def test_key_mismatch(self, store):
        store.put(OTHER_KEY, PAYLOAD)
        store.path(KEY).parent.mkdir(parents=True)
        store.path(KEY).write_bytes(store.path(OTHER_KEY).read_bytes())
        _assert_dropped(store, KEY)
        assert store.get(OTHER_KEY) == PAYLOAD

    def test_undecodable_payload(self, store):
        store.put(KEY, PAYLOAD)

        def decode(payload):
            raise ValueError("not this owner's format")

        assert store.get(KEY, decode) is None
        assert store.stats.corrupt == 1
        assert not store.path(KEY).exists()

    def test_next_write_heals(self, store):
        store.put(KEY, PAYLOAD)
        store.path(KEY).write_bytes(b"torn")
        assert store.get(KEY) is None
        store.put(KEY, PAYLOAD)
        assert store.get(KEY) == PAYLOAD


class TestStrayTempFiles:
    def test_stray_is_never_served_nor_adopted(self, store):
        # What a writer leaves mid-write, or when it dies before the
        # rename: a complete entry under the temp name.
        path = store.path(KEY)
        path.parent.mkdir(parents=True)
        stray = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        stray.write_bytes(frame(store.version, KEY, PAYLOAD))
        assert store.get(KEY) is None
        assert store.stats.corrupt == 0
        assert store.adopt_untracked() == 0
        assert not store.manifest.entries
        assert stray.exists()


class TestAdoption:
    def test_untracked_entry_is_adopted_once(self, store):
        store.put(KEY, PAYLOAD)
        store.manifest.forget(store.relative(KEY))
        assert store.adopt_untracked() == 1
        assert store.adopt_untracked() == 0
        assert store.manifest.entries[store.relative(KEY)]["size"] == (
            store.path(KEY).stat().st_size
        )

    def test_reading_an_untracked_entry_adopts_it(self, store):
        store.put(KEY, PAYLOAD)
        store.manifest.forget(store.relative(KEY))
        assert store.get(KEY) == PAYLOAD
        assert store.relative(KEY) in store.manifest.entries

    def test_flush_persists_adopted_rows(self, store):
        store.put(KEY, PAYLOAD)
        store.manifest.forget(store.relative(KEY))
        store.flush()
        saved = (store.cache_dir / "manifest.json").read_text()
        assert store.relative(KEY) in saved


def test_lru_eviction_spans_every_namespace(tmp_path, framework, apidb):
    """One byte budget bounds all four namespaces together: eviction
    takes the least recently touched entries whatever namespace holds
    them."""
    stores = [
        OWNERS[name](tmp_path, framework, apidb) for name in sorted(OWNERS)
    ]
    for age, store in enumerate(stores):
        store.put(KEY, PAYLOAD)
        store.manifest.entries[store.relative(KEY)]["touched"] = age
    entry_bytes = stores[0].path(KEY).stat().st_size
    manifest = shared_manifest(tmp_path, max_bytes=2 * entry_bytes)
    assert all(store.manifest is manifest for store in stores)

    stores[-1].prune()
    assert stores[-1].stats.evicted == 2
    assert manifest.total_bytes <= manifest.max_bytes
    survivors = [store.path(KEY).exists() for store in stores]
    assert survivors == [False, False, True, True]
    # A touch on read protects an old entry from the next eviction.
    assert stores[2].get(KEY) == PAYLOAD
    stores[3].put(OTHER_KEY, PAYLOAD)
    stores[3].prune()
    assert stores[2].path(KEY).exists()
    assert not stores[3].path(KEY).exists()
