"""One content-addressed store for every persistent cache namespace.

Per-app results, per-class artifacts, framework summary tables and
framework snapshots each live in a namespace directory of one cache
directory and share everything here: the ``<key[:2]>/<key><suffix>``
layout, the checksummed entry frame, atomic writes, corruption as a
miss that the next write heals, and one LRU byte budget through the
directory's shared :class:`~repro.cache.manifest.CacheManifest`.
Owners keep only their key derivation and payload codec.  The format
and its guarantees are described in ``docs/cost-model.md``
("Content store").
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .manifest import atomic_write_bytes, shared_manifest

__all__ = [
    "ContentStore",
    "StoreStats",
    "frame",
    "pickled",
    "reset_tracked_stats",
    "tracked_sections",
    "tracked_stats",
    "unframe",
    "unpickle",
]

T = TypeVar("T")

_CHECKSUM_BYTES = 64  # hex sha256 digest


def frame(version: object, key: str, payload: bytes) -> bytes:
    """The on-disk bytes of one entry: a hex SHA-256 checksum, then a
    ``<version> <key>`` stamp line, then the payload; the checksum
    covers the stamp and the payload."""
    stamp = f"{version} {key}\n".encode()
    checksum = hashlib.sha256(stamp)
    checksum.update(payload)
    return b"".join((checksum.hexdigest().encode(), stamp, payload))


def unframe(blob: bytes, version: object, key: str | None = None) -> bytes:
    """The payload of one entry.

    Raises ``ValueError`` when the checksum fails (torn or bit-flipped
    bytes) or the stamp names another version or, when ``key`` is
    given, another key.
    """
    body = memoryview(blob)[_CHECKSUM_BYTES:]  # hashed without a copy
    if hashlib.sha256(body).hexdigest().encode() != blob[:_CHECKSUM_BYTES]:
        raise ValueError("checksum mismatch")
    end = blob.find(b"\n", _CHECKSUM_BYTES)
    if end < 0:
        raise ValueError("no stamp")
    stamp = blob[_CHECKSUM_BYTES:end].decode()
    stamped_version, _, stamped_key = stamp.partition(" ")
    if stamped_version != str(version):
        raise ValueError("version mismatch")
    if key is not None and stamped_key != key:
        raise ValueError("key mismatch")
    return blob[end + 1:]


def pickled(value: object) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def unpickle(kind: type) -> Callable[[bytes], object]:
    """A :meth:`ContentStore.get` decoder for pickled ``kind`` values
    (anything else is corrupt)."""

    def decode(payload: bytes) -> object:
        value = pickle.loads(payload)
        if not isinstance(value, kind):
            raise ValueError(f"expected {kind.__name__}")
        return value

    return decode


@dataclass
class StoreStats:
    """One process's traffic against one store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evicted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def summed(cls, records: Iterable[dict]) -> dict:
        """The :meth:`as_dict` view of several stores' (or workers')
        :meth:`as_dict` records added together."""
        total = cls()
        for record in records:
            for name in (f.name for f in fields(cls)):
                value = getattr(total, name) + record.get(name, 0)
                setattr(total, name, value)
        return total.as_dict()


# Owners that open a fresh ContentStore per operation (summary tables,
# snapshots) count into one process-wide StoreStats per report section,
# so their traffic reaches ``cache_stats`` like the long-lived stores'.
_TRACKED: dict[str, StoreStats] = {}


def tracked_stats(section: str) -> StoreStats:
    """This process's counters for ``section``, created on first use."""
    return _TRACKED.setdefault(section, StoreStats())


def tracked_sections() -> dict[str, dict]:
    """The :meth:`StoreStats.as_dict` view of every tracked section."""
    return {name: stats.as_dict() for name, stats in _TRACKED.items()}


def reset_tracked_stats() -> None:
    """Drop every tracked section (a fresh pool worker; tests)."""
    _TRACKED.clear()


class ContentStore:
    """Checksummed, self-healing entries of one namespace.

    ``version`` is stamped into every entry: bumping it turns old
    entries into misses without migration code.  ``suffix`` ends every
    entry's file name (temp files never match it).  ``stats`` lets a
    caller extend the shared counters with its own.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        namespace: str,
        version: object,
        *,
        suffix: str,
        stats: StoreStats | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.namespace = namespace
        self.version = version
        self.suffix = suffix
        self.stats = stats if stats is not None else StoreStats()
        self.manifest = shared_manifest(self.cache_dir)

    def relative(self, key: str) -> str:
        return f"{self.namespace}/{key[:2]}/{key}{self.suffix}"

    def path(self, key: str) -> Path:
        return self.cache_dir / self.relative(key)

    # -- traffic -------------------------------------------------------

    def get(
        self, key: str, decode: Callable[[bytes], T] = bytes
    ) -> T | None:
        """The decoded entry for ``key``, or ``None`` on a miss.

        ``decode`` turns the verified payload into the caller's value;
        any exception it raises marks the entry corrupt.  The default
        returns the payload unparsed, which checks the checksum and
        stamp only.
        """
        path = self.path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            value = decode(unframe(blob, self.version, key))
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            self.manifest.forget(self.relative(key))
            return None
        self.stats.hits += 1
        # Touches the row, or adopts an entry whose writer's manifest
        # save lost the race.
        self.manifest.record(self.relative(key), len(blob))
        return value

    def put(self, key: str, payload: bytes) -> None:
        """Write one entry atomically and record it in the manifest
        (persisted by :meth:`save` / :meth:`flush`, not per entry)."""
        blob = frame(self.version, key, payload)
        path = self.path(key)
        if not path.exists():
            self.stats.stores += 1
        atomic_write_bytes(path, blob)
        self.manifest.record(self.relative(key), len(blob))

    # -- maintenance ---------------------------------------------------

    def prune(self) -> None:
        """Enforce the directory's byte budget (every namespace)."""
        self.stats.evicted += len(self.manifest.prune())

    def save(self) -> None:
        self.manifest.save()

    def adopt_untracked(self) -> int:
        """Re-enter this namespace's on-disk entries missing from the
        manifest.

        Concurrent writers over one directory write entries atomically
        but save the manifest last-writer-wins; files the surviving
        manifest never saw would escape the byte budget.  Returns how
        many entries were adopted.
        """
        adopted = 0
        for dirpath, _dirnames, filenames in os.walk(
            self.cache_dir / self.namespace
        ):
            for name in filenames:
                # Skips the ``<entry>.tmp.<pid>`` files of writers that
                # are mid-write or died before the rename.
                if not name.endswith(self.suffix):
                    continue
                path = Path(dirpath) / name
                relative = path.relative_to(self.cache_dir).as_posix()
                if relative in self.manifest.entries:
                    continue
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                self.manifest.record(relative, size)
                adopted += 1
        return adopted

    def flush(self) -> None:
        """Adopt strays, enforce the byte budget, persist the manifest
        (end of a run, daemon drain)."""
        self.adopt_untracked()
        self.prune()
        self.save()

