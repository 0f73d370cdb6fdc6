"""Per-app result cache: analyses keyed by what actually determines
them.

An :class:`~repro.eval.runner.AppResult` is a pure function of three
inputs — the APK bytes, the framework the database was mined from, and
the detector configuration — so a corpus re-run over unchanged inputs
can be served entirely from disk.  Entry payloads are JSON documents
encoded with the checkpoint journal's codec, which round-trips every
fingerprint-relevant field: a warm run restored from this cache is
bit-identical (by :meth:`RunResults.fingerprint`) to the cold run that
populated it.

Only clean results are stored — a failed, quarantined, or
fault-injected app is never cached, so retries and chaos runs always
re-analyze (a quarantine decision can never be masked by a stale hit).
Framing, corruption handling and eviction are the
:class:`~repro.cache.store.ContentStore`'s.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .fingerprint import CACHE_SCHEMA_VERSION, result_key
from .store import ContentStore

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from ..eval.runner import AppResult

__all__ = ["ResultCache"]


def _decode(payload: bytes) -> "AppResult":
    from ..eval.checkpoint import result_from_dict

    _, result = result_from_dict(json.loads(payload))
    return result


class ResultCache:
    """Disk store of finalized app results for one configuration.

    One instance is scoped to a (framework fingerprint, detector
    configuration fingerprint) pair; lookups take only the APK content
    fingerprint.  Changing any of the three produces different keys —
    invalidation is structural, not procedural.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        framework_fingerprint: str,
        config_fingerprint: str,
    ) -> None:
        self.framework_fingerprint = framework_fingerprint
        self.config_fingerprint = config_fingerprint
        self.store = ContentStore(
            cache_dir, "results", CACHE_SCHEMA_VERSION, suffix=".json"
        )
        self.stats = self.store.stats

    def _key(self, apk_fingerprint: str) -> str:
        return result_key(
            apk_fingerprint,
            self.framework_fingerprint,
            self.config_fingerprint,
        )

    # -- traffic -------------------------------------------------------

    def get(self, apk_fingerprint: str) -> "AppResult | None":
        """The cached result for these exact inputs, or ``None``."""
        result = self.store.get(self._key(apk_fingerprint), _decode)
        if result is not None:
            result.from_cache = True
        return result

    def put(self, apk_fingerprint: str, result: "AppResult") -> bool:
        """Store one *clean* result; failed results are refused (their
        absence is what forces re-analysis and keeps quarantine
        honest).  Returns whether the entry was written."""
        from ..eval.checkpoint import result_to_dict

        if not result.ok:
            return False
        # Index 0 is a placeholder: entries are position-free (the
        # same app may sit anywhere in any corpus).
        payload = json.dumps(result_to_dict(0, result)).encode()
        self.store.put(self._key(apk_fingerprint), payload)
        self.store.prune()
        return True

    def flush(self) -> None:
        """Persist manifest bookkeeping (call once per run, not per
        entry — the entries themselves are already durable)."""
        self.store.flush()
