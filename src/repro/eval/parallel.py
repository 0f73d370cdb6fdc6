"""Parallel corpus analysis: one resident, self-healing worker pool.

Large-scale studies vet thousands of apps; analyzing them strictly
serially throws away both hardware parallelism and the fact that every
per-app analysis shares the same immutable substrate (framework spec,
API database).  :class:`PoolBackend` is the one pooled scheduler, used
by the batch engine (``run_tools(apps, jobs=N)`` →
:func:`~repro.eval.orchestration.run_corpus`) and by the daemon
(:class:`~repro.serve.service.AnalysisService` →
:func:`~repro.eval.orchestration.run_stream`):

* **inherited substrate** — the parent prepares the substrate exactly
  once per pool (the caller's framework repository and API database
  when given, else loaded or built; the pending apps' framework levels
  pre-warmed; optional framework summary table), and every worker —
  respawned ones included — inherits the prepared objects over
  ``fork`` as copy-on-write pages instead of rebuilding them.  Fork is
  the only start method: a platform without it cannot build a pool
  (``ValueError``), and nothing is ever re-mined or re-read per
  worker.  Every app a worker analyzes hits the worker-local
  framework class cache and database memo tables;
* **resident workers, per-app dispatch** — each worker is one forked
  process with a private duplex pipe and a slot in a shared heartbeat
  array; the parent hands each idle worker one app at a time, and the
  workers live for the whole run (or the daemon's lifetime), retry
  rounds included;
* **self-healing** — a **dead** worker (injected ``worker-death``, an
  OOM kill, an operator's ``kill -9``) costs only the app it held:
  that app is settled as a retryable ``worker-lost`` record and the
  slot is **respawned in place**, so the pool never shrinks and no
  other worker's app is disturbed.  A worker busy past the per-app
  deadline plus ``hang_timeout_s`` (a wedged interpreter that
  ``analyze_app``'s own deadline could not stop) is killed and
  replaced the same way; ``hang_timeout_s=None`` disarms this
  backstop, which is what a batch run without a per-app deadline
  does: it never kills a slow app;
* **exactly-once settlement** — results are matched on ``(index,
  attempt)`` against a done-set, so a synthesized loss and a late real
  result can never both be delivered; a round cut short by
  :meth:`PoolBackend.close` settles nothing and raises
  :class:`~repro.eval.orchestration.BackendClosedError`, so work that
  never ran is never recorded as terminal;
* **deterministic ordering** — per-app computation is the exact
  :func:`~repro.eval.runner.analyze_app` the serial loop uses and
  :func:`~repro.eval.orchestration.run_corpus` reassembles corpus
  order, so a pooled run's :meth:`RunResults.fingerprint` is identical
  to a serial run's.

The retry/quarantine/checkpoint/cache envelope is NOT implemented
here: it lives — once, shared verbatim with the serial scheduler and
the daemon — in :mod:`repro.eval.orchestration`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import TYPE_CHECKING, Iterable

from ..cache.classes import ClassStoreStats
from ..cache.store import StoreStats, reset_tracked_stats, tracked_sections
from ..core.arm import register_database
from ..core.errors import AnalysisError, AnalysisPhase, ErrorKind
from ..framework.repository import FrameworkCacheStats, FrameworkRepository
from ..framework.spec import FrameworkSpec
# ``run_corpus`` stays importable from here: perfbench traces it as
# ``repro.eval.parallel.run_corpus``.
from .orchestration import (  # noqa: F401
    BackendClosedError,
    CorpusBackend,
    Entry,
    run_corpus,
)
from .runner import AppResult, DEFAULT_TOOLS, ToolSet, analyze_app

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from .faults import FaultPlan

__all__ = ["HANG_GRACE_S", "PoolBackend"]

#: Default grace on top of the per-app deadline before the parent
#: kills a busy worker as hung.
HANG_GRACE_S = 30.0

#: How long one pass of the dispatch loop waits for an answer before
#: it re-checks worker liveness.
_DRAIN_POLL_S = 0.05


# -- worker side -----------------------------------------------------------

def _init_worker(
    framework: FrameworkRepository,
    apidb,
    include: tuple[str, ...],
    summaries: bool = False,
    cache_dir: str | None = None,
    dedup: bool = False,
) -> ToolSet:
    """Build this worker's tool set over the substrate it inherited
    from the parent as copy-on-write pages (zero rebuild cost)."""
    # The inherited database and cache counters carry the parent's
    # activity — a warm start we gladly keep, but the accounting must
    # cover only this worker's.
    apidb.reset_cache_counters()
    framework.cache_stats = FrameworkCacheStats()
    reset_tracked_stats()
    return ToolSet.default(
        framework,
        apidb,
        include=include,
        summaries=summaries,
        summaries_dir=cache_dir,
        dedup=dedup,
        dedup_dir=cache_dir,
    )


def _worker_main(conn, heartbeat, slot: int, *setup) -> None:
    """One resident worker: build the tool set, then serve tasks off
    the pipe until the ``None`` sentinel (or pipe loss).  ``setup`` is
    :func:`_init_worker`'s arguments."""
    import signal as _signal

    # A daemon's drain handler belongs to the parent; a worker that
    # inherited it must die plainly when terminated.
    try:
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover
        pass
    toolset = _init_worker(*setup)
    heartbeat[slot] = time.time()
    parent = os.getppid()
    while True:
        try:
            # A plain blocking recv() would wedge forever if the
            # parent is SIGKILLed: forked siblings inherit each
            # other's parent-end pipe fds, so EOF never arrives.
            # Poll with a deadline and watch for reparenting instead.
            while not conn.poll(1.0):
                if os.getppid() != parent:  # orphaned by kill -9
                    return
            task = conn.recv()
        except (EOFError, OSError):  # parent died or closed the pipe
            return
        if task is None:
            return
        index, forged, attempt, timeout_s, fault = task
        heartbeat[slot] = time.time()
        result = analyze_app(
            toolset,
            forged,
            timeout_s=timeout_s,
            fault=fault,
            attempt=attempt,
            allow_process_death=True,
        )
        heartbeat[slot] = time.time()
        try:
            conn.send(
                (os.getpid(), index, attempt, result, toolset.cache_stats())
            )
        except (BrokenPipeError, OSError):  # pragma: no cover
            return


# -- parent side -----------------------------------------------------------

def _pool_context():
    """The fork start method: workers inherit the parent's prepared
    substrate.  Raises ``ValueError`` on platforms without fork."""
    return multiprocessing.get_context("fork")


def _worker_lost_results(
    entries: list[Entry], exc: BaseException
) -> list[tuple[int, AppResult]]:
    """Synthesize failure records for apps a worker held when it died
    or hung: the run continues, the apps are recorded as
    ``worker-lost`` and — being retryable — re-dispatched if budget
    remains."""
    out = []
    for index, forged, attempt in entries:
        error = AnalysisError(
            kind=ErrorKind.WORKER_LOST,
            phase=AnalysisPhase.TOOL,
            message=f"worker process lost: {type(exc).__name__}: {exc}",
            retryable=True,
            attempts=attempt + 1,
        )
        out.append(
            (
                index,
                AppResult(
                    app=forged.apk.name,
                    truth=forged.truth,
                    kloc=forged.apk.dex_kloc,
                    error=error,
                ),
            )
        )
    return out


def _merge_cache_stats(snapshots: dict[int, dict]) -> dict:
    """Sum per-worker cumulative snapshots — and the parent's own
    summary-table and snapshot traffic from :meth:`PoolBackend.prepare`
    — into one corpus view."""
    merged = {
        "workers": len(snapshots),
        "framework": {
            "class_hits": 0,
            "class_misses": 0,
            "image_hits": 0,
            "image_misses": 0,
        },
        "apidb": {
            "resolve_hits": 0,
            "resolve_misses": 0,
            "levels_hits": 0,
            "levels_misses": 0,
            "permission_hits": 0,
            "permission_misses": 0,
        },
    }
    per_worker_rates = []
    for snapshot in snapshots.values():
        for section in ("framework", "apidb"):
            for key in merged[section]:
                merged[section][key] += snapshot[section].get(key, 0)
        worker_fw = snapshot["framework"]
        worker_total = (
            worker_fw.get("class_hits", 0)
            + worker_fw.get("class_misses", 0)
        )
        per_worker_rates.append(
            worker_fw.get("class_hits", 0) / worker_total
            if worker_total
            else 0.0
        )
    fw = merged["framework"]
    class_total = fw["class_hits"] + fw["class_misses"]
    fw["hit_rate"] = fw["class_hits"] / class_total if class_total else 0.0
    # Each worker's own rate, not just the blended one: the blend can
    # hide a single cold worker re-materializing the world.
    fw["per_worker_hit_rates"] = sorted(
        round(rate, 4) for rate in per_worker_rates
    )
    db = merged["apidb"]
    hits = db["resolve_hits"] + db["levels_hits"] + db["permission_hits"]
    misses = (
        db["resolve_misses"] + db["levels_misses"] + db["permission_misses"]
    )
    db["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    # Store traffic: class artifacts (only in --dedup workers), summary
    # tables and snapshots (workers and parent).
    parent = tracked_sections()
    for name, stats_type in (
        ("classes", ClassStoreStats),
        ("summaries", StoreStats),
        ("snapshots", StoreStats),
    ):
        sections = [
            snapshot[name]
            for snapshot in (*snapshots.values(), parent)
            if snapshot.get(name)
        ]
        if sections:
            merged[name] = stats_type.summed(sections)
    return merged


def _pending_levels(pending: Iterable[Entry]) -> list[int]:
    """The framework levels a round over ``pending`` will touch."""
    levels: set[int] = set()
    for _index, forged, _attempt in pending:
        try:
            levels.add(forged.apk.manifest.effective_max_sdk)
        except Exception:  # noqa: BLE001 — hostile app: its own
            continue  # analysis will record the failure, not prep
    return sorted(levels)


@dataclass
class _Worker:
    process: object
    conn: object


class PoolBackend(CorpusBackend):
    """Resident, self-healing worker pool behind both the batch engine
    and the streaming daemon."""

    def __init__(
        self,
        spec: FrameworkSpec,
        *,
        workers: int = 2,
        include: tuple[str, ...] = DEFAULT_TOOLS,
        timeout_s: float | None = None,
        hang_timeout_s: float | None = HANG_GRACE_S,
        summaries: bool = False,
        cache_dir: str | None = None,
        dedup: bool = False,
        fault_plan: "FaultPlan | None" = None,
        substrate: "tuple[FrameworkRepository, object] | None" = None,
    ) -> None:
        self._spec = spec
        self.workers = max(1, workers)
        self.include = tuple(include)
        #: Per-app wall-clock budget, enforced inside the workers.
        self.timeout_s = timeout_s
        #: Grace on top of ``timeout_s`` before a busy worker is
        #: declared hung (see :meth:`_hang_deadline`); ``None`` never
        #: declares one hung.
        self.hang_timeout_s = hang_timeout_s
        self.summaries = summaries
        #: Persistent cache directory: substrate snapshot, summary and
        #: class-artifact stores (``None`` disables all three).
        self.cache_dir = cache_dir
        self.dedup = dedup
        self.fault_plan = fault_plan
        self._substrate = substrate
        self._ctx = _pool_context()
        # Lock-free: a worker killed (or stopped) mid-write must not
        # leave a lock that wedges the parent's health reads.
        self._heartbeat = self._ctx.Array("d", self.workers, lock=False)
        self._pool: list[_Worker | None] = [None] * self.workers
        self._inflight: dict[int, tuple[Entry, float]] = {}
        self._worker_stats: dict[int, dict] = {}
        self._setup: tuple = ()
        #: Serializes spawning against :meth:`close` so a respawn that
        #: races a concurrent close cannot leave an orphan worker.
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self.restarts = 0
        self.substrate_source: str | None = None

    # -- CorpusBackend surface -----------------------------------------

    @property
    def spec(self) -> FrameworkSpec:
        return self._spec

    @property
    def tool_names(self) -> tuple[str, ...]:
        return self.include

    def config_options(self) -> dict:
        options: dict = {}
        if self.summaries:
            options["summaries"] = True
        if self.dedup:
            options["dedup"] = True
        return options

    def prepare(self, cache_dir=None, pending: Iterable[Entry] = ()) -> None:
        """Load (or adopt) the substrate once, pre-warm the framework
        levels and summary tables ``pending`` will touch, and fork the
        pool over it.  Idempotent, and a no-op on a closed pool.  The
        snapshot and stores live under the pool's own ``cache_dir``;
        the argument is the :class:`CorpusBackend` signature's."""
        if self._started or self._closed:
            return
        if self._substrate is None:
            from ..cache.snapshot import load_or_build_substrate

            framework, apidb, source = load_or_build_substrate(
                self.cache_dir, self._spec
            )
        else:
            framework, apidb = self._substrate
            source = "provided"
        self.substrate_source = source
        register_database(self._spec, apidb)
        if self.cache_dir is not None:
            from ..cache import ensure_snapshot

            # For the next cold process, which loads it instead of
            # re-mining; this pool's workers inherit the substrate.
            ensure_snapshot(self.cache_dir, framework, apidb)
        levels = _pending_levels(pending)
        for level in levels:
            try:
                framework.warm_level(level)
            except ValueError:  # level outside the modeled range
                continue
        if self.summaries:
            from ..analysis.fwsummaries import summary_table

            # Materialize the table parent-side so forked workers
            # inherit it as copy-on-write pages.
            table = summary_table(
                framework, apidb, store_dir=self.cache_dir
            )
            for level in levels:
                try:
                    table.level_summaries(level)
                except ValueError:  # pragma: no cover — range-checked
                    continue
        self._setup = (
            framework,
            apidb,
            self.include,
            self.summaries,
            self.cache_dir,
            self.dedup,
        )
        for slot in range(self.workers):
            self._spawn(slot)
        self._started = True

    def run_round(
        self, pending: list[Entry], round_no: int
    ) -> list[tuple[Entry, AppResult]]:
        """Dispatch one round over the resident pool, surviving worker
        death and hangs without losing a single entry.  A round on a
        closed pool — ``close()`` from another thread mid-round, as a
        timed-out daemon drain does — raises
        :class:`~repro.eval.orchestration.BackendClosedError` instead
        of settling entries that never ran."""
        if not self._started:
            self.prepare()
        out: list[tuple[Entry, AppResult]] = []
        todo: deque[Entry] = deque(pending)
        done: set[tuple[int, int]] = set()

        def _settle(entry: Entry, result: AppResult) -> None:
            key = (entry[0], entry[2])
            if key in done:
                return
            done.add(key)
            out.append((entry, result))

        def _lose(entries: list[Entry], exc: BaseException) -> None:
            for entry, (_index, result) in zip(
                entries, _worker_lost_results(entries, exc)
            ):
                _settle(entry, result)

        while len(out) < len(pending):
            if self._closed:
                raise BackendClosedError("worker pool closed mid-round")
            try:
                self._feed(todo)
                self._collect(todo, _settle)
                self._replace_dead_and_hung(_lose)
            except Exception:
                # A concurrent close() tears pipes down under the
                # loop; the closed check above ends the round.
                if not self._closed:
                    raise
        return out

    def finish(self, cache_dir=None) -> dict:
        merged = _merge_cache_stats(self._worker_stats)
        if self.dedup and self.cache_dir is not None:
            # Workers write class artifacts atomically but save the
            # shared manifest last-writer-wins; the parent adopts
            # anything the surviving manifest missed and enforces the
            # byte budget.
            from ..cache.classes import class_disk

            class_disk(self.cache_dir).flush()
        return merged

    def close(self) -> None:
        """Stop every worker.  Idempotent and safe mid-round from another thread (``run_corpus`` calls it
        from a ``finally``, the daemon from its drain path)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, [None] * self.workers
        live = [worker for worker in pool if worker is not None]
        for worker in live:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in live:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover — stuck
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.conn.close()
        self._inflight.clear()

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, slot: int) -> bool:
        with self._lock:
            if self._closed:
                return False
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._heartbeat, slot) + self._setup,
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._pool[slot] = _Worker(process=process, conn=parent_conn)
            return True

    def _respawn(self, slot: int) -> None:
        worker = self._pool[slot]
        if worker is not None:
            worker.conn.close()
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=5.0)
        if self._spawn(slot):
            self.restarts += 1

    # -- dispatch ------------------------------------------------------

    def _hang_deadline(self) -> float | None:
        """Seconds a worker may stay busy on one app before the parent
        kills it as hung; ``None`` when the backstop is disarmed.

        ``analyze_app`` enforces ``timeout_s`` inside the worker, so a
        healthy worker answers within roughly one timeout and the hang
        deadline is only the backstop for a truly wedged process."""
        if self.hang_timeout_s is None:
            return None
        return (self.timeout_s or 0.0) + self.hang_timeout_s

    def _feed(self, todo: deque[Entry]) -> None:
        """Hand one entry to every idle live worker."""
        for slot in range(self.workers):
            if not todo:
                return
            worker = self._pool[slot]
            if worker is None or slot in self._inflight:
                continue
            if not worker.process.is_alive():
                self._respawn(slot)
                worker = self._pool[slot]
                if worker is None:
                    continue
            entry = todo.popleft()
            fault = (
                self.fault_plan.analysis_fault_for(entry[0])
                if self.fault_plan is not None
                else None
            )
            try:
                worker.conn.send(
                    (entry[0], entry[1], entry[2], self.timeout_s, fault)
                )
            except (BrokenPipeError, OSError):
                todo.appendleft(entry)
                self._respawn(slot)
                continue
            self._inflight[slot] = (entry, time.monotonic())

    def _collect(self, todo: deque[Entry], settle) -> None:
        """Wait briefly for answers and settle whatever is ready."""
        busy = {
            worker.conn: slot
            for slot, worker in enumerate(self._pool)
            if worker is not None and slot in self._inflight
        }
        if not busy:
            return
        for ready in connection.wait(list(busy), timeout=_DRAIN_POLL_S):
            slot = busy[ready]
            try:
                pid, index, attempt, result, stats = ready.recv()
            except (EOFError, OSError):
                # Worker died between wait() and recv(): the death
                # path synthesizes the loss.
                continue
            held = self._inflight.pop(slot, None)
            self._worker_stats[pid] = stats
            if held is None:
                continue
            entry = held[0]
            if (index, attempt) != (entry[0], entry[2]):
                # A stale answer on a recycled slot (should be
                # unreachable with per-respawn fresh pipes): drop the
                # message, re-dispatch the held entry.
                todo.append(entry)
                continue
            settle(entry, result)

    def _replace_dead_and_hung(self, lose) -> None:
        """Respawn dead workers and kill hung ones, settling whatever
        they held as lost."""
        deadline = self._hang_deadline()
        now = time.monotonic()
        for slot, worker in enumerate(self._pool):
            if worker is None:
                continue
            held = self._inflight.get(slot)
            if worker.process.is_alive():
                if (
                    held is None
                    or deadline is None
                    or now - held[1] <= deadline
                ):
                    continue
                exc: BaseException = TimeoutError(
                    f"worker pid {worker.process.pid} hung past "
                    f"{deadline:.1f}s"
                )
            else:
                exc = RuntimeError(f"worker pid {worker.process.pid} died")
            if held is not None:
                self._inflight.pop(slot, None)
                lose([held[0]], exc)
            self._respawn(slot)

    # -- observability -------------------------------------------------

    def cache_stats(self) -> dict:
        """Merged per-worker cache statistics (latest snapshot per
        pid) without the flush side effects of :meth:`finish` — the
        daemon's ``/statsz`` read path."""
        return _merge_cache_stats(self._worker_stats)

    def liveness(self) -> dict:
        """Pool health for ``/healthz``: per-slot liveness, busyness,
        heartbeats, and the respawn count.  PIDs are exposed so chaos
        tests (and the CI smoke) can kill a real worker."""
        now = time.time()
        alive = busy = 0
        pids: list[int | None] = []
        heartbeat_age: list[float | None] = []
        for slot, worker in enumerate(self._pool):
            if worker is None:
                pids.append(None)
                heartbeat_age.append(None)
                continue
            if worker.process.is_alive():
                alive += 1
            if slot in self._inflight:
                busy += 1
            pids.append(worker.process.pid)
            beat = self._heartbeat[slot]
            heartbeat_age.append(round(now - beat, 3) if beat else None)
        return {
            "workers": self.workers,
            "alive": alive,
            "busy": busy,
            "restarts": self.restarts,
            "pids": pids,
            "heartbeat_age_s": heartbeat_age,
            "substrate_source": self.substrate_source,
        }
