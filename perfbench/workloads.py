"""The four benchmark workloads.

Each workload builds its inputs from the run's seed, runs them
through the repo's public entry points, checks every result against
the seeded ground truth (see :mod:`gate`), and returns its end-to-end
and per-layer numbers.  Sizes scale with ``--seconds`` (the base sizes
below were chosen so that one run measures about ``BASE_SECONDS`` on a
2-core x86 box at the seed commit); the work itself is fixed for a
given ``(seed, seconds)``, so a faster program finishes sooner rather
than analyzing a different mix of apps.

Why these four (one per layer group the program has; ``BENCHMARK.json``
lists the last three -- ``vet-serial`` stays runnable, but four
workloads of this length do not fit the time the benchmark's full set
of runs is allowed, and its layer is measured by the other three):

* ``vet-serial`` -- the paper's per-app claim: the analysis passes
  alone.  Pool, stores, daemon and campaign code are bypassed.
* ``compare-campaign`` -- corpus planning, materialization, the
  coverage gate, six detector configurations, join and report.
* ``dedup-pooled`` -- the process pool, substrate preparation and the
  on-disk class store (half the apps fill it, half read it).
* ``serve-open-loop`` -- the resident daemon under an open-loop
  arrival schedule: admission, queue, journal, supervisor, HTTP.

Every end-to-end timing is in reference-host seconds (see
:mod:`hostspeed`): each round's timings are divided by the host's
speed factor sampled during the round.  Each workload repeats its
units (an app's analysis, one ``materialize`` call, one phase of a
round), takes each unit's median repetition, and builds its latencies
and throughput from those.  The raw per-round walls, the speed factors
and the ladder's latencies under load stay in the run's ``details``
and in the per-layer metrics.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field

import gate

#: ``--seconds`` the base sizes below were tuned for.
BASE_SECONDS = 30

PASS_NAMES = (
    "manifest-ingest",
    "framework-summaries",
    "class-dedup",
    "clvm-load",
    "icfg-explore",
    "guard-propagation",
    "override-collection",
    "permission-annotation",
    "detect-api",
    "detect-apc",
    "detect-prm",
    "detect-sem",
    "class-store-commit",
)

COMPARE_CONFIGS = ("SAINTDroid", "SAINTDroid-eager", "SAINTDroid-anon", "CID", "CIDER", "Lint")

#: Per-layer metrics every traced run reports (0 where the workload
#: does not exercise the layer), with the direction that is better.
PER_LAYER: dict[str, tuple[str, str]] = {
    "workload.generate_s": ("s", "lower"),
    "workload.plan_s": ("s", "lower"),
    "workload.materialize_s": ("s", "lower"),
    "workload.coverage_gate_s": ("s", "lower"),
    "workload.picker_builds": ("count", "lower"),
    "substrate.build_s": ("s", "lower"),
    "substrate.prepare_s": ("s", "lower"),
    "framework.class_hit_rate": ("ratio", "higher"),
    "framework.class_misses": ("count", "lower"),
    "apidb.hit_rate": ("ratio", "higher"),
    "sched.run_s": ("s", "lower"),
    "sched.busy_frac": ("ratio", "higher"),
    "sched.overhead_s": ("s", "lower"),
    "sched.retries": ("count", "lower"),
    **{f"pass.{name}_s": ("s", "lower") for name in PASS_NAMES},
    "analysis.work_units": ("count", "lower"),
    "analysis.memory_units": ("count", "lower"),
    "classes.hit_rate": ("ratio", "higher"),
    "classes.guard_hit_rate": ("ratio", "higher"),
    "classes.stores": ("count", "lower"),
    "classes.disk_bytes": ("bytes", "lower"),
    "dedup.fill_s": ("s", "lower"),
    "dedup.read_s": ("s", "lower"),
    "compare.join_s": ("s", "lower"),
    "compare.report_s": ("s", "lower"),
    **{f"compare.config.{name}_s": ("s", "lower") for name in COMPARE_CONFIGS},
    "serve.job_latency_p50_s.r50": ("s", "lower"),
    "serve.job_latency_tail_s.r50": ("s", "lower"),
    "serve.job_latency_p50_s.r85": ("s", "lower"),
    "serve.job_latency_tail_s.r85": ("s", "lower"),
    "serve.max_rate_under_slo_jobs_per_s": ("1/s", "higher"),
    "serve.queue_wait_p50_s": ("s", "lower"),
    "serve.queue_wait_tail_s": ("s", "lower"),
    "serve.service_p50_s": ("s", "lower"),
    "serve.admission_dedup_hits": ("count", "higher"),
    "serve.rejected": ("count", "lower"),
    "serve.worker_respawns": ("count", "lower"),
    "serve.backlog_max": ("count", "lower"),
    "serve.generator_lag_max_s": ("s", "lower"),
    "timeline.unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "apps_per_s": ("1/s", "higher"),
    "app_latency_p50_s": ("s", "lower"),
    "app_latency_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    ``(percentile, value)``.  Needs at least 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    index = n - 11
    return 100.0 * (index + 1) / n, ordered[index]


def scaled(base: int, seconds: int, floor: int) -> int:
    return max(floor, round(base * seconds / BASE_SECONDS))


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    #: Untraced wall of a round next to the traced one, for
    #: ``trace.overhead_frac``.
    untraced_round_s: float | None = None
    traced_round_s: float | None = None


class Context:
    """Everything a workload needs from ``run.py``."""

    def __init__(self, *, seed, seconds, tracer, scratch, substrate, speed, service=None, server=None):
        self.seed = seed
        #: The running :class:`hostspeed.HostSpeed` sampler.
        self.speed = speed
        self.seconds = seconds
        self.tracer = tracer
        self.scratch = scratch
        self.substrate = substrate
        self.service = service
        self.server = server
        self.usable_cores = len(os.sched_getaffinity(0))

    @property
    def traced(self) -> bool:
        return hasattr(self.tracer, "spans")

    def speed_factors(self, spans: list[tuple[float, float]]) -> list[float]:
        """Stop the host-speed sampler; the factor over each
        ``time.monotonic()`` span."""
        self.speed.stop()
        return [self.speed.factor(start, end) for start, end in spans]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _saintdroid_reports(results) -> list:
    return [r.reports["SAINTDroid"] for r in results if "SAINTDroid" in r.reports]


def _saintdroid_wall(result) -> float:
    """An app's SAINTDroid analysis wall (infinite when it has no report)."""
    report = result.reports.get("SAINTDroid")
    return math.inf if report is None or report.metrics is None else report.metrics.wall_time_s


def _pass_totals(reports) -> dict[str, float]:
    totals = {f"pass.{name}_s": 0.0 for name in PASS_NAMES}
    for report in reports:
        if report.metrics is None:
            continue
        for name, seconds in report.metrics.pass_seconds.items():
            key = f"pass.{name}_s"
            if key in totals:
                totals[key] += seconds
    return totals


def _units(reports) -> tuple[int, int]:
    work = sum(r.metrics.work_units for r in reports if r.metrics is not None)
    memory = sum(r.metrics.memory_units for r in reports if r.metrics is not None)
    return work, memory


def _cache_layers(stats: dict) -> dict:
    out = {}
    framework = stats.get("framework", {})
    if framework:
        out["framework.class_hit_rate"] = framework.get("hit_rate", 0.0)
        out["framework.class_misses"] = framework.get("class_misses", 0)
    apidb = stats.get("apidb", {})
    if apidb:
        out["apidb.hit_rate"] = apidb.get("hit_rate", 0.0)
    classes = stats.get("classes", {})
    if classes:
        out["classes.hit_rate"] = classes.get("hit_rate", 0.0)
        out["classes.guard_hit_rate"] = classes.get("guard_hit_rate", 0.0)
        out["classes.stores"] = classes.get("stores", 0)
    return out


def in_reference_seconds(rounds: list[list[float]], factors: list[float]) -> list[list[float]]:
    """Each round's timings divided by the host's speed factor of that
    round."""
    return [[t / factor for t in samples] for samples, factor in zip(rounds, factors)]


def median_per_unit(rounds: list[list[float]]) -> list[float]:
    """Each unit's median repetition: ``rounds[r][i]`` is the time unit
    ``i`` took in round ``r``."""
    if len({len(samples) for samples in rounds}) != 1:
        raise ValueError("every round must time the same units")
    return [statistics.median(samples) for samples in zip(*rounds)]


def _app_latency(e2e: dict, info: dict, latencies: list[float]) -> None:
    percentile, value = tail(latencies)
    e2e["app_latency_p50_s"] = statistics.median(latencies)
    e2e["app_latency_tail_s"] = value
    info["app_latency_tail_percentile"] = round(percentile, 1)
    info["app_latency_samples"] = len(latencies)


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
    return total


def _trace_spans(tracer) -> None:
    """Patch the public callables each layer is entered through."""
    import repro.core.arm as arm
    import repro.eval.compare as compare
    import repro.eval.orchestration as orchestration
    import repro.eval.parallel as parallel
    import repro.eval.runner as runner
    import repro.serve.queue as queue
    import repro.serve.service as service
    import repro.workload.appgen as appgen

    def tools_of(args, kwargs):
        toolset = args[1] if len(args) > 1 else kwargs.get("toolset")
        return "+".join(toolset.tool_names) if toolset is not None else "default"

    tracer.wrap(runner, "run_tools", "sched.run_tools")
    tracer.wrap(compare, "run_tools", "compare.config", label=tools_of)
    tracer.wrap(compare, "plan_compare_corpus", "workload.plan_compare_corpus")
    tracer.wrap(compare, "plan_apps", "workload.plan")
    tracer.wrap(compare, "materialize", "workload.materialize")
    tracer.wrap(compare, "missing_scenario_kinds", "workload.coverage_gate")
    tracer.wrap(compare, "join_runs", "compare.join")
    tracer.wrap(compare, "build_report", "compare.report")
    tracer.wrap(arm, "build_api_database", "substrate.build_api_database")
    tracer.wrap(orchestration, "run_corpus", "sched.run_corpus")
    tracer.wrap(parallel, "run_corpus", "sched.run_corpus")
    tracer.wrap(orchestration.SerialBackend, "run_round", "sched.serial_round")
    tracer.wrap(parallel.PoolBackend, "prepare", "substrate.pool_prepare")
    tracer.wrap(parallel.PoolBackend, "run_round", "sched.pool_round")
    tracer.wrap(parallel.PoolBackend, "finish", "sched.pool_finish")
    tracer.wrap(service.AnalysisService, "submit", "serve.admission")
    tracer.wrap(queue.JobQueue, "take", "serve.queue_take")
    tracer.wrap(appgen.ApiPicker, "__init__", "workload.picker_build")


def _timeline(ctx: Context, layers: dict) -> None:
    if ctx.traced:
        layers["timeline.unattributed_s"] = ctx.tracer.unattributed()
        layers["workload.picker_builds"] = ctx.tracer.calls("workload.picker_build")


# ---------------------------------------------------------------------------
# vet-serial
# ---------------------------------------------------------------------------

#: Size strata: the midpoints of the five quintiles of the calibrated
#: log-normal (sigma 0.85), as multiples of the median KLOC.
STRATA = tuple(math.exp(0.85 * z) for z in (-1.2816, -0.5244, 0.0, 0.5244, 1.2816))
VET_KLOC_MEDIAN = 4.0
VET_APPS = 25
#: Measured rounds after the cache-filling one.  Every round must
#: produce the same findings; an app's latency sample is its median
#: over the measured rounds.
VET_ROUNDS = 3
#: Seeded API sites of a flagged app (68,268 reports over the 41% of
#: 3,571 apps flagged) in the calibrated mechanism mix: direct,
#: library, inherited, forward-removed; plus anonymous-guard traps at
#: the calibrated 18% of sites.
VET_SITES = (("add_direct_issue", 19), ("add_library_issue", 17),
             ("add_inherited_issue", 7), ("add_forward_removed_issue", 3))
VET_TRAPS = 8


def vet_corpus(seed: int, seconds: int, apidb) -> list:
    """The RQ2 corpus at its calibrated *expected* shape.

    ``generate_corpus`` draws each app's size and issue counts from
    heavy-tailed distributions, so a 25-app sample's total work -- and
    with it every timing -- moves by tens of percent from seed to
    seed.  Here the shape is fixed and only the code varies with the
    seed: sizes sit at the quintile midpoints of the calibrated size
    distribution, and within each quintile the five apps follow one
    pattern at the calibrated rates -- two of five flagged with the
    mean number of API sites (41%), one with callback issues (20%),
    legacy-target apps open to revocation (69%), one modern app
    missing its permission request and one implementing the protocol,
    a benign guard in every app and a helper-guard trap in one.  The
    seed picks the APIs, callers and filler."""
    from repro.workload.appgen import ApiPicker, AppForge

    picker = ApiPicker(apidb)
    per_stratum = scaled(VET_APPS, seconds, 15) // len(STRATA)
    apps = []
    for stratum, factor in enumerate(STRATA):
        for slot in range(per_stratum):
            index = stratum * per_stratum + slot
            modern = slot % 2 == 0
            forge = AppForge(
                f"app.vet.a{index}",
                f"vet-{index:03d}",
                min_sdk=16 if modern else 14,
                target_sdk=26 if modern else 22,
                seed=seed * 1_000_003 + index,
                apidb=apidb,
                picker=picker,
            )
            scenarios: list[tuple[str, dict]] = [("add_guarded_direct", {})]
            if slot % 5 in (0, 2):
                for method, count in VET_SITES:
                    scenarios += [(method, {})] * count
                scenarios += [("add_anonymous_guard_trap", {})] * VET_TRAPS
            if slot % 5 == 1:
                scenarios += [("add_callback_issue", {"modeled": True})]
                scenarios += [("add_callback_issue", {"modeled": False})] * 2
            if slot % 5 == 4:
                scenarios.append(("add_helper_guard_trap", {}))
            if not modern:
                scenarios.append(("add_permission_revocation_issue", {"deep": False}))
            elif slot % 5 == 4:
                scenarios.append(("add_permission_request_issue", {"deep": False}))
            elif slot % 5 == 2:
                scenarios.append(("implement_permission_protocol", {}))
            for method, kwargs in scenarios:
                try:
                    getattr(forge, method)(**kwargs)
                except LookupError:
                    # No API fits this app's SDK window for the drawn
                    # mechanism: the site is skipped, as in
                    # ``generate_corpus``.
                    continue
            forge.add_filler(kloc=VET_KLOC_MEDIAN * factor)
            apps.append(forge.build())
    return apps


def run_vet_serial(ctx: Context) -> Outcome:
    import repro.eval.runner as runner

    framework, apidb = ctx.substrate
    tracer = ctx.tracer
    out = Outcome()
    start = time.perf_counter()
    apps = vet_corpus(ctx.seed, ctx.seconds, apidb)
    out.layers["workload.generate_s"] = time.perf_counter() - start
    toolset = runner.ToolSet.default(framework, apidb, include=("SAINTDroid",))

    # Round 0 fills the framework class cache (a corpus run pays that
    # once, amortized over thousands of apps); rounds 1..VET_ROUNDS
    # are measured.
    walls: list[float] = []
    spans: list[tuple[float, float]] = []
    runs = []
    for round_no in range(VET_ROUNDS + 1):
        last = round_no == VET_ROUNDS
        if last and ctx.traced:
            tracer.open_window()
            _trace_spans(tracer)
        try:
            with tracer.span("vet.round"):
                m0, t0 = time.monotonic(), time.perf_counter()
                run = runner.run_tools(apps, toolset)
                walls.append(time.perf_counter() - t0)
                spans.append((m0, time.monotonic()))
        finally:
            if last and ctx.traced:
                tracer.restore()
                tracer.close_window()
        runs.append(run)
    factors = ctx.speed_factors(spans)

    verdicts = [gate.check_run(run, apps, apidb) for run in runs]
    out.attempted = len(apps) * len(runs)
    out.failed = sum(v.failed_ops for v in verdicts)
    out.info["bad_apps"] = [bad for v in verdicts for bad in v.bad_apps][:5]
    fingerprints = [gate.findings_digest(run) for run in runs]
    work, memory = _units(_saintdroid_reports(runs[0].results))
    out.info["findings_digest"] = fingerprints[0]
    out.info["work_units"] = work
    out.info["memory_units"] = memory
    out.info["accuracy"] = verdicts[0].accuracy
    out.info["deterministic"] = len(set(fingerprints)) == 1
    out.info["round_walls_s"] = walls
    out.info["apps"] = len(apps)
    out.info["kloc"] = round(sum(r.kloc for r in runs[0].results), 1)
    out.info["host_factors"] = factors

    # One sample per app: its median over the measured rounds.
    per_round = [[_saintdroid_wall(result) for result in run.results] for run in runs[1:]]
    medians = [t for t in median_per_unit(in_reference_seconds(per_round, factors[1:])) if math.isfinite(t)]
    out.e2e["apps_per_s"] = len(medians) / sum(medians)
    _app_latency(out.e2e, out.info, medians)

    if ctx.traced:
        last_run = runs[-1]
        reports = _saintdroid_reports(last_run.results)
        busy = sum(r.metrics.wall_time_s for r in reports)
        run_s = walls[-1]
        out.layers.update(_pass_totals(reports))
        out.layers.update(_cache_layers(toolset.cache_stats()))
        out.layers["analysis.work_units"] = work
        out.layers["analysis.memory_units"] = memory
        out.layers["sched.run_s"] = run_s
        out.layers["sched.busy_frac"] = busy / run_s
        out.layers["sched.overhead_s"] = run_s - busy
        out.traced_round_s = walls[-1]
        out.untraced_round_s = statistics.median(walls[1:-1])
        _timeline(ctx, out.layers)
    return out


# ---------------------------------------------------------------------------
# compare-campaign
# ---------------------------------------------------------------------------

#: Apps per campaign.  At or below the number of scenario kinds the
#: corpus is the strategy layer's coverage prefix (one single-scenario
#: app per kind), whose shape does not depend on the seed.  The
#: campaign's own coverage gate materializes one app per scenario kind
#: whatever the corpus size, so small campaigns are generation-bound,
#: as real ones are.
COMPARE_APPS = 4
COMPARE_ROUNDS = 3


def run_compare_campaign(ctx: Context) -> Outcome:
    import repro.eval.compare as compare

    tracer = ctx.tracer
    out = Outcome()
    n_apps = scaled(COMPARE_APPS, ctx.seconds, 2)
    config = compare.CompareConfig(seed=ctx.seed, n_apps=n_apps, configs=COMPARE_CONFIGS)

    # Generating an app dominates a campaign's per-app cost, so the
    # per-app latency here is the wall of each ``materialize`` call:
    # the corpus apps plus the coverage gate's one app per scenario
    # kind.  One clock read on each side of the call; no spans.  A
    # campaign is deterministic, so the i-th call of every round
    # builds the same app.
    materialize_walls: list[list[float]] = []
    original = compare.materialize

    def timed_materialize(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            materialize_walls[-1].append(time.perf_counter() - t0)

    walls: list[float] = []
    spans: list[tuple[float, float]] = []
    results = []
    compare.materialize = timed_materialize
    try:
        for round_no in range(COMPARE_ROUNDS):
            last = round_no == COMPARE_ROUNDS - 1
            if last and ctx.traced:
                tracer.open_window()
                _trace_spans(tracer)
            materialize_walls.append([])
            try:
                with tracer.span("compare.campaign"):
                    m0, t0 = time.monotonic(), time.perf_counter()
                    result = compare.run_compare(config, substrate=ctx.substrate)
                    report_json = compare.canonical_json(result.report)
                    walls.append(time.perf_counter() - t0)
                    spans.append((m0, time.monotonic()))
            finally:
                if last and ctx.traced:
                    tracer.restore()
                    tracer.close_window()
            results.append((result, report_json))
    finally:
        compare.materialize = original
    factors = ctx.speed_factors(spans)

    digests = [gate.text_digest(text) for _, text in results]
    verdicts = [gate.check_compare(result, ctx.substrate[1]) for result, _ in results]
    out.attempted = n_apps * len(COMPARE_CONFIGS) * COMPARE_ROUNDS
    out.failed = sum(v.failed_ops for v in verdicts)
    out.info["bad_apps"] = [bad for v in verdicts for bad in v.bad_apps][:5]
    out.info["report_digest"] = digests[0]
    out.info["deterministic"] = len(set(digests)) == 1
    out.info["accuracy"] = verdicts[0].accuracy
    out.info["round_walls_s"] = walls
    out.info["host_factors"] = factors
    out.info["apps"] = n_apps
    # Typical campaign wall in reference-host seconds: every app's
    # median build, plus the median remainder of a round (planning, the
    # six configurations, join and report).
    built = in_reference_seconds(materialize_walls, factors)
    app_walls = median_per_unit(built)
    rest = statistics.median(
        (wall / factor) - sum(apps_built) for wall, factor, apps_built in zip(walls, factors, built)
    )
    out.info["campaign_s"] = sum(app_walls) + rest
    out.e2e["apps_per_s"] = n_apps / out.info["campaign_s"]
    _app_latency(out.e2e, out.info, app_walls)

    if ctx.traced:
        last = results[-1][0]
        reports = _saintdroid_reports(last.runs["SAINTDroid"].results)
        out.layers.update(_pass_totals(reports))
        work, memory = _units(reports)
        out.layers["analysis.work_units"] = work
        out.layers["analysis.memory_units"] = memory
        out.layers.update(_cache_layers(last.runs["SAINTDroid"].cache_stats))
        out.layers["workload.plan_s"] = tracer.total("workload.plan")
        out.layers["workload.materialize_s"] = tracer.total("workload.materialize")
        out.layers["workload.generate_s"] = tracer.total("workload.plan_compare_corpus")
        out.layers["workload.coverage_gate_s"] = tracer.total("workload.coverage_gate")
        out.layers["compare.join_s"] = tracer.total("compare.join")
        out.layers["compare.report_s"] = tracer.total("compare.report")
        for name in COMPARE_CONFIGS:
            out.layers[f"compare.config.{name}_s"] = tracer.total(f"compare.config.{name}")
        run_s = sum(out.layers[f"compare.config.{name}_s"] for name in COMPARE_CONFIGS)
        busy = sum(
            report.metrics.wall_time_s
            for run in last.runs.values()
            for app in run.results
            for report in app.reports.values()
            if report.metrics is not None
        )
        out.layers["sched.run_s"] = run_s
        out.layers["sched.busy_frac"] = busy / run_s if run_s else 0.0
        out.layers["sched.overhead_s"] = run_s - busy
        out.traced_round_s = walls[-1]
        out.untraced_round_s = statistics.median(walls[:-1])
        _timeline(ctx, out.layers)
    return out


# ---------------------------------------------------------------------------
# dedup-pooled
# ---------------------------------------------------------------------------

DEDUP_APPS = 24
DEDUP_JOBS = 2
#: Rounds, each against a fresh store.  apps/s uses the median fill
#: phase plus the median read phase; an app's latency sample is its
#: median over the rounds.  The first app each worker analyzes in a
#: phase misses the store, so a few apps are slow in every round, fewer
#: than the ten samples a tail needs beyond it: the tail measures the
#: store-served apps rather than the boundary between the two modes.
DEDUP_ROUNDS = 3


def dedup_corpus(seed: int, seconds: int, apidb) -> list:
    from repro.workload.corpus import OverlapConfig, generate_overlapping_corpus

    count = 2 * (scaled(DEDUP_APPS, seconds, 12) // 2)
    config = OverlapConfig(count=count, seed=seed, library_kloc=3.0, unique_kloc=1.0)
    return [member.forged for member in generate_overlapping_corpus(config, apidb)]


def run_dedup_pooled(ctx: Context) -> Outcome:
    import repro.eval.runner as runner
    from repro.cache.classes import reset_class_stores

    framework, apidb = ctx.substrate
    tracer = ctx.tracer
    out = Outcome()
    jobs = min(DEDUP_JOBS, ctx.usable_cores)
    out.info["workers_effective"] = jobs
    start = time.perf_counter()
    apps = dedup_corpus(ctx.seed, ctx.seconds, apidb)
    out.layers["workload.generate_s"] = time.perf_counter() - start
    half = len(apps) // 2
    fill, read = apps[:half], apps[half:]

    walls: list[float] = []
    phases: list[tuple[float, float]] = []
    spans: list[tuple[float, float]] = []
    runs = []
    for round_no in range(DEDUP_ROUNDS):
        last = round_no == DEDUP_ROUNDS - 1
        store = os.path.join(ctx.scratch, f"store-{round_no}")
        reset_class_stores()
        toolset = runner.ToolSet.default(
            framework, apidb, include=("SAINTDroid",), dedup=True, dedup_dir=store
        )
        if last and ctx.traced:
            tracer.open_window()
            _trace_spans(tracer)
        try:
            with tracer.span("dedup.round"):
                m0, t0 = time.monotonic(), time.perf_counter()
                with tracer.span("dedup.fill"):
                    filled = runner.run_tools(fill, toolset, jobs=jobs, cache_dir=store)
                t1 = time.perf_counter()
                with tracer.span("dedup.read"):
                    read_run = runner.run_tools(read, toolset, jobs=jobs, cache_dir=store)
                t2 = time.perf_counter()
        finally:
            if last and ctx.traced:
                tracer.restore()
                tracer.close_window()
        walls.append(t2 - t0)
        spans.append((m0, time.monotonic()))
        phases.append((t1 - t0, t2 - t1))
        runs.append((filled, read_run, store))
    factors = ctx.speed_factors(spans)

    out.attempted = len(apps) * DEDUP_ROUNDS
    digests = []
    bad_apps = []
    for filled, read_run, _ in runs:
        for run, members in ((filled, fill), (read_run, read)):
            verdict = gate.check_run(run, members, apidb)
            out.failed += verdict.failed_ops
            bad_apps += verdict.bad_apps
        digests.append(gate.findings_digest(filled) + gate.findings_digest(read_run))
    out.info["bad_apps"] = bad_apps[:5]
    out.info["findings_digest"] = gate.text_digest(digests[0])
    out.info["deterministic"] = len(set(digests)) == 1
    out.info["accuracy"] = gate.check_run(runs[0][1], read, apidb).accuracy
    out.info["round_walls_s"] = walls
    out.info["host_factors"] = factors
    out.info["apps"] = len(apps)
    phase_s = in_reference_seconds([list(phase) for phase in phases], factors)
    out.info["round_s"] = sum(median_per_unit(phase_s))
    out.e2e["apps_per_s"] = len(apps) / out.info["round_s"]
    per_round = [
        [_saintdroid_wall(result) for result in [*filled.results, *read_run.results]]
        for filled, read_run, _ in runs
    ]
    app_walls = median_per_unit(in_reference_seconds(per_round, factors))
    _app_latency(out.e2e, out.info, [t for t in app_walls if math.isfinite(t)])

    if ctx.traced:
        filled, read_run, store = runs[-1]
        reports = _saintdroid_reports(list(filled.results) + list(read_run.results))
        out.layers.update(_pass_totals(reports))
        work, memory = _units(reports)
        out.layers["analysis.work_units"] = work
        out.layers["analysis.memory_units"] = memory
        out.layers.update(_cache_layers(read_run.cache_stats))
        fill_classes = filled.cache_stats.get("classes", {})
        out.layers["classes.stores"] = fill_classes.get("stores", 0) + read_run.cache_stats.get(
            "classes", {}
        ).get("stores", 0)
        out.layers["classes.disk_bytes"] = _dir_bytes(store)
        out.layers["dedup.fill_s"], out.layers["dedup.read_s"] = phases[-1]
        out.layers["substrate.prepare_s"] = tracer.total("substrate.pool_prepare")
        run_s = walls[-1]
        busy = sum(r.metrics.wall_time_s for r in reports)
        out.layers["sched.run_s"] = run_s
        out.layers["sched.busy_frac"] = busy / (jobs * run_s)
        out.layers["sched.overhead_s"] = run_s - busy / jobs
        out.traced_round_s = walls[-1]
        out.untraced_round_s = statistics.median(walls[:-1])
        _timeline(ctx, out.layers)
    return out


# ---------------------------------------------------------------------------
# serve-open-loop
# ---------------------------------------------------------------------------

SERVE_WORKERS = 2
#: Closed-loop capacity of the daemon on this corpus shape at the seed
#: commit (analysis jobs/s, 2 workers, 2-core x86 box).  The ladder
#: rates are fixed absolute submissions/s derived from it, so a faster
#: daemon meets its latency limit at a higher step.
SERVE_CAPACITY = 12.0
#: Every fourth submission resubmits an already-completed package.
RESUBMIT_EVERY = 4
#: Submission capacity: resubmits are answered at admission.
SUBMIT_CAPACITY = SERVE_CAPACITY * RESUBMIT_EVERY / (RESUBMIT_EVERY - 1)
#: ``(label, share of capacity offered, jobs per step multiplier)``.
#: The top step offers three times the capacity -- above what the
#: daemon completes even while the host runs fast -- for four times as
#: many jobs: its completion rate is the daemon's saturation throughput.
LADDER = (("r50", 0.50, 1), ("r85", 0.85, 1), ("r300", 3.0, 4))
#: Admission bound: deep enough that the top step's backlog is never
#: refused (refusals would count as failed operations).
SERVE_QUEUE_LIMIT = 512
#: Latency limit on the tail percentile, and the backlog (jobs due but
#: not finished) at the end of a step above which it is growing.
SLO_TAIL_S = 1.0
BACKLOG_LIMIT = 3 * SERVE_WORKERS
SERVE_JOBS_PER_STEP = 44
#: Generated apps the submissions cycle through: enough that the
#: per-app latency has a tail, few enough that each is analysed in
#: about five versions over the ladder.
SERVE_BASE_APPS = 32
SERVE_KLOC = 1.0


def serve_submissions(seed: int, apidb):
    """Small apps of one shape -- a bundled library plus a thin
    app-specific layer with two seeded issues, so every job costs about
    the same and a seed changes the code but not the load -- each
    submitted in many versions: a new ``versionCode`` is a new package
    to the daemon (its content digest changes) with unchanged
    findings, so a long open-loop schedule needs only a handful of
    generated apps.  Returns the apps and ``version(n) -> (base app,
    apk doc, truth doc)``, cycling through the apps."""
    from repro.apk.serialization import apk_to_dict
    from repro.workload.corpus import OverlapConfig, generate_overlapping_corpus

    config = OverlapConfig(
        count=SERVE_BASE_APPS, seed=seed, library_kloc=SERVE_KLOC, unique_kloc=SERVE_KLOC / 2
    )
    apps = [member.forged for member in generate_overlapping_corpus(config, apidb)]
    bases = [(apk_to_dict(app.apk), app.truth.to_dict()) for app in apps]

    def version(n: int) -> tuple[int, dict, dict]:
        base = n % len(bases)
        apk_doc, truth_doc = bases[base]
        manifest = dict(apk_doc["manifest"], versionCode=1 + n // len(bases))
        return base, dict(apk_doc, manifest=manifest), truth_doc

    return apps, version


def run_serve_open_loop(ctx: Context) -> Outcome:
    from repro.serve import ServeClient
    from repro.serve.client import ServeClientError

    framework, apidb = ctx.substrate
    tracer = ctx.tracer
    out = Outcome()
    out.info["workers_effective"] = min(SERVE_WORKERS, ctx.usable_cores)
    per_step = scaled(SERVE_JOBS_PER_STEP, ctx.seconds, 22)
    start = time.perf_counter()
    apps, version = serve_submissions(ctx.seed, apidb)
    out.layers["workload.generate_s"] = time.perf_counter() - start
    host, port = ctx.server.server_address[:2]
    client = ServeClient(f"http://{host}:{port}", timeout_s=30.0)
    rng = random.Random(ctx.seed)

    # Closed-loop warm-up, one version of every base app: fills the
    # workers' framework caches and gives the first step packages to
    # resubmit.
    completed: list[int] = []
    warm = [client.submit(*version(n)[1:]) for n in range(len(apps))]
    for n, doc in enumerate(warm):
        client.wait(doc["id"], timeout_s=120.0)
        completed.append(n)

    records: list[dict] = []
    steps: dict[str, dict] = {}
    next_version = len(apps)
    spans: list[tuple[float, float]] = []
    if ctx.traced:
        tracer.open_window()
        _trace_spans(tracer)
    try:
        for label, share, multiplier in LADDER:
            rate = share * SUBMIT_CAPACITY
            plan = []
            for k in range(per_step * multiplier):
                if k % RESUBMIT_EVERY == RESUBMIT_EVERY - 1:
                    plan.append((rng.choice(completed), True))
                else:
                    plan.append((next_version, False))
                    next_version += 1
            with tracer.span(f"serve.step.{label}"):
                m0 = time.monotonic()
                step = _open_loop_step(client, ServeClientError, version, plan, rate, tracer)
                spans.append((m0, time.monotonic()))
            for record in step:
                record["step"] = label
            completed.extend(r["version"] for r in step if not r["resubmit"] and r["doc"] is not None)
            records.extend(step)
            steps[label] = {"rate": rate, "records": step}
    finally:
        if ctx.traced:
            tracer.restore()
            tracer.close_window()
    factor = dict(zip((label for label, _share, _multiplier in LADDER), ctx.speed_factors(spans)))
    out.info["host_factors"] = factor

    out.attempted = len(records)
    verdict = gate.check_serve(records, apps, apidb)
    out.failed = verdict.failed_ops
    out.info["bad_apps"] = verdict.bad_apps[:5]
    out.info["findings_digest"] = verdict.digest
    out.info["accuracy"] = verdict.accuracy

    summary = {}
    passing = []
    for label, _share, _multiplier in LADDER:
        step = steps[label]
        done = [r for r in step["records"] if r["doc"] is not None]
        latencies = [r["latency_s"] for r in step["records"]]
        pct, tail_value = tail(latencies)
        first_due = step["records"][0]["due_wall"]
        span_s = max(r["finished_wall"] for r in done) - first_due
        analysed = sum(1 for r in done if not r["resubmit"])
        backlog_end = _backlog(step["records"], step["records"][-1]["due_wall"])
        ok = (
            len(done) == len(step["records"])
            and tail_value <= SLO_TAIL_S
            and backlog_end <= BACKLOG_LIMIT
        )
        achieved = len(done) / span_s
        if ok:
            passing.append(achieved)
        summary[label] = {
            "offered_per_s": step["rate"],
            "achieved_per_s": achieved,
            "analysis_per_s": analysed / span_s,
            "p50_s": statistics.median(latencies),
            "tail_s": tail_value,
            "tail_percentile": round(pct, 1),
            "samples": len(latencies),
            "backlog_end": backlog_end,
            "meets_slo": ok,
        }
    out.info["ladder"] = summary
    out.info["slo_tail_s"] = SLO_TAIL_S
    # Saturation throughput: the analysis completion rate of the top
    # step, from its first due submission to its last completion.
    # Per-app latency: each generated app's median SAINTDroid wall
    # over its versions (the same per-app quantity the batch workloads
    # report).  Both in reference-host seconds.  Latency under load,
    # queueing included, is in the per-layer ladder metrics.
    top = LADDER[-1][0]
    analysed = [
        r for r in records
        if not r["resubmit"] and r["doc"] is not None and r["doc"].get("startedAt")
    ]
    out.e2e["apps_per_s"] = summary[top]["analysis_per_s"] * factor[top]
    reports = _saintdroid_reports([r["result"] for r in analysed])
    per_base: dict[int, list[float]] = {}
    for r in analysed:
        per_base.setdefault(r["base"], []).append(_saintdroid_wall(r["result"]) / factor[r["step"]])
    app_walls = [statistics.median(walls) for walls in per_base.values()]
    _app_latency(out.e2e, out.info, [t for t in app_walls if math.isfinite(t)])

    if ctx.traced:
        layers = out.layers
        for label in ("r50", "r85"):
            layers[f"serve.job_latency_p50_s.{label}"] = summary[label]["p50_s"]
            layers[f"serve.job_latency_tail_s.{label}"] = summary[label]["tail_s"]
        layers["serve.max_rate_under_slo_jobs_per_s"] = max(passing) if passing else 0.0
        waits = [r["doc"]["startedAt"] - r["doc"]["submittedAt"] for r in analysed]
        services = [r["doc"]["finishedAt"] - r["doc"]["startedAt"] for r in analysed]
        layers["serve.queue_wait_p50_s"] = statistics.median(waits)
        layers["serve.queue_wait_tail_s"] = tail(waits)[1]
        layers["serve.service_p50_s"] = statistics.median(services)
        layers["serve.admission_dedup_hits"] = sum(1 for r in records if r["doc"] and r["doc"].get("dedup"))
        layers["serve.rejected"] = sum(1 for r in records if r["rejected"])
        layers["serve.worker_respawns"] = ctx.service.health().get("pool", {}).get("restarts", 0)
        layers["serve.backlog_max"] = max(_backlog(records, r["due_wall"]) for r in records)
        layers["serve.generator_lag_max_s"] = max(r["lag_s"] for r in records)
        layers["sched.retries"] = sum(
            max(0, r["doc"].get("attempts", 0) - 1) for r in records if r["doc"] is not None
        )
        layers.update(_pass_totals(reports))
        work, memory = _units(reports)
        layers["analysis.work_units"] = work
        layers["analysis.memory_units"] = memory
        layers.update(_cache_layers(ctx.service.statsz().get("worker_caches", {})))
        _timeline(ctx, layers)
    return out


def _backlog(records: list[dict], at: float) -> int:
    return sum(
        1
        for r in records
        if r["due_wall"] <= at and (r["doc"] is None or r["finished_wall"] > at)
    )


def _open_loop_step(client, client_error, version, plan, rate, tracer) -> list[dict]:
    """Submit ``plan`` at ``rate``/s on a fixed schedule (open loop),
    then collect every job's terminal document.  Latency runs from the
    moment a submission was due, so a stalled generator is charged to
    every request it delayed."""
    origin = time.monotonic()
    origin_wall = time.time()
    records = []
    for k, (number, resubmit) in enumerate(plan):
        base, apk_doc, truth_doc = version(number)
        due = origin + k / rate
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        record = {
            "version": number,
            "base": base,
            "resubmit": resubmit,
            "due_wall": origin_wall + k / rate,
            "lag_s": max(0.0, time.monotonic() - due),
            "rejected": False,
            "doc": None,
            "latency_s": math.inf,
        }
        try:
            record["job"] = client.submit(apk_doc, truth_doc)["id"]
        except client_error:
            record["rejected"] = True
        records.append(record)
    with tracer.span("serve.collect"):
        for record in records:
            if record["rejected"]:
                continue
            doc = client.wait(record["job"], timeout_s=120.0, poll_s=0.05)
            record["doc"] = doc
            record["finished_wall"] = doc["finishedAt"]
            record["latency_s"] = doc["finishedAt"] - record["due_wall"]
            record["result"] = client.result_of(doc)
    return records


WORKLOADS = {
    "vet-serial": run_vet_serial,
    "compare-campaign": run_compare_campaign,
    "dedup-pooled": run_dedup_pooled,
    "serve-open-loop": run_serve_open_loop,
}

#: Workloads whose point is parallelism: refused below two usable
#: cores, where "parallel" numbers would silently be serial ones.
NEEDS_CORES = {"dedup-pooled": 2, "serve-open-loop": 2}
