"""Tests for the parallel corpus-analysis engine.

The load-bearing property is *equivalence*: a parallel run must be
indistinguishable (fingerprint-identical) from a serial run over the
same corpus.  The rest is failure isolation — one poisoned app must
never cost the run the remaining apps — plus the scheduling and cache
accounting around it.
"""

from __future__ import annotations

import time

import pytest

from repro.cli import build_parser
from repro.core.errors import ErrorKind
from repro.eval import (
    AppTimeoutError,
    FaultKind,
    FaultPlan,
    InjectedFault,
    RunResults,
    ToolSet,
    analyze_app,
    run_tools,
)
from repro.eval.parallel import HANG_GRACE_S, PoolBackend
from repro.workload.appgen import ForgedApp
from repro.workload.corpus import CorpusConfig, generate_corpus
from repro.workload.groundtruth import GroundTruth

#: Small but non-trivial corpus: mixed targets, seeded issues, tiny
#: app bodies so the whole file stays fast.
SMALL_CORPUS = CorpusConfig(count=6, kloc_median=1.5, kloc_max=4.0)


@pytest.fixture(scope="module")
def small_corpus(apidb):
    return [member.forged for member in generate_corpus(SMALL_CORPUS, apidb)]


@pytest.fixture(scope="module")
def saintdroid(framework, apidb):
    return ToolSet.default(framework, apidb, include=("SAINTDroid",))


class _KaboomApk:
    """Picklable stand-in that detonates once a tool touches it."""

    name = "kaboom"
    label = "kaboom"
    dex_kloc = 0.1

    def __getattr__(self, attr):
        if attr.startswith("__"):
            raise AttributeError(attr)
        raise RuntimeError("kaboom: synthetic analysis crash")


def _kaboom():
    return ForgedApp(apk=_KaboomApk(), truth=GroundTruth(app="kaboom"))


class _SleepyTool:
    name = "Sleepy"

    def analyze(self, apk):
        time.sleep(5.0)
        raise AssertionError("deadline did not fire")


class TestEquivalence:
    def test_parallel_matches_serial(
        self, framework, apidb, small_corpus
    ):
        toolset = ToolSet.default(framework, apidb)
        serial = run_tools(small_corpus, toolset)
        parallel = run_tools(small_corpus, toolset, jobs=3)
        assert serial.fingerprint() == parallel.fingerprint()
        assert len(parallel) == len(small_corpus)
        assert [r.app for r in parallel.results] == [
            f.apk.name for f in small_corpus
        ]

    def test_parallel_cache_stats_merged(
        self, saintdroid, small_corpus
    ):
        out = run_tools(small_corpus, saintdroid, jobs=2)
        stats = out.cache_stats
        assert stats["workers"] >= 1
        # From the second app onward the framework image and database
        # memo tables are warm — hits must be nonzero.
        assert stats["framework"]["class_hits"] > 0
        assert stats["apidb"]["levels_hits"] > 0
        assert 0.0 < stats["apidb"]["hit_rate"] <= 1.0

    def test_empty_corpus(self, saintdroid):
        out = run_tools([], saintdroid, jobs=2)
        assert isinstance(out, RunResults)
        assert len(out) == 0


class TestFailureIsolation:
    def test_poisoned_app_does_not_kill_the_run(
        self, saintdroid, small_corpus
    ):
        apps = [small_corpus[0], _kaboom(), small_corpus[1]]
        out = run_tools(apps, saintdroid, jobs=2)
        assert [r.app for r in out.results] == [
            small_corpus[0].apk.name, "kaboom", small_corpus[1].apk.name
        ]
        good_first, bad, good_last = out.results
        assert good_first.ok and good_last.ok
        assert not bad.ok
        assert bad.error.kind is ErrorKind.CRASH
        assert "RuntimeError" in bad.error.message
        assert not bad.error.retryable
        assert bad.reports == {}
        assert out.failed_apps == ("kaboom",)
        assert out.error_summary() == {"crash": 1}

    def test_worker_death_costs_only_its_own_app(
        self, saintdroid, small_corpus
    ):
        # A permanent worker killer with no retry budget: the dying
        # worker's app is quarantined, every other app is analyzed.
        k = 2
        plan = FaultPlan(
            faults={
                k: InjectedFault(FaultKind.WORKER_DEATH, fail_attempts=None)
            }
        )
        out = run_tools(
            small_corpus, saintdroid, jobs=2, max_retries=0,
            fault_plan=plan,
        )
        quarantined = {
            index
            for index, result in enumerate(out.results)
            if result.error is not None
        }
        assert quarantined == plan.expected_quarantine(0) == {k}
        assert out.results[k].error.kind is ErrorKind.WORKER_LOST

    def test_serial_error_capture(self, framework, apidb):
        toolset = ToolSet.default(
            framework, apidb, include=("SAINTDroid",)
        )
        result = analyze_app(toolset, _kaboom())
        assert not result.ok
        assert result.error.kind is ErrorKind.CRASH
        assert "RuntimeError" in result.error.message
        assert result.error.traceback_tail  # last frames preserved
        assert result.reports == {}

    def test_timeout_is_recorded_not_raised(
        self, framework, apidb, small_corpus
    ):
        toolset = ToolSet(
            framework=framework, apidb=apidb, tools=[_SleepyTool()]
        )
        result = analyze_app(toolset, small_corpus[0], timeout_s=0.2)
        assert not result.ok
        assert result.error.kind is ErrorKind.TIMEOUT
        assert result.error.retryable

    def test_timeout_error_type(self):
        assert issubclass(AppTimeoutError, Exception)


class TestScheduling:
    @pytest.mark.parametrize(
        "timeout_s, expected", [(None, None), (5.0, 5.0 + HANG_GRACE_S)]
    )
    def test_batch_hang_backstop_is_armed_only_with_a_deadline(
        self, saintdroid, small_corpus, monkeypatch, timeout_s, expected
    ):
        # run_tools(jobs>1, timeout_s=None): the parent never kills a
        # slow app.
        seen: set = set()
        helper = PoolBackend._hang_deadline

        def _recording(self):
            seen.add(helper(self))
            return helper(self)

        monkeypatch.setattr(PoolBackend, "_hang_deadline", _recording)
        run_tools(small_corpus[:2], saintdroid, jobs=2, timeout_s=timeout_s)
        assert seen == {expected}

    def test_progress_callback_sees_every_app(
        self, saintdroid, small_corpus
    ):
        seen: list[str] = []
        run_tools(
            small_corpus[:3], saintdroid, jobs=2, progress=seen.append
        )
        assert sorted(seen) == sorted(
            f.apk.name for f in small_corpus[:3]
        )


class TestCli:
    def test_jobs_flag_parses(self):
        parser = build_parser()
        assert parser.parse_args(["table", "2"]).jobs == 1
        assert parser.parse_args(["table", "2", "--jobs", "4"]).jobs == 4
        assert parser.parse_args(["rq2", "--jobs", "2"]).jobs == 2
        assert parser.parse_args(
            ["sweep", "--jobs", "3", "--bulk-sizes", "200", "400"]
        ).jobs == 3

    def test_robustness_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "rq2", "--max-retries", "2", "--retry-backoff", "0.5",
                "--timeout", "30", "--checkpoint", "run.jsonl",
            ]
        )
        assert args.max_retries == 2
        assert args.retry_backoff == 0.5
        assert args.timeout == 30.0
        assert args.checkpoint.name == "run.jsonl"
        defaults = parser.parse_args(["table", "2"])
        assert defaults.max_retries == 0
        assert defaults.checkpoint is None
