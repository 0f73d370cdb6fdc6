"""Runner robustness: the SIGALRM deadline (main thread only),
retries, backoff bounds, and the failure-breakdown renderer."""

from __future__ import annotations

import signal
import threading
import time

import pytest

from repro.core.errors import AnalysisError, ErrorKind
from repro.eval import ToolSet, run_tools
from repro.eval.faults import FaultKind, FaultPlan, InjectedFault
from repro.eval.runner import (
    BACKOFF_CAP_FACTOR,
    AppTimeoutError,
    _app_deadline,
    _bounded_backoff,
)
from repro.eval.tables import failure_breakdown, render_failures
from repro.workload.corpus import CorpusConfig, generate_corpus

#: Chaos tier: opt in locally with -m slow; CI runs these in
#: the dedicated chaos job.
pytestmark = pytest.mark.slow

SMALL_CORPUS = CorpusConfig(count=3, kloc_median=1.0, kloc_max=3.0)


@pytest.fixture(scope="module")
def small_corpus(apidb):
    return [member.forged for member in generate_corpus(SMALL_CORPUS, apidb)]


@pytest.fixture(scope="module")
def toolset(framework, apidb):
    return ToolSet.default(framework, apidb, include=("SAINTDroid",))


class TestSignalDeadline:
    def test_handler_and_timer_restored(self):
        sentinel = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGALRM, sentinel)
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        try:
            with _app_deadline(5.0):
                pass
            assert signal.getsignal(signal.SIGALRM) is sentinel
            remaining, _ = signal.getitimer(signal.ITIMER_REAL)
            # The outer timer is re-armed with its remaining budget.
            assert 0.0 < remaining <= 60.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_no_timer_left_behind(self):
        with _app_deadline(5.0):
            pass
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert remaining == 0.0

    def test_deadline_fires(self):
        with pytest.raises(AppTimeoutError):
            with _app_deadline(0.1):
                time.sleep(2.0)

    def test_none_is_no_op(self):
        with _app_deadline(None):
            pass
        remaining, _ = signal.getitimer(signal.ITIMER_REAL)
        assert remaining == 0.0


class TestDeadlineOffMainThread:
    def test_serial_deadline_off_the_main_thread_is_rejected(
        self, toolset, small_corpus, monkeypatch
    ):
        analyzed = []
        monkeypatch.setattr(
            "repro.eval.orchestration.analyze_app",
            lambda *args, **kwargs: analyzed.append(args),
        )
        outcome: dict = {}

        def run() -> None:
            try:
                run_tools(small_corpus, toolset, timeout_s=1.0)
            except BaseException as exc:  # noqa: BLE001 — inspected below
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60.0)
        assert isinstance(outcome.get("error"), ValueError)
        assert "main thread" in str(outcome["error"])
        assert analyzed == []


class TestBackoff:
    def test_exponential_growth(self):
        assert _bounded_backoff(1.0, 1) == 1.0
        assert _bounded_backoff(1.0, 2) == 2.0
        assert _bounded_backoff(1.0, 3) == 4.0

    def test_bounded(self):
        for attempt in range(1, 40):
            assert _bounded_backoff(0.5, attempt) <= 0.5 * BACKOFF_CAP_FACTOR


class TestSerialRetries:
    def test_transient_fault_recovered(self, toolset, small_corpus):
        plan = FaultPlan(
            faults={0: InjectedFault(FaultKind.CRASH, fail_attempts=0)}
        )
        # fail_attempts=0 never fires; sanity-check the plumbing runs.
        run = run_tools(
            small_corpus, toolset, max_retries=1, fault_plan=plan
        )
        assert run.failed_apps == ()

    def test_retry_count_recorded(self, toolset, small_corpus):
        plan = FaultPlan(
            faults={
                1: InjectedFault(FaultKind.WORKER_DEATH, fail_attempts=2)
            }
        )
        run = run_tools(
            small_corpus, toolset, max_retries=1, fault_plan=plan
        )
        error = run.results[1].error
        assert error is not None
        assert error.kind is ErrorKind.WORKER_LOST
        assert error.attempts == 2  # first try + one retry

    def test_no_retries_without_budget(self, toolset, small_corpus):
        plan = FaultPlan(
            faults={
                1: InjectedFault(FaultKind.WORKER_DEATH, fail_attempts=1)
            }
        )
        run = run_tools(small_corpus, toolset, fault_plan=plan)
        assert run.results[1].error is not None
        assert run.results[1].error.attempts == 1


class TestFailureBreakdown:
    def test_breakdown_and_rendering(self, toolset, small_corpus):
        plan = FaultPlan(
            faults={0: InjectedFault(FaultKind.CRASH, fail_attempts=None)}
        )
        run = run_tools(small_corpus, toolset, fault_plan=plan)
        breakdown = failure_breakdown(run)
        assert breakdown["failed_apps"] == 1
        assert breakdown["by_kind"] == {"crash": 1}
        (row,) = breakdown["rows"]
        assert row["kind"] == "crash"
        assert row["attempts"] == 1
        text = render_failures(breakdown)
        assert "1/3 apps quarantined" in text
        assert row["app"] in text

    def test_clean_run_renders_one_line(self, toolset, small_corpus):
        run = run_tools(small_corpus, toolset)
        text = render_failures(failure_breakdown(run))
        assert text == "Failures: 0/3 apps quarantined"

    def test_error_summary_counts(self):
        from repro.eval import AppResult, RunResults
        from repro.workload.groundtruth import GroundTruth

        def failed(app, kind):
            return AppResult(
                app=app,
                truth=GroundTruth(app=app),
                error=AnalysisError(kind=kind),
            )

        run = RunResults(
            results=[
                failed("a", ErrorKind.CRASH),
                failed("b", ErrorKind.TIMEOUT),
                failed("c", ErrorKind.CRASH),
            ]
        )
        assert run.error_summary() == {"crash": 2, "timeout": 1}
