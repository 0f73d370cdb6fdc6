"""The supervised worker pool: dispatch, death, hangs, respawn, close."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.core.errors import ErrorKind
from repro.eval.faults import FaultKind, FaultPlan, InjectedFault
from repro.eval.runner import ToolSet, analyze_app
from repro.eval.orchestration import BackendClosedError
from repro.eval.parallel import HANG_GRACE_S, PoolBackend

from tests.conftest import activity_class, make_apk
from repro.workload.appgen import ForgedApp
from repro.workload.groundtruth import GroundTruth


def _forged(tag: str) -> ForgedApp:
    package = f"com.sup.{tag}"
    apk = make_apk(
        [activity_class(package=package)], package=package
    )
    return ForgedApp(apk=apk, truth=GroundTruth(app=apk.name))


@pytest.fixture()
def supervisor(spec, framework, apidb):
    sup = PoolBackend(
        spec,
        workers=2,
        include=("SAINTDroid",),
        timeout_s=10.0,
        hang_timeout_s=20.0,
        substrate=(framework, apidb),
    )
    sup.prepare()
    yield sup
    sup.close()


class TestDispatch:
    def test_round_results_match_in_process_analysis(
        self, supervisor, framework, apidb
    ):
        entries = [(i, _forged(f"d{i}"), 0) for i in range(4)]
        out = supervisor.run_round(entries, 0)
        assert len(out) == 4
        toolset = ToolSet.default(
            framework, apidb, include=("SAINTDroid",)
        )
        by_seq = {entry[0]: result for entry, result in out}
        for seq, forged, _attempt in entries:
            expected = analyze_app(toolset, forged)
            assert (
                by_seq[seq].fingerprint() == expected.fingerprint()
            )

    def test_pool_survives_consecutive_rounds(self, supervisor):
        for round_no in range(3):
            entries = [(round_no * 10, _forged(f"r{round_no}"), 0)]
            out = supervisor.run_round(entries, round_no)
            assert out[0][1].error is None
        assert supervisor.restarts == 0
        assert supervisor.liveness()["alive"] == 2


class TestWorkerDeath:
    def test_killed_worker_is_synthesized_and_respawned(
        self, supervisor
    ):
        plan = FaultPlan(
            faults={
                1: InjectedFault(
                    FaultKind.WORKER_DEATH, fail_attempts=1
                )
            }
        )
        supervisor.fault_plan = plan
        entries = [(i, _forged(f"k{i}"), 0) for i in range(3)]
        out = supervisor.run_round(entries, 0)
        assert len(out) == 3
        by_seq = {entry[0]: result for entry, result in out}
        lost = by_seq[1]
        assert lost.error is not None
        assert lost.error.kind is ErrorKind.WORKER_LOST
        assert lost.error.retryable
        # The other entries were unharmed.
        assert by_seq[0].error is None
        assert by_seq[2].error is None
        assert supervisor.restarts >= 1
        liveness = supervisor.liveness()
        assert liveness["alive"] == liveness["workers"] == 2
        # The slot is genuinely usable again (retry attempt 1: the
        # transient fault is spent, the app recovers).
        supervisor.fault_plan = None
        retry = supervisor.run_round([(1, _forged("k1"), 1)], 1)
        assert retry[0][1].error is None

    def test_externally_killed_worker(self, supervisor):
        victim = supervisor.liveness()["pids"][0]
        os.kill(victim, signal.SIGKILL)
        out = supervisor.run_round([(7, _forged("ext"), 0)], 0)
        # Either the dead slot was respawned before dispatch (clean
        # result) or its loss was synthesized retryably; both keep
        # the daemon alive and the pool full.
        assert len(out) == 1
        result = out[0][1]
        assert result.error is None or result.error.retryable
        liveness = supervisor.liveness()
        assert liveness["alive"] == 2


class TestHungWorker:
    def test_wedged_worker_is_killed_and_replaced(
        self, spec, framework, apidb
    ):
        sup = PoolBackend(
            spec,
            workers=1,
            include=("SAINTDroid",),
            timeout_s=None,  # no in-worker deadline: force the
            hang_timeout_s=0.5,  # parent-side backstop to fire
            substrate=(framework, apidb),
        )
        sup.prepare()
        try:
            plan = FaultPlan(
                faults={
                    0: InjectedFault(
                        FaultKind.HANG, fail_attempts=1, hang_s=30.0
                    )
                }
            )
            sup.fault_plan = plan
            out = sup.run_round([(0, _forged("hang"), 0)], 0)
            result = out[0][1]
            assert result.error is not None
            assert result.error.kind is ErrorKind.WORKER_LOST
            assert sup.restarts == 1
            assert sup.liveness()["alive"] == 1
        finally:
            sup.close()

    def test_serve_default_backstop_is_unchanged(self, make_service):
        from repro.serve import ServeConfig

        service = make_service(timeout_s=ServeConfig().timeout_s)
        assert service.pool._hang_deadline() == 20.0 + HANG_GRACE_S

    def test_daemon_without_deadline_keeps_the_backstop(
        self, make_service
    ):
        service = make_service(timeout_s=None)
        assert service.pool._hang_deadline() == HANG_GRACE_S


class TestClose:
    def test_close_is_idempotent_and_clears_the_pool(
        self, spec, framework, apidb
    ):
        sup = PoolBackend(
            spec,
            workers=2,
            include=("SAINTDroid",),
            substrate=(framework, apidb),
        )
        sup.prepare()
        pids = [p for p in sup.liveness()["pids"] if p]
        sup.close()
        sup.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_round_on_a_closed_pool_raises(
        self, spec, framework, apidb
    ):
        sup = PoolBackend(
            spec,
            workers=2,
            include=("SAINTDroid",),
            substrate=(framework, apidb),
        )
        sup.prepare()
        sup.close()
        started = time.monotonic()
        with pytest.raises(BackendClosedError):
            sup.run_round([(0, _forged("closed"), 0)], 0)
        assert time.monotonic() - started < 1.0
        assert sup.restarts == 0
        assert sup.liveness()["pids"] == [None, None]

    def test_close_mid_round_from_another_thread(
        self, spec, framework, apidb
    ):
        """A timed-out daemon drain closes the pool while its
        dispatcher is inside a round: the round must end, not spin on
        an empty pool, and must settle nothing that never ran."""
        sup = PoolBackend(
            spec,
            workers=2,
            include=("SAINTDroid",),
            substrate=(framework, apidb),
            fault_plan=FaultPlan(
                faults={
                    0: InjectedFault(
                        FaultKind.HANG, fail_attempts=None, hang_s=30.0
                    )
                }
            ),
        )
        sup.prepare()
        closer = threading.Timer(0.5, sup.close)
        closer.start()
        try:
            started = time.monotonic()
            with pytest.raises(BackendClosedError):
                sup.run_round(
                    [(0, _forged("wedge"), 0), (1, _forged("fine"), 0)],
                    0,
                )
            assert time.monotonic() - started < 5.0
        finally:
            closer.join()
            sup.close()
