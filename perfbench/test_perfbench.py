"""The benchmark's own tests.

    python -m pytest perfbench/test_perfbench.py

Not part of the repo's tier-1 suite (``testpaths`` is ``tests``): the
seed tests run every workload on its primary and held-out seed, which
takes a few minutes on a 2-core box.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from spans import UNATTRIBUTED, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = gate.load_reference()


def run_bench(*args, cwd=ROOT, preexec_fn=None, timeout=600):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- tracing -------------------------------------------------------------


def reconcile(rows: list[dict], wall: float) -> float:
    return sum(row["self_s"] for row in rows if row["main"]) - wall


def test_self_times_and_unattributed_sum_to_traced_wall():
    tracer = Tracer("unit")
    tracer.open_window()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.01)
    time.sleep(0.01)
    with tracer.span("second"):
        time.sleep(0.005)
    tracer.close_window()
    with tracer.span("after-window"):
        pass

    rows = tracer.table()
    names = [row["name"] for row in rows]
    assert UNATTRIBUTED in names and "after-window" not in names
    assert abs(reconcile(rows, tracer.wall)) < 1e-9
    unattributed = next(row for row in rows if row["name"] == UNATTRIBUTED)
    assert 0.009 < unattributed["self_s"] < 0.05
    inner = next(row for row in rows if row["name"] == "inner")
    outer = next(row for row in rows if row["name"] == "outer")
    assert inner["count"] == 2
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])


def test_wrap_patches_and_restores():
    import types

    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer("unit")
    tracer.open_window()
    tracer.wrap(module, "f", "layer.f")
    assert module.f(1) == 2
    tracer.restore()
    tracer.close_window()
    assert module.f is original
    assert [span.name for span in tracer.spans] == ["layer.f"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reconciles(workload):
    """A traced run's span table (self times + ``(unattributed)``) adds
    up to its traced wall, and it reports every per-layer metric,
    ``trace.overhead_frac`` included."""
    proc = run_bench("--workload", workload, "--seed", 7, "--seconds", 2, "--trace", 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = last_json(proc.stdout)
    assert result["correct"], proc.stdout[-3000:]
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == names
    overhead = result["metrics"]["trace.overhead_frac"]["value"]
    assert math.isfinite(overhead) and overhead != 0.0
    trace = json.loads(
        (ROOT / ".bench_build" / "perfbench" / f"trace-{workload}-7.json").read_text()
    )
    other = trace["otherData"]
    assert abs(reconcile(other["table"], other["wall_s"])) < 1e-6
    assert any(row["name"] == UNATTRIBUTED for row in other["table"])


# -- the contract --------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(REFERENCE["workloads"]))
@pytest.mark.parametrize("which", ["primary", "held_out"])
def test_recorded_seeds_reproduce_reference(workload, which):
    """Both recorded seeds of every workload pass the ground-truth gate
    and reproduce the recorded digests (a later claim can be checked
    on the held-out seed it was not tuned on)."""
    recorded = REFERENCE["workloads"][workload]
    seed = recorded[which]
    proc = run_bench(
        "--workload", workload, "--seed", seed, "--seconds", BENCHMARK["run_seconds"], "--trace", 0
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "reference mismatch" not in proc.stdout, proc.stdout[-3000:]
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    names = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_every_workload_records_two_seeds():
    declared = {workload["name"] for workload in BENCHMARK["workloads"]}
    assert declared <= set(REFERENCE["workloads"]) == set(workloads.WORKLOADS)
    for recorded in REFERENCE["workloads"].values():
        assert recorded["primary"] != recorded["held_out"]
        assert set(recorded["seeds"]) == {str(recorded["primary"]), str(recorded["held_out"])}


@pytest.mark.parametrize("workload", sorted(workloads.NEEDS_CORES))
def test_parallel_workloads_refuse_one_core(workload):
    proc = run_bench(
        "--workload", workload, "--seconds", 2, preexec_fn=lambda: os.sched_setaffinity(0, {0}),
        timeout=60,
    )
    assert proc.returncode != 0
    assert "usable cores" in proc.stderr
    assert proc.stdout.strip() == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "vet-serial", "--seconds", 2, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the gate ------------------------------------------------------------


def test_gate_rejects_unseeded_reports_and_lost_recall():
    from repro.core.arm import build_api_database
    from repro.eval.runner import ToolSet, run_tools
    from repro.framework.repository import FrameworkRepository

    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    apps = workloads.vet_corpus(3, 1, apidb)
    run = run_tools(apps, ToolSet.default(framework, apidb, include=("SAINTDroid",)))
    assert gate.check_run(run, apps, apidb).failed_ops == 0

    # A finding reported on an app that did not seed it.
    flagged = next(r for r in run.results if r.reports["SAINTDroid"].mismatches)
    stray = flagged.reports["SAINTDroid"].mismatches[0]
    other = next(
        r for r in run.results
        if r is not flagged and stray.key not in {m.key for m in r.reports["SAINTDroid"].mismatches}
    )
    other.reports["SAINTDroid"].mismatches.append(stray)
    assert gate.check_run(run, apps, apidb).failed_ops == 1
    other.reports["SAINTDroid"].mismatches.pop()

    # A finding dropped: the app misses an issue it is designed to catch.
    flagged.reports["SAINTDroid"].mismatches.remove(stray)
    assert gate.check_run(run, apps, apidb).failed_ops == 1


def test_tail_is_the_highest_percentile_with_ten_beyond():
    percentile, value = workloads.tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
    with pytest.raises(ValueError):
        workloads.tail([1.0] * 10)


# -- host-speed calibration ----------------------------------------------


def test_host_speed_factor_is_the_mean_of_per_core_medians_inside_a_span():
    speed = hostspeed.HostSpeed()
    speed.samples = [
        (1.0, 0, 1.0), (2.0, 0, 2.0), (3.0, 0, 4.0), (10.0, 0, 8.0),
        (1.5, 1, 2.0), (2.5, 1, 2.0), (9.5, 1, 6.0),
    ]
    assert speed.factor(1.5, 3.5) == (3.0 + 2.0) / 2
    assert speed.factor(0.5, 3.5) == (2.0 + 2.0) / 2
    # No sample of a core inside: that core's nearest one.
    assert speed.factor(8.0, 9.0) == (8.0 + 6.0) / 2


def test_host_speed_sampler_samples_and_stops():
    speed = hostspeed.HostSpeed()
    speed.start()
    proc = speed._proc
    time.sleep(1.3)
    speed.stop()
    assert proc.returncode is not None
    assert len(speed.samples) >= 2
    assert all(0.1 < factor < 10 for _, _, factor in speed.samples)
    assert {core for _, core, _ in speed.samples} <= os.sched_getaffinity(0)
    stamps = [stamp for stamp, _, _ in speed.samples]
    assert stamps == sorted(stamps) and stamps[-1] <= time.monotonic()


def test_in_reference_seconds_scales_each_round():
    rounds = [[1.0, 2.0], [3.0, 6.0]]
    assert workloads.in_reference_seconds(rounds, [2.0, 3.0]) == [[0.5, 1.0], [1.0, 2.0]]
    assert workloads.median_per_unit([[1.0, 5.0], [3.0, 1.0], [2.0, 2.0]]) == [2.0, 2.0]
