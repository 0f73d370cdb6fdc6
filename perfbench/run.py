"""Repo benchmark entry point.

    python3 perfbench/run.py --workload vet-serial --seed 1 --seconds 30 --trace 0

Runs one workload (see :mod:`workloads`) in this fresh process against
the sources under ``src/`` of the checkout it sits in, checks every
output against seeded ground truth (see :mod:`gate`), and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics and span
table of a traced run (``--trace 1``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Everything it writes goes under
``.bench_build/perfbench/`` in the checkout.

Timings are in reference-host seconds (see :mod:`hostspeed`).

The interpreter is re-executed with ``PYTHONHASHSEED=0`` when needed:
the modeled work accounting follows hash-dependent traversal order,
and the reference totals are exact.
"""

from __future__ import annotations

import os
import sys

if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import time  # noqa: E402

import hostspeed  # noqa: E402

#: Host speed factor at start-up, sampled before the set-up it scales.
_START_FACTOR = hostspeed.sample(reps=25)
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

#: Set-up samples per run: this process plus fresh-interpreter probes.
SETUP_SAMPLES = 3


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=workloads.BASE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up the workload's substrate, print the seconds it took, and exit",
    )
    return parser.parse_args(argv)


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def setup(workload: str, scratch: Path):
    """Imports, framework repository, API database, and for the serve
    workload the daemon and its HTTP front end.  Returns the substrate,
    the service/server pair (``None`` for batch workloads) and the
    substrate layer's timings."""
    from repro.core.arm import build_api_database
    from repro.framework.repository import FrameworkRepository

    start = time.perf_counter()
    framework = FrameworkRepository()
    apidb = build_api_database(framework)
    timings = {"substrate.build_s": time.perf_counter() - start}
    service = server = None
    if workload == "serve-open-loop":
        import workloads
        from repro.serve import AnalysisService, ServeConfig, start_server

        config = ServeConfig(
            workers=workloads.SERVE_WORKERS,
            include=("SAINTDroid",),
            journal=str(scratch / "wal.jsonl"),
            queue_limit=workloads.SERVE_QUEUE_LIMIT,
            timeout_s=60.0,
        )
        start = time.perf_counter()
        service = AnalysisService(config, framework.spec, substrate=(framework, apidb)).start()
        server = start_server(service)
        timings["substrate.prepare_s"] = time.perf_counter() - start
    return (framework, apidb), service, server, timings


def teardown(service, server) -> None:
    if server is not None:
        server.shutdown()
        server.server_close()
    if service is not None:
        service.drain(timeout_s=60.0)


def probe_setup(workload: str) -> float:
    """One set-up in a fresh interpreter, timed from its start, in
    reference-host seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-probe"],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(args, ctx_info: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_digest": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **ctx_info,
    }


def reference_check(workload: str, seed: int, seconds: int, info: dict) -> list[str]:
    """Mismatches against the digests recorded for this seed (empty
    when the seed is not a recorded one, or everything matches)."""
    import gate

    recorded = gate.load_reference()["workloads"].get(workload, {})
    if recorded.get("seconds") != seconds:
        return []
    expected = recorded.get("seeds", {}).get(str(seed))
    if expected is None:
        return []
    return [
        f"{key}: expected {value!r}, got {info.get(key)!r}"
        for key, value in expected.items()
        if info.get(key) != value
    ]


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        fail(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import workloads

    usable = len(os.sched_getaffinity(0))
    needed = workloads.NEEDS_CORES.get(args.workload, 1)
    if usable < needed:
        fail(f"{args.workload} needs {needed} usable cores, this process has {usable}")

    for variable in ("REPRO_CACHE_DIR", "REPRO_FORCE_SHARED_SUBSTRATE"):
        os.environ.pop(variable, None)
    scratch = OUT_DIR / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    try:
        substrate, service, server, timings = setup(args.workload, scratch)
        setup_main = (time.perf_counter() - _PROCESS_START) / _START_FACTOR
        if args.setup_probe:
            teardown(service, server)
            print(json.dumps({"setup_s": setup_main}))
            return 0
        return measure(args, scratch, substrate, service, server, setup_main, timings)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch, substrate, service, server, setup_main, timings) -> int:
    import workloads
    from spans import NullTracer, Tracer

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()
    speed = hostspeed.HostSpeed()
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        tracer=tracer,
        scratch=str(scratch),
        substrate=substrate,
        speed=speed,
        service=service,
        server=server,
    )
    speed.start()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        speed.stop()
        teardown(service, server)
    for name, seconds in timings.items():
        outcome.layers.setdefault(name, seconds)

    setup_samples = [setup_main] + [
        probe_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)
    ]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    outcome.e2e["setup_s"] = statistics.median(setup_samples)
    outcome.e2e["peak_rss_mb"] = max(self_rss, child_rss) / 1024.0
    outcome.info["setup_samples_s"] = setup_samples
    outcome.info["setup_host_factor"] = _START_FACTOR

    problems = reference_check(args.workload, args.seed, args.seconds, outcome.info)
    if outcome.info.get("deterministic") is False:
        problems.append("rounds produced different findings")
    failed = outcome.attempted if problems else outcome.failed
    correct = failed == 0

    info = provenance(args, {"workers_effective": outcome.info.pop("workers_effective", 1)})
    print(f"perfbench {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print("details " + json.dumps(outcome.info, sort_keys=True, default=str))
    accuracy = outcome.info.get("accuracy", {})
    if accuracy:
        print(
            f"ground truth: recall {accuracy['recall']:.4f}  precision {accuracy['precision']:.4f}"
            f"  (tp {accuracy['tp']}, fp {accuracy['fp']}, fn {accuracy['fn']})"
        )
    for problem in problems:
        print(f"reference mismatch: {problem}")
    print(
        f"correctness: {'PASS' if correct else 'FAIL'}  "
        f"({failed} of {outcome.attempted} ops failed, failed_frac {failed / outcome.attempted:.4f})"
    )

    if args.trace:
        if outcome.traced_round_s and outcome.untraced_round_s:
            overhead = outcome.traced_round_s / outcome.untraced_round_s - 1.0
        else:
            overhead = tracer_overhead_estimate(tracer)
        outcome.layers["trace.overhead_frac"] = overhead
        print(tracer.render())
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        table = workloads.PER_LAYER
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, (unit, _better) in table.items()
        }
    else:
        table = workloads.END_TO_END
        metrics = {
            name: {"value": float(outcome.e2e[name]), "unit": unit}
            for name, (unit, _better) in table.items()
        }
    for name, metric in metrics.items():
        print(f"  {name:<40}{metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": failed, "metrics": metrics}))
    return 0


def tracer_overhead_estimate(tracer) -> float:
    """Tracing cost as a share of the traced wall, from the span count
    and a calibrated per-span cost -- used where the workload's wall is
    set by an arrival schedule rather than by the work."""
    from spans import Tracer

    probe = Tracer("calibration")
    probe.open_window()
    calls = 20000
    start = time.perf_counter()
    for _ in range(calls):
        with probe.span("x"):
            pass
    per_span = (time.perf_counter() - start) / calls
    return len(tracer.spans) * per_span / tracer.wall


if __name__ == "__main__":
    sys.exit(main())
