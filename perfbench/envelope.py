"""Benchmark envelope: repeat runs of one workload and summarize them.

    python3 perfbench/envelope.py --workload vet-serial --seeds 1-10

Runs ``run.py`` once per seed, each in a fresh process, and prints per
metric the min, quartiles, median and the quartile spread as a share of
the median, with the provenance of the runs (git sha when available,
source digest, Python version, usable cores, seeds, run count).  The
last line is the envelope as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    return json.loads(lines[-1]), provenance


def summarize(values: list[float]) -> dict:
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (median,) * 3
    return {
        "min": ordered[0],
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": ordered[-1],
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    verdicts = []
    provenance = {}
    for seed in seeds:
        result, provenance = run_once(args.workload, seed, args.seconds, args.trace)
        verdicts.append((seed, result["correct"], result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(
            f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
            + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            flush=True,
        )
    envelope = {
        "provenance": {
            key: provenance.get(key)
            for key in ("git_sha", "src_digest", "python", "usable_cores", "workload", "seconds", "trace")
        }
        | {"seeds": seeds, "runs": len(seeds)},
        "all_correct": all(ok for _, ok, _, _ in verdicts),
        "metrics": {name: {"unit": units[name], **summarize(v)} for name, v in values.items()},
    }
    print(f"{'metric':<40}{'min':>12}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}")
    for name, stats in envelope["metrics"].items():
        print(
            f"{name:<40}{stats['min']:>12.5g}{stats['q1']:>12.5g}{stats['median']:>12.5g}"
            f"{stats['q3']:>12.5g}{stats['spread']:>9.3f}"
        )
    print(json.dumps(envelope))
    return 0 if envelope["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
