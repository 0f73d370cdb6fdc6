"""Record the reference digests of ``reference.json``.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload (all by default) twice on its primary and its
held-out seed at the ``run_seconds`` of ``BENCHMARK.json``, requires
both runs of a seed to agree, and writes the digests (and, for the
serial workload, the exact modeled work and memory units) into
``reference.json``.  Re-record only when a change is meant to alter
findings or modeled work; the design table is left untouched.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PRIMARY, HELD_OUT = 1, 2

PINNED = {
    "vet-serial": ("findings_digest", "work_units", "memory_units"),
    "compare-campaign": ("report_digest",),
    "dedup-pooled": ("findings_digest",),
    "serve-open-loop": ("findings_digest",),
}


def details(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if result["failed"] or any(line.startswith("reference mismatch") for line in lines):
        print(proc.stdout[-3000:])
    info = json.loads(next(line for line in lines if line.startswith("details "))[8:])
    return {key: info[key] for key in PINNED[workload]}


def main(argv: list[str]) -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    for workload in argv or PINNED:
        seeds = {}
        for seed in (PRIMARY, HELD_OUT):
            first, second = details(workload, seed, seconds), details(workload, seed, seconds)
            if first != second:
                raise SystemExit(f"{workload} seed {seed} is not reproducible: {first} != {second}")
            seeds[str(seed)] = first
            print(f"{workload} seed {seed}: {first}", flush=True)
        reference["workloads"][workload] = {
            "seconds": seconds,
            "primary": PRIMARY,
            "held_out": HELD_OUT,
            "seeds": seeds,
        }
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
