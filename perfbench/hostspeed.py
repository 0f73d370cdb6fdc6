"""Host-speed calibration.

    python3 perfbench/hostspeed.py --every 0.5   # sample until stopped

The benchmark runs on small shared VMs whose speed moves by a third or
more in phases that last from seconds to several minutes (other
tenants' load, the host's clock).  A phase that long shifts every
timing of a run, and medians over the run cannot remove it: ten runs
in a row can straddle two phases, and each vCPU has phases of its own.
So while a workload measures, a sampler process times a fixed
reference kernel -- pure Python that allocates, hashes and walks a
small graph, much as the analysis does, and calls no program code --
twice a second, on each usable core in turn, in CPU time (so that
waiting for a core the workload holds is not counted), and each round
of the workload is divided by the host's speed factor over that round:
the mean over the cores of the median kernel time in the round, over
the kernel's time on the reference host.  The sampler uses about 4%
of one core.

Every end-to-end timing is therefore in *reference-host seconds*: what
the step would take on the reference host, a 2-vCPU Intel Xeon VM
running CPython 3.11, in its usual phase.  On a steady host that is
the measured wall times a constant.  A change to the program moves the
figures; a change of the host's phase does not.  The raw walls and the
factors stay in each run's ``details``.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import subprocess
import sys
import time

#: Median CPU time of one :func:`kernel` call on the reference host.
REFERENCE_KERNEL_S = 0.0036
#: Kernel calls per sample; their median is the sample.
REPS = 5
#: Seconds between the sampler's samples.
EVERY_S = 0.5


class _Node:
    __slots__ = ("name", "edges", "weight")

    def __init__(self, name: str, weight: int):
        self.name = name
        self.edges: list[_Node] = []
        self.weight = weight


def kernel() -> int:
    """Build a 3,000-node graph keyed by name, then walk it."""
    nodes: dict[str, _Node] = {}
    for i in range(3000):
        node = _Node(f"n{i}", i % 17)
        nodes[node.name] = node
        if i:
            nodes[f"n{(i * 7) % i}"].edges.append(node)
    seen: set[str] = set()
    stack = [nodes["n0"]]
    total = 0
    while stack:
        node = stack.pop()
        if node.name in seen:
            continue
        seen.add(node.name)
        total += node.weight
        stack.extend(node.edges)
    return total


def sample(reps: int = REPS) -> float:
    """The host's speed factor now: the median CPU time of ``reps``
    kernel calls, as a multiple of the reference host's (above 1 is
    slower).  The collector is paused so that no collection is billed
    to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            start = time.thread_time()
            kernel()
            times.append(time.thread_time() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / REFERENCE_KERNEL_S


class HostSpeed:
    """The sampler process, between :meth:`start` and :meth:`stop`.

    Sample times are ``time.monotonic()`` readings, which every process
    of the host shares; a workload brackets each round with the same
    clock and asks for :meth:`factor` over it once the sampler stopped.
    """

    def __init__(self) -> None:
        #: ``(monotonic time, core, factor)``
        self.samples: list[tuple[float, int, float]] = []
        self._proc: subprocess.Popen | None = None

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--every", str(EVERY_S)],
            stdout=subprocess.PIPE,
            text=True,
        )

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.terminate()
        out, _ = proc.communicate(timeout=60)
        for line in out.splitlines():
            fields = line.split()
            if len(fields) == 3:
                self.samples.append((float(fields[0]), int(fields[1]), float(fields[2])))

    def factor(self, start: float, end: float) -> float:
        """Mean over the cores of each core's median factor in ``[start,
        end]``; a core with no sample there contributes the sample
        nearest the span's middle."""
        if not self.samples:
            raise RuntimeError("the host-speed sampler took no samples")
        middle = (start + end) / 2
        per_core = []
        for core in sorted({core for _, core, _ in self.samples}):
            mine = [(stamp, factor) for stamp, c, factor in self.samples if c == core]
            inside = [factor for stamp, factor in mine if start <= stamp <= end]
            if inside:
                per_core.append(statistics.median(inside))
            else:
                per_core.append(min(mine, key=lambda s: abs(s[0] - middle))[1])
        return statistics.fmean(per_core)


def _sample_until_orphaned(every: float) -> None:
    parent = os.getppid()
    cores = sorted(os.sched_getaffinity(0))
    turn = 0
    while os.getppid() == parent:
        core = cores[turn % len(cores)]
        turn += 1
        os.sched_setaffinity(0, {core})
        stamp = time.monotonic()
        print(f"{stamp!r} {core} {sample()!r}", flush=True)
        time.sleep(every)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--every", type=float, required=True, help="sample every EVERY seconds until stopped"
    )
    _sample_until_orphaned(parser.parse_args(argv).every)
    return 0


if __name__ == "__main__":
    sys.exit(main())
