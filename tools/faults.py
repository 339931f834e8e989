"""Print the minor page faults and the wall time of one execution of each
benchmark workload.

    python tools/faults.py [--executions N] [workload ...]

Each workload of perfbench/workloads.py (all three by default) runs in a
fresh interpreter, as perfbench/run.py runs it, with BLAS pinned as it
pins it: set up from seed 0 (perfbench/run.py's default), executed once
to warm up, then executed N times (20 by default).  Prints one line per
workload: the minor page faults per execution (the getrusage ru_minflt
delta over the N executions, divided by N) and the median wall time of
one execution.  A batch whose arrays glibc hands back to the system
when they are freed is faulted in again by the next batch, which the
wall time alone does not tell apart from slower arithmetic.  A fresh
interpreter each matters: glibc sizes what it keeps by the blocks freed
before, so a workload run after another can fault where it does not
alone.  Nor does a count of about 1 here prove a fill immune: what the
interpreter allocated while importing counts too, so an edit elsewhere
in the source, or a block held before vkwave loads, can turn it into
hundreds.  To check a fill, also run its workload after another in one
interpreter, or after allocating some blocks of assorted sizes, through
``measure``.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py: its BLAS pins and the src/ it runs)


def measure(workload, executions: int) -> tuple[float, float]:
    """(minor faults per execution, median wall seconds of one execution)
    of ``executions`` runs of ``workload`` after one warm-up run."""
    inputs = workload.setup(0)
    workload.execute(inputs)
    walls = []
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(executions):
        start = time.perf_counter()
        workload.execute(inputs)
        walls.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults / executions, statistics.median(walls)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help="workload names (default: all)")
    ap.add_argument("--executions", type=int, default=20)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.executions < 1:
        ap.error("--executions must be at least 1")
    os.environ.update(run.BLAS_PINS)
    sys.path.insert(0, str(run.SRC))
    import workloads  # after the pins: it imports numpy

    names = args.workloads or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {sorted(workloads.WORKLOADS)}")
    if args.child:
        (name,) = names
        faults, wall = measure(workloads.WORKLOADS[name], args.executions)
        print(f"{name:14s} {faults:12.1f} {wall:10.5f}  {args.executions}")
        return 0
    print(f"{'workload':14s} {'faults/exec':>12s} {'median_s':>10s}  executions", flush=True)
    options = ["--child", "--executions", str(args.executions)]
    for name in names:
        subprocess.run([sys.executable, __file__, *options, name], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
