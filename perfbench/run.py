"""vkwave benchmark: time-to-verdict of three workloads, plus a traced run.

Run from the repository root (no install needed; vkwave is imported from
``src/``):

    python3 perfbench/run.py --workload wave_balance --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``wave_balance``, ``pointwise`` and
``disc_balance``.  One process, one client, closed loop: each execution
starts when the previous one has ended, with BLAS pinned to one thread.
After one warm-up execution the workload runs for ``--seconds`` seconds
(at least three executions).  Every execution's verdict rows are checked
against pinned verdicts and its output bytes against the warm-up's.

``--trace 0`` reports the end-to-end metrics:

- ``run_s``: median time of one execution, in calibrated seconds;
- ``setup_s``: median over fresh interpreters of the time to import vkwave
  and load the scenario and build the field, in calibrated seconds;
- ``peak_rss_mb``: peak resident memory of the benchmark process;
- ``verdict_ok_ratio``: share of rows whose verdict matches the pinned one;
- ``oracle_gap``: worst relative gap between a checked value and its
  closed-form oracle (balance residual against the front line integral on
  the balance workloads, extracted jump amplitudes against the wave's
  closed forms on ``pointwise``), reported no lower than 1e-12, the
  round-off floor.

Calibrated seconds are wall seconds corrected for the speed of a shared
host, whose spells of slowness would otherwise swamp any useful bound.
For ``run_s`` a timer runs a fixed vkwave-free kernel during each timed
execution (calibration.py).  For ``setup_s`` each set-up interpreter is
bracketed by two reference interpreters that import only vkwave's
dependencies (``REFERENCE_IMPORTS``); a set-up's wall time is scaled by
``REFERENCE_SETUP_S`` over the mean of the two.  A change to vkwave moves
the measured span but not its reference.  The raw wall times are printed
on ``#`` lines beside the calibrated ones.

``--trace 1`` wraps vkwave's layers (tracing.py), runs the same loop
traced and reports per-layer metrics: medians over executions of calls,
points and self time per layer.

Lines starting with ``#`` describe the environment (kernel backend,
Python and numpy versions, CPU count, BLAS pins) and the samples; the
last line is the JSON result.  ``--out FILE`` also writes a full record,
which compare.py compares with another.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

#: Fresh interpreters timed for setup_s, after one untimed one that warms
#: the file cache and writes bytecode.
SETUP_PROBES = 7
#: What a reference interpreter imports: vkwave's third-party dependencies
#: and the stdlib modules it uses that run.py has not loaded already.
REFERENCE_IMPORTS = ("numpy", "yaml", "csv", "dataclasses", "enum", "typing")
#: Reference interpreter time that calibrated set-up seconds are expressed
#: against: its median on a quiet 2-vCPU KVM guest (Xeon, Python 3.11).
REFERENCE_SETUP_S = 0.08
MIN_EXECUTIONS = 3
#: Untraced executions timed in a traced run, the base of trace.overhead_ratio.
UNTRACED_REFERENCE = 2
ORACLE_FLOOR = 1e-12
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verdict_ok_ratio", "ratio"),
    ("oracle_gap", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full record to this file")
    ap.add_argument("--probe-setup", choices=("workload", "reference"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def probe_setup(args) -> None:
    """Child side of setup_s: set up (or import the reference), print the seconds taken."""
    start = time.perf_counter()
    if args.probe_setup == "reference":
        for name in REFERENCE_IMPORTS:
            importlib.import_module(name)
    else:
        import vkwave  # noqa: F401  (the import is what is timed)
        import workloads

        workloads.WORKLOADS[args.workload].setup(args.seed)
    print(repr(time.perf_counter() - start))


def measure_setup(args) -> list[tuple[float, float]]:
    """(wall seconds, mean of the reference interpreters around it) of each set-up."""

    def child(kind: str) -> float:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--probe-setup", kind,
            "--workload", args.workload, "--seed", str(args.seed),
        ]
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        return float(done.stdout.split()[-1])

    child("workload")
    references = [child("reference")]
    probes = []
    for _ in range(SETUP_PROBES):
        wall = child("workload")
        references.append(child("reference"))
        probes.append((wall, (references[-2] + references[-1]) / 2.0))
    return probes


def timed_loop(seconds, run_once):
    """Call run_once back to back for about the given seconds; return its durations.

    A new call starts only if a call of median length still ends in time,
    so the loop overruns its budget by less than one call.
    """
    durations = []
    stop = time.perf_counter() + seconds
    while len(durations) < MIN_EXECUTIONS or (
        time.perf_counter() + statistics.median(durations) <= stop
    ):
        durations.append(run_once())
    return durations


def tail(durations) -> str:
    """The highest percentile with TAIL_BEYOND samples beyond it, if any."""
    n = len(durations)
    if n <= TAIL_BEYOND:
        return f"tail n/a: {n} samples, a tail needs more than {TAIL_BEYOND}"
    level = 100.0 * (n - TAIL_BEYOND) / n
    return f"p{level:.1f} = {sorted(durations)[n - TAIL_BEYOND - 1]!r} s over {n} samples"


def untraced_run(args, workload, inputs, checker, notes):
    import calibration
    import tracing

    leftovers = tracing.leftover_wrappers()
    if leftovers:
        raise RuntimeError(f"trace wrappers installed before the timed runs: {leftovers}")

    cal = calibration.Calibration()
    scaled = []
    kernel_means = []

    def once():
        execution, wall, calibrated = cal.time(lambda: workload.execute(inputs))
        checker.add(execution)
        scaled.append(calibrated)
        kernel_means.append(statistics.fmean(cal.samples))
        return wall

    durations = timed_loop(args.seconds, once)
    raw_gap = workload.oracle_gap(inputs, checker.reference)
    notes.append(f"run_s {tail(scaled)}")
    notes.append(f"run_s calibrated samples {scaled!r}")
    notes.append(f"run_s wall median {statistics.median(durations)!r} s; "
                 f"mean calibration kernel per execution {kernel_means!r} s")
    notes.append(f"oracle_gap raw {raw_gap!r}")
    metrics = {
        "run_s": statistics.median(scaled),
        "setup_s": statistics.median(
            wall * REFERENCE_SETUP_S / reference for wall, reference in args.setup_probes
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdict_ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
        "oracle_gap": max(raw_gap, ORACLE_FLOOR),
    }
    return durations, {name: (metrics[name], unit) for name, unit in END_TO_END}, True


def traced_run(args, workload, inputs, checker, notes):
    import tracing

    def plain():
        start = time.perf_counter()
        checker.add(workload.execute(inputs))
        return time.perf_counter() - start

    untraced = [plain() for _ in range(UNTRACED_REFERENCE)]

    tracer = tracing.Tracer()
    per_execution = []
    tracer.install()
    try:
        tracer.reset()
        workload.setup(args.seed)
        setup_stats = dict(tracer.stats)

        def once():
            tracer.reset()
            tracer.enter(tracing.ROOT)
            execution = workload.execute(inputs)
            tracer.exit()
            checker.add(execution)
            per_execution.append(tracing.execution_metrics(tracer))
            return per_execution[-1]["trace.total_s"]

        durations = timed_loop(args.seconds, once)
    finally:
        tracer.uninstall()
    leftovers = tracing.leftover_wrappers()
    if tracer.missing:
        notes.append(f"layers not found, reported idle: {tracer.missing}")

    metrics = {
        name: statistics.median(values[name] for values in per_execution)
        for name, _ in tracing.PER_LAYER
        if name in per_execution[0]
    }
    calls, _, total, _ = setup_stats.get("scenario.load_scenario", (0, 0, 0.0, 0.0))
    metrics["scenario.load_scenario.s"] = total / calls if calls else 0.0
    metrics["trace.overhead_ratio"] = metrics["trace.total_s"] / statistics.median(untraced)
    metrics["trace.executions"] = len(per_execution)
    worst_sum = max(abs(values["trace.self_sum_ratio"] - 1.0) for values in per_execution)
    notes.append(f"self times sum to the traced total within {worst_sum:.1e}")
    notes.append(f"untraced reference {untraced!r} s")
    correct = not leftovers and worst_sum < 1e-9
    if leftovers:
        notes.append(f"wrappers left installed: {leftovers}")
    return durations, {name: (metrics[name], unit) for name, unit in tracing.PER_LAYER}, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vkwave" / "__init__.py").is_file():
        print(f"error: vkwave sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINS)
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args)
        return 0

    import numpy as np

    import vkwave
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    args.setup_probes = [] if args.trace else measure_setup(args)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    checker = workloads.Checker(workload.expected(), workload.execute(inputs))
    checker.add(checker.reference)

    env = {
        # vkwave builds without the compiled kernel have no kernel_backend()
        "backend": vkwave.kernel_backend() if hasattr(vkwave, "kernel_backend") else "python",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_pins": BLAS_PINS,
    }
    notes = []
    run = traced_run if args.trace else untraced_run
    durations, metrics, correct = run(args, workload, inputs, checker, notes)
    if not checker.identical:
        notes.append("report bytes differ between executions")

    result = {
        "correct": correct and checker.identical and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(durations)} timed executions {durations!r}")
    print(f"# setup (wall s, reference s) {args.setup_probes!r}")
    for note in notes:
        print(f"# {note}")
    if args.out is not None:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": env, "durations": durations, "result": result,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
