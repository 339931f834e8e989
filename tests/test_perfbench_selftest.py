import json
import subprocess
import sys
from pathlib import Path


def test_benchmark_selftest_passes():
    # The benchmark's tracer wraps vkwave names by module and class, and
    # its workloads pin every verdict; its self-test fails when a change
    # breaks either.  It writes no files.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_run_leaves_no_wrapper_behind():
    # disc_balance loads the scenario reader and the report only when the
    # tracer resolves their names, in the middle of installing its wrappers
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", "disc_balance", "--trace", "1", "--seconds", "0.3",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "wrappers left installed" not in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
