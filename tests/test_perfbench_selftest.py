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
