import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_faults_tool_prints_a_row_per_workload():
    # one execution per workload, each in its own interpreter
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "faults.py"), "--executions", "1"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["workload", "faults/exec", "median_s", "executions"]
    assert [row.split()[0] for row in rows] == ["wave_balance", "pointwise", "disc_balance"]
    for row in rows:
        _, faults, wall, executions = row.split()
        assert float(faults) >= 0.0 and float(wall) > 0.0 and executions == "1"


def test_faults_tool_rejects_an_unknown_workload():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "faults.py"), "no_such_workload"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 2
    assert "unknown workloads ['no_such_workload']" in proc.stderr
