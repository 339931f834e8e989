"""The bytes `vkwave check` writes for three scenario files, pinned by the
first 16 hex digits of their sha256.  A change that alters any report
byte (a residual's last bit, a row's order or text, the embedded
scenario) fails here; a deliberate change updates the digests."""

import hashlib
from pathlib import Path

import pytest

from vkwave import cli

_ROOT = Path(__file__).resolve().parents[1]

#: scenario file -> (json, csv, human) sha256 prefixes
_GOLDEN = {
    "examples_scenarios/wave_check.yaml": ("0345e9d5bfb6f125", "cac5fcac8fa2a63c", "d89235687b4427da"),
    "perfbench/scenarios/wave_balance.yaml": ("756c2b456ec21e01", "a229e6220065863a", "369e4cdf86188d88"),
    "perfbench/scenarios/pointwise.yaml": ("d38008080e1ccefd", "3b90afaeac5f4386", "6672d71e7cefeb67"),
}


@pytest.mark.parametrize("scenario", sorted(_GOLDEN))
def test_report_bytes_are_pinned(scenario, tmp_path):
    for fmt, expected in zip(("json", "csv", "human"), _GOLDEN[scenario]):
        out = tmp_path / f"report.{fmt}"
        cli.main(["check", "--scenario", str(_ROOT / scenario), "--format", fmt, "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == expected, fmt
