"""The bytes `vkwave check` writes for five scenario files, pinned by the
first 16 hex digits of their sha256.  A change that alters any report
byte (a residual's last bit, a row's order or text, the embedded
scenario) fails here; a deliberate change updates the digests."""

import ast
import hashlib
import importlib.util
from pathlib import Path

import pytest

from vkwave import cli

_ROOT = Path(__file__).resolve().parents[1]

#: scenario file -> (json, csv, human) sha256 prefixes
_GOLDEN = {
    "examples_scenarios/wave_check.yaml": ("3f139765c21a9e7b", "9f4d86da9644a0a7", "a9ca696f933a8c2b"),
    "examples_scenarios/circle_jumps.yaml": ("42cb53aa21094919", "ebaa44076dfe8cb4", "7f241ef353b93349"),
    "examples_scenarios/scenario_keys.yaml": ("661abd50ea87e0e3", "6a132bdefcb1922c", "4b215f35d6eb0c1f"),
    "perfbench/scenarios/wave_balance.yaml": ("bab5c4d66498bacc", "a229e6220065863a", "369e4cdf86188d88"),
    "perfbench/scenarios/pointwise.yaml": ("6480065bf7da7c5a", "4fd766fd3659222a", "9b22762f1cbdcd13"),
}


@pytest.mark.parametrize("scenario", sorted(_GOLDEN))
def test_report_bytes_are_pinned(scenario, tmp_path):
    for fmt, expected in zip(("json", "csv", "human"), _GOLDEN[scenario]):
        out = tmp_path / f"report.{fmt}"
        cli.main(["check", "--scenario", str(_ROOT / scenario), "--format", fmt, "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == expected, fmt


def test_report_digests_tool_prints_the_golden_table(capsys):
    # tools/report_digests.py is how a deliberate report change takes its
    # new digests: with no arguments it covers exactly the files above
    spec = importlib.util.spec_from_file_location("report_digests", _ROOT / "tools" / "report_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([]) == 0
    out = capsys.readouterr().out
    assert ast.literal_eval(out.split("=", 1)[1].strip()) == _GOLDEN
    assert out == tool.render(_GOLDEN)
