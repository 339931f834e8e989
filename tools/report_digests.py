"""Print the sha256 prefixes of the reports `vkwave check` writes, in the
layout of ``_GOLDEN`` in tests/test_golden_reports.py.

    python tools/report_digests.py [scenario.yaml ...]

The default scenarios are every file of examples_scenarios/ and
perfbench/scenarios/.  Each is checked with the package in src/, once per
format (json, csv, human), and printed as its path from the repository
root and the first 16 hex digits of each report's sha256.  A change that
alters report bytes on purpose takes its new digests from here.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vkwave import cli  # noqa: E402  (the package of this checkout, not an installed one)

FORMATS = ("json", "csv", "human")
SCENARIO_DIRS = ("examples_scenarios", "perfbench/scenarios")


def digests(scenario: Path) -> tuple[str, ...]:
    """The (json, csv, human) sha256 prefixes of one scenario's reports."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            path = Path(tmp) / f"report.{fmt}"
            cli.main(["check", "--scenario", str(scenario), "--format", fmt, "--out", str(path)])
            out.append(hashlib.sha256(path.read_bytes()).hexdigest()[:16])
    return tuple(out)


def render(table: dict[str, tuple[str, ...]]) -> str:
    """``table`` as the ``_GOLDEN`` literal, one scenario a line, sorted."""
    lines = ["#: scenario file -> (json, csv, human) sha256 prefixes", "_GOLDEN = {"]
    for name in sorted(table):
        quoted = ", ".join(f'"{d}"' for d in table[name])
        lines.append(f'    "{name}": ({quoted}),')
    return "\n".join(lines + ["}"]) + "\n"


def main(argv: list[str]) -> int:
    paths = [Path(arg).resolve() for arg in argv] or sorted(
        f for d in SCENARIO_DIRS for f in (ROOT / d).glob("*.yaml")
    )
    table = {}
    for path in paths:
        name = path.relative_to(ROOT).as_posix() if path.is_relative_to(ROOT) else str(path)
        table[name] = digests(path)
    sys.stdout.write(render(table))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
