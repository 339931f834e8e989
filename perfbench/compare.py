"""Compare two records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records and their ratio.  Refuses, with exit
code 2, to compare records of different workloads or trace modes, or
records made with a different kernel backend, Python or numpy: the
compiled and the numpy jet kernels alone move run_s by 1.3-2x.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MUST_MATCH = ("workload", "trace")
ENV_MUST_MATCH = ("backend", "python", "numpy")


def mismatches(base: dict, new: dict) -> list[str]:
    """What makes two records incomparable, as readable lines."""
    out = [f"{k}: {base[k]!r} vs {new[k]!r}" for k in MUST_MATCH if base[k] != new[k]]
    out += [
        f"env.{k}: {base['env'][k]!r} vs {new['env'][k]!r}"
        for k in ENV_MUST_MATCH
        if base["env"][k] != new["env"][k]
    ]
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    refused = mismatches(base, new)
    if refused:
        print("refusing to compare:\n  " + "\n  ".join(refused), file=sys.stderr)
        return 2
    print(f"{'metric':<48} {'base':>14} {'new':>14} {'new/base':>9}")
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"][name]
        ratio = f"{n['value'] / b['value']:9.3f}" if b["value"] else f"{'-':>9}"
        print(f"{name:<48} {b['value']:>14.6g} {n['value']:>14.6g} {ratio}  {b['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
