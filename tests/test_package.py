import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import vkwave

_SRC = Path(__file__).resolve().parents[1] / "src"

#: The disc_balance benchmark inputs and one balance over them.
_DISC_BALANCE = """
p = vkwave.make_plate_params(2.1, 0.27, 0.31, 1.7)
front = vkwave.CircleFront(0.1, -0.05, 0.35, radial_speed=0.25)
inside = vkwave.polynomial_field({(0, 0, 1): 1.0}, None, p)
outside = vkwave.polynomial_field(None, None, p)
field = vkwave.PiecewiseField(outside, inside, front, p)
vkwave.balance_residual(field, vkwave.law(1), vkwave.Region(-0.7, 0.9, -0.8, 0.7), 0.0)
"""


def _fresh(code: str):
    """Run code after ``import sys, vkwave`` in a new interpreter; return
    the JSON value it prints."""
    path = os.pathsep.join(filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys, vkwave\n{code}"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_star_exports_are_unique_and_resolve():
    # `from vkwave import *` imports exactly these names
    repeated = [name for name, count in Counter(vkwave.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in vkwave.__all__ if not hasattr(vkwave, name)]
    assert missing == []


def test_import_runs_no_submodule():
    loaded = _fresh("print(json.dumps([m for m in sys.modules if m.startswith('vkwave.')]))")
    assert loaded == []


def test_a_balance_never_loads_the_scenario_reader_the_report_or_yaml():
    loaded = _fresh(
        _DISC_BALANCE
        + "print(json.dumps([m for m in sys.modules if m in"
        " ('vkwave.balance', 'vkwave.report', 'vkwave.scenario', 'yaml')]))"
    )
    assert loaded == ["vkwave.balance"]


def test_star_import_binds_all_and_dir_lists_every_name():
    bound, listed, exported = _fresh(
        "ns = {}\n"
        "exec('from vkwave import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), dir(vkwave), vkwave.__all__]))"
    )
    assert bound == sorted(exported)
    assert set(exported) <= set(listed)


def test_an_unknown_name_raises_attribute_error_naming_it():
    message = _fresh(
        "try:\n"
        "    vkwave.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert message == "module 'vkwave' has no attribute 'no_such_name'"


def test_a_resolved_name_is_not_stored_in_the_package():
    # a benchmark tracer patches module namespaces; a cached name would
    # keep its wrapper after the tracer is removed
    stored = _fresh(
        _DISC_BALANCE
        + "print(json.dumps([n for n in vkwave.__all__ if n in vars(vkwave)]))"
    )
    assert stored == []
