import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 11 code lines: every line of a multi-line statement or string counts,
# and comments, blank lines and docstrings do not
_FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def f(a,
      b):
    """Function docstring."""

    return (a
            + b)


class C:
    """Class
    docstring."""

    text = """not a
docstring"""
    values = [
        1,
    ]
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_counts_code_only(tmp_path):
    source = tmp_path / "fixture.py"
    source.write_text(_FIXTURE)
    assert _tool().code_lines(source) == 11


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert _tool().main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{11:6d}  {tmp_path / 'pkg' / 'a.py'}",
        f"{1:6d}  {tmp_path / 'pkg' / 'b.py'}",
        f"{12:6d}  total",
    ]
