"""tools/code_lines.py: which lines count as code, and the lines it prints."""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
import code_lines  # noqa: E402

# the sources hold no f-strings: Python 3.12 tokenizes them into parts of their own
MODULE = '''\
"""Module docstring,
over two lines."""

# a comment line

import os  # a trailing comment


def join(x):
    """Function docstring."""
    "a bare string statement"
    return os.path.join(
        x, "y"
    )


TEXT = """one
two
three"""
'''


def _write(path, source):
    path.write_text(source)
    return path


@pytest.mark.parametrize(
    "source, count",
    [
        ('"""Module docstring."""\n', 0),
        ('def f():\n    """Function docstring."""\n    return 1\n', 2),
        ('x = 1\n"a bare string statement"\n', 1),
        ("# a comment\n\n\nx = 1\n", 1),
        ("x = 1  # a trailing comment\n", 1),
        ("print(\n    1,\n)\n", 3),
        ('TEXT = """one\ntwo\nthree"""\n', 3),
    ],
    ids=["docstring", "function", "bare-string", "comment-blank", "trailing", "call", "string"],
)
def test_each_rule_pins_its_count(tmp_path, source, count):
    assert code_lines.code_lines(_write(tmp_path / "m.py", source)) == count


def test_a_module_counts_its_statements_only(tmp_path):
    # import 1, def 1, the call 3, the assigned string 3
    assert code_lines.code_lines(_write(tmp_path / "m.py", MODULE)) == 8


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    a = _write(pkg / "a.py", MODULE)
    b = _write(pkg / "b.py", "x = 1\ny = 2\n")
    assert code_lines.main([str(pkg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     8 {a}",
        f"     2 {b}",
        "    10 total",
    ]
