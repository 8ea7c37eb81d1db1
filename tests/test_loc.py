"""tools/loc.py on small made-up modules."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(loc)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Shape:
    """Class docstring."""

    sides = 0


def area(r):
    """Function docstring,

    with a blank line inside."""
    text = """a multi-line string
    that is not a docstring"""
    return math.pi * r * r, text


def one_liner(): """A docstring on the line of its def."""
'''


def test_counts_code_lines_only():
    # import, class, sides, def area, the two lines of `text`, return, def one_liner
    assert loc.code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     1 b.py", "     8 pkg/a.py", "     9 total"]
