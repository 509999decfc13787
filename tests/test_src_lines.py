"""scripts/src_lines.py on a fixture with known counts and on src/."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

# code lines: 4, 7, 8 (an assigned string is code), 11, 12, 15, 16 and 19
# (a docstring on the line of its class); 19 lines in all
FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a whole-line comment
X = """not a docstring:
an assigned string"""


def f(a,
      b):
    """Function docstring."""
    "a bare string statement"
    return (a +
            b)


class C: """docstring on the class line"""
'''


def test_fixture_counts():
    assert src_lines.count_lines(FIXTURE) == (19, 8)


def test_totals_are_the_line_counts_of_the_modules(capsys):
    modules = sorted(src_lines.SRC.glob("*.py"))
    assert modules
    for path in modules:
        total, code = src_lines.count_lines(path.read_text())
        assert total == len(path.read_text().splitlines()), path.name
        assert 0 < code < total, path.name
    assert src_lines.main() == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[1:]] == [p.name for p in modules] + ["total"]
    totals = [int(row.split()[1]) for row in rows[1:]]
    assert totals[-1] == sum(totals[:-1]) == sum(len(p.read_text().splitlines()) for p in modules)
