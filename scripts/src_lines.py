#!/usr/bin/env python3
"""Print the total and code lines of each module of src/sparsetls.

    python3 scripts/src_lines.py

One row per module, then the sum.  The total is the number of lines of
the file, `len(text.splitlines())`.  Code lines are the lines that hold
a token outside blank lines, comments and docstrings, where a docstring
is any string literal that forms a whole statement (a module, class or
function docstring, or a bare string anywhere else).  A line that holds
a token of a string or bracket spanning several lines counts once for
each line the token spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sparsetls"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(text: str) -> tuple[int, int]:
    """(total lines, code lines) of the Python source text."""
    docstrings = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or any(lo <= tok.start < hi for lo, hi in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main() -> int:
    rows = [(path.name, *count_lines(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16} {'total':>6} {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<16} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
