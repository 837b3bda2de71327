#!/usr/bin/env python3
"""Count the lines of the Python sources under a directory (default: src/).

Example:
    python scripts/src_lines.py
    python scripts/src_lines.py src/gradsing/solver.py

Prints two counts: physical lines (what ``wc -l`` gives) and code lines,
the lines that hold a token outside comments and docstrings.  A docstring
is the string statement that opens a module, class or function; every
line it spans is left out, and so are blank lines and lines holding only
a comment.  Other strings count on every line they span.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set:
    """The line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(physical lines, code lines) of one Python source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstrings)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path", nargs="?", default=str(ROOT / "src"),
                    help="a .py file or a directory searched for them")
    args = ap.parse_args(argv)
    path = Path(args.path)
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    physical = code = 0
    for f in files:
        p, c = count(f.read_text())
        physical, code = physical + p, code + c
    print(f"physical {physical}")
    print(f"code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
