#!/usr/bin/env python3
"""Count the lines of the Python sources under a directory (default: src/).

Example:
    python scripts/src_lines.py
    python scripts/src_lines.py src/gradsing/solver.py

Prints four counts, first physical lines (what ``wc -l`` gives) and code lines,
the lines that hold a token outside comments and docstrings.  A docstring
is the string statement that opens a module, class or function; every
line it spans is left out, and so are blank lines and lines holding only
a comment.  Other strings count on every line they span.

Then ``defaults``, the parameters with a default over every function and
lambda, and ``fields``, the settable fields of every dataclass: the
annotated class-level names of a class decorated with ``dataclass``,
less ``ClassVar`` names and those declared with ``field(init=False)``.
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


def _defaults(tree) -> int:
    """Parameters with a default, over every function and lambda."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _settable(stmt) -> bool:
    """True for an annotated name that the dataclass __init__ takes."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return False
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant)
        and kw.value.value is False for kw in value.keywords))


def _fields(tree) -> int:
    """Settable fields over every dataclass."""
    return sum(_settable(stmt) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)
               for stmt in node.body)


def count(text: str) -> tuple:
    """(physical lines, code lines, defaults, fields) of one Python source
    text."""
    tree = ast.parse(text)
    docstrings = _docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstrings), _defaults(tree), _fields(tree)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path", nargs="?", default=str(ROOT / "src"),
                    help="a .py file or a directory searched for them")
    args = ap.parse_args(argv)
    path = Path(args.path)
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    totals = [0, 0, 0, 0]
    for f in files:
        totals = [t + c for t, c in zip(totals, count(f.read_text()))]
    for name, total in zip(("physical", "code", "defaults", "fields"), totals):
        print(f"{name} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
