"""Guards for the benchmark harness in perfbench/ and for the docs.

The traced benchmark wraps gradsing entry points by name.  A renamed or
removed entry point must fail here instead of silently dropping out of
the per-layer split.  The README's table of checks must name every check.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from gradsing import config, verify

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_table(name: str) -> dict:
    """A module-level literal of tracer.py, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("module, names", sorted(_tracer_table("FUNCTIONS").items()))
def test_traced_functions_resolve(module, names):
    mod = importlib.import_module(f"gradsing.{module}")
    missing = [n for n in names if not callable(getattr(mod, n, None))]
    assert not missing, f"gradsing.{module} lacks traced names {missing}"


@pytest.mark.parametrize("module, pairs", sorted(_tracer_table("METHODS").items()))
def test_traced_methods_resolve(module, pairs):
    mod = importlib.import_module(f"gradsing.{module}")
    missing = [f"{cls}.{attr}" for cls, attr in pairs
               if attr not in vars(getattr(mod, cls, object))]
    assert not missing, f"gradsing.{module} lacks traced methods {missing}"


def test_readme_checks_table_names_every_check():
    rows = re.findall(r"^\| `(\w+)` \|", (ROOT / "README.md").read_text(), re.M)
    assert set(verify.CHECKS) <= set(rows)
    assert rows == list(config.ALL_CHECKS)
