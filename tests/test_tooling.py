"""Guards for the benchmark harness in perfbench/, scripts/bench.py and
the docs.

The traced benchmark wraps gradsing entry points by name.  A renamed or
removed entry point must fail here instead of silently dropping out of
the per-layer split, and so must an annulus solve whose result lacks what
the tracer's solve probe reads, or a Newton loop that does not call
``solver.solve_banded`` through the module, or a package import that no
longer puts ``scipy`` in ``sys.modules``.  ``perfbench/selftest.py``
runs here too, so a change that breaks what the benchmark builds from the
program (the config fields it replaces, the signature of
``solve_annulus``, the tracer's probes) fails the tests, and so does a
change that breaks one of the scripts in scripts/.  The README's
table of checks must name every check, its table of configuration keys
every key, and its command-line block every subcommand.  No module of
the package reads another's private name.
"""

import argparse
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from gradsing import analytic, cli, config, initdata, solver, verify

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


def test_readme_config_table_names_every_key():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Configuration files")[1].split("\n### ")[0]
    rows = re.findall(r"^\| `(\w+\.\w+)` \|", section, re.M)
    sections = [("run", config.RunConfig), *config._sections()]
    assert rows == [f"{name}.{f.name}" for name, cls in sections
                    for f in config._keys(cls)]
    assert len(rows) == 16  # run.name and the 15 section keys


def _subcommands(parser, prefix=()):
    """Each command path of an argparse parser, such as ("analytic", "check")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return {path for name, sub in subs[0].choices.items()
            for path in _subcommands(sub, prefix + (name,))}


def test_readme_command_block_names_every_subcommand():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    commands = _subcommands(cli.build_parser())
    named = [next((c for c in commands if line.split()[1:1 + len(c)] == list(c)), line)
             for line in block.strip().splitlines()]
    assert set(named) == commands


def test_solve_exposes_what_the_solve_probe_reads():
    """The tracer's solve probe reads ``times``, ``max_abs_gradient`` and
    ``problem.c_star_eps`` of each solved field."""
    params = analytic.make_params(2, R=0.6, C=0.25)
    datum = initdata.make_initial_datum(params, "mode_deficit", k=2.0,
                                         amplitude=params.C)
    grid = solver.GridPolicy(num_nodes=60, grading_exponent=2.0).build(0.05, params.R)
    problem = initdata.make_epsilon_problem(params, datum, 0.05, grid.nodes)
    out = solver.solve_annulus(problem, grid, 0.02,
                               solver.SchemeConfig(dt=5e-3))
    assert out.times.size - 1 == 4
    grad = out.grid.gradient(out.values)
    assert out.max_abs_gradient == float(np.max(np.abs(grad)))
    assert 0.0 < out.max_abs_gradient / out.problem.c_star_eps < 1.0


def test_every_newton_iteration_calls_solver_solve_banded(monkeypatch):
    """The tracer counts ``solver.newton_iters`` as calls of the module
    attribute ``solver.solve_banded``; a Newton loop that bypassed it would
    read 0 iterations under tracing."""
    calls = []
    original = solver.solve_banded
    monkeypatch.setattr(solver, "solve_banded",
                        lambda *args: calls.append(1) or original(*args))
    params = analytic.make_params(2, R=0.6, C=0.25)
    datum = initdata.make_initial_datum(params, "mode_deficit", k=2.0,
                                         amplitude=params.C)
    grid = solver.GridPolicy(num_nodes=60, grading_exponent=2.0).build(0.05, params.R)
    problem = initdata.make_epsilon_problem(params, datum, 0.05, grid.nodes)
    out = solver.solve_annulus(problem, grid, 0.02,
                               solver.SchemeConfig(dt=5e-3))
    assert len(calls) >= out.times.size - 1 == 4


def test_import_puts_scipy_in_sys_modules():
    """The benchmark's set-up record reads ``sys.modules["scipy"].__version__``
    after importing gradsing, so the package must import scipy itself even
    though it binds LAPACK only at the first banded solve."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gradsing.pipeline; "
         "print(sys.modules['scipy'].__version__)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def _private_reads(path: Path) -> set:
    """"module._name" for each private name of a sibling module that the
    source at ``path`` reads, as an attribute or by a relative import."""
    tree = ast.parse(path.read_text())
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            reads.add(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_private_reads_finds_attributes_and_imports(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from . import solver as s, verify\n"
                      "from .report import _row, within\n"
                      "s._spline_at(verify.CHECKS, verify.__name__, np._x)\n")
    assert _private_reads(source) == {"solver._spline_at", "report._row"}


def test_no_module_reads_another_modules_private_name():
    """A module of the package reads no private name of another, by
    attribute or by import, except the Bessel boundary where ``analytic``
    takes J, J' and J'' from one ``specfn._derivatives`` call."""
    found = {(path.stem, name)
             for path in sorted((ROOT / "src" / "gradsing").glob("*.py"))
             for name in _private_reads(path)}
    assert found <= {("analytic", "specfn._derivatives")}


def test_perfbench_selftest_passes():
    """The benchmark's own self-test: a reduced preset run with counted
    solves, then a traced run with an injected abort."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


def test_refinement_study_prints_one_row_per_level():
    proc = _run_script("refinement_study.py", "--levels", "1",
                       "--base-nodes", "40", "--base-dt", "0.05")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if line.split() and line.split()[0].isdigit()]
    assert len(rows) == 1 and rows[0].split()[0] == "40"


@pytest.mark.parametrize("name", ["heap_phases.py", "refinement_study.py",
                                  "run_preset.py", "singularity_study.py",
                                  "src_lines.py"])
def test_script_help_exits_zero(name):
    """``--help`` keeps each line of the docstring's example block intact."""
    proc = _run_script(name, "--help")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("usage:")
    doc = ast.get_docstring(ast.parse((ROOT / "scripts" / name).read_text()))
    examples = [line for line in doc.split("Example:\n")[1].splitlines()
                if line.strip()]
    assert examples
    help_lines = proc.stdout.splitlines()
    for line in examples:
        assert line in help_lines


def test_src_lines_counts_code_outside_comments_and_docstrings(tmp_path):
    """Blank lines, comment lines and every line of a module, class or
    function docstring are left out of the code count; a multi-line string
    that is not a docstring counts on each of its lines.  ``defaults``
    counts the parameters with a default of functions and lambdas, and
    ``fields`` the dataclass fields that ``__init__`` takes."""
    source = tmp_path / "pkg" / "mod.py"
    source.parent.mkdir()
    source.write_text('''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function
        docstring."""
        text = """not a
docstring"""
        return text


@dataclass(frozen=True)
class B:
    n: int
    C: float = 0.0
    lam: float = field(init=False)
    kind: ClassVar[str] = "b"

    def g(self, x=1, *, y=None, z):
        return lambda t=0: t + x + z
''')
    proc = _run_script("src_lines.py", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["physical 27", "code 14", "defaults 3",
                                        "fields 2"]


def test_gates_sweep_digest_matches_the_benchmark_reference():
    """The model constants, gate verdicts and annulus set-up of the
    benchmark's gates sweep are bitwise those recorded in
    perfbench/reference.json, so a change that moves a bit of them fails
    here, not only as ``outputs_identical = 0`` in a benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = workloads.run_sweep_once(workloads.sweep_configs(workloads.ANCHOR_SEED))
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert out.failures == []
    assert out.digests["sweep"] == reference["gates-sweep"]["anchor_digest"]


def _bench_script():
    spec = importlib.util.spec_from_file_location(
        "bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CANNED_RUN = """\
n2-pipeline: seed 1 (presets ignore it); closed loop, 1 client, 1 process
  run_s                            5.1            s
  correct: true
env {"git_sha": "0123abc", "nproc": 2, "seed": 1}
{"correct": true, "attempted": 40, "failed": 0, "metrics": {"n2-pipeline": \
{"run_s": {"value": 5.1, "unit": "s"}}}}
"""


def test_bench_script_records_env_and_result(tmp_path, monkeypatch):
    """scripts/bench.py keeps run.py's env line and final JSON line, and
    writes nothing when run.py fails; run.py itself is not run."""
    bench = _bench_script()
    commands = []

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":  # tmp_path is no git checkout
            return subprocess.CompletedProcess(cmd, 128, "", "not a git repository")
        commands.append(cmd)
        code = 0 if len(commands) == 1 else 1
        return subprocess.CompletedProcess(cmd, code, CANNED_RUN, "")

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["probe"]) == 0
    assert commands[0][1:] == ["perfbench/run.py", "--workload", "all"]
    written = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert written["env"] == {"git_sha": "0123abc", "nproc": 2, "seed": 1}
    assert written["worktree_modified"] == "unavailable"
    assert written["result"]["metrics"]["n2-pipeline"]["run_s"]["value"] == 5.1
    assert written["command"] == ["python3", "perfbench/run.py", "--workload", "all"]
    assert bench.main(["failed"]) == 1
    assert not (tmp_path / "BENCH_failed.json").exists()
    with pytest.raises(ValueError, match="env line"):
        bench.record(CANNED_RUN.replace("env ", "environment "), "x", tmp_path, [])


def test_bench_script_lists_modified_worktree_paths(tmp_path):
    """worktree_modified names what `git status --porcelain` lists at the
    top of a checkout, [] for a clean one, and "unavailable" below the top
    or outside any checkout."""
    bench = _bench_script()
    assert bench.worktree_modified(tmp_path) == "unavailable"

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)
    git("init", "-q")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "kept.py").write_text("x = 1\n")
    git("add", "sub/kept.py")
    git("commit", "-q", "-m", "seed")
    assert bench.worktree_modified(tmp_path) == []
    (tmp_path / "sub" / "kept.py").write_text("x = 2\n")
    (tmp_path / "new.txt").write_text("")
    assert bench.worktree_modified(tmp_path) == ["sub/kept.py", "new.txt"]
    assert bench.worktree_modified(tmp_path / "sub") == "unavailable"
