#!/usr/bin/env python3
"""Record one benchmark run of every workload as BENCH_<label>.json.

Example:
    python3 scripts/bench.py after-banded-solve

Runs ``perfbench/run.py --workload all`` (seed 1, 15 s per workload,
untraced) and writes its ``env`` line and its final JSON line (correct,
attempted, failed and the end-to-end metrics per workload) to
BENCH_<label>.json at the root of the repository, so the performance
trajectory lives in the repository.  ``worktree_modified`` lists the paths
that ``git status --porcelain`` reports after the run: a record taken from
a tree with uncommitted changes says so, since run.py's ``git_sha`` names
only the commit.  When run.py fails, its output is echoed, nothing is
written and the exit status is run.py's.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = ("perfbench/run.py", "--workload", "all")


def worktree_modified(root: Path):
    """The paths ``git status --porcelain`` lists in root (changed, staged
    or untracked), or "unavailable" when root is not the top of a git
    checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True)
    try:
        top, status = git("rev-parse", "--show-toplevel"), git("status", "--porcelain")
    except OSError:  # no git
        return "unavailable"
    # only the checkout's own repository counts, not one that encloses it
    if (top.returncode or status.returncode
            or Path(top.stdout.strip()).resolve() != Path(root).resolve()):
        return "unavailable"
    return [line[3:] for line in status.stdout.splitlines()]


def record(stdout: str, label: str, out_dir: Path, worktree) -> Path:
    """Write the env line and the final JSON line of run.py's output, and
    the worktree's modified paths, to out_dir/BENCH_<label>.json."""
    lines = stdout.strip().splitlines()
    env = [line for line in lines if line.startswith("env ")]
    if not lines or len(env) != 1:
        raise ValueError("run.py output lacks its env line or its result line")
    bench = {
        "command": ["python3", *COMMAND],
        "env": json.loads(env[0][len("env "):]),
        "result": json.loads(lines[-1]),
        "worktree_modified": worktree,
    }
    path = out_dir / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("label", help="names the file: BENCH_<label>.json")
    args = ap.parse_args(argv)
    proc = subprocess.run([sys.executable, *COMMAND], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        return proc.returncode
    print(record(proc.stdout, args.label, ROOT, worktree_modified(ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
