#!/usr/bin/env python3
"""Self-test of the benchmark's failure accounting and traced counts.

    python3 perfbench/selftest.py

On a reduced n = 2 configuration (60 nodes, short horizon, three inner
radii, four checks including both reruns):

1. a control run without the smallest radius counts its solves and inner
   boundary evaluations with plain counters;
2. the full run, with ``solve_annulus`` replaced by one that raises
   ``SolverAbort`` at the smallest radius before any step, is accounted by
   the benchmark's own code under its tracer.  The abort must show as a
   failure even though the program's exit code does not show it, and the
   traced counts must be exactly the control's: one more solve (the
   aborted one) and the same number of inner_bc calls (it made none);
3. a small traced gates sweep must make no solve and no inner_bc call.

Exits 0 when every assertion holds.
"""

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)
from gradsing import initdata, solver  # noqa: E402
from gradsing.config import preset  # noqa: E402
from tracer import Tracer  # noqa: E402

ABORT_EPS = 0.01
CHECKS = ("sandwich", "monotone", "cutoff_inactive", "uniqueness")


def reduced(eps_sequence):
    cfg = preset("n2-standard")
    return dataclasses.replace(
        cfg,
        continuation=dataclasses.replace(
            cfg.continuation, eps_sequence=eps_sequence, reference_eps=0.02,
            num_nodes=60, horizon_efolds=0.6),
        verify=dataclasses.replace(cfg.verify, enabled=CHECKS),
        output=dataclasses.replace(cfg.output, directory="selftest"),
    )


def counted(owner, attr, counts, key):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return original


def main() -> int:
    work_root = BENCH.parent / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    try:
        # 1. control: plain counters, no tracer, no injected abort
        counts = {"solves": 0, "inner_bc": 0}
        orig_solve = counted(solver, "solve_annulus", counts, "solves")
        orig_bc = counted(initdata.EpsilonProblem, "inner_bc", counts, "inner_bc")
        try:
            control = workloads.run_pipeline_once(
                reduced((0.04, 0.02)), work / "control", plotdata=False)
        finally:
            solver.solve_annulus = orig_solve
            initdata.EpsilonProblem.inner_bc = orig_bc
        expect(control.failed == 0,
               f"control run has no failure ({control.failures})")
        expect(counts["solves"] == 4, f"control makes 4 solves ({counts})")

        # 2. injected abort at the smallest radius, traced
        def aborting(problem, grid, T, scheme):
            if problem.epsilon == ABORT_EPS:
                raise solver.SolverAbort("injected abort", eps=problem.epsilon,
                                         step_index=0, time=0.0)
            return orig_solve(problem, grid, T, scheme)

        solver.solve_annulus = aborting
        tracer = Tracer().install()
        try:
            run = workloads.run_pipeline_once(
                reduced((0.04, 0.02, ABORT_EPS)), work / "abort", plotdata=False)
        finally:
            tracer.uninstall()
            solver.solve_annulus = orig_solve
        layers = tracer.layer_metrics(1)
        share = run.failed / run.attempted
        expect(share > 0, f"abort counted: failed_share = {share:.3f} "
                          f"({run.failed} of {run.attempted}) while the program "
                          f"exits {run.exit_code}: {run.failures}")
        expect(layers["solver.solves"] == counts["solves"] + 1,
               f"solver.solves = {layers['solver.solves']:g}, predicted "
               f"{counts['solves'] + 1}")
        expect(layers["initdata.inner_bc.calls"] == counts["inner_bc"],
               f"initdata.inner_bc.calls = {layers['initdata.inner_bc.calls']:g}, "
               f"predicted {counts['inner_bc']}")

        # 3. gates sweep bypasses the solver and the inner boundary
        tracer = Tracer().install()
        try:
            sweep = workloads.run_sweep_once(workloads.sweep_configs(7)[::3])
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics(1)
        expect(sweep.failed == 0, f"sweep has no failure ({sweep.failures})")
        expect(layers["solver.solves"] == 0 and
               layers["initdata.inner_bc.calls"] == 0,
               f"sweep: solver.solves = {layers['solver.solves']:g}, "
               f"inner_bc calls = {layers['initdata.inner_bc.calls']:g} "
               "(predicted 0 and 0)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "passed" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
