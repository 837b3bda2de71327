#!/usr/bin/env python3
"""Refinement study: how the measured envelope violation, the scheme
disagreement, and the weak-form residual shrink as mesh and step are
halved together.

Prints one table row per level.  The sandwich violation of the backward
Euler scheme typically sits at the rounding floor (the discrete scheme
inherits the comparison structure exactly); the trapezoidal scheme and
the weak-form residual show the expected second/first-order decrease.

Example:
    python scripts/refinement_study.py --levels 2
    python scripts/refinement_study.py --preset n2-standard --eps 0.02
"""

import argparse
import sys

import numpy as np

from gradsing import initdata, solver, verify
from gradsing.config import preset
from gradsing.pipeline import build_model


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--preset", default="n3-weak")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--base-nodes", type=int, default=100)
    ap.add_argument("--base-dt", type=float, default=4e-3)
    ap.add_argument("--eps", type=float, default=0.01)
    args = ap.parse_args()

    cfg = preset(args.preset)
    params, datum = build_model(cfg)
    T = cfg.continuation.horizon(params)
    shell = [tf for tf in verify.default_test_functions(params)
             if tf.name == "interior_shell"][0]

    print(f"# {args.preset}: eps={args.eps}, horizon T={T:.4f}")
    print(f"{'nodes':>6} {'dt':>10} {'sandwich':>12} {'cn_vs_ie':>12} "
          f"{'weak_shell':>12}")
    for level in range(args.levels):
        nodes = args.base_nodes * 2 ** level
        dt = args.base_dt / 2 ** level
        policy = solver.GridPolicy(nodes, cfg.continuation.grading_exponent)
        grid = policy.build(args.eps, params.R)
        problem = initdata.make_epsilon_problem(params, datum, args.eps,
                                                grid.nodes)
        fld_ie = solver.solve_annulus(
            problem, grid, T, solver.SchemeConfig("implicit_euler", dt=dt)
        )
        fld_cn = solver.solve_annulus(
            problem, grid, T, solver.SchemeConfig("crank_nicolson", dt=dt)
        )
        sandwich = verify.check_sandwich(fld_ie).measured
        disagreement = float(np.max(np.abs(fld_ie.values - fld_cn.values)))
        weak = verify.weak_form_residual(fld_ie, shell)[0] \
            if params.weak_form_ok else float("nan")
        print(f"{nodes:6d} {dt:10.2e} {sandwich:12.3e} {disagreement:12.3e} "
              f"{weak:12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
