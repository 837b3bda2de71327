#!/usr/bin/env python3
"""Slope-singularity and decay diagnostics along the shrinking-annulus
continuation: per inner radius, the log-log slope exponent of |u_r| on
[2 eps, 20 eps], its prefactor against the stationary alpha/3, the
weighted-deficit functional, and the fitted decay rate of sup|u - u*|.

Example:
    python scripts/singularity_study.py
    python scripts/singularity_study.py --preset n3-weak
"""

import argparse
import sys

import numpy as np

from gradsing import solver, verify
from gradsing.config import preset
from gradsing.pipeline import build_model


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--preset", default="n2-standard")
    args = ap.parse_args()

    cfg = preset(args.preset)
    params, datum = build_model(cfg)
    T = cfg.continuation.horizon(params)
    result = solver.continuation(
        params, datum, cfg.continuation.eps_sequence,
        cfg.continuation.grid_policy, T, cfg.scheme)

    print(f"# {cfg.name}: alpha/3 = {params.alpha / 3.0:.6f}, "
          f"mode rate = {params.decay_rate:.4f}")
    print(f"{'eps':>8} {'exponent':>10} {'prefactor':>10} {'r^2':>8} "
          f"{'functional':>11} {'decay_rate':>11}")
    for fld in result.fields:
        try:
            fit = verify.fit_singularity(fld, T)
        except ValueError:
            print(f"{fld.eps:8.4f}  (window under-resolved)")
            continue
        functional = verify.check_shape_functional(fld).measured
        rate = verify.fit_decay(fld).exponent
        print(f"{fld.eps:8.4f} {fit.exponent:10.5f} {fit.prefactor:10.5f} "
              f"{fit.r_squared:8.5f} {functional:11.4e} {rate:11.4f}")
    print("# consecutive compact-window differences:",
          ", ".join(f"{d:.3e}" for d in result.consecutive_diffs))
    abort = result.aborted
    if abort is not None:
        print(f"# solver abort at eps={abort.eps} (step {abort.step_index}, "
              f"t={abort.time}): {abort}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
