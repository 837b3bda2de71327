#!/usr/bin/env python3
"""Run a built-in preset end to end and emit plot-ready columns.

Example:
    python scripts/run_preset.py n2-standard --output runs/n2
    python scripts/run_preset.py n3-weak
"""

import argparse
import dataclasses
import sys

from gradsing import pipeline
from gradsing.config import PRESETS, preset


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("preset", choices=sorted(PRESETS))
    ap.add_argument("--output", default=None)
    ap.add_argument("--plot-times", type=float, nargs="*", default=None,
                    help="times for profile files (default: 3 spread over the run)")
    args = ap.parse_args()

    cfg = preset(args.preset)
    if args.output:
        cfg = dataclasses.replace(
            cfg, output=dataclasses.replace(cfg.output, directory=args.output)
        )
    result = pipeline.run_pipeline(cfg)
    print(result.report.summary())

    T = result.horizon
    times = args.plot_times if args.plot_times is not None else \
        [0.1 * T, 0.4 * T, T]
    run_dir = pipeline.resolve_output_dir(cfg)
    for path in pipeline.emit_plotdata(run_dir, times=tuple(times),
                                       radius_fractions=(0.1, 0.5)):
        print("wrote", path)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
