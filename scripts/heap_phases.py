#!/usr/bin/env python3
"""Print the tracemalloc heap peak of each phase of one preset's pipeline.

Example:
    python scripts/heap_phases.py n3-weak
    python scripts/heap_phases.py n2-standard

The phases are the continuation (``solver.continuation``), the field
write (``pipeline._write_fields``), each enabled entry of
``verify.CHECKS``, the report and manifest write (``pipeline._persist``)
and, for n2-standard as in the n2-pipeline benchmark workload, the plot
data (``pipeline.emit_plotdata``).  Each is found by wrapping its module
attribute here, so the program runs unchanged; a phase the installed
gradsing lacks is left out.  A phase's peak is the largest heap traced
from the start of the run to its return, read with the peak reset at its
call: the fields it holds live included.  MB = 10^6 bytes.  Outputs go to
a temporary directory.
"""

import argparse
import os
import sys
import tempfile
import tracemalloc

from gradsing import pipeline, solver, verify
from gradsing.config import PRESETS, RunConfig, preset

PLOTDATA = {"n2-standard"}
PHASES = [(solver, "continuation", "continuation"),
          (pipeline, "_write_fields", "field write"),
          (pipeline, "_persist", "report and manifest"),
          (pipeline, "emit_plotdata", "plot data")]


def _phase(peaks: list, label: str, fn):
    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append((label, tracemalloc.get_traced_memory()[1]))
    return traced


def phase_peaks(config: RunConfig, plotdata: bool) -> tuple[list, int]:
    """Run ``config`` (and its plot data) under tracemalloc: the (phase,
    heap peak in bytes) pairs in call order, and the bytes of the solved
    fields' values."""
    peaks, sizes = [], []
    saved = {(mod, name): getattr(mod, name) for mod, name, _ in PHASES
             if hasattr(mod, name)}
    checks = dict(verify.CHECKS)

    def solved(*args, **kwargs):
        cont = saved[solver, "continuation"](*args, **kwargs)
        sizes.extend(f.values.nbytes for f in cont.fields)
        return cont

    try:
        for mod, name, label in PHASES:
            if (mod, name) in saved:
                fn = solved if name == "continuation" else saved[mod, name]
                setattr(mod, name, _phase(peaks, label, fn))
        for name, check in checks.items():
            verify.CHECKS[name] = _phase(peaks, name, check)
        with tempfile.TemporaryDirectory() as root:
            os.environ["GRADSING_OUTPUT_ROOT"] = root
            tracemalloc.start()
            try:
                result = pipeline.run_pipeline(config)
                if plotdata:
                    T = result.horizon
                    pipeline.emit_plotdata(
                        pipeline.resolve_output_dir(config),
                        times=(0.1 * T, 0.4 * T, T), radius_fractions=(0.1, 0.5))
            finally:
                tracemalloc.stop()
    finally:
        for (mod, name), fn in saved.items():
            setattr(mod, name, fn)
        verify.CHECKS.update(checks)
    return peaks, sum(sizes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("preset", choices=sorted(PRESETS))
    args = ap.parse_args(argv)
    peaks, fields = phase_peaks(preset(args.preset), args.preset in PLOTDATA)
    print(f"{args.preset}: fields {fields / 1e6:.2f} MB")
    for label, peak in peaks:
        print(f"  {label:<22} {peak / 1e6:8.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
