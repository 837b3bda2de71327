"""One benchmark process: times set-up, or runs one workload in a closed loop.

Started by run.py (and record_reference.py) with thread pools pinned to 1
and the checkout's src/ on PYTHONPATH.

    worker.py setup --workload W --seed N
        prints {"setup_s": ..., "numpy": ..., "scipy": ...}: the time to
        import gradsing and load the workload's configuration in this fresh
        process, and the library versions it loaded.
    worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR
        runs iterations back to back until S seconds have passed (at least
        one), each with a fresh GRADSING_OUTPUT_ROOT under DIR, and writes
        DIR/result.json (and DIR/spans.npz when traced).
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads  # imports gradsing
    import gradsing

    if Path(gradsing.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"gradsing imported from {gradsing.__file__}, not {SRC}")
    return workloads


def setup(args) -> None:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workloads.load(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s,
                      "numpy": sys.modules["numpy"].__version__,
                      "scipy": sys.modules["scipy"].__version__}))


def run(args) -> None:
    workloads = _import_workloads()
    out_dir = Path(args.out)
    inputs = workloads.load(args.workload, args.seed)
    anchor = None
    if args.workload == "gates-sweep":
        # reference-seed pass before timing: outputs_identical, and warm-up
        anchor = workloads.run_sweep_once(workloads.load(
            args.workload, workloads.ANCHOR_SEED)).digests["sweep"]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    outcomes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None:
            tracer.run_id = len(outcomes)
        outcomes.append(workloads.run_once(
            args.workload, inputs, out_dir / f"output{len(outcomes)}"))
        if time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.uninstall()
    result = {
        "iterations": [o.as_dict() for o in outcomes],
        "anchor_digest": anchor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.write(out_dir / "spans.npz")
        result["layers"] = tracer.layer_metrics(len(outcomes))
    (out_dir / "result.json").write_text(json.dumps(result))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    (setup if args.mode == "setup" else run)(args)


if __name__ == "__main__":
    main()
