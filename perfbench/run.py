#!/usr/bin/env python3
"""gradsing benchmark: time to a verdict, set-up time and memory per workload.

    python3 perfbench/run.py --workload n2-pipeline --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Closed loop: one client, one process, iterations back to back until
--seconds have passed (at least one).  Set-up is timed in fresh processes.
With --trace 1 a second, traced process gives the per-layer metrics, and
the tracing overhead is its run_s minus the untraced run_s.  Thread pools
are pinned to one thread; every output goes to a temporary directory
under .perfbench_work/ in the checkout and is deleted after it is checked;
the spans of a traced run stay there as spans-<workload>.npz.

Prints every metric with its unit, the environment record, and as the last
line one JSON object: correct, attempted, failed, metrics (end-to-end with
--trace 0, per-layer with --trace 1).  Exits 1 without that line when the
checkout holds no gradsing source or a benchmark process fails.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("n2-pipeline", "n3-pipeline", "gates-sweep")
PIPELINES = ("n2-pipeline", "n3-pipeline")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_REPEATS = 8          # fresh processes timed; one more warms the bytecode
DEADLINE_S = 170.0         # whole invocation, per workload
DIFF_RTOL = 1e-6           # continuation diffs against the reference

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "ok_share": "ratio", "checks_decided": "count",
              "outputs_identical": "bool"}
PER_LAYER = {
    "specfn.calls": "count", "specfn.points": "count", "specfn.self_s": "s",
    "specfn.first_zeros_s": "s",
    "analytic.v_mode.calls": "count", "analytic.self_s": "s",
    "analytic.gates_s": "s",
    "initdata.inner_bc.calls": "count", "initdata.inner_bc.s": "s",
    "initdata.cutoff.calls": "count", "initdata.cutoff.self_s": "s",
    "initdata.cutoff.taper_share": "ratio", "initdata.problem_s": "s",
    "initdata.datum_s": "s",
    "solver.solves": "count", "solver.steps": "count",
    "solver.newton_iters": "count", "solver.newton_iters_per_step": "ratio",
    "solver.rhs_evals": "count", "solver.gradient.calls": "count",
    "solver.gradient.self_s": "s", "solver.banded.self_s": "s",
    "solver.solve_s": "s", "solver.self_s": "s",
    "solver.compact_difference_s": "s", "solver.max_grad_ratio": "ratio",
    "verify.checks": "count", "verify.s": "s", "verify.weak_identity_s": "s",
    "pipeline.build_model_s": "s", "pipeline.persist_s": "s",
    "pipeline.persist_bytes": "B", "pipeline.plotdata_s": "s",
    "pipeline.plotdata_bytes_read": "B",
    "trace.spans": "count", "trace.run_s": "s", "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


def child_env(output_root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["GRADSING_OUTPUT_ROOT"] = str(output_root)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def worker(args: list, env: dict, deadline: float) -> str:
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def environment(seed: int, versions: dict) -> dict:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, text=True, capture_output=True,
                             timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    # only the checkout's own repository counts, not one that encloses it
    sha = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else ""
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


def account(result: dict, workload: str, ref: dict) -> dict:
    """Operations, failures and output identity of one worker's iterations."""
    iters = result["iterations"]
    attempted = sum(o["attempted"] for o in iters)
    notes = [f for o in iters for f in o["failures"]]
    digests = [o["digests"] for o in iters]
    if any(d != digests[0] for d in digests):
        notes.append("outputs differ between iterations of one run")
    if workload in PIPELINES:
        identical = digests[0] == ref["digests"]
        ref_diffs = ref["continuation_diffs"]
        for o in iters:
            if len(o["diffs"]) != len(ref_diffs) or any(
                    abs(a - b) > DIFF_RTOL * abs(b)
                    for a, b in zip(o["diffs"], ref_diffs)):
                notes.append(f"continuation diffs {o['diffs']} differ from "
                             f"the reference {ref_diffs}")
    else:
        identical = result["anchor_digest"] == ref["anchor_digest"]
    return {"attempted": attempted,
            "failed": min(attempted, sum(o["failed"] for o in iters)),
            "notes": notes, "identical": identical}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path, deadline: float) -> dict:
    """Run one workload; return its metrics, counts and failure notes."""
    ref = json.loads((BENCH / "reference.json").read_text()).get(workload)
    if ref is None:
        raise BenchError(f"no reference digests for {workload}; "
                         "run perfbench/record_reference.py")
    env = child_env(work / "unused-output-root")
    common = ["--workload", workload, "--seed", str(seed)]

    def setup(repeats: int) -> list:
        return [json.loads(worker(["setup"] + common, env, deadline))
                for _ in range(repeats)]

    def run_worker(traced: bool) -> dict:
        out = work / ("traced" if traced else "untraced")
        out.mkdir()
        worker(["run"] + common + ["--seconds", str(seconds), "--trace",
                                   str(int(traced)), "--out", str(out)],
               env, deadline)
        return json.loads((out / "result.json").read_text())

    # half the set-up samples before the run and half after, so that one
    # slow spell of a shared machine does not hold all of them
    setups = setup(SETUP_REPEATS // 2 + 1)[1:]
    plain = run_worker(False)
    setups += setup(SETUP_REPEATS - len(setups))
    acc = account(plain, workload, ref)
    iters = plain["iterations"]
    res = {
        "versions": setups[0],
        "iterations": len(iters),
        "attempted": acc["attempted"],
        "failed": acc["failed"],
        "notes": acc["notes"],
        "end_to_end": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "run_s": statistics.median(o["run_s"] for o in iters),
            "peak_rss_mb": plain["peak_rss_mb"],
            "ok_share": 1.0 - acc["failed"] / acc["attempted"],
            "checks_decided": statistics.median(o["checks_decided"] for o in iters),
            "outputs_identical": int(acc["identical"]),
        },
    }
    if trace:
        traced = run_worker(True)
        t_acc = account(traced, workload, ref)
        res["attempted"] += t_acc["attempted"]
        res["failed"] += t_acc["failed"]
        res["notes"] += t_acc["notes"]
        if not t_acc["identical"]:
            res["notes"].append("traced run's outputs differ from the reference")
        layers = traced["layers"]
        io = traced["iterations"][0]["io"]
        layers["pipeline.persist_bytes"] = io.get("persist_bytes", 0)
        layers["pipeline.plotdata_bytes_read"] = io.get("plotdata_bytes_read", 0)
        layers["trace.run_s"] = statistics.median(
            o["run_s"] for o in traced["iterations"])
        layers["trace.overhead_s"] = layers["trace.run_s"] - res["end_to_end"]["run_s"]
        res["per_layer"] = layers
        res["spans"] = WORK / f"spans-{workload}.npz"
        shutil.move(work / "traced" / "spans.npz", res["spans"])
    res["correct"] = res["failed"] == 0 and not res["notes"]
    return res


def report(workload: str, seed: int, seconds: float, res: dict) -> None:
    seed_note = "gates-sweep draw" if workload == "gates-sweep" else \
        "ignored: the preset is a fixed input"
    print(f"{workload}: seed {seed} ({seed_note}); closed loop, 1 client, "
          f"1 process, {res['iterations']} iteration(s) in {seconds:g} s")
    e2e = res["end_to_end"]
    for name, unit in END_TO_END.items():
        print(f"  {name:32s} {e2e[name]:<14.6g} {unit}")
    print(f"  {'failed_share':32s} {res['failed'] / res['attempted']:<14.6g} "
          f"ratio ({res['failed']} of {res['attempted']} operations)")
    for name, unit in PER_LAYER.items():
        if name in res.get("per_layer", {}):
            print(f"  {name:32s} {res['per_layer'][name]:<14.6g} {unit}")
    if "spans" in res:
        print(f"  spans written to {res['spans']}")
    print(f"  correct: {str(res['correct']).lower()}")
    for note in res["notes"][:20]:
        print(f"    failure: {note}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind: subprocess.run kills and reaps the worker, and the
    # finally clauses remove the work directories
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gradsing" / "__init__.py").is_file():
        print(f"perfbench: no gradsing source under {ROOT / 'src'}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    WORK.mkdir(exist_ok=True)
    results = {}
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace), work,
                                    time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(name, args.seed, args.seconds, results[name])
    env = environment(args.seed, results[names[0]]["versions"])
    print("env " + json.dumps(env, sort_keys=True))
    kind, units = ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END)
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if args.workload == "all":
        summary["metrics"] = {
            w: {k: {"value": r[kind][k], "unit": u} for k, u in units.items()}
            for w, r in results.items()}
    else:
        summary["metrics"] = {k: {"value": results[args.workload][kind][k],
                                  "unit": u} for k, u in units.items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
