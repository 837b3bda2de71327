#!/usr/bin/env python3
"""Record the reference digests behind the outputs_identical metric.

    python3 perfbench/record_reference.py

Runs each pipeline workload twice, in two fresh processes with fresh
output roots, and the gates-sweep reference draw (seed 0) twice.  The
digests (SHA-256 of every field CSV and of the manifest's
continuation_diffs; of the sweep's parameters, gates and annulus data) are
written to perfbench/reference.json only when both runs agree.  report.csv
is deliberately not digested, so verdict rows may change without touching
the reference.  Re-record only with a change that alters results on
purpose, and say why.
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import BENCH, PIPELINES, WORK, WORKLOADS, BenchError, child_env, worker

DEADLINE_S = 600.0


def record_once(workload: str, work: Path) -> dict:
    out = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    worker(["run", "--workload", workload, "--seed", "0", "--seconds", "0",
            "--out", str(out)], child_env(out), time.monotonic() + DEADLINE_S)
    result = json.loads((out / "result.json").read_text())
    first = result["iterations"][0]
    if first["failed"]:
        raise BenchError(f"{workload} failed: {first['failures']}")
    if workload in PIPELINES:
        return {"digests": first["digests"],
                "continuation_diffs": first["diffs"]}
    return {"anchor_digest": result["anchor_digest"]}


def main() -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
    reference = {}
    try:
        for workload in WORKLOADS:
            a, b = record_once(workload, work), record_once(workload, work)
            if a != b:
                print(f"{workload}: two runs disagree, nothing stored\n{a}\n{b}",
                      file=sys.stderr)
                return 1
            reference[workload] = a
            print(f"{workload}: two runs agree")
    except BenchError as exc:
        print(f"record_reference: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
