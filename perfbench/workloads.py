"""The benchmark's workloads: what each one calls, counts and checks.

* ``n2-pipeline``: ``run_pipeline(preset("n2-standard"))`` and
  ``emit_plotdata`` on the finished run, as scripts/run_preset.py does.
  Six annulus solves; mechanism workload for the solver, the inner
  boundary and cutoff, and persistence (writes and one read back).
* ``n3-pipeline``: ``run_pipeline(preset("n3-weak"))``.  Five solves; the
  only workload that runs the weak-form and inner-mass checks.
* ``gates-sweep``: a seeded draw of one radius and datum amplitude for
  each n = 2..6; per draw ``build_model``, ``analytic_checks`` and
  ``make_epsilon_problem`` for four inner radii on the 400-node graded
  grid.  No time stepping: the bypass workload for solver, cutoff and
  persistence changes, and vectorised (many points per call) Bessel work.

The presets are fixed inputs and ignore the seed; the seed drives only
the gates-sweep draw.  An operation is a solve, a check, a plot-data
emission or a sweep step; it fails on a FAIL verdict, an exception, a
solver abort (including a continuation that stops short of its inner
radii while the program still exits 0) or a BesselAccuracyWarning.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import warnings
from pathlib import Path

import numpy as np

from gradsing import initdata, pipeline, solver
from gradsing.config import InitdataConfig, ModelConfig, RunConfig, preset
from gradsing.specfn import BesselAccuracyWarning

PRESET_OF = {"n2-pipeline": "n2-standard", "n3-pipeline": "n3-weak"}
SWEEP_DIMENSIONS = (2, 3, 4, 5, 6)
SWEEP_EPS = (0.04, 0.02, 0.01, 0.005)
GATES = 3  # closed-form checks per model: stationary, linearized, subsolution
# Radii and amplitudes for which every datum, gate and annulus problem is
# admissible (larger radii with large amplitudes break the datum's slope
# envelope for n >= 4, which would be a failing input, not a slow one).
SWEEP_R_MIN, SWEEP_R_MAX_N2, SWEEP_R_MAX = 0.3, 0.6, 1.2
SWEEP_AMPLITUDE = (0.05, 0.3)
ANCHOR_SEED = 0


def load(workload: str, seed: int):
    """The workload's inputs: a preset, or the seeded list of sweep configs."""
    if workload in PRESET_OF:
        return preset(PRESET_OF[workload])
    if workload == "gates-sweep":
        return sweep_configs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def sweep_configs(seed: int) -> list[RunConfig]:
    """One configuration per dimension.  A pass over five takes about a
    second, so a run's median is taken over many passes and resists the
    seconds-long slow spells of a shared machine."""
    rng = np.random.default_rng(seed)
    configs = []
    for n in SWEEP_DIMENSIONS:
        r_max = SWEEP_R_MAX_N2 if n == 2 else SWEEP_R_MAX
        R = float(rng.uniform(SWEEP_R_MIN, r_max))
        amplitude = float(rng.uniform(*SWEEP_AMPLITUDE))
        configs.append(RunConfig(
            name=f"sweep-n{n}", model=ModelConfig(n=n, R=R),
            initdata=InitdataConfig("mode_deficit", amplitude, 2.0),
        ))
    return configs


class Outcome:
    """One iteration of a workload: its wall time and what it produced."""

    def __init__(self):
        self.run_s = 0.0
        self.exit_code = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks_decided = 0
        self.digests: dict[str, str] = {}
        self.diffs: list[float] = []
        self.io: dict[str, float] = {}

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(what)

    def as_dict(self) -> dict:
        return dict(vars(self))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _count_warnings(caught, out: Outcome) -> None:
    for w in caught:
        if issubclass(w.category, BesselAccuracyWarning):
            out.fail(f"BesselAccuracyWarning: {w.message}")


def run_pipeline_once(config: RunConfig, output_root: Path,
                      plotdata: bool) -> Outcome:
    """Time one pipeline run (and plot data), then account for it."""
    out = Outcome()
    os.environ["GRADSING_OUTPUT_ROOT"] = str(output_root)
    result = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            result = pipeline.run_pipeline(config)
            if plotdata:
                run_dir = pipeline.resolve_output_dir(config)
                T = config.continuation.horizon_efolds / result.params.decay_rate
                pipeline.emit_plotdata(run_dir, times=(0.1 * T, 0.4 * T, T),
                                       radius_fractions=(0.1, 0.5))
        except Exception as exc:  # the program's failure is a measured outcome
            error = exc
        out.run_s = time.perf_counter() - t0
    _count_warnings(caught, out)
    if result is None:
        out.attempted += 1
        out.fail(f"run_pipeline raised {type(error).__name__}: {error}")
        return out

    out.exit_code = result.exit_code
    cont = result.continuation
    eps_sequence = config.continuation.eps_sequence
    out.attempted += len(eps_sequence)
    missing = len(eps_sequence) - len(cont.fields)
    if cont.aborted is not None or missing:
        out.fail(f"continuation: {missing} of {len(eps_sequence)} inner radii "
                 f"missing, aborted={cont.aborted!s}", count=max(missing, 1))
    enabled = config.verify.checks()
    out.attempted += ("cutoff_inactive" in enabled) + ("uniqueness" in enabled)
    for c in result.report.checks:
        out.attempted += 1
        if c.status in ("ok", "exact"):
            out.checks_decided += 1
            if not c.passed:
                out.fail(f"check {c.name} FAIL measured={c.measured!r}")
    if error is not None:  # emit_plotdata raised after a finished run
        out.attempted += 1
        out.fail(f"emit_plotdata raised {type(error).__name__}: {error}")
    elif plotdata:
        out.attempted += 1

    run_dir = pipeline.resolve_output_dir(config)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    out.diffs = manifest["continuation_diffs"]
    out.digests["continuation_diffs"] = hashlib.sha256(
        json.dumps(out.diffs).encode()).hexdigest()
    for path in sorted(run_dir.glob("field_*.csv")):
        out.digests[path.name] = _sha256(path)
    out.io["persist_bytes"] = sum(
        Path(p).stat().st_size for p in result.artifacts.values())
    if plotdata:
        out.io["plotdata_bytes_read"] = (run_dir / "field_limit.csv").stat().st_size
    return out


def _sweep_digest(h, params, checks, problems) -> None:
    h.update(repr((params.n, params.R, params.lam, params.C, params.alpha,
                   params.nu, params.x0, params.x1)).encode())
    for c in checks:
        h.update(repr((c.name, c.measured, c.passed, c.status)).encode())
    for p in problems:
        h.update(repr((p.epsilon, p.c_star_eps, p.cutoff.support_radius)).encode())
        h.update(p.u0eps.values.tobytes())
        h.update(p.u0eps.derivative.tobytes())


def run_sweep_once(configs: list[RunConfig]) -> Outcome:
    """Time one pass over the sweep configurations, then account for it.

    Per configuration: one model build, its three closed-form gates and one
    annulus problem per inner radius.
    """
    out = Outcome()
    built = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        for cfg in configs:
            try:
                params, datum = pipeline.build_model(cfg)
                checks = pipeline.analytic_checks(params)
            except Exception as exc:
                built.append((cfg, exc, None, []))
                continue
            policy = solver.GridPolicy(cfg.continuation.num_nodes,
                                       cfg.continuation.grading_exponent)
            problems = []
            for eps in SWEEP_EPS:
                grid = policy.build(eps, params.R)
                try:
                    problems.append(initdata.make_epsilon_problem(
                        params, datum, eps, grid.nodes))
                except Exception as exc:
                    problems.append(exc)
            built.append((cfg, params, checks, problems))
        out.run_s = time.perf_counter() - t0
    _count_warnings(caught, out)

    h = hashlib.sha256()
    for cfg, params, checks, problems in built:
        out.attempted += 1 + GATES + len(SWEEP_EPS)
        if isinstance(params, Exception):
            out.fail(f"{cfg.name} R={cfg.model.R!r}: {type(params).__name__}: "
                     f"{params}", count=1 + GATES + len(SWEEP_EPS))
            continue
        for c in checks:
            if c.status in ("ok", "exact"):
                out.checks_decided += 1
                if not c.passed:
                    out.fail(f"{cfg.name} R={cfg.model.R!r}: gate {c.name} FAIL")
        solved = []
        for p in problems:
            if isinstance(p, Exception):
                out.fail(f"{cfg.name} R={cfg.model.R!r}: {type(p).__name__}: {p}")
                continue
            solved.append(p)
            # independent re-check, without calling the (possibly traced)
            # program: the ceiling exceeds the stationary slope at eps
            if not p.c_star_eps > params.alpha / 3.0 * p.epsilon ** (-2.0 / 3.0):
                out.fail(f"{cfg.name}: ceiling below the stationary slope")
        _sweep_digest(h, params, checks, solved)
    out.digests["sweep"] = h.hexdigest()
    return out


def run_once(workload: str, inputs, output_root: Path) -> Outcome:
    if workload == "gates-sweep":
        return run_sweep_once(inputs)
    try:
        return run_pipeline_once(inputs, output_root,
                                 plotdata=workload == "n2-pipeline")
    finally:
        shutil.rmtree(output_root, ignore_errors=True)
