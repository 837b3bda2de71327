"""Run orchestration: model derivation, annulus continuation, property
suite, artifact persistence, and plot-data emission.

Stages run in dependency order: derived constants and closed-form
residual gates first, then initial data, then the shrinking-annulus
solves, then every enabled check against the stored fields.  All
artifacts are deterministic (no timestamps, fixed float formatting), so
re-running an unchanged configuration reproduces identical bytes; the
manifest records the configuration hash and per-file checksums.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import analytic, initdata, solver, specfn, verify
from .analytic import ModelParams
from .config import ConfigError, RunConfig, load_config
from .report import CheckResult, VerificationReport

__all__ = [
    "PipelineResult",
    "build_model",
    "analytic_checks",
    "run_pipeline",
    "emit_plotdata",
    "resolve_output_dir",
]

# CSV format of every artifact: %.17g values, comma-separated, with CRLF
# line ends (the csv module's default dialect).
_FLOAT_FMT = "%.17g"
_DELIMITER = ","
_NEWLINE = "\r\n"
_ROWS_PER_WRITE = 32


@dataclass
class PipelineResult:
    config: RunConfig
    params: ModelParams
    datum: object
    report: VerificationReport
    continuation: solver.ContinuationResult | None = None
    artifacts: dict = dc_field(default_factory=dict)

    @property
    def horizon(self) -> float:
        return self.config.continuation.horizon_efolds / self.params.decay_rate

    @property
    def reference(self) -> solver.SpacetimeField | None:
        """The field at ``continuation.reference_eps``, or None."""
        return self.continuation and verify._find_field(
            self.continuation.fields, self.config.continuation.reference_eps)

    @property
    def exit_code(self) -> int:
        return 0 if self.report.all_passed() else 1


def resolve_output_dir(config: RunConfig) -> Path:
    root = os.environ.get("GRADSING_OUTPUT_ROOT", ".")
    return Path(root) / config.output.directory


@specfn.shared_evaluations()
def build_model(config: RunConfig):
    """Derive admissible parameters and a validated initial datum.

    The mode amplitude is fitted from the datum; a fitted zero (degenerate
    datum) is clamped to 0.05 so that downstream envelopes stay nontrivial.
    A model or datum value outside its domain is a :class:`ConfigError`
    naming its section.  Bessel evaluations are shared within the call.
    """
    try:
        params0 = analytic.make_params(config.model.n, config.model.R)
    except analytic.AdmissibilityError:
        raise
    except ValueError as exc:
        raise ConfigError(f"model.n: {exc}") from None
    try:
        datum = initdata.make_initial_datum(
            params0,
            family=config.initdata.family,
            k=config.initdata.blend_exponent,
            amplitude=config.initdata.deficit_amplitude,
        )
    except initdata.InitialDataError:
        raise
    except ValueError as exc:
        raise ConfigError(f"initdata: {exc}") from None
    C = initdata.choose_amplitude_C(params0, datum)
    return dataclasses.replace(params0, C=C if C != 0.0 else 0.05), datum


@specfn.shared_evaluations()
def analytic_checks(params: ModelParams) -> list[CheckResult]:
    """Closed-form residual gates on the probe lattice; Bessel evaluations
    are shared within the call."""
    r, t = analytic.probe_lattice(params)
    res_s = analytic.residual_stationary(params, r[0])
    scale_s = analytic.stationary_residual_scale(params, r[0])
    worst_s = float(np.max(np.abs(res_s) / scale_s))
    out = [CheckResult(
        name="stationary_residual",
        claim="cube-root profile annihilates the flow, relative to its scale",
        measured=worst_s, tolerance=1e-12, passed=worst_s <= 1e-12,
    )]
    res_l = analytic.residual_linearized(params, r, t)
    v = analytic.v_mode(params, r, t)
    worst_l = float(np.max(np.abs(res_l) / np.maximum(1.0, np.abs(v))))
    defect = float(np.max(analytic.subsolution_defect(params, r, t)))
    out.append(CheckResult(
        name="linearized_residual",
        claim="separated mode solves the linearized flow",
        measured=worst_l, tolerance=1e-8, passed=worst_l <= 1e-8,
    ))
    out.append(CheckResult(
        name="subsolution_sign",
        claim="stationary-minus-mode stays a subsolution on the lattice",
        measured=defect, tolerance=1e-8, passed=defect <= 1e-8,
    ))
    return out


def run_pipeline(config: RunConfig, only: str | None = None) -> PipelineResult:
    """Execute the full pipeline for one configuration and persist the
    fields, report and manifest under the resolved output directory.

    ``only='analytic'`` stops after the closed-form residual gates
    (seconds instead of minutes).
    """
    config.validate()
    params, datum = build_model(config)
    report = VerificationReport()
    enabled = config.verify.checks()

    if "analytic_residuals" in enabled:
        report.checks.extend(analytic_checks(params))
    result = PipelineResult(config=config, params=params, datum=datum,
                            report=report)
    if only == "analytic":
        _persist(result)
        return result

    cont_cfg = config.continuation
    policy = solver.GridPolicy(cont_cfg.num_nodes, cont_cfg.grading_exponent)
    try:
        cont = solver.continuation(
            params, datum, cont_cfg.eps_sequence, policy, result.horizon,
            config.scheme)
    except ValueError as exc:  # a precondition the configuration breaks
        raise ConfigError(f"continuation: {exc}") from None
    result.continuation = cont
    abort = cont.aborted
    if abort is not None:
        report.add(CheckResult(
            name="continuation_complete",
            claim="every configured inner radius solved to the horizon",
            measured=float(len(cont.fields)),
            tolerance=float(len(cont_cfg.eps_sequence)), passed=False,
            extra=verify._abort_extra(abort),
        ))
    if result.reference is not None:  # None: aborted at or before it
        for name, check in verify.CHECKS.items():
            if name in enabled:
                report.checks.extend(check(result))
    _persist(result)
    return result


# -- artifacts ----------------------------------------------------------------

def _write_csv(path: Path, header, columns) -> None:
    """Equal-length columns as rows of values under one header line."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt=_FLOAT_FMT,
                   delimiter=_DELIMITER, newline=_NEWLINE,
                   header=_DELIMITER.join(header), comments="")


def _write_field_csv(path: Path, fld: solver.SpacetimeField, save_every: int):
    """Every save_every-th stored time: one (t, r, u, u_r) row per node.

    The bytes are those of ``_write_csv`` on the four columns, but each
    stored time and each node is formatted once, not once per row: only
    u and u_r are formatted per cell.  Each write is at most
    ``_ROWS_PER_WRITE`` rows; strings of a whole stored time (35 kB on
    400 nodes) fragment the heap, and peak RSS then grows over repeated
    runs in one process.
    """
    rows = slice(0, None, max(1, save_every))
    cells = _DELIMITER + _FLOAT_FMT + _DELIMITER + _FLOAT_FMT + _NEWLINE
    # row j after its leading t: ",r_j,%.17g,%.17g\r\n", in groups of nodes
    tails = [_DELIMITER + _FLOAT_FMT % r + cells for r in fld.grid.nodes.tolist()]
    n = _ROWS_PER_WRITE
    groups = [(2 * i, 2 * i + 2 * n, tails[i:i + n]) for i in range(0, len(tails), n)]
    with open(path, "w", newline="") as fh:
        fh.write(_DELIMITER.join(("t", "r", "u", "u_r")) + _NEWLINE)
        for t, u, ur in zip(fld.times[rows].tolist(), fld.values[rows],
                            fld.gradient_matrix()[rows]):
            head = _FLOAT_FMT % t
            values = np.column_stack((u, ur)).ravel().tolist()
            for start, stop, group in groups:
                fh.write((head + head.join(group)) % tuple(values[start:stop]))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _remove_stale_fields(out_dir: Path, keep) -> None:
    """Delete the field files that the directory's previous manifest lists
    and that are not in ``keep``; files no manifest lists stay."""
    try:
        listed = json.loads((out_dir / "manifest.json").read_text())["artifacts"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    for path in out_dir.glob("field_*.csv"):
        if path.name in listed and path.name not in keep:
            path.unlink()


def _persist(result: PipelineResult) -> None:
    out_dir = resolve_output_dir(result.config)
    out_dir.mkdir(parents=True, exist_ok=True)
    cont = result.continuation
    written = {}
    if cont is not None:  # None: stopped after the analytic gates
        written = {f"field_eps{fld.eps:.6g}.csv": fld for fld in cont.fields}
        if cont.limit is not None:  # None: no radius solved
            written["field_limit.csv"] = cont.limit
    _remove_stale_fields(out_dir, written)
    artifacts = {}
    for name, fld in written.items():
        _write_field_csv(out_dir / name, fld, result.config.output.save_every)
        artifacts[name] = _sha256(out_dir / name)
    result.report.write_csv(out_dir / "report.csv")
    artifacts["report.csv"] = _sha256(out_dir / "report.csv")
    p = result.params
    manifest = {
        "name": result.config.name,
        "config_sha256": result.config.content_hash(),
        "config": result.config.canonical_text(),
        "params": {
            "n": p.n, "R": p.R, "lambda": p.lam, "C": p.C,
            "alpha": p.alpha, "nu": p.nu, "x0": p.x0, "x1": p.x1,
            "decay_rate": p.decay_rate,
        },
        "continuation_diffs": list(cont.consecutive_diffs) if cont else [],
        "artifacts": artifacts,
        "all_checks_passed": result.report.all_passed(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts["manifest.json"] = str(out_dir / "manifest.json")
    result.artifacts = {k: str(out_dir / k) for k in artifacts}


# -- plot data ----------------------------------------------------------------

def _read_field_csv(path: Path):
    t, r, u, ur = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    times, radii = np.unique(t), np.unique(r)
    shape = (times.size, radii.size)
    return times, radii, u.reshape(shape), ur.reshape(shape)


def _read_manifest(run_dir: Path) -> tuple[ModelParams, float]:
    """The model parameters of a finished run and the horizon it ran to."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    meta = manifest["params"]
    params = ModelParams(
        n=int(meta["n"]), R=meta["R"], lam=meta["lambda"], C=meta["C"],
        alpha=meta["alpha"], nu=meta["nu"], x0=meta["x0"], x1=meta["x1"],
    )
    efolds = load_config(manifest["config"]).continuation.horizon_efolds
    return params, efolds / params.decay_rate


def emit_plotdata(run_dir, times=(), radius_fractions=(0.1,),
                  source: str = "field_limit.csv") -> list[str]:
    """Columnar text for external plotting, from persisted field files.

    Writes one profile file per requested time (columns r, u, u_r, and the
    stationary and subsolution overlays) and one time-series file per
    requested radius fraction (columns t, u, difference to the stationary
    profile, and the decaying mode envelope).  An empty time selection
    produces just the header.  A radius fraction outside [0, 1] or a time
    outside [0, T], T the horizon of the run, is a ValueError raised before
    any file is written.
    """
    run_dir = Path(run_dir)
    src = run_dir / source
    if not src.exists():
        raise FileNotFoundError(f"field file missing: {src}")
    params, horizon = _read_manifest(run_dir)
    if not all(0.0 <= f <= 1.0 for f in radius_fractions):  # NaN fails too
        raise ValueError(f"radius fractions must lie in [0, 1]: {list(radius_fractions)}")
    if not all(0.0 <= t <= horizon for t in times):
        raise ValueError(f"times must lie in [0, {horizon:.17g}]: {list(times)}")
    stored_t, radii, u, ur = _read_field_csv(src)
    written = []

    pos = radii > 0
    us = np.zeros_like(radii)
    us[pos] = analytic.u_star(params, radii[pos])
    for i, t_req in enumerate(times or (None,)):
        columns = [()] * 5  # no time requested: header only
        if t_req is not None:
            k = int(np.argmin(np.abs(stored_t - t_req)))
            v = np.zeros_like(radii)
            v[pos] = analytic.v_mode(params, radii[pos], stored_t[k])
            columns = (radii, u[k], ur[k], us, us - v)
        path = run_dir / f"profile_{i}.csv"
        _write_csv(path, ("r", "u", "u_r", "u_star", "u_star_minus_v"), columns)
        written.append(str(path))

    sup_v0 = float(np.max(analytic.v_mode(params, radii[pos], 0.0)))
    for frac in radius_fractions:
        r_req = frac * params.R
        j = int(np.argmin(np.abs(radii - r_req)))
        path = run_dir / f"series_r{frac:g}.csv"
        env = np.exp(-params.decay_rate * stored_t) * sup_v0
        _write_csv(path, ("t", "u", "u_minus_u_star", "mode_envelope"),
                   (stored_t, u[:, j], u[:, j] - us[j], env))
        written.append(str(path))
    return written
