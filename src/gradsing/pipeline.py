"""Run orchestration: model derivation, annulus continuation, property
suite, artifact persistence, and plot-data emission.

Stages run in dependency order: derived constants and closed-form
residual gates first, then initial data, then the shrinking-annulus
solves, each radius's field file and the checks whose radii are solved,
streamed radius by radius, then the limit file and the checks that wait
for the end, and last the report and the manifest.  A field is held
whole only while a pending check or the next consecutive difference
reads it, and then keeps only its written rows; after a run only the
finest field is whole.  All artifacts are deterministic (no timestamps,
fixed float formatting), so re-running an unchanged configuration
reproduces identical bytes; the manifest records the configuration hash
and per-file checksums.
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
from .report import CheckResult, VerificationReport, within

__all__ = [
    "PipelineResult",
    "build_model",
    "analytic_checks",
    "run_pipeline",
    "write_field",
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
    report: VerificationReport
    continuation: solver.ContinuationResult | None = None
    artifacts: dict = dc_field(default_factory=dict)

    @property
    def horizon(self) -> float:
        return self.config.continuation.horizon(self.params)

    @property
    def reference(self) -> solver.SpacetimeField | None:
        """The field at ``continuation.reference_eps``, or None; after a
        run it holds only its written rows unless it is the finest."""
        return self.continuation and self.continuation.field_at(
            self.config.continuation.reference_eps)

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
    res_l = analytic.residual_linearized(params, r, t)
    v = analytic.v_mode(params, r, t)
    worst_l = float(np.max(np.abs(res_l) / np.maximum(1.0, np.abs(v))))
    defect = float(np.max(analytic.subsolution_defect(params, r, t)))
    return [
        within("stationary_residual",
               "cube-root profile annihilates the flow, relative to its scale",
               worst_s, 1e-12),
        within("linearized_residual", "separated mode solves the linearized flow",
               worst_l, 1e-8),
        within("subsolution_sign",
               "stationary-minus-mode stays a subsolution on the lattice",
               defect, 1e-8),
    ]


def run_pipeline(config: RunConfig, only: str | None = None) -> PipelineResult:
    """Execute the full pipeline for one configuration and persist the
    fields, report and manifest under the resolved output directory.

    The checks run as the continuation goes.  After each solved radius the
    field file is written, and each enabled :data:`verify.CHECKS` entry
    whose radii are all solved runs, once the reference radius is solved.
    After the last radius, or after an abort, ``field_limit.csv`` is
    written and the remaining entries run (none when the reference radius
    was not solved); the report takes their rows in table order, and the
    report and manifest are written last.  A field is held whole only
    while a pending entry or the next consecutive difference reads it,
    then, in ``continuation.fields``, only the rows its file holds:
    ``times`` and ``values`` of every ``output.save_every``-th stored
    time.  After a run only the finest field is whole.

    ``only='analytic'`` stops after the closed-form residual gates
    (seconds instead of minutes).
    """
    params, datum = build_model(config)
    report = VerificationReport()
    enabled = config.verify.checks()

    if "analytic_residuals" in enabled:
        report.checks.extend(analytic_checks(params))
    result = PipelineResult(config=config, params=params, report=report)
    out_dir = resolve_output_dir(config)
    if only == "analytic":
        _remove_previous_run(out_dir)
        _persist(result, {})
        return result

    pending = {name: entry for name, entry in verify.CHECKS.items()
               if name in enabled}
    rows, checksums, whole = {}, {}, set()
    for cont in _continuation(result, datum):
        if result.continuation is None:  # first yield; each is the same object
            _remove_previous_run(out_dir)
            result.continuation = cont
        if cont.aborted is not None:
            break
        path = write_field(out_dir, cont.finest, config.output.save_every)
        checksums[path.name] = _sha256(path)
        whole.add(cont.finest.eps)
        _cut(result, pending, whole)
        if result.reference is not None:  # None: not solved yet
            _judge(result, pending, rows, {fld.eps for fld in cont.fields})
            _cut(result, pending, whole)

    cont = result.continuation
    if cont.fields:  # the limit estimate builds the written rows only
        path = write_field(out_dir, solver.limit_estimate(cont.finest),
                           config.output.save_every)
        checksums[path.name] = _sha256(path)
    if cont.aborted is not None:
        report.add(CheckResult(
            name="continuation_complete",
            claim="every configured inner radius solved to the horizon",
            measured=float(len(cont.fields)),
            tolerance=float(len(config.continuation.eps_sequence)),
            passed=False,
            extra=cont.aborted.extra,
        ))
    if result.reference is not None:  # None: aborted at or before it
        _judge(result, pending, rows, None)
        _cut(result, pending, whole)
        report.checks.extend(row for name in verify.CHECKS
                             for row in rows.get(name, ()))
    _persist(result, checksums)
    return result


def _continuation(result: PipelineResult, datum):
    """``solver.continuation`` of the run, each radius as it is yielded; a
    ``ValueError`` the solver raises is a :class:`ConfigError`."""
    cfg = result.config
    try:
        yield from solver.continuation(
            result.params, datum, cfg.continuation.eps_sequence,
            cfg.continuation.grid_policy, result.horizon, cfg.scheme)
    except ValueError as exc:  # a precondition the configuration breaks
        raise ConfigError(f"continuation: {exc}") from None


def _judge(result: PipelineResult, pending: dict, rows: dict,
           solved: set | None) -> None:
    """Run each pending entry whose radii are all in ``solved``, or every
    pending entry when ``solved`` is None, and move its rows from
    ``pending`` to ``rows``."""
    cont_cfg = result.config.continuation
    for name, (reads, check) in list(pending.items()):
        if solved is None or reads and solved.issuperset(reads(cont_cfg)):
            rows[name] = check(result)
            del pending[name]


def _cut(result: PipelineResult, pending: dict, whole: set) -> None:
    """Cut each field of ``whole`` that is not the finest and that no
    pending entry reads to the rows of its file."""
    cont, cfg = result.continuation, result.config
    keep = {cont.finest.eps}.union(*(reads(cfg.continuation)
                                     for reads, _ in pending.values() if reads))
    rows = slice(0, None, cfg.output.save_every)
    for i, fld in enumerate(cont.fields):
        if fld.eps in whole - keep:
            cont.fields[i] = dataclasses.replace(
                fld, times=fld.times[rows].copy(), values=fld.values[rows].copy())
            whole.remove(fld.eps)


# -- artifacts ----------------------------------------------------------------

def _write_csv(path: Path, header, columns) -> None:
    """Equal-length columns as rows of values under one header line."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt=_FLOAT_FMT,
                   delimiter=_DELIMITER, newline=_NEWLINE,
                   header=_DELIMITER.join(header), comments="")


def write_field(out_dir: Path, fld: solver.SpacetimeField, save_every: int) -> Path:
    """Every save_every-th stored time, one (t, r, u, u_r) row per node, to
    ``out_dir``/``field_eps<eps>.csv``, or ``field_limit.csv`` from r = 0.

    The bytes are those of ``_write_csv`` on the four columns, but each
    stored time and each node is formatted once, not once per row: only
    u and u_r are formatted per cell, and the rows of u (a limit estimate
    builds them here) and of u_r are formed for the written times only,
    ``solver.ROW_BLOCK`` of them at a time.  Each write is at most
    ``_ROWS_PER_WRITE`` rows; strings of a whole stored time (35 kB on
    400 nodes) fragment the heap, and peak RSS then grows over repeated
    runs in one process.
    """
    cells = _DELIMITER + _FLOAT_FMT + _DELIMITER + _FLOAT_FMT + _NEWLINE
    # row j after its leading t: ",r_j,%.17g,%.17g\r\n", in groups of nodes
    tails = [_DELIMITER + _FLOAT_FMT % r + cells for r in fld.grid.nodes.tolist()]
    n = _ROWS_PER_WRITE
    groups = [(2 * i, 2 * i + 2 * n, tails[i:i + n]) for i in range(0, len(tails), n)]
    block = solver.ROW_BLOCK * save_every
    path = out_dir / ("field_limit.csv" if fld.grid.nodes[0] == 0.0
                      else f"field_eps{fld.eps:.6g}.csv")
    with open(path, "w", newline="") as fh:
        fh.write(_DELIMITER.join(("t", "r", "u", "u_r")) + _NEWLINE)
        for k in range(0, len(fld.times), block):
            rows = slice(k, k + block, save_every)
            u_rows = fld.values[rows]
            for t, u, ur in zip(fld.times[rows].tolist(), u_rows,
                                fld.grid.gradient(u_rows)):
                head = _FLOAT_FMT % t
                values = np.column_stack((u, ur)).ravel().tolist()
                for start, stop, group in groups:
                    fh.write((head + head.join(group)) % tuple(values[start:stop]))
    return path


def _sha256(path: Path) -> str:
    """Hex digest of a file, read 64 kB at a time into one reused buffer."""
    h = hashlib.sha256()
    buf = memoryview(bytearray(1 << 16))
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            h.update(buf[:size])
    return h.hexdigest()


def _remove_previous_run(out_dir: Path) -> None:
    """Create ``out_dir`` and delete the manifest, the report and the field
    files the manifest lists of the run that wrote it before; files no
    manifest lists stay.  A run that stops before its own manifest then
    leaves no manifest that describes other field files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        listed = json.loads((out_dir / "manifest.json").read_text())["artifacts"]
    except (OSError, ValueError, KeyError, TypeError):
        listed = ()
    for path in out_dir.glob("field_*.csv"):
        if path.name in listed:
            path.unlink()
    for name in ("manifest.json", "report.csv", "report.json"):
        (out_dir / name).unlink(missing_ok=True)


def _persist(result: PipelineResult, checksums: dict) -> None:
    """Write the report and the manifest, which lists ``checksums`` of the
    field files with those of the report files."""
    out_dir = resolve_output_dir(result.config)
    cont = result.continuation
    artifacts = dict(checksums)
    result.report.write_csv(out_dir / "report.csv")
    result.report.write_json(out_dir / "report.json")
    for name in ("report.csv", "report.json"):
        artifacts[name] = _sha256(out_dir / name)
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
    result.artifacts = {k: str(out_dir / k) for k in [*artifacts, "manifest.json"]}


# -- plot data ----------------------------------------------------------------

def _read_field_csv(path: Path):
    t, r, u, ur = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    times, radii = np.unique(t), np.unique(r)
    shape = (times.size, radii.size)
    return times, radii, u.reshape(shape), ur.reshape(shape)


def _read_manifest(run_dir: Path) -> tuple[ModelParams, float]:
    """The model of a finished run, built from its configuration and the
    fitted C of the manifest's ``params`` block (the rest of that block is
    a record), and the horizon it ran to."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    config = load_config(manifest["config"])
    params = ModelParams(config.model.n, config.model.R, manifest["params"]["C"])
    return params, config.continuation.horizon(params)


def emit_plotdata(run_dir, times, radius_fractions,
                  source: str = "field_limit.csv") -> list[str]:
    """Columnar text for external plotting, from the field file ``source``.

    Writes one profile file per time in ``times`` (columns r, u, u_r, and
    the stationary and subsolution overlays) and one time-series file per
    fraction of R in ``radius_fractions`` (columns t, u, difference to the
    stationary profile, and the decaying mode envelope).  No time gives a
    profile of just the header.  A fraction outside [0, 1] or a time
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

    pos = radii > 0  # u*(0) is -0.0, which would print as -0
    us = np.zeros_like(radii)
    us[pos] = analytic.u_star(params, radii[pos])
    for i, t_req in enumerate(times or (None,)):
        columns = [()] * 5  # no time requested: header only
        if t_req is not None:
            k = int(np.argmin(np.abs(stored_t - t_req)))
            v = analytic.v_mode(params, radii, stored_t[k])
            columns = (radii, u[k], ur[k], us, us - v)
        path = run_dir / f"profile_{i}.csv"
        _write_csv(path, ("r", "u", "u_r", "u_star", "u_star_minus_v"), columns)
        written.append(str(path))

    sup_v0 = float(np.max(analytic.v_mode(params, radii, 0.0)))
    for frac in radius_fractions:
        r_req = frac * params.R
        j = int(np.argmin(np.abs(radii - r_req)))
        path = run_dir / f"series_r{frac:g}.csv"
        env = np.exp(-params.decay_rate * stored_t) * sup_v0
        _write_csv(path, ("t", "u", "u_minus_u_star", "mode_envelope"),
                   (stored_t, u[:, j], u[:, j] - us[j], env))
        written.append(str(path))
    return written
