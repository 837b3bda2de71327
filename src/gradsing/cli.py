"""Command-line entry points.

Subcommands mirror the pipeline stages:

  specfn probe        print J_nu, J_nu' and the defining-equation residual
  analytic check      residual report for the closed-form objects
  initdata validate   per-condition report for the configured datum
  solve               single annulus run at one inner radius
  run                 pipeline plus every enabled check (nonzero exit on
                      fail), with --only to stop early
  report              emit plot-ready columnar text from a finished run

Configuration comes from --preset or --config; flags mirror config keys.
The environment variable GRADSING_OUTPUT_ROOT prefixes all output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import analytic, initdata, pipeline, solver, specfn
from .config import ConfigError, PRESETS, load_config, preset

_CONFIG_ERROR_EXIT = 2


def _add_config_source(p: argparse.ArgumentParser):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="built-in configuration")
    source.add_argument("--config", help="path to an INI run configuration")
    p.add_argument("--output", help="override the output directory")


def _load(args) -> "RunConfig":
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = preset(args.preset)
    else:
        raise ConfigError("one of --preset or --config is required")
    if args.output:
        cfg = dataclasses.replace(
            cfg, output=dataclasses.replace(cfg.output, directory=args.output)
        )
    return cfg


def _cmd_specfn_probe(args) -> int:
    try:
        order = specfn.BesselOrder(args.nu)
        for x in args.x:
            j = specfn.bessel_j(order, x)
            jp, residual = float("nan"), 0.0
            if x > 0:
                jp = specfn.bessel_j_prime(order, x)
                jpp = specfn.bessel_j_second(order, x)
                residual = x * x * jpp + x * jp + (x * x - args.nu ** 2) * j
            print(f"{args.nu:.12g},{x:.12g},{j:.12e},{jp:.12e},{residual:.3e}")
    except ValueError as exc:  # an order or argument outside the domain
        raise ConfigError(f"specfn probe: {exc}") from None
    return 0


def _cmd_analytic_check(args) -> int:
    try:
        params = analytic.make_params(args.n, args.R, args.C)
        r, t = analytic.probe_lattice(params, radii=args.radii)
    except analytic.AdmissibilityError:
        raise
    except ValueError as exc:  # a dimension, amplitude or count out of domain
        raise ConfigError(f"analytic check: {exc}") from None
    res = analytic.residual_linearized(params, r, t) if params.C > 0 else \
        analytic.residual_stationary(params, r)
    r, t, res = np.broadcast_arrays(r, t, res)  # one row per (r, t) pair
    print("r,t,residual")
    for (ri, ti, vi) in zip(r.ravel(), t.ravel(), res.ravel()):
        print(f"{ri:.9g},{ti:.9g},{vi:.6e}")
    worst = float(np.max(np.abs(res)))
    print(f"# max |residual| = {worst:.6e}", file=sys.stderr)
    return 0


def _cmd_initdata_validate(args) -> int:
    cfg = _load(args)
    params, datum = pipeline.build_model(cfg)
    report = initdata.validate_initial_datum(params, datum)
    print(report.summary())
    return 0 if report.all_passed() else 1


def _cmd_solve(args) -> int:
    cfg = _load(args)
    params, datum = pipeline.build_model(cfg)
    cont = cfg.continuation
    eps = args.eps if args.eps is not None else cont.reference_eps
    try:
        grid = cont.grid_policy.build(eps, params.R)
        problem = initdata.make_epsilon_problem(params, datum, eps, grid.nodes)
        fld = solver.solve_annulus(problem, grid, cont.horizon(params), cfg.scheme)
    except ValueError as exc:  # a precondition the configuration breaks
        raise ConfigError(f"solve: {exc}") from None
    out = pipeline.resolve_output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    path = pipeline.write_field(out, fld, cfg.output.save_every)
    print(f"wrote {path} (max|u_r|={fld.max_abs_gradient:.4g}, "
          f"c*={fld.problem.c_star_eps:.4g})")
    return 0


def _cmd_run(args) -> int:
    cfg = _load(args)
    result = pipeline.run_pipeline(cfg, only=args.only)
    print(result.report.summary())
    print(f"# artifacts in {pipeline.resolve_output_dir(cfg)}")
    return result.exit_code


def _cmd_report(args) -> int:
    try:
        paths = pipeline.emit_plotdata(
            args.run_dir, times=tuple(args.time or ()),
            radius_fractions=tuple(args.radius_fraction or (0.1,)),
            source=args.source,
        )
    except (FileNotFoundError, ValueError) as exc:  # missing files, bad input
        raise ConfigError(f"report: {exc}") from None
    for p in paths:
        print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gradsing",
        description="Radial heat flow with a persistent gradient singularity: "
                    "solve, continue to the punctured ball, verify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("specfn", help="special-function utilities")
    s2 = p.add_subparsers(dest="subcommand", required=True)
    probe = s2.add_parser("probe", help="evaluate J_nu and its derivative")
    probe.add_argument("--nu", type=float, required=True)
    probe.add_argument("--x", type=float, nargs="+", required=True)
    probe.set_defaults(func=_cmd_specfn_probe)

    p = sub.add_parser("analytic", help="closed-form residual checks")
    s2 = p.add_subparsers(dest="subcommand", required=True)
    chk = s2.add_parser("check", help="residual report on the probe lattice")
    chk.add_argument("--n", type=int, required=True)
    chk.add_argument("--R", type=float, required=True)
    chk.add_argument("--C", type=float, default=1.0)
    chk.add_argument("--radii", type=int, default=50)
    chk.set_defaults(func=_cmd_analytic_check)

    p = sub.add_parser("initdata", help="initial-data utilities")
    s2 = p.add_subparsers(dest="subcommand", required=True)
    val = s2.add_parser("validate", help="per-condition admissibility report")
    _add_config_source(val)
    val.set_defaults(func=_cmd_initdata_validate)

    p = sub.add_parser("solve", help="single annulus run")
    _add_config_source(p)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("run", help="full pipeline (--only analytic to stop early)")
    _add_config_source(p)
    p.add_argument("--only", choices=["analytic"], default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="emit plot data from a finished run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--time", type=float, action="append")
    p.add_argument("--radius-fraction", type=float, action="append")
    p.add_argument("--source", default="field_limit.csv")
    p.set_defaults(func=_cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR_EXIT
    except (analytic.AdmissibilityError, initdata.InitialDataError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return _CONFIG_ERROR_EXIT
    except solver.SolverAbort as exc:
        print(f"solver abort: {exc} (eps={exc.eps}, step={exc.step_index}, "
              f"t={exc.time})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
