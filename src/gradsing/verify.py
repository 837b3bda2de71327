"""Property suite: every structural claim about the solution fields is a
numerical check with an explicit tolerance.

The checks are pure functions of immutable fields and return
:class:`CheckResult` records.  :data:`CHECKS`, the one ordered table of
field checks, maps each ``verify.enabled`` name to the inner radii it
reads and to its rows, and decides which field each claim is judged on;
the continuation and serialization live in the pipeline.  Derivative
reconstruction always reuses the solver stencil so that the asserted
quantities are the ones actually computed.

Each check states its bound in its docstring, and :func:`report.within`
applies it: an upper-bound row passes when measured <= bound.  The
falling-sequence rows share :func:`report.decreasing`.  Only the
single-row rules (a lower bound, a window, a finite value) stay in their
checks.  No caller or configuration key can move a bound.  The envelope
checks allow :func:`tol_sandwich`, 5 (h^2 + dt) (spatial truncation plus
one power of the step), and the gradient sign checks :func:`tol_grad`,
1e-6 + 10 h^2.

Every pass over a whole field runs ROW_BLOCK stored times at a time
(:func:`solver.blockwise_max`, :func:`solver.blockwise_rows`), with u_r
reconstructed per block, so a check holds its field plus one block; the
rows of a limit estimate, origin column included, are built per block too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from . import analytic, solver, specfn
from .report import CheckResult, VerificationReport, decreasing, within
from .solver import SpacetimeField, compact_difference, compact_window

__all__ = [
    "CHECKS",
    "CheckResult",
    "VerificationReport",
    "ExponentFit",
    "TestFunction",
    "default_test_functions",
    "tol_sandwich",
    "tol_grad",
    "check_sandwich",
    "check_monotone",
    "check_gradient_box",
    "check_cutoff_inactive",
    "check_boundary_bands",
    "check_weighted_bernstein",
    "check_pointwise_gradient",
    "check_pointwise_stability",
    "fit_singularity",
    "check_singularity_shape",
    "check_shape_functional",
    "fit_decay",
    "check_decay_envelope",
    "check_decay_rate",
    "weak_form_residual",
    "check_weak_identity",
    "inner_mass_integral",
    "check_inner_mass",
    "check_uniqueness_surrogate",
    "check_continuation_cauchy",
]


@dataclass(frozen=True)
class ExponentFit:
    """Log-log (or log-linear) least-squares fit over a stated window."""

    exponent: float
    prefactor: float
    r_squared: float

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared must lie in [0, 1]")


def tol_sandwich(field: SpacetimeField) -> float:
    dt = float(field.times[1] - field.times[0])
    h = field.grid.h_max
    return 5.0 * (h * h + dt)


def tol_grad(field: SpacetimeField) -> float:
    h = field.grid.h_max
    return 1e-6 + 10.0 * h * h


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), max(0.0, min(1.0, r2))


def _unjudged(name: str, claim: str, status: str, reason: str) -> CheckResult:
    """A row for a claim that was not judged: no measurement or tolerance,
    a pass only when ``skipped`` (the check does not apply), and the
    ``reason`` why."""
    return CheckResult(name=name, claim=claim, measured=float("nan"),
                       tolerance=float("nan"), passed=status == "skipped",
                       status=status, extra={"reason": reason})


# -- envelope and sign checks -------------------------------------------------

@specfn.shared_evaluations()
def check_sandwich(field: SpacetimeField) -> CheckResult:
    """Max violation of  u* >= u >= u* - v  over all stored (r, t), within
    :func:`tol_sandwich`.  The mode's Bessel values on the nodes are
    evaluated in the first row block and read from the memo in the rest."""
    tol = tol_sandwich(field)
    p = field.problem.params
    us = field.u_star_row()
    r = field.grid.nodes[None, :]
    upper = solver.blockwise_max(lambda u: u - us, field.values)
    lower = solver.blockwise_max(
        lambda t, u: (us - analytic.v_mode(p, r, t[:, None])) - u,
        field.times, field.values)
    return within("sandwich",
                  "stationary profile above, stationary-minus-mode below, everywhere",
                  max(upper, lower, 0.0), tol, upper_violation=upper,
                  lower_violation=lower)


def check_monotone(field: SpacetimeField) -> CheckResult:
    """Positive part of the reconstructed radial derivative, within
    :func:`tol_grad`."""
    tol = tol_grad(field)
    worst = max(solver.blockwise_max(field.grid.gradient, field.values), 0.0)
    return within("monotone_gradient",
                  "radial derivative nonpositive over the whole field", worst, tol)


def check_gradient_box(field: SpacetimeField) -> CheckResult:
    """sup |u_r| <= c*_eps, with u_r reconstructed from the field's values.

    On [-c*, c*] the cutoff is the exact cube, so within this bound the
    cutoff never changed the equation on the stored field.
    """
    ceiling = field.problem.c_star_eps
    return within("gradient_box",
                  "gradient ceiling never exceeded, so the cutoff stayed inert",
                  field.max_abs_gradient, ceiling, ceiling=ceiling)


def check_cutoff_inactive(field: SpacetimeField,
                          field_wide: SpacetimeField) -> CheckResult:
    """Doubling the cutoff support changes no value by more than 1e-10."""
    if field.values.shape != field_wide.values.shape:
        raise ValueError("fields must share grid and time lattice")
    diff = solver.blockwise_max(lambda a, b: np.abs(a - b), field.values,
                                field_wide.values)
    return within("cutoff_inactive_rerun",
                  "field invariant under widening the cutoff support", diff, 1e-10)


def check_boundary_bands(field: SpacetimeField) -> CheckResult:
    """Derivative bands at both boundaries, with tol = :func:`tol_grad`:
    u*_r(R) - tol <= u_r(R, t) <= tol  and  -c* - tol <= u_r(eps, t) <= tol."""
    tol = tol_grad(field)
    p = field.problem.params
    inner, outer = solver.blockwise_rows(
        lambda u: field.grid.gradient(u)[:, [0, -1]], field.values).T
    outer_lo = float(analytic.u_star_r(p, p.R))
    worst = max(0.0, float(np.max(outer)),
                outer_lo - float(np.min(outer)),
                float(np.max(inner)),
                -field.problem.c_star_eps - float(np.min(inner)))
    return within("boundary_derivative_bands",
                  "boundary slopes inside the stationary and ceiling bands", worst, tol)


# -- weighted gradient bounds -------------------------------------------------

def _weighted_gradient_power(field: SpacetimeField, p: int) -> np.ndarray:
    """W(t) = max_r (r - delta)_+^(p+3) u_r^p at each stored time, with
    delta = 0.05 R."""
    delta = 0.05 * field.problem.params.R
    w_nodes = np.clip(field.grid.nodes - delta, 0.0, None) ** (p + 3)
    return solver.blockwise_rows(
        lambda u: np.max(w_nodes * specfn.int_power(field.grid.gradient(u), p),
                         axis=1),
        field.values)


def check_weighted_bernstein(field: SpacetimeField, p: int) -> CheckResult:
    """Affine majorant for W(t) = max_r (r - delta)_+^(p+3) u_r^p, with
    delta = 0.05 R.

    W saturates from its datum value toward the stationary level, so the
    affine fit is taken on the late half of the window, where the claimed
    at-most-linear growth is the binding content; the intercept is then
    lifted to majorize the whole record.  The fit's largest deviation on
    the late half, relative to the fit, must stay within 5%.  Requires an
    even p >= 4.
    """
    if p < 4 or p % 2 != 0:
        raise ValueError("weight exponent must be an even integer >= 4")
    W = _weighted_gradient_power(field, p)
    t = field.times
    late = t >= 0.5 * t[-1]
    slope, intercept, _ = _linear_fit(t[late], W[late])
    slope = max(slope, 0.0)
    fit_late = slope * t[late] + intercept
    rel = float(np.max(np.abs(W[late] - fit_late)) / np.max(np.abs(fit_late)))
    lift = max(0.0, float(np.max(W - (slope * t + intercept))))
    return within(f"weighted_gradient_majorant_p{p}",
                  "weighted gradient power admits an affine-in-time majorant",
                  rel, 0.05, slope=slope, intercept=intercept + lift,
                  datum_level=float(W[0]), steady_level=float(W[-1]))


def check_pointwise_gradient(field: SpacetimeField) -> CheckResult:
    """Uniform bound for |u_r| r^((p+3)/p) on (2 eps, R) x [0, T], p = 28."""
    p = 28
    eps = field.eps
    q = (p + 3.0) / p
    window = (field.grid.nodes > 2.0 * eps) & (field.grid.nodes < field.problem.params.R)
    name = f"pointwise_gradient_p{p}"
    claim = "weighted slope bounded between twice eps and R"
    if not np.any(window):
        return _unjudged(name, claim, "inconclusive", "no node between 2 eps and R")
    weight = field.grid.nodes[window] ** q
    bound = solver.blockwise_max(
        lambda u: np.abs(field.grid.gradient(u)[:, window]) * weight,
        field.values)
    return CheckResult(
        name=name, claim=claim, measured=bound, tolerance=float("inf"),
        passed=bool(np.isfinite(bound)),
        extra={"exponent": q},
    )


_STABILITY_CLAIM = "weighted slope bound stable under halving the inner radius"


def check_pointwise_stability(result_a: CheckResult,
                              result_b: CheckResult) -> CheckResult:
    """The weighted-slope bound drifts by at most 20% under halving the
    inner radius."""
    a, b = result_a.measured, result_b.measured
    drift = abs(a - b) / max(abs(a), abs(b))
    return within("pointwise_gradient_stability", _STABILITY_CLAIM, drift, 0.2,
                  bound_coarse=a, bound_fine=b)


# -- singularity shape --------------------------------------------------------

def fit_singularity(field: SpacetimeField, t_probe: float) -> ExponentFit:
    """Log-log fit of |u_r| against r on [2 eps, 20 eps] at one time."""
    eps = field.eps
    r = field.grid.nodes
    window = (r >= 2.0 * eps) & (r <= 20.0 * eps)
    if np.count_nonzero(window) < 8:
        raise ValueError("singularity window under-resolved on this grid")
    k = int(np.argmin(np.abs(field.times - t_probe)))
    grad = np.abs(field.grid.gradient(field.values[k])[window])
    slope, logc, r2 = _linear_fit(np.log(r[window]), np.log(grad))
    return ExponentFit(exponent=slope, prefactor=float(np.exp(logc)), r_squared=r2)


def _probe_times(field: SpacetimeField) -> list[float]:
    """1, 2 and 5 mode e-folding times, capped at the horizon."""
    rate = field.problem.params.decay_rate
    return [min(c / rate, field.times[-1]) for c in (1.0, 2.0, 5.0)]


_SINGULARITY_CLAIM = "slope blow-up exponent matches the stationary cube-root"


def check_singularity_shape(field: SpacetimeField) -> CheckResult:
    """Slope blow-up exponent close to the stationary -2/3 at late times:
    at each probe time the fitted exponent lies in [-0.70, -0.63] with
    r^2 >= 0.99."""
    t_probes = _probe_times(field)
    try:
        fits = [fit_singularity(field, t) for t in t_probes]
    except ValueError as exc:
        return _unjudged("singularity_exponent", _SINGULARITY_CLAIM,
                         "inconclusive", str(exc))
    exponents = [f.exponent for f in fits]
    r2s = [f.r_squared for f in fits]
    ok = all(-0.70 <= e <= -0.63 for e in exponents) \
        and all(r2 >= 0.99 for r2 in r2s)
    worst = max(exponents, key=lambda e: abs(e + 2.0 / 3.0))
    return CheckResult(
        name="singularity_exponent", claim=_SINGULARITY_CLAIM, measured=worst,
        tolerance=-0.63, passed=ok,
        extra={
            "exponents": exponents,
            "r_squared": r2s,
            "prefactors": [f.prefactor for f in fits],
            "times": t_probes,
        },
    )


_SHAPE_CLAIM = "origin-weighted deficit stays below the mode amplitude"


def check_shape_functional(field: SpacetimeField) -> CheckResult:
    """max_r r^(3/2 - n - nu) (u* - u) stays below 1.05 C at the probe
    times (below 1.05 when C = 0).

    Taken over r >= 2 eps: the weight blows up like eps^(3/2 - n - nu) at
    the regularization boundary and would amplify the inner discretization
    floor (the true deficit there is the exactly-enforced mode trace, but
    its neighbors carry truncation error far above the mode size once
    n - 3/2 + nu is large).  Boundedness is checked on the resolved radii,
    matching the slope-window convention of the other inner-limited checks.
    """
    p = field.problem.params
    r = field.grid.nodes
    sel = r >= 2.0 * field.eps
    us = analytic.u_star(p, r[sel])
    worst = 0.0
    for t in _probe_times(field):
        k = int(np.argmin(np.abs(field.times - t)))
        fun = r[sel] ** (1.5 - p.n - p.nu) * (us - field.values[k, sel])
        worst = max(worst, float(np.max(fun)))
    tol = 1.05 * p.C if p.C > 0 else 1.05
    return within("shape_functional", _SHAPE_CLAIM, worst, tol,
                  window=(2.0 * field.eps, p.R))


# -- large-time convergence ---------------------------------------------------

def _distance_to_stationary(field: SpacetimeField) -> np.ndarray:
    """sup_r |u - u*| at each stored time."""
    us = field.u_star_row()
    return solver.blockwise_rows(lambda u: np.max(np.abs(u - us), axis=1),
                                 field.values)


def fit_decay(field: SpacetimeField) -> ExponentFit:
    """Log-linear fit of sup_r |u - u*| on the late half of the run.

    The fitted ``exponent`` is the decay rate (positive for decay).
    """
    return _fit_decay(field.times, _distance_to_stationary(field))


def _fit_decay(t: np.ndarray, D: np.ndarray) -> ExponentFit:
    """:func:`fit_decay` of the distances D at the stored times t."""
    late = t >= 0.5 * t[-1]
    if np.max(D) == 0.0:
        return ExponentFit(exponent=float("inf"), prefactor=0.0, r_squared=1.0)
    slope, logc, r2 = _linear_fit(t[late], np.log(D[late]))
    return ExponentFit(exponent=-slope, prefactor=float(np.exp(logc)), r_squared=r2)


def check_decay_envelope(field: SpacetimeField) -> CheckResult:
    """sup_r |u - u*| <= exp(-lam^2 t) sup_r v(., 0) + tol at every stored t,
    with tol = :func:`tol_sandwich`.  The measurement is clipped at 0; as
    tol > 0 the verdict is that of the raw excess, and a NaN fails."""
    tol = tol_sandwich(field)
    p = field.problem.params
    D = _distance_to_stationary(field)
    v0 = analytic.v_mode(p, field.grid.nodes, 0.0)
    env = np.exp(-p.decay_rate * field.times) * float(np.max(v0))
    return within("decay_envelope",
                  "difference to the stationary profile under the mode envelope",
                  max(float(np.max(D - env)), 0.0), tol)


def check_decay_rate(field: SpacetimeField) -> CheckResult:
    """Fitted convergence rate at least 0.9 of the mode rate lam^2.

    Only the lower bound is asserted; the analytical guarantee is the upper
    envelope, so a faster measured rate is recorded, not judged.  A rate
    short of the bound over a fit window that already sits at the
    discretization floor (its peak within 10 times the smallest difference)
    is ``inconclusive`` and does not pass.  A rate that meets the bound
    decides the claim whatever the window: the floor only explains a
    shortfall.  Without a mode (C = 0) the row is ``skipped``.
    """
    p = field.problem.params
    claim = "uniform convergence to the stationary profile at mode rate"
    need = 0.9 * p.decay_rate
    if p.C == 0.0:
        return _unjudged("decay_rate", claim, "skipped", "no mode: C = 0")
    D = _distance_to_stationary(field)
    fit = _fit_decay(field.times, D)
    floor = float(np.min(D))
    window_peak = float(np.max(D[field.times >= 0.5 * field.times[-1]]))
    # short of the bound with the difference already at its numerical floor
    # before the fit window: decay outran measurability, so no rate is fitted
    at_floor = fit.exponent < need and window_peak <= 10.0 * floor
    extra = ({"reason": "difference at the discretization floor"} if at_floor
             else {"r_squared": fit.r_squared})
    return CheckResult(
        name="decay_rate", claim=claim, measured=fit.exponent, tolerance=need,
        passed=fit.exponent >= need,
        status="inconclusive" if at_floor else "ok",
        extra={"mode_rate": p.decay_rate, "plateau": floor, **extra},
    )


# -- distributional identity --------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Radial bump (1 - ((r - center) / width)^2)_+^3 with its exact
    derivative; the cube makes two derivatives vanish at the support edge."""

    name: str
    center: float
    width: float

    def value(self, r):
        return np.clip(1.0 - ((r - self.center) / self.width) ** 2, 0.0, None) ** 3

    def derivative(self, r):
        z = (r - self.center) / self.width
        return -6.0 * z / self.width * np.clip(1.0 - z ** 2, 0.0, None) ** 2


def default_test_functions(params) -> list[TestFunction]:
    """Two origin-centered bumps plus one shell kept away from both
    boundaries, all supported in [0, R)."""
    R = params.R
    return [TestFunction("origin_bump_narrow", 0.0, 0.35 * R),
            TestFunction("origin_bump_wide", 0.0, 0.7 * R),
            TestFunction("interior_shell", 0.45 * R, 0.25 * R)]


def weak_form_residual(field: SpacetimeField, tf: TestFunction) -> tuple[float, float]:
    """|LHS - RHS| of the distributional identity for one test function.

    Both sides are integrated against the radial measure r^(n-1) dr with
    dual-cell (midpoint) weights on the graded mesh and the trapezoid rule
    in time; the time window (t (T-t))^2 supplies the compact support in t.
    Returns (residual, scale) with scale the sum of the term magnitudes.
    """
    return _weak_form_residuals(field, [tf])[0]


def _weak_form_residuals(field, test_functions):
    """:func:`weak_form_residual` per test function.  Per row block, u u_r^3
    is formed once and each radial integral is its own ``@ wr`` product."""
    r = field.grid.nodes
    t = field.times
    T = float(t[-1])
    wt = (t * (T - t) / (T * T / 4.0)) ** 2
    wtp = 2.0 * (t * (T - t)) * (T - 2.0 * t) / (T * T / 4.0) ** 2
    wr = _radial_volumes(field, np.inf)
    bumps = [(tf.value(r), tf.derivative(r)) for tf in test_functions]

    def integrals(u):
        # columns per test function: int u s, int u_r s', int u u_r^3 s
        ur = field.grid.gradient(u)
        reaction = u * specfn.int_power(ur, 3)
        return np.column_stack([
            col for s, sp in bumps
            for col in ((u * s) @ wr, (ur * sp) @ wr, (reaction * s) @ wr)])

    terms = solver.blockwise_rows(integrals, field.values)
    out = []
    for k in range(len(bumps)):
        lhs = -np.trapezoid(wtp * terms[:, 3 * k], t)
        rhs_flux = -np.trapezoid(wt * terms[:, 3 * k + 1], t)
        rhs_react = np.trapezoid(wt * terms[:, 3 * k + 2], t)
        residual = abs(float(lhs - rhs_flux - rhs_react))
        scale = abs(float(lhs)) + abs(float(rhs_flux)) + abs(float(rhs_react))
        out.append((residual, scale))
    return out


def check_weak_identity(field: SpacetimeField) -> list[CheckResult]:
    """Residual of the distributional identity per test function of
    :func:`default_test_functions`.

    Needs n >= 3; for n = 2 the rows report skipped, following the paper,
    which states the weak form for n >= 3.  The terms judged here are not
    the obstacle: near the origin the reaction density r^(n-1) u* (u*_r)^3
    ~ r^(n-8/3) and the flux density r^(n-1) u*_r ~ r^(n-5/3) are
    integrable at 0 for n = 2 as well.  What diverges at n = 2 is
    r^(n-1) |u_r|^3 ~ r^(n-3).  Each residual must stay below a tenth of
    the combined term magnitudes; the sharper statement (the residual
    vanishes under refinement) is asserted by the refinement and
    continuation studies, not here.
    """
    p = field.problem.params
    claim = "distributional identity across the origin"
    tfs = default_test_functions(p)
    if not p.weak_form_ok:
        return [_unjudged(f"weak_identity_{tf.name}", claim, "skipped",
                          "needs dimension >= 3") for tf in tfs]
    return [within(f"weak_identity_{tf.name}", claim, residual, 0.1 * scale,
                   scale=scale)
            for tf, (residual, scale) in zip(tfs, _weak_form_residuals(field, tfs))]


def _radial_volumes(field: SpacetimeField, upto: float) -> np.ndarray:
    """Weights of int r^(n-1) dr over the dual (midpoint) cell of each node,
    with the cells cut at r = upto (np.inf: uncut)."""
    n = field.problem.params.n
    r = field.grid.nodes
    mid = np.concatenate(([r[0]], 0.5 * (r[1:] + r[:-1]), [r[-1]]))
    return (np.minimum(mid[1:], upto) ** n - np.minimum(mid[:-1], upto) ** n) / n


def inner_mass_integral(field: SpacetimeField, eps_tilde: float) -> float:
    """(1 / e) int_0^T int_0^e r^(n-1) |u_r| dr dt  at e = eps_tilde."""
    return _inner_masses(field, [eps_tilde])[0]


def _inner_masses(field: SpacetimeField, eps_values) -> list[float]:
    """:func:`inner_mass_integral` at each radius, from one pass of |u_r|
    and one ``@ wr`` product per radius on each row block."""
    wrs = [_radial_volumes(field, e) for e in eps_values]

    def block_masses(u):
        ur = np.abs(field.grid.gradient(u))
        return np.column_stack([ur @ wr for wr in wrs])

    masses = solver.blockwise_rows(block_masses, field.values)
    return [float(np.trapezoid(masses[:, k], field.times) / e)
            for k, e in enumerate(eps_values)]


def check_inner_mass(field: SpacetimeField,
                     eps_values: Sequence[float]) -> CheckResult:
    """The averaged inner slope mass must decrease toward 0 along the
    given decreasing inner radii.  Needs n >= 3 and at least two radii to
    compare; skipped otherwise.  The n = 2 skip follows the paper's n >= 3
    for the weak form, as :func:`check_weak_identity`'s does: the mass
    density r^(n-1) |u_r| ~ r^(n-5/3) is integrable at 0 for n = 2 too;
    r^(n-1) |u_r|^3 ~ r^(n-3) is what diverges there."""
    claim = "averaged slope mass near the origin vanishes in the limit"
    if not field.problem.params.weak_form_ok:
        return _unjudged("inner_slope_mass", claim, "skipped",
                         "needs dimension >= 3")
    if len(eps_values) < 2:
        return _unjudged("inner_slope_mass", claim, "skipped",
                         "needs at least 2 inner radii")
    values = _inner_masses(field, eps_values)
    row = decreasing("inner_slope_mass", claim, values, values=values,
                     eps_values=list(eps_values))
    return replace(row, passed=row.passed and values[-1] > 0.0)


# -- scheme comparison and continuation ---------------------------------------

def check_uniqueness_surrogate(field_a: SpacetimeField,
                               field_b: SpacetimeField) -> CheckResult:
    """Fields from two distinct schemes agree within 1e-3 on the compact
    window of :func:`solver.compact_window`."""
    window = compact_window(field_a.problem.params.R, float(field_a.times[-1]))
    return within("uniqueness_surrogate",
                  "independent schemes converge to the same monotone solution",
                  compact_difference(field_a, field_b, *window), 1e-3,
                  schemes=(field_a.scheme_name, field_b.scheme_name))


_CAUCHY_CLAIM = "shrinking-annulus fields form a Cauchy sequence in sup norm"


def check_continuation_cauchy(diffs: Sequence[float]) -> CheckResult:
    """Consecutive compact-window differences strictly decreasing."""
    diffs = [float(d) for d in diffs]
    return decreasing("continuation_cauchy", _CAUCHY_CLAIM, diffs, diffs=diffs)


# -- the table of field checks ------------------------------------------------
#
# Each entry's rows take the run (a ``pipeline.PipelineResult``) once the
# radii the entry reads are solved, and call the checks and the solver
# through their module attributes, so anything that patches those
# attributes sees every call.

def _rerun_check(run, name: str, rerun: str, problem, grid, scheme,
                 check) -> list[CheckResult]:
    """``check`` of a fresh solve to the horizon, or, when that rerun aborts,
    a FAIL row ``name`` whose measurement is the time of the failed step.
    The rerun field goes straight into its check and is freed after it."""
    try:
        fld = solver.solve_annulus(problem, grid, run.horizon, scheme)
    except solver.SolverAbort as abort:
        return [CheckResult(
            name=name, claim=f"{rerun} solved to the horizon",
            measured=float("nan") if abort.time is None else float(abort.time),
            tolerance=run.horizon, passed=False, extra=abort.extra,
        )]
    return [check(fld)]


def _cutoff_inactive(run) -> list[CheckResult]:
    """The rerun of the reference problem with its cutoff support doubled,
    2 (2 c*) = 4 c*; datum, ceiling and grid are the reference's.  Inside
    the run's ``solver.shared_solves`` block, a reference solve that never
    reached the taper makes the rerun that field (same bits, no step);
    otherwise the rerun is stepped."""
    ref = run.reference
    cutoff = ref.problem.cutoff
    wide = replace(ref.problem, cutoff=replace(
        cutoff, support_radius=2.0 * cutoff.support_radius))
    return _rerun_check(run, "cutoff_inactive_rerun",
                        "the rerun with a doubled cutoff support",
                        wide, ref.grid, run.config.scheme,
                        lambda fld: check_cutoff_inactive(ref, fld))


def _at_radius(run, eps: float, name: str, claim: str,
               check) -> CheckResult:
    """``check`` of the continuation field at inner radius ``eps``, or, when
    there is none, a row ``name`` whose reason names the radius: skipped
    when eps is not configured, inconclusive when it was not solved.  The
    radius reads as in its field file's name, in its shortest round-trip
    form."""
    fld = run.continuation.field_at(eps)
    if fld is not None:
        return check(fld)
    if eps in run.config.continuation.eps_sequence:
        return _unjudged(name, claim, "inconclusive",
                         f"eps = {float(eps)!r} not solved")
    return _unjudged(name, claim, "skipped",
                     f"eps = {float(eps)!r} not in the eps sequence")


def _pointwise_gradient(run) -> list[CheckResult]:
    """The weighted-slope bound at the reference radius, and its stability
    against half that radius."""
    coarse = check_pointwise_gradient(run.reference)
    return [coarse, _at_radius(
        run, run.reference.eps / 2.0, "pointwise_gradient_stability",
        _STABILITY_CLAIM, lambda half: check_pointwise_stability(
            coarse, check_pointwise_gradient(half)))]


def _uniqueness(run) -> list[CheckResult]:
    finest = run.continuation.finest
    other = ("crank_nicolson" if run.config.scheme.time_stepper == "implicit_euler"
             else "implicit_euler")
    return _rerun_check(
        run, "uniqueness_surrogate", f"the {other} rerun", finest.problem,
        finest.grid, replace(run.config.scheme, time_stepper=other),
        lambda fld: check_uniqueness_surrogate(finest, fld))


def _continuation_cauchy(run) -> list[CheckResult]:
    cont = run.continuation
    if len(cont.consecutive_diffs) >= 2:
        return [check_continuation_cauchy(cont.consecutive_diffs)]
    return [_unjudged(
        "continuation_cauchy", _CAUCHY_CLAIM, "skipped",
        f"needs at least 3 inner radii; {len(cont.fields)}"
        f" of {len(run.config.continuation.eps_sequence)} solved")]


def _reference(cont) -> tuple:
    return (cont.reference_eps,)


def _reference_and_half(cont) -> tuple:
    """The reference radius, and its half when the sequence has it."""
    return tuple(e for e in cont.eps_sequence
                 if e in (cont.reference_eps, cont.reference_eps / 2.0))


def _smallest(cont) -> tuple:
    return cont.eps_sequence[-1:]


# verify.enabled name -> (reads, rows).  ``reads`` maps the continuation
# config to the inner radii the entry reads, or is None when the entry
# waits for the end of the sequence (the finest field, the consecutive
# differences).  The order is the order of the report.
CHECKS: dict[str, tuple[Callable | None, Callable[..., list[CheckResult]]]] = {
    "sandwich": (_reference, lambda run: [check_sandwich(run.reference)]),
    "monotone": (_reference, lambda run: [check_monotone(run.reference)]),
    "gradient_box": (_reference, lambda run: [check_gradient_box(run.reference)]),
    "cutoff_inactive": (_reference, _cutoff_inactive),
    "boundary_bands": (_reference,
                       lambda run: [check_boundary_bands(run.reference)]),
    "bernstein": (_reference, lambda run: [
        check_weighted_bernstein(run.reference, p=p) for p in (4, 28)]),
    "pointwise_gradient": (_reference_and_half, _pointwise_gradient),
    # judged at the smallest configured radius, never at a coarser one
    "singularity": (_smallest, lambda run: [_at_radius(
        run, run.config.continuation.eps_sequence[-1], "singularity_exponent",
        _SINGULARITY_CLAIM, check_singularity_shape)]),
    "shape_functional": (_smallest, lambda run: [_at_radius(
        run, run.config.continuation.eps_sequence[-1], "shape_functional",
        _SHAPE_CLAIM, check_shape_functional)]),
    "decay": (_reference, lambda run: [
        check_decay_envelope(run.reference), check_decay_rate(run.reference)]),
    # the limit estimate builds its rows only when a pass reads them
    "weak_identity": (None, lambda run: check_weak_identity(
        solver.limit_estimate(run.continuation.finest))),
    "inner_mass": (None, lambda run: [check_inner_mass(
        solver.limit_estimate(run.continuation.finest),
        run.config.continuation.eps_sequence[:3])]),
    "uniqueness": (None, _uniqueness),
    "continuation_cauchy": (None, _continuation_cauchy),
}
