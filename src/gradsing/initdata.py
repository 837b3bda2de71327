"""Admissible initial data, the regularized inner boundary, and the
cutoff nonlinearity.

An initial datum must sit below the stationary profile, meet it at the
outer boundary, be nonincreasing with at most the stationary slope decay
rate, and approach it near the origin at least like r^(n - 3/2 + nu).
Two parametric families are provided; both subtract a vanishing-at-R
deficit from the stationary profile.

For the annulus (eps, R) the datum is bridged to the time-dependent inner
boundary value u*(eps) - v(eps, 0) without ever steepening: the bridge
reparameterizes by the datum's own decrease and applies a quintic
smoothstep, so its slope is the datum's slope times a factor in [0, 1]
and the join at the matching set is C^2.

The gradient ceiling c*_eps dominates the slopes of the stationary
profile, the subsolution, and the bridged datum, and satisfies the inner
boundary inequality  lam^2 v(eps,0) + (n-1)/eps c* + u*(eps) c*^3 <= 0,
which is what makes the linear barrier argument at r = eps work.  The
cubic nonlinearity is smoothly cut off outside [-c*, c*] and vanishes
beyond 2 c*; a-posteriori gradient bounds confirm it never activates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import analytic, specfn
from .analytic import ModelParams, RadialProfile
from .report import CheckResult, VerificationReport, within

__all__ = [
    "InitialDataError",
    "InitialDatum",
    "CutoffCubic",
    "EpsilonProblem",
    "make_initial_datum",
    "validate_initial_datum",
    "choose_amplitude_C",
    "c_star_eps",
    "make_u0eps",
    "make_epsilon_problem",
]

_REL_TOL = 1e-12


def _power(p: ModelParams) -> float:
    """q = n - 3/2 + nu: the polynomial family's shape is r^q."""
    return p.n - 1.5 + p.nu


# each family's deficit shape s(r) and its slope s'(r); analytic.psi is
# looked up per call, so a wrapper put on it sees the datum's calls too
_FAMILIES = {
    "mode_deficit": (lambda p, r: analytic.psi(p, r),
                     lambda p, r: analytic.psi_prime(p, r)),
    "polynomial_blend": (lambda p, r: r ** _power(p),
                         lambda p, r: _power(p) * r ** (_power(p) - 1.0)),
}


class InitialDataError(ValueError):
    """Raised when a constructed profile violates one of the admissibility
    conditions; the message names the condition."""


@dataclass(frozen=True)
class InitialDatum:
    """A radial initial profile.

    ``value`` and ``slope`` are exact closures usable on any grid;
    ``profile`` carries dense reference samples (several decades near 0).
    Its admissibility is the report of :func:`validate_initial_datum`,
    which :func:`make_initial_datum` requires to pass.
    """

    profile: RadialProfile
    value: Callable = field(repr=False)
    slope: Callable = field(repr=False)


def _family_closures(params: ModelParams, family: str, k: float, amplitude: float):
    """u* - a s b and its slope, for the family's shape s and the taper b."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(_FAMILIES)}")
    shape, shape_slope = _FAMILIES[family]

    # k = 0 means no taper: the deficit keeps its full size at R (and the
    # profile then fails the outer boundary condition, deliberately so)
    def blend(r):
        return 1.0 - (r / params.R) ** k if k > 0 else np.ones_like(r)

    def blend_slope(r):
        return -k * r ** (k - 1.0) / params.R ** k if k > 0 else np.zeros_like(r)

    def value(r):
        r = np.asarray(r, dtype=float)
        return analytic.u_star(params, r) - amplitude * shape(params, r) * blend(r)

    def slope(r):
        r = np.asarray(r, dtype=float)
        return analytic.u_star_r(params, r) - amplitude * (
            shape_slope(params, r) * blend(r) + shape(params, r) * blend_slope(r))

    return value, slope


def make_initial_datum(
    params: ModelParams, family: str, k: float, amplitude: float
) -> InitialDatum:
    """Construct and validate a member of one of the datum families.

    u0 = u* - a s(r) (1 - (r/R)^k), with the shape s = psi (mode_deficit)
    or s = r^(n-3/2+nu) (polynomial_blend),

    a = ``amplitude`` >= 0 and k >= 0 (k = 0: no taper).  Raises
    :class:`InitialDataError` naming the first violated condition if the
    resulting profile is not admissible (possible for aggressive amplitudes
    or exponents, where the deficit recovers faster near R than the
    stationary slope allows).  The reference samples are 1200 log-spaced
    radii over the four decades [1e-4 R, R], 300 per decade, which the
    near-origin conditions compare decade by decade.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    if not k >= 0:  # NaN too: it would run untapered, as k = 0
        raise ValueError("blend exponent must be nonnegative")
    value, slope = _family_closures(params, family, float(k), float(amplitude))
    grid = np.geomspace(1e-4 * params.R, params.R, 1200)
    profile = RadialProfile(grid=grid, values=value(grid), derivative=slope(grid))
    datum = InitialDatum(profile=profile, value=value, slope=slope)
    bad = validate_initial_datum(params, datum).failures()
    if bad:
        raise InitialDataError(
            "constructed profile fails condition(s) "
            + ", ".join(c.name for c in bad)
        )
    return datum


def _second_derivative_estimate(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    return 2.0 * (
        u[:-2] / (hm * (hm + hp))
        - u[1:-1] / (hm * hp)
        + u[2:] / (hp * (hm + hp))
    )


def validate_initial_datum(
    params: ModelParams, datum: InitialDatum
) -> VerificationReport:
    """One named check per admissibility condition; failures are recorded,
    not raised.

    The two near-origin conditions compare a quantity's maximum on the
    finest decade r <= 10 r_0 of the samples with its maximum on the next
    decade.  ``origin_closeness`` allows growth up to 2.  ``slope_envelope``
    allows r^(2/3) |u0'| growth up to 1.01: the claim u0' >= -C r^(-2/3)
    needs that quantity bounded as r -> 0, and a bounded quantity that
    settles changes less and less from decade to decade, while one that
    grows like r^(-d) gains 10^d per decade, so growth above 1% (d above
    0.004) is read as no constant C.
    """
    r = datum.profile.grid
    u0 = datum.profile.values
    u0r = datum.profile.derivative
    us = analytic.u_star(params, r)
    report = VerificationReport()
    scale = max(1.0, float(np.max(np.abs(us))))
    tol = _REL_TOL * scale

    # (a) interior C^2 regularity, proxied by second differences staying
    # stable when the grid is coarsened by 2 (a slope kink grows ~2x)
    mask = r >= 0.05 * params.R
    d2_fine = np.abs(_second_derivative_estimate(r, u0))[mask[1:-1]]
    rc, uc = r[::2], u0[::2]
    maskc = rc >= 0.05 * params.R
    d2_coarse = np.abs(_second_derivative_estimate(rc, uc))[maskc[1:-1]]
    m_fine = float(np.max(d2_fine)) if d2_fine.size else 0.0
    m_coarse = float(np.max(d2_coarse)) if d2_coarse.size else 0.0
    report.add(within("interior_regularity",
                      "second differences stable under grid coarsening (C2 proxy)",
                      m_fine / max(m_coarse, 1e-30), 1.8))

    # (b) datum below the stationary profile
    report.add(within("below_stationary",
                      "stationary profile dominates the datum nodewise",
                      float(np.max(u0 - us)), tol))

    # (c) weighted closeness near the origin
    w = r ** (1.5 - params.n - params.nu) * (us - u0)
    bound, ratio = _decade_growth(r, w)
    finite = np.all(np.isfinite(w))
    report.add(CheckResult(
        name="origin_closeness",
        claim="r^(3/2-n-nu) (u* - u0) on the finest decade within 2x the next",
        measured=ratio, tolerance=2.0, passed=bool(finite and ratio <= 2.0),
        extra={"bound": bound},
    ))

    # (d) exact match at the outer boundary
    report.add(within("outer_boundary_match",
                      "datum equals the stationary profile at r = R",
                      abs(float(u0[-1] - us[-1])), tol))

    # (e) slope squeeze 0 >= u0' >= -C r^(-2/3), with C bounded near 0
    worst_pos = float(np.max(u0r))
    weighted = -u0r * r ** (2.0 / 3.0)
    constant = float(np.max(weighted))
    slope_growth = _decade_growth(r, weighted)[1]
    report.add(CheckResult(
        name="slope_envelope",
        claim="datum nonincreasing; r^(2/3) |u0'| on the finest decade "
              "within 1.01x the next",
        measured=worst_pos, tolerance=tol,
        passed=bool(worst_pos <= tol and np.isfinite(constant)
                    and slope_growth <= 1.01),
        extra={"slope_constant": constant, "slope_growth": slope_growth},
    ))
    return report


def _decade_growth(r: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """max |q| on the finest decade r <= 10 r[0], and its ratio to max |q|
    on the next decade (1 when that decade holds no sample)."""
    finest = np.abs(q[r <= 10.0 * r[0]])
    next_ = np.abs(q[(r > 10.0 * r[0]) & (r <= 100.0 * r[0])])
    bound = float(np.max(finest))
    return bound, bound / max(float(np.max(next_)), 1e-30) if next_.size else 1.0


def choose_amplitude_C(params: ModelParams, datum: InitialDatum) -> float:
    """Smallest safe mode amplitude dominating the datum's deficit.

    Returns 1.05 times the grid supremum of (u* - u0) / psi; the margin
    guarantees u0 >= u* - C psi nodewise, which is re-checked.  Returns 0
    for the degenerate datum u0 = u* (callers clamp to their own floor
    when a nontrivial mode is needed).
    """
    r = datum.profile.grid
    deficit = analytic.u_star(params, r) - datum.profile.values
    psi = analytic.psi(params, r)
    ratios = deficit / psi
    sup = float(np.max(ratios))
    if not np.isfinite(sup):
        raise InitialDataError(
            "deficit / mode ratio unbounded on the grid "
            "(origin_closeness condition violated)"
        )
    if sup <= 0.0:
        return 0.0
    C = 1.05 * sup
    if np.any(deficit - C * psi > _REL_TOL):
        raise InitialDataError("amplitude fit failed the nodewise re-check")
    return C


# -- gradient ceiling ---------------------------------------------------------


def _ceiling_conditions(params: ModelParams, eps: float,
                        u0eps: RadialProfile):
    """The three slope bounds and the cubic inner-boundary predicate."""
    r = u0eps.grid
    b_stationary = (params.alpha / 3.0) * eps ** (-2.0 / 3.0)
    sub_slope = analytic.u_star_r(params, r) - analytic.v_mode_r(params, r, 0.0)
    b_subsolution = float(np.max(np.abs(sub_slope)))
    b_datum = float(np.max(np.abs(u0eps.derivative)))
    # lam^2 v(eps, 0) is the constant that e^(lam^2 t)-weighting of the inner
    # boundary motion -v_t(eps, t) produces
    c_v = params.lam ** 2 * analytic.v_mode(params, eps, 0.0)
    u_eps = analytic.u_star(params, eps)

    def cubic_ok(c: float) -> bool:
        return c_v + (params.n - 1) / eps * c + u_eps * c ** 3 <= 0.0

    return (b_stationary, b_subsolution, b_datum), cubic_ok


def c_star_eps(params: ModelParams, eps: float, u0eps: RadialProfile) -> float:
    """Gradient ceiling: smallest value > 1 satisfying all four conditions,
    found by :func:`specfn.bisect` to rtol 1e-9 and then inflated by 1%.

    Feasibility for large c is automatic: u*(eps) < 0 makes the cubic term
    dominate.  The ceiling grows like eps^(-2/3) as eps -> 0 because it must
    exceed the stationary slope at the inner boundary.
    """
    if not 0.0 < eps < params.R:
        raise ValueError("need 0 < eps < R")
    bounds, cubic_ok = _ceiling_conditions(params, eps, u0eps)
    floor = max(1.0, *bounds)

    def feasible(c: float) -> bool:
        return c > bounds[0] and c > bounds[1] and c > bounds[2] and cubic_ok(c)

    hi = max(2.0 * floor, 10.0)
    for _ in range(60):
        if feasible(hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError("no feasible gradient ceiling below 2^60 * floor")

    # feasibility is monotone in c (strict lower bounds; the cubic is concave
    # on c > 0 and nonnegative at 0), so b and 1.01 b are feasible
    b = specfn.bisect(feasible, 1.0, hi, 1e-9)[1]
    candidate = 1.01 * b
    if not feasible(candidate):
        raise RuntimeError("inflated gradient ceiling is infeasible")
    return candidate


# -- cutoff nonlinearity ------------------------------------------------------


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (6.0 * s * s - 15.0 * s + 10.0)


def _smoothstep_prime(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * s * s * (s - 1.0) ** 2, 0.0)


@dataclass(frozen=True)
class CutoffCubic:
    """s^3 on [-c*, c*], tapered smoothly to 0 on c* < |s| < support_radius.

    The taper multiplies s^3 by 1 - smoothstep, so the function stays odd,
    keeps the sign of s, and joins the cube and the zero tail with two
    vanishing derivatives (C^2 numerically; the model idealizes C-infinity).
    """

    c_star: float
    support_radius: float

    def __post_init__(self):
        if not self.c_star > 1.0:
            raise ValueError("cutoff plateau must exceed 1")
        if not self.support_radius > self.c_star:
            raise ValueError("support must extend beyond the exact-cube range")

    def exact_cube(self, s) -> bool:
        """True when every node lies in [-c*, c*] (False for a NaN).

        There the taper factor is exactly 1.0 and its derivative term
        exactly 0.0, so the plain cube is bitwise equal to the full formula.
        """
        return bool(np.abs(s).max(initial=0.0) <= self.c_star)

    def apply(self, s):
        s = np.asarray(s, dtype=float)
        if self.exact_cube(s):
            return specfn.int_power(s, 3)
        sigma = (np.abs(s) - self.c_star) / (self.support_radius - self.c_star)
        return specfn.int_power(s, 3) * (1.0 - _smoothstep(sigma))

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        if self.exact_cube(s):
            return 3.0 * s ** 2
        w = self.support_radius - self.c_star
        sigma = (np.abs(s) - self.c_star) / w
        return 3.0 * s ** 2 * (1.0 - _smoothstep(sigma)) \
            - np.abs(s) ** 3 * _smoothstep_prime(sigma) / w


# -- annulus initial data -----------------------------------------------------


def make_u0eps(
    params: ModelParams, eps: float, datum: InitialDatum, nodes: np.ndarray
) -> RadialProfile:
    """Bridge the datum to the inner boundary value on the annulus grid.

    Equals the datum wherever it lies below u*(eps) - v(eps,0) - eps, takes
    the exact value u*(eps) - v(eps,0) at the inner node, and in between
    follows the datum reparameterized through a quintic smoothstep.  The
    bridge slope is the datum slope scaled by a factor in [0, 1], so the
    squeeze  u0' <= u0eps' <= 0  holds pointwise.
    """
    nodes = np.asarray(nodes, dtype=float)
    if abs(nodes[0] - eps) > 1e-14 * max(1.0, eps) or abs(nodes[-1] - params.R) > 1e-14:
        raise ValueError("annulus grid must span [eps, R]")
    A = analytic.u_star(params, eps) - analytic.v_mode(params, eps, 0.0)
    u0 = datum.value(nodes)
    u0r = datum.slope(nodes)
    h0 = float(u0[0] - A)
    if h0 < -_REL_TOL * max(1.0, abs(A)):
        raise InitialDataError(
            "datum lies below the inner boundary value at eps; "
            "the mode amplitude does not dominate the deficit"
        )
    h0 = max(h0, 0.0)
    if h0 > eps / 0.875:
        raise InitialDataError(
            "bridge cannot satisfy the derivative squeeze: inner gap "
            f"{h0:.3e} exceeds {eps / 0.875:.3e}; refine the grid near eps "
            "or decrease eps"
        )
    if float(u0[-1]) >= A - eps:
        raise InitialDataError(
            "matching set is empty: the datum never falls below "
            "u*(eps) - v(eps,0) - eps; eps is too large for this datum"
        )
    s = (u0[0] - u0) / (h0 + eps)
    phi = 1.0 - _smoothstep(s)
    factor = 1.0 - _smoothstep_prime(s) * h0 / (h0 + eps)
    bridge = s < 1.0
    values = np.where(bridge, u0 - h0 * phi, u0)
    slopes = np.where(bridge, u0r * factor, u0r)
    values[0] = A  # exact, regardless of rounding in h0
    profile = RadialProfile(grid=nodes, values=values, derivative=slopes)
    _assert_u0eps_conditions(params, eps, profile, A, u0, u0r)
    return profile


def _assert_u0eps_conditions(params, eps, profile, A, u0, u0r):
    nodes, values, slopes = profile.grid, profile.values, profile.derivative
    scale = max(1.0, float(np.max(np.abs(values))))
    tol = _REL_TOL * scale
    if abs(values[0] - A) > tol:
        raise InitialDataError("inner boundary value not met exactly")
    if np.any(slopes > tol) or np.any(slopes < u0r - tol):
        raise InitialDataError("derivative squeeze u0' <= u0eps' <= 0 violated")
    upper = analytic.u_star(params, nodes)
    lower = upper - analytic.v_mode(params, nodes, 0.0)
    if np.any(values > upper + tol) or np.any(values < lower - tol):
        raise InitialDataError("annulus datum leaves the comparison envelope")
    matching = u0 < A - eps
    if not np.array_equal(values[matching], u0[matching]):
        raise InitialDataError("datum not reproduced exactly on the matching set")


@dataclass(frozen=True)
class EpsilonProblem:
    """One regularized annulus problem: geometry, ceiling, cutoff, data.

    Immutable after construction; safe to share across parallel solver runs.
    ``inner_bc`` follows the subsolution's trace u*(eps) - v(eps, t); the
    outer value is pinned to the stationary profile.
    """

    params: ModelParams
    epsilon: float
    cutoff: CutoffCubic
    u0eps: RadialProfile

    @property
    def c_star_eps(self) -> float:
        """The gradient ceiling, the cutoff's exact-cube bound."""
        return self.cutoff.c_star

    @cached_property
    def _inner_constants(self) -> tuple[float, float]:
        """u*(eps) and psi(eps): the time-independent parts of the inner
        boundary trace, evaluated once per problem."""
        return (analytic.u_star(self.params, self.epsilon),
                analytic.psi(self.params, self.epsilon))

    def inner_bc(self, t) -> float:
        # the float association of analytic.v_mode, (C exp(-lam^2 t)) psi,
        # so the trace is bitwise u*(eps) - v_mode(eps, t); its lam r >= x0
        # warning cannot apply, because eps < R < x1/lam < x0/lam
        u_eps, psi_eps = self._inner_constants
        p = self.params
        return u_eps - p.C * np.exp(-p.lam ** 2 * t) * psi_eps

    def outer_bc(self) -> float:
        return float(analytic.u_star(self.params, self.params.R))

    @property
    def nodes(self) -> np.ndarray:
        return self.u0eps.grid


@specfn.shared_evaluations()
def make_epsilon_problem(params: ModelParams, datum: InitialDatum, eps: float,
                         nodes: np.ndarray) -> EpsilonProblem:
    """Assemble and cross-check a full annulus problem instance; Bessel
    evaluations are shared within the call."""
    u0eps = make_u0eps(params, eps, datum, nodes)
    ceiling = c_star_eps(params, eps, u0eps)
    cutoff = CutoffCubic(c_star=ceiling, support_radius=2.0 * ceiling)
    return EpsilonProblem(params=params, epsilon=float(eps), cutoff=cutoff,
                          u0eps=u0eps)
