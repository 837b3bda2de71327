"""Closed-form objects of the model: the singular stationary profile,
the decaying linear mode, the subsolution built from their difference,
and the admissibility gate on the domain radius.

For dimension n >= 2 and alpha = cbrt(9n - 15),

    u*(r) = -alpha r^(1/3)

is stationary for u_t = Lap(u) + u u_r^3, and

    v(r, t) = C exp(-lam^2 t) r^(n - 3/2) J_nu(lam r),   nu = nu(n),

solves the linearization around u*.  u* - v is a subsolution provided

    0 < R < min( x1 / lam, sqrt( (3/8) (3n-5) (2n-3)^3 ) ),

x1 being the first positive root of J_nu'.  Residual evaluators assemble
the governing equations directly from the pieces; the r^(-5/3)-amplified
cancellations near the origin are kept benign by accumulating in the
widest hardware float.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import specfn
from .specfn import BesselOrder

__all__ = [
    "AdmissibilityError",
    "ModelParams",
    "RadialProfile",
    "make_params",
    "max_admissible_R",
    "radius_bound",
    "u_star",
    "u_star_r",
    "u_star_rr",
    "v_mode",
    "v_mode_r",
    "v_mode_t",
    "v_mode_rr",
    "psi",
    "psi_prime",
    "residual_stationary",
    "residual_linearized",
    "subsolution_defect",
    "mode_lower_bound_c1",
    "probe_lattice",
]

_L = np.longdouble


class AdmissibilityError(ValueError):
    """Parameter set violates the domain-radius gate."""


@dataclass(frozen=True)
class ModelParams:
    """Dimension n, ball radius R and mode amplitude C, and what follows:
    nu, alpha, the first zeros x0 of J_nu and x1 of J_nu', and the mode rate
    lam = 0.9 x1 / R.  Construction (``dataclasses.replace`` too) checks C,
    then n, then R before the zero search, then the gate, whose x1 / lam
    part lam meets with margin.  Only n >= 3 has ``weak_form_ok``.
    """

    n: int
    R: float
    C: float
    lam: float = field(init=False)
    alpha: float = field(init=False)
    nu: float = field(init=False)
    x0: float = field(init=False)
    x1: float = field(init=False)

    def __post_init__(self):
        n, R, C = self.n, self.R, self.C
        if C < 0:
            raise ValueError("mode amplitude C must be nonnegative")
        if not math.isfinite(C):
            raise ValueError(f"mode amplitude C must be finite, got {C:g}")
        nu = specfn.nu_of(n)
        if not 0.0 < R < math.inf:  # before lam = 0.9 x1 / R divides by it
            raise AdmissibilityError(
                f"R={R:g} is not a positive finite domain radius for n={int(n)}")
        zeros = specfn.first_zeros(BesselOrder(nu))
        for name, value in dict(n=int(n), R=float(R), C=float(C), nu=nu,
                                alpha=specfn.alpha_of(n), x0=zeros.x0, x1=zeros.x1,
                                lam=float(0.9 * zeros.x1 / R)).items():
            object.__setattr__(self, name, value)
        ensure_admissible(self)

    @property
    def weak_form_ok(self) -> bool:
        return self.n >= 3

    @property
    def decay_rate(self) -> float:
        return self.lam * self.lam


def radius_bound(n: int) -> float:
    """The dimension-only part of the admissibility bound."""
    return math.sqrt(0.375 * (3 * n - 5) * (2 * n - 3) ** 3)


def max_admissible_R(n: int, lam: float) -> float:
    """Largest admissible domain radius, min(x1/lam, radius_bound(n))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if lam <= 0:
        raise ValueError("lam must be positive")
    zeros = specfn.first_zeros(BesselOrder(specfn.nu_of(n)))
    return min(zeros.x1 / lam, radius_bound(n))


def make_params(n: int, R: float, C: float = 0.0) -> ModelParams:
    """The admissible model ``ModelParams(n, R, C)``."""
    return ModelParams(n, R, C)


def ensure_admissible(params: ModelParams) -> None:
    """Raise unless 0 < R < max_admissible_R(n, lam)."""
    limit = max_admissible_R(params.n, params.lam)
    if not 0.0 < params.R < limit:
        raise AdmissibilityError(
            f"R={params.R:g} outside admissible interval (0, {limit:g}) "
            f"= (0, min(x1/lam, sqrt(3/8 (3n-5)(2n-3)^3))) for n={params.n}, "
            f"lam={params.lam:g}"
        )


@dataclass(frozen=True)
class RadialProfile:
    """Samples of a radial function: nodes, values and derivative values."""

    grid: np.ndarray
    values: np.ndarray
    derivative: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing, length >= 2")
        for name in ("values", "derivative"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != g.shape:
                raise ValueError(f"{name} shape {a.shape} != grid {g.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite entries")


# -- stationary profile -----------------------------------------------------

def _positive_r(r, what: str) -> np.ndarray:
    """``r`` as a float array, or a ValueError "<what> needs r > 0"."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError(f"{what} needs r > 0")
    return arr


def _nonnegative(x, what: str) -> np.ndarray:
    """``x`` as a float array, or a ValueError "<what> must be nonnegative"."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{what} must be nonnegative")
    return arr


def u_star(params: ModelParams, r):
    """Stationary profile -alpha r^(1/3); continued by 0 at r = 0."""
    return -params.alpha * np.cbrt(_nonnegative(r, "radius"))


def u_star_r(params: ModelParams, r):
    arr = _positive_r(r, "derivative of the stationary profile")
    return -(params.alpha / 3.0) * arr ** (-2.0 / 3.0)


def u_star_rr(params: ModelParams, r):
    arr = _positive_r(r, "second derivative")
    return (2.0 * params.alpha / 9.0) * arr ** (-5.0 / 3.0)


# -- separated mode ---------------------------------------------------------

def _bessel_triplet(params: ModelParams, r: np.ndarray):
    return specfn._derivatives(BesselOrder(params.nu), params.lam * r, (0, 1, 2))


def psi(params: ModelParams, r):
    """Spatial factor r^(n - 3/2) J_nu(lam r) of the mode; 0 at r = 0."""
    arr = np.atleast_1d(_nonnegative(r, "radius"))
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        rp = arr[pos]
        out[pos] = rp ** (params.n - 1.5) * specfn.bessel_j(
            BesselOrder(params.nu), params.lam * rp
        )
    return out if np.ndim(r) else float(out[0])


def _psi_derivatives(d, lam, r, j, jp, jpp):
    """psi' and psi'' of psi = r^d J(lam r), given J, J' and J'' at lam r,
    in the precision of the arguments; psi'' is None when ``jpp`` is."""
    rd1, rd = r ** (d - 1), r ** d
    first = d * rd1 * j + lam * rd * jp
    if jpp is None:
        return first, None
    return first, (d * (d - 1) * r ** (d - 2) * j + 2 * lam * d * rd1 * jp
                   + lam ** 2 * rd * jpp)


def psi_prime(params: ModelParams, r):
    arr = _positive_r(r, "psi_prime")
    j, jp = specfn._derivatives(BesselOrder(params.nu), params.lam * arr, (0, 1))
    return _psi_derivatives(params.n - 1.5, params.lam, arr, j, jp, None)[0]


def _time_factor(params: ModelParams, t):
    """C exp(-lam^2 t), the time factor of the mode, for t >= 0."""
    return params.C * np.exp(-params.lam ** 2 * _nonnegative(t, "time"))


def v_mode(params: ModelParams, r, t):
    """Mode value C exp(-lam^2 t) r^(n-3/2) J_nu(lam r); 0 at r = 0.

    Positive on (0, R] for C > 0 because the gate keeps lam R below the
    first root of J_nu; evaluation beyond that root is permitted but warned.
    """
    factor = _time_factor(params, t)
    if np.any(params.lam * np.asarray(r, dtype=float) >= params.x0):
        warnings.warn(
            "mode evaluated at lam*r beyond the first Bessel root; "
            "sign guarantees no longer apply",
            stacklevel=2,
        )
    return factor * psi(params, r)


def v_mode_r(params: ModelParams, r, t):
    return _time_factor(params, t) * psi_prime(params, r)


def v_mode_t(params: ModelParams, r, t):
    return -params.lam ** 2 * v_mode(params, r, t)


def v_mode_rr(params: ModelParams, r, t):
    arr = _positive_r(r, "v_mode_rr")
    _, psi_pp = _psi_derivatives(params.n - 1.5, params.lam, arr,
                                 *_bessel_triplet(params, arr))
    return _time_factor(params, t) * psi_pp


def mode_lower_bound_c1(params: ModelParams) -> float:
    """Minimum of J_nu(lam r) / r^nu over 4000 log-spaced radii in
    [1e-8 R, R].

    Positive whenever lam R < x0; the small-r limit (lam/2)^nu / Gamma(nu+1)
    is its supremum since J_nu(x)/x^nu decreases up to the first root.
    """
    r = np.geomspace(1e-8 * params.R, params.R, 4000)
    j = specfn.bessel_j(BesselOrder(params.nu), params.lam * r)
    return float(np.min(j / r ** params.nu))


# -- residual evaluators ----------------------------------------------------

def _stationary_pieces(params: ModelParams, r: np.ndarray) -> dict:
    """u*, u*_r, u*_rr and r on r, accumulated in extended precision.

    alpha is recomputed from n in extended precision: the assembled defect
    cancels alpha^3 against 9n - 15, and a double-rounded alpha would leave
    r^(-5/3)-amplified noise of order 1e-10 near the inner probe radii.
    """
    rl = r.astype(_L)
    al = _L(9 * params.n - 15) ** (_L(1) / 3)
    return {
        "us": -al * rl ** (_L(1) / 3),
        "usr": -(al / 3) * rl ** (-_L(2) / 3),
        "usrr": (2 * al / 9) * rl ** (-_L(5) / 3),
        "r": rl,
    }


def _upcast_pieces(params: ModelParams, r, t):
    """All closed-form pieces, accumulated in extended precision: u*, psi
    and their derivatives on the radii r, the time factor on the times t,
    and the mode v with its derivatives on their broadcast.  Each radial
    piece is formed once per entry of r, however many times t holds."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    pieces = _stationary_pieces(params, r)
    rl = pieces["r"]
    lam = _L(params.lam)
    ef = _L(params.C) * np.exp(-lam * lam * t.astype(_L))
    j, jp, jpp = (a.astype(_L) for a in _bessel_triplet(params, r))
    d = _L(params.n) - _L(1.5)
    psi_v = rl ** d * j
    psi_p, psi_pp = _psi_derivatives(d, lam, rl, j, jp, jpp)
    pieces.update(v=ef * psi_v, vr=ef * psi_p, vrr=ef * psi_pp,
                  vt=-lam * lam * ef * psi_v)
    return pieces


def residual_stationary(params: ModelParams, r):
    """Lap(u*) + u* (u*_r)^3, assembled from the closed-form pieces.

    Identically (alpha/27) r^(-5/3) (15 - 9n + alpha^3) = 0; the returned
    value is that zero up to rounding of the assembly.
    """
    arr = np.atleast_1d(_positive_r(r, "residual_stationary"))
    p = _stationary_pieces(params, arr)
    lap = p["usrr"] + (params.n - 1) / p["r"] * p["usr"]
    res = (lap + p["us"] * p["usr"] ** 3).astype(float)
    return res if np.ndim(r) else float(res[0])


def stationary_residual_scale(params: ModelParams, r):
    """Natural magnitude (alpha/27) r^(-5/3) |15 - 9n| for relative tests."""
    arr = np.asarray(r, dtype=float)
    return (params.alpha / 27.0) * arr ** (-5.0 / 3.0) * abs(15 - 9 * params.n)


def residual_linearized(params: ModelParams, r, t):
    """v_t - Lap(v) - 3 u* (u*_r)^2 v_r - (u*_r)^3 v at (r, t)."""
    p = _upcast_pieces(params, _positive_r(r, "residual_linearized"), t)
    lap_v = p["vrr"] + (params.n - 1) / p["r"] * p["vr"]
    adv = 3 * p["us"] * p["usr"] ** 2
    res = (p["vt"] - lap_v - adv * p["vr"] - p["usr"] ** 3 * p["v"]).astype(float)
    return res if np.ndim(r) else float(res[0])


def subsolution_defect(params: ModelParams, r, t):
    """u_t - Lap(u) - u u_r^3 for u = u* - v.  Nonpositive (up to rounding)
    on every model, all being admissible; that sign is the subsolution property."""
    arr, tt = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
    if np.any(arr <= 0) or np.any(arr >= params.R):
        raise ValueError("subsolution_defect needs 0 < r < R")
    if np.any(tt < 0):
        raise ValueError("subsolution_defect needs t >= 0")
    p = _upcast_pieces(params, arr, tt)
    u = p["us"] - p["v"]
    ur = p["usr"] - p["vr"]
    ut = -p["vt"]
    lap = (p["usrr"] - p["vrr"]) + (params.n - 1) / p["r"] * (p["usr"] - p["vr"])
    res = (ut - lap - u * ur ** 3).astype(float)
    return res if np.ndim(r) else float(res[0])


def probe_lattice(params: ModelParams, radii: int = 200):
    """Log-spaced radii in [1e-4 R, 0.999 R] crossed with the probe times
    0, 0.1, 1 and 5.

    The logarithmic spacing exercises the singular r -> 0 factors.
    Returns the unbroadcast pair r of shape (1, radii) and t of shape
    (4, 1), so that the residual evaluators form each radial piece once
    per radius; their results broadcast to (4, radii).
    """
    if radii < 1:
        raise ValueError(f"radii must be a count of at least 1, got {radii}")
    r = np.geomspace(1e-4 * params.R, 0.999 * params.R, radii)
    t = np.array([0.0, 0.1, 1.0, 5.0])
    return r[None, :], t[:, None]
