"""Time integration of the regularized annulus problem and the
shrinking-annulus continuation.

Space: second-order finite differences on a graded mesh
r_i = eps + (R - eps) (i/M)^gamma, which clusters nodes at the inner
boundary where the solution inherits the r^(-2/3) slope growth of the
stationary profile.  The radial Laplacian u_rr + (n-1)/r u_r uses the
compact nonuniform three-point stencil; the gradient entering the
nonlinearity uses the matching central stencil at the interior nodes, and
stored fields add one-sided second-order stencils at the two ends.

Time: a theta-scheme solved by damped Newton with a tridiagonal banded
Jacobian.  theta = 1 is implicit Euler (the robust default), theta = 1/2
the trapezoidal rule (config name ``crank_nicolson``; the gradient
nonlinearity is solved implicitly here too, because treating it
explicitly is advectively unstable on the graded mesh, whose smallest
cell scales like (R - eps)/M^2).  Newton failure, a singular or
non-finite system included, halves the step, at most MAX_HALVINGS deep,
then aborts.  Newton stops when its increment is within NEWTON_TOL of
1 + max|u|, and fails after NEWTON_MAX_ITER iterations.

The continuation solves a decreasing sequence of inner radii, reports
sup-norm differences of consecutive fields on the compact window of
:func:`compact_window`, and appends the origin value 0 to the finest
field as the limit estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from . import initdata as idata
from .analytic import ModelParams, u_star, v_mode
from .initdata import EpsilonProblem, InitialDatum

__all__ = [
    "RadialGrid",
    "SchemeConfig",
    "GridPolicy",
    "SpacetimeField",
    "ContinuationResult",
    "SolverAbort",
    "discretize_operator",
    "solve_banded",
    "step",
    "solve_annulus",
    "compact_window",
    "continuation",
]

# Newton controls, read at call time: the increment tolerance relative to
# 1 + max|u|, the iterations per step, and the step halvings after a
# Newton failure before the solve aborts.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 14
MAX_HALVINGS = 6

_STEPPER_THETA = {
    "implicit_euler": 1.0,
    "crank_nicolson": 0.5,   # trapezoidal stage, see module docstring
}


class SolverAbort(RuntimeError):
    """Newton failed to converge after exhausting the step-halving budget."""

    def __init__(self, message, eps, step_index, time):
        super().__init__(message)
        self.eps = eps
        self.step_index = step_index
        self.time = time


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes, at least 4 of them."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 4:
            raise ValueError("grid needs at least 4 nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def h_max(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    @property
    def nodes_per_inner_decade(self) -> int:
        """Node count in [r_0, 10 r_0); large when the full decade lies
        outside the grid."""
        r0 = self.nodes[0]
        if r0 <= 0 or 10.0 * r0 >= self.nodes[-1]:
            return self.nodes.size
        return int(np.count_nonzero(self.nodes < 10.0 * r0))

    @cached_property
    def spacings(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell widths (h_-, h_+) left and right of each interior node."""
        r = self.nodes
        return r[1:-1] - r[:-2], r[2:] - r[1:-1]

    @cached_property
    def derivative_weights(self) -> tuple:
        """Three-point first-derivative weights, computed once per grid.

        Returns ``((sub, diag, sup), (index, weights))``: the central
        nonuniform weights of u[i-1], u[i], u[i+1] at the interior nodes,
        and the one-sided second-order weights of the two boundary nodes.
        Row k of the (3, 2) arrays ``index`` and ``weights`` holds the k-th
        stencil node of the first and of the last node (row 0: those nodes
        themselves) and its weight.
        """
        hm, hp = self.spacings
        central = (-hp / (hm * (hm + hp)), (hp - hm) / (hm * hp),
                   hm / (hp * (hm + hp)))
        index = np.array([[0, -1], [1, -2], [2, -3]])
        x0, x1, x2 = self.nodes[index]
        weights = np.array([
            (2 * x0 - x1 - x2) / ((x0 - x1) * (x0 - x2)),
            (x0 - x2) / ((x1 - x0) * (x1 - x2)),
            (x0 - x1) / ((x2 - x0) * (x2 - x1)),
        ])
        return central, (index, weights)

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """First derivative along the last axis: central nonuniform inside,
        one-sided second order at the two boundary nodes."""
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        (d_m, d_0, d_p), (index, weights) = self.derivative_weights
        out[..., 1:-1] = d_m * u[..., :-2] + d_0 * u[..., 1:-1] + d_p * u[..., 2:]
        # Nodes 0 and -1 (the stride-(N-1) slice).  A three-term sum adds in
        # order, so this is bitwise w0*u0 + w1*u1 + w2*u2 at each end.
        out[..., ::u.shape[-1] - 1] = (weights * u.take(index, axis=-1)).sum(axis=-2)
        return out


@dataclass(frozen=True)
class LaplacianOperator:
    """Interior stencil of u_rr + (n-1)/r u_r with Dirichlet identity rows."""

    grid: RadialGrid
    n: int
    sub: np.ndarray    # coefficient of u[i-1] in row i (interior rows)
    diag: np.ndarray   # coefficient of u[i]
    sup: np.ndarray    # coefficient of u[i+1]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Lap(u) at interior nodes, 0 at the Dirichlet rows."""
        out = np.zeros_like(np.asarray(u, dtype=float))
        out[..., 1:-1] = (
            self.sub * u[..., :-2] + self.diag * u[..., 1:-1] + self.sup * u[..., 2:]
        )
        return out


def discretize_operator(grid: RadialGrid, n: int) -> LaplacianOperator:
    """Assemble the radial Laplacian stencil on a nonuniform grid.

    Exact for quadratics (both the second-derivative and the gradient
    pieces are three-point Lagrange derivatives), hence second-order on
    smoothly graded meshes.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    hm, hp = grid.spacings
    c_m = 2.0 / (hm * (hm + hp))
    c_0 = -2.0 / (hm * hp)
    c_p = 2.0 / (hp * (hm + hp))
    (d_m, d_0, d_p), _ = grid.derivative_weights
    coef = (n - 1) / grid.nodes[1:-1]
    return LaplacianOperator(
        grid=grid, n=n,
        sub=c_m + coef * d_m, diag=c_0 + coef * d_0, sup=c_p + coef * d_p,
    )


@dataclass(frozen=True)
class SchemeConfig:
    """Time stepper and step; the Newton controls are module constants."""

    time_stepper: str = "implicit_euler"
    dt: float = 1e-3

    def __post_init__(self):
        if self.time_stepper not in _STEPPER_THETA:
            raise ValueError(
                f"unknown stepper {self.time_stepper!r}; choose from "
                f"{sorted(_STEPPER_THETA)}"
            )
        if self.dt <= 0:
            raise ValueError("step must be positive")

    @property
    def theta(self) -> float:
        return _STEPPER_THETA[self.time_stepper]


@dataclass(frozen=True)
class GridPolicy:
    """The graded mesh r_i = eps + (R - eps) (i/M)^gamma, i = 0..M, with
    M = ``num_nodes`` and gamma = ``grading_exponent``."""

    num_nodes: int
    grading_exponent: float

    def build(self, eps: float, R: float) -> RadialGrid:
        if not 0 <= eps < R:
            raise ValueError("need 0 <= eps < R")
        i = np.arange(self.num_nodes + 1) / self.num_nodes
        nodes = eps + (R - eps) * i ** self.grading_exponent
        nodes[0], nodes[-1] = eps, R  # exact endpoints
        return RadialGrid(nodes=nodes)


class _Stepper:
    """Newton machinery shared by all steps of one annulus run.  Residuals
    and Jacobians use the interior stencils in the float order of
    ``grid.gradient`` and ``op.apply``, so the iterates keep their bits."""

    def __init__(self, problem: EpsilonProblem, grid: RadialGrid,
                 scheme: SchemeConfig):
        self.problem = problem
        self.theta = scheme.theta
        self.op = discretize_operator(grid, problem.params.n)
        self.weights = np.array(grid.derivative_weights[0])
        self.outer = problem.outer_bc()
        self._bands = np.outer((0.0, 1.0, 0.0), np.ones(grid.nodes.size))

    def rhs(self, u: np.ndarray):
        """Lap(u) + u f(u_r) at the interior nodes, with the gradient du and
        the cutoff f(du) it was built from, which the Jacobian reuses."""
        um, ui, up = u[:-2], u[1:-1], u[2:]
        d_m, d_0, d_p = self.weights
        du = d_m * um + d_0 * ui + d_p * up
        f = self.problem.cutoff.apply(du)
        op = self.op
        return op.sub * um + op.diag * ui + op.sup * up + ui * f, du, f

    def _residual(self, u, u_old_in, old, inner, dt):
        """The theta-scheme residual with its (du, f), given the old interior
        state, its (1 - theta) rhs term and the new inner boundary value."""
        rhs, du, f = self.rhs(u)
        g = np.empty_like(u)
        g[1:-1] = u[1:-1] - u_old_in - dt * (self.theta * rhs + old)
        g[0] = u[0] - inner
        g[-1] = u[-1] - self.outer
        return g, du, f

    def _jacobian_banded(self, u, du, f, dt):
        """The Newton matrix as its (sub, diag, sup) diagonals, with the
        Dirichlet identity rows at both ends: views of one buffer, whose
        column i is matrix row i, rewritten by the next call."""
        uf = u[1:-1] * self.problem.cutoff.derivative(du)
        band = self._bands[:, 1:-1]
        np.multiply(self.weights, uf, out=band)
        band[0] += self.op.sub
        band[1] += self.op.diag + f
        band[2] += self.op.sup
        # -dt th X, and 1 - dt th X as 1 + (-dt th X): negation is exact
        band *= -dt * self.theta
        band[1] += 1.0
        return self._bands[0, 1:], self._bands[1], self._bands[2, :-1]

    def newton_step(self, u_old, t_old, t_new):
        dt = t_new - t_old
        u_old_in = u_old[1:-1]
        old = (1.0 - self.theta) * self.rhs(u_old)[0] if self.theta < 1.0 else 0.0
        inner = self.problem.inner_bc(t_new)
        u = u_old.copy()
        u[0] = inner
        u[-1] = self.outer
        # An accepted line-search trial's residual is the next iterate's.
        g, du, f = self._residual(u, u_old_in, old, inner, dt)
        # Convergence is judged by the Newton increment: the residual itself
        # carries dt/h_min^2-amplified rounding on the graded mesh and never
        # reaches NEWTON_TOL in absolute terms.
        for _ in range(NEWTON_MAX_ITER):
            try:
                delta = solve_banded(*self._jacobian_banded(u, du, f, dt), -g)
            except (ValueError, LinAlgError):  # non-finite or singular system
                raise _NewtonFailure from None
            scale = 1.0 + float(np.abs(u).max())
            step_size = float(np.abs(delta).max())
            if step_size <= NEWTON_TOL * scale:
                return u + delta
            norm = float(np.abs(g).max())
            s = 1.0
            while s >= 1.0 / 256.0:
                trial = u + s * delta
                g_trial, du_trial, f_trial = self._residual(
                    trial, u_old_in, old, inner, dt)
                if float(np.abs(g_trial).max()) <= (1.0 - 0.25 * s) * norm:
                    u, g, du, f = trial, g_trial, du_trial, f_trial
                    break
                s *= 0.5
            else:
                if step_size <= 1e4 * NEWTON_TOL * scale:
                    return u + delta  # stagnated at the rounding floor
                raise _NewtonFailure
        raise _NewtonFailure

    def advance(self, u_old, t_old, t_new, depth=0):
        try:
            return self.newton_step(u_old, t_old, t_new)
        except _NewtonFailure:
            if depth >= MAX_HALVINGS:
                raise SolverAbort(
                    f"Newton stalled at t={t_new:.6g} after "
                    f"{MAX_HALVINGS} step halvings",
                    eps=self.problem.epsilon, step_index=None, time=t_new,
                )
            t_mid = 0.5 * (t_old + t_new)
            u_mid = self.advance(u_old, t_old, t_mid, depth + 1)
            return self.advance(u_mid, t_mid, t_new, depth + 1)


class _NewtonFailure(Exception):
    pass


def solve_banded(sub, diag, sup, rhs) -> np.ndarray:
    """Solve the tridiagonal system with diagonals (sub, diag, sup).

    Calls LAPACK ``dgtsv``, the routine that
    ``scipy.linalg.solve_banded((1, 1), ab, rhs)`` dispatches to, on the
    three diagonals directly, so the result is bitwise the same, and keeps
    that function's validation: ValueError for a non-finite entry in any
    input, LinAlgError for a singular matrix.
    """
    if not np.isfinite(np.concatenate((sub, diag, sup, rhs), axis=None)).all():
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dgtsv(sub, diag, sup, rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def step(u, t, dt, problem: EpsilonProblem, grid: RadialGrid,
         scheme: SchemeConfig) -> np.ndarray:
    """Advance one state by dt (standalone convenience wrapper)."""
    return _Stepper(problem, grid, scheme).advance(
        np.asarray(u, dtype=float), float(t), float(t) + float(dt)
    )


@dataclass
class SpacetimeField:
    """Stored solution of one annulus run.

    Boundary columns reproduce the Dirichlet closures exactly at every
    stored time.  Everything derived, the gradient included, is computed
    from ``values`` on request, so a check always judges the stored field.
    """

    grid: RadialGrid
    times: np.ndarray
    values: np.ndarray
    problem: EpsilonProblem
    scheme_name: str
    _gradient: np.ndarray | None = field(default=None, repr=False)

    @property
    def eps(self) -> float:
        return self.problem.epsilon

    def gradient_matrix(self) -> np.ndarray:
        """u_r reconstructed with the solver stencil, one row per time."""
        if self._gradient is None:
            self._gradient = self.grid.gradient(self.values)
        return self._gradient

    @property
    def max_abs_gradient(self) -> float:
        """sup |u_r| over every stored (r, t)."""
        return float(np.max(np.abs(self.gradient_matrix())))

    def u_star_row(self) -> np.ndarray:
        return u_star(self.problem.params, self.grid.nodes)

    def mode_matrix(self) -> np.ndarray:
        return v_mode(
            self.problem.params,
            self.grid.nodes[None, :],
            self.times[:, None],
        )


def solve_annulus(problem: EpsilonProblem, grid: RadialGrid, T: float,
                  scheme: SchemeConfig) -> SpacetimeField:
    """Integrate the annulus problem on [0, T] from its bridged datum.

    The step count is the nearest integer to T/dt; the effective uniform
    step is T divided by that count, so the final time is hit exactly and
    identical configurations reproduce identical fields bit for bit.
    """
    if not np.array_equal(grid.nodes, problem.nodes):
        raise ValueError("grid does not match the problem's datum grid")
    if scheme.dt > T:
        raise ValueError("step exceeds the integration horizon")
    if grid.nodes_per_inner_decade < 3:
        raise ValueError(
            "grid resolves fewer than 3 nodes in the first radial decade; "
            "increase the node count or the grading exponent"
        )
    n_steps = max(1, int(round(T / scheme.dt)))
    times = np.linspace(0.0, T, n_steps + 1)
    values = np.empty((n_steps + 1, grid.nodes.size))
    values[0] = problem.u0eps.values
    stepper = _Stepper(problem, grid, scheme)
    u = values[0].copy()
    for k in range(n_steps):
        try:
            u = stepper.advance(u, times[k], times[k + 1])
        except SolverAbort as abort:
            raise SolverAbort(
                str(abort), eps=problem.epsilon, step_index=k, time=times[k + 1]
            ) from None
        values[k + 1] = u
    field_out = SpacetimeField(
        grid=grid, times=times, values=values, problem=problem,
        scheme_name=scheme.time_stepper,
    )
    _check_apriori_box(field_out)
    return field_out


def _check_apriori_box(field_out: SpacetimeField) -> None:
    p = field_out.problem.params
    v0 = v_mode(p, field_out.grid.nodes, 0.0)
    bound = abs(u_star(p, p.R)) + float(np.max(v0)) + 1e-9
    worst = float(np.max(np.abs(field_out.values)))
    if not worst <= bound * (1.0 + 1e-6):  # NaN leaves the box too
        raise SolverAbort(
            f"solution left the a-priori box: max|u|={worst:.3g} > {bound:.3g}",
            eps=field_out.problem.epsilon, step_index=None, time=None,
        )


@dataclass
class ContinuationResult:
    """Fields of the shrinking-annulus sequence plus the limit estimate.

    ``aborted`` carries the abort that ended the sequence; the fields solved
    before it are retained.  An abort at the first inner radius leaves no
    field, so ``fields`` is empty and ``limit`` is None.
    """

    fields: list
    consecutive_diffs: list
    limit: SpacetimeField | None
    aborted: SolverAbort | None = None

    @property
    def finest(self) -> SpacetimeField:
        return self.fields[-1]


def _append_origin(field_in: SpacetimeField) -> SpacetimeField:
    """Limit-estimate convention: prepend r = 0 with value 0."""
    grid = RadialGrid(nodes=np.concatenate(([0.0], field_in.grid.nodes)))
    values = np.concatenate(
        (np.zeros((field_in.values.shape[0], 1)), field_in.values), axis=1
    )
    return SpacetimeField(
        grid=grid, times=field_in.times, values=values,
        problem=field_in.problem, scheme_name=field_in.scheme_name,
    )


def _spline_at(x, rows, radii) -> np.ndarray:
    """Not-a-knot cubic spline through each row of ``rows`` on the knots x
    (at least four), evaluated at ``radii``: shape (rows, radii).

    Bitwise ``scipy.interpolate.CubicSpline(x, rows, axis=1)(radii)``: its
    bands and right-hand side in its float order, one ``dgtsv`` solve for
    all rows, its Hermite coefficients (only on the intervals hit), and
    ``PPoly``'s power sum (not Horner) on the interval
    ``searchsorted(x, r, "right") - 1`` clipped to [0, n - 2].
    """
    y = np.asarray(rows, dtype=float).T
    if not np.isfinite(y).all():
        raise ValueError("spline values must be finite")
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    rhs = np.empty_like(y)
    rhs[1:-1] = 3 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0]
              + (dx[0] * dx[0]) * slope[1]) / d0
    rhs[-1] = ((dx[-1] * dx[-1]) * slope[-2]
               + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    s = solve_banded(np.append(dx[1:], d1),
                     np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])),
                     np.insert(dx[:-1], 0, d0), rhs)
    i = np.clip(np.searchsorted(x, radii, "right") - 1, 0, x.size - 2)
    h, m = dx[i, None], slope[i]
    t = (s[i] + s[i + 1] - 2 * m) / h
    z = (radii - x[i])[:, None]
    zz = z * z
    return (y[i] + s[i] * z + ((m - s[i]) / h - t) * zz + (t / h) * (zz * z)).T


def compact_difference(a: SpacetimeField, b: SpacetimeField,
                       r_window: tuple, t_window: tuple) -> float:
    """Sup-norm difference of two fields on a shared compact window,
    sampled at 201 equispaced radii and every shared stored time.

    Radial sampling is not-a-knot cubic-spline interpolation
    (:func:`_spline_at`, bitwise scipy's ``CubicSpline``): the fields live
    on different graded grids and linear interpolation would contribute
    O(h^2) noise comparable to the smallest genuine differences.
    """
    radii = np.linspace(r_window[0], r_window[1], 201)
    mask_a = (a.times >= t_window[0] - 1e-12) & (a.times <= t_window[1] + 1e-12)
    mask_b = (b.times >= t_window[0] - 1e-12) & (b.times <= t_window[1] + 1e-12)
    common = np.intersect1d(a.times[mask_a], b.times[mask_b])
    if common.size == 0:
        raise ValueError("fields share no stored times in the window")
    va = _spline_at(a.grid.nodes, a.values[np.isin(a.times, common)], radii)
    vb = _spline_at(b.grid.nodes, b.values[np.isin(b.times, common)], radii)
    return float(np.max(np.abs(va - vb)))


def compact_window(R: float, T: float) -> tuple:
    """The compact window (r_window, t_window) = ([0.1 R, R], [min(0.5, T/2), T])
    on which fields of different inner radii or schemes are compared."""
    return (0.1 * R, R), (min(0.5, 0.5 * T), T)


def continuation(
    params: ModelParams,
    datum: InitialDatum,
    eps_sequence,
    policy: GridPolicy,
    T: float,
    scheme: SchemeConfig,
) -> ContinuationResult:
    """Solve the annulus problems for a decreasing eps sequence.

    Consecutive fields are compared in sup norm on :func:`compact_window`,
    which every eps must lie below; an abort ends the sequence and is
    returned with the fields solved before it.
    """
    eps_sequence = [float(e) for e in eps_sequence]
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps sequence must be strictly decreasing")
    r_window, t_window = compact_window(params.R, T)
    if eps_sequence[0] >= r_window[0]:
        raise ValueError(
            "largest eps reaches into the compact comparison window; "
            f"every eps must lie below {r_window[0]:.6g}"
        )
    fields = []
    aborted = None
    for eps in eps_sequence:
        grid = policy.build(eps, params.R)
        problem = idata.make_epsilon_problem(params, datum, eps, grid.nodes)
        try:
            fields.append(solve_annulus(problem, grid, T, scheme))
        except SolverAbort as abort:
            aborted = abort
            break
    diffs = [
        compact_difference(a, b, r_window, t_window)
        for a, b in zip(fields, fields[1:])
    ]
    return ContinuationResult(
        fields=fields,
        consecutive_diffs=diffs,
        limit=_append_origin(fields[-1]) if fields else None,
        aborted=aborted,
    )
