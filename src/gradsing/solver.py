"""Time integration of the regularized annulus problem and the
shrinking-annulus continuation.

Space: second-order finite differences on a graded mesh
r_i = eps + (R - eps) (i/M)^gamma (gamma = 2 in every configured run,
``ContinuationConfig.grading_exponent``), which clusters nodes at the
inner boundary where the solution inherits the r^(-2/3) slope growth of
the stationary profile.  The radial Laplacian u_rr + (n-1)/r u_r and the
gradient in the nonlinearity are nonuniform three-point stencils, one sum
at the interior nodes; stored fields add one-sided gradients at the ends.

Time: a theta-scheme solved by damped Newton with a tridiagonal banded
Jacobian.  theta = 1 is implicit Euler (the robust default), theta = 1/2
the trapezoidal rule (config name ``crank_nicolson``; the gradient
nonlinearity is solved implicitly here too, because treating it
explicitly is advectively unstable on the graded mesh, whose smallest
cell scales like (R - eps)/M^2).  Newton failure, a singular or
non-finite system included, halves the step, at most MAX_HALVINGS deep,
then aborts.  Newton stops when its increment is within NEWTON_TOL of
1 + max|u|, and fails after NEWTON_MAX_ITER iterations.

Inside a :func:`shared_solves` block, a solve of a problem that differs
from an untapered solve's only in the cutoff support steps nothing and
holds no field of its own: it shares that solve's ``times`` and
``values``.

The continuation solves a decreasing sequence of inner radii, one radius
per yield, and reports the sup-norm difference of each field to the one
before on the compact window of :func:`compact_window`.  Its limit
estimate, the finest field with the origin value 0 prepended
(:func:`limit_estimate`), is never copied whole: each pass builds the
rows it reads, a row block at a time.
"""

from __future__ import annotations

import ctypes
import weakref
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import astuple, dataclass
from functools import cache, cached_property

import numpy as np
# imported for one reason only: a benchmark run records the version of the
# scipy that importing gradsing put in sys.modules
import scipy
from numpy.linalg import LinAlgError, _umath_linalg

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
    "shared_solves",
    "compact_window",
    "OriginRows",
    "limit_estimate",
    "blockwise_max",
    "blockwise_rows",
    "continuation",
]

# Newton controls (see the module docstring), read at call time.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 14
MAX_HALVINGS = 6

# Rows of a (time, radius) array that RadialGrid.gradient, blockwise_max and
# blockwise_rows handle at once: their temporaries, and those of every pass
# built on them, stay one block in size however many times a field stores.
# The largest block working set, compact_difference's two spline fits (about
# 22 kB per row on 401 knots), is then about 0.36 MB.
ROW_BLOCK = 16

_STEPPER_THETA = {
    "implicit_euler": 1.0,
    "crank_nicolson": 0.5,   # trapezoidal stage, see module docstring
}

# fields of the solves that never tapered, held weakly inside an open
# shared_solves() block; None outside any block
_SOLVES: ContextVar[weakref.WeakValueDictionary | None] = ContextVar(
    "solver_shared", default=None)


class SolverAbort(RuntimeError):
    """Newton failed to converge after exhausting the step-halving budget."""

    def __init__(self, message, eps, step_index, time):
        super().__init__(message)
        self.eps = eps
        self.step_index = step_index
        self.time = time

    @property
    def extra(self) -> dict:
        """Where the solve stopped, as a report row's ``extra``."""
        return {"eps": self.eps, "step": self.step_index, "t": self.time}


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
        one-sided second order at the two boundary nodes.  Rows are done
        ROW_BLOCK at a time; a row's bits do not depend on the others."""
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape)
        central, (index, weights) = self.derivative_weights
        n = u.shape[-1]
        rows, out_rows = u.reshape(-1, n), out.reshape(-1, n)
        for k in range(0, len(rows), ROW_BLOCK):
            b, o = rows[k:k + ROW_BLOCK], out_rows[k:k + ROW_BLOCK]
            _three_point(central, b, out=o[:, 1:-1])
            # Nodes 0 and -1 (the stride-(n-1) slice).  A three-term sum adds
            # in order, so this is bitwise w0*u0 + w1*u1 + w2*u2 at each end.
            o[:, ::n - 1] = (weights * b.take(index, axis=-1)).sum(axis=-2)
        return out


def _three_point(w, u, out=None) -> np.ndarray:
    """w[0] u[i-1] + w[1] u[i] + w[2] u[i+1] added left to right, i interior."""
    out = np.multiply(w[0], u[..., :-2], out=out)
    out += w[1] * u[..., 1:-1]
    out += w[2] * u[..., 2:]
    return out


@dataclass(frozen=True)
class LaplacianOperator:
    """Interior stencil of u_rr + (n-1)/r u_r with Dirichlet identity rows."""

    sub: np.ndarray    # coefficient of u[i-1] in row i (interior rows)
    diag: np.ndarray   # coefficient of u[i]
    sup: np.ndarray    # coefficient of u[i+1]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Lap(u) at interior nodes, 0 at the Dirichlet rows."""
        out = np.zeros_like(np.asarray(u, dtype=float))
        _three_point((self.sub, self.diag, self.sup), u, out=out[..., 1:-1])
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
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt={self.dt:g} must be finite and positive")

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


class _Operator:
    """F_h(u) = Lap_h u + u f(D_h u) at one grid's interior nodes, and dF_h/du.

    ``tapered`` records whether any call had ``not max|D_h u| <= c*`` (a
    NaN included), the cutoff's own test for its exact cube: while it is
    False, the cutoff returned s**3 on every call.  Every F_h evaluation of
    a step comes through the call, and dF_h/du takes the cutoff derivative
    at a call's arguments.
    """

    def __init__(self, grid: RadialGrid, n: int, cutoff):
        self.lap = np.array(astuple(discretize_operator(grid, n)))
        self.weights = np.array(grid.derivative_weights[0])
        self.cutoff = cutoff
        self.tapered = False

    def __call__(self, u: np.ndarray):
        """F_h(u), with the gradient du and the cutoff values f it used."""
        du = _three_point(self.weights, u)
        self.tapered = self.tapered or not self.cutoff.exact_cube(du)
        f = self.cutoff.apply(du)
        return _three_point(self.lap, u) + u[1:-1] * f, du, f

    def bands(self, u, du, f, out) -> None:
        """Write dF_h/du at u (du and f from the call at u) into the (3,
        interior) array ``out``: row k holds the factor of u[i - 1 + k]."""
        uf = u[1:-1] * self.cutoff.derivative(du)
        np.multiply(self.weights, uf, out=out)
        out[::2] += self.lap[::2]
        out[1] += self.lap[1] + f


class _Stepper:
    """The theta-scheme on an _Operator: Newton matrix, damped Newton, halvings."""

    def __init__(self, problem: EpsilonProblem, grid: RadialGrid,
                 scheme: SchemeConfig):
        self.problem = problem
        self.theta = scheme.theta
        self.operator = _Operator(grid, problem.params.n, problem.cutoff)
        self.outer = problem.outer_bc()
        self._bands = np.outer((0.0, 1.0, 0.0), np.ones(grid.nodes.size))

    def _residual(self, u, u_old_in, old, inner, dt):
        """The theta-scheme residual with its (du, f), given the old interior
        state, its (1 - theta) F_h term and the new inner boundary value."""
        rhs, du, f = self.operator(u)
        g = np.empty_like(u)
        g[1:-1] = u[1:-1] - u_old_in - dt * (self.theta * rhs + old)
        g[0] = u[0] - inner
        g[-1] = u[-1] - self.outer
        return g, du, f

    def _jacobian_banded(self, u, du, f, dt):
        """1 - dt theta dF_h/du as its (sub, diag, sup) diagonals, with the
        Dirichlet identity rows at both ends: views of one buffer, whose
        column i is matrix row i, rewritten by the next call."""
        band = self._bands[:, 1:-1]
        self.operator.bands(u, du, f, band)
        # -dt th J, and 1 - dt th J as 1 + (-dt th J): negation is exact
        band *= -dt * self.theta
        band[1] += 1.0
        return self._bands[0, 1:], self._bands[1], self._bands[2, :-1]

    def newton_step(self, u_old, t_old, t_new):
        dt = t_new - t_old
        u_old_in = u_old[1:-1]
        old = (1.0 - self.theta) * self.operator(u_old)[0] if self.theta < 1.0 else 0.0
        inner = self.problem.inner_bc(t_new)
        u = u_old.copy()
        u[0] = inner
        u[-1] = self.outer
        # An accepted line-search trial's residual and its norm are the next
        # iterate's.
        g, du, f = self._residual(u, u_old_in, old, inner, dt)
        norm = float(np.abs(g).max())
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
            s, trial = 1.0, u + delta  # 1.0 * delta is delta, bit for bit
            while True:
                g_trial, du_trial, f_trial = self._residual(
                    trial, u_old_in, old, inner, dt)
                norm_trial = float(np.abs(g_trial).max())
                if norm_trial <= (1.0 - 0.25 * s) * norm:
                    u, g, du, f = trial, g_trial, du_trial, f_trial
                    norm = norm_trial
                    break
                s *= 0.5
                if s < 1.0 / 256.0:
                    if step_size <= 1e4 * NEWTON_TOL * scale:
                        return u + delta  # stagnated at the rounding floor
                    raise _NewtonFailure
                trial = u + s * delta
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


def _load_dgtsv(library):
    """LAPACK ``scipy_dgtsv_64_`` (64-bit integers) through ``library``.

    The file is opened as a plain shared object, and the symbol is looked up
    through its link to the LAPACK library.  For numpy's ``_umath_linalg``
    that is the OpenBLAS bundled with numpy's wheel, already mapped by
    ``import numpy``, so no second BLAS is loaded.
    """
    try:
        dgtsv = ctypes.CDLL(library).scipy_dgtsv_64_
    except (OSError, AttributeError):
        raise ImportError(f"no LAPACK scipy_dgtsv_64_ in {library}") from None
    # dgtsv(n, nrhs, dl, d, du, b, ldb, info), all by reference
    dgtsv.argtypes = (ctypes.c_void_p,) * 8
    dgtsv.restype = None
    return dgtsv


@cache
def _dgtsv():
    """numpy's ``dgtsv``, bound at the first banded solve; a failed load is
    not cached, and the next solve tries again."""
    return _load_dgtsv(_umath_linalg.__file__)


_INTS = ctypes.c_int64 * 3


def solve_banded(sub, diag, sup, rhs) -> np.ndarray:
    """Solve the tridiagonal system with diagonals (sub, diag, sup).

    Calls LAPACK ``dgtsv`` from numpy's OpenBLAS on the three diagonals
    directly.  The result is bitwise that of
    ``scipy.linalg.solve_banded((1, 1), ab, rhs)``, which dispatches to the
    same routine in scipy's own OpenBLAS, and keeps that function's
    validation: ValueError for a non-finite entry in any input or mismatched
    sizes, LinAlgError for a singular matrix.  ``rhs`` is a vector or an
    (n, nrhs) matrix; the inputs are left untouched.
    """
    rhs = np.asarray(rhs)
    n = len(diag)
    # The one copy that LAPACK overwrites, right-hand side columns contiguous
    # (Fortran order); it is also the finiteness test.
    work = np.concatenate((sub, diag, sup, rhs.T), axis=None, dtype=float)
    # LAPACK reads 3n - 2 band entries and then n * nrhs right-hand sides.
    if (rhs.ndim not in (1, 2) or len(rhs) != n or len(sub) != n - 1
            or len(sup) != n - 1 or work.size != 3 * n - 2 + rhs.size):
        raise ValueError("tridiagonal bands and right-hand side do not match")
    if not np.isfinite(work).all():
        raise ValueError("array must not contain infs or NaNs")
    ints = _INTS(n, rhs.size // n, 0)  # n (also ldb), nrhs, info
    i = ctypes.addressof(ints)
    b = ctypes.addressof(ctypes.c_double.from_buffer(work))
    _dgtsv()(i, i + 8, b, b + 8 * (n - 1), b + 8 * (2 * n - 1),
           b + 8 * (3 * n - 2), i, i + 16)
    info = ints[2]
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    x = work[3 * n - 2:]
    return x if rhs.ndim == 1 else x.reshape(rhs.shape[::-1]).T


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
    stored time.  Everything derived, u_r included (``grid.gradient`` of
    the rows a pass needs), is computed from ``values`` on request and not
    kept, so a check always judges the stored field and a field holds
    nothing beyond its inputs.  The values of a :func:`limit_estimate` are
    :class:`OriginRows`, which a pass reads by rows only.  A released field
    (``times`` and ``values`` None) keeps its grid and problem; its rows
    are in its file (``pipeline`` module docstring).
    """

    grid: RadialGrid
    times: np.ndarray | None
    values: np.ndarray | None
    problem: EpsilonProblem
    scheme_name: str

    @property
    def eps(self) -> float:
        return self.problem.epsilon

    @property
    def max_abs_gradient(self) -> float:
        """sup |u_r| over every stored (r, t)."""
        return blockwise_max(lambda u: np.abs(self.grid.gradient(u)),
                             self.values)

    def u_star_row(self) -> np.ndarray:
        return u_star(self.problem.params, self.grid.nodes)


@contextmanager
def shared_solves():
    """Inside the block (or the call of a function it decorates), a solve
    that differs from a completed, untapered one only in the cutoff's
    support radius returns a field sharing that solve's ``times`` and
    ``values``: where |u_r| <= c* every cutoff of the family returns the
    same bits, so stepping would repeat the same arithmetic.

    Completed fields are held weakly, so one that nothing else holds serves
    no later solve.  Each block, a nested one included, holds its own; on
    exit they are dropped and the enclosing block's, if any, serve again.
    """
    token = _SOLVES.set(weakref.WeakValueDictionary())
    try:
        yield
    finally:
        _SOLVES.reset(token)


def solve_annulus(problem: EpsilonProblem, grid: RadialGrid, T: float,
                  scheme: SchemeConfig) -> SpacetimeField:
    """Integrate the annulus problem on [0, T] from its bridged datum.

    The step count is the nearest integer to T/dt; the effective uniform
    step is T divided by that count, so the final time is hit exactly and
    identical configurations reproduce identical fields bit for bit.
    Inside a :func:`shared_solves` block a solve whose twin never tapered
    returns the twin's arrays and steps nothing.
    """
    if not np.array_equal(grid.nodes, problem.nodes):
        raise ValueError("grid does not match the problem's datum grid")
    if scheme.dt > T:
        raise ValueError("step exceeds the integration horizon")
    if grid.nodes_per_inner_decade < 3:
        raise ValueError(
            "grid resolves fewer than 3 nodes in the first radial decade; "
            "increase the node count"
        )
    kept = _SOLVES.get()
    if kept is not None:
        # everything the stepper reads, by value, but the cutoff's support
        key = (problem.params, problem.epsilon, type(problem.cutoff),
               problem.cutoff.c_star, problem.u0eps.values.tobytes(),
               grid.nodes.tobytes(), T, scheme)
        twin = kept.get(key)
        if twin is not None:  # it passed the a-priori box too
            return SpacetimeField(
                grid=grid, times=twin.times, values=twin.values,
                problem=problem, scheme_name=scheme.time_stepper)
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
    if kept is not None and not stepper.operator.tapered:
        kept[key] = field_out
    return field_out


def blockwise_rows(fn, *arrays) -> np.ndarray:
    """``fn(*blocks)`` over the blocks of ROW_BLOCK rows of ``arrays`` (of
    equal length), concatenated: the per-row results of a pass whose
    temporaries stay one block in size.  ``fn`` must not write into its
    arguments."""
    return np.concatenate([fn(*(a[k:k + ROW_BLOCK] for a in arrays))
                           for k in range(0, len(arrays[0]), ROW_BLOCK)])


def blockwise_max(fn, *arrays) -> float:
    """The maximum of ``fn(*blocks)`` over the blocks of ROW_BLOCK rows of
    ``arrays``, as :func:`blockwise_rows` takes them.  The maximum of the
    block maxima is the maximum, and a NaN still propagates."""
    return float(np.max(blockwise_rows(lambda *b: [np.max(fn(*b))], *arrays)))


def _check_apriori_box(field_out: SpacetimeField) -> None:
    p = field_out.problem.params
    v0 = v_mode(p, field_out.grid.nodes, 0.0)
    bound = abs(u_star(p, p.R)) + float(np.max(v0)) + 1e-9
    worst = blockwise_max(np.abs, field_out.values)
    if not worst <= bound * (1.0 + 1e-6):  # NaN leaves the box too
        raise SolverAbort(
            f"solution left the a-priori box: max|u|={worst:.3g} > {bound:.3g}",
            eps=field_out.problem.epsilon, step_index=None, time=None,
        )


@dataclass
class ContinuationResult:
    """Fields of the shrinking-annulus sequence.

    ``aborted`` carries the abort that ended the sequence; the fields solved
    before it are retained.  An abort at the first inner radius leaves no
    field, so ``fields`` is empty.
    """

    fields: list
    consecutive_diffs: list
    aborted: SolverAbort | None = None

    @property
    def finest(self) -> SpacetimeField:
        return self.fields[-1]

    def field_at(self, eps: float) -> SpacetimeField | None:
        """The field solved at inner radius ``eps`` exactly, or None."""
        return next((f for f in self.fields if f.eps == eps), None)


class OriginRows:
    """The values of a limit estimate: the rows of an annulus field's values
    with the origin column, value 0, prepended.  Nothing is copied whole:
    indexing the rows (an index, a slice, an index array) builds those rows
    only, so a row-blocked pass holds one block of them."""

    def __init__(self, annulus: np.ndarray):
        self.annulus = annulus

    def __len__(self) -> int:
        return len(self.annulus)

    def __getitem__(self, rows) -> np.ndarray:
        if isinstance(rows, tuple):
            raise TypeError("limit values are indexed by rows only")
        block = self.annulus[rows]
        out = np.zeros(block.shape[:-1] + (block.shape[-1] + 1,))
        out[..., 1:] = block
        return out


def limit_estimate(field_in: SpacetimeField) -> SpacetimeField:
    """Limit-estimate convention: ``field_in`` with r = 0 prepended, value 0
    there.  Its ``values`` are :class:`OriginRows`, built per row request."""
    return SpacetimeField(
        grid=RadialGrid(nodes=np.concatenate(([0.0], field_in.grid.nodes))),
        times=field_in.times, values=OriginRows(field_in.values),
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
    O(h^2) noise comparable to the smallest genuine differences.  The
    shared times are fitted ROW_BLOCK at a time.
    """
    radii = np.linspace(r_window[0], r_window[1], 201)
    mask_a = (a.times >= t_window[0] - 1e-12) & (a.times <= t_window[1] + 1e-12)
    mask_b = (b.times >= t_window[0] - 1e-12) & (b.times <= t_window[1] + 1e-12)
    common = np.intersect1d(a.times[mask_a], b.times[mask_b])
    if common.size == 0:
        raise ValueError("fields share no stored times in the window")

    def block_diff(rows_a, rows_b):
        # every row's spline is its own, and dgtsv gives the same bits for
        # any grouping of right-hand sides, so blocks change no bit
        return np.abs(_spline_at(a.grid.nodes, a.values[rows_a], radii)
                      - _spline_at(b.grid.nodes, b.values[rows_b], radii))

    return blockwise_max(block_diff, np.flatnonzero(np.isin(a.times, common)),
                         np.flatnonzero(np.isin(b.times, common)))


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
) -> Iterator[ContinuationResult]:
    """Solve the annulus problems for a decreasing eps sequence, yielding
    the one :class:`ContinuationResult` after each radius.

    Each solved field is compared with the one before it in sup norm on
    :func:`compact_window`, which every eps must lie below, before the
    yield.  An abort ends the sequence: it is yielded in ``aborted`` with
    the fields solved before it.  The last yield holds the whole sequence.
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
    cont = ContinuationResult(fields=[], consecutive_diffs=[])
    for eps in eps_sequence:
        grid = policy.build(eps, params.R)
        problem = idata.make_epsilon_problem(params, datum, eps, grid.nodes)
        try:
            cont.fields.append(solve_annulus(problem, grid, T, scheme))
        except SolverAbort as abort:
            cont.aborted = abort
            yield cont
            return
        if len(cont.fields) > 1:
            cont.consecutive_diffs.append(
                compact_difference(*cont.fields[-2:], r_window, t_window))
        yield cont
