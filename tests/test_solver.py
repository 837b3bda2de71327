"""Grids, the discrete operator, time stepping, and the continuation."""

import _ctypes
import ctypes
import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import CubicSpline
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsing import analytic, initdata, pipeline, solver, verify
from gradsing.config import preset
from gradsing.solver import (
    GridPolicy,
    RadialGrid,
    SchemeConfig,
    SolverAbort,
    compact_difference,
    continuation,
    discretize_operator,
    solve_annulus,
    step,
)


class TestRadialGrid:
    def test_endpoints_exact_and_monotone(self):
        g = GridPolicy(400, 2.0).build(0.02, 0.6)
        assert g.nodes[0] == 0.02 and g.nodes[-1] == 0.6
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes.size == 401

    def test_grading_clusters_inner_nodes(self):
        g = GridPolicy(100, 2.0).build(0.02, 0.6)
        d = np.diff(g.nodes)
        assert d[0] < d[-1] / 50.0

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            RadialGrid(nodes=np.array([0.1, 0.2, 0.3]))

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            RadialGrid(nodes=np.array([0.1, 0.3, 0.2, 0.4]))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        eps=st.floats(1e-3, 0.2),
        gamma=st.floats(1.0, 3.0),
        M=st.integers(10, 200),
    )
    def test_make_always_valid(self, eps, gamma, M):
        g = GridPolicy(M, gamma).build(eps, 0.6)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.h_max <= (0.6 - eps) * gamma / M * 1.05

    def test_gradient_exact_for_quadratics(self):
        g = GridPolicy(60, 1.7).build(0.05, 0.7)
        r = g.nodes
        for u, du in ((np.ones_like(r), np.zeros_like(r)),
                      (r, np.ones_like(r)),
                      (r ** 2, 2 * r)):
            assert np.max(np.abs(g.gradient(u) - du)) < 1e-10

    def test_gradient_second_order_on_cubics(self):
        errs = []
        for M in (100, 200):
            g = GridPolicy(M, 2.0).build(0.05, 0.7)
            errs.append(np.max(np.abs(g.gradient(g.nodes ** 3) - 3 * g.nodes ** 2)))
        assert np.log2(errs[0] / errs[1]) > 1.8

    def test_field_gradient_equals_per_row_stencil(self, n2_field):
        rows = np.array([n2_field.grid.gradient(u) for u in n2_field.values])
        assert np.array_equal(n2_field.grid.gradient(n2_field.values), rows)
        assert n2_field.max_abs_gradient == np.max(np.abs(rows))

    @pytest.mark.parametrize("size", [4, 5, 61])
    def test_boundary_rows_bitwise_equal_one_sided_formula(self, size):
        """The vectorised end rows give the bits of the written-out
        one-sided stencils, for one state and for a matrix of states."""
        g = GridPolicy(size - 1, 2.0).build(0.03, 0.6)
        r = g.nodes
        u = np.random.default_rng(size).standard_normal((5, size))
        u[1, :3], u[2, -3:] = [np.nan, -0.0, 5e-324], [1e300, -0.0, np.inf]
        ends = []
        for i0, i1, i2 in ((0, 1, 2), (-1, -2, -3)):
            x0, x1, x2 = r[i0], r[i1], r[i2]
            ends.append(
                (2 * x0 - x1 - x2) / ((x0 - x1) * (x0 - x2)) * u[:, i0]
                + (x0 - x2) / ((x1 - x0) * (x1 - x2)) * u[:, i1]
                + (x0 - x1) / ((x2 - x0) * (x2 - x1)) * u[:, i2])
        expected = np.column_stack(ends)
        assert g.gradient(u)[:, [0, -1]].tobytes() == expected.tobytes()
        assert g.gradient(u[3])[[0, -1]].tobytes() == expected[3].tobytes()


class TestSolveBanded:
    """The direct dgtsv solve against scipy.linalg.solve_banded((1, 1))."""

    @staticmethod
    def _scipy(sub, diag, sup, rhs):
        ab = np.zeros((3, diag.size))
        ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
        return scipy.linalg.solve_banded((1, 1), ab, rhs)

    @staticmethod
    def _system(size, seed=0):
        """A seeded, strictly diagonally dominant tridiagonal system."""
        rng = np.random.default_rng(seed)
        sub, sup = rng.uniform(-1.0, 1.0, (2, size - 1))
        diag = rng.choice([-1.0, 1.0], size) * rng.uniform(2.5, 4.0, size)
        return sub, diag, sup, rng.standard_normal(size)

    @pytest.mark.parametrize("size", [4, 61, 401])
    def test_bitwise_equal_to_scipy(self, size):
        for seed in range(5):
            system = self._system(size, seed)
            x = solver.solve_banded(*system)
            assert x.tobytes() == self._scipy(*system).tobytes()
            sub, diag, sup, rhs = system
            lhs = diag * x
            lhs[1:] += sub * x[:-1]
            lhs[:-1] += sup * x[1:]
            assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("nrhs", [1, 3, 700])
    def test_matrix_rhs_bitwise_equal_to_scipy(self, nrhs, order):
        sub, diag, sup, _ = self._system(401, nrhs)
        rhs = np.asarray(np.random.default_rng(nrhs).standard_normal((401, nrhs)),
                         order=order)
        system = (sub, diag, sup, rhs)
        copies = [a.copy(order="K") for a in system]
        x = solver.solve_banded(*system)
        expected = self._scipy(*system)
        assert (x.shape, x.dtype) == (expected.shape, expected.dtype)
        assert x.tobytes() == expected.tobytes()
        # the inputs are left untouched, layout included
        assert all(a.tobytes("A") == b.tobytes("A") and a.strides == b.strides
                   for a, b in zip(system, copies))

    def test_inputs_untouched(self):
        system = self._system(61)
        copies = [a.copy() for a in system]
        solver.solve_banded(*system)
        assert all(np.array_equal(a, b) for a, b in zip(system, copies))

    @pytest.mark.parametrize("which, shape", [
        (0, (59,)), (0, (60, 0)), (1, (60,)), (1, (61, 2)), (2, (61, 1)),
        (3, (60,)), (3, (61, 2, 1)), (3, ()),
    ])
    def test_mismatched_shapes_rejected(self, which, shape):
        system = list(self._system(61))
        system[which] = np.ones(shape)
        with pytest.raises(ValueError, match="do not match"):
            solver.solve_banded(*system)

    def test_dgtsv_is_numpys_own(self):
        """The routine called is the 64-bit-integer dgtsv in the OpenBLAS
        that numpy's linalg extension links to: the symbol as resolved from
        the imported _umath_linalg file."""
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        address = lambda f: ctypes.cast(f, ctypes.c_void_p).value
        assert address(solver._dgtsv()) == address(lib.scipy_dgtsv_64_)

    def test_library_loaded_at_first_solve_and_reused(self, monkeypatch):
        loads = []
        load = solver._load_dgtsv
        monkeypatch.setattr(solver, "_load_dgtsv",
                            lambda path: loads.append(path) or load(path))
        solver._dgtsv.cache_clear()
        for seed in range(3):
            system = self._system(61, seed)
            assert solver.solve_banded(*system).tobytes() == \
                self._scipy(*system).tobytes()
        assert loads == [np.linalg._umath_linalg.__file__]

    def test_missing_dgtsv_fails_the_first_solve_as_import_error(
            self, monkeypatch):
        """The loader's ImportError leaves solve_annulus as it is: the Newton
        loop does not take it for a failed iteration, so no step is halved
        and no SolverAbort or ValueError stands in for it."""
        loads = []
        load = solver._load_dgtsv
        monkeypatch.setattr(solver, "_load_dgtsv",
                            lambda path: loads.append(path) or load(_ctypes.__file__))
        solver._dgtsv.cache_clear()
        params = analytic.make_params(2, R=0.6, C=0.25)
        datum = initdata.make_initial_datum(params, "mode_deficit", k=2.0,
                                             amplitude=params.C)
        grid = GridPolicy(num_nodes=60, grading_exponent=2.0).build(0.05, params.R)
        problem = initdata.make_epsilon_problem(params, datum, 0.05, grid.nodes)
        with pytest.raises(ImportError, match="dgtsv") as err:
            solve_annulus(problem, grid, 0.02, SchemeConfig(dt=5e-3))
        assert err.type is ImportError and _ctypes.__file__ in str(err.value)
        assert len(loads) == 1
        # nothing failed is cached: the next solve loads numpy's library
        monkeypatch.setattr(solver, "_load_dgtsv", load)
        assert solve_annulus(problem, grid, 0.02, SchemeConfig(dt=5e-3)).times.size == 5

    @pytest.mark.parametrize("missing", [False, True])
    def test_loader_failure_names_the_searched_path(self, tmp_path, missing):
        # a shared library without dgtsv, and a path that does not exist
        library = str(tmp_path / "absent.so") if missing else _ctypes.__file__
        with pytest.raises(ImportError, match="dgtsv") as err:
            solver._load_dgtsv(library)
        assert err.type is ImportError and library in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", range(4))
    def test_non_finite_input_rejected(self, which, bad):
        system = list(self._system(61))
        system[which][7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solver.solve_banded(*system)
        with pytest.raises(ValueError):
            self._scipy(*system)

    def test_zero_pivot_is_singular(self):
        sub, diag, sup, rhs = self._system(61)
        sub[2] = diag[2] = 0.0  # column 2 vanishes below row 1
        sup[1] = 0.0
        with pytest.raises(scipy.linalg.LinAlgError, match="singular"):
            solver.solve_banded(sub, diag, sup, rhs)
        with pytest.raises(scipy.linalg.LinAlgError):
            self._scipy(sub, diag, sup, rhs)

    def test_pivot_vanishing_in_elimination_is_singular(self):
        # rows 0 and 1 are equal and no input diagonal entry is zero: the
        # pivot at row 1 becomes zero only after eliminating row 0, and the
        # 64-bit info reports it
        sub, diag, sup, rhs = self._system(61)
        diag[0] = sup[0] = sub[0] = diag[1] = 1.0
        sup[1] = 0.0
        assert np.all(diag != 0.0)
        with pytest.raises(scipy.linalg.LinAlgError, match="singular"):
            solver.solve_banded(sub, diag, sup, rhs)
        with pytest.raises(scipy.linalg.LinAlgError):
            self._scipy(sub, diag, sup, rhs)


class TestDiscreteOperator:
    def test_annihilates_constants(self):
        g = GridPolicy(50, 2.0).build(0.05, 0.7)
        op = discretize_operator(g, 3)
        out = op.apply(np.full(g.nodes.size, 4.2))
        # exact cancellation up to rounding scaled by the 1/h^2 stencil size
        assert np.max(np.abs(out)) < 1e-13 * np.max(np.abs(op.diag)) * 4.2

    def test_exact_on_quadratic_n3(self):
        # Lap(r^2) = 2 + (2/r) 2r = 6 in three dimensions, and the stencil
        # is a three-point Lagrange derivative, exact for quadratics
        g = GridPolicy(80, 2.0).build(0.05, 0.7)
        op = discretize_operator(g, 3)
        out = op.apply(g.nodes ** 2)
        assert np.max(np.abs(out[1:-1] - 6.0)) < 1e-8

    def test_consistent_with_stationary_balance(self):
        # on samples of u*, Lap u* must approach -u* (u*_r)^3 at second order
        params = analytic.make_params(2, R=0.6, C=0.0)
        errs = []
        for M in (200, 400):
            g = GridPolicy(M, 2.0).build(0.05, 0.6)
            op = discretize_operator(g, 2)
            r = g.nodes[1:-1]
            lap = op.apply(analytic.u_star(params, g.nodes))[1:-1]
            target = -analytic.u_star(params, r) * analytic.u_star_r(params, r) ** 3
            errs.append(np.max(np.abs(lap - target)))
        assert np.log2(errs[0] / errs[1]) > 1.8

    def test_rejects_bad_dimension(self):
        g = GridPolicy(20, 2.0).build(0.05, 0.7)
        with pytest.raises(ValueError):
            discretize_operator(g, 1)

    @pytest.mark.parametrize("tapered", [False, True])
    def test_operator_bands_are_the_derivative_of_f_h(self, tapered):
        """The bands _Operator writes, times a direction v with v = 0 at both
        ends, match the centred difference (F_h(u + dv) - F_h(u - dv)) / 2d
        of the n2-standard eps = 0.04 datum, inside the exact-cube range or
        with u_r pushed to 1.2 c* at one node.  Each row's error, relative
        to the sum of its terms' sizes, falls with d^2, as it does only for
        the exact derivative: a wrong band leaves a floor of its own size."""
        cfg = preset("n2-standard")
        params, datum = pipeline.build_model(cfg)
        grid = GridPolicy(cfg.continuation.num_nodes,
                          cfg.continuation.grading_exponent).build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        u = prob.u0eps.values.copy()
        if tapered:  # steepen u_r at node 59 to 1.2 c*
            d_p = grid.derivative_weights[0][2]
            u[60] -= (1.2 * prob.c_star_eps + grid.gradient(u)[59]) / d_p[58]
        past = np.abs(grid.gradient(u)) > prob.c_star_eps
        assert np.count_nonzero(past) == tapered
        op = solver._Operator(grid, params.n, prob.cutoff)
        bands = np.empty((3, u.size - 2))
        op.bands(u, *op(u)[1:], bands)
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = rng.standard_normal(u.size)
            v[0] = v[-1] = 0.0
            terms = bands * np.array([v[:-2], v[1:-1], v[2:]])
            errs = []
            for delta in (1e-5, 1e-6):
                fd = (op(u + delta * v)[0] - op(u - delta * v)[0]) / (2 * delta)
                errs.append(np.max(np.abs(fd - terms.sum(axis=0))
                                   / np.abs(terms).sum(axis=0)))
            assert errs[1] < 1e-7
            assert errs[0] > 50.0 * errs[1]


class TestSchemeConfig:
    def test_rejects_unknown_stepper(self):
        with pytest.raises(ValueError):
            SchemeConfig(time_stepper="leapfrog")

    def test_rejects_retired_imex_cn_token(self):
        with pytest.raises(ValueError, match="crank_nicolson"):
            SchemeConfig(time_stepper="imex_cn")

    def test_orders(self):
        assert SchemeConfig("crank_nicolson").theta == 0.5


class TestStepping:
    def test_boundary_rows_exact_after_step(self, n2_bundle, small_policy,
                                             small_scheme):
        params, datum = n2_bundle
        grid = small_policy.build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        u1 = step(prob.u0eps.values, 0.0, 2e-3, prob, grid, small_scheme)
        assert u1[0] == prob.inner_bc(2e-3)
        assert u1[-1] == prob.outer_bc()

    def test_one_step_stays_in_envelope(self, n2_bundle, small_policy,
                                        small_scheme):
        params, datum = n2_bundle
        grid = small_policy.build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        dt = 2e-3
        u1 = step(prob.u0eps.values, 0.0, dt, prob, grid, small_scheme)
        tol = 10.0 * dt * grid.h_max
        us = analytic.u_star(params, grid.nodes)
        v1 = analytic.v_mode(params, grid.nodes, dt)
        assert np.max(u1 - us) <= tol
        assert np.max((us - v1) - u1) <= tol

    def test_consistency_order_of_step(self, n2_field, small_scheme):
        # (next - current)/dt must approach the discrete right-hand side at
        # first order or better as dt -> 0.  Start from a relaxed state: the
        # initial bridge near the inner boundary is a stiff feature that one
        # implicit step flattens entirely, which masks the dt-order.
        prob, grid = n2_field.problem, n2_field.grid
        k0 = np.searchsorted(n2_field.times, 0.1)
        t0 = float(n2_field.times[k0])
        u0 = n2_field.values[k0]
        stepper = solver._Stepper(prob, grid, small_scheme)
        f0 = stepper.operator(u0)[0]
        errs = []
        for dt in (4e-4, 2e-4):
            u1 = step(u0, t0, dt, prob, grid, small_scheme)
            rate = (u1 - u0) / dt
            errs.append(np.max(np.abs(rate[1:-1] - f0)))
        assert np.log2(errs[0] / errs[1]) > 0.8

    @pytest.mark.parametrize("time_stepper", ["implicit_euler", "crank_nicolson"])
    @pytest.mark.parametrize("tapered", [False, True])
    def test_interior_newton_system_bitwise_equals_full_array_formulas(
            self, n2_field, time_stepper, tapered):
        """The residual and Jacobian diagonals the stepper forms on the
        interior nodes have the bits of the full-array formulas
        (RadialGrid.gradient, LaplacianOperator.apply, Dirichlet rows), at
        every stored step of a solve, inside the exact-cube range or with
        u_r steepened past c* at one node."""
        prob, grid = n2_field.problem, n2_field.grid
        scheme = SchemeConfig(time_stepper, dt=2e-3)
        stepper = solver._Stepper(prob, grid, scheme)
        th, dt, cutoff = scheme.theta, scheme.dt, prob.cutoff
        op = discretize_operator(grid, prob.params.n)
        (d_m, d_0, d_p), _ = grid.derivative_weights

        def full_rhs(v):
            du = grid.gradient(v)
            f = cutoff.apply(du[1:-1])
            out = op.apply(v)
            out[1:-1] += v[1:-1] * f
            return out, du, f

        for k in range(1, n2_field.times.size):
            u_old, u = n2_field.values[k - 1], n2_field.values[k].copy()
            inner = prob.inner_bc(n2_field.times[k])
            if tapered:  # steepen u_r at node 59 to 1.2 c*
                du = grid.gradient(u)[1:-1]
                u[60] -= (1.2 * prob.c_star_eps + du[58]) / d_p[58]
            past = np.abs(grid.gradient(u)[1:-1]) > prob.c_star_eps
            assert np.count_nonzero(past) == tapered

            rhs_old = full_rhs(u_old)[0] if th < 1.0 else np.zeros_like(u_old)
            rhs, du, f = full_rhs(u)
            g_ref = u - u_old - dt * (th * rhs + (1.0 - th) * rhs_old)
            g_ref[0] = u[0] - inner
            g_ref[-1] = u[-1] - stepper.outer
            uf = u[1:-1] * cutoff.derivative(du[1:-1])
            bands_ref = np.zeros(u.size - 1), np.ones(u.size), np.zeros(u.size - 1)
            bands_ref[0][:-1] = -dt * th * (op.sub + uf * d_m)
            bands_ref[1][1:-1] = 1.0 - dt * th * (op.diag + f + uf * d_0)
            bands_ref[2][1:] = -dt * th * (op.sup + uf * d_p)

            old = (1.0 - th) * stepper.operator(u_old)[0] if th < 1.0 else 0.0
            g, du_in, f_in = stepper._residual(u, u_old[1:-1], old, inner, dt)
            bands = stepper._jacobian_banded(u, du_in, f_in, dt)
            assert g.tobytes() == g_ref.tobytes()
            assert [b.tobytes() for b in bands] == [b.tobytes() for b in bands_ref]

    def test_newton_failure_aborts_with_diagnostics(self, n2_bundle,
                                                    small_policy, monkeypatch):
        params, datum = n2_bundle
        grid = small_policy.build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        monkeypatch.setattr(solver, "NEWTON_TOL", 1e-30)
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
        monkeypatch.setattr(solver, "MAX_HALVINGS", 2)
        with pytest.raises(SolverAbort):
            solve_annulus(prob, grid, 0.01, SchemeConfig("implicit_euler", dt=2e-3))


class TestSolveAnnulus:
    def test_stationary_run_barely_drifts(self, c0_field):
        drift = np.max(np.abs(c0_field.values - c0_field.values[0][None, :]))
        dt = c0_field.times[1] - c0_field.times[0]
        assert drift <= 5.0 * (c0_field.grid.h_max ** 2 + dt)

    def test_boundary_traces_exact_at_all_times(self, n2_field):
        prob = n2_field.problem
        inner = np.array([prob.inner_bc(t) for t in n2_field.times])
        assert np.array_equal(n2_field.values[:, 0], inner)
        assert np.all(n2_field.values[:, -1] == prob.outer_bc())

    def test_cutoff_never_activates(self, n2_field):
        assert n2_field.max_abs_gradient < n2_field.problem.c_star_eps

    def test_deterministic_bit_identical(self, n2_bundle, small_policy,
                                         small_scheme):
        params, datum = n2_bundle
        grid = small_policy.build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        a = solve_annulus(prob, grid, 0.1, small_scheme)
        b = solve_annulus(prob, grid, 0.1, small_scheme)
        assert np.array_equal(a.values, b.values)

    def test_inner_bc_evaluated_once_per_step(self, n2_bundle, small_policy,
                                              small_scheme, monkeypatch):
        params, datum = n2_bundle
        grid = small_policy.build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        calls = []
        inner_bc = initdata.EpsilonProblem.inner_bc

        def counting(self, t):
            calls.append(t)
            return inner_bc(self, t)

        monkeypatch.setattr(initdata.EpsilonProblem, "inner_bc", counting)
        fld = solve_annulus(prob, grid, 0.1, small_scheme)
        assert len(calls) == fld.times.size - 1 == 50
        assert np.array_equal(calls, fld.times[1:])

    def test_values_in_apriori_box(self, n2_field):
        p = n2_field.problem.params
        v0 = analytic.v_mode(p, n2_field.grid.nodes, 0.0)
        bound = abs(analytic.u_star(p, p.R)) + np.max(v0)
        assert np.max(np.abs(n2_field.values)) <= bound + 1e-9

    def test_nan_field_leaves_apriori_box(self, n2_field):
        values = n2_field.values.copy()
        values[-1, 5] = np.nan
        nan_field = solver.SpacetimeField(
            grid=n2_field.grid, times=n2_field.times, values=values,
            problem=n2_field.problem, scheme_name=n2_field.scheme_name,
        )
        with pytest.raises(SolverAbort, match="a-priori box"):
            solver._check_apriori_box(nan_field)

    def test_grid_mismatch_rejected(self, n2_bundle, small_policy,
                                    small_scheme):
        params, datum = n2_bundle
        grid = small_policy.build(0.04, params.R)
        other = small_policy.build(0.05, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        with pytest.raises(ValueError):
            solve_annulus(prob, other, 0.1, small_scheme)

    def test_oversized_step_rejected(self, n2_bundle, small_policy,
                                     small_scheme):
        params, datum = n2_bundle
        grid = small_policy.build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        with pytest.raises(ValueError, match="horizon"):
            solve_annulus(prob, grid, 0.5 * small_scheme.dt,
                          small_scheme)

    def test_under_resolved_inner_decade_rejected(self, n2_bundle,
                                                  small_scheme):
        params, datum = n2_bundle
        # ungraded coarse grid: a single node inside [eps, 10 eps)
        grid = GridPolicy(30, 1.0).build(0.004, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.004, grid.nodes)
        with pytest.raises(ValueError, match="decade"):
            solve_annulus(prob, grid, 0.1, small_scheme)


class TestContinuation:
    def test_requires_strictly_decreasing_eps(self, n2_bundle, small_policy,
                                              small_scheme):
        params, datum = n2_bundle
        with pytest.raises(ValueError):
            next(continuation(params, datum, [0.02, 0.04], small_policy, 0.2,
                              small_scheme))

    def test_single_eps_degenerates_to_solve(self, n2_bundle, small_policy,
                                             small_scheme):
        params, datum = n2_bundle
        *_, res = continuation(params, datum, [0.04], small_policy, 0.2,
                                small_scheme)
        grid = small_policy.build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        direct = solve_annulus(prob, grid, 0.2, small_scheme)
        assert np.array_equal(res.fields[0].values, direct.values)
        assert res.consecutive_diffs == []

    def test_limit_field_has_origin_appended(self, n2_bundle, small_policy,
                                             small_scheme):
        params, datum = n2_bundle
        *_, res = continuation(params, datum, [0.05, 0.04], small_policy, 0.2,
                                small_scheme)
        lim = solver.limit_estimate(res.finest)
        assert lim.grid.nodes[0] == 0.0
        rows = lim.values[:]
        assert np.all(rows[:, 0] == 0.0)
        assert np.array_equal(rows[:, 1:], res.finest.values)

    def test_yields_after_each_radius_and_the_abort(self, n2_bundle,
                                                   small_policy, small_scheme,
                                                   monkeypatch):
        """One result is yielded after each radius, with the radius's
        consecutive difference already taken; an abort is yielded last,
        with the fields solved before it."""
        params, datum = n2_bundle
        original = solver.solve_annulus

        def aborting(problem, grid, T, scheme):
            if problem.epsilon == 0.03:
                raise solver.SolverAbort("injected abort", eps=0.03,
                                         step_index=0, time=0.0)
            return original(problem, grid, T, scheme)

        monkeypatch.setattr(solver, "solve_annulus", aborting)
        seen = [(len(res.fields), len(res.consecutive_diffs), res.aborted)
                for res in continuation(params, datum, [0.05, 0.04, 0.03, 0.02],
                                        small_policy, 0.2, small_scheme)]
        assert [(f, d) for f, d, _ in seen] == [(1, 0), (2, 1), (2, 1)]
        assert seen[0][2] is None and seen[1][2] is None
        assert seen[2][2].eps == 0.03

    def test_diffs_decrease_on_geometric_sequence(self, n2_bundle,
                                                  small_policy, small_scheme):
        params, datum = n2_bundle
        T = 2.0 / params.decay_rate
        *_, res = continuation(params, datum, [0.04, 0.02, 0.01], small_policy, T,
                                small_scheme)
        d = res.consecutive_diffs
        assert len(d) == 2 and d[1] < d[0]

    def test_eps_reaching_into_window_rejected(self, n2_bundle, small_policy,
                                               small_scheme):
        params, datum = n2_bundle
        with pytest.raises(ValueError):
            next(continuation(params, datum, [0.1, 0.05], small_policy, 0.2,
                              small_scheme))


class TestRefinementConvergence:
    def test_field_converges_under_joint_refinement(self, n2_bundle):
        # halving h and dt together must shrink the change between
        # successive solutions on the compact window (order h^2 + dt)
        params, datum = n2_bundle
        T = 1.0 / params.decay_rate
        fields = []
        for M, dt in ((60, 4e-3), (120, 2e-3), (240, 1e-3)):
            policy = solver.GridPolicy(M, 2.0)
            grid = policy.build(0.04, params.R)
            prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
            fields.append(solve_annulus(
                prob, grid, T, SchemeConfig("implicit_euler", dt=dt)
            ))
        window_r = (0.1 * params.R, params.R)
        window_t = (0.25 * T, T)
        d1 = compact_difference(fields[0], fields[1], window_r, window_t)
        d2 = compact_difference(fields[1], fields[2], window_r, window_t)
        assert d2 < d1
        # violations measured by the suite must not grow under refinement
        for check in (verify.check_sandwich, verify.check_monotone):
            assert check(fields[2]).measured <= check(fields[1]).measured + 1e-12


class TestCompactDifference:
    def test_same_field_gives_zero(self, n2_field):
        p = n2_field.problem.params
        T = n2_field.times[-1]
        d = compact_difference(n2_field, n2_field, (0.1 * p.R, p.R),
                               (0.25 * T, T))
        assert d == 0.0

    def test_requires_shared_times(self, n2_field, n2_bundle, small_policy):
        params, datum = n2_bundle
        odd = solver.SchemeConfig("implicit_euler", dt=1.7e-3)
        grid = small_policy.build(0.04, params.R)
        prob = initdata.make_epsilon_problem(params, datum, 0.04, grid.nodes)
        other = solve_annulus(prob, grid, 0.05, odd)
        with pytest.raises(ValueError):
            compact_difference(n2_field, other, (0.1, 0.5), (0.01, 0.05))


BLOCK_ROWS = (1, solver.ROW_BLOCK - 1, solver.ROW_BLOCK, solver.ROW_BLOCK + 1,
              2 * solver.ROW_BLOCK + 3)
# and the stored times of an n2-standard field
LIMIT_ROWS = BLOCK_ROWS[:-1] + (1296,)


def _with_rows(fld, times, seed):
    """``fld`` with the given stored times and random values on its grid."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((times.size, fld.grid.nodes.size))
    return dataclasses.replace(fld, times=times, values=values)


class TestRowBlocks:
    """The row-blocked passes give the bits of the one-shot formulas and
    write into no field."""

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_compact_difference_equals_one_shot(self, rows, n2_field,
                                                n2_field_half_eps):
        times = np.linspace(0.0, 1.0, rows + 3)
        # b stores every time of a plus the midpoints inside the window
        extra = 0.5 * (times[3:] + times[2:-1])
        a = _with_rows(n2_field, times, rows)
        b = _with_rows(n2_field_half_eps, np.sort(np.concatenate((times, extra))),
                       rows + 1)
        r_window, t_window = (0.06, 0.6), (times[3], 1.0)
        radii = np.linspace(r_window[0], r_window[1], 201)
        in_a = (a.times >= t_window[0] - 1e-12) & (a.times <= t_window[1] + 1e-12)
        in_b = (b.times >= t_window[0] - 1e-12) & (b.times <= t_window[1] + 1e-12)
        common = np.intersect1d(a.times[in_a], b.times[in_b])
        assert common.size == rows
        va = solver._spline_at(a.grid.nodes, a.values[np.isin(a.times, common)], radii)
        vb = solver._spline_at(b.grid.nodes, b.values[np.isin(b.times, common)], radii)
        expected = float(np.max(np.abs(va - vb)))
        assert compact_difference(a, b, r_window, t_window).hex() == expected.hex()

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_gradient_equals_full_array_stencil(self, rows):
        g = GridPolicy(60, 2.0).build(0.03, 0.6)
        u = np.random.default_rng(rows).standard_normal((rows, g.nodes.size))
        u[0, :2], u[-1, -2:] = [np.nan, -0.0], [np.inf, 5e-324]
        (d_m, d_0, d_p), (index, weights) = g.derivative_weights
        full = np.empty_like(u)
        full[:, 1:-1] = d_m * u[:, :-2] + d_0 * u[:, 1:-1] + d_p * u[:, 2:]
        full[:, ::u.shape[-1] - 1] = (weights * u.take(index, axis=-1)).sum(axis=-2)
        assert g.gradient(u).tobytes() == full.tobytes()
        assert g.gradient(u.T.copy().T).tobytes() == full.tobytes()

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_verify_passes_equal_one_shot(self, rows, n2_field):
        """Each row-blocked pass of a check gives the bits of its formula
        on the whole field at once."""
        fld = _with_rows(n2_field, np.linspace(0.0, 1.0, rows + 1)[1:], rows)
        p, r, u, t = fld.problem.params, fld.grid.nodes, fld.values, fld.times
        grad = fld.grid.gradient(u)
        us = fld.u_star_row()
        v = analytic.v_mode(p, r[None, :], t[:, None])
        if rows > 1:  # its tolerance needs a step, so two stored times
            extra = verify.check_sandwich(fld).extra
            assert _bits(extra["upper_violation"], extra["lower_violation"]) == \
                _bits(np.max(u - us[None, :]), np.max((us[None, :] - v) - u))
        assert _bits(verify.check_monotone(fld).measured) == \
            _bits(max(float(np.max(grad)), 0.0))
        assert _bits(fld.max_abs_gradient) == _bits(np.max(np.abs(grad)))
        outer_lo = float(analytic.u_star_r(p, p.R))
        bands = max(0.0, float(np.max(grad[:, -1])),
                    outer_lo - float(np.min(grad[:, -1])),
                    float(np.max(grad[:, 0])),
                    -fld.problem.c_star_eps - float(np.min(grad[:, 0])))
        assert _bits(verify.check_boundary_bands(fld).measured) == _bits(bands)
        for power in (4, 28):
            w = np.clip(r - 0.05 * p.R, 0.0, None) ** (power + 3)
            assert _bits(verify._weighted_gradient_power(fld, power)) == \
                _bits(np.max(w[None, :] * grad ** power, axis=1))
        window = (r > 2.0 * fld.eps) & (r < p.R)
        q = 31.0 / 28.0
        assert _bits(verify.check_pointwise_gradient(fld).measured) == _bits(
            np.max(np.abs(grad[:, window]) * r[window][None, :] ** q))
        assert _bits(verify._distance_to_stationary(fld)) == \
            _bits(np.max(np.abs(u - us[None, :]), axis=1))
        radii = (0.3, 0.1, 0.05)
        masses = [np.trapezoid(np.abs(grad) @ verify._radial_volumes(fld, e), t)
                  / e for e in radii]
        assert _bits(verify._inner_masses(fld, radii)) == _bits(masses)
        assert _bits(verify.inner_mass_integral(fld, 0.1)) == _bits(masses[1])

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_weak_form_residuals_equal_one_shot(self, rows, n3_field):
        """Per row block, each ``@ wr`` product is its own matrix-vector
        product; regrouping its rows changes no bit."""
        fld = _with_rows(n3_field, np.linspace(0.0, 1.0, rows + 1)[1:], rows)
        r, u, t = fld.grid.nodes, fld.values, fld.times
        T = float(t[-1])
        ur = fld.grid.gradient(u)
        reaction = u * ur ** 3
        wt = (t * (T - t) / (T * T / 4.0)) ** 2
        wtp = 2.0 * (t * (T - t)) * (T - 2.0 * t) / (T * T / 4.0) ** 2
        wr = verify._radial_volumes(fld, np.inf)
        tfs = verify.default_test_functions(fld.problem.params)
        expected = []
        for tf in tfs:
            s, sp = tf.value(r), tf.derivative(r)
            lhs = -np.trapezoid(wtp * ((u * s[None, :]) @ wr), t)
            flux = -np.trapezoid(wt * ((ur * sp[None, :]) @ wr), t)
            react = np.trapezoid(wt * ((reaction * s[None, :]) @ wr), t)
            scale = abs(float(lhs)) + abs(float(flux)) + abs(float(react))
            expected.append((abs(float(lhs - flux - react)), scale))
        assert _bits(verify._weak_form_residuals(fld, tfs)) == _bits(expected)

    def test_decay_rate_takes_one_distance_pass(self, n2_field, monkeypatch):
        calls = []
        distance = verify._distance_to_stationary
        monkeypatch.setattr(verify, "_distance_to_stationary",
                            lambda fld: calls.append(fld) or distance(fld))
        res = verify.check_decay_rate(n2_field)
        assert len(calls) == 1
        assert res.measured == verify.fit_decay(n2_field).exponent

    def test_cutoff_inactive_writes_into_neither_field(self, n2_field):
        wide = dataclasses.replace(n2_field, values=n2_field.values + 1e-9)
        before = n2_field.values.tobytes(), wide.values.tobytes()
        for pair in ((n2_field, wide), (wide, n2_field), (n2_field, n2_field)):
            res = verify.check_cutoff_inactive(*pair)
            expected = np.max(np.abs(pair[0].values - pair[1].values))
            assert res.measured == expected
            assert (n2_field.values.tobytes(), wide.values.tobytes()) == before


def _bits(*values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _peak_bytes(fn):
    """Peak of the memory ``fn()`` allocates (numpy arrays included),
    measured on a second call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGuard:
    """A pass over a field holds the field's own arrays plus one block's
    working set, whatever the number of stored times."""

    LONG = 16  # the conftest n2 fields' rows, repeated this often

    def _long(self, fld):
        return _with_rows(fld, np.linspace(0.0, 1.0, self.LONG * fld.times.size), 0)

    def test_compact_difference_below_a_quarter_field(self, n2_field,
                                                      n2_field_half_eps):
        window = (0.06, 0.6), (0.0, 1.0)
        short = n2_field, n2_field_half_eps
        long = tuple(self._long(f) for f in short)
        peak_short, peak_long = (
            _peak_bytes(lambda: compact_difference(a, b, *window))
            for a, b in (short, long))
        assert peak_long < long[0].values.nbytes / 4
        # beyond one block's working set, a few numbers per stored time
        assert peak_long <= peak_short + 8 * long[0].times.nbytes

    def test_gradient_below_output_plus_a_quarter(self, n2_field):
        long = self._long(n2_field)
        extra_short, extra_long = (
            _peak_bytes(lambda: f.grid.gradient(f.values)) - f.values.nbytes
            for f in (n2_field, long))
        assert extra_long < long.values.nbytes / 4
        assert extra_long <= extra_short + 4096

    def test_field_holds_only_its_inputs(self, n2_field):
        assert [f.name for f in dataclasses.fields(n2_field)] == \
            ["grid", "times", "values", "problem", "scheme_name"]

    # entries that build one field of their own, a rerun; the limit's rows
    # are built a block at a time
    BUILD_A_FIELD = ("cutoff_inactive", "uniqueness")

    @pytest.mark.parametrize("name", list(verify.CHECKS))
    def test_check_below_a_quarter_field(self, name, n3_bundle, n3_field,
                                         monkeypatch):
        """Every CHECKS entry on a long field holds at most a quarter of a
        field beyond what it is given, plus the one field a rerun needs."""
        params, datum = n3_bundle
        long = self._long(n3_field)
        monkeypatch.setattr(solver, "solve_annulus", lambda *args:
                            dataclasses.replace(long, values=long.values.copy()))
        eps = long.eps
        config = SimpleNamespace(
            continuation=SimpleNamespace(eps_sequence=(2.0 * eps, eps),
                                         reference_eps=eps),
            scheme=SchemeConfig())
        run = SimpleNamespace(
            reference=long, params=params, datum=datum, horizon=1.0,
            config=config, continuation=solver.ContinuationResult(
                fields=[long], consecutive_diffs=[2e-3, 1e-3]))
        rows = verify.CHECKS[name][1]
        # every entry finds the radii it is judged at
        assert not any("not solved" in row.extra.get("reason", "")
                       for row in rows(run))
        budget = long.values.nbytes * (0.25 + (name in self.BUILD_A_FIELD))
        assert _peak_bytes(lambda: rows(run)) < budget

    @pytest.mark.parametrize("rows", LIMIT_ROWS)
    def test_limit_rows_equal_the_whole_copy(self, rows, n2_field):
        """The limit estimate's rows, read a block at a time or as every
        k-th row, are bitwise the finest field with the origin column
        prepended whole, and nothing keeps them: the estimate holds the
        field's own array, and a continuation has no limit attribute."""
        fld = _with_rows(n2_field, np.linspace(0.0, 1.0, rows), rows)
        whole = np.concatenate((np.zeros((rows, 1)), fld.values), axis=1)
        limit = solver.limit_estimate(fld)
        assert limit.grid.nodes.tobytes() == \
            np.concatenate(([0.0], fld.grid.nodes)).tobytes()
        assert limit.times is fld.times and limit.values.annulus is fld.values
        assert len(limit.values) == rows
        assert solver.blockwise_rows(lambda b: b, limit.values).tobytes() == \
            whole.tobytes()
        assert limit.values[::10].tobytes() == whole[::10].tobytes()
        assert limit.values[rows - 1].tobytes() == whole[-1].tobytes()
        with pytest.raises(TypeError):
            limit.values[:, 0]  # a column is no row request
        cont = solver.ContinuationResult(fields=[fld], consecutive_diffs=[])
        assert [f.name for f in dataclasses.fields(cont)] == \
            ["fields", "consecutive_diffs", "aborted"]
        assert not hasattr(cont, "limit")


def _same_bits(x, rows, radii):
    ours = solver._spline_at(x, rows, radii)
    theirs = CubicSpline(x, rows, axis=1)(radii)
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


class TestSplineAt:
    """solver._spline_at is bitwise scipy's not-a-knot CubicSpline."""

    RADII = np.linspace(0.06, 0.6, 201)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.04, 0.02, 0.01, 0.005])
    def test_graded_grids(self, eps, gamma):
        x = GridPolicy(400, gamma).build(eps, 0.6).nodes
        rows = np.random.default_rng(7).standard_normal((9, x.size))
        assert _same_bits(x, rows, self.RADII)

    def test_solved_fields_and_origin_limit_grid(self, n2_field,
                                                 n2_field_half_eps):
        limit = solver.limit_estimate(n2_field_half_eps)
        for fld in (n2_field, n2_field_half_eps, limit):
            assert _same_bits(fld.grid.nodes, fld.values[:], self.RADII)

    def test_radii_at_knots_and_both_ends(self):
        x = np.concatenate(([0.0], GridPolicy(400, 2.0).build(0.01, 0.6).nodes))
        rows = np.random.default_rng(3).standard_normal((4, x.size))
        radii = np.concatenate((x, [x[0], x[-1]], 0.5 * (x[1:] + x[:-1])))
        assert _same_bits(x, rows, radii)
        # every knot but the last starts its interval, so z = 0 there
        assert np.array_equal(solver._spline_at(x, rows, x)[:, :-1],
                              rows[:, :-1])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 60),
           times=st.integers(1, 5))
    def test_random_rows_and_knots(self, seed, m, times):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(1e-3, 1.0, m))
        rows = rng.standard_normal((times, m)) * 10.0 ** rng.uniform(-6, 6)
        radii = np.sort(rng.uniform(x[0], x[-1], 50))
        assert _same_bits(x, rows, radii)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        x = GridPolicy(400, 2.0).build(0.02, 0.6).nodes
        rows = np.zeros((3, x.size))
        rows[1, 17] = bad
        with pytest.raises(ValueError):
            CubicSpline(x, rows, axis=1)
        with pytest.raises(ValueError):
            solver._spline_at(x, rows, self.RADII)
