"""Initial data families, the annulus bridge, the gradient ceiling, the cutoff."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradsing import analytic, initdata as initdata_module
from gradsing.analytic import RadialProfile, make_params
from gradsing.initdata import (
    CutoffCubic,
    InitialDataError,
    InitialDatum,
    c_star_eps,
    choose_amplitude_C,
    make_epsilon_problem,
    make_initial_datum,
    make_u0eps,
    validate_initial_datum,
)


@pytest.fixture(scope="module")
def params():
    return make_params(2, R=0.6, C=0.25)


@pytest.fixture(scope="module")
def datum(params):
    return make_initial_datum(params, "mode_deficit", k=2.0, amplitude=params.C)


@pytest.fixture(scope="module")
def params_fitted(params, datum):
    return dataclasses.replace(params, C=choose_amplitude_C(params, datum))


def graded_nodes(eps, R, M=400, gamma=2.0):
    return eps + (R - eps) * (np.arange(M + 1) / M) ** gamma


class TestFamilies:
    def test_mode_deficit_validates(self, params, datum):
        report = validate_initial_datum(params, datum)
        assert report.all_passed()
        # blend factor vanishes at R, so the outer value matches exactly
        assert datum.profile.values[-1] == analytic.u_star(params, params.R)

    def test_polynomial_blend_validates(self, params):
        d = make_initial_datum(params, "polynomial_blend", k=2.0, amplitude=0.1)
        assert validate_initial_datum(params, d).all_passed()

    def test_degenerate_blend_is_stationary(self, params):
        d = make_initial_datum(params, "polynomial_blend", k=2.0, amplitude=0.0)
        r = d.profile.grid
        assert np.array_equal(d.profile.values, analytic.u_star(params, r))
        closeness = validate_initial_datum(params, d)["origin_closeness"]
        assert closeness.measured == 0.0

    def test_aggressive_amplitude_rejected_naming_slope(self, params):
        # the deficit recovers faster near R than the stationary slope allows
        with pytest.raises(InitialDataError, match="slope_envelope"):
            make_initial_datum(dataclasses.replace(params, C=1.0),
                               "mode_deficit", k=2.0, amplitude=1.0)

    def test_untapered_deficit_rejected_naming_outer_boundary(self, params):
        with pytest.raises(InitialDataError, match="outer_boundary_match"):
            make_initial_datum(params, "mode_deficit", k=0.0,
                               amplitude=params.C)

    @pytest.mark.parametrize("k", [-1.0, -0.5, float("nan")])
    def test_negative_blend_exponent_rejected(self, params, k):
        """k < 0 (or NaN) is not run as the untapered k = 0; the message
        names it."""
        with pytest.raises(ValueError, match="^blend exponent must be nonnegative$"):
            make_initial_datum(params, "mode_deficit", k=k, amplitude=0.1)

    @pytest.mark.parametrize("family", ["mode_deficit", "polynomial_blend"])
    def test_family_is_its_closed_form_bitwise(self, params, family):
        """u* - a psi (1 - (r/R)^k) and u* - a r^q (1 - (r/R)^k), q = n -
        3/2 + nu, and their slopes, in this float association."""
        a, k, R = 0.1, 3.0, params.R
        d = make_initial_datum(params, family, k=k, amplitude=a)
        r = d.profile.grid
        if family == "mode_deficit":
            s, ds = analytic.psi(params, r), analytic.psi_prime(params, r)
        else:
            q = params.n - 1.5 + params.nu
            s, ds = r ** q, q * r ** (q - 1.0)
        b, db = 1.0 - (r / R) ** k, -k * r ** (k - 1.0) / R ** k
        assert np.array_equal(d.value(r), analytic.u_star(params, r) - a * s * b)
        assert np.array_equal(
            d.slope(r), analytic.u_star_r(params, r) - a * (ds * b + s * db))
        assert np.array_equal(d.profile.values, d.value(r))
        assert np.array_equal(d.profile.derivative, d.slope(r))

    def test_unknown_family_rejected(self, params):
        with pytest.raises(ValueError):
            make_initial_datum(params, "squares", k=2.0, amplitude=0.1)


class TestValidator:
    @pytest.mark.parametrize("shift, growth, passed", [(0.0, 1.0, True),
                                                       (-0.5, 10 ** 0.5, False)])
    def test_origin_closeness_judges_what_it_measures(self, params, shift,
                                                      growth, passed):
        """The row reports the decade growth of r^(3/2-n-nu) (u* - u0) that
        its verdict compares with 2; the finest decade's bound is extra."""
        r = np.geomspace(1e-4 * params.R, params.R, 1200)
        q = params.n - 1.5 + params.nu + shift
        b, db = 1.0 - (r / params.R) ** 2, -2.0 * r / params.R ** 2
        profile = RadialProfile(
            grid=r, values=analytic.u_star(params, r) - 0.1 * r ** q * b,
            derivative=analytic.u_star_r(params, r)
            - 0.1 * (q * r ** (q - 1.0) * b + r ** q * db))
        row = validate_initial_datum(params, InitialDatum(
            profile=profile, value=None, slope=None))["origin_closeness"]
        assert row.measured == pytest.approx(growth, rel=0.02)
        assert row.passed is passed
        assert row.passed == (row.measured <= row.tolerance)
        w = r ** (1.5 - params.n - params.nu) * 0.1 * r ** q * b
        assert row.extra["bound"] == pytest.approx(
            np.max(np.abs(w[r <= 10.0 * r[0]])), rel=1e-12)

    def test_slope_envelope_reports_its_constant(self, params, datum):
        row = validate_initial_datum(params, datum)["slope_envelope"]
        r = datum.profile.grid
        constant = np.max(-datum.profile.derivative * r ** (2.0 / 3.0))
        assert row.extra["slope_constant"] == constant
        assert 0.0 < constant < np.inf

    def test_slope_envelope_rejects_a_growing_constant(self, params, datum):
        """u0 = u* - 0.05 r^0.2 (1 - (r/R)^2) has a finite slope on every
        grid, but r^(2/3) |u0'| grows like r^(-2/15) toward the origin: it
        gains 1.9% over the finest decade, beyond the 1% allowed."""
        r = np.geomspace(1e-4 * params.R, params.R, 1200)
        b, db = 1.0 - (r / params.R) ** 2, -2.0 * r / params.R ** 2
        profile = RadialProfile(
            grid=r, values=analytic.u_star(params, r) - 0.05 * r ** 0.2 * b,
            derivative=analytic.u_star_r(params, r)
            - 0.05 * (0.2 * r ** -0.8 * b + r ** 0.2 * db))
        row = validate_initial_datum(params, InitialDatum(
            profile=profile, value=None, slope=None))["slope_envelope"]
        assert row.extra["slope_growth"] == pytest.approx(1.019, abs=1e-3)
        assert row.passed is False
        assert row.measured <= row.tolerance  # nonincreasing all the same
        ok = validate_initial_datum(params, datum)["slope_envelope"]
        assert ok.passed is True and ok.extra["slope_growth"] <= 1.0

    def test_stationary_profile_passes_all(self, params):
        r = np.geomspace(1e-4 * params.R, params.R, 1200)
        d = InitialDatum(
            profile=RadialProfile(
                grid=r,
                values=analytic.u_star(params, r),
                derivative=analytic.u_star_r(params, r),
            ),
            value=lambda x: analytic.u_star(params, x),
            slope=lambda x: analytic.u_star_r(params, x),
        )
        assert validate_initial_datum(params, d).all_passed()

    def test_full_mode_deficit_fails_outer_match_only(self, params):
        # u0 = u* - v(.,0) with a small amplitude keeps every condition
        # except the exact outer boundary value
        p = dataclasses.replace(params, C=0.05)
        r = np.geomspace(1e-4 * p.R, p.R, 1200)
        val = lambda x: analytic.u_star(p, x) - analytic.v_mode(p, x, 0.0)
        slo = lambda x: analytic.u_star_r(p, x) - analytic.v_mode_r(p, x, 0.0)
        d = InitialDatum(
            profile=RadialProfile(grid=r, values=val(r), derivative=slo(r)),
            value=val,
            slope=slo,
        )
        report = validate_initial_datum(p, d)
        failed = {c.name for c in report.failures()}
        assert failed == {"outer_boundary_match"}

    def test_kink_fails_regularity(self, params):
        r = np.geomspace(1e-4 * params.R, params.R, 1200)
        kink = 0.02 * np.maximum(r - params.R / 2.0, 0.0)
        values = analytic.u_star(params, r) - kink
        deriv = analytic.u_star_r(params, r) - 0.02 * (r > params.R / 2.0)
        # restore the exact boundary value so only the kink can fail
        values[-1] = analytic.u_star(params, params.R)
        d = InitialDatum(
            profile=RadialProfile(grid=r, values=values, derivative=deriv),
            value=None,
            slope=None,
        )
        report = validate_initial_datum(params, d)
        assert not report["interior_regularity"].passed


class TestAmplitudeChoice:
    def test_stationary_datum_needs_no_mode(self, params):
        d = make_initial_datum(params, "polynomial_blend", k=2.0, amplitude=0.0)
        assert choose_amplitude_C(params, d) == 0.0

    def test_blend_amplitude_finite_and_dominating(self, params):
        d = make_initial_datum(params, "polynomial_blend", k=2.0, amplitude=0.1)
        C = choose_amplitude_C(params, d)
        assert C > 0.0
        p = dataclasses.replace(params, C=C)
        r = d.profile.grid
        lower = analytic.u_star(p, r) - analytic.v_mode(p, r, 0.0)
        assert np.all(d.profile.values >= lower - 1e-12)

    def test_mode_deficit_amplitude_below_margin(self, params, datum):
        # deficit <= amplitude * psi pointwise, so the fit is <= 1.05 * 0.25
        C = choose_amplitude_C(params, datum)
        assert 0.0 < C <= 1.05 * 0.25 + 1e-12


class TestGradientCeiling:
    def test_all_conditions_hold_at_value_and_fail_below(self, params_fitted, datum):
        eps = 0.05
        nodes = graded_nodes(eps, params_fitted.R)
        u0e = make_u0eps(params_fitted, eps, datum, nodes)
        c = c_star_eps(params_fitted, eps, u0e)
        p = params_fitted

        def conditions(cc):
            c_v = p.lam ** 2 * analytic.v_mode(p, eps, 0.0)
            return (
                cc > (p.alpha / 3.0) * eps ** (-2.0 / 3.0),
                cc
                > np.max(
                    np.abs(
                        analytic.u_star_r(p, nodes) - analytic.v_mode_r(p, nodes, 0.0)
                    )
                ),
                cc > np.max(np.abs(u0e.derivative)),
                c_v + (p.n - 1) / eps * cc + analytic.u_star(p, eps) * cc ** 3 <= 0,
            )

        assert all(conditions(c))
        assert not all(conditions(c / 1.05))
        assert c > 1.0

    def test_ceiling_diverges_like_stationary_slope(self, params_fitted, datum):
        values = {}
        for eps in (0.04, 0.02, 0.01, 0.005):
            nodes = graded_nodes(eps, params_fitted.R)
            u0e = make_u0eps(params_fitted, eps, datum, nodes)
            values[eps] = c_star_eps(params_fitted, eps, u0e)
            floor = (params_fitted.alpha / 3.0) * eps ** (-2.0 / 3.0)
            assert values[eps] > floor
        assert values[0.005] > values[0.01] > values[0.02] > values[0.04]


    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("eps", [0.04, 0.005])
    def test_problem_ceiling_meets_every_condition(self, n, eps):
        """The ceiling of a built annulus problem exceeds 1 and the three
        slope bounds and satisfies the cubic inner-boundary inequality."""
        p0 = make_params(n, R=0.6, C=0.2)
        datum_n = make_initial_datum(p0, "mode_deficit", k=2.0,
                                     amplitude=p0.C)
        p = dataclasses.replace(p0, C=choose_amplitude_C(p0, datum_n))
        problem = make_epsilon_problem(p, datum_n, eps, graded_nodes(eps, p.R))
        bounds, cubic_ok = initdata_module._ceiling_conditions(
            p, eps, problem.u0eps)
        c = problem.c_star_eps
        assert c > 1.0 and c > max(bounds) and cubic_ok(c)


class TestAnnulusDatum:
    @pytest.mark.parametrize("eps", [0.04, 0.02, 0.01])
    def test_five_one_conditions_nodewise(self, params_fitted, datum, eps):
        p = params_fitted
        nodes = graded_nodes(eps, p.R)
        u0e = make_u0eps(p, eps, datum, nodes)
        A = analytic.u_star(p, eps) - analytic.v_mode(p, eps, 0.0)
        tol = 1e-12 * max(1.0, abs(A))
        # (a) exact inner value
        assert u0e.values[0] == A
        # (b) derivative squeeze
        u0r = datum.slope(nodes)
        assert np.all(u0e.derivative <= tol)
        assert np.all(u0e.derivative >= u0r - tol)
        # (c) comparison envelope
        assert np.all(u0e.values <= analytic.u_star(p, nodes) + tol)
        assert np.all(
            u0e.values >= analytic.u_star(p, nodes) - analytic.v_mode(p, nodes, 0.0) - tol
        )
        # (d) exact match on the matching set
        matching = datum.value(nodes) < A - eps
        assert matching.any()
        assert np.array_equal(u0e.values[matching], datum.value(nodes)[matching])

    def test_monotone_nonincreasing_nodewise(self, params_fitted, datum):
        nodes = graded_nodes(0.02, params_fitted.R)
        u0e = make_u0eps(params_fitted, 0.02, datum, nodes)
        assert np.all(np.diff(u0e.values) <= 1e-14)

    def test_matches_datum_away_from_origin_for_small_eps(self, params_fitted, datum):
        # the matching set swallows [0.1 R, R] once eps is small
        p = params_fitted
        for eps in (0.04, 0.02, 0.01):
            nodes = graded_nodes(eps, p.R)
            u0e = make_u0eps(p, eps, datum, nodes)
            sel = nodes >= 0.1 * p.R
            assert np.max(np.abs(u0e.values[sel] - datum.value(nodes[sel]))) == 0.0

    def test_oversized_eps_reports_empty_matching_set(self, params_fitted, datum):
        p = params_fitted
        eps = 0.99 * p.R
        nodes = graded_nodes(eps, p.R, M=50)
        with pytest.raises(InitialDataError, match="matching set"):
            make_u0eps(p, eps, datum, nodes)


class TestCutoff:
    def test_exact_cube_inside(self):
        co = CutoffCubic(c_star=2.0, support_radius=4.0)
        s = np.linspace(-2.0, 2.0, 401)
        assert np.array_equal(co.apply(s), s ** 3)
        assert co.apply(1.0) == 1.0

    def test_compact_support(self):
        co = CutoffCubic(c_star=2.0, support_radius=4.0)
        assert co.apply(-12.0) == 0.0
        assert co.apply(7.3) == 0.0

    def test_taper_preserves_sign_and_bounds(self):
        co = CutoffCubic(c_star=2.0, support_radius=4.0)
        s = -3.0  # inside the negative taper
        val = co.apply(s)
        assert s ** 3 <= val <= 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s=st.floats(-100.0, 100.0), c=st.floats(1.1, 30.0))
    def test_odd_sign_property(self, s, c):
        co = CutoffCubic(c_star=c, support_radius=2 * c)
        val = co.apply(s)
        assert val * s >= 0.0 or (s == 0.0 and val == 0.0)
        assert abs(val) <= abs(s) ** 3 + 1e-9

    def test_monotone_on_exact_range(self):
        co = CutoffCubic(c_star=3.0, support_radius=6.0)
        s = np.linspace(-3.0, 3.0, 500)
        assert np.all(np.diff(co.apply(s)) >= 0.0)

    def test_derivative_matches_finite_differences(self):
        co = CutoffCubic(c_star=2.0, support_radius=4.0)
        s = np.linspace(-5.0, 5.0, 801)
        h = 1e-6
        fd = (co.apply(s + h) - co.apply(s - h)) / (2 * h)
        assert np.max(np.abs(co.derivative(s) - fd)) < 1e-4

    def test_requires_plateau_above_one(self):
        with pytest.raises(ValueError):
            CutoffCubic(c_star=0.5, support_radius=1.0)

    @staticmethod
    def _taper_formula(co, s):
        """apply and derivative by the full taper formula, written out."""
        w = co.support_radius - co.c_star
        sigma = (np.abs(s) - co.c_star) / w
        x = np.clip(sigma, 0.0, 1.0)
        smooth = x ** 3 * (6.0 * x * x - 15.0 * x + 10.0)
        smooth_prime = np.where((sigma > 0.0) & (sigma < 1.0),
                                30.0 * x * x * (x - 1.0) ** 2, 0.0)
        value = s ** 3 * (1.0 - smooth)
        slope = 3.0 * s ** 2 * (1.0 - smooth) - np.abs(s) ** 3 * smooth_prime / w
        return value, slope

    def test_exact_cube_path_bitwise_equals_taper_formula(self):
        c = 7.123456789
        co = CutoffCubic(c_star=c, support_radius=2.0 * c)
        rng = np.random.default_rng(3)
        s = np.concatenate((
            rng.uniform(-c, c, 997), np.linspace(-c, c, 41),
            [c, -c, 0.0, -0.0, 5e-324, np.nextafter(c, 0.0), 1.0]))
        assert np.max(np.abs(s)) == c
        value, slope = self._taper_formula(co, s)
        assert co.apply(s).tobytes() == value.tobytes()
        assert co.derivative(s).tobytes() == slope.tobytes()

    def test_one_node_past_ceiling_is_tapered(self):
        c = 7.123456789
        co = CutoffCubic(c_star=c, support_radius=2.0 * c)
        s = np.array([-c, 0.5, -3.0, np.nextafter(c, np.inf), 9.5, c])
        value, slope = self._taper_formula(co, s)
        assert co.apply(s).tobytes() == value.tobytes()
        assert co.derivative(s).tobytes() == slope.tobytes()
        assert co.apply(s)[4] < 9.5 ** 3
        assert np.isnan(co.apply(np.array([1.0, np.nan]))[1])

    def test_nan_node_takes_the_taper_formula(self, monkeypatch):
        """One NaN among nodes inside [-c*, c*] fails the exact-cube test,
        so both apply and derivative evaluate the taper."""
        c = 7.123456789
        co = CutoffCubic(c_star=c, support_radius=2.0 * c)
        s = np.array([-c, -3.0, np.nan, 0.5, c])
        assert not co.exact_cube(s)
        calls = []
        smooth = initdata_module._smoothstep
        monkeypatch.setattr(initdata_module, "_smoothstep",
                            lambda x: calls.append(x) or smooth(x))
        value, slope = self._taper_formula(co, s)
        assert np.array_equal(co.apply(s), value, equal_nan=True)
        assert np.array_equal(co.derivative(s), slope, equal_nan=True)
        assert len(calls) == 2
        assert np.isnan(co.apply(s)[2]) and np.isnan(co.derivative(s)[2])


class TestEpsilonProblem:
    def test_assembles_and_exposes_boundary_closures(self, params_fitted, datum):
        p = params_fitted
        nodes = graded_nodes(0.02, p.R)
        prob = make_epsilon_problem(p, datum, 0.02, nodes)
        assert prob.inner_bc(0.0) == pytest.approx(
            analytic.u_star(p, 0.02) - analytic.v_mode(p, 0.02, 0.0), abs=1e-15
        )
        assert prob.outer_bc() == analytic.u_star(p, p.R)
        assert prob.u0eps.values[0] == prob.inner_bc(0.0)
        # inner boundary value rises toward u*(eps) as the mode decays
        assert prob.inner_bc(10.0) > prob.inner_bc(0.0)
        assert prob.c_star_eps > 1.0
        assert prob.cutoff.support_radius == pytest.approx(2 * prob.c_star_eps)
        # the ceiling is stored once, in the cutoff
        assert prob.c_star_eps == prob.cutoff.c_star == c_star_eps(
            p, 0.02, prob.u0eps)
        assert [f.name for f in dataclasses.fields(prob)] == [
            "params", "epsilon", "cutoff", "u0eps"]

    def test_inner_bc_bitwise_equals_subsolution_trace(self, params_fitted, datum):
        p = params_fitted
        prob = make_epsilon_problem(p, datum, 0.02, graded_nodes(0.02, p.R))
        for t in (0.0, 1e-3, 0.37, 5.0, 0.37):
            expected = analytic.u_star(p, 0.02) - analytic.v_mode(p, 0.02, t)
            assert np.float64(prob.inner_bc(t)).tobytes() == \
                np.float64(expected).tobytes()
