"""Property suite mechanics, including the deliberate negative tests."""

import dataclasses

import numpy as np
import pytest

from gradsing import analytic, solver, specfn, verify
from gradsing.report import decreasing, within
from gradsing.verify import ExponentFit


def tampered(field, **changes):
    """Copy of a field with modified values (for negative tests)."""
    values = changes.pop("values")
    return dataclasses.replace(field, values=values, **changes)


class TestWithin:
    """The one rule of the upper-bound rows: measured <= tolerance."""

    def test_equality_at_the_bound_passes(self):
        res = within("row", "claim", 0.25, 0.25)
        assert res.passed is True
        assert (res.status, res.extra) == ("ok", {})

    @pytest.mark.parametrize("measured", [np.nextafter(0.25, 1.0), np.nan, np.inf])
    def test_above_the_bound_or_nan_fails(self, measured):
        assert within("row", "claim", measured, 0.25).passed is False

    def test_passed_is_a_python_bool_for_numpy_values(self):
        assert type(within("row", "claim", np.float64(1.0), 2.0).passed) is bool

    def test_keywords_land_in_extra(self):
        res = within("row", "claim", 1.0, 2.0, scale=3.0, schemes=("a", "b"))
        assert res.extra == {"scale": 3.0, "schemes": ("a", "b")}
        assert (res.name, res.claim, res.measured, res.tolerance) == (
            "row", "claim", 1.0, 2.0)


class TestDecreasing:
    """The one rule of the falling-sequence rows: each value below the one
    before, over at least two values."""

    def test_strict_fall_passes_with_the_ends_as_cells(self):
        res = decreasing("row", "claim", [3.0, 2.0, 1.0], values=[3.0])
        assert res.passed is True
        assert (res.measured, res.tolerance) == (1.0, 3.0)
        assert (res.status, res.extra) == ("ok", {"values": [3.0]})

    def test_equal_neighbours_fail(self):
        assert decreasing("row", "claim", [3.0, 2.0, 2.0]).passed is False

    @pytest.mark.parametrize("seq", [[np.nan, 2.0, 1.0], [3.0, np.nan, 1.0],
                                     [3.0, 2.0, np.nan]])
    def test_a_nan_anywhere_fails(self, seq):
        assert decreasing("row", "claim", seq).passed is False

    def test_one_value_fails_with_both_cells_that_value(self):
        res = decreasing("row", "claim", [0.5])
        assert res.passed is False
        assert (res.measured, res.tolerance) == (0.5, 0.5)

    def test_empty_sequence_gives_nan_cells(self):
        res = decreasing("row", "claim", [])
        assert res.passed is False
        assert np.isnan(res.measured) and np.isnan(res.tolerance)

    def test_passed_is_a_python_bool_for_numpy_values(self):
        for seq in (np.array([2.0, 1.0]), np.array([1.0, 2.0]), np.array([1.0])):
            assert type(decreasing("row", "claim", seq).passed) is bool


class TestSandwich:
    def test_standard_run_passes(self, n2_field):
        res = verify.check_sandwich(n2_field)
        assert res.passed
        assert res.measured <= res.tolerance

    def test_stationary_run_violations_at_rounding_level(self, c0_field):
        res = verify.check_sandwich(c0_field)
        assert res.passed

    def test_initial_slice_exact_by_construction(self, n2_field):
        us = n2_field.u_star_row()
        v0 = analytic.v_mode(n2_field.problem.params, n2_field.grid.nodes, 0.0)
        assert np.max(n2_field.values[0] - us) <= 0.0
        assert np.max((us - v0) - n2_field.values[0]) <= 1e-12

    def test_mode_evaluated_once_across_row_blocks(self, n2_field,
                                                    monkeypatch):
        """J_nu on the nodes is evaluated in the first row block and read
        from the shared memo in the others; the lower violation keeps the
        bits of the one-shot formula."""
        p = n2_field.problem.params
        times = np.linspace(0.0, float(n2_field.times[-1]),
                            3 * solver.ROW_BLOCK + 5)
        values = np.repeat(n2_field.values[-1:], times.size, axis=0)
        long = tampered(n2_field, values=values, times=times)
        orders = []
        raw = specfn._jv_raw
        monkeypatch.setattr(specfn, "_jv_raw",
                            lambda mu, x: orders.append(mu) or raw(mu, x))
        res = verify.check_sandwich(long)
        assert orders == [p.nu]
        r = n2_field.grid.nodes
        expected = np.max((long.u_star_row()
                           - analytic.v_mode(p, r[None, :], times[:, None]))
                          - values)
        assert res.extra["lower_violation"] == expected

    def test_synthetic_violation_detected(self, n2_field):
        bad = n2_field.values.copy()
        bad[5, 10] = 0.5  # far above the (negative) stationary profile
        res = verify.check_sandwich(tampered(n2_field, values=bad))
        assert not res.passed


class TestMonotone:
    def test_standard_run_passes(self, n2_field):
        assert verify.check_monotone(n2_field).passed

    def test_stationary_run_passes(self, c0_field):
        assert verify.check_monotone(c0_field).passed

    def test_synthetic_increase_detected(self, n2_field):
        bad = n2_field.values.copy()
        bad[3, 40:60] = bad[3, 40:60] + np.linspace(0, 0.3, 20)
        assert not verify.check_monotone(tampered(n2_field, values=bad)).passed


class TestGradientBox:
    def test_standard_run_within_ceiling(self, n2_field):
        res = verify.check_gradient_box(n2_field)
        assert res.passed
        assert res.measured < res.extra["ceiling"]

    def test_synthetic_blowup_detected(self, n2_field):
        """Only the values are tampered: the check must reconstruct the
        gradient from them rather than trust a stored maximum."""
        bad = n2_field.values.copy()
        c = n2_field.problem.c_star_eps
        h = np.diff(n2_field.grid.nodes)[50]
        bad[2, 51] = bad[2, 50] - 3.0 * c * h
        res = verify.check_gradient_box(tampered(n2_field, values=bad))
        assert not res.passed
        assert res.measured > res.tolerance == c

    def test_boundary_bands(self, n2_field):
        assert verify.check_boundary_bands(n2_field).passed


class TestCutoffRerun:
    def test_identical_fields_pass(self, n2_field):
        res = verify.check_cutoff_inactive(n2_field, n2_field)
        assert res.passed and res.measured == 0.0

    def test_differing_fields_fail(self, n2_field):
        bad = n2_field.values + 1e-6
        res = verify.check_cutoff_inactive(n2_field, tampered(n2_field, values=bad))
        assert not res.passed


class TestWeightedBernstein:
    @pytest.mark.parametrize("p", [4, 28])
    def test_affine_majorant_on_standard_run(self, n2_field, p):
        res = verify.check_weighted_bernstein(n2_field, p=p)
        assert res.passed
        assert res.extra["slope"] >= 0.0
        assert res.extra["intercept"] > 0.0
        # the lifted majorant really majorizes
        t = n2_field.times
        W_end = res.extra["steady_level"]
        assert res.extra["slope"] * t[-1] + res.extra["intercept"] >= W_end

    def test_stationary_run_flat_envelope(self, c0_field):
        res = verify.check_weighted_bernstein(c0_field, p=4)
        assert res.passed
        assert res.extra["steady_level"] == pytest.approx(
            res.extra["datum_level"], rel=1e-2
        )

    def test_odd_power_rejected(self, n2_field):
        with pytest.raises(ValueError):
            verify.check_weighted_bernstein(n2_field, p=5)


class TestPointwiseGradient:
    def test_bound_finite_and_stable_under_eps_halving(self, n2_field,
                                                       n2_field_half_eps):
        a = verify.check_pointwise_gradient(n2_field)
        b = verify.check_pointwise_gradient(n2_field_half_eps)
        assert a.passed and b.passed
        stab = verify.check_pointwise_stability(a, b)
        assert stab.passed

    def test_stationary_profile_weighted_slope_vanishes_at_origin(self):
        # |u*_r| r^(31/28) = (alpha/3) r^(31/28 - 2/3) -> 0, so the sup is
        # attained at the outer radius; exponent 31/28 > 2/3
        params = analytic.make_params(2, R=0.6, C=0.0)
        r = np.geomspace(1e-6, 0.6, 200)
        w = np.abs(analytic.u_star_r(params, r)) * r ** (31.0 / 28.0)
        assert np.argmax(w) == r.size - 1

    def test_synthetic_steeper_singularity_unstable(self, n2_field):
        # a -r^(-3/2) slope makes the weighted bound grow ~ (2 eps)^(-0.39)
        # under eps halving, which the stability check must flag
        def fake_bound(eps):
            return (2 * eps) ** (31.0 / 28.0 - 1.5)

        a = dataclasses.replace(
            verify.check_pointwise_gradient(n2_field),
            measured=fake_bound(0.04),
        )
        b = dataclasses.replace(a, measured=fake_bound(0.02))
        assert not verify.check_pointwise_stability(a, b).passed


class TestSingularityShape:
    def test_stationary_run_recovers_cube_root(self, c0_field):
        p = c0_field.problem.params
        fit = verify.fit_singularity(c0_field, c0_field.times[-1])
        assert fit.exponent == pytest.approx(-2.0 / 3.0, abs=5e-3)
        assert fit.prefactor == pytest.approx(p.alpha / 3.0, rel=2e-2)
        assert fit.r_squared > 0.999

    def test_standard_run_shape_check(self, n2_field):
        res = verify.check_singularity_shape(n2_field)
        assert res.passed
        assert all(r2 >= 0.99 for r2 in res.extra["r_squared"])

    def test_shape_functional_below_amplitude(self, n2_field):
        res = verify.check_shape_functional(n2_field)
        assert res.passed

    def test_under_resolved_window_inconclusive(self, n2_field):
        # fake inner radius pushes the fit window beyond the grid entirely
        coarse = dataclasses.replace(
            n2_field,
            problem=dataclasses.replace(n2_field.problem, epsilon=0.35),
        )
        res = verify.check_singularity_shape(coarse)
        assert res.status == "inconclusive"
        assert res.extra["reason"] == \
            "singularity window under-resolved on this grid"
        bound = verify.check_pointwise_gradient(coarse)
        assert bound.status == "inconclusive"
        assert bound.extra["reason"] == "no node between 2 eps and R"


class TestDecay:
    def test_envelope_holds_at_every_time(self, n2_field):
        assert verify.check_decay_envelope(n2_field).passed

    def test_rate_at_least_mode_rate(self, n2_field):
        res = verify.check_decay_rate(n2_field)
        assert res.passed and res.status == "ok"
        assert res.measured >= 0.9 * n2_field.problem.params.decay_rate

    def test_stationary_run_rate_skipped(self, c0_field):
        res = verify.check_decay_rate(c0_field)
        assert res.status == "skipped" and res.passed
        assert res.extra["reason"] == "no mode: C = 0"

    def test_difference_at_floor_is_inconclusive_not_passed(self, n2_field):
        flat = np.broadcast_to(n2_field.u_star_row() + 1e-12,
                               n2_field.values.shape).copy()
        res = verify.check_decay_rate(tampered(n2_field, values=flat))
        assert res.status == "inconclusive"
        assert not res.passed
        assert res.extra["reason"] == "difference at the discretization floor"


class TestWeakIdentity:
    def test_dimension_two_skipped(self, n2_field):
        results = verify.check_weak_identity(n2_field)
        assert all(r.status == "skipped" for r in results)

    def test_dimension_three_residuals_small(self, n3_field):
        results = verify.check_weak_identity(n3_field)
        assert all(r.status == "ok" for r in results)
        for r in results:
            assert r.measured < 0.1 * r.extra["scale"]

    def test_rows_bitwise_equal_per_test_function_residuals(self, n3_field):
        """The check forms u u_r^3 once per row block for all test
        functions; each row keeps the bits of weak_form_residual, and of
        the identity with the reaction term written out per test
        function."""
        results = verify.check_weak_identity(n3_field)
        tfs = verify.default_test_functions(n3_field.problem.params)
        p, r, t = n3_field.problem.params, n3_field.grid.nodes, n3_field.times
        u, T = n3_field.values, t[-1]
        ur = n3_field.grid.gradient(u)
        wt = (t * (T - t) / (T * T / 4.0)) ** 2
        wtp = 2.0 * (t * (T - t)) * (T - 2.0 * t) / (T * T / 4.0) ** 2
        mid = np.concatenate(([r[0]], 0.5 * (r[1:] + r[:-1]), [r[-1]]))
        wr = (mid[1:] ** p.n - mid[:-1] ** p.n) / p.n
        assert [res.name for res in results] == \
            [f"weak_identity_{tf.name}" for tf in tfs]
        for res, tf in zip(results, tfs):
            s, sp = tf.value(r), tf.derivative(r)
            lhs = -np.trapezoid(wtp * ((u * s[None, :]) @ wr), t)
            flux = -np.trapezoid(wt * ((ur * sp[None, :]) @ wr), t)
            react = np.trapezoid(wt * ((u * ur ** 3 * s[None, :]) @ wr), t)
            written_out = (abs(float(lhs - flux - react)),
                           abs(float(lhs)) + abs(float(flux)) + abs(float(react)))
            row = (res.measured, res.extra["scale"])
            assert [x.hex() for x in row] == \
                [x.hex() for x in verify.weak_form_residual(n3_field, tf)] == \
                [x.hex() for x in written_out]

    def test_inner_mass_dimension_two_skipped(self, n2_field):
        res = verify.check_inner_mass(n2_field, [0.2, 0.1, 0.08])
        assert res.status == "skipped" and res.passed
        assert res.extra["reason"] == "needs dimension >= 3"

    def test_inner_mass_decreases(self, n3_field):
        res = verify.check_inner_mass(n3_field, [0.2, 0.1, 0.08])
        assert res.passed
        vals = res.extra["values"]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_inner_mass_one_radius_skipped(self, n3_field):
        """One radius leaves nothing to compare: skipped, never a pass
        whose measurement is its own tolerance."""
        res = verify.check_inner_mass(n3_field, [0.2])
        assert res.status == "skipped" and res.passed
        assert res.extra["reason"] == "needs at least 2 inner radii"
        assert np.isnan(res.measured) and np.isnan(res.tolerance)


class TestUniquenessSurrogate:
    def test_distinct_schemes_agree(self, n2_field, n2_field_cn):
        res = verify.check_uniqueness_surrogate(n2_field, n2_field_cn)
        assert res.passed
        assert res.extra["schemes"] == ("implicit_euler", "crank_nicolson")

    def test_different_data_disagree(self, n2_field, c0_field):
        res = verify.check_uniqueness_surrogate(n2_field, c0_field)
        assert not res.passed


class TestContinuationCauchy:
    def test_decreasing_sequence_passes(self):
        assert verify.check_continuation_cauchy([3e-4, 1e-4, 4e-5]).passed

    def test_non_monotone_fails(self):
        assert not verify.check_continuation_cauchy([3e-4, 4e-4, 1e-4]).passed

    def test_too_short_fails(self):
        assert not verify.check_continuation_cauchy([1e-4]).passed

    def test_nan_difference_fails(self):
        assert not verify.check_continuation_cauchy([3e-4, np.nan]).passed


class TestExponentFit:
    def test_r_squared_validated(self):
        with pytest.raises(ValueError):
            ExponentFit(exponent=1.0, prefactor=1.0, r_squared=1.5)
