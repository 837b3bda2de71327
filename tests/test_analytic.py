"""Closed-form layer: stationary profile, linear mode, subsolution, gate."""

import dataclasses

import numpy as np
import pytest
import scipy.special

from gradsing import analytic, specfn
from gradsing.analytic import AdmissibilityError, ModelParams, make_params


@pytest.fixture(scope="module")
def params_n2():
    return make_params(2, R=0.6, C=1.0)


@pytest.fixture(scope="module")
def params_by_n():
    return {
        n: make_params(n, R=min(0.6, 0.9 * analytic.radius_bound(n)), C=1.0)
        for n in range(2, 7)
    }


class TestStationaryProfile:
    def test_values(self, params_n2):
        assert analytic.u_star(params_n2, 1.0) == pytest.approx(
            -1.4422495703074084, abs=1e-12
        )
        p3 = make_params(3, R=0.6, C=0.0)
        assert analytic.u_star(p3, 0.5) == pytest.approx(
            -1.8171205928321397, abs=1e-12
        )

    def test_origin_value_and_limit(self, params_n2):
        assert analytic.u_star(params_n2, 0.0) == 0.0
        assert abs(analytic.u_star(params_n2, 1e-30)) < 1e-9

    def test_rejects_negative_radius(self, params_n2):
        with pytest.raises(ValueError):
            analytic.u_star(params_n2, -1.0)

    def test_derivative_matches_finite_difference(self, params_n2):
        for r in (0.05, 0.3, 0.55):
            h = 1e-6 * r
            fd = (
                analytic.u_star(params_n2, r + h) - analytic.u_star(params_n2, r - h)
            ) / (2 * h)
            assert analytic.u_star_r(params_n2, r) == pytest.approx(fd, rel=1e-8)


class TestStationaryResidual:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_residual_zero_relative_to_scale(self, n, params_by_n):
        p = params_by_n[n]
        r = np.geomspace(1e-6, 0.99 * p.R, 300)
        res = analytic.residual_stationary(p, r)
        scale = analytic.stationary_residual_scale(p, r)
        assert np.max(np.abs(res) / scale) < 1e-12

    def test_tiny_radius_amplification_is_harmless(self, params_n2):
        r = 1e-6
        res = analytic.residual_stationary(params_n2, r)
        scale = analytic.stationary_residual_scale(params_n2, r)
        assert abs(res) < 1e-12 * scale


class TestMode:
    def test_time_decay_factor(self, params_n2):
        v0 = analytic.v_mode(params_n2, 0.3, 0.0)
        v1 = analytic.v_mode(params_n2, 0.3, 1.0)
        assert v1 == pytest.approx(v0 * np.exp(-params_n2.lam ** 2), rel=1e-12)
        assert analytic.v_mode(params_n2, 0.3, 500.0) == pytest.approx(0.0, abs=1e-300)

    def test_vanishes_at_mode_root(self, params_n2):
        r_root = params_n2.x0 / params_n2.lam
        p_wide = params_n2  # r_root > R here; evaluate psi directly instead
        val = analytic.psi(p_wide, r_root)
        assert abs(val) < 1e-10

    def test_against_independent_series_evaluation(self, params_n2):
        # scipy's jv as the independent evaluator of the Bessel factor
        for r, t in [(0.1, 0.0), (0.35, 0.7), (0.59, 2.0)]:
            ref = (
                params_n2.C
                * np.exp(-params_n2.lam ** 2 * t)
                * r ** (params_n2.n - 1.5)
                * scipy.special.jv(params_n2.nu, params_n2.lam * r)
            )
            assert analytic.v_mode(params_n2, r, t) == pytest.approx(ref, abs=1e-10)

    def test_positive_inside_domain(self, params_n2):
        r = np.linspace(1e-6, params_n2.R * 0.999999, 1500)
        for t in (0.0, 0.5, 3.0):
            assert np.all(analytic.v_mode(params_n2, r, t) > 0.0)

    @pytest.mark.parametrize("call, message", [
        (lambda p: analytic.psi(p, -0.1), "radius must be nonnegative"),
        (lambda p: analytic.v_mode(p, -0.1, 0.0), "radius must be nonnegative"),
        (lambda p: analytic.v_mode_r(p, 0.1, -1.0), "time must be nonnegative"),
        (lambda p: analytic.v_mode_rr(p, 0.1, -1.0), "time must be nonnegative"),
    ], ids=["psi_r", "v_mode_r", "v_mode_r_t", "v_mode_rr_t"])
    def test_mode_functions_reject_inputs_outside_their_domain(self, call,
                                                               message):
        """A negative radius or time is an error in every mode function, as
        in u_star and v_mode(t), not a value; the origin stays psi = 0."""
        p = make_params(2, 0.6, 0.25)
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(p)
        assert analytic.psi(p, 0.0) == 0.0 == analytic.v_mode(p, 0.0, 0.0)

    def test_zero_amplitude_mode_vanishes(self):
        p = make_params(2, R=0.6, C=0.0)
        assert analytic.v_mode(p, 0.3, 1.0) == 0.0

    def test_closed_form_derivatives_vs_central_differences(self, params_n2):
        # halving h must show ~second-order error decay for v_r and v_t
        r, t = 0.31, 0.4
        exact_r = analytic.v_mode_r(params_n2, r, t)
        exact_t = analytic.v_mode_t(params_n2, r, t)
        errs_r, errs_t = [], []
        for h in (1e-3, 5e-4):
            fd_r = (
                analytic.v_mode(params_n2, r + h, t)
                - analytic.v_mode(params_n2, r - h, t)
            ) / (2 * h)
            fd_t = (
                analytic.v_mode(params_n2, r, t + h)
                - analytic.v_mode(params_n2, r, t - h)
            ) / (2 * h)
            errs_r.append(abs(fd_r - exact_r))
            errs_t.append(abs(fd_t - exact_t))
        assert np.log2(errs_r[0] / errs_r[1]) > 1.9
        assert np.log2(errs_t[0] / errs_t[1]) > 1.9


class TestBesselBits:
    """Each order of J is evaluated once per distinct argument, with the
    bits of separate public calls."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_triplet_on_probe_lattice_equals_row_by_row(self, n, params_by_n):
        p = params_by_n[n]
        r, _ = np.broadcast_arrays(*analytic.probe_lattice(p))
        order = specfn.BesselOrder(p.nu)
        lattice = analytic._bessel_triplet(p, r)
        assert r.shape == (4, 200)
        for row in range(r.shape[0]):
            x = p.lam * r[row]
            rowwise = (specfn.bessel_j(order, x), specfn.bessel_j_prime(order, x),
                       specfn.bessel_j_second(order, x))
            for whole, single in zip(lattice, rowwise):
                assert whole[row].tobytes() == single.tobytes()

    def test_psi_prime_equals_separate_calls(self, params_n2):
        p = params_n2
        r = np.geomspace(1e-4 * p.R, p.R, 300)
        order = specfn.BesselOrder(p.nu)
        expected = (p.n - 1.5) * r ** (p.n - 2.5) * specfn.bessel_j(order, p.lam * r) \
            + p.lam * r ** (p.n - 1.5) * specfn.bessel_j_prime(order, p.lam * r)
        assert analytic.psi_prime(p, r).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, bits", [
        (2, ("0x1.87d9fa2b06342p+0", "-0x1.a95cf8dd4c7a4p-1", "-0x1.d9e0f74ec75e6p+0",
             "0x1.efebed6b2e886p-1", "-0x1.0d2ab0a50e333p-1", "-0x1.2bddf90f88872p+0")),
        (3, ("0x1.1a3339aa74d30p-1", "0x1.17585c077f2b7p+1", "0x1.2205109daf680p-3",
             "0x1.dbe063423d4f6p-4", "0x1.d70fec1e8b6e2p-2", "0x1.e9101b8a5ad3cp-6")),
        (4, ("0x1.8e3d90c4b3ffdp-7", "0x1.41ff10e4b4f77p+0", "0x1.a90b5bb2d9049p+0",
             "0x1.ea1a4d2275484p-12", "0x1.8c4576bf79792p-5", "0x1.058b73ee60ce9p-4")),
        (5, ("0x1.786819e5f67a5p-13", "0x1.d0d7acd5e2750p-2", "0x1.0df7cfb076dcbp+1",
             "0x1.91af3fafe6b1ep-21", "0x1.f00f340c8a7dep-10", "0x1.20191371849e4p-7")),
        (6, ("0x1.2929505741230p-19", "0x1.13a4752f021d1p-3", "0x1.ebb2c564beed9p+0",
             "0x1.4a41b08c5ffa5p-31", "0x1.32574e40eeca6p-15", "0x1.113acc1d5c759p-11")),
    ])
    def test_v_mode_rr_pinned(self, n, bits, params_by_n):
        """v_mode_rr at r = 0.1, 0.5 and 0.9 R and t = 0 and 0.1."""
        p = params_by_n[n]
        r = np.array([0.1, 0.5, 0.9]) * p.R
        got = tuple(float(v).hex() for t in (0.0, 0.1)
                    for v in analytic.v_mode_rr(p, r, t))
        assert got == bits


class TestLinearizedResidual:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_residual_on_probe_lattice(self, n, params_by_n):
        p = params_by_n[n]
        r, t = analytic.probe_lattice(p)
        res = analytic.residual_linearized(p, r, t)
        v = analytic.v_mode(p, r, t)
        assert np.max(np.abs(res) / np.maximum(1.0, np.abs(v))) < 1e-8

    def test_spot_configs(self):
        p = make_params(2, R=0.55, C=1.0)
        assert abs(analytic.residual_linearized(p, 0.3, 0.1)) < 1e-8
        p = make_params(3, R=4.7, C=2.0)
        r_probe = min(1.0, 0.9 * p.R)
        assert abs(analytic.residual_linearized(p, r_probe, 1.0)) < 1e-8

    def test_zero_amplitude_identically_zero(self):
        p = make_params(2, R=0.6, C=0.0)
        assert analytic.residual_linearized(p, 0.2, 0.3) == 0.0


class TestSubsolution:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_defect_nonpositive_on_probe_lattice(self, n, params_by_n):
        p = params_by_n[n]
        r, t = analytic.probe_lattice(p)
        assert np.max(analytic.subsolution_defect(p, r, t)) <= 1e-8

    def test_zero_amplitude_defect_zero(self):
        # with C = 0 the subsolution is the stationary profile; the assembled
        # defect is pure rounding of the r^(-5/3)-amplified cancellation
        p = make_params(2, R=0.6, C=0.0)
        r = np.geomspace(1e-4 * p.R, 0.999 * p.R, 50)
        assert np.max(np.abs(analytic.subsolution_defect(p, r, 0.0))) < 1e-10

    def test_gate_rejects_before_evaluation(self, params_n2):
        # an inflated radius cannot even be built, so no defect is evaluated
        with pytest.raises(AdmissibilityError):
            bloated = dataclasses.replace(
                params_n2, R=0.9 * params_n2.x1 / params_n2.lam * 2.0)
            analytic.subsolution_defect(bloated, 0.1, 0.0)


class TestAdmissibility:
    def test_second_bound_values(self):
        assert analytic.radius_bound(2) == pytest.approx(0.6123724356957945, abs=1e-14)
        assert analytic.radius_bound(3) == pytest.approx(6.363961030678928, abs=1e-13)

    def test_min_of_two_bounds(self):
        # large lam: the x1/lam branch dominates and shrinks like 1/lam
        val = analytic.max_admissible_R(2, 1e4)
        assert val == pytest.approx(1.3099793251198123e-4, rel=1e-8)
        # small lam: the dimension-only branch dominates
        assert analytic.max_admissible_R(2, 1e-3) == pytest.approx(
            analytic.radius_bound(2), abs=1e-14
        )

    def test_make_params_requires_R(self):
        """lam follows from R alone; it is not a parameter."""
        with pytest.raises(TypeError):
            make_params(2)
        with pytest.raises(TypeError):
            make_params(2, R=0.6, lam=1.0)
        p = make_params(2, R=0.6)
        assert p.lam == 0.9 * p.x1 / 0.6

    def test_make_params_rejects_inadmissible_pair(self):
        with pytest.raises(AdmissibilityError):
            make_params(2, R=0.62)  # R above the n=2 radius bound 0.612

    def test_model_takes_only_n_R_and_C(self, params_n2):
        """Everything else is derived, so it cannot be set to disagree."""
        init = [f.name for f in dataclasses.fields(ModelParams) if f.init]
        assert init == ["n", "R", "C"]
        with pytest.raises(ValueError, match="lam"):
            dataclasses.replace(params_n2, lam=1.0)

    def test_replace_rederives_and_rechecks(self, params_n2):
        p = dataclasses.replace(params_n2, R=0.5)
        assert p.lam == 0.9 * p.x1 / 0.5
        assert p == make_params(2, R=0.5, C=1.0)
        assert dataclasses.replace(params_n2, C=0.3).lam == params_n2.lam
        with pytest.raises(AdmissibilityError, match="outside admissible"):
            dataclasses.replace(params_n2, R=0.62)

    @pytest.mark.parametrize("n, R, error, message", [
        (2, -1.0, AdmissibilityError, "R=-1 is not a positive finite domain"),
        (2, float("inf"), AdmissibilityError, "R=inf is not a positive finite"),
        (1, 0.6, ValueError, "dimension must be an integer >= 2, got 1"),
        (2, 0.62, AdmissibilityError, "outside admissible interval"),
    ])
    def test_construction_checks_its_inputs(self, n, R, error, message):
        with pytest.raises(error, match=message):
            ModelParams(n, R, 0.0)

    def test_weak_form_flag(self):
        assert not make_params(2, R=0.6).weak_form_ok
        assert make_params(3, R=0.6).weak_form_ok


class TestModeMonotonicity:
    def test_psi_prime_nonnegative_under_gate(self, params_n2):
        r = np.linspace(params_n2.R / 2000.0, params_n2.R, 2000)
        assert np.min(analytic.psi_prime(params_n2, r)) >= 0.0

    def test_mode_lower_bound_positive(self, params_n2):
        c1 = analytic.mode_lower_bound_c1(params_n2)
        assert c1 > 0.0
        # supremum of J_nu(lam r) / r^nu is its r -> 0 limit
        lead = (params_n2.lam / 2.0) ** params_n2.nu / scipy.special.gamma(
            params_n2.nu + 1.0
        )
        assert c1 < lead
