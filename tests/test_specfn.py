"""Special-function layer: series evaluation on the served domain x <= 20,
zeros, constants.

Closed-form half-integer Bessel functions, extended-precision constants
(frozen from an mpmath session) and mpmath at 40 digits serve as
independent oracles; scipy.special provides a second independent
implementation for cross-checks.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradsing import initdata, pipeline, solver, specfn
from gradsing.config import preset
from gradsing.specfn import BesselOrder, BesselZeros

# frozen with mpmath at 40 digits
NU_REF = {
    2: 0.6009252125773316,
    3: 1.6414763002993508,
    4: 2.650995620097811,
    5: 3.655285366576885,
    6: 4.65772953749404,
}
ALPHA_REF = {
    2: 1.4422495703074084,
    3: 2.2894284851066637,
    4: 2.7589241763811207,
    5: 3.107232505953859,
    6: 3.3912114430141668,
}
# (n, x0, x1) as hex, the bits of the zero search before it was cached
ZERO_BITS = [
    (2, "0x1.a454eeb7e15c5p+1", "0x1.4f5ace17d3641p+0"),
    (3, "0x1.2b513a86b716dp+2", "0x1.50b45e62dbff3p+1"),
    (4, "0x1.7cd92cf7c1decp+2", "0x1.e716212dfad48p+1"),
    (5, "0x1.cb354ed41952dp+2", "0x1.3bda945828ee9p+2"),
    (6, "0x1.0bcdd8ab9516fp+3", "0x1.82a6556280433p+2"),
    (7, "0x1.3150d8f22ce34p+3", "0x1.c87babcba32dcp+2"),
    (8, "0x1.564f3c6702811p+3", "0x1.06d1dd63036ecp+3"),
    (9, "0x1.7ae538cffc08ap+3", "0x1.2924f799a3b92p+3"),
    (10, "0x1.9f2656d12f6fdp+3", "0x1.4b453b8b94a6bp+3"),
]
J11_ZERO = 3.8317059702075123        # first root of J_1
J11_PRIME_ZERO = 1.8411837813406593  # first root of J_1'


def j_half(x):
    return np.sqrt(2.0 / (np.pi * x)) * np.sin(x)


def j_three_halves(x):
    return np.sqrt(2.0 / (np.pi * x)) * (np.sin(x) / x - np.cos(x))


class TestDerivedConstants:
    def test_nu_values(self):
        for n, ref in NU_REF.items():
            assert specfn.nu_of(n) == pytest.approx(ref, abs=1e-15)

    def test_alpha_values(self):
        for n, ref in ALPHA_REF.items():
            assert specfn.alpha_of(n) == pytest.approx(ref, abs=1e-15)

    def test_alpha_defining_identity(self):
        for n in range(2, 7):
            a = specfn.alpha_of(n)
            assert a ** 3 + 15 - 9 * n == pytest.approx(0.0, abs=1e-13)

    def test_radicand_positive(self):
        for n in range(2, 30):
            assert 36 * n * n - 96 * n + 61 > 0

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_small_dimension(self, bad):
        with pytest.raises(ValueError):
            specfn.nu_of(bad)
        with pytest.raises(ValueError):
            specfn.alpha_of(bad)


class TestEvaluation:
    def test_half_integer_closed_forms_on_0_20(self):
        x = np.linspace(1e-4, 20.0, 4001)
        j = specfn.bessel_j(BesselOrder(0.5), x)
        assert np.max(np.abs(j - j_half(x))) < 1e-10
        j = specfn.bessel_j(BesselOrder(1.5), x)
        assert np.max(np.abs(j - j_three_halves(x))) < 1e-10

    def test_spot_values(self):
        assert specfn.bessel_j(BesselOrder(0.5), math.pi / 2) == pytest.approx(
            2.0 / math.pi, abs=1e-12
        )
        assert specfn.bessel_j(BesselOrder(1.5), math.pi) == pytest.approx(
            math.sqrt(2.0) / math.pi, abs=1e-12
        )
        # derivative of sqrt(2/(pi x)) sin(x) at pi/2 equals -2/pi^2
        assert specfn.bessel_j_prime(BesselOrder(0.5), math.pi / 2) == pytest.approx(
            -2.0 / math.pi ** 2, abs=1e-12
        )

    def test_value_at_origin_vanishes_for_positive_order(self):
        assert specfn.bessel_j(BesselOrder(0.6009252125773316), 0.0) == 0.0

    def test_prime_recurrence_identity_at_one(self):
        # J' = (J_(nu-1) - J_(nu+1)) / 2, evaluated through a different path
        for nu in (0.5, 1.0, 1.5, NU_REF[2], NU_REF[3], 3.25):
            left = specfn.bessel_j_prime(BesselOrder(nu), 1.0)
            lo = specfn.bessel_j(BesselOrder(nu + 1.0), 1.0)
            hi = scipy.special.jv(nu - 1.0, 1.0)
            assert left == pytest.approx((hi - lo) / 2.0, abs=1e-10)

    def test_prime_grows_near_origin_for_small_order(self):
        nu = NU_REF[2]  # < 1, so J' ~ nu (x/2)^(nu-1) / (2 Gamma(nu+1))
        vals = [specfn.bessel_j_prime(BesselOrder(nu), x) for x in (1e-2, 1e-4, 1e-6)]
        assert vals[0] < vals[1] < vals[2]
        assert all(np.isfinite(v) for v in vals)

    def test_matches_scipy_across_orders(self):
        x = np.linspace(1e-3, 20.0, 500)
        for nu in (0.5, 1.0, 1.5, NU_REF[2], NU_REF[3], NU_REF[6]):
            mine = specfn.bessel_j(BesselOrder(nu), x)
            ref = scipy.special.jv(nu, x)
            assert np.max(np.abs(mine - ref)) < 1e-10

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            specfn.bessel_j(BesselOrder(1.0), -0.5)
        with pytest.raises(ValueError):
            specfn.bessel_j_prime(BesselOrder(1.0), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_argument(self, bad):
        for f in (specfn.bessel_j, specfn.bessel_j_prime, specfn.bessel_j_second):
            with pytest.raises(ValueError, match="finite"):
                f(BesselOrder(0.6), bad)
            with pytest.raises(ValueError, match="finite"):
                f(BesselOrder(0.6), np.array([1.0, bad]))

    def test_accuracy_warning_in_cancellation_zone(self):
        # the series' own estimate (2.6e-3 here) is not reached: the
        # argument lies beyond the served domain, which warns once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            specfn.bessel_j(BesselOrder(25.0), 49.0)
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (specfn.BesselAccuracyWarning,
             "J_25: argument 49 is beyond the served domain x <= 20", __file__)
        ]

    def test_accuracy_warning_on_overflow(self):
        # J'' of order 0.6 overflows to -inf at 1e-300; its relative error
        # estimate is inf/inf = NaN, which must warn, not pass.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = specfn.bessel_j_second(BesselOrder(0.6), 1e-300)
        assert value == -math.inf
        assert [(str(w.message), w.filename) for w in caught
                if w.category is specfn.BesselAccuracyWarning] == [
            ("J''_0.6: internal error estimate nan exceeds 1e-10", __file__)
        ]

    def test_finite_difference_consistency(self):
        h = 1e-6
        for nu in (0.5, NU_REF[2], NU_REF[3]):
            o = BesselOrder(nu)
            for x in (0.7, 2.3, 5.1):
                fd = (specfn.bessel_j(o, x + h) - specfn.bessel_j(o, x - h)) / (2 * h)
                assert specfn.bessel_j_prime(o, x) == pytest.approx(fd, abs=1e-8)


class TestServedDomain:
    """J is accurate on 0 <= x <= 20 and warns beyond it."""

    def test_matches_mpmath_on_the_served_domain(self):
        """Orders nu(n) - 2 .. nu(n) + 2 for n = 2..10 on 200 points of
        [0.05, 20]: within 1e-10 of mpmath at 40 digits relative to
        max(1, |J|), and no estimate crosses its target."""
        x = np.linspace(0.05, 20.0, 200)
        with mpmath.workdps(40), warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(2, 11):
                for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
                    mu = specfn.nu_of(n) + s
                    value, est = specfn._jv_raw(mu, x)
                    specfn._check_accuracy(est, value, f"J_{mu:g}")
                    ref = np.array([float(mpmath.besselj(mu, xi))
                                    for xi in x.tolist()])
                    err = np.abs(value - ref) / np.maximum(1.0, np.abs(ref))
                    assert np.max(err) <= 1e-10, (n, s)

    @pytest.mark.parametrize("f", [specfn.bessel_j, specfn.bessel_j_prime,
                                   specfn.bessel_j_second])
    def test_one_argument_beyond_warns_once(self, f):
        o = BesselOrder(NU_REF[3])
        x = np.array([0.5, 10.0, 20.0, 20.5])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = f(o, x)
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (specfn.BesselAccuracyWarning,
             f"J_{o.nu:g}: argument 20.5 is beyond the served domain x <= 20",
             __file__)
        ]
        assert np.all(np.isfinite(value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = f(o, x[:3])  # x = 20 itself is served
        assert inside.tobytes() == value[:3].tobytes()


MODEL_ORDERS = [specfn.nu_of(n) + s for n in range(2, 7)
                for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]


class TestBitIdentity:
    """The fast paths give the bits of the plain ones: a point's series
    value does not depend on the other points of its call, and each order
    is evaluated once on the distinct arguments of a call."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        mu=st.one_of(
            st.sampled_from(MODEL_ORDERS),
            st.floats(-5.0, -0.01).filter(lambda m: m != math.floor(m)),
        ),
        fraction=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    def test_one_point_series_equals_array_series(self, mu, fraction):
        # a point alone and beside its duplicate take the same array loop;
        # a tiny x with mu < 0 overflows a double in both alike
        x = fraction * specfn._X_MAX
        with np.errstate(over="ignore"):
            one_value, one_est = specfn._series(mu, np.array([x]))
            pair_value, pair_est = specfn._series(mu, np.array([x, x]))
        assert one_value.tobytes() == pair_value[:1].tobytes()
        assert one_est.tobytes() == pair_est[:1].tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(mu=NU_REF[2], x=[13.0, 1.0, 0.0, 7.0], ordered=False)
    @given(
        mu=st.one_of(
            st.sampled_from([specfn.nu_of(n) + s for n in range(2, 11)
                             for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]),
            st.floats(-5.0, -0.01).filter(lambda m: m != math.floor(m)),
        ),
        x=st.lists(st.one_of(st.just(0.0), st.floats(0.0, specfn._X_MAX)),
                   min_size=1, max_size=20),
        ordered=st.booleans(),
    )
    def test_each_point_takes_the_bits_of_its_one_point_call(self, mu, x,
                                                             ordered):
        """Value and error estimate alike: each point stops at its own
        term, whatever the other points and their order."""
        x = np.array(sorted(x) if ordered else x)
        with np.errstate(over="ignore"):
            value, est = specfn._series(mu, x)
            for i in range(x.size):
                one_value, one_est = specfn._series(mu, x[i:i + 1])
                assert value[i:i + 1].tobytes() == one_value.tobytes()
                assert est[i:i + 1].tobytes() == one_est.tobytes()

    def test_repeated_arguments_take_the_bits_of_distinct_ones(self):
        o = BesselOrder(NU_REF[3])
        x = np.linspace(0.1, 20.0, 50)
        tiled = np.tile(x, (3, 1))
        for f in (specfn.bessel_j, specfn.bessel_j_prime, specfn.bessel_j_second):
            assert f(o, tiled).tobytes() == np.tile(f(o, x), (3, 1)).tobytes()

    @pytest.mark.parametrize("n, x0, x1", [
        (2, "0x1.a454eeb7e15c5p+1", "0x1.4f5ace17d3641p+0"),
        (3, "0x1.2b513a86b716dp+2", "0x1.50b45e62dbff3p+1"),
        (4, "0x1.7cd92cf7c1decp+2", "0x1.e716212dfad48p+1"),
        (5, "0x1.cb354ed41952dp+2", "0x1.3bda945828ee9p+2"),
        (6, "0x1.0bcdd8ab9516fp+3", "0x1.82a6556280433p+2"),
    ])
    def test_first_zeros_pinned(self, n, x0, x1):
        z = specfn.first_zeros(BesselOrder(specfn.nu_of(n)))
        assert (z.x0.hex(), z.x1.hex()) == (x0, x1)


class TestBesselEquationResidual:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, NU_REF[2], NU_REF[3]])
    def test_residual_small_on_0_20(self, nu):
        o = BesselOrder(nu)
        x = np.linspace(1e-2, 20.0, 1500)
        j = specfn.bessel_j(o, x)
        jp = specfn.bessel_j_prime(o, x)
        jpp = specfn.bessel_j_second(o, x)  # recurrence-based, independent path
        res = x ** 2 * jpp + x * jp + (x ** 2 - nu ** 2) * j
        assert np.max(np.abs(res) / np.maximum(1.0, np.abs(j))) < 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        nu=st.floats(0.3, 4.7),
        x=st.floats(0.05, 15.0),
    )
    def test_residual_property(self, nu, x):
        o = BesselOrder(nu)
        res = (
            x ** 2 * specfn.bessel_j_second(o, x)
            + x * specfn.bessel_j_prime(o, x)
            + (x ** 2 - nu ** 2) * specfn.bessel_j(o, x)
        )
        assert abs(res) < 1e-8 * max(1.0, abs(specfn.bessel_j(o, x)))


class TestFirstZeros:
    def test_nu_one_against_frozen_roots(self):
        z = specfn.first_zeros(BesselOrder(1.0))
        assert z.x0 == pytest.approx(J11_ZERO, abs=1e-8)
        assert z.x1 == pytest.approx(J11_PRIME_ZERO, abs=1e-8)

    def test_nu_half_root_is_pi(self):
        # J_(1/2) is proportional to sin(x)
        z = specfn.first_zeros(BesselOrder(0.5))
        assert z.x0 == pytest.approx(math.pi, abs=1e-10)

    def test_bisection_oracle_on_independent_evaluator(self):
        # bracket and bisect scipy's jv/jvp, then compare
        def bisect(f, a, b):
            for _ in range(100):
                m = 0.5 * (a + b)
                if f(a) * f(m) <= 0:
                    b = m
                else:
                    a = m
            return 0.5 * (a + b)

        z = specfn.first_zeros(BesselOrder(1.0))
        x0_ref = bisect(lambda t: scipy.special.jv(1.0, t), 3.0, 4.5)
        x1_ref = bisect(lambda t: scipy.special.jvp(1.0, t), 1.0, 2.5)
        assert z.x0 == pytest.approx(x0_ref, abs=1e-8)
        assert z.x1 == pytest.approx(x1_ref, abs=1e-8)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_model_orders_ordering_and_residuals(self, n):
        o = BesselOrder(specfn.nu_of(n))
        z = specfn.first_zeros(o)
        assert 0.0 < z.x1 < z.x0
        assert abs(specfn.bessel_j(o, z.x0)) < 1e-10
        assert abs(specfn.bessel_j_prime(o, z.x1)) < 1e-10

    @pytest.mark.parametrize("n", [2, 4])
    def test_positivity_before_first_roots(self, n):
        o = BesselOrder(specfn.nu_of(n))
        z = specfn.first_zeros(o)
        x = np.linspace(z.x0 / 1000.0, z.x0 * (1 - 1e-9), 1000)
        assert np.all(specfn.bessel_j(o, x) > 0.0)
        x = np.linspace(z.x1 / 1000.0, z.x1 * (1 - 1e-9), 1000)
        assert np.all(specfn.bessel_j_prime(o, x) > 0.0)

    def test_deterministic(self):
        a = specfn.first_zeros(BesselOrder(NU_REF[2]))
        b = specfn.first_zeros(BesselOrder(NU_REF[2]))
        assert (a.x0, a.x1) == (b.x0, b.x1)

    def test_cached_once_per_order(self, monkeypatch):
        """Fresh and cached zeros keep their bits for n = 2..10; a search
        that raised is not cached; a cached search re-issues its warnings."""
        monkeypatch.setattr(specfn, "_ZEROS", {})
        for n, x0, x1 in ZERO_BITS:
            o = BesselOrder(specfn.nu_of(n))
            for _ in range(2):
                z = specfn.first_zeros(o)
                assert (z.x0.hex(), z.x1.hex()) == (x0, x1), n
        assert len(specfn._ZEROS) == len(ZERO_BITS)

        def loud(est, value, what):
            warnings.warn(f"{what}: forced", specfn.BesselAccuracyWarning,
                          stacklevel=4)

        monkeypatch.setattr(specfn, "_check_accuracy", loud)
        o = BesselOrder(1.25)
        with monkeypatch.context() as m, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m.setattr(specfn, "_ZERO_SCAN_SPAN", 0.1)  # no bracket in reach
            with pytest.raises(specfn.ZeroBracketingError):
                specfn.first_zeros(o)
        assert caught and o not in specfn._ZEROS
        seen = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                specfn.first_zeros(o)
            seen.append([(w.category, str(w.message), w.filename, w.lineno)
                         for w in caught])
        assert seen[0] and seen[1] == seen[0]
        assert {c for c, *_ in seen[0]} == {specfn.BesselAccuracyWarning}

    def test_zeros_type_validates_ordering(self):
        with pytest.raises(ValueError):
            BesselZeros(x0=1.0, x1=2.0)

    def test_order_type_validates_positivity(self):
        with pytest.raises(ValueError):
            BesselOrder(0.0)
        with pytest.raises(ValueError):
            BesselOrder(-1.3)


class TestZeroSearchReplay:
    """The zero search reads its points from vector calls (the scan) and
    scalar calls (the bisection) alike."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_point_value_independent_of_the_call(self, n):
        """J and J' of each point alone are bitwise those inside a 200-point
        call spanning [nu, 20], with points within 1e-12 of x0 and x1."""
        o = BesselOrder(specfn.nu_of(n))
        z = specfn.first_zeros(o)
        near = [z.x0 + d for d in (-1e-12, -2.0 ** -45, 0.0, 1e-12)]
        near += [z.x1 + d for d in (-1e-12, 0.0, 2.0 ** -45, 1e-12)]
        x = np.concatenate([np.linspace(o.nu, specfn._X_MAX, 192), near])
        j, jp = specfn.bessel_derivatives(o, x, (0, 1))
        for xi, ji, jpi in zip(x.tolist(), j.tolist(), jp.tolist()):
            alone = specfn.bessel_derivatives(o, xi, (0, 1))
            assert [v.hex() for v in alone] == [ji.hex(), jpi.hex()], xi


class TestBesselDerivatives:
    @pytest.mark.parametrize("x", [1e-3, 0.5, 1.5707963267948966, 13.55, 25.0])
    def test_one_call_has_the_bits_of_the_three_public_calls(self, x):
        """``gradsing specfn probe`` takes J, J' and J'' from one call and
        prints the bytes of three separate calls, beyond the served domain
        too."""
        o = BesselOrder(NU_REF[2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", specfn.BesselAccuracyWarning)
            triple = specfn.bessel_derivatives(o, x, (0, 1, 2))
            separate = (specfn.bessel_j(o, x), specfn.bessel_j_prime(o, x),
                        specfn.bessel_j_second(o, x))
        assert [v.hex() for v in triple] == [v.hex() for v in separate]


@pytest.fixture(scope="module")
def n2_stage():
    """A model, its datum and a 400-node annulus grid at eps = 0.02."""
    cfg = preset("n2-standard")
    params, datum = pipeline.build_model(cfg)
    grid = solver.GridPolicy(400, 2.0).build(0.02, params.R)
    return params, datum, grid.nodes


@pytest.fixture
def raw_calls(monkeypatch):
    """The argument sizes of every raw evaluation, one entry per call."""
    calls = []
    raw = specfn._jv_raw

    def counted(mu, x):
        calls.append(x.size)
        return raw(mu, x)

    monkeypatch.setattr(specfn, "_jv_raw", counted)
    monkeypatch.setattr(specfn, "_ZEROS", {})  # counts do not hang on the cache
    return calls


class TestSharedEvaluations:
    """Each order runs once per argument set within a model build, the
    closed-form gates or an annulus set-up, and nothing outlives the call."""

    def test_annulus_set_up_evaluates_three_orders(self, n2_stage, raw_calls):
        params, datum, nodes = n2_stage
        initdata.make_epsilon_problem(params, datum, 0.02, nodes)
        # J_nu and J_(nu-1) on the nodes, and J_nu(lam eps)
        assert sorted(raw_calls) == [1, nodes.size, nodes.size]
        assert specfn._SHARED.get() is None
        initdata.make_epsilon_problem(params, datum, 0.02, nodes)
        assert len(raw_calls) == 6  # evaluated afresh

    def test_gates_evaluate_four_orders(self, n2_stage, raw_calls):
        pipeline.analytic_checks(n2_stage[0])
        assert raw_calls == [200] * 4  # nu - 2, nu - 1, nu, nu + 2
        assert specfn._SHARED.get() is None

    def test_model_build_evaluates_datum_orders_once(self, raw_calls):
        pipeline.build_model(preset("n2-standard"))
        assert raw_calls.count(1200) == 2  # J_nu and J_(nu-1)
        assert specfn._SHARED.get() is None

    def test_nested_block_has_its_own_memo(self, raw_calls):
        """A nested block neither reads nor keeps the outer memo, and its
        exit restores the outer one."""
        o = BesselOrder(NU_REF[3])
        with specfn.shared_evaluations():
            specfn.bessel_j(o, 2.0)
            outer = specfn._SHARED.get()
            with specfn.shared_evaluations():
                assert specfn._SHARED.get() == {}
                specfn.bessel_j(o, 2.0)
            assert specfn._SHARED.get() is outer and len(outer) == 1
            specfn.bessel_j_prime(o, 2.0)
        assert specfn._SHARED.get() is None
        assert len(raw_calls) == 3  # J_nu in each block, then J_(nu-1)

    def test_memo_hit_still_warns(self, raw_calls):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with specfn.shared_evaluations():
                for _ in range(2):
                    specfn.bessel_j(BesselOrder(25.0), 49.0)
        assert len(raw_calls) == 1
        assert [w.category for w in caught] == [specfn.BesselAccuracyWarning] * 2

    def test_scoped_set_up_has_the_bits_of_unscoped_calls(self, n2_stage):
        params, datum, nodes = n2_stage
        problem = initdata.make_epsilon_problem(params, datum, 0.02, nodes)
        assert specfn._SHARED.get() is None
        u0eps = initdata.make_u0eps(params, 0.02, datum, nodes)
        ceiling = initdata.c_star_eps(params, 0.02, u0eps)
        for name in ("grid", "values", "derivative"):
            assert getattr(problem.u0eps, name).tobytes() == \
                getattr(u0eps, name).tobytes()
        assert problem.c_star_eps.hex() == ceiling.hex()


def _power_inputs(seed, size):
    """size seeded doubles, |x| log-uniform on [1e-12, 1e3], both signs."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-12.0, 3.0, size) * rng.choice([-1.0, 1.0], size)


SPECIAL_BASES = [0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 2.5e-310, np.inf,
                 -np.inf, np.nan, -1e-103, -1e-200, -1e103, -1e200, -2.0 ** -340]


class TestIntPower:
    """specfn.int_power against numpy's own x ** p, compared as int64."""

    @staticmethod
    def _same_bits(x, p):
        want = np.asarray(np.asarray(x, dtype=float) ** p)
        got = np.asarray(specfn.int_power(x, p))
        return got.shape == want.shape and \
            np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("p", [3, 4, 28])
    def test_bits_of_numpy_pow(self, p):
        x = np.concatenate((_power_inputs(p, 10 ** 6), SPECIAL_BASES))
        with np.errstate(over="ignore"):  # the 1e103 and 1e200 bases
            assert self._same_bits(x, p)
            rows = x[:64 * 400].reshape(64, 400)
            for view in (rows, rows[::3, 1::7], rows.T, rows[:, 5], rows[7],
                         rows[:0]):
                assert self._same_bits(view, p)
            for value in x[:40].tolist() + SPECIAL_BASES:
                got = specfn.int_power(value, p)
                assert isinstance(got, np.float64)
                assert self._same_bits(value, p)
                assert self._same_bits(np.asarray(value), p)

    def test_warns_as_pow_does(self):
        x = np.array([-1e200, -2.0])
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            x ** 3
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            specfn.int_power(x, 3)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]

    def test_without_x87_long_double_it_is_pow(self, monkeypatch):
        monkeypatch.setattr(specfn, "_X87", False)
        assert self._same_bits(_power_inputs(5, 1000), 3)

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_rejects_exponents_below_two(self, p):
        with pytest.raises(ValueError):
            specfn.int_power(-2.0, p)

    @pytest.mark.skipif(not specfn._X87, reason="needs the x87 long double")
    @pytest.mark.parametrize("p", [3, 4, 28])
    def test_pow_disagrees_only_near_a_midpoint(self, p):
        """Where numpy's pow and the rounded long-double power differ on a
        negative base, the long-double value lies within 1/64 ulp of a
        rounding midpoint: a quarter of int_power's 1/16 window."""
        x = -np.abs(_power_inputs(100 + p, 10 ** 6))
        power = specfn._long_double_power(x, p)
        y = power.astype(float)
        # position of the long double within the double ulp of its binade
        mantissa = np.ldexp(np.abs(np.frexp(power)[0]), 53)
        from_mid = np.abs(mantissa - np.floor(mantissa) - 0.5)
        differ = (x ** p != y) & (np.abs(y) >= np.finfo(float).tiny)
        assert differ.any()
        margin = float(from_mid[differ].max())
        assert margin <= 1 / 64, f"pow differs {margin:.4f} ulp from a midpoint"
