"""Shared fixtures: moderately sized solver runs reused across test modules.

The unit-test bundles are deliberately smaller than the reference runs
(fewer nodes, shorter horizon); every check they feed scales its tolerance
from the actual grid and step, so the assertions stay meaningful.
"""

import dataclasses

import pytest

from gradsing import analytic, initdata, solver


@pytest.fixture(scope="session")
def n2_bundle():
    params = analytic.make_params(2, R=0.6, C=0.25)
    datum = initdata.make_initial_datum(params, "mode_deficit", k=2.0,
                                         amplitude=params.C)
    fitted = dataclasses.replace(
        params, C=initdata.choose_amplitude_C(params, datum))
    return fitted, datum


@pytest.fixture(scope="session")
def small_policy():
    return solver.GridPolicy(num_nodes=160, grading_exponent=2.0)


@pytest.fixture(scope="session")
def small_scheme():
    return solver.SchemeConfig("implicit_euler", dt=2e-3)


def _solve(params, datum, eps, policy, scheme, horizon_efolds=3.0):
    grid = policy.build(eps, params.R)
    problem = initdata.make_epsilon_problem(params, datum, eps, grid.nodes)
    T = horizon_efolds / params.decay_rate
    return solver.solve_annulus(problem, grid, T, scheme)


@pytest.fixture(scope="session")
def n2_field(n2_bundle, small_policy, small_scheme):
    params, datum = n2_bundle
    return _solve(params, datum, 0.04, small_policy, small_scheme)


@pytest.fixture(scope="session")
def n2_field_cn(n2_bundle, small_policy):
    params, datum = n2_bundle
    cn = solver.SchemeConfig("crank_nicolson", dt=2e-3)
    return _solve(params, datum, 0.04, small_policy, cn)


@pytest.fixture(scope="session")
def n2_field_half_eps(n2_bundle, small_policy, small_scheme):
    params, datum = n2_bundle
    return _solve(params, datum, 0.02, small_policy, small_scheme)


@pytest.fixture(scope="session")
def c0_field(small_policy, small_scheme):
    params = analytic.make_params(2, R=0.6, C=0.0)
    datum = initdata.make_initial_datum(
        params, "polynomial_blend", k=2.0, amplitude=0.0
    )
    return _solve(params, datum, 0.04, small_policy, small_scheme)


@pytest.fixture(scope="session")
def n3_bundle():
    params = analytic.make_params(3, R=1.5, C=0.2)
    datum = initdata.make_initial_datum(params, "mode_deficit", k=2.0,
                                         amplitude=params.C)
    fitted = dataclasses.replace(
        params, C=initdata.choose_amplitude_C(params, datum))
    return fitted, datum


@pytest.fixture(scope="session")
def n3_field(n3_bundle, small_policy, small_scheme):
    params, datum = n3_bundle
    return _solve(params, datum, 0.04, small_policy, small_scheme)
