"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  These drive the reference configurations at full size (the n = 2
run at 400 graded nodes, dt = 1e-3, five mode e-foldings) and the n = 3
weak-form study at three refinement levels; everything completes in a few
minutes on a laptop-class machine.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.special

from gradsing import analytic, initdata, solver, specfn, verify
from gradsing.config import preset
from gradsing.pipeline import build_model
from gradsing.solver import GridPolicy, SchemeConfig
from gradsing.specfn import BesselOrder


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def n2():
    cfg = preset("n2-standard")
    params, datum = build_model(cfg)
    return cfg, params, datum


@pytest.fixture(scope="module")
def n3():
    cfg = preset("n3-weak")
    params, datum = build_model(cfg)
    return cfg, params, datum


@pytest.fixture(scope="module")
def n2_continuation(n2):
    cfg, params, datum = n2
    T = cfg.continuation.horizon_efolds / params.decay_rate
    policy = GridPolicy(cfg.continuation.num_nodes,
                        cfg.continuation.grading_exponent)
    start = time.perf_counter()
    *_, result = solver.continuation(
        params, datum, cfg.continuation.eps_sequence, policy, T, cfg.scheme,
    )
    result.runtime = time.perf_counter() - start
    return result


@pytest.fixture(scope="module")
def n2_reference(n2, n2_continuation):
    cfg, _, _ = n2
    for f in n2_continuation.fields:
        if abs(f.eps - cfg.continuation.reference_eps) < 1e-12:
            return f
    raise RuntimeError("reference inner radius missing from the sequence")


@pytest.fixture(scope="module")
def n2_refined(n2):
    # both the mesh and the step halved relative to the reference run
    cfg, params, datum = n2
    T = cfg.continuation.horizon_efolds / params.decay_rate
    policy = GridPolicy(2 * cfg.continuation.num_nodes,
                        cfg.continuation.grading_exponent)
    grid = policy.build(cfg.continuation.reference_eps, params.R)
    problem = initdata.make_epsilon_problem(
        params, datum, cfg.continuation.reference_eps, grid.nodes
    )
    scheme = SchemeConfig("implicit_euler", dt=cfg.scheme.dt / 2.0)
    return solver.solve_annulus(problem, grid, T, scheme)


@pytest.fixture(scope="module")
def n3_levels(n3):
    cfg, params, datum = n3
    T = cfg.continuation.horizon_efolds / params.decay_rate
    levels = []
    for num_nodes, dt in ((100, 4e-3), (200, 2e-3), (400, 1e-3)):
        policy = GridPolicy(num_nodes, cfg.continuation.grading_exponent)
        scheme = SchemeConfig("implicit_euler", dt=dt)
        *_, cont = solver.continuation(
            params, datum, cfg.continuation.eps_sequence, policy, T, scheme,
        )
        levels.append(cont)
    return levels


def test_criterion_01_analytic_residuals():
    start = time.perf_counter()
    worst_s = worst_l = 0.0
    for n in range(2, 7):
        p = analytic.make_params(
            n, R=min(0.6, 0.9 * analytic.radius_bound(n)), C=1.0
        )
        r, t = analytic.probe_lattice(p)
        res = analytic.residual_stationary(p, r[0])
        worst_s = max(worst_s, float(np.max(
            np.abs(res) / analytic.stationary_residual_scale(p, r[0])
        )))
        lin = analytic.residual_linearized(p, r, t)
        v = analytic.v_mode(p, r, t)
        worst_l = max(worst_l, float(np.max(
            np.abs(lin) / np.maximum(1.0, np.abs(v))
        )))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        worst_s <= 1e-12 and worst_l <= 1e-8 and elapsed < 60.0,
        f"stationary residual {worst_s:.2e} <= 1e-12, linearized "
        f"{worst_l:.2e} <= 1e-8, in {elapsed:.1f}s",
    )


def test_criterion_02_special_functions():
    x = np.linspace(5e-4, 20.0, 4001)
    err_half = np.max(np.abs(
        specfn.bessel_j(BesselOrder(0.5), x)
        - np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    ))
    err_three = np.max(np.abs(
        specfn.bessel_j(BesselOrder(1.5), x)
        - np.sqrt(2.0 / (np.pi * x)) * (np.sin(x) / x - np.cos(x))
    ))

    def bisect(f, a, b):
        for _ in range(100):
            m = 0.5 * (a + b)
            if f(a) * f(m) <= 0:
                b = m
            else:
                a = m
        return 0.5 * (a + b)

    z1 = specfn.first_zeros(BesselOrder(1.0))
    x0_oracle = bisect(lambda t: scipy.special.jv(1.0, t), 3.0, 4.5)
    x1_oracle = bisect(lambda t: scipy.special.jvp(1.0, t), 1.0, 2.5)
    ordering = all(
        (lambda z: 0 < z.x1 < z.x0)(specfn.first_zeros(BesselOrder(specfn.nu_of(n))))
        for n in range(2, 7)
    )
    ok = (err_half < 1e-10 and err_three < 1e-10
          and abs(z1.x0 - x0_oracle) < 1e-8 and abs(z1.x1 - x1_oracle) < 1e-8
          and ordering)
    verdict(
        2, ok,
        f"half-integer closed forms to {max(err_half, err_three):.1e}, "
        f"first roots within {max(abs(z1.x0 - x0_oracle), abs(z1.x1 - x1_oracle)):.1e} "
        "of the bisection oracle, root ordering holds for n=2..6",
    )


def test_criterion_03_subsolution_property(n2, n3):
    worst = 0.0
    for cfg, params, _ in (n2, n3):
        r, t = analytic.probe_lattice(params)
        worst = max(worst, float(np.max(analytic.subsolution_defect(params, r, t))))
    for n in range(2, 7):
        p = analytic.make_params(
            n, R=min(0.6, 0.9 * analytic.radius_bound(n)), C=1.0
        )
        r, t = analytic.probe_lattice(p)
        worst = max(worst, float(np.max(analytic.subsolution_defect(p, r, t))))
    _, params2, _ = n2
    try:
        analytic.subsolution_defect(
            dataclasses.replace(params2, R=0.62), 0.1, 0.0)
        gate = False
    except analytic.AdmissibilityError:
        gate = True
    verdict(
        3, worst <= 1e-8 and gate,
        f"max defect {worst:.2e} <= 1e-8 on all preset lattices; gate rejects "
        "an inflated radius",
    )


def test_criterion_04_sandwich_with_refinement(n2_reference, n2_refined,
                                               n2_continuation):
    coarse = verify.check_sandwich(n2_reference)
    fine = verify.check_sandwich(n2_refined)
    reduced = fine.measured <= max(coarse.measured / 3.0, 1e-12)
    ok = (coarse.passed and fine.passed and reduced
          and n2_continuation.runtime < 600.0)
    verdict(
        4, ok,
        f"violation {coarse.measured:.2e} <= {coarse.tolerance:.2e}; refined "
        f"violation {fine.measured:.2e} (>=3x reduction or at rounding floor); "
        f"continuation runtime {n2_continuation.runtime:.0f}s <= 600s",
    )


def test_criterion_05_gradient_sign_and_box(n2, n2_reference):
    cfg, params, datum = n2
    sign = verify.check_monotone(n2_reference)
    box = verify.check_gradient_box(n2_reference)
    T = cfg.continuation.horizon_efolds / params.decay_rate
    # the reference problem with its cutoff support doubled, as verify
    # builds the rerun
    cutoff = n2_reference.problem.cutoff
    wide_problem = dataclasses.replace(
        n2_reference.problem, cutoff=dataclasses.replace(
            cutoff, support_radius=2.0 * cutoff.support_radius))
    wide = solver.solve_annulus(wide_problem, n2_reference.grid, T, cfg.scheme)
    rerun = verify.check_cutoff_inactive(n2_reference, wide)
    verdict(
        5, sign.passed and box.passed and rerun.passed,
        f"positive slope part {sign.measured:.2e} <= {sign.tolerance:.2e}; "
        f"sup|u_r| {box.measured:.3f} <= ceiling {box.extra['ceiling']:.3f}; "
        f"doubled-support rerun agrees to {rerun.measured:.2e}",
    )


def test_criterion_06_weighted_gradient_bounds(n2_reference, n2_continuation):
    bern = [verify.check_weighted_bernstein(n2_reference, p=p) for p in (4, 28)]
    point_ref = verify.check_pointwise_gradient(n2_reference)
    half = next(f for f in n2_continuation.fields
                if abs(f.eps - n2_reference.eps / 2.0) < 1e-12)
    point_half = verify.check_pointwise_gradient(half)
    stability = verify.check_pointwise_stability(point_ref, point_half)
    ok = all(b.passed for b in bern) and point_ref.passed and stability.passed
    verdict(
        6, ok,
        f"affine majorant residuals p=4: {bern[0].measured:.2%}, "
        f"p=28: {bern[1].measured:.2%} (<=5%); weighted slope bound "
        f"{point_ref.measured:.4f}, drift under eps-halving "
        f"{stability.measured:.2%} (<=20%)",
    )


def test_criterion_07_singularity_persistence(n2_continuation):
    finest = n2_continuation.finest
    shape = verify.check_singularity_shape(finest)
    functional = verify.check_shape_functional(finest)
    exps = shape.extra["exponents"]
    r2s = shape.extra["r_squared"]
    verdict(
        7, shape.passed and functional.passed,
        f"slope exponents {[f'{e:.4f}' for e in exps]} in [-0.70, -0.63], "
        f"r^2 >= {min(r2s):.4f}; weighted deficit {functional.measured:.3f} "
        f"<= {functional.tolerance:.3f}",
    )


def test_criterion_08_exponential_convergence(n2_reference):
    env = verify.check_decay_envelope(n2_reference)
    rate = verify.check_decay_rate(n2_reference)
    need = 0.9 * n2_reference.problem.params.decay_rate
    ok = env.passed and rate.passed and rate.status == "ok" \
        and rate.measured >= need
    verdict(
        8, ok,
        f"mode envelope holds at every stored time (excess "
        f"{env.measured:.2e}); fitted rate {rate.measured:.3f} >= "
        f"{need:.3f} (0.9 lam^2)",
    )


def test_criterion_09_weak_identity(n3, n3_levels):
    cfg, params, _ = n3
    tfs = verify.default_test_functions(params)
    origin_tfs = [tf for tf in tfs if tf.name.startswith("origin")]
    shell_tf = next(tf for tf in tfs if tf.name == "interior_shell")

    # refinement direction, classical region: the shell residual on the
    # finest-annulus field must decrease across the three levels
    shell_series = [
        verify.weak_form_residual(level.finest, shell_tf)[0]
        for level in n3_levels
    ]
    shell_monotone = all(b < a for a, b in zip(shell_series, shell_series[1:]))

    # shrinking-annulus direction: origin-covering bumps on the finest level
    finest_level = n3_levels[-1]
    origin_monotone = True
    origin_series = {}
    for tf in origin_tfs:
        series = [verify.weak_form_residual(f, tf)[0] for f in finest_level.fields]
        origin_series[tf.name] = series
        origin_monotone &= all(b < a for a, b in zip(series, series[1:]))

    mass = verify.check_inner_mass(solver.limit_estimate(finest_level.finest),
                                   cfg.continuation.eps_sequence)
    ok = shell_monotone and origin_monotone and mass.passed
    verdict(
        9, ok,
        "weak-form residuals: refinement series "
        f"{[f'{x:.2e}' for x in shell_series]} decreasing; continuation series "
        f"{[f'{x:.2e}' for x in origin_series[origin_tfs[0].name]]} decreasing; "
        f"inner slope mass {[f'{v:.2e}' for v in mass.extra['values']]} decreasing",
    )


def test_criterion_10_uniqueness_surrogate(n2, n2_continuation):
    cfg, params, _ = n2
    finest = n2_continuation.finest
    T = cfg.continuation.horizon_efolds / params.decay_rate
    cn = SchemeConfig("crank_nicolson", dt=cfg.scheme.dt)
    other = solver.solve_annulus(finest.problem, finest.grid, T, cn)
    res = verify.check_uniqueness_surrogate(finest, other)
    verdict(
        10, res.passed,
        f"trapezoidal and backward-Euler limit fields agree to "
        f"{res.measured:.2e} <= 1e-3 on the compact window",
    )


def test_criterion_11_continuation_cauchy(n2_continuation):
    diffs = n2_continuation.consecutive_diffs
    res = verify.check_continuation_cauchy(diffs)
    verdict(
        11, res.passed and len(diffs) == 3,
        "consecutive sup differences "
        f"{[f'{d:.3e}' for d in diffs]} strictly decreasing over the "
        "4-term geometric sequence",
    )
