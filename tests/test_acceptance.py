"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value below is frozen from an independently verified
closed form (cross-checked against scipy.integrate.quad at authoring time).

Note on criterion 3: the stated target for the concentrated-kernel ratio at
y = 8 under w(x) = x e^{x^2} follows the closed form
(1 - e^{-2 + 1/64})/2 + (e^{1/64} - 1) e^{-64}/2 = 0.4312667480807403;
the test asserts that value with the criterion's +-1e-3 band.
"""

import time

import numpy as np
import pytest

from fragkit.admissibility import check, log_n_samples, ratio_curve
from fragkit.kernels import FragmentKernel, RateFunction
from fragkit.simulator import (Grid, bump, column_kappa, discretize, expm_oracle,
                               simulate)
from fragkit.weight_builder import MajorantB, construct_weight, exp_weight_search, solve_volterra
from fragkit.weights import Weight, compare_weights

BB = FragmentKernel.boundary_binary()
CONC = FragmentKernel.concentrated()
HOM0 = FragmentKernel.homogeneous_power(0.0)
HOM1 = FragmentKernel.homogeneous_power(-1.0)


def _report(num, name, started):
    print(f"[acceptance] criterion {num:02d} ({name}): PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_homogeneous_ratio_constant():
    t0 = time.perf_counter()
    grid = np.geomspace(1.0, 1000.0, 193)  # 64 per decade, 3 decades
    rc = ratio_curve(HOM1, Weight.power(2.0), grid)
    dev = np.max(np.abs(rc.ratio - 0.5))
    assert dev < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, "homogeneous ratio = 1/2 on 3 decades", t0)


def test_criterion_02_boundary_binary_exponential_limit():
    t0 = time.perf_counter()
    # closed form r(y) = (e-1) e^{-y} + 1 - 1/e
    expected_30 = (np.e - 1.0) * np.exp(-30.0) + 1.0 - 1.0 / np.e
    rc = ratio_curve(BB, Weight.exponential(np.e), [30.0])
    assert rc.ratio[0] == pytest.approx(expected_30, abs=1e-4)
    assert rc.ratio[0] == pytest.approx(0.6321206, abs=1e-4)

    rep = check(BB, Weight.exponential(np.e), 2.0, 100.0)
    assert rep.verdict_limsup == "pass"

    rep2 = check(BB, Weight.power(2.0), 2.0, 200.0)
    assert 0.99 <= rep2.tail_estimate <= 1.0
    assert rep2.verdict_limsup != "pass"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, "boundary-binary exponential limit 1 - 1/e", t0)


def test_criterion_03_concentrated_super_exponential():
    t0 = time.perf_counter()
    w_sup = Weight.super_exponential()
    expected_8 = 0.5 * (1.0 - np.exp(-2.0 + 1.0 / 64.0)) \
        + 0.5 * np.expm1(1.0 / 64.0) * np.exp(-64.0)
    rc = ratio_curve(CONC, w_sup, [8.0])
    assert np.isfinite(rc.ratio[0])
    assert rc.ratio[0] == pytest.approx(expected_8, abs=1e-3)

    # log-space is mandatory: the linear-space value already overflows here
    ln = log_n_samples(CONC, w_sup, [30.0])[0]
    assert np.isfinite(ln)
    with np.errstate(over="ignore"):
        assert np.exp(ln) == np.inf

    rep = check(CONC, Weight.exponential(np.e), 2.0, 50.0)
    assert rep.tail_estimate >= 0.99
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, "concentrated super-exponential ratio, log-space", t0)


def test_criterion_04_construction_certificate():
    t0 = time.perf_counter()
    weight, cert = construct_weight(BB, Weight.power(1.0), 1.0, 1.0, 50.0, tol=1e-6)
    assert cert.passed
    assert cert.y.size == 200
    assert np.all(cert.lhs <= cert.rhs * (1.0 + 1e-6))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, "constructed weight certificate on 200 points", t0)


def test_criterion_05_volterra_order_two():
    t0 = time.perf_counter()
    bt = MajorantB.constant(1.0, 1.0, 2.0)
    sol = solve_volterra(bt, lambda y: 1.0, 1.0, 1.0, 2.0, 1e-3)
    err_ref = abs(sol.values[-1] - np.e) / np.e
    assert err_ref < 1e-6

    steps = [4e-3, 2e-3, 1e-3, 5e-4]
    errs = [abs(solve_volterra(bt, lambda y: 1.0, 1.0, 1.0, 2.0, s).values[-1] - np.e) / np.e
            for s in steps]
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)
    _report(5, "Volterra march second order", t0)


def test_criterion_06_exponential_weight_search():
    t0 = time.perf_counter()
    res = exp_weight_search(1.0, 1.0, 1.5, 1.0)
    assert res is not None
    assert (res.c, res.delta) == (256.0, 0.25)
    assert res.delta <= 1.0
    assert res.delta * 1.0 < 0.5
    assert res.c > 1.5
    assert np.log(res.c) > 1.0
    assert res.c ** -res.delta < 0.5
    assert res.c ** -res.delta + res.delta * 1.0 < 1.0

    rep = check(BB, res.as_weight(), 2.0, 50.0)
    assert rep.tail_estimate < 1.0
    _report(6, "exponential weight search (256, 1/4)", t0)


def test_criterion_07_oracle_equivalence_order_one():
    t0 = time.perf_counter()
    grid = Grid.geometric(0.01, 2.0, 32)
    gen = discretize(HOM0, RateFunction.power(1.0), grid)
    u0 = bump(grid, 0.1, 1.0)
    ref = expm_oracle(gen, 1.0, u0)
    w = Weight.power_shifted(1.0)
    wv = w.eval(grid.nodes)

    def rel_err(dt):
        fin = simulate(u0, gen, 1.0, dt).final
        num = np.abs(wv * grid.weights * (fin.u - ref.u)).sum()
        den = np.abs(wv * grid.weights * ref.u).sum()
        return num / den

    dts = [8e-3, 4e-3, 2e-3, 1e-3]
    errs = [rel_err(dt) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)
    assert errs[-1] < 5e-3
    _report(7, "implicit Euler order 1 vs matrix exponential", t0)


def test_criterion_08_conservation_and_substochasticity():
    t0 = time.perf_counter()
    grid = Grid.geometric(1e-4, 20.0, 512)
    gen = discretize(HOM0, RateFunction.power(1.0), grid)
    w_mass = Weight.power(1.0)
    assert column_kappa(gen, w_mass) <= 1.0 + 1e-9

    traj = simulate(bump(grid, 1.0, 10.0), gen, 1.0, 2e-3,
                    weight=w_mass, sample_every=25)
    total = traj.M1 + traj.dust_mass
    assert np.max(np.abs(total - total[0]) / total[0]) < 1e-3
    assert np.all(np.diff(traj.norm_omega) <= 1e-10 * traj.norm_omega[:-1])
    assert np.all(traj.final.u >= 0.0)
    assert np.all(traj.M0 >= 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "mass conservation with dust + norm decay + positivity", t0)


def test_criterion_09_scaling_invariance():
    t0 = time.perf_counter()
    base = check(HOM1, Weight.power(2.0), 1.0, 100.0)
    for lam in (1e-6, 1.0, 1e6):
        rep = check(HOM1, Weight.power(2.0).scaled(lam), 1.0, 100.0)
        assert rep.verdict_A32 == base.verdict_A32
        assert rep.verdict_A41 == base.verdict_A41
        assert rep.verdict_limsup == base.verdict_limsup
        for attr in ("kappa_hat", "kappa1_hat", "kappa2_hat", "tail_estimate"):
            np.testing.assert_allclose(getattr(rep, attr), getattr(base, attr),
                                       rtol=1e-12)
    # a second regime: verdicts must be scale-free there too
    base2 = check(BB, Weight.power(2.0), 2.0, 100.0)
    for lam in (1e-6, 1e6):
        rep2 = check(BB, Weight.power(2.0).scaled(lam), 2.0, 100.0)
        assert rep2.verdict_limsup == base2.verdict_limsup
        np.testing.assert_allclose(rep2.tail_estimate, base2.tail_estimate, rtol=1e-12)
    _report(9, "verdicts invariant under weight rescaling", t0)


def test_criterion_10_comparison_proposition_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    x_grid = np.geomspace(1e-3, 50.0, 96)
    y_samples = [2.0, 5.0, 20.0]
    kernels = [HOM0, FragmentKernel.homogeneous_power(-0.5), BB]

    def draw_pair():
        kind = rng.integers(0, 3)
        if kind == 0:
            p = np.sort(rng.uniform(0.5, 4.0, size=2))
            return Weight.power(p[0]), Weight.power(p[1] + 1e-3)
        if kind == 1:
            c = np.sort(rng.uniform(1.2, 8.0, size=2))
            return Weight.exponential(c[0]), Weight.exponential(c[1] + 1e-3)
        return Weight.power(rng.uniform(0.5, 1.0)), Weight.super_exponential()

    accepted = 0
    counterexamples = 0
    while accepted < 20:
        w1, w2 = draw_pair()
        kern = kernels[rng.integers(0, len(kernels))]
        verdict = compare_weights(w1, w2, kern, x_grid, y_samples)
        if not verdict.hypothesis_holds:
            continue  # ordering not verified; outside the proposition's scope
        accepted += 1
        if not verdict.pointwise_inequality_holds:
            counterexamples += 1
    assert counterexamples == 0
    _report(10, "comparison proposition on 20 verified pairs", t0)
