"""Ratio diagnostics and verdicts against independently derived closed forms.

Frozen oracle values (all cross-checked against scipy.integrate.quad during
test authoring):

* boundary_binary with w = e^x:  n(y) = e - 1 + e^y - e^{y-1}, so
  r(y) = (e-1) e^{-y} + 1 - 1/e;   r(30) = 0.6321205588287184,
  n(10) = 13925.100149059793, and sup over [2, inf) is r(2) = 0.8646647167633872.
* boundary_binary with w = x^2:  r(y) = 1 - 1/y + 2/(3y^2) for y > 2 (rises to 1).
* concentrated with w = x e^{x^2}: r(y) = (1 - e^{-2 + 1/y^2})/2
  + (e^{1/y^2} - 1) e^{-y^2}/2;  r(8) = 0.4312667480807403.
* concentrated with w = e^x:  r(y) = y (e^{1/y} - 1) e^{-y} + y (1 - e^{-1/y}),
  rising toward 1;  r(50) = 0.9900663346622349.
* homogeneous h(z) = (nu+2) z^nu with w = x^p:  r = (nu+2)/(nu+p+1) for all y.
"""

import numpy as np
import pytest

from fragkit.admissibility import (check, log_n_omega, log_n_samples, n_omega,
                                   ratio_curve, relative_bound)
from fragkit.errors import QuadratureError
from fragkit.kernels import FragmentKernel, RateFunction
from fragkit.quadrature import QuadratureSpec
from fragkit.weight_builder import build_h
from fragkit.weights import Weight, compare_weights

BB = FragmentKernel.boundary_binary()
CONC = FragmentKernel.concentrated()
HOM1 = FragmentKernel.homogeneous_power(-1.0)
W_EXP = Weight.exponential(np.e)
W_SUP = Weight.super_exponential()


def r_bb_exp(y):
    return (np.e - 1.0) * np.exp(-y) + 1.0 - 1.0 / np.e


class TestNOmega:
    def test_boundary_binary_exponential(self):
        val = np.exp(log_n_omega(BB, W_EXP, 10.0))
        assert val == pytest.approx(13925.100149059793, rel=1e-10)

    def test_homogeneous_power_weight(self):
        # n(y) = y^p (nu+2)/(nu+p+1) -> 9 * 1/2 at y = 3, p = 2
        assert n_omega(HOM1, Weight.power(2.0), 3.0) == pytest.approx(4.5, rel=1e-10)

    def test_zero_kernel(self):
        assert n_omega(FragmentKernel.zero(), Weight.power(1.0), 2.0) == 0.0

    def test_exponential_class_returns_log(self):
        as_log = n_omega(BB, W_EXP, 10.0)
        assert as_log == pytest.approx(np.log(13925.100149059793), rel=1e-12)
        forced = n_omega(BB, W_EXP, 10.0, as_log=False)
        assert forced == pytest.approx(13925.100149059793, rel=1e-10)


class TestRatioCurve:
    def test_boundary_binary_exponential_at_30(self):
        rc = ratio_curve(BB, W_EXP, [30.0])
        assert rc.ratio[0] == pytest.approx(0.6321205588287184, abs=1e-10)

    def test_concentrated_super_exponential_at_8(self):
        rc = ratio_curve(CONC, W_SUP, [8.0])
        assert np.isfinite(rc.ratio[0])
        assert rc.ratio[0] == pytest.approx(0.4312667480807403, rel=1e-9)

    def test_homogeneous_constant_ratio(self):
        rc = ratio_curve(HOM1, Weight.power(2.0), np.geomspace(1.0, 1000.0, 64))
        np.testing.assert_allclose(rc.ratio, 0.5, atol=1e-10)

    def test_csv_roundtrip(self, tmp_path):
        rc = ratio_curve(BB, W_EXP, [5.0, 30.0])
        path = tmp_path / "curve.csv"
        rc.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 3], rc.ratio, rtol=1e-15)


class TestCheck:
    def test_homogeneous_all_pass(self):
        rep = check(HOM1, Weight.power(2.0), 1.0, 100.0)
        assert rep.kappa_hat == pytest.approx(0.5, abs=1e-9)
        assert rep.kappa1_hat == pytest.approx(0.5, abs=1e-9)
        assert rep.kappa2_hat == pytest.approx(0.5, abs=1e-9)
        assert rep.kappa_hat == max(rep.kappa1_hat, rep.kappa2_hat)
        assert rep.verdict_A32 and rep.verdict_A41
        assert rep.verdict_limsup == "pass"

    def test_boundary_binary_power_weight_inconclusive(self):
        rep = check(BB, Weight.power(2.0), 1.0, 200.0)
        assert 0.99 <= rep.tail_estimate <= 1.0
        assert rep.verdict_limsup in ("inconclusive", "fail")
        assert rep.verdict_limsup != "pass"
        assert rep.trend > 0  # still rising at the horizon

    def test_concentrated_exponential_not_pass(self):
        rep = check(CONC, W_EXP, 2.0, 50.0)
        assert rep.tail_estimate >= 0.99
        assert rep.verdict_limsup != "pass"

    def test_boundary_binary_exponential_passes(self):
        rep = check(BB, W_EXP, 2.0, 100.0)
        assert rep.verdict_A41
        assert rep.verdict_limsup == "pass"
        assert rep.kappa2_hat == pytest.approx(r_bb_exp(2.0), rel=1e-8)
        assert rep.tail_estimate <= rep.kappa2_hat + 1e-15

    def test_report_invariants(self):
        rep = check(BB, Weight.power(2.0), 2.0, 100.0)
        assert rep.kappa_hat == max(rep.kappa1_hat, rep.kappa2_hat)
        assert rep.tail_estimate <= rep.kappa2_hat + 1e-15
        if rep.trend > 0 and rep.tail_estimate < 1.0:
            assert rep.verdict_limsup == "inconclusive"

    def test_five_verdict_lines_in_summary(self):
        rep = check(HOM1, Weight.power(2.0), 1.0, 50.0)
        verdict_lines = [ln for ln in rep.summary().splitlines()
                         if ln.startswith("verdict_")]
        assert len(verdict_lines) == 5

    def test_report_csv_carries_log_columns(self, tmp_path):
        rep = check(HOM1, Weight.power(2.0), 1.0, 10.0)
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == rep.y_small.size + rep.y_grid.size
        assert np.all(np.isfinite(data[:, 1]))  # log n_omega
        np.testing.assert_allclose(np.exp(data[:, 1] - data[:, 2]), data[:, 3],
                                   rtol=1e-12)


class TestScalingInvariance:
    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
    def test_verdicts_and_values_invariant(self, lam):
        base = check(HOM1, Weight.power(2.0), 1.0, 100.0)
        scaled = check(HOM1, Weight.power(2.0).scaled(lam), 1.0, 100.0)
        assert scaled.verdict_A32 == base.verdict_A32
        assert scaled.verdict_A41 == base.verdict_A41
        assert scaled.verdict_limsup == base.verdict_limsup
        for attr in ("kappa_hat", "kappa1_hat", "kappa2_hat", "tail_estimate"):
            np.testing.assert_allclose(getattr(scaled, attr), getattr(base, attr),
                                       rtol=1e-12)


class TestConsistencyWithComparison:
    def test_kappa2_ordering_follows_hypothesis(self):
        # (log x)' <= (log x^2)' <= (log x^3)' everywhere
        weights = [Weight.power(p) for p in (1.0, 2.0, 3.0)]
        x_grid = np.geomspace(1e-3, 100.0, 64)
        k2 = [check(HOM1, w, 1.0, 100.0).kappa2_hat for w in weights]
        for w_lo, w_hi, k_lo, k_hi in zip(weights, weights[1:], k2, k2[1:]):
            v = compare_weights(w_lo, w_hi, HOM1, x_grid, [2.0, 20.0])
            assert v.hypothesis_holds
            assert k_lo >= k_hi - 1e-12


class TestRelativeBound:
    def test_homogeneous_hand_values(self):
        est = relative_bound(HOM1, RateFunction.power(1.0), Weight.power(2.0), 1.0, 100.0)
        assert est.alpha_hat == pytest.approx(0.5, abs=1e-9)
        assert est.beta_hat == pytest.approx(0.5, abs=1e-9)  # kappa1 * envelope(1) = 0.5 * 1

    def test_zero_kernel(self):
        est = relative_bound(FragmentKernel.zero(), RateFunction.power(1.0),
                             Weight.power(1.0), 1.0, 20.0)
        assert est.alpha_hat == 0.0
        assert est.beta_hat == 0.0

    def test_boundary_binary_exponential(self):
        # alpha_hat is the sampled sup of r on [2, 40], attained at eta0:
        # r(2) = 0.8646647167633872 (the asymptote 1 - 1/e is only the limit)
        est = relative_bound(BB, RateFunction.constant(1.0), W_EXP, 2.0, 40.0)
        assert est.alpha_hat == pytest.approx(0.8646647167633872, rel=1e-9)
        rep = check(BB, W_EXP, 2.0, 40.0)
        assert est.beta_hat == pytest.approx(rep.kappa1_hat, rel=1e-12)


class TestSampledNOmega:
    """The one sampling path for n_w over parent sizes, and its failure contract."""

    # scale-invariant oscillation: the same 40/(2 pi) periods under every y, so a
    # single refinement cannot settle any sample
    OSC = FragmentKernel.custom(lambda x, y: (1.0 + np.cos(40.0 * x / y)) * 2.0 / y,
                                label="oscillatory")
    COARSE = QuadratureSpec(max_refinements=1)

    def test_samples_match_scalar_calls(self):
        ys = np.geomspace(2.0, 50.0, 7)
        np.testing.assert_array_equal(log_n_samples(BB, W_EXP, ys),
                                      [log_n_omega(BB, W_EXP, float(y)) for y in ys])

    def test_cutoff(self):
        # homogeneous nu = 0: b = 2/y, so int_0^hi 2x/y dx = hi^2 / y
        hom0 = FragmentKernel.homogeneous_power(0.0)
        assert np.exp(log_n_omega(hom0, Weight.power(1.0), 3.0, hi=1.0)) == \
            pytest.approx(1.0 / 3.0, rel=1e-12)
        assert log_n_omega(hom0, Weight.power(1.0), 0.5, hi=1.0) == \
            log_n_omega(hom0, Weight.power(1.0), 0.5)

    def test_ratio_curve_marks_every_failed_sample(self):
        ys = np.geomspace(1.0, 10.0, 9)
        rc = ratio_curve(self.OSC, Weight.power(1.0), ys, spec=self.COARSE)
        assert rc.failed.shape == ys.shape
        assert np.all(rc.failed)
        assert rc.log_n.shape == ys.shape
        assert np.all(np.isfinite(rc.log_n))  # one partial estimate per y
        assert not np.any(ratio_curve(self.OSC, Weight.power(1.0), ys).failed)

    def test_samples_raise_with_mask_and_partials(self):
        ys = np.geomspace(1.0, 10.0, 9)
        with pytest.raises(QuadratureError) as exc:
            log_n_samples(self.OSC, Weight.power(1.0), ys, spec=self.COARSE)
        assert exc.value.failed.shape == ys.shape
        assert exc.value.failed.dtype == bool
        assert np.all(exc.value.failed)
        assert exc.value.partial.shape == ys.shape
        assert "9 of 9" in str(exc.value)

    def test_strict_callers_raise_quadrature_error(self):
        with pytest.raises(QuadratureError) as exc:
            build_h(self.OSC, Weight.power(1.0), 1.0, 2.0, samples_per_unit=8,
                    spec=self.COARSE)
        assert exc.value.failed.shape == exc.value.partial.shape
        with pytest.raises(QuadratureError) as exc:
            compare_weights(Weight.power(1.0), Weight.power(2.0), self.OSC,
                            np.geomspace(1e-3, 10.0, 16), [2.0, 5.0], spec=self.COARSE)
        assert exc.value.failed.shape == (2,)
