"""Weight families: log/linear consistency, derived weights, comparisons."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from fragkit import admissibility
from fragkit.errors import InvalidInputError, QuadratureError, WeightDomainError
from fragkit.kernels import FragmentKernel, RateFunction
from fragkit.weights import (Weight, compare_weights, derived_weight,
                             gamma_monotone_check)


def _family_zoo():
    return [Weight.power(2.0), Weight.power_shifted(1.5),
            Weight.exponential(np.e), Weight.super_exponential(),
            Weight.tabulated([0.5, 1.0, 2.0, 4.0], [0.1, 0.4, 1.3, 3.0])]


class TestEvaluation:
    def test_exponential_at_one(self):
        w = Weight.exponential(np.e)
        assert w.eval(1.0) == pytest.approx(2.718281828459045, rel=1e-12)

    def test_super_exponential_log(self):
        w = Weight.super_exponential()
        assert w.log_eval(2.0) == pytest.approx(np.log(2.0) + 4.0, rel=1e-14)

    def test_power_linear(self):
        assert Weight.power(1.0).eval(5.0) == 5.0

    def test_log_linear_consistency(self):
        rng = np.random.default_rng(9)
        for w in _family_zoo():
            xs = rng.uniform(0.01, 8.0, size=1000)
            ev = w.eval(xs)
            np.testing.assert_allclose(np.exp(w.log_eval(xs)), ev, rtol=1e-12)

    def test_power_log_at_zero_is_domain_error(self):
        with pytest.raises(WeightDomainError):
            Weight.power(2.0).log_eval(0.0)
        with pytest.raises(WeightDomainError):
            Weight.super_exponential().log_eval(0.0)

    @pytest.mark.parametrize("w", [Weight.power(1.0), Weight.super_exponential(),
                                   Weight.power_shifted(1.0), Weight.exponential(2.0),
                                   Weight.tabulated([1.0, 3.0], [0.0, 2.0])],
                             ids=["power", "super_exponential", "power_shifted",
                                  "exponential", "tabulated"])
    def test_log_derivative_has_the_domain_of_log_eval(self, w):
        # power(1).log_derivative(-1) was -1, and at 0 it warned and gave inf
        with pytest.raises(WeightDomainError, match=r"\[0, inf\)"):
            w.log_derivative(-1.0)
        with pytest.raises(WeightDomainError, match=r"\[0, inf\)"):
            w.log_derivative(np.array([1.0, -1.0]))
        if w.family in ("power", "super_exponential"):
            with pytest.raises(WeightDomainError, match="undefined at x = 0"):
                w.log_derivative(0.0)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isfinite(w.log_derivative(0.0))

    @pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= np.finfo(float).maxexp,
                        reason="the reference needs a long double wider than a double")
    @pytest.mark.parametrize("p", [-3.0, 0.5, 2.0, 400.0])
    def test_power_shifted_log_derivative_is_the_logistic(self, p):
        # (p/x) expit(t) at t = p log x over |t| <= 745, with x and p/x kept
        # finite (so |t| <= 345 at p = 0.5).  scipy's expit in double is
        # 1/(1 + e^-t), 0 below t = -709.78, so the reference is its long-double
        # loop on the same double t.  Below log(tiny) the logistic is subnormal,
        # and its one rounding, 2^-1074, times p/x adds to the 4 ulp
        log_x = np.linspace(max(-745.0 / abs(p), np.log(1e-300)),
                            min(745.0 / abs(p), np.log(1e300)), 4001)
        x = np.exp(log_x)
        t = p * np.log(x)
        assert t.min() < -340 and t.max() > 340
        ld = np.longdouble
        want = (ld(p) / x.astype(ld) * expit(t.astype(ld))).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Weight.power_shifted(p).log_derivative(x)
        bound = 4 * np.spacing(np.abs(want)) + np.abs(p / x) * 2.0**-1074
        assert np.all(np.abs(got - want) <= bound)

    def test_eval_overflows_to_inf_not_crash(self):
        w = Weight.super_exponential()
        assert w.eval(50.0) == np.inf
        assert np.isfinite(w.log_eval(50.0))

    def test_scaled_is_exact_log_offset(self):
        w = Weight.power(2.0).scaled(1e6)
        assert w.log_eval(3.0) == pytest.approx(np.log(1e6) + 2 * np.log(3.0), rel=1e-15)

    def test_bad_exponential_base(self):
        with pytest.raises(WeightDomainError):
            Weight.exponential(0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        # a NaN passed the "<= 1" and "<= 0" checks, and a NaN knot the
        # "diff <= 0" one: every sample of a check then failed, exit 3
        for make in (Weight.power, Weight.power_shifted, Weight.exponential,
                     Weight.power(1.0).scaled):
            with pytest.raises(WeightDomainError, match="finite"):
                make(bad)
        for knots, logs in (([1.0, 2.0, 3.0], [0.0, bad, 1.0]), ([1.0, bad, 3.0], [0.0, 0.5, 1.0])):
            with pytest.raises(WeightDomainError, match="finite"):
                Weight.tabulated(knots, logs)
            with pytest.raises(WeightDomainError, match="finite"):
                Weight.composite(Weight.power(1.0), 1.0, knots, logs)

    @pytest.mark.parametrize("w", [Weight.power(1.0), Weight.power_shifted(1.0),
                                   Weight.exponential(2.0), Weight.super_exponential(),
                                   Weight.tabulated([1.0, 3.0], [0.0, 2.0])],
                             ids=["power", "power_shifted", "exponential", "super_exponential",
                                  "tabulated"])
    def test_nan_x_is_a_domain_error(self, w):
        # "x < 0" missed NaN, and each returned NaN
        for method in (w.eval, w.log_eval, w.log_derivative):
            with pytest.raises(WeightDomainError, match=r"\[0, inf\)"):
                method(np.nan)
            with pytest.raises(WeightDomainError, match=r"\[0, inf\)"):
                method(np.array([1.0, np.nan]))

    def test_tabulated_interpolates_log_linearly(self):
        w = Weight.tabulated([1.0, 3.0], [0.0, 2.0])
        assert w.log_eval(2.0) == pytest.approx(1.0)

    def test_monotone_flag(self):
        assert Weight.power(2.0).monotone
        assert Weight.exponential(2.0).monotone
        assert Weight.super_exponential().monotone
        assert Weight.tabulated([1.0, 2.0], [0.0, 1.0]).monotone
        assert not Weight.tabulated([1.0, 2.0], [1.0, 0.0]).monotone


class TestDerivedWeight:
    def test_zero_rate_is_identity(self):
        w = Weight.power(2.0)
        knots = np.array([0.5, 1.0, 2.0, 4.0])
        dw = derived_weight(w, RateFunction.zero(), knots)
        np.testing.assert_allclose(dw.log_eval(knots), w.log_eval(knots), atol=1e-14)

    def test_linear_rate_linear_weight(self):
        # a(x)=x, w(x)=x at the knot x=3: (1+3)*3 = 12
        dw = derived_weight(Weight.power(1.0), RateFunction.power(1.0), [1.0, 3.0, 5.0])
        assert np.exp(dw.log_eval(3.0)) == pytest.approx(12.0, rel=1e-12)

    def test_constant_rate(self):
        # a=4, w=x^2 at x=2: (1+4)*4 = 20
        dw = derived_weight(Weight.power(2.0), RateFunction.constant(4.0), [1.0, 2.0, 3.0])
        assert np.exp(dw.log_eval(2.0)) == pytest.approx(20.0, rel=1e-12)

    def test_dominates_original(self):
        rng = np.random.default_rng(17)
        knots = np.sort(rng.uniform(0.1, 10.0, size=32))
        w = Weight.power_shifted(1.0)
        dw = derived_weight(w, RateFunction.power(0.5), knots)
        assert np.all(dw.log_eval(knots) >= w.log_eval(knots) - 1e-14)


class TestGammaMonotone:
    def test_quadratic_weight(self):
        assert gamma_monotone_check(Weight.power(2.0), [1.0, 2.0, 4.0])

    def test_linear_weight(self):
        assert gamma_monotone_check(Weight.power(1.0), np.geomspace(0.1, 50, 40))

    def test_shifted_weight_fails(self):
        # gamma(x) = 1/x + 1 is decreasing
        assert not gamma_monotone_check(Weight.power_shifted(1.0), [1.0, 2.0, 4.0])

    def test_bad_grid(self):
        with pytest.raises(WeightDomainError):
            gamma_monotone_check(Weight.power(1.0), [2.0, 1.0])


class TestCompareWeights:
    def test_power_pair_on_homogeneous(self):
        hom = FragmentKernel.homogeneous_power(-1.0)
        v = compare_weights(Weight.power(1.0), Weight.power(2.0), hom,
                            np.geomspace(0.01, 50, 64), [1.0, 5.0, 25.0])
        assert v.hypothesis_holds
        assert v.pointwise_inequality_holds
        np.testing.assert_allclose(v.ratio1, 1.0, rtol=1e-9)
        np.testing.assert_allclose(v.ratio2, 0.5, rtol=1e-9)

    def test_identical_weights(self):
        hom = FragmentKernel.homogeneous_power(-0.5)
        w = Weight.power(1.5)
        v = compare_weights(w, w, hom, np.geomspace(0.1, 20, 32), [2.0, 10.0])
        assert v.hypothesis_holds and v.pointwise_inequality_holds
        np.testing.assert_allclose(v.ratio1, v.ratio2, rtol=1e-12)

    def test_power_vs_exponential_hypothesis_fails(self):
        # (log x^2)' = 2/x > 1 = (log e^x)' on (0, 2)
        bb = FragmentKernel.boundary_binary()
        v = compare_weights(Weight.power(2.0), Weight.exponential(np.e), bb,
                            np.geomspace(0.05, 20, 64), [20.0])
        assert not v.hypothesis_holds
        assert v.ratio1.size == 1  # pointwise still reported

    def test_tabulated_endpoint_flagged(self):
        # nu = 0 keeps b bounded, so the tabulated weight's flat extension
        # below its first knot stays integrable
        hom = FragmentKernel.homogeneous_power(0.0)
        knots = np.geomspace(0.5, 10.0, 24)
        wt = Weight.tabulated(knots, 2.0 * np.log(knots))
        v = compare_weights(wt, Weight.power(2.0), hom,
                            np.geomspace(0.5, 10.0, 16), [2.0])
        assert v.onesided_endpoints

    def test_two_knot_table_rejected(self):
        hom = FragmentKernel.homogeneous_power(0.0)
        wt = Weight.tabulated([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(WeightDomainError):
            compare_weights(wt, Weight.power(2.0), hom, [1.0, 1.5, 2.0], [2.0])

    @pytest.mark.parametrize("x_grid", [[], [1.0]], ids=["empty", "one_point"])
    def test_grid_of_fewer_than_two_points_rejected(self, x_grid):
        # the ordering hypothesis held vacuously on an empty grid
        hom = FragmentKernel.homogeneous_power(0.0)
        with pytest.raises(InvalidInputError, match="at least 2 points"):
            compare_weights(Weight.power(1.0), Weight.power(2.0), hom, x_grid, [2.0])

    def test_empty_y_samples_rejected(self):
        # with no sample the ratio inequality held vacuously, and the summary said True
        hom = FragmentKernel.homogeneous_power(0.0)
        with pytest.raises(InvalidInputError, match="y_samples needs at least 1 point"):
            compare_weights(Weight.power(1.0), Weight.power(2.0), hom, [1.0, 2.0, 4.0], [])

    def test_failed_samples_make_the_comparison_inconclusive(self, monkeypatch):
        # each weight's quadrature fails somewhere; the verdict keeps the partials
        # and the union of the masks instead of raising
        hom = FragmentKernel.homogeneous_power(-1.0)
        args = (hom, np.geomspace(0.01, 50, 64), [1.0, 5.0, 25.0])
        ref = compare_weights(Weight.power(1.0), Weight.power(2.0), *args)
        real = admissibility.log_n_samples
        masks = iter([[False, True, False], [False, False, True]])

        def failing(kernel, weight, ys, hi=None):
            partial = real(kernel, weight, ys, hi=hi)
            raise QuadratureError("n_w quadrature did not converge", partial=partial,
                                  failed=np.array(next(masks)))

        monkeypatch.setattr(admissibility, "log_n_samples", failing)
        v = compare_weights(Weight.power(1.0), Weight.power(2.0), *args)
        np.testing.assert_array_equal(v.failed, [False, True, True])
        assert v.inconclusive and not v.pointwise_inequality_holds
        assert v.hypothesis_holds
        np.testing.assert_array_equal(v.ratio1, ref.ratio1)
        np.testing.assert_array_equal(v.ratio2, ref.ratio2)
        lines = v.summary().splitlines()
        assert lines[1] == "pointwise ratio inequality r1 >= r2:   inconclusive"
        assert lines[2] == "quadrature failed at y = 5, 25"
        assert not ref.inconclusive and "failed" not in ref.summary()
