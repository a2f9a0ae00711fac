"""Kernels and rates: pointwise values, mass balance, envelopes, invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragkit.errors import InvalidKernelError
from fragkit.kernels import (FragmentKernel, RateFunction, classify_mass,
                             eval_kernel, eval_rate, rate_envelope)

BUILT_INS = [FragmentKernel.homogeneous_power(-0.5), FragmentKernel.boundary_binary(),
             FragmentKernel.concentrated()]
BUILT_IN_IDS = ["homogeneous", "boundary_binary", "concentrated"]


class TestRateEvaluation:
    def test_power_identity(self):
        assert eval_rate(RateFunction.power(1.0), 3.0) == 3.0

    def test_power_zero_exponent_is_constant_one(self):
        assert eval_rate(RateFunction.power(0.0), 7.0) == 1.0

    def test_tabulated_midpoint(self):
        rate = RateFunction.tabulated([(0.0, 0.0), (2.0, 4.0)])
        assert eval_rate(rate, 1.0) == 2.0

    def test_negative_table_rejected(self):
        with pytest.raises(InvalidKernelError):
            RateFunction.tabulated([(0.0, 1.0), (1.0, -0.5)])

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidKernelError):
            RateFunction.power(-1.0)


class TestRateEnvelope:
    def test_monotone_rate_is_its_own_envelope(self):
        assert rate_envelope(RateFunction.power(2.0), 3.0) == 9.0

    def test_tabulated_running_max(self):
        # peak at x=0 dominates the later dip and rise
        rate = RateFunction.tabulated([(0.0, 5.0), (1.0, 1.0), (2.0, 3.0)])
        assert rate_envelope(rate, 1.5) == 5.0

    def test_constant(self):
        rate = RateFunction.constant(4.0)
        for x in (0.1, 1.0, 37.0):
            assert rate_envelope(rate, x) == 4.0

    def test_envelope_dominates_and_is_nondecreasing(self):
        rng = np.random.default_rng(11)
        for rate in (RateFunction.tabulated([(0.0, 2.0), (0.5, 0.1), (1.0, 3.0), (4.0, 1.0)]),
                     RateFunction.custom(lambda x: 2.0 + np.sin(3.0 * x))):
            xs = np.sort(rng.uniform(0.01, 6.0, size=400))
            env = rate_envelope(rate, xs)
            assert np.all(np.diff(env) >= -1e-12)
            assert np.all(env >= eval_rate(rate, xs) - 1e-12)


class TestKernelEvaluation:
    def test_boundary_binary_pieces(self):
        bb = FragmentKernel.boundary_binary()
        assert eval_kernel(bb, 0.5, 5.0) == 1.0
        assert eval_kernel(bb, 2.5, 5.0) == 0.0
        assert eval_kernel(bb, 4.5, 5.0) == 1.0
        assert eval_kernel(bb, 1.0, 1.5) == pytest.approx(2.0 / 1.5)

    def test_concentrated_pieces(self):
        conc = FragmentKernel.concentrated()
        assert eval_kernel(conc, 3.9, 4.0) == 4.0
        assert eval_kernel(conc, 2.0, 4.0) == 0.0
        assert eval_kernel(conc, 0.3, 4.0) == 0.0
        assert eval_kernel(conc, 0.1, 4.0) == 4.0

    def test_homogeneous_value(self):
        hom = FragmentKernel.homogeneous_power(0.0)
        assert eval_kernel(hom, 1.0, 4.0) == 0.5

    def test_support_rule_random(self):
        rng = np.random.default_rng(42)
        y = rng.uniform(0.1, 50.0, size=10_000)
        x = y * rng.uniform(1.0 + 1e-12, 3.0, size=y.size)  # strictly above support
        for kern in (FragmentKernel.homogeneous_power(-0.7),
                     FragmentKernel.boundary_binary(),
                     FragmentKernel.concentrated()):
            vals = eval_kernel(kern, x, y)
            assert np.all(vals == 0.0)

    def test_homogeneous_scaling(self):
        hom = FragmentKernel.homogeneous_power(-1.3)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.01, 1.0, size=1000)
        y = x * rng.uniform(1.0, 10.0, size=x.size)
        lam = rng.uniform(0.1, 100.0, size=x.size)
        lhs = eval_kernel(hom, lam * x, lam * y) * lam
        rhs = eval_kernel(hom, x, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_nonpositive_parent_rejected(self):
        with pytest.raises(InvalidKernelError):
            eval_kernel(FragmentKernel.boundary_binary(), 0.5, 0.0)

    def test_invalid_nu_rejected(self):
        with pytest.raises(InvalidKernelError):
            FragmentKernel.homogeneous_power(-2.0)
        with pytest.raises(InvalidKernelError):
            FragmentKernel.homogeneous_power(0.5)


class TestMassIntegral:
    def test_boundary_binary_conserves(self):
        m = FragmentKernel.boundary_binary().mass_partial(5.0, 5.0)
        assert m == pytest.approx(5.0, rel=1e-14)

    def test_homogeneous_conserves(self):
        m = FragmentKernel.homogeneous_power(-1.0).mass_partial(2.0, 2.0)
        assert m == pytest.approx(2.0, rel=1e-14)

    def test_zero_kernel(self):
        m = FragmentKernel.zero().mass_partial(3.0, 3.0)
        assert m == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_path_matches_closed_form(self):
        # force the generic path by a custom clone of the homogeneous kernel
        nu = -0.5
        clone = FragmentKernel.custom(
            lambda x, y: (nu + 2.0) * np.where(x > 0, x, np.nan) ** nu / y ** (nu + 1.0))
        m = clone.mass_partial(3.0, 3.0)
        assert m == pytest.approx(3.0, rel=1e-9)
        assert classify_mass(clone, [3.0]).m_values[0] == m

    def test_numeric_partial_mass_across_a_wide_gap(self):
        # one fixed panel over [1e-4, 1] missed 2.6% of the mass of x^-1.5
        hom = FragmentKernel.homogeneous_power(-1.5)
        clone = FragmentKernel.custom(lambda x, yy: eval_kernel(hom, x, yy))
        s = np.array([1e-4, 1.0])
        np.testing.assert_allclose(clone.mass_partial(s, 1.0), hom.mass_partial(s, 1.0),
                                   rtol=1e-10, atol=0.0)

    def test_mass_homogeneity(self):
        hom = FragmentKernel.homogeneous_power(-0.5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.uniform(0.1, 5.0)
            lam = rng.uniform(0.5, 20.0)
            m1 = hom.mass_partial(lam * y, lam * y)
            m2 = lam * hom.mass_partial(y, y)
            np.testing.assert_allclose(m1, m2, rtol=1e-12)

    def test_partial_mass_matches_quadrature(self):
        from fragkit.quadrature import integrate
        for kern in (FragmentKernel.boundary_binary(), FragmentKernel.concentrated(),
                     FragmentKernel.homogeneous_power(-1.2)):
            for y in (1.1, 3.0, 8.0):
                for s in (0.3 * y, 0.8 * y, y):
                    ref, _ = integrate(lambda x: eval_kernel(kern, x, y) * x, 0.0, s,
                                       breakpoints=kern.breakpoints(y), grade_lo=True)
                    np.testing.assert_allclose(kern.mass_partial(s, y), ref,
                                               rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("kern", BUILT_INS[1:], ids=BUILT_IN_IDS[1:])
    def test_top_band_closed_form_against_exact_arithmetic(self, kern):
        # on [t, y], M(s; y) = c + (h/2)(s^2 - t^2): t = y - 1, c = 1/2 and h = 1 for
        # boundary_binary, t = y - 1/y, c = 1/(2y) and h = y for concentrated.  Exact
        # rational arithmetic on the same floats s and y, with t exact too, measures
        # the rounding alone, relative to M itself.  concentrated's M falls to
        # 1/(2y) at s = t, where 1/y rounded to one float would leave about eps y
        bb = kern.family == "boundary_binary"
        rng = np.random.default_rng(15)
        y = np.exp(rng.uniform(np.log(2.0 if bb else np.sqrt(2.0)), np.log(1e3), 10_000))
        t = y - 1.0 if bb else y - 1.0 / y
        s = np.minimum(t + rng.uniform(0.0, 1.0, y.size) * (y - t), y)
        worst = 0
        for s_k, y_k, m_k in zip(s, y, kern.mass_partial(s, y)):
            s_k, y_k = Fraction(s_k), Fraction(y_k)
            t_k = y_k - 1 if bb else y_k - 1 / y_k
            c, h = (Fraction(1, 2), 1) if bb else (1 / (2 * y_k), y_k)
            want = c + h * (s_k - t_k) * (s_k + t_k) / 2
            worst = max(worst, abs(Fraction(m_k) - want) / want)
        assert worst <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(nu=st.floats(-1.9, 0.0), y=st.floats(0.01, 100.0), ratio=st.floats(1.01, 4.0),
           n=st.integers(1, 12), data=st.data())
    def test_numeric_partial_mass_matches_closed_form(self, nu, y, ratio, n, data):
        # a geometric run of s (consecutive ratio <= 4), one point above y, then
        # duplicates and zeros, in random order; and one scalar
        hom = FragmentKernel.homogeneous_power(nu)
        clone = FragmentKernel.custom(lambda x, yy: eval_kernel(hom, x, yy))
        run = list(y * 1.5 * ratio ** -np.arange(n + 1))
        dups = data.draw(st.lists(st.sampled_from(run), max_size=4))
        zeros = [0.0] * data.draw(st.integers(0, 2))
        s = np.array(data.draw(st.permutations(run + dups + zeros)))
        np.testing.assert_allclose(clone.mass_partial(s, y), hom.mass_partial(s, y),
                                   rtol=1e-10, atol=0.0)
        scalar = data.draw(st.sampled_from(run))
        got = clone.mass_partial(scalar, y)
        assert isinstance(got, float)
        assert got == pytest.approx(hom.mass_partial(scalar, y), rel=1e-10)


class TestMassPartialOverArraysOfY:
    # 19.144 and 1.8747171664109912 (a node of Grid.geometric(1e-4, 20, 2048))
    # are parent sizes where libm's pow(t, 2) of the closed forms' y-only term,
    # t = y - 1 and t = y - 1/y, is one ulp off t * t
    YS = np.concatenate([np.geomspace(0.3, 30.0, 41), [19.144, 1.8747171664109912]])

    @pytest.mark.parametrize("kern", BUILT_INS, ids=BUILT_IN_IDS)
    def test_array_y_is_the_stacked_scalar_calls(self, kern):
        s = np.linspace(0.0, 31.0, 157)
        got = kern.mass_partial(s[:, None], self.YS)
        ref = np.stack([kern.mass_partial(s, float(y)) for y in self.YS], axis=1)
        assert np.array_equal(got, ref)
        assert isinstance(kern.mass_partial(1.0, 3.0), float)

    @pytest.mark.parametrize("kern", BUILT_INS + [FragmentKernel.custom(lambda x, y: x / y**2)],
                             ids=BUILT_IN_IDS + ["custom"])
    @pytest.mark.parametrize("y", [-1.0, 0.0, np.nan, np.inf, [1.0, np.nan], [2.0, -1.0]],
                             ids=["negative", "zero", "nan", "inf", "array_nan", "array_negative"])
    def test_parent_size_outside_the_domain_rejected(self, kern, y):
        # np.clip with min > max once returned -1 at y = -1, and y = 0 gave NaN
        with pytest.raises(InvalidKernelError):
            kern.mass_partial(np.array([0.5, 1.0]), y)
        if np.ndim(y) == 0:
            with pytest.raises(InvalidKernelError):
                kern.mass_partial(y, y)
        with pytest.raises(InvalidKernelError):  # eval_kernel once returned 1.0 at y = nan
            eval_kernel(kern, np.array([0.5, 1.0]), y)


class TestClassifyMass:
    def test_boundary_binary_conserving(self):
        rep = classify_mass(FragmentKernel.boundary_binary(), [3.0, 5.0, 10.0], tol=1e-8)
        assert rep.classification == "conserving"

    def test_homogeneous_conserving(self):
        rep = classify_mass(FragmentKernel.homogeneous_power(-0.5), [1.0, 10.0], tol=1e-8)
        assert rep.classification == "conserving"

    def test_sub_conserving_kernel(self):
        # b(x,y) = x/y^2 has m(y) = y/3 (hand integral of x^2/y^2)
        kern = FragmentKernel.custom(lambda x, y: x / y**2)
        rep = classify_mass(kern, [1.0, 2.0], tol=1e-8)
        assert rep.classification == "sub_conserving"
        np.testing.assert_allclose(rep.m_values, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-9)

    def test_violating_kernel(self):
        kern = FragmentKernel.custom(lambda x, y: 3.0 * x / y**2)  # m(y) = y
        rep = classify_mass(kern, [1.0, 4.0], tol=1e-8)
        assert rep.classification == "conserving"
        kern2 = FragmentKernel.custom(lambda x, y: 4.0 * x / y**2)  # m(y) = 4y/3
        rep2 = classify_mass(kern2, [1.0, 4.0], tol=1e-8)
        assert rep2.classification == "violating"
        assert rep2.max_excess == pytest.approx(1.0 / 3.0, rel=1e-8)

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidKernelError):
            classify_mass(FragmentKernel.boundary_binary(), [])

    @pytest.mark.parametrize("ys", [[1.0, 0.0], [1.0, np.nan, 5.0], [1.0, np.inf, 5.0]],
                             ids=["zero", "nan", "inf"])
    def test_samples_outside_the_domain_rejected(self, ys):
        # NaN once classified as "violating" with max excess NaN, and inf as
        # "sub_conserving" with m(inf) = 0.5
        with pytest.raises(InvalidKernelError):
            classify_mass(FragmentKernel.boundary_binary(), ys)
