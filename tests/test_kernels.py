"""Kernels and rates: pointwise values, mass balance, envelopes, invariants."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragkit import kernels
from fragkit.errors import InvalidKernelError
from fragkit.errors import InvalidInputError, QuadratureError
from fragkit.kernels import (FragmentKernel, RateFunction, _geometric_fill, _one_minus_product,
                             classify_mass, eval_kernel, eval_rate, rate_envelope)
from kernel_edges import band_edges

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        # a NaN passed the "< 0" checks, and the simulator met it only as a
        # non-finite entry of I - dt A
        with pytest.raises(InvalidKernelError, match="finite"):
            RateFunction.power(bad)
        with pytest.raises(InvalidKernelError, match="finite"):
            RateFunction.constant(bad)
        for table in ([(0.0, 1.0), (1.0, bad), (30.0, 2.0)], [(0.0, 1.0), (bad, 2.0)]):
            with pytest.raises(InvalidKernelError, match="finite"):
                RateFunction.tabulated(table)


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


def parent_eval_kernel(kernel, x, y):
    """eval_kernel's per-family formulas as they were before the band table, frozen."""
    xs, ys = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if kernel.family == "homogeneous_power":
        nu = kernel.nu
        with np.errstate(divide="ignore"):
            vals = (nu + 2.0) * np.where(xs > 0, xs, np.nan) ** nu / ys ** (nu + 1.0)
        vals = np.where(xs > 0, vals, np.inf if nu < 0 else (nu + 2.0) / ys)
    elif kernel.family == "boundary_binary":
        vals = np.where(ys <= 2.0, 2.0 / ys, np.where((xs <= 1.0) | (xs >= ys - 1.0), 1.0, 0.0))
    else:
        vals = np.where(ys <= np.sqrt(2.0), 2.0 / ys,
                        np.where((xs <= 1.0 / ys) | (xs >= ys - 1.0 / ys), ys, 0.0))
    return np.where(xs > ys, 0.0, vals)


def parent_mass_partial(kernel, s, y):
    """mass_partial's per-family closed forms as they were before the band table, frozen."""
    ys = np.asarray(y, dtype=float)
    ss = np.clip(np.asarray(s, dtype=float), 0.0, ys)
    if kernel.family == "homogeneous_power":
        return ys * (ss / ys) ** (kernel.nu + 2.0)
    if kernel.family == "boundary_binary":
        t = ys - 1.0
        return np.where(ys <= 2.0, ss ** 2 / ys,
                        np.where(ss <= 1.0, 0.5 * ss ** 2,
                                 np.where(ss <= t, 0.5, 0.5 + 0.5 * (ss - t) * (ss + t))))
    c, r = 0.5 / ys, 1.0 / ys
    t = ys - r
    e = _one_minus_product(ys, r) / ys
    return np.where(ys <= np.sqrt(2.0), ss ** 2 / ys,
                    np.where(ss <= r, 0.5 * ys * ss ** 2,
                             np.where(ss <= t, c,
                                      c + 0.5 * ys * (((ss - ys) + r) + e) * (ss + t))))


class TestBands:
    """The band table ``FragmentKernel._bands`` against the per-family formulas it
    replaced."""

    KERNELS = BUILT_INS + [FragmentKernel.homogeneous_power(0.0),
                           FragmentKernel.homogeneous_power(-1.7)]
    IDS = BUILT_IN_IDS + ["homogeneous_0", "homogeneous_-1.7"]
    # the splits, a float on either side of each, and log-uniform draws
    YS = np.concatenate([[2.0, np.sqrt(2.0)], np.nextafter([2.0, np.sqrt(2.0)], np.inf),
                         np.nextafter([2.0, np.sqrt(2.0)], 0.0), [1.0, 2.0 + 1e-9, 1e3],
                         np.exp(np.random.default_rng(27).uniform(np.log(1e-3), np.log(1e4), 200))])

    @staticmethod
    def parent_edges(kernel, y):
        """The interior edges of b(., y) as the per-family formulas wrote them."""
        if kernel.family == "boundary_binary":
            return (1.0, y - 1.0) if y > 2.0 else ()
        if kernel.family == "concentrated":
            return (1.0 / y, y - 1.0 / y) if y > np.sqrt(2.0) else ()
        return ()

    @pytest.mark.parametrize("kern", KERNELS, ids=IDS)
    def test_band_edges_are_the_family_formulas(self, kern):
        # the edges live in the band table alone: a built-in kernel lists no breakpoints
        for y in self.YS:
            assert band_edges(kern, float(y)) == self.parent_edges(kern, float(y)), y
            assert kern.breakpoints(float(y)) == (), y

    def points(self, kern, y):
        """x = 0, y, just past y, 2y, each band edge and its two neighbours, and draws."""
        edges = np.array(band_edges(kern, y) or [y])
        around = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        draws = np.random.default_rng(int(y * 1e6) % 2**32).uniform(0.0, y, 20)
        return np.concatenate([[0.0, y, np.nextafter(y, np.inf), 2.0 * y], around, draws])

    @pytest.mark.parametrize("kern", KERNELS, ids=IDS)
    def test_eval_kernel_agrees_with_the_parent_formulas(self, kern):
        # bit-equal for the split families; homogeneous_power takes (nu+2)/y^(nu+1)
        # before x^nu, not after, which moves at most 2 ulp
        for y in self.YS:
            x = self.points(kern, float(y))
            got, want = eval_kernel(kern, x, float(y)), parent_eval_kernel(kern, x, float(y))
            if kern.family == "homogeneous_power":
                assert np.array_equal(np.isinf(got), np.isinf(want)), y
                fin = np.isfinite(want)
                assert np.all(np.abs(got[fin] - want[fin]) <= 2 * np.spacing(want[fin])), y
            else:
                assert np.array_equal(got, want), y
            # the array path and one scalar call agree
            assert eval_kernel(kern, float(x[-1]), float(y)) == got[-1]

    @pytest.mark.parametrize("kern", KERNELS, ids=IDS)
    def test_mass_partial_agrees_with_the_parent_formulas(self, kern):
        # the bottom band's c0 s^(q+2)/(q+2) may round differently from y (s/y)^(nu+2),
        # s^2/y and concentrated's 1/(2y), by a few ulp; the top band adds the same bits
        for y in self.YS:
            s = np.concatenate([[-1.0, 0.0], self.points(kern, float(y))])
            got, want = kern.mass_partial(s, float(y)), parent_mass_partial(kern, s, float(y))
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), y
            if kern.family == "boundary_binary":
                assert np.array_equal(got, want) or y <= 2.0, y


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
        # no positive s: no parent size to group, and the mass is 0
        assert clone.mass_partial(0.0, 3.0) == 0.0
        assert np.array_equal(clone.mass_partial(np.array([[-1.0], [0.0]]), [2.0, 3.0]),
                              np.zeros((2, 2)))

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
                                       breakpoints=band_edges(kern, y), grade_lo=True)
                    np.testing.assert_allclose(kern.mass_partial(s, y), ref,
                                               rtol=1e-8, atol=1e-12)

    def test_custom_mass_imports_no_masked_arrays(self):
        # np.unique imports numpy.ma on its first call under numpy 2.4, about 0.5 MB of
        # resident memory: a custom kernel's daughter mass groups its parent sizes
        # without it, in classify_mass and in the generator's assembly alike
        code = ("import sys\n"
                "import numpy as np\n"
                "import fragkit\n"
                "from fragkit.kernels import FragmentKernel, RateFunction, classify_mass\n"
                "from fragkit.simulator import Grid, discretize\n"
                "k = FragmentKernel.custom(lambda x, y: 1.5 * np.sqrt(np.abs(x)) / y ** 1.5,\n"
                "                          breakpoints=lambda y: (0.5 * y,))\n"
                "classify_mass(k, [0.5, 2.0, 2.0, 7.0])\n"
                "discretize(k, RateFunction.power(1.0), Grid.geometric(1e-3, 20.0, 64))\n"
                "loaded = sorted(m for m in sys.modules if m in ('numpy.ma', 'scipy'))\n"
                "assert not loaded, loaded\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kernels.__file__)))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr

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

    @pytest.mark.parametrize(
        "kern", BUILT_INS + [FragmentKernel.custom(lambda x, y: eval_kernel(BUILT_INS[0], x, y))],
        ids=BUILT_IN_IDS + ["custom_homogeneous"])
    def test_array_y_is_the_stacked_scalar_calls(self, kern):
        # a custom kernel's batched quadrature too: each y's pass depends on its own s alone
        s = np.linspace(0.0, 31.0, 157)
        got = kern.mass_partial(s[:, None], self.YS)
        ref = np.stack([kern.mass_partial(s, float(y)) for y in self.YS], axis=1)
        assert np.array_equal(got, ref)
        assert isinstance(kern.mass_partial(1.0, 3.0), float)

    @pytest.mark.parametrize("kern", BUILT_INS + [FragmentKernel.homogeneous_power(-1.3)],
                             ids=BUILT_IN_IDS + ["homogeneous_-1.3"])
    def test_scalar_calls_are_the_array_call(self, kern):
        # np.clip on a 0-d s once returned a numpy scalar, whose ** took another pow:
        # 119 of these 3,000 homogeneous(-0.5) samples differed, by up to 3.0e-16
        rng = np.random.default_rng(3000)
        y = np.exp(rng.uniform(-3.0, 8.0, 3000))
        s = y * rng.uniform(-0.1, 1.2, 3000)
        got = [kern.mass_partial(float(a), float(b)) for a, b in zip(s, y)]
        assert all(isinstance(m, float) for m in got)
        assert np.array_equal(got, kern.mass_partial(s, y))
        # one scalar and one array argument give the array call's bits too
        assert np.array_equal(kern.mass_partial(float(s[0]), y), kern.mass_partial(s[0] + 0 * y, y))
        assert np.array_equal(kern.mass_partial(s, float(y[0])), kern.mass_partial(s, y[0] + 0 * s))

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


def _geometric_fill_reference(pts):
    """_geometric_fill as it was, walking every consecutive pair."""
    pieces = np.ceil(np.log2(pts[1:] / pts[:-1])).astype(int)
    fill = [a * (b / a) ** (np.arange(1, n) / n)
            for a, b, n in zip(pts[:-1], pts[1:], pieces) if n > 1]
    return np.unique(np.concatenate([pts, *fill])) if fill else pts


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("gaps", [0, 1, 5], ids=["no_wide_gap", "one_wide_gap", "five"])
def test_geometric_fill_is_the_pairwise_walk(seed, gaps):
    # it visits only the gaps wider than a factor of 2, and adds the same points
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.uniform(0.5, 1.5, 300)) * 1e-3  # ratios below 2 past the first few
    pts = pts[pts > pts[0] * 2.0 ** 0.5]
    # the first wide gap is a factor of about 3, which takes one point
    for i, k in enumerate(rng.choice(pts.size - 1, gaps, replace=False)):
        pts[k + 1:] *= 3.0 if i == 0 else 2.0 ** rng.uniform(1.0, 30.0)
    got = _geometric_fill(pts)
    ref = _geometric_fill_reference(pts)
    assert np.array_equal(got, ref)
    assert (got.size > pts.size) == (gaps > 0)
    assert np.all(got[1:] / got[:-1] <= 2.0 * (1 + 1e-15))


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

    def test_failed_samples_keep_their_partials(self):
        # x^-2.5 x = x^-1.5 is not integrable at 0, so the samples above 2 fail; the others have
        # m(y) = y.  One batched call gives what each sample gives alone
        kern = FragmentKernel.custom(lambda x, y: np.where(y > 2, 1, 0) * x**-2.5 + 3 * x / y**2)
        ys = [1.0, 3.0, 1.5, 4.0]
        rep = classify_mass(kern, ys)
        assert rep.failed == (1, 3)
        assert rep.classification == "conserving"
        alone = []
        for y in ys:
            try:
                alone.append(kern.mass_partial(y, y))
            except QuadratureError as exc:
                alone.append(float(exc.partial))
        assert rep.m_values.tolist() == alone
        np.testing.assert_allclose(rep.m_values[[0, 2]], [1.0, 1.5], rtol=1e-12)

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_tolerance_out_of_range_rejected(self, tol):
        # -1 and NaN called a conserving kernel "violating"
        with pytest.raises(InvalidInputError, match="tolerance"):
            classify_mass(FragmentKernel.boundary_binary(), [3.0, 5.0], tol=tol)

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
