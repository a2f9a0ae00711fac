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

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fragkit import quadrature, weight_builder
from fragkit.admissibility import _log_n_pieces, check, log_n_samples, ratio_curve, relative_bound
from fragkit.errors import InvalidInputError, QuadratureError
from fragkit.kernels import FragmentKernel, RateFunction, eval_kernel
from fragkit.weight_builder import build_h, construct_weight
from fragkit.weights import Weight, compare_weights
from kernel_edges import band_edges

BB = FragmentKernel.boundary_binary()
CONC = FragmentKernel.concentrated()
HOM1 = FragmentKernel.homogeneous_power(-1.0)
W_EXP = Weight.exponential(np.e)
W_SUP = Weight.super_exponential()


def r_bb_exp(y):
    return (np.e - 1.0) * np.exp(-y) + 1.0 - 1.0 / np.e


def custom_clone(kernel):
    """The same b(x, y) as a custom kernel, which has no pieces: n_w by quadrature."""
    return FragmentKernel.custom(kernel.__call__, breakpoints=lambda y: band_edges(kernel, y))


# a built-in kernel as it is (n_w from its pieces) and as its custom clone (quadrature)
BOTH_PATHS = pytest.mark.parametrize("path", [lambda k: k, custom_clone],
                                     ids=["pieces", "quadrature"])


class TestNOmega:
    def test_boundary_binary_exponential(self):
        val = np.exp(log_n_samples(BB, W_EXP, [10.0])[0])
        assert val == pytest.approx(13925.100149059793, rel=1e-10)

    def test_homogeneous_power_weight(self):
        # n(y) = y^p (nu+2)/(nu+p+1) -> 9 * 1/2 at y = 3, p = 2
        assert np.exp(log_n_samples(HOM1, Weight.power(2.0), [3.0])[0]) == pytest.approx(4.5, rel=1e-10)

    def test_zero_kernel(self):
        assert log_n_samples(FragmentKernel.zero(), Weight.power(1.0), [2.0])[0] == -np.inf

    def test_exponential_weight_stays_in_log_space(self):
        # n(1000) = e^1000 (1 - 1/e) + e - 1 overflows a double; its log does not
        assert log_n_samples(BB, W_EXP, [10.0])[0] == pytest.approx(np.log(13925.100149059793),
                                                                  rel=1e-12)
        assert log_n_samples(BB, W_EXP, [1000.0])[0] == pytest.approx(1000.0 + np.log1p(-1.0 / np.e),
                                                                    rel=1e-14)


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

    @pytest.mark.parametrize("n_samples", [-5, 0, 1, 2, 3, 7.9, 8.0, "8", True])
    def test_n_samples_not_an_integer_of_at_least_4_rejected(self, n_samples):
        # max(4, int(n_samples)) ran 4 samples for -5, 0 and 2, and 7 for 7.9
        with pytest.raises(InvalidInputError, match="n_samples must be an integer >= 4"):
            check(HOM1, Weight.power(2.0), 1.0, 10.0, n_samples=n_samples)

    @pytest.mark.parametrize("n_samples", [4, 7, np.int64(9)])
    def test_n_samples_pins_the_main_grid(self, n_samples):
        rep = check(HOM1, Weight.power(2.0), 1.0, 10.0, n_samples=n_samples)
        np.testing.assert_array_equal(rep.y_grid, np.geomspace(1.0, 10.0, n_samples))

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


    KERNELS = [HOM1, FragmentKernel.homogeneous_power(0.0), FragmentKernel.homogeneous_power(-0.5),
               BB, CONC]
    WEIGHTS = [Weight.power(2.0), Weight.power(0.5), W_EXP, Weight.exponential(1.5),
               Weight.composite(Weight.power(1.0), 1.0, np.linspace(1.0, 40.0, 60),
                                np.linspace(0.0, 30.0, 60))]

    @settings(max_examples=20, deadline=None)
    @given(kernel=st.sampled_from(KERNELS), weight=st.sampled_from(WEIGHTS),
           log10_lam=st.floats(-200.0, 200.0))
    def test_invariant_over_many_decades(self, kernel, weight, log10_lam):
        # the freeze threshold is relative to each row's total, so scaling w moves nothing
        assume(not (kernel is HOM1 and weight.log_eval(1e-300) > -1.0))  # n_w diverges
        base = check(kernel, weight, 1.0, 30.0, n_samples=24)
        scaled = check(kernel, weight.scaled(10.0 ** log10_lam), 1.0, 30.0, n_samples=24)
        for attr in ("verdict_A32", "verdict_A41", "verdict_limsup", "kappa1_growing",
                     "failed_counts"):
            assert getattr(scaled, attr) == getattr(base, attr)
        for a, b in ((scaled.main, base.main), (scaled.small, base.small)):
            np.testing.assert_allclose(a.ratio, b.ratio, rtol=1e-12)
        for attr in ("kappa_hat", "kappa1_hat", "kappa2_hat", "tail_estimate"):
            np.testing.assert_allclose(getattr(scaled, attr), getattr(base, attr), rtol=1e-12)


class TestFrozenCells:
    """Cells at most eps of their row's total are never halved, and cost no accuracy."""

    @staticmethod
    def counting(kernel, xs):
        def func(x, y):
            xs.append(np.broadcast_to(x, np.broadcast(x, y).shape).ravel())
            return eval_kernel(kernel, x, y)
        return FragmentKernel.custom(func, breakpoints=lambda y: band_edges(kernel, y))

    def test_graded_cells_below_eps_are_not_halved(self):
        # w = x, b = 2/5 on [0, 1]: 49 graded cells, whose innermost ones are below eps
        # of the total; halving all of them would evaluate 12 * (49 + 98) = 1,764 points
        xs = []
        lv = log_n_samples(self.counting(FragmentKernel.homogeneous_power(0.0), xs),
                           Weight.power(1.0), [5.0], hi=1.0)[0]
        assert sum(x.size for x in xs) < 1300
        assert abs(lv - np.log(0.2)) <= 1e-14

    @staticmethod
    def table_integral(knots, logs, a, b):
        """Exact int_a^b of the log-linear interpolant of ``(knots, logs)``."""
        edges = np.unique(np.clip(knots, a, b))
        lo, hi = edges[:-1], edges[1:]
        la, lb = np.interp(lo, knots, logs), np.interp(hi, knots, logs)
        slope = (lb - la) / (hi - lo)
        return float(np.sum(np.exp(la) * np.expm1(slope * (hi - lo)) / slope))

    def test_boundary_binary_composite_matches_exact_integral(self):
        # b = 1 on [0, 1] and [y - 1, y], 0 between, where every cell is dead and frozen
        knots = np.linspace(1.0, 20.0, 200)
        logs = 0.8 * knots + 0.3 * np.sin(knots)
        w = Weight.composite(Weight.power(1.0), 1.0, knots, logs)
        ys = np.array([2.5, 7.3, 15.0, 19.5])
        want = [np.log(0.5 + self.table_integral(knots, logs, y - 1.0, y)) for y in ys]
        assert np.all(np.abs(np.expm1(log_n_samples(BB, w, ys) - want)) <= 1e-13)
        # each dead cell is evaluated once, at its base level: one cell per knot gap
        xs = []
        log_n_samples(self.counting(BB, xs), w, [15.0])
        x = np.concatenate(xs)
        dead = np.count_nonzero((knots > 1.0) & (knots < 14.0)) + 1
        assert np.count_nonzero((x > 1.0) & (x < 14.0)) == 12 * dead

    @pytest.mark.parametrize("nu, p", [(nu, p) for nu in (-1.5, -1.0, -0.5, 0.0)
                                       for p in (0.5, 1.0, 2.0, 3.0) if nu + p + 1.0 > 0.0])
    def test_homogeneous_power_matches_closed_form(self, nu, p):
        rc = ratio_curve(FragmentKernel.homogeneous_power(nu), Weight.power(p),
                         np.geomspace(1e-3, 100.0, 13))
        np.testing.assert_allclose(rc.ratio, (nu + 2.0) / (nu + p + 1.0), rtol=1e-13)


class TestUnresolvedTails:
    """Near the integrability limit the tail at 0 closes in closed form; where it diverges,
    the row fails at once."""

    @BOTH_PATHS
    def test_divergent_pair_is_failed_not_an_infinite_ratio(self, path):
        # b w ~ x^-1.5 x^0.4 = x^-1.1 at 0, so n_w diverges at every y: the piece
        # [0, y] has q + p + 1 <= 0, and the tail below the graded cells does not
        # close, so every sample fails
        rep = check(path(FragmentKernel.homogeneous_power(-1.5)), Weight.power(0.4), 1.0, 10.0)
        assert rep.failed_counts == (rep.y_small.size, rep.y_grid.size)
        assert not rep.verdict_A32 and not rep.verdict_A41
        assert rep.verdict_limsup == "inconclusive"
        # no verdict line, the kappa1 and trend ones included, reads as if it converged
        verdicts = [line for line in rep.summary().splitlines() if line.startswith("verdict_")]
        assert len(verdicts) == 5
        assert all(line.split("=")[1].split()[0] == "inconclusive" for line in verdicts)

    @BOTH_PATHS
    def test_tail_near_the_integrability_limit_passes(self, path):
        # b w ~ x^-0.94 at 0: the closed tail holds most of n_w, and the ratio is
        # (nu + 2)/(nu + p + 1) = 0.05/0.06 at every y
        rep = check(path(FragmentKernel.homogeneous_power(-1.95)), Weight.power(1.01), 1.0, 10.0)
        assert rep.failed_counts == (0, 0)
        assert rep.kappa_hat == pytest.approx(0.05 / 0.06, rel=0.0, abs=1e-10)
        assert rep.verdict_A32 and rep.verdict_A41 and rep.verdict_limsup == "pass"

    @BOTH_PATHS
    @pytest.mark.parametrize("nu", [-1.9, -1.93, -1.94, -1.95, -1.97, -1.99])
    def test_integrability_limit(self, nu, path):
        # with w = x^p the integrand is (nu + 2) x^(nu + p) / y^(nu + 1), which the
        # graded cells and the geometric tail below them resolve for every nu > -2
        p = 1.0
        rc = ratio_curve(path(FragmentKernel.homogeneous_power(nu)), Weight.power(p),
                         np.geomspace(1e-3, 100.0, 9))
        assert not rc.failed.any()
        np.testing.assert_allclose(rc.ratio, (nu + 2.0) / (nu + p + 1.0), rtol=0.0, atol=1e-10)

    def test_divergent_row_fails_before_halving(self):
        # int_0^5 x^-1 1.5^x dx diverges at 0; halving its 49 graded cells 9 times
        # would evaluate about 600,000 points
        xs = []
        with pytest.raises(QuadratureError):
            log_n_samples(TestFrozenCells.counting(HOM1, xs), Weight.exponential(1.5), [5.0])
        assert sum(x.size for x in xs) < 100_000

    @pytest.mark.parametrize("kernel, weight", [(HOM1, Weight.exponential(1.5)),
                                                (FragmentKernel.homogeneous_power(-1.5),
                                                 Weight.power(0.4))])
    def test_divergent_row_evaluates_one_graded_pass(self, kernel, weight):
        # no breakpoints: 48 graded cells and the rest of [0, 5], 12 nodes each, once
        xs = []
        with pytest.raises(QuadratureError):
            log_n_samples(TestFrozenCells.counting(kernel, xs), weight, [5.0])
        assert sum(x.size for x in xs) == 12 * 49


class TestPieces:
    """n_w from the pieces c x^q of the built-in kernels, each a closed-form weighted
    moment, against the quadrature of the same kernel as a custom clone."""

    # samples reach below and above the table; at most 256 knots, so the quadrature
    # splits its panels at every one (it thins a longer table to 256 and resolves the
    # other kinks by halving, to its 1e-10 tolerance only)
    KNOTS = np.linspace(0.5, 20.0, 200)
    LOGS = 0.8 * KNOTS + 0.3 * np.sin(KNOTS)
    WEIGHTS = [Weight.power(1.0), Weight.power(2.5), Weight.power(-0.3),
               Weight.power_shifted(1.0), Weight.power_shifted(-0.3).scaled(1e-5),
               W_EXP, Weight.exponential(1.3), W_SUP, Weight.tabulated(KNOTS, LOGS),
               Weight.composite(Weight.power(1.0), 1.0, KNOTS[KNOTS >= 1.0], LOGS[KNOTS >= 1.0]),
               Weight.composite(Weight.power_shifted(2.0).scaled(3.0), 2.0,
                                np.linspace(2.0, 20.0, 50), np.linspace(0.0, 9.0, 50)).scaled(0.1)]
    # both sides of the splits at sqrt 2 (concentrated) and 2 (boundary_binary)
    YS = np.concatenate([np.geomspace(1e-3, 25.0, 40), [1.4, np.sqrt(2.0), 1.42, 1.99, 2.0, 2.01]])

    @staticmethod
    def both(kernel, weight, hi):
        """``(log n_w, failed)`` from the pieces and from the quadrature."""
        out = []
        for k in (kernel, custom_clone(kernel)):
            try:
                out.append((log_n_samples(k, weight, TestPieces.YS, hi=hi), None))
            except QuadratureError as exc:
                out.append((exc.partial, exc.failed))
        return out

    @pytest.mark.parametrize("hi", [None, 1.0, 1.7])
    @pytest.mark.parametrize("kernel", [FragmentKernel.homogeneous_power(-1.5),
                                        FragmentKernel.homogeneous_power(-0.5),
                                        FragmentKernel.homogeneous_power(0.0), BB, CONC],
                             ids=lambda k: k.describe())
    def test_pieces_match_the_quadrature(self, kernel, hi):
        top = self.YS if hi is None else np.minimum(self.YS, hi)
        served = [w for w in self.WEIGHTS
                  if _log_n_pieces(kernel, w, self.YS, top) is not None]
        # a power weight serves every exponent, the others q = 0 only
        assert len(served) == (5 if kernel.nu not in (None, 0.0) else len(self.WEIGHTS))
        for weight in served:
            (got, got_failed), (want, want_failed) = self.both(kernel, weight, hi)
            if got_failed is not None or want_failed is not None:
                continue  # the divergent pairs: test_divergent_pairs_fail_on_both_paths
            rel = np.abs(np.expm1(got - want))
            assert np.all(rel <= 1e-12), (weight.describe(), float(rel.max()))

    @pytest.mark.parametrize("kernel", [BB, CONC, FragmentKernel.homogeneous_power(0.0),
                                        FragmentKernel.homogeneous_power(-0.5)],
                             ids=lambda k: k.describe())
    def test_no_band_edge_reaches_the_quadrature(self, kernel):
        # a built-in kernel lists no breakpoints, so the quadrature would integrate across
        # its band edges unsplit: a kernel with an interior edge below some y takes n_w
        # from its pieces with every weight family, at every cut
        _, _, d0, _, d1 = kernel._bands(self.YS)
        edged = bool(np.any((d0 < self.YS) | (d1 > 0)))
        assert edged == (kernel.family != "homogeneous_power")
        for hi in (None, 1.0, 1.7):
            top = self.YS if hi is None else np.minimum(self.YS, hi)
            for weight in self.WEIGHTS:
                assert not edged or _log_n_pieces(kernel, weight, self.YS, top) is not None, \
                    (weight.describe(), hi)

    @pytest.mark.parametrize("hi", [None, 1.0])
    @pytest.mark.parametrize("weight", [Weight.power(0.4), Weight.power(-0.3),
                                        Weight.power_shifted(1.0)], ids=Weight.describe)
    def test_divergent_pairs_fail_on_both_paths(self, weight, hi):
        # q = nu = -1.5: the piece [0, y] diverges where q + p + 1 <= 0 (x^0.4, x^-0.3)
        # or q + 1 <= 0 (the 1 of 1 + x); its partial is +inf
        (got, got_failed), (_, want_failed) = self.both(FragmentKernel.homogeneous_power(-1.5),
                                                        weight, hi)
        assert got_failed is not None and np.all(got_failed)
        np.testing.assert_array_equal(got_failed, want_failed)
        assert np.all(got == np.inf)

    @pytest.mark.parametrize("kernel", [FragmentKernel.homogeneous_power(-1.5),
                                        FragmentKernel.homogeneous_power(0.0), BB, CONC],
                             ids=lambda k: k.describe())
    def test_bands_keep_the_mass(self, kernel):
        # n_x(y) is the mass y of b(., y).  Only boundary_binary's reference is taken on
        # its float spans above the split, 1/2 + (y - l)(y + l)/2 with l = y - 1 and
        # y - l exact.  concentrated's top band [y - 1/y, y] holds all but 1e-12 of the
        # mass at y = 1e6 and is taken by its width 1/y: a width rebuilt as
        # y - fl(y - 1/y) is off by up to eps y^2 (2e-5 on this grid), a difference of
        # the prefixes y^3/2 and y l^2/2 by 2e-4, and log y - log l by 3e-3
        ys = np.geomspace(1e-3, 1e6, 37)
        if kernel is BB:
            l = ys - 1.0
            want = np.where(ys > 2.0, 0.5 + 0.5 * (ys - l) * (ys + l), ys)
        else:
            want = ys
        rel = np.abs(np.expm1(log_n_samples(kernel, Weight.power(1.0), ys) - np.log(want)))
        assert np.all(rel <= 1e-13)

    def test_concentrated_conserves_mass_in_the_verdict(self):
        # w = x: r(y) = n_x(y)/y = 1 for a kernel that conserves mass.  With the top
        # band's width rebuilt from the float y - 1/y this read kappa_hat = 1.00000047
        # and verdict_A32 = fail
        report = check(CONC, Weight.power(1.0), 2.0, 1e5)
        assert report.verdict_A32
        assert abs(report.kappa_hat - 1.0) <= 1e-12

    def test_exponential_weights_stay_in_log_space(self):
        # e^x at y = 100 and x e^{x^2} at y = 25 and 100 overflow a double, their logs do not
        lv = log_n_samples(CONC, W_EXP, [100.0])[0]
        assert abs(lv - (100.0 + np.log(100.0 * -np.expm1(-0.01)))) <= 1e-13 * 100.0
        # r(y) on concentrated's float spans, r = 1/y and l = y - r: (e^{r^2} - 1) e^{-y^2}/2
        # + (1 - e^{-(y - l)(y + l)})/2, to the rounding of a log near y^2 (2e-12 at y = 100)
        ys = np.array([25.0, 100.0])
        r, l = 1.0 / ys, ys - 1.0 / ys
        want = 0.5 * (np.expm1(r * r) * np.exp(-ys * ys) - np.expm1(-(ys - l) * (ys + l)))
        got = np.exp(log_n_samples(CONC, W_SUP, ys) - W_SUP.log_eval(ys))
        assert np.all(np.abs(got / want - 1.0) <= 4.0 * ys * ys * np.finfo(float).eps)


class TestFastPath:
    """The built-in kernels with the weights their pieces serve take no quadrature row."""

    @staticmethod
    @contextmanager
    def rows():
        counted, real = [], quadrature._log_integrate_rows

        def counting(factor, log_weight, spans):
            spans = list(spans)
            counted.append(len(spans))
            return real(factor, log_weight, spans)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_log_integrate_rows", counting)
            yield counted

    @pytest.mark.parametrize("kernel", [BB, FragmentKernel.homogeneous_power(0.0)],
                             ids=lambda k: k.describe())
    def test_construction_takes_no_quadrature_row(self, kernel):
        with self.rows() as counted:
            construct_weight(kernel, Weight.power(1.0), 1.0, 1.0, 12.25)
        assert sum(counted) == 0

    def test_check_takes_no_quadrature_row(self):
        with self.rows() as counted:
            check(BB, W_EXP, 2.0, 100.0)
        assert sum(counted) == 0

    def test_custom_kernel_takes_the_quadrature(self):
        with self.rows() as counted:
            check(custom_clone(BB), W_EXP, 2.0, 100.0)
        assert sum(counted) > 0


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
        # alpha_hat < 1 is the relative-bound hypothesis; nothing here checks analyticity
        assert est.failed_counts == (0, 0)
        assert est.summary().endswith("(alpha_hat < 1: relative-bound hypothesis holds)")
        assert "analytic" not in est.summary()

    @BOTH_PATHS
    def test_failed_samples_make_the_estimate_inconclusive(self, path):
        # n_w diverges at every sample (see TestUnresolvedTails), so alpha_hat = beta_hat = -inf
        est = relative_bound(path(FragmentKernel.homogeneous_power(-1.5)), RateFunction.power(1.0),
                             Weight.power(0.4), 1.0, 10.0)
        assert est.failed_counts == (385, 65)
        summary = est.summary()
        assert "inconclusive: failed samples = 385 below / 65 above" in summary
        assert "alpha_hat < 1" not in summary and "analytic" not in summary

    @BOTH_PATHS
    def test_tail_near_the_integrability_limit_is_estimated(self, path):
        # every sample converges: alpha_hat = sup r = 0.05/0.06 at a = y
        est = relative_bound(path(FragmentKernel.homogeneous_power(-1.95)), RateFunction.power(1.0),
                             Weight.power(1.01), 1.0, 10.0)
        assert est.failed_counts == (0, 0)
        assert est.alpha_hat == pytest.approx(0.05 / 0.06, rel=0.0, abs=1e-10)
        assert est.summary().endswith("(alpha_hat < 1: relative-bound hypothesis holds)")

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

    @staticmethod
    @contextmanager
    def coarse():
        """At most one halving per row, too few to settle any ``OSC`` sample."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_MAX_REFINEMENTS", 1)
            yield

    def test_samples_match_scalar_calls(self):
        ys = np.geomspace(2.0, 50.0, 7)
        # in the second pair the samples above y = 10 close a geometric tail at 0
        # (b w ~ x^-0.94) and the others do not (b w ~ x^1.01)
        split = FragmentKernel.custom(
            lambda x, y: np.where(y > 10.0, 0.05 * x**-1.95 * y**0.95, 2.0 / y))
        for kernel, weight in [(BB, W_EXP), (split, Weight.power(1.01))]:
            np.testing.assert_array_equal(log_n_samples(kernel, weight, ys),
                                          [log_n_samples(kernel, weight, [y])[0] for y in ys])

    def test_cutoff(self):
        # homogeneous nu = 0: b = 2/y, so int_0^hi 2x/y dx = hi^2 / y
        hom0 = FragmentKernel.homogeneous_power(0.0)
        assert np.exp(log_n_samples(hom0, Weight.power(1.0), [3.0], hi=1.0)[0]) == \
            pytest.approx(1.0 / 3.0, rel=1e-12)
        assert log_n_samples(hom0, Weight.power(1.0), [0.5], hi=1.0)[0] == \
            log_n_samples(hom0, Weight.power(1.0), [0.5])[0]

    def test_ratio_curve_marks_every_failed_sample(self):
        ys = np.geomspace(1.0, 10.0, 9)
        with self.coarse():
            rc = ratio_curve(self.OSC, Weight.power(1.0), ys)
        assert rc.failed.shape == ys.shape
        assert np.all(rc.failed)
        assert rc.log_n.shape == ys.shape
        assert np.all(np.isfinite(rc.log_n))  # one partial estimate per y
        assert not np.any(ratio_curve(self.OSC, Weight.power(1.0), ys).failed)

    def test_samples_raise_with_mask_and_partials(self):
        ys = np.geomspace(1.0, 10.0, 9)
        with self.coarse(), pytest.raises(QuadratureError) as exc:
            log_n_samples(self.OSC, Weight.power(1.0), ys)
        assert exc.value.failed.shape == ys.shape
        assert exc.value.failed.dtype == bool
        assert np.all(exc.value.failed)
        assert exc.value.partial.shape == ys.shape
        assert "9 of 9" in str(exc.value)
        partials = []  # each failed row keeps the estimate its one-y call fails with
        for y in ys:
            with self.coarse(), pytest.raises(QuadratureError) as one:
                log_n_samples(self.OSC, Weight.power(1.0), [y])
            partials.append(one.value.partial[0])
        np.testing.assert_array_equal(exc.value.partial, partials)

    # custom kernels with 0, 1 (for y > 1) and 2 (for y > 2) breakpoints, so a
    # grid of y mixes blocks of different cell counts
    KERNELS = [
        FragmentKernel.custom(lambda x, y: (1.5 + np.sin(x)) / y),
        FragmentKernel.custom(lambda x, y: np.where(x <= 1.0, 3.0, 1.0) / y,
                              breakpoints=lambda y: (1.0,) if y > 1.0 else ()),
        FragmentKernel.custom(lambda x, y: np.where((x <= 1.0) | (x >= y - 1.0), 1.0, 0.2),
                              breakpoints=lambda y: (1.0, y - 1.0) if y > 2.0 else ()),
    ]
    WEIGHTS = [Weight.power(1.5), Weight.exponential(2.0),
               Weight.composite(Weight.power(1.0), 1.0, np.linspace(1.0, 20.0, 40),
                                np.linspace(0.0, 12.0, 40))]

    @settings(max_examples=25, deadline=None)
    @given(kernel=st.sampled_from(KERNELS + [BB, CONC]), weight=st.sampled_from(WEIGHTS),
           ys=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=60),
           hi=st.one_of(st.none(), st.floats(0.5, 5.0)))
    def test_samples_equal_one_y_calls_bit_for_bit(self, kernel, weight, ys, hi):
        # a one-y call is a batch of one row: a row's bits do not depend on its neighbours,
        # through the quadrature (the custom kernels) or the pieces (BB and CONC)
        got = log_n_samples(kernel, weight, ys, hi=hi)
        want = [log_n_samples(kernel, weight, [y], hi=hi)[0] for y in ys]
        np.testing.assert_array_equal(got, want)

    def test_strict_callers_raise_quadrature_error(self, monkeypatch):
        monkeypatch.setattr(weight_builder, "_H_SAMPLES_PER_UNIT", 8)
        with self.coarse(), pytest.raises(QuadratureError) as exc:
            build_h(self.OSC, Weight.power(1.0), 1.0, 2.0)
        assert exc.value.failed.shape == exc.value.partial.shape

    def test_compare_weights_reports_failed_samples(self):
        with self.coarse():
            v = compare_weights(Weight.power(1.0), Weight.power(2.0), self.OSC,
                                np.geomspace(1e-3, 10.0, 16), [2.0, 5.0])
        assert v.failed.shape == (2,) and np.all(v.failed)
        assert v.inconclusive and not v.pointwise_inequality_holds
        assert "r1 >= r2:   inconclusive" in v.summary()

    def test_check_never_passes_on_failed_samples(self):
        with self.coarse():
            rep = check(self.OSC, Weight.power(1.0), 1.0, 10.0)
        below, above = rep.failed_counts
        assert (below, above) == (rep.y_small.size, rep.y_grid.size)
        assert not rep.verdict_A32 and not rep.verdict_A41
        assert rep.verdict_limsup == "inconclusive"
        assert rep.trend == 0.0  # partial estimates of failed samples are not fitted
        lines = rep.summary().splitlines()
        assert f"failed samples = {below} below / {above} above" in lines
        assert sum(line.split("=")[1].split()[0] == "inconclusive"
                   for line in lines if line.startswith("verdict_")) == 5
        converged = check(self.OSC, Weight.power(1.0), 1.0, 10.0)
        assert converged.failed_counts == (0, 0)
        assert "failed samples" not in converged.summary()
