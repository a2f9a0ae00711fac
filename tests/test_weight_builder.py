"""Constructive weight machinery: majorants, Volterra march, certificates, search."""

import tracemalloc

import numpy as np
import pytest

from fragkit import weight_builder
from fragkit.admissibility import log_n_samples
from fragkit.errors import ConstructionError, InvalidInputError, StepSizeError
from fragkit.kernels import FragmentKernel, eval_kernel
from fragkit.quadrature import _BLOCK_POINTS
from fragkit.weight_builder import (MajorantB, MajorantH, build_btilde, build_h,
                                    construct_weight, exp_weight_search,
                                    solve_volterra)
from fragkit.weights import Weight
from kernel_edges import band_edges

BB = FragmentKernel.boundary_binary()
HOM1 = FragmentKernel.homogeneous_power(-1.0)
W_X = Weight.power(1.0)


class TestBuildH:
    def test_eta0_zero_gives_floor(self):
        h = build_h(FragmentKernel.zero(), None, 0.0, 10.0, floor=1e-8)
        assert h.eval(0.0) == 1e-8
        assert h.eval(7.3) == 1e-8

    @pytest.mark.parametrize("floor", [0.0, -1.0, np.nan, np.inf])
    def test_floor_out_of_range_refused(self, floor):
        # h = g + floor must stay strictly positive; -1 failed h's validation instead
        for eta0 in (0.0, 1.0):
            with pytest.raises(InvalidInputError, match="floor"):
                build_h(BB, W_X, eta0, 6.0, floor=floor)
        with pytest.raises(InvalidInputError, match="floor"):
            construct_weight(BB, W_X, 1.0, 1.0, 6.0, floor=floor)

    def test_boundary_binary_first_band(self):
        # g(y) = 1/y on [1, 2] (b = 2/y there, integral of 2x/y over [0,1]),
        # so the first band supremum is g(1) = 1
        h = build_h(BB, W_X, 1.0, 6.0)
        assert h.eval(1.0) == pytest.approx(1.0, abs=1e-6)
        assert h.values[0] == pytest.approx(1.0 + h.floor, abs=1e-9)

    def test_sub_unit_mass_bound(self):
        # any kernel with daughter mass <= y and omega0(x) = x gives g(y) <= y
        for kern in (BB, HOM1):
            h = build_h(kern, W_X, 1.0, 8.0)
            ys = np.linspace(1.0, 8.0, 50)
            assert np.all(h.eval(ys) <= ys + h.floor + 1e-9)

    def test_domination_on_random_samples(self):
        # with omega0 = x, g(y) = int_0^1 b(x, y) x dx is the closed-form partial mass M(1; y)
        rng = np.random.default_rng(77)
        h = build_h(BB, W_X, 1.0, 12.0)
        ys = rng.uniform(1.0, 12.0, size=10_000)
        g = np.array([BB.mass_partial(1.0, float(y)) for y in ys])
        assert np.all(h.eval(ys) >= g)


    @pytest.mark.parametrize("kern", [BB, FragmentKernel.custom(lambda x, y: y + 0.0 * x)])
    def test_band_suprema_match_a_max_per_band(self, kern, monkeypatch):
        # the running max read off at each band end gives the bits of one max per band;
        # g = y/2 rises for the custom kernel, so each supremum is the band's last sample
        monkeypatch.setattr(weight_builder, "_H_SAMPLES_PER_UNIT", 16)
        h = build_h(kern, W_X, 1.0, 6.4)
        ys = np.linspace(1.0, 8.0, 7 * 16 + 1)  # 7 unit bands
        g = np.exp(log_n_samples(kern, W_X, ys, hi=1.0))
        want = [np.max(g[ys <= 1.0 + n + 1.0 + 1e-12]) for n in range(8)]
        assert np.array_equal(h.values, np.array(want) + h.floor)

    def test_quadrature_blocks_stay_within_the_point_budget(self, monkeypatch):
        # rows above y = 2.5 oscillate enough that one row alone outgrows the budget,
        # and its cells are still evaluated in chunks within it
        calls = []

        def counting(x, y):
            calls.append((np.size(x), np.unique(y).size))
            return (1.0 + np.cos(np.where(y > 2.5, 300.0, 3.0) * x)) / y

        monkeypatch.setattr(weight_builder, "_H_SAMPLES_PER_UNIT", 16)
        build_h(FragmentKernel.custom(counting), W_X, 1.0, 3.0)
        points, rows = np.array(calls).T
        assert np.all(points <= _BLOCK_POINTS) and np.any(rows > 1)


class TestBuildBtilde:
    def test_constant_kernel(self):
        kern = FragmentKernel.custom(lambda x, y: np.full(np.broadcast(x, y).shape, 0.7))
        bt = build_btilde(kern, 1.0, 5.0)
        np.testing.assert_allclose(bt.band_values, 0.7, rtol=1e-12)
        assert bt.eval(2.0, 3.0) == pytest.approx(0.7)

    def test_boundary_binary_band_at_eta0_3(self):
        # on the first band x+y-6 <= 1 the kernel takes values {0, 1}
        bt = build_btilde(BB, 3.0, 10.0)
        assert bt.band_values[0] == pytest.approx(1.0)

    def test_homogeneous_all_bands_one(self):
        # b(x,y) = 1/x <= 1 for x >= 1, approached at x = 1
        bt = build_btilde(HOM1, 1.0, 10.0)
        np.testing.assert_allclose(bt.band_values, 1.0, rtol=1e-6)

    def test_domination_on_random_samples(self):
        rng = np.random.default_rng(123)
        for kern in (BB, HOM1, FragmentKernel.concentrated()):
            bt = build_btilde(kern, 1.0, 10.0)
            x = rng.uniform(1.0, 10.0, size=10_000)
            y = rng.uniform(1.0, 10.0, size=10_000)
            x, y = np.minimum(x, y), np.maximum(x, y)
            b = eval_kernel(kern, x, y)
            assert np.all(b <= bt.eval(x, y) * (1.0 + 1e-9) + 1e-300)

    def test_cumulative_bands_nondecreasing(self):
        bt = build_btilde(FragmentKernel.concentrated(), 1.0, 12.0)
        assert np.all(np.diff(bt.band_values) >= 0)

    @pytest.mark.parametrize("kern", [BB, HOM1, FragmentKernel.concentrated(),
                                      FragmentKernel.custom(
                                          lambda x, y: np.where(x <= 1.5, 2.0, 0.5) / y,
                                          breakpoints=lambda y: (1.5,) if y > 1.5 else ()),
                                      # a peak that only the breakpoint itself hits
                                      FragmentKernel.custom(
                                          lambda x, y: np.where(x == 1.375, 3.0, 1.0) / y,
                                          breakpoints=lambda y: (1.375,) if y > 1.375 else ())])
    @pytest.mark.parametrize("eta0, y_max", [(1.0, 7.3), (0.5, 4.2), (1.0, 12.25), (1.0, 19.25),
                                             (0.0, 6.3), (2.5, 9.1)])
    def test_band_scan_matches_a_scan_per_line(self, kern, eta0, y_max):
        # the lattice of each band in one call gives the bits of one call per line s; the
        # reference adds each line's band edges, which a built-in kernel's breakpoints no
        # longer list, so the lattice alone must reach every plateau's maximum
        n_s, n_x = 64, 156  # weight_builder._BAND_LATTICE
        want = []
        for n in range(int(np.ceil(2.0 * (y_max - eta0))) + 3):
            strip = 0.0
            for s in np.linspace(max(n - 1.0, 0.0) + 1e-12, float(n) + 1.0, n_s):
                xs = np.linspace(eta0, eta0 + 0.5 * s, n_x)
                bps = band_edges(kern, float((s + 2.0 * eta0) - xs[0]))
                xs = np.concatenate([xs, [bp for bp in bps if eta0 <= bp <= eta0 + 0.5 * s]])
                strip = max(strip, float(np.max(eval_kernel(kern, xs, (s + 2.0 * eta0) - xs))))
            want.append(max(want[-1] if want else 0.0, strip))
        if np.isinf(want[0]):  # x^-1 at x = eta0 = 0: the scan refuses the kernel
            with pytest.raises(ConstructionError, match="unbounded on band 0"):
                build_btilde(kern, eta0, y_max)
        else:
            assert np.array_equal(build_btilde(kern, eta0, y_max).band_values, want)


class TestSolveVolterra:
    @pytest.mark.parametrize("kappa, step", [(np.nan, 1e-2), (np.inf, 1e-2), (1.0, np.inf),
                                             (0.0, 1e-2), (1.0, -1.0)],
                             ids=["kappa_nan", "kappa_inf", "step_inf", "kappa_0", "step_negative"])
    def test_kappa_and_step_out_of_range_rejected(self, kappa, step):
        # a NaN kappa returned NaN values with residual_max 0, an infinite one zeros, and
        # an infinite step one NaN node
        with pytest.raises(InvalidInputError, match="kappa = .*, step = "):
            solve_volterra(MajorantB.constant(1.0, 1.0, 3.0), lambda y: 1.0, kappa, 1.0, 3.0, step)

    def test_zero_majorant_gives_f_over_kappa(self):
        bt = MajorantB.constant(0.0, 1.0, 3.0)
        sol = solve_volterra(bt, lambda y: 2.0 + 0.0 * y, 4.0, 1.0, 3.0, 1e-2)
        np.testing.assert_allclose(sol.values, 0.5, rtol=1e-14)

    def test_constant_majorant_closed_form(self):
        # kappa w = f0 + beta int w  <=>  w(y) = (f0/kappa) e^{(beta/kappa)(y-eta0)}
        bt = MajorantB.constant(1.0, 1.0, 2.0)
        sol = solve_volterra(bt, lambda y: 1.0, 1.0, 1.0, 2.0, 1e-3)
        err = abs(sol.values[-1] - np.e) / np.e
        assert err < 1e-6

    def test_linear_f_with_zero_band_edge(self):
        beta = 0.0
        bt = MajorantB.constant(beta, 0.0, 2.0)
        sol = solve_volterra(bt, lambda y: 1.0 + beta * y, 1.0, 0.0, 2.0, 1e-2)
        np.testing.assert_allclose(sol.values, 1.0, rtol=1e-13)

    def test_march_over_the_node_budget_refused(self, monkeypatch):
        # a budget of 64 nodes: 63 steps march, 64 are refused by name, allocating nothing
        monkeypatch.setattr(weight_builder, "_MAX_NODES", 64)
        bt = MajorantB.constant(1.0, 1.0, 2.0)
        assert solve_volterra(bt, lambda y: 1.0, 1.0, 1.0, 2.0, 1.0 / 63).nodes.size == 64
        with pytest.raises(InvalidInputError, match=r"step 0\.015625 needs 65 nodes .* more than 64"):
            solve_volterra(bt, lambda y: 1.0, 1.0, 1.0, 2.0, 1.0 / 64)

    def test_eta0_zero_is_refused_before_allocating(self):
        # b = 2/y near 0 puts 4e12 on btilde's diagonal, so the step is 1.25e-13 and the
        # march would want 4e13 nodes: a 291 TiB array
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=r"step 1\.25e-13 needs 4e\+13 nodes"):
                construct_weight(BB, None, 0.0, 1.0, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_second_order_convergence(self):
        bt = MajorantB.constant(1.0, 1.0, 2.0)
        steps = [4e-3, 2e-3, 1e-3, 5e-4]
        errs = [abs(solve_volterra(bt, lambda y: 1.0, 1.0, 1.0, 2.0, s).values[-1] - np.e) / np.e
                for s in steps]
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_positivity_of_nodes(self):
        bt = build_btilde(BB, 1.0, 20.0)
        sol = solve_volterra(bt, lambda y: 1e-8 + 0.0 * y, 1.0, 1.0, 20.0, 1e-2)
        assert np.all(sol.values > 0)

    def test_step_too_large_raises(self):
        bt = MajorantB.constant(10.0, 0.0, 5.0)
        with pytest.raises(StepSizeError):
            solve_volterra(bt, lambda y: 1.0, 1.0, 0.0, 5.0, 0.5)

    def test_residual_small_on_varying_band(self):
        bt = MajorantB(eta0=0.0, band_values=np.linspace(0.5, 1.5, 12))
        sol = solve_volterra(bt, lambda y: 1.0, 2.0, 0.0, 4.0, 1e-3)
        assert sol.residual_max < 1e-6

    @staticmethod
    def _per_row(bt, f, kappa, eta0, y_max, step):
        """The march and its residual with one majorant evaluation per row."""
        n = int(np.ceil((y_max - eta0) / step - 1e-12))
        ys = eta0 + step * np.arange(n + 1)
        diag = bt.eval(ys, ys)
        w = np.empty(n + 1)
        w[0] = f(eta0) / kappa
        for k in range(1, n + 1):
            row = bt.eval(ys[:k], ys[k])
            acc = 0.5 * row[0] * w[0] + row[1:] @ w[1:k]
            w[k] = (f(ys[k]) + step * acc) / (kappa - 0.5 * step * diag[k])
        fine = eta0 + 0.5 * step * np.arange(2 * n + 1)
        w_fine = np.interp(fine, ys, w)
        res = 0.0
        for k in range(1, n + 1):
            m = 2 * k
            row = bt.eval(fine[:m + 1], ys[k])
            integral = 0.25 * step * (row[0] * w_fine[0] + row[m] * w_fine[m]
                                      + 2.0 * (row[1:m] @ w_fine[1:m]))
            res = max(res, abs(kappa * w[k] - f(ys[k]) - integral) / (kappa * w[k]))
        return w, res

    @pytest.mark.parametrize("case", ["linear band, scalar f", "boundary_binary, array f"])
    def test_lattice_matches_per_row_evaluation(self, case):
        if case.startswith("linear"):
            bt, f, eta0, y_max = (MajorantB(eta0=0.0, band_values=np.linspace(0.5, 1.5, 12)),
                                  lambda y: 1.0, 0.0, 4.0)
        else:
            bt, f, eta0, y_max = (build_btilde(BB, 1.0, 6.0),
                                  lambda y: 1.0 + 0.5 * np.sin(3.0 * np.asarray(y)), 1.0, 6.0)
        for step in (1e-2, 2e-3):
            sol = solve_volterra(bt, f, 2.0, eta0, y_max, step)
            w, res = self._per_row(bt, f, 2.0, eta0, y_max, step)
            np.testing.assert_allclose(sol.values, w, rtol=1e-13, atol=0.0)
            # residual_max is already relative to kappa*w(y); for boundary_binary it
            # is round-off sized (the majorant is flat), so compare it on that scale
            assert abs(sol.residual_max - res) <= 1e-13


class TestConstructWeight:
    def test_zero_kernel_constant_weight(self):
        w, cert = construct_weight(FragmentKernel.zero(), W_X, 1.0, 2.0, 5.0)
        ys = np.linspace(1.0, 5.0, 7)
        np.testing.assert_allclose(np.exp(w.log_eval(ys)), 1e-8 / 2.0, rtol=1e-10)
        assert cert.passed

    def test_boundary_binary_certificate(self):
        w, cert = construct_weight(BB, W_X, 1.0, 1.0, 50.0, tol=1e-6)
        assert cert.passed
        assert cert.y.size == 200
        assert np.all(cert.margin >= -1e-6)
        # base weight is exact below eta0
        assert np.exp(w.log_eval(0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_homogeneous_certificate_and_growth_bound(self):
        w, cert = construct_weight(HOM1, W_X, 1.0, 1.0, 20.0)
        assert cert.passed
        bt = build_btilde(HOM1, 1.0, 20.0)
        b_max = float(np.max(bt.band_values))
        ys = np.linspace(1.0, 20.0, 40)
        # continuous a-priori bound, plus the trapezoid's O(step^2) growth bias
        log_bound = w.log_eval(1.0) + (b_max / 1.0) * (ys - 1.0)
        assert np.all(w.log_eval(ys) <= log_bound + 1e-3)

    @pytest.mark.parametrize("tol", [-1e-6, np.nan, np.inf])
    def test_tolerance_out_of_range_refused(self, tol):
        # a negative or NaN tol failed every certificate, an infinite one passed any
        with pytest.raises(InvalidInputError, match="tolerance"):
            construct_weight(BB, W_X, 1.0, 1.0, 6.0, tol=tol)

    def test_certificate_never_passes_with_violation(self):
        w, cert = construct_weight(BB, W_X, 1.0, 1.0, 30.0)
        assert cert.passed == bool(np.all(cert.margin >= -cert.tol))

    def test_undersampled_majorant_fails_loudly(self, monkeypatch):
        # a needle in y, confined to x < eta0, sitting between the 8-per-unit
        # h samples: either the independent h validation or the certificate
        # must refuse the construction
        def needle(x, y):
            spike = 50.0 * np.exp(-((y - 1.3125) / 0.01) ** 2)
            return np.where(x <= np.minimum(y, 1.0), 1.0 + spike,
                            np.where(x <= y, 1.0, 0.0))

        kern = FragmentKernel.custom(needle)
        monkeypatch.setattr(weight_builder, "_H_SAMPLES_PER_UNIT", 8)
        with pytest.raises(ConstructionError) as exc:
            construct_weight(kern, W_X, 1.0, 1.0, 4.0)
        assert exc.value.worst_y is not None


    @pytest.mark.parametrize("eta0, kappa, y_max, step, name", [
        (np.nan, 1.0, 4.0, None, "eta0"), (-1.0, 1.0, 4.0, None, "eta0"),
        (1.0, 1.0, np.nan, None, "y_max"), (1.0, 1.0, np.inf, None, "y_max"),
        (1.0, 1.0, 0.5, None, "y_max"), (1.0, np.nan, 4.0, None, "kappa"),
        (1.0, np.inf, 4.0, None, "kappa"), (1.0, 0.0, 4.0, None, "kappa"),
        (1.0, 1.0, 4.0, np.inf, "step"), (1.0, 1.0, 4.0, np.nan, "step"),
        (1.0, 1.0, 4.0, 0.0, "step"),
    ], ids=["eta0_nan", "eta0_negative", "y_max_nan", "y_max_inf", "y_max_below_eta0",
            "kappa_nan", "kappa_inf", "kappa_0", "step_inf", "step_nan", "step_0"])
    def test_out_of_range_named(self, eta0, kappa, y_max, step, name):
        # a NaN eta0 or y_max and an infinite y_max ended in a ValueError or OverflowError
        # from int(); a NaN or infinite kappa and an infinite step in "tabulated weight
        # needs finite knots"
        with pytest.raises(InvalidInputError, match=f"{name} = "):
            construct_weight(BB, W_X, eta0, kappa, y_max, step=step)


class TestExpWeightSearch:
    def test_reference_parameters(self):
        res = exp_weight_search(1.0, 1.0, 1.5, 1.0)
        assert res is not None
        assert res.delta == 0.25
        assert res.c == 256.0
        assert res.c ** -res.delta == pytest.approx(0.25)
        assert res.c ** -res.delta + res.delta * 1.0 == pytest.approx(0.5)

    def test_tiny_top_strip_bound(self):
        res = exp_weight_search(1.0, 1.0, 1.5, 1e-9)
        assert res is not None
        assert res.delta == 1.0
        assert res.c >= max(3.0, np.exp(2.0), 4.0) - 1e-12

    def test_all_five_inequalities(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d1, d2 = rng.uniform(0.05, 3.0, size=2)
            d = rng.uniform(1.0 + 1e-6, 5.0)
            bm = rng.uniform(1e-3, 20.0)
            res = exp_weight_search(d1, d2, d, bm)
            if res is None:
                continue
            assert res.delta <= d2
            assert res.delta * bm < 0.5
            assert res.c > d
            assert np.log(res.c) > 1.0 / d1
            assert res.c ** -res.delta < 0.5
            assert res.c ** -res.delta + res.delta * bm < 1.0

    def test_overflow_returns_none(self):
        assert exp_weight_search(0.001, 1.0, 1.5, 1.0) is None

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exp_weight_search(1.0, 1.0, 0.5, 1.0)

    @pytest.mark.parametrize("args", [
        (np.nan, 1.0, 1.5, 1.0), (1.0, np.nan, 1.5, 1.0), (1.0, 1.0, np.nan, 1.0),
        (1.0, 1.0, 1.5, np.nan), (1.0, 1.0, 1.5, np.inf), (1.0, 1.0, np.inf, 1.0),
        (np.inf, 1.0, 1.5, 1.0), (1.0, np.inf, 1.5, 1.0),
    ], ids=["delta1_nan", "delta2_nan", "d_nan", "b_m_nan", "b_m_inf", "d_inf", "delta1_inf",
            "delta2_inf"])
    def test_non_finite_inputs_rejected(self, args):
        # a NaN ended in an AssertionError, b_m = inf in a ZeroDivisionError, d = inf in
        # "no exponential weight in float range", and delta1 = inf returned a weight
        with pytest.raises(InvalidInputError):
            exp_weight_search(*args)
