"""Discretization and time stepping: conservation, positivity, oracle agreement."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_triangular

from fragkit import simulator
from fragkit.errors import FragkitError, InvalidInputError
from fragkit.kernels import FragmentKernel, RateFunction, eval_rate
from fragkit.simulator import (_ASSEMBLY_BLOCK, _IE_BLOCK, _IE_CHUNK, DensityState,
                               DiscreteGenerator, Grid, _ie_chunk, _ie_factors, _rk4_chunk,
                               _rk4_matrix, bump, column_kappa, discretize, exp_decay,
                               expm_oracle, semigroup_check, simulate)
from fragkit.weights import Weight

HOM0 = FragmentKernel.homogeneous_power(0.0)
RATE_X = RateFunction.power(1.0)


def _wnorm(grid, u, weight):
    return float(np.abs(weight.eval(grid.nodes) * grid.weights * u).sum())


def _loss(gen):
    return -np.diagonal(gen.matrix)[1:]


def _closure(gen):
    """l A for l = (1, x_1, ..., x_N): per column, the dust flux plus the
    daughter mass minus the parent's mass a_j x_j."""
    return np.append(1.0, gen.grid.nodes) @ gen.matrix


def _stage_form(a, v, dt):
    """One classical four-stage rk4 step of v' = A v, the reference for R(dt A) v."""
    k1 = a @ v
    k2 = a @ (v + 0.5 * dt * k1)
    k3 = a @ (v + 0.5 * dt * k2)
    k4 = a @ (v + dt * k3)
    return v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _per_column_matrix(kernel, rate, grid):
    """The generator assembled one column at a time, one mass_partial call per
    parent size: the reference the blocked assembly must equal bit for bit."""
    x = grid.nodes
    n = grid.n
    a = np.asarray(eval_rate(rate, x), dtype=float)
    matrix = np.zeros((n + 1, n + 1))
    for j in range(n):
        cum = kernel.mass_partial(np.append(grid.edges[:j], x[j]), float(x[j]))
        matrix[0, j + 1] = a[j] * cum[0]
        matrix[1:j + 1, j + 1] = a[j] * np.diff(cum) / x[:j]
    matrix[np.arange(1, n + 1), np.arange(1, n + 1)] = -a
    return matrix


# a_j = 0 up to x = 0.5: those columns hold no gain, no dust flux and no loss
RATE_ZERO_HEAD = RateFunction.tabulated([[0.0, 0.0], [0.5, 0.0], [1.0, 2.0]])
BLOCK_SIZES = [4, _ASSEMBLY_BLOCK - 1, _ASSEMBLY_BLOCK, _ASSEMBLY_BLOCK + 1,
               2 * _ASSEMBLY_BLOCK + 3]


def _gain_scaled(gen, factor):
    """``gen`` with every entry above the diagonal (gain and dust flux) times ``factor``."""
    m = gen.matrix
    return dataclasses.replace(gen, matrix=np.triu(m, 1) * factor + np.diag(np.diagonal(m)))


class TestGrid:
    def test_weights_tile_the_span(self):
        g = Grid.geometric(1e-4, 20.0, 512)
        np.testing.assert_allclose(g.weights.sum(), 20.0 - 1e-4, rtol=1e-12)
        assert np.all(g.weights > 0)
        assert np.all(np.diff(g.nodes) > 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            Grid.geometric(0.0, 1.0, 32)
        with pytest.raises(ValueError):
            Grid.geometric(1.0, 10.0, 2)
        # past 2^53 nodes no grid could be held: 1e300 raised a bare TypeError in geomspace
        for n in (2**53, 1e300):
            with pytest.raises(InvalidInputError, match="2\\^53"):
                Grid.geometric(0.1, 1.0, n)


class TestDiscretize:
    def test_zero_kernel_is_pure_decay(self):
        g = Grid.geometric(0.1, 10.0, 32)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        assert gen.matrix.shape == (g.n + 1, g.n + 1)
        assert np.all(np.triu(gen.matrix, 1) == 0)  # no gain, no dust flux
        assert gen.matrix[0, 0] == 0
        np.testing.assert_allclose(_loss(gen), g.nodes)

    def test_gain_strictly_triangular_and_nonnegative(self):
        g = Grid.geometric(0.01, 10.0, 64)
        gen = discretize(HOM0, RATE_X, g)
        assert np.all(np.triu(gen.matrix, 1) >= 0)  # gain and dust flux
        assert np.all(np.tril(gen.matrix, -1) == 0)  # receivers strictly below parents
        assert gen.matrix[0, 0] == 0 and np.all(_loss(gen) > 0)

    def test_column_mass_identity(self):
        # spec tolerance 1e-3 on N=256 over [1e-3, 20]; the mass-allocated
        # assembly closes it to quadrature precision
        g = Grid.geometric(1e-3, 20.0, 256)
        x = g.nodes
        for kern in (HOM0, FragmentKernel.homogeneous_power(-0.5),
                     FragmentKernel.boundary_binary()):
            gen = discretize(kern, RATE_X, g)
            act = _loss(gen) > 0
            col = _closure(gen)[1:][act] / _loss(gen)[act] + x[act]
            rel = np.abs(col - x[act]) / x[act]
            assert np.max(rel) < 1e-3
            assert np.max(rel) < 1e-9  # and in fact far tighter

    def test_boundary_binary_gap_cells_are_zero(self):
        g = Grid.geometric(0.01, 10.0, 128)
        gen = discretize(FragmentKernel.boundary_binary(), RateFunction.constant(1.0), g)
        x, e = g.nodes, g.edges
        for j in range(g.n):
            if x[j] <= 2.0:
                continue
            # cells fully inside the support gap (1, x_j - 1) receive nothing
            inside = (e[:-1] >= 1.0) & (e[1:] <= x[j] - 1.0) & (np.arange(g.n) < j - 1)
            assert np.all(gen.matrix[1:, j + 1][inside] == 0.0)

    def test_column_kappa_mass_weight(self):
        g = Grid.geometric(1e-3, 20.0, 256)
        gen = discretize(HOM0, RATE_X, g)
        assert column_kappa(gen, Weight.power(1.0)) <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(nu=st.floats(-2.0, 0.0, exclude_min=True), alpha=st.floats(0.0, 2.0),
           x_min=st.floats(1e-6, 1.0), span=st.floats(2.0, 1e6), n=st.integers(8, 256))
    def test_mass_closure_with_dust(self, nu, alpha, x_min, span, n):
        # a mass-conserving kernel: each column sends all of the parent's mass
        # to the cells below it or to the dust, sum_i x_i B_ij + d_j = a_j x_j,
        # that is l A = 0 for l = (1, x_1, ..., x_N)
        g = Grid.geometric(x_min, x_min * span, n)
        gen = discretize(FragmentKernel.homogeneous_power(nu), RateFunction.power(alpha), g)
        assert np.all(np.triu(gen.matrix, 1) >= 0)
        closure = _closure(gen)
        assert closure[0] == 0.0
        assert np.all(np.abs(closure[1:]) <= 1e-12 * _loss(gen) * g.nodes)

    @pytest.mark.parametrize("x_max", [200.0, 400.0])
    def test_mass_closure_with_dust_concentrated(self, x_max):
        # the top band's mass at the parent, M(y; y) = y, is exact, so no column
        # loses mass in proportion to y^2
        g = Grid.geometric(1e-3, x_max, 512)
        gen = discretize(FragmentKernel.concentrated(), RATE_X, g)
        assert np.all(np.abs(_closure(gen)[1:]) <= 1e-12 * _loss(gen) * g.nodes)

    def test_custom_kernel_batched_column_mass(self):
        # m(y) = y/3 for b = x/y^2; the generic cumulative-quadrature path
        # must close the column identity against it
        kern = FragmentKernel.custom(lambda x, y: x / y**2)
        g = Grid.geometric(1e-2, 10.0, 96)
        gen = discretize(kern, RATE_X, g)
        x = g.nodes
        act = _loss(gen) > 0
        col = _closure(gen)[1:][act] / _loss(gen)[act] + x[act]
        np.testing.assert_allclose(col, x[act] / 3.0, rtol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["homogeneous_power", "boundary_binary", "concentrated"]),
           nu=st.floats(-1.9, 0.0), x_min=st.floats(1e-3, 1.3), x_max=st.floats(2.5, 50.0),
           n=st.sampled_from(BLOCK_SIZES), rate=st.sampled_from([RATE_X, RATE_ZERO_HEAD]))
    def test_blocked_assembly_is_the_per_column_one(self, family, nu, x_min, x_max, n, rate):
        # the grid crosses y = sqrt(2) and y = 2, where the closed forms switch
        kern = FragmentKernel.homogeneous_power(nu) if family == "homogeneous_power" \
            else getattr(FragmentKernel, family)()
        g = Grid.geometric(x_min, x_max, n)
        gen = discretize(kern, rate, g)
        assert np.array_equal(gen.matrix, _per_column_matrix(kern, rate, g))
        assert np.all(np.tril(gen.matrix, -1) == 0)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_blocked_assembly_is_the_per_column_one_custom(self, n):
        kern = FragmentKernel.custom(lambda x, y: x / y**2)
        g = Grid.geometric(1e-2, 10.0, n)
        gen = discretize(kern, RATE_ZERO_HEAD, g)
        assert np.array_equal(gen.matrix, _per_column_matrix(kern, RATE_ZERO_HEAD, g))
        assert np.all(np.tril(gen.matrix, -1) == 0)

    @pytest.mark.parametrize("kern", [HOM0, FragmentKernel.custom(lambda x, y: x / y**2)],
                             ids=["closed_form", "custom"])
    def test_mass_partial_called_once_per_block(self, monkeypatch, kern):
        # the first edge is the first node, so one call per block of columns
        # also gives the mass below the grid; a custom kernel's quadrature
        # still runs once per parent size, with that size as a float
        calls, per_y = [], []
        real, real_numeric = FragmentKernel.mass_partial, FragmentKernel._mass_partial_numeric

        def counting(self, s, y):
            calls.append(y)
            return real(self, s, y)

        def counting_numeric(self, s, y):
            per_y.append(y)
            return real_numeric(self, s, y)

        monkeypatch.setattr(FragmentKernel, "mass_partial", counting)
        monkeypatch.setattr(FragmentKernel, "_mass_partial_numeric", counting_numeric)
        g = Grid.geometric(1e-2, 10.0, 2 * _ASSEMBLY_BLOCK + 3)
        discretize(kern, RATE_X, g)
        assert len(calls) == math.ceil(g.n / _ASSEMBLY_BLOCK) == 3
        if kern.family == "custom":
            assert per_y == g.nodes.tolist()
            assert all(type(y) is float for y in per_y)
        else:
            assert per_y == []

    @pytest.mark.parametrize("kern", [HOM0, FragmentKernel.boundary_binary(),
                                      FragmentKernel.concentrated()],
                             ids=["homogeneous", "boundary_binary", "concentrated"])
    def test_assembly_needs_less_room_than_the_ie_factors(self, kern):
        # numpy reports its buffers to tracemalloc; beyond the generator itself,
        # assembling may hold no more than the implicit-Euler diagonal factors,
        # an eighth of it, so it does not raise a simulation's peak memory
        g = Grid.geometric(1e-4, 20.0, 2048)
        tracemalloc.start()
        try:
            gen = discretize(kern, RATE_X, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - gen.matrix.nbytes < gen.matrix.nbytes / 8


class TestStep:
    def test_pure_decay_implicit_euler_formula(self):
        g = Grid.geometric(0.1, 10.0, 48)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        u0 = exp_decay(g, 2.0)
        st = simulate(u0, gen, 0.25, 0.25).final  # one step
        np.testing.assert_allclose(st.u, u0 / (1.0 + g.nodes * 0.25), rtol=1e-13)

    def test_implicit_euler_positivity(self):
        g = Grid.geometric(1e-3, 20.0, 128)
        gen = discretize(HOM0, RateFunction.power(2.0), g)
        traj = simulate(bump(g, 5.0, 15.0), gen, 1.0, 0.05)
        assert traj.min_content >= 0  # every step, before any clipping
        assert np.all(traj.final.u >= 0)

    def test_rk4_matches_implicit_euler_limit(self):
        g = Grid.geometric(0.1, 5.0, 24)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 3.0)
        ref = expm_oracle(gen, 0.5, u0)
        rk = simulate(u0, gen, 0.5, 0.01, scheme="rk4").final
        w = Weight.power_shifted(1.0)
        err = _wnorm(g, rk.u - ref.u, w) / _wnorm(g, ref.u, w)
        assert err < 1e-8

    def test_unknown_scheme(self):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        with pytest.raises(ValueError):
            simulate(bump(g, 1.0, 2.0), gen, 0.1, 0.1, scheme="leapfrog")

    @pytest.mark.parametrize("t0, t_end, dt, scheme", [(0.0, -1.0, 0.01, "implicit_euler"),
                                                       (0.0, 0.0, 0.01, "leapfrog"),
                                                       (1.0, 0.5, 0.01, "rk4"),
                                                       (0.0, 0.01, 1e-300, "implicit_euler"),
                                                       (0.0, 1e308, 1e-10, "rk4"),
                                                       (1.0, 1.0 + 2.0**52, 0.5, "rk4")],
                             ids=["negative_t_end", "unknown_scheme_no_step", "t_end_before_t0",
                                  "tiny_dt", "huge_t_end", "2^53_steps"])
    def test_bad_input_that_runs_no_step_rejected(self, monkeypatch, t0, t_end, dt, scheme):
        # the first three used to return a one-row trajectory: the scheme was
        # read only when stepping, and an end before the start ran no step;
        # dt = 1e-300 hung building the list of chunks, and 1e308 / 1e-10
        # overflowed to an infinite step count, an OverflowError
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)

        def no_step(*args, **kwargs):
            raise AssertionError("stepped on bad input")

        for name in ("_ie_factors", "_ie_chunk", "_rk4_matrix", "_rk4_chunk"):
            monkeypatch.setattr(simulator, name, no_step)
        with pytest.raises(InvalidInputError):
            simulate(DensityState(grid=g, u=bump(g, 1.0, 2.0), t=t0), gen, t_end, dt,
                     scheme=scheme)

    def test_one_factor_build_per_run(self, monkeypatch):
        # 0.2 - 99 * 2e-3 is 2e-3 plus 1.8e-18: that last step reuses the run's factors
        builds = []
        real = simulator._ie_factors
        monkeypatch.setattr(simulator, "_ie_factors",
                            lambda a, dt: builds.append(dt) or real(a, dt))
        g = Grid.geometric(1e-4, 20.0, 64)
        gen = discretize(HOM0, RATE_X, g)
        traj = simulate(bump(g, 1.0, 10.0), gen, 0.2, 2e-3)
        assert builds == [2e-3]
        assert traj.times.size == 101
        assert abs(traj.times[-1] - 0.2) <= 1e-12

    def test_a_short_last_step_gets_its_own_factors(self, monkeypatch):
        builds = []
        real = simulator._ie_factors
        monkeypatch.setattr(simulator, "_ie_factors",
                            lambda a, dt: builds.append(dt) or real(a, dt))
        g = Grid.geometric(0.1, 10.0, 32)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        u0 = exp_decay(g, 2.0)
        traj = simulate(u0, gen, 0.25, 0.1)
        assert builds[0] == 0.1 and len(builds) == 2
        assert builds[1] == pytest.approx(0.05, rel=1e-12)
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.25], rtol=1e-15)
        want = u0 / (1.0 + 0.1 * g.nodes) ** 2 / (1.0 + 0.05 * g.nodes)
        np.testing.assert_allclose(traj.final.u, want, rtol=1e-13)

    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    def test_a_run_of_no_length_takes_no_step(self, scheme):
        # at t0 = 1e6, t0 - 1e-10 rounds 16% away from 1e-10: the last step of
        # this run of no steps came out "short", and was taken at t = t0
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RateFunction.constant(1e9), g)
        state = DensityState(grid=g, u=bump(g, 1.0, 2.0), t=1e6)
        traj = simulate(state, gen, 1e6, 1e-10, scheme=scheme)
        np.testing.assert_array_equal(traj.times, [1e6])
        np.testing.assert_array_equal(traj.final.u, state.u)
        assert traj.final.dust_mass == 0.0

    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    def test_step_times_do_not_drift(self, scheme):
        # step k ends at t0 + (k + 1) dt, not at a running sum of the steps
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        t0, dt = 0.1, 1e-3
        traj = simulate(DensityState(grid=g, u=bump(g, 1.0, 2.0), t=t0), gen, 0.4, dt,
                        scheme=scheme)
        assert traj.times.size == 301
        np.testing.assert_array_equal(traj.times[:-1], t0 + np.arange(300) * dt)
        assert abs(traj.times[-1] - 0.4) <= 1e-12
        assert traj.final.t == traj.times[-1]


class TestSimulate:
    def test_number_decay_with_zero_kernel(self):
        g = Grid.geometric(0.1, 10.0, 64)
        gen = discretize(FragmentKernel.zero(), RateFunction.constant(1.0), g)
        u0 = exp_decay(g, 1.0)
        traj = simulate(u0, gen, 1.0, 1e-3, sample_every=100)
        expected = traj.M0[0] * np.exp(-traj.times)
        np.testing.assert_allclose(traj.M0, expected, rtol=1e-3)

    def test_conservation_with_dust(self):
        # l A = 0 conserves M1 + dust under every scheme that is a function of A
        g = Grid.geometric(1e-4, 20.0, 512)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 10.0)
        for scheme in ("implicit_euler", "rk4"):
            traj = simulate(u0, gen, 1.0, 2e-3, scheme=scheme, weight=Weight.power(1.0),
                            sample_every=50)
            total = traj.M1 + traj.dust_mass
            assert np.max(np.abs(total - total[0]) / total[0]) < 1e-12, scheme
            assert np.all(np.diff(traj.dust_mass) >= 0), scheme

    def test_substochastic_norm_decay(self):
        g = Grid.geometric(1e-4, 20.0, 256)
        gen = discretize(HOM0, RATE_X, g)
        assert column_kappa(gen, Weight.power(1.0)) <= 1.0 + 1e-12
        traj = simulate(bump(g, 1.0, 10.0), gen, 0.5, 1e-3,
                        weight=Weight.power(1.0), sample_every=25)
        drops = np.diff(traj.norm_omega)
        assert np.all(drops <= 1e-10 * traj.norm_omega[:-1])

    def test_number_growth_for_binary_splitting(self):
        g = Grid.geometric(1e-4, 20.0, 256)
        gen = discretize(HOM0, RATE_X, g)  # two pieces per event
        traj = simulate(bump(g, 1.0, 10.0), gen, 1.0, 2e-3, sample_every=50)
        assert np.all(np.diff(traj.M0) >= -1e-12 * traj.M0[:-1])

    def test_order_one_convergence_to_oracle(self):
        g = Grid.geometric(0.01, 2.0, 32)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.1, 1.0)
        ref = expm_oracle(gen, 1.0, u0)
        w = Weight.power_shifted(1.0)
        dts = [8e-3, 4e-3, 2e-3, 1e-3]
        errs = [_wnorm(g, simulate(u0, gen, 1.0, dt).final.u - ref.u, w)
                / _wnorm(g, ref.u, w) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)
        assert errs[-1] < 5e-3

    def test_rk4_order_four(self):
        g = Grid.geometric(0.1, 2.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.2, 1.0)
        ref = expm_oracle(gen, 0.5, u0)
        w = Weight.power_shifted(1.0)
        dts = [0.1, 0.05, 0.025]
        errs = [_wnorm(g, simulate(u0, gen, 0.5, dt, scheme="rk4").final.u - ref.u, w)
                / _wnorm(g, ref.u, w) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.5)

    def test_negative_initial_density_rejected(self):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        with pytest.raises(ValueError):
            simulate(-bump(g, 1.0, 2.0), gen, 0.1, 0.01)

    @pytest.mark.parametrize("u, dust", [(-1.0, 0.0), (1.0, -1.0), (1.0, np.nan)],
                             ids=["negative_density", "negative_dust", "nan_dust"])
    def test_bad_state_rejected(self, u, dust):
        # a DensityState passes the same checks as a density array
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        state = DensityState(grid=g, u=u * bump(g, 1.0, 2.0), dust_mass=dust)
        with pytest.raises(InvalidInputError):
            simulate(state, gen, 0.1, 0.01)

    def test_wrong_grid_size_rejected(self):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        with pytest.raises(InvalidInputError, match="shape"):
            simulate(bump(Grid.geometric(0.1, 5.0, 17), 1.0, 2.0), gen, 0.1, 0.01)

    @pytest.mark.parametrize("sample_every", [7, 10])
    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    def test_sampling_across_chunks(self, scheme, sample_every):
        # 2 _IE_CHUNK + 3 steps, the last a half step: three chunks of full
        # steps and one short one, none of whose edges may drop or repeat a
        # sample; the last step is a multiple of 7 but not of 10
        g = Grid.geometric(0.1, 5.0, 32)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 4.0)
        n_steps, dt = 2 * _IE_CHUNK + 3, 2.0**-10
        t_end = (n_steps - 0.5) * dt
        every = simulate(u0, gen, t_end, dt, scheme=scheme)
        some = simulate(u0, gen, t_end, dt, scheme=scheme, sample_every=sample_every)
        rows = np.union1d(np.arange(0, n_steps + 1, sample_every), [n_steps])
        assert every.times.size == n_steps + 1
        for name in ("times", "M0", "M1", "norm_omega", "dust_mass"):
            np.testing.assert_array_equal(getattr(some, name), getattr(every, name)[rows], name)
        assert some.times[-1] == t_end
        np.testing.assert_array_equal(some.final.u, every.final.u)

    @pytest.mark.parametrize("every", [2.5, 3.0, "3", None])
    def test_sample_every_must_be_an_integer(self, every):
        # 2.5 and 3.0 ended in a bare IndexError from the sample indices
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        with pytest.raises(InvalidInputError, match="integer sample_every"):
            simulate(bump(g, 0.5, 4.0), gen, 0.1, 0.01, sample_every=every)

    def test_numpy_integer_sample_every(self):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 4.0)
        want = simulate(u0, gen, 0.1, 0.01, sample_every=3)
        got = simulate(u0, gen, 0.1, 0.01, sample_every=np.int64(3))
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.M1, want.M1)

    def test_trajectory_csv(self, tmp_path):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        traj = simulate(bump(g, 0.5, 2.0), gen, 0.1, 0.01)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[-1, 1], traj.M0[-1], rtol=1e-15)


class TestExpmOracle:
    def test_zero_generator_is_identity(self):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = DiscreteGenerator(grid=g, matrix=np.zeros((17, 17)))
        u0 = bump(g, 0.5, 2.0)
        st = expm_oracle(gen, 3.0, u0)
        np.testing.assert_allclose(st.u, u0, atol=1e-14)

    def test_diagonal_decay(self):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        u0 = exp_decay(g, 1.0)
        st = expm_oracle(gen, 0.7, u0)
        np.testing.assert_allclose(st.u, u0 * np.exp(-g.nodes * 0.7), rtol=1e-12)

    def test_semigroup_identity_random_triangular(self):
        rng = np.random.default_rng(2024)
        g = Grid.geometric(0.1, 5.0, 24)
        matrix = np.zeros((25, 25))
        matrix[1:, 1:] = np.triu(rng.uniform(0.0, 0.5, size=(24, 24)), k=1)
        matrix[np.arange(1, 25), np.arange(1, 25)] = -rng.uniform(0.2, 2.0, size=24)
        gen = DiscreteGenerator(grid=g, matrix=matrix)
        u0 = rng.uniform(0.0, 1.0, size=24)
        one = expm_oracle(gen, 0.5, u0)
        two = expm_oracle(gen, 0.3, expm_oracle(gen, 0.2, u0))
        np.testing.assert_allclose(one.u, two.u, rtol=1e-9, atol=1e-12)

    def test_mass_closure_beyond_the_old_dense_limit(self):
        # N = 1024 was refused by the dense oracle's N <= 512 cost guard; the
        # action of the exponential only multiplies by the generator
        g = Grid.geometric(1e-3, 10.0, 1024)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 5.0)
        st = expm_oracle(gen, 0.5, u0)
        m1_before = float((g.nodes * g.weights * u0).sum())
        m1_after = float((g.nodes * g.weights * st.u).sum()) + st.dust_mass
        np.testing.assert_allclose(m1_after, m1_before, rtol=1e-10)

    def test_oracle_mass_closure(self):
        g = Grid.geometric(1e-3, 10.0, 128)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 5.0)
        st = expm_oracle(gen, 0.5, u0)
        m1_before = float((g.nodes * g.weights * u0).sum())
        m1_after = float((g.nodes * g.weights * st.u).sum()) + st.dust_mass
        np.testing.assert_allclose(m1_after, m1_before, rtol=1e-10)

    @pytest.mark.parametrize("n, kern, t, hops", [
        (64, FragmentKernel.homogeneous_power(-0.5), 0.5, 1),
        (256, FragmentKernel.homogeneous_power(-0.5), 0.5, 1),
        # sigma t = 20^1.5 * 6 = 537 is above the hop bound
        (128, FragmentKernel.homogeneous_power(-0.5), 6.0, 2),
        # b = 3/y makes m(y) = 1.5 y: each breakup gains half the parent's
        # mass, and rho = 1.5
        (128, FragmentKernel.custom(lambda x, y: 3.0 / y + 0.0 * x,
                                    mass_partial=lambda s, y: 1.5 * s**2 / y), 0.5, 1),
    ], ids=["64", "256", "more_than_one_hop", "mass_gaining"])
    def test_matches_dense_exponential(self, monkeypatch, n, kern, t, hops):
        # the dense exponential of the generator, dust included, is the reference
        g = Grid.geometric(1e-4, 20.0, n)
        gen = discretize(kern, RateFunction.power(1.5), g)
        u0 = bump(g, 1.0, 10.0)
        calls = []
        real = simulator._uniformized_hop
        monkeypatch.setattr(simulator, "_uniformized_hop",
                            lambda *args: calls.append(args[2]) or real(*args))
        ref = expm(gen.matrix * t) @ np.append(0.0, g.weights * u0)
        st = expm_oracle(gen, t, u0)
        assert len(calls) == hops
        out = np.append(st.dust_mass, g.weights * st.u)
        # relative to the largest component: cells far below the bump hold
        # round-off-sized content, where a componentwise ratio means nothing
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=30, deadline=None)
    @given(nu=st.floats(-0.9, 0.0), alpha=st.floats(0.5, 1.5), n=st.integers(8, 128),
           seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 2.0))
    def test_positive_conservative_and_norm_non_increasing(self, nu, alpha, n, seed, t):
        # every term of the series is non-negative and conserves l = (1, x);
        # the mass the cells lose goes to the dust, so sum x mu cannot grow
        g = Grid.geometric(1e-4, 20.0, n)
        gen = discretize(FragmentKernel.homogeneous_power(nu), RateFunction.power(alpha), g)
        u0 = np.random.default_rng(seed).uniform(0.0, 1.0, n)
        mass = float(g.nodes @ (g.weights * u0))
        norms = [mass]
        for frac in (0.25, 0.5, 1.0):
            st_ = expm_oracle(gen, frac * t, u0)
            assert np.all(st_.u >= 0) and st_.dust_mass >= 0
            m1 = float(g.nodes @ (g.weights * st_.u))
            assert abs(m1 + st_.dust_mass - mass) <= 1e-13 * mass
            norms.append(m1)
        assert np.all(np.diff(norms) <= 1e-13 * mass)

    def test_overflowing_sigma_t_rejected(self):
        # t is finite, but sigma t is not: the number of hops cannot be formed
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        with pytest.raises(InvalidInputError, match="too large"):
            expm_oracle(gen, 1e308, bump(g, 0.5, 2.0))

    def test_negative_off_diagonal_entry_rejected(self):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        matrix = gen.matrix.copy()
        matrix[3, 9] = -1e-3
        with pytest.raises(InvalidInputError, match="negative entry off its diagonal"):
            expm_oracle(DiscreteGenerator(grid=g, matrix=matrix), 0.5, bump(g, 0.5, 2.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(3, 9), (9, 9), (0, 16)], ids=["gain", "diagonal", "dust"])
    def test_non_finite_generator_rejected(self, value, at):
        g = Grid.geometric(0.1, 5.0, 16)
        matrix = discretize(HOM0, RATE_X, g).matrix.copy()
        matrix[at] = value
        with pytest.raises(FragkitError, match="non-finite entry") as err:
            expm_oracle(DiscreteGenerator(grid=g, matrix=matrix), 0.5, bump(g, 0.5, 2.0))
        assert not isinstance(err.value, InvalidInputError)

    def test_holds_no_copy_of_the_generator(self):
        # numpy reports its buffers to tracemalloc; the checks read A through
        # views and the series holds a few vectors
        g = Grid.geometric(1e-4, 20.0, 2048)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 10.0)
        tracemalloc.start()
        try:
            expm_oracle(gen, 0.5, u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * gen.matrix.nbytes

    def test_imports_no_sparse_linear_algebra(self):
        # scipy.sparse.linalg costs tens of ms to import, and its norm
        # estimates draw from numpy's global random stream
        code = ("import sys\n"
                "from fragkit.kernels import FragmentKernel, RateFunction\n"
                "from fragkit.simulator import Grid, bump, discretize, expm_oracle, semigroup_check\n"
                "g = Grid.geometric(0.1, 5.0, 16)\n"
                "gen = discretize(FragmentKernel.homogeneous_power(0.0), RateFunction.power(1.0), g)\n"
                "expm_oracle(gen, 0.5, bump(g, 0.5, 2.0))\n"
                "semigroup_check(gen, bump(g, 0.5, 2.0), 0.3, 0.2, scheme='expm')\n"
                "assert 'scipy.sparse.linalg' not in sys.modules, 'scipy.sparse.linalg was imported'\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(simulator.__file__)))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    def test_leaves_the_global_random_stream_alone(self):
        g = Grid.geometric(1e-3, 100.0, 256)
        gen = discretize(HOM0, RATE_X, g)
        np.random.seed(0)
        want = np.random.rand()
        np.random.seed(0)
        expm_oracle(gen, 1.0, bump(g, 1.0, 4.0))
        assert np.random.rand() == want

    @pytest.mark.parametrize("t, u", [(0.5, -1.0), (0.5, np.nan), (0.5, np.inf),
                                      (-0.5, 1.0), (np.nan, 1.0), (np.inf, 1.0)],
                             ids=["negative_density", "nan_density", "inf_density",
                                  "negative_t", "nan_t", "inf_t"])
    def test_bad_input_rejected(self, t, u):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 2.0)
        u0[4] = u
        for given in (u0, DensityState(grid=g, u=u0)):
            with pytest.raises(InvalidInputError):
                expm_oracle(gen, t, given)


class TestSemigroupCheck:
    def test_pure_decay_commutes(self):
        g = Grid.geometric(0.1, 5.0, 24)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        dev = semigroup_check(gen, bump(g, 0.5, 2.0), 0.3, 0.2, scheme="expm")
        assert dev <= 1e-12

    def test_implicit_euler_scheme_bound(self):
        g = Grid.geometric(0.05, 3.0, 32)
        gen = discretize(HOM0, RATE_X, g)
        dev = semigroup_check(gen, bump(g, 0.2, 1.5), 0.25, 0.25,
                              scheme="implicit_euler", dt=1e-4)
        assert dev < 1e-3

    def test_oracle_self_consistency(self):
        g = Grid.geometric(0.05, 3.0, 32)
        gen = discretize(HOM0, RATE_X, g)
        dev = semigroup_check(gen, bump(g, 0.2, 1.5), 0.3, 0.2, scheme="expm")
        assert dev < 1e-9

    @pytest.mark.parametrize("scheme", ["expm", "implicit_euler"])
    def test_density_state_runs_from_its_clock(self, scheme):
        # a DensityState used to raise a bare TypeError; at t0 = 0.6 the hops
        # must end at 0.8 and 1.1, not at 0.2 and 0.5, before the state's clock
        g = Grid.geometric(0.05, 3.0, 32)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.2, 1.5)
        dev = semigroup_check(gen, u0, 0.3, 0.2, scheme=scheme)
        assert semigroup_check(gen, DensityState(grid=g, u=u0), 0.3, 0.2, scheme=scheme) == dev
        later = semigroup_check(gen, DensityState(grid=g, u=u0, t=0.6), 0.3, 0.2, scheme=scheme)
        assert later == pytest.approx(dev, rel=1e-6)


class TestFiniteness:
    """The implicit-Euler matrix is checked once per run and the initial state
    once; the triangular solves themselves skip LAPACK's input check."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gain_raises(self, bad):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        matrix = gen.matrix.copy()
        matrix[4, 8] = bad  # cell 3 from parent 7
        gen = dataclasses.replace(gen, matrix=matrix)
        u0 = bump(g, 0.5, 4.0)
        # the matrix check, not the per-step guard, must be what refuses it
        with pytest.raises(FragkitError, match="matrix I - dt A has a non-finite"):
            simulate(u0, gen, 0.1, 0.01, scheme="implicit_euler")

    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_density_rejected_before_stepping(self, monkeypatch, scheme, bad):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 4.0)
        u0[5] = bad

        def no_step(*args, **kwargs):
            raise AssertionError("stepped a non-finite state")

        for name in ("_ie_factors", "_ie_chunk", "_rk4_matrix", "_rk4_chunk"):
            monkeypatch.setattr(simulator, name, no_step)
        with pytest.raises(FragkitError, match="non-finite"):
            simulate(u0, gen, 0.1, 0.01, scheme=scheme)
        with pytest.raises(FragkitError, match="non-finite"):
            simulate(DensityState(grid=g, u=u0), gen, 0.1, 0.01, scheme=scheme)

    def test_overflowing_solve_raises(self):
        # finite but huge gain entries: the substitution overflows to inf,
        # which no input check sees; the step itself must refuse it
        g = Grid.geometric(0.1, 5.0, 64)
        gen = _gain_scaled(discretize(HOM0, RATE_X, g), 1e300)
        u0 = bump(g, 1.0, 4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FragkitError, match="implicit Euler produced a non-finite"):
                simulate(u0, gen, 0.05, 0.01)

    def test_overflowing_rk4_step_raises(self):
        # the same overflow inside the rk4 stages used to end in NaN M0 and M1
        g = Grid.geometric(0.1, 5.0, 16)
        gen = _gain_scaled(discretize(HOM0, RATE_X, g), 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FragkitError, match="rk4 produced a non-finite"):
                simulate(bump(g, 1.0, 4.0), gen, 0.05, 0.01, scheme="rk4")

    @pytest.mark.parametrize("dt, t_end, every", [(0.0, 0.1, 1), (-0.01, 0.1, 1),
                                                  (np.inf, 0.1, 1), (np.nan, 0.1, 1),
                                                  (0.01, np.nan, 1), (0.01, 0.1, 0)])
    def test_bad_step_parameters_are_toolkit_errors(self, dt, t_end, every):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        with pytest.raises(FragkitError):
            simulate(bump(g, 0.5, 4.0), gen, t_end, dt, sample_every=every)


class TestStiffness:
    def test_stiff_rk4_is_positive_and_conservative(self):
        # dt a = 500: each step is R(dt A / 512) squared 9 times, whose entries
        # are all non-negative, so the run neither halves nor raises
        g = Grid.geometric(0.1, 5.0, 24)
        gen = discretize(HOM0, RateFunction.constant(500.0), g)
        traj = simulate(bump(g, 0.5, 4.0), gen, 2.5, 1.0, scheme="rk4")
        assert traj.min_content >= 0
        assert np.all(traj.final.u >= 0)
        total = traj.M1 + traj.dust_mass
        assert np.max(np.abs(total - total[0])) <= 1e-12 * total[0]


def test_negative_implicit_euler_step_is_a_toolkit_error():
    # a hand-built generator whose solve goes negative: dt = 1 and A[1, 2] = -1
    # (a negative gain) make I - dt A the identity with a 1 at (1, 2), whose
    # block [[1, 1], [0, 1]] x = [0, 1] of cells 0 and 1 gives x = [-1, 1].  The
    # CLI maps FragkitError to an exit code; a bare RuntimeError escaped as a traceback.
    a = np.zeros((5, 5))
    a[1, 2] = -1.0
    with pytest.raises(FragkitError, match="substantive negative"):
        _ie_chunk(a, _ie_factors(a, 1.0), 1.0, np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 1)


class TestBlockedImplicitEuler:
    """A chunk of steps substitutes blocks of _IE_BLOCK rows on A itself."""

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([1, _IE_BLOCK - 1, _IE_BLOCK, _IE_BLOCK + 1, 2 * _IE_BLOCK + 1]),
           m=st.sampled_from([1, _IE_CHUNK - 1, _IE_CHUNK, _IE_CHUNK + 1]),
           seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-4, 10.0))
    def test_matches_repeated_triangular_solves(self, size, m, seed, dt):
        # a random non-negative gain above a non-positive diagonal; scaled by
        # 1 / size so the solution stays far from overflow at dt = 10
        rng = np.random.default_rng(seed)
        a = np.triu(rng.uniform(0.0, 1.0, (size, size)), 1) / size
        a[np.diag_indices(size)] = -rng.uniform(0.0, 2.0, size)
        v0 = rng.uniform(0.0, 1.0, size)
        want = np.empty((m, size))
        v = v0
        for k in range(m):
            want[k] = v = solve_triangular(np.eye(size) - dt * a, v)
        got, low = _ie_chunk(a, _ie_factors(a, dt), dt, v0, m)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert low >= 0

    def test_holds_no_copy_of_the_generator(self):
        # numpy reports its buffers to tracemalloc; I - dt A as a whole would
        # be one more (N + 1)^2 array, the diagonal factors are an eighth of
        # one and a chunk's states a sixteenth; three chunks, the last of one step
        g = Grid.geometric(1e-4, 20.0, 2048)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 10.0)
        n_steps, dt = 2 * _IE_CHUNK + 1, 2.0**-10
        tracemalloc.start()
        try:
            traj = simulate(u0, gen, n_steps * dt, dt, scheme="implicit_euler")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == n_steps + 1
        assert peak < 0.5 * gen.matrix.nbytes


class TestBlockedRk4:
    """rk4 applies R(dt A), built once per step length, by the implicit-Euler sweep."""

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([1, _IE_BLOCK - 1, _IE_BLOCK, _IE_BLOCK + 1, 2 * _IE_BLOCK + 1]),
           m=st.sampled_from([1, _IE_CHUNK - 1, _IE_CHUNK, _IE_CHUNK + 1]),
           seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-4, 0.5))
    def test_matches_the_stage_form(self, size, m, seed, dt):
        # the generator of TestBlockedImplicitEuler; dt a_jj <= 1, so R(dt A)
        # is one stage-form step, and neither R nor the state goes negative
        rng = np.random.default_rng(seed)
        a = np.triu(rng.uniform(0.0, 1.0, (size, size)), 1) / size
        a[np.diag_indices(size)] = -rng.uniform(0.0, 2.0, size)
        v0 = rng.uniform(0.0, 1.0, size)
        want, v = np.empty((m, size)), v0
        for k in range(m):
            want[k] = v = _stage_form(a, v, dt)
        got, low = _rk4_chunk(_rk4_matrix(a, dt), v0, m)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(low, want[:, 1:].min(initial=np.inf), rtol=1e-12)

    @pytest.mark.parametrize("level, k", [(40.0, 1), (60.0, 2)])
    def test_stiff_steps_are_stage_form_substeps(self, level, k):
        # dt a = 2 and 3: each step is 2^k stage-form substeps of dt / 2^k, the
        # fewest with dt a / 2^k <= 1, and so is the short last step of about
        # dt / 2, with its own k; the stage form at dt itself goes negative
        g = Grid.geometric(0.1, 5.0, 24)
        gen = discretize(HOM0, RateFunction.constant(level), g)
        u0, dt = bump(g, 0.5, 4.0), 0.05
        traj = simulate(u0, gen, 20.5 * dt, dt, scheme="rk4")
        v = np.append(0.0, g.weights * u0)
        states = [v]
        last = 20.5 * dt - 20 * dt  # as simulate takes it: last a is 1 + 5e-15 at level 40
        n_last = 1
        while last / n_last * level > 1:
            n_last *= 2
        for h, n in [(dt, 2**k)] * 20 + [(last, n_last)]:
            for _ in range(n):
                v = _stage_form(gen.matrix, v, h / n)
            states.append(v)
        states = np.array(states)
        assert states[:, 1:].min() >= 0 and traj.min_content >= 0
        np.testing.assert_allclose(traj.dust_mass, states[:, 0], rtol=1e-12)
        np.testing.assert_allclose(traj.M0, states[:, 1:].sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(traj.M1, states[:, 1:] @ g.nodes, rtol=1e-12)
        np.testing.assert_allclose(traj.final.u, states[-1, 1:] / g.weights, rtol=1e-12)

    def test_each_step_reads_the_clipped_state(self):
        # a hand-built gain of -1e-14 from cell 3 into cell 1 puts a negative
        # within round-off into cell 1 each step; read clipped, it stays one
        # step's worth, where read as it is it would pile up past the check
        a = np.zeros((4, 4))
        a[1, 3] = -1e-14
        got, low = _rk4_chunk(_rk4_matrix(a, 0.5), np.array([0.0, 0.0, 0.0, 1.0]), 6)
        np.testing.assert_array_equal(got[:, 1], 0.0)
        assert low == pytest.approx(-5e-15, rel=1e-12)

    def test_negative_off_diagonal_entry_is_a_toolkit_error(self):
        # only a hand-built generator with a negative gain can make R negative:
        # A[1, 2] = -1 moves content out of cell 1 that it does not have
        a = np.zeros((5, 5))
        a[1, 2] = -1.0
        a[2, 2] = -1.0
        with pytest.raises(FragkitError, match="rk4 produced a substantive negative"):
            _rk4_chunk(_rk4_matrix(a, 0.5), np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 1)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1),
           stiffness=st.floats(1e-4, 20.0), steps=st.integers(1, 4),
           tail=st.sampled_from([0.0, 0.3, 0.9]), p=st.floats(0.0, 2.0))
    def test_positive_conservative_and_contractive(self, n, seed, stiffness, steps, tail, p):
        # R = sum_k c_k B^k with c_k >= 0 and sum_k c_k = 1, and B = I + hA has
        # no negative entry: on a random conservative upper-triangular Metzler
        # generator, at dt max_j a_j = stiffness, rk4 makes no negative at all,
        # keeps M1 + dust, and keeps the weighted norm from growing when the
        # columns satisfy kappa <= 1; tail > 0 ends on a short last step
        rng = np.random.default_rng(seed)
        g = Grid.geometric(0.1, 10.0, n)
        ell = np.append(1.0, g.nodes)
        a = np.triu(rng.uniform(0.0, 1.0, (n + 1, n + 1)) * (rng.random((n + 1, n + 1)) < 0.5), 1)
        a[:, 0] = 0.0  # the dust does not move
        a[np.arange(1, n + 1), np.arange(1, n + 1)] = -(ell @ a)[1:] / g.nodes  # l A = 0
        a *= rng.uniform(0.1, 10.0)
        sigma = -np.diagonal(a).min()
        assume(sigma > 0)
        gen = DiscreteGenerator(grid=g, matrix=a)
        weight = Weight.power(p)
        dt = stiffness / sigma
        traj = simulate(rng.uniform(0.0, 1.0, n), gen, (steps + tail) * dt, dt,
                        scheme="rk4", weight=weight)
        assert _rk4_matrix(a, dt).min() >= 0
        assert traj.min_content >= 0
        total = traj.M1 + traj.dust_mass
        assert np.max(np.abs(total - total[0])) <= 1e-12 * total[0]
        if column_kappa(gen, weight) <= 1:
            assert np.all(np.diff(traj.norm_omega) <= 1e-12 * traj.norm_omega[:-1])

    def test_one_matrix_build_per_run(self, monkeypatch):
        builds = []
        real = simulator._rk4_matrix
        monkeypatch.setattr(simulator, "_rk4_matrix",
                            lambda a, dt: builds.append(dt) or real(a, dt))
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 4.0)
        dt = 2.0**-10
        traj = simulate(u0, gen, (2 * _IE_CHUNK + 1) * dt, dt, scheme="rk4")  # three chunks
        assert builds == [dt] and traj.times.size == 2 * _IE_CHUNK + 2
        builds.clear()
        simulate(u0, gen, 0.25, 0.1, scheme="rk4")  # a short last step builds its own R
        assert builds == [0.1, 0.25 - 0.2]

    def test_short_last_step_is_the_stage_form(self):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 4.0)
        two = simulate(u0, gen, 0.2, 0.1, scheme="rk4").final
        want = _stage_form(gen.matrix, np.append(two.dust_mass, g.weights * two.u), 0.25 - 0.2)
        traj = simulate(u0, gen, 0.25, 0.1, scheme="rk4")
        np.testing.assert_allclose(traj.final.u, want[1:] / g.weights, rtol=1e-12)
        np.testing.assert_allclose(traj.final.dust_mass, want[0], rtol=1e-12)
        assert traj.min_content <= want[1:].min()

    def test_stiff_short_last_step_builds_its_own_matrix(self):
        # dt a = 2^20: the full step is R(hA)^(2^20) and the short last step,
        # of dt / 2, R(hA)^(2^19), both at h = 1, the dense stage form's powers;
        # taken as 2^19 substeps on the vector, the last step took about 20 s
        g = Grid.geometric(0.1, 5.0, 24)
        gen = discretize(HOM0, RateFunction.constant(1.0), g)
        u0, dt = bump(g, 0.5, 4.0), 2.0**20
        r = _stage_form(gen.matrix, np.eye(g.n + 1), 1.0)
        v1 = np.linalg.matrix_power(r, 2**20) @ np.append(0.0, g.weights * u0)
        v2 = np.linalg.matrix_power(r, 2**19) @ v1
        for t_end, want in ((dt, v1), (1.5 * dt, v2)):
            traj = simulate(u0, gen, t_end, dt, scheme="rk4")
            got = np.append(traj.final.dust_mass, g.weights * traj.final.u)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
            assert traj.min_content >= 0

    def test_holds_one_step_matrix(self):
        # numpy reports its buffers to tracemalloc; R(dt A) is one more
        # (N + 1)^2 array, and its build holds two; three chunks, the last of one step
        g = Grid.geometric(1e-4, 20.0, 2048)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 10.0)
        n_steps, dt = 2 * _IE_CHUNK + 1, 2.0**-10
        tracemalloc.start()
        try:
            traj = simulate(u0, gen, n_steps * dt, dt, scheme="rk4")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == n_steps + 1
        assert peak < 2.25 * gen.matrix.nbytes
