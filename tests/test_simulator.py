"""Discretization and time stepping: conservation, positivity, oracle agreement."""

import numpy as np
import pytest

from fragkit.errors import FragkitError, StiffnessError
from fragkit.kernels import FragmentKernel, RateFunction
from fragkit.simulator import (DensityState, DiscreteGenerator, Grid, _ie_step, bump,
                               column_kappa, discretize, exp_decay, expm_oracle,
                               semigroup_check, simulate, step)
from fragkit.weights import Weight

HOM0 = FragmentKernel.homogeneous_power(0.0)
RATE_X = RateFunction.power(1.0)


def _wnorm(grid, u, weight):
    return float(np.abs(weight.eval(grid.nodes) * grid.weights * u).sum())


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


class TestDiscretize:
    def test_zero_kernel_is_pure_decay(self):
        g = Grid.geometric(0.1, 10.0, 32)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        assert np.all(gen.gain == 0)
        assert np.all(gen.dust == 0)
        np.testing.assert_allclose(gen.loss, g.nodes)

    def test_gain_strictly_triangular_and_nonnegative(self):
        g = Grid.geometric(0.01, 10.0, 64)
        gen = discretize(HOM0, RATE_X, g)
        assert np.all(gen.gain >= 0)
        assert np.all(np.tril(gen.gain) == 0)  # receivers strictly below parents
        assert np.all(gen.dust >= 0)

    def test_column_mass_identity(self):
        # spec tolerance 1e-3 on N=256 over [1e-3, 20]; the mass-allocated
        # assembly closes it to quadrature precision
        g = Grid.geometric(1e-3, 20.0, 256)
        x = g.nodes
        for kern in (HOM0, FragmentKernel.homogeneous_power(-0.5),
                     FragmentKernel.boundary_binary()):
            gen = discretize(kern, RATE_X, g)
            act = gen.loss > 0
            col = (x @ gen.gain)[act] / gen.loss[act] + gen.dust[act] / gen.loss[act]
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
            assert np.all(gen.gain[inside, j] == 0.0)

    def test_column_kappa_mass_weight(self):
        g = Grid.geometric(1e-3, 20.0, 256)
        gen = discretize(HOM0, RATE_X, g)
        assert column_kappa(gen, Weight.power(1.0)) <= 1.0 + 1e-12

    def test_custom_kernel_batched_column_mass(self):
        # m(y) = y/3 for b = x/y^2; the generic cumulative-quadrature path
        # must close the column identity against it
        kern = FragmentKernel.custom(lambda x, y: x / y**2)
        g = Grid.geometric(1e-2, 10.0, 96)
        gen = discretize(kern, RATE_X, g)
        x = g.nodes
        act = gen.loss > 0
        col = (x @ gen.gain)[act] / gen.loss[act] + gen.dust[act] / gen.loss[act]
        np.testing.assert_allclose(col, x[act] / 3.0, rtol=1e-8)


class TestStep:
    def test_zero_dt_is_identity(self):
        g = Grid.geometric(0.1, 10.0, 32)
        gen = discretize(HOM0, RATE_X, g)
        st = DensityState(grid=g, u=bump(g, 1.0, 5.0))
        assert step(st, gen, 0.0) is st

    def test_pure_decay_implicit_euler_formula(self):
        g = Grid.geometric(0.1, 10.0, 48)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        u0 = exp_decay(g, 2.0)
        st = step(DensityState(grid=g, u=u0), gen, 0.25)
        np.testing.assert_allclose(st.u, u0 / (1.0 + g.nodes * 0.25), rtol=1e-13)

    def test_implicit_euler_positivity(self):
        g = Grid.geometric(1e-3, 20.0, 128)
        gen = discretize(HOM0, RateFunction.power(2.0), g)
        st = DensityState(grid=g, u=bump(g, 5.0, 15.0))
        for _ in range(20):
            st = step(st, gen, 0.05)
            assert np.all(st.u >= 0)

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
            step(DensityState(grid=g, u=bump(g, 1.0, 2.0)), gen, 0.1, scheme="leapfrog")


class TestSimulate:
    def test_number_decay_with_zero_kernel(self):
        g = Grid.geometric(0.1, 10.0, 64)
        gen = discretize(FragmentKernel.zero(), RateFunction.constant(1.0), g)
        u0 = exp_decay(g, 1.0)
        traj = simulate(u0, gen, 1.0, 1e-3, sample_every=100)
        expected = traj.M0[0] * np.exp(-traj.times)
        np.testing.assert_allclose(traj.M0, expected, rtol=1e-3)

    def test_conservation_with_dust(self):
        g = Grid.geometric(1e-4, 20.0, 512)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 10.0)
        traj = simulate(u0, gen, 1.0, 2e-3, weight=Weight.power(1.0), sample_every=50)
        total = traj.M1 + traj.dust_mass
        assert np.max(np.abs(total - total[0]) / total[0]) < 1e-3
        assert np.all(np.diff(traj.dust_mass) >= 0)

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
        gen = DiscreteGenerator(grid=g, loss=np.zeros(16), gain=np.zeros((16, 16)),
                                dust=np.zeros(16))
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
        gain = np.triu(rng.uniform(0.0, 0.5, size=(24, 24)), k=1)
        gen = DiscreteGenerator(grid=g, loss=rng.uniform(0.2, 2.0, size=24),
                                gain=gain, dust=np.zeros(24))
        u0 = rng.uniform(0.0, 1.0, size=24)
        one = expm_oracle(gen, 0.5, u0)
        two = expm_oracle(gen, 0.3, expm_oracle(gen, 0.2, u0))
        np.testing.assert_allclose(one.u, two.u, rtol=1e-9, atol=1e-12)

    def test_refuses_large_systems(self):
        g = Grid.geometric(0.1, 5.0, 513)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        with pytest.raises(ValueError):
            expm_oracle(gen, 1.0, exp_decay(g, 1.0))

    def test_oracle_mass_closure(self):
        g = Grid.geometric(1e-3, 10.0, 128)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 1.0, 5.0)
        st = expm_oracle(gen, 0.5, u0)
        m1_before = float((g.nodes * g.weights * u0).sum())
        m1_after = float((g.nodes * g.weights * st.u).sum()) + st.dust_mass
        np.testing.assert_allclose(m1_after, m1_before, rtol=1e-10)


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


class TestStiffness:
    def test_rk4_halving_or_stiffness_error(self):
        # strongly stiff loss with gain: rk4 at a huge step either recovers by
        # internal halving (still positive) or raises the stiffness error
        g = Grid.geometric(0.1, 5.0, 24)
        gen = discretize(HOM0, RateFunction.constant(500.0), g)
        st = DensityState(grid=g, u=bump(g, 0.5, 4.0))
        try:
            out = step(st, gen, 1.0, scheme="rk4")
            assert np.all(out.u >= 0)
        except StiffnessError:
            pass


def test_negative_implicit_euler_step_is_a_toolkit_error():
    # a hand-built upper-triangular matrix whose solve goes negative: the
    # leading block [[1, 1], [0, 1]] x = [0, 1] gives x = [-1, 1].  The CLI maps
    # FragkitError to an exit code; a bare RuntimeError escaped as a traceback.
    gen = discretize(HOM0, RATE_X, Grid.geometric(0.1, 1.0, 4))
    matrix = np.eye(4)
    matrix[0, 1] = 1.0
    with pytest.raises(FragkitError):
        _ie_step(gen, np.array([0.0, 1.0, 0.0, 0.0]), 0.1, matrix=matrix)
