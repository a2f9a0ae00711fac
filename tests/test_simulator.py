"""Discretization and time stepping: conservation, positivity, oracle agreement."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_triangular

from fragkit import kernels, simulator
from fragkit.errors import FragkitError, InvalidInputError
from fragkit.kernels import FragmentKernel, RateFunction, eval_rate
from fragkit.simulator import (_ASSEMBLY_BLOCK, _IE_BLOCK, _IE_CHUNK, _IE_LEAF, DensityState,
                               DiscreteGenerator, Grid, _ie_factors, _implicit_euler, _rk4,
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
    parent size, each entry a_j (M(e_{i+1}) - M(e_i)) / x_i: the reference a
    custom kernel's assembly equals bit for bit, and a built-in kernel's
    band assembly to 1e-12 relative."""
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
CUSTOM = FragmentKernel.custom(lambda x, y: x / y**2)
_SQRT2 = np.sqrt(2.0)
# each built-in family and a custom kernel with the same b and breakpoints
CLONES = {
    "homogeneous": (FragmentKernel.homogeneous_power(-0.5),
                    FragmentKernel.custom(lambda x, y: 1.5 * x**-0.5 / y**0.5)),
    "boundary_binary": (FragmentKernel.boundary_binary(), FragmentKernel.custom(
        lambda x, y: np.where(y > 2.0, np.where((x <= 1.0) | (x >= y - 1.0), 1.0, 0.0), 2.0 / y),
        breakpoints=lambda y: (1.0, y - 1.0) if y > 2.0 else ())),
    "concentrated": (FragmentKernel.concentrated(), FragmentKernel.custom(
        lambda x, y: np.where(y > _SQRT2, np.where((x <= 1.0 / y) | (x >= y - 1.0 / y), y, 0.0),
                              2.0 / y),
        breakpoints=lambda y: (1.0 / y, y - 1.0 / y) if y > _SQRT2 else ())),
}


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
        # a float n raised a bare TypeError in geomspace, even a whole one
        for n in (4.5, 4.0):
            with pytest.raises(InvalidInputError, match="integer"):
                Grid.geometric(0.1, 1.0, n)

    @pytest.mark.parametrize("x_max", [np.inf, np.nan], ids=["inf", "nan"])
    def test_x_max_not_finite_rejected(self, x_max):
        # an infinite x_max built NaN nodes, with RuntimeWarnings from geomspace
        with pytest.raises(InvalidInputError, match="x_max < inf"):
            Grid.geometric(1e-4, x_max, 8)


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
        # the grid crosses y = sqrt(2) and y = 2, where the closed forms switch; the
        # bottom band's cells are c0 / (q + 2) times a difference of powers of the
        # edges, the per-column reference a difference of two such products, so the
        # two agree to rounding, on the same nonzero pattern
        kern = FragmentKernel.homogeneous_power(nu) if family == "homogeneous_power" \
            else getattr(FragmentKernel, family)()
        g = Grid.geometric(x_min, x_max, n)
        got = discretize(kern, rate, g).matrix
        ref = _per_column_matrix(kern, rate, g)
        assert np.array_equal(got != 0, ref != 0)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        assert np.all(np.tril(got, -1) == 0)

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    @pytest.mark.parametrize("x_min, x_max", [(1e-3, 20.0), (0.3, 5.0)])
    def test_band_assembly_against_exact_arithmetic(self, nu, x_min, x_max):
        # at nu = 0 and -1, M(s; y) is s^2 / y and s, so with a = x every entry has an
        # exact rational value on the float grid: the band assembly errs no more than
        # the per-column one (nu = 0: 1.5e-15 and 4.0e-15 there, 1.1e-15 and 1.9e-15 here)
        g = Grid.geometric(x_min, x_max, 64)
        x = [Fraction(v) for v in g.nodes]
        e = [Fraction(v) for v in g.edges]

        def mass(s, y):
            return s * s / y if nu == 0.0 else s

        exact = np.zeros((g.n + 1, g.n + 1), dtype=object)
        for j in range(g.n):
            ends = e[:j] + [x[j]]
            exact[0, j + 1] = x[j] * mass(ends[0], x[j])
            for i in range(j):
                exact[i + 1, j + 1] = x[j] * (mass(ends[i + 1], x[j]) - mass(ends[i], x[j])) / x[i]
            exact[j + 1, j + 1] = -x[j]

        def worst(matrix):
            nonzero = exact != 0
            assert np.array_equal(matrix != 0, nonzero)
            return max(abs(Fraction(v) - r) / abs(r)
                       for v, r in zip(matrix[nonzero], exact[nonzero]))

        kern = FragmentKernel.homogeneous_power(nu)
        got = worst(discretize(kern, RATE_X, g).matrix)
        assert got <= worst(_per_column_matrix(kern, RATE_X, g))

    @pytest.mark.parametrize("kern", [FragmentKernel.homogeneous_power(-0.7),
                                      FragmentKernel.boundary_binary(),
                                      FragmentKernel.concentrated(), CUSTOM],
                             ids=["homogeneous", "boundary_binary", "concentrated", "custom"])
    def test_band_assembly_does_not_depend_on_the_block_width(self, monkeypatch, kern):
        # the width sets the rows per outer product and the points per mass_partial
        # call: at width 1 a custom kernel takes one call per column or two
        g = Grid.geometric(1e-2, 30.0, 2 * _ASSEMBLY_BLOCK + 5)
        ref = discretize(kern, RATE_ZERO_HEAD, g).matrix
        for width in (1, 7, 32, g.n + 3):
            monkeypatch.setattr(simulator, "_ASSEMBLY_BLOCK", width)
            assert np.array_equal(discretize(kern, RATE_ZERO_HEAD, g).matrix, ref), width

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_blocked_assembly_is_the_per_column_one_custom(self, n):
        g = Grid.geometric(1e-2, 10.0, n)
        gen = discretize(CUSTOM, RATE_ZERO_HEAD, g)
        assert np.array_equal(gen.matrix, _per_column_matrix(CUSTOM, RATE_ZERO_HEAD, g))
        assert np.all(np.tril(gen.matrix, -1) == 0)

    @pytest.mark.parametrize("family", ["homogeneous", "boundary_binary", "concentrated"])
    @pytest.mark.parametrize("x_min, x_max, n", [(1e-2, 30.0, 2 * _ASSEMBLY_BLOCK + 5),
                                                 (1e-3, 20.0, 256)])
    def test_custom_clone_assembles_to_the_built_in_matrix(self, family, x_min, x_max, n):
        # the same b, once from its band table and once as a custom kernel with its
        # breakpoints: one assembly rule, so the same cells, and entries within the
        # quadrature's accuracy (worst measured 4.0e-13, concentrated at N = 256,
        # whose top band [y - 1/y, y] is narrow; 8e-15 for the other two)
        built_in, clone = CLONES[family]
        g = Grid.geometric(x_min, x_max, n)
        want = discretize(built_in, RATE_X, g).matrix
        got = discretize(clone, RATE_X, g).matrix
        assert np.array_equal(got != 0, want != 0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("custom", [False, True], ids=["closed_form", "custom"])
    def test_mass_partial_called_once_per_block(self, monkeypatch, custom):
        # each call takes the whole columns that begin in one stretch of
        # _ASSEMBLY_BLOCK * N / 2 points.  A built-in kernel: one call per matrix,
        # however many blocks, on O(N) points, never the N^2/2 edges below each
        # node.  A custom kernel: column j is the j + 1 points 0..j, the first edge
        # being the first node gives the mass below the grid, and each call runs one
        # batched quadrature, whose rows are the parent sizes of its columns
        calls, sizes, rows, seen = [], [], [], []
        real, real_rows = FragmentKernel.mass_partial, kernels._log_integrate_rows

        def b(x, y):
            seen.append(np.ravel(y))
            return x / y**2

        def counting(self, s, y):
            calls.append(np.asarray(y))
            sizes.append(np.broadcast(s, y).size)
            return real(self, s, y)

        def counting_rows(factor, log_weight, spans):
            seen.clear()
            out = real_rows(factor, log_weight, spans)
            rows.append(np.unique(np.concatenate(seen)).tolist())
            return out

        monkeypatch.setattr(FragmentKernel, "mass_partial", counting)
        monkeypatch.setattr(kernels, "_log_integrate_rows", counting_rows)
        if not custom:
            for n in (2 * _ASSEMBLY_BLOCK + 3, 8 * _ASSEMBLY_BLOCK + 3):
                calls.clear()
                sizes.clear()
                discretize(HOM0, RATE_X, Grid.geometric(1e-2, 10.0, n))
                assert len(calls) == 1  # 3 blocks, then 9
                assert sum(sizes) <= 3 * n  # the dust and the cell below each node
            assert rows == []
            return
        g = Grid.geometric(1e-2, 10.0, 2 * _ASSEMBLY_BLOCK + 3)
        discretize(FragmentKernel.custom(b), RATE_X, g)
        budget = _ASSEMBLY_BLOCK * g.n // 2
        assert len(calls) == math.ceil(g.n * (g.n + 1) / 2 / budget) == 3
        columns = [np.unique(y, return_counts=True) for y in calls]
        assert np.concatenate([ys for ys, _ in columns]).tolist() == g.nodes.tolist()
        for (ys, counts), size in zip(columns, sizes):
            assert np.array_equal(counts, np.searchsorted(g.nodes, ys) + 1)  # whole columns
            assert size - counts[-1] < budget
        assert rows == [ys.tolist() for ys, _ in columns]

    @pytest.mark.parametrize("kern", [HOM0, FragmentKernel.boundary_binary(),
                                      FragmentKernel.concentrated(), CUSTOM],
                             ids=["homogeneous", "boundary_binary", "concentrated", "custom"])
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

        for name in ("_ie_factors", "_rk4_matrix", "_sweep"):
            monkeypatch.setattr(simulator, name, no_step)
        with pytest.raises(InvalidInputError):
            simulate(DensityState(grid=g, u=bump(g, 1.0, 2.0), t=t0), gen, t_end, dt,
                     scheme=scheme)

    def test_one_factor_build_per_run(self, monkeypatch):
        # 0.2 / 2e-3 is 100 to rounding: the run takes 100 steps of dt itself
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

    def test_a_span_off_the_dt_grid_takes_equal_steps(self, monkeypatch):
        # 0.25 / 0.1 is 2.5: three equal steps of 0.25 / 3, on one set of factors,
        # where a short last step of 0.05 used to build a second set
        builds = []
        real = simulator._ie_factors
        monkeypatch.setattr(simulator, "_ie_factors",
                            lambda a, dt: builds.append(dt) or real(a, dt))
        g = Grid.geometric(0.1, 10.0, 32)
        gen = discretize(FragmentKernel.zero(), RATE_X, g)
        u0 = exp_decay(g, 2.0)
        traj = simulate(u0, gen, 0.25, 0.1)
        assert builds == [0.25 / 3]
        np.testing.assert_allclose(traj.times, [0.0, 0.25 / 3, 0.5 / 3, 0.25], rtol=1e-15)
        assert traj.times[-1] == 0.25
        np.testing.assert_allclose(traj.final.u, u0 / (1.0 + 0.25 / 3 * g.nodes) ** 3,
                                   rtol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from(["implicit_euler", "rk4"]), t0=st.floats(0.0, 10.0),
           steps=st.floats(0.01, 2.5 * _IE_CHUNK), dt=st.floats(1e-3, 1.0))
    def test_equal_steps_end_at_t_end(self, scheme, t0, steps, dt):
        # any span: one operator build, equal steps of at most dt that end at
        # t_end, and for implicit Euler the dense (I - h A)^-n v
        t_end = t0 + steps * dt
        assume(t_end > t0)
        g = Grid.geometric(0.1, 5.0, 12)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 4.0)
        builds = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_ie_factors", "_rk4_matrix"):
                real = getattr(simulator, name)
                mp.setattr(simulator, name,
                           lambda a, h, real=real: builds.append(h) or real(a, h))
            traj = simulate(DensityState(grid=g, u=u0, t=t0), gen, t_end, dt, scheme=scheme)
        n = traj.times.size - 1
        assert n == math.ceil((t_end - t0) / dt - 1e-12)
        assert len(builds) == 1
        h = builds[0]
        assert h <= dt * (1.0 + 1e-12)
        assert np.all(np.diff(traj.times) > 0) and traj.times[-1] == t_end
        np.testing.assert_allclose(traj.times[:-1], t0 + np.arange(n) * h, rtol=1e-15)
        np.testing.assert_allclose(np.diff(traj.times), h, rtol=1e-8)
        if scheme == "implicit_euler":
            v = np.append(0.0, g.weights * u0)
            for _ in range(n):
                v = np.linalg.solve(np.eye(g.n + 1) - h * gen.matrix, v)
            got = np.append(traj.final.dust_mass, g.weights * traj.final.u)
            np.testing.assert_allclose(got, v, rtol=0, atol=1e-12 * np.abs(v).max())

    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    def test_a_run_of_no_length_takes_no_step(self, scheme):
        # at t0 = 1e6, t0 - 1e-10 rounds 16% away from 1e-10: the last step of
        # this run of no steps once came out "short", and was taken at t = t0
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
        # a span of 2 _IE_CHUNK + 2.5 steps: 2 _IE_CHUNK + 3 equal steps in
        # three chunks, none of whose edges may drop or repeat a sample; the
        # last step is a multiple of 7 but not of 10
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
        (128, FragmentKernel.custom(lambda x, y: 3.0 / y + 0.0 * x), 0.5, 1),
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

    def test_overflowing_power_raises(self):
        # a finite generator whose powers overflow: sigma t = 200 is one hop,
        # and P^k v doubles in l with every power, so A P^k v leaves the
        # double range after a few of them; the sweep's check refuses it
        g = Grid.geometric(0.1, 5.0, 16)
        gen = _gain_scaled(discretize(HOM0, RateFunction.constant(1e-4), g), 1e306)
        with np.errstate(all="ignore"):
            with pytest.raises(FragkitError, match="the oracle produced a non-finite value") as err:
                expm_oracle(gen, 1e-300, bump(g, 1.0, 4.0))
        assert not isinstance(err.value, InvalidInputError)

    def test_zero_time_returns_the_state(self):
        # t = 0 stops the series at K = 0, so the hop takes no power: the
        # state comes back as it went in, up to the cell-content round trip
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = np.random.default_rng(7).uniform(0.0, 1.0, g.n)
        st = expm_oracle(gen, 0.0, DensityState(grid=g, u=u0, t=0.3, dust_mass=0.7))
        assert np.array_equal(st.u, g.weights * u0 / g.weights)
        assert (st.t, st.dust_mass) == (0.3, 0.7)
        bumped = bump(g, 1.0, 4.0)  # 0 and 1 survive the round trip exactly
        assert np.array_equal(expm_oracle(gen, 0.0, bumped).u, bumped)

    def test_holds_no_copy_of_the_generator(self):
        # numpy reports its buffers to tracemalloc; the checks read A through
        # views and the series holds a chunk of powers and a few vectors
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
        # fragkit runs on numpy alone: importing scipy's linalg and special
        # modules costs about a third of a second and 30 MB and loads a second
        # BLAS with its own threads, and scipy.sparse.linalg's norm estimates
        # draw from numpy's global random stream
        code = ("import sys\n"
                "import fragkit\n"
                "from fragkit.kernels import FragmentKernel, RateFunction\n"
                "from fragkit.simulator import Grid, bump, discretize, expm_oracle, semigroup_check\n"
                "from fragkit.simulator import simulate\n"
                "from fragkit.weights import Weight, compare_weights\n"
                "g = Grid.geometric(0.1, 5.0, 16)\n"
                "gen = discretize(FragmentKernel.homogeneous_power(0.0), RateFunction.power(1.0), g)\n"
                "expm_oracle(gen, 0.5, bump(g, 0.5, 2.0))\n"
                "semigroup_check(gen, bump(g, 0.5, 2.0), 0.3, 0.2, scheme='expm')\n"
                "simulate(bump(g, 0.5, 2.0), gen, 0.1, 0.01, scheme='implicit_euler')\n"
                "simulate(bump(g, 0.5, 2.0), gen, 0.1, 0.01, scheme='rk4')\n"
                "compare_weights(Weight.power(1.0), Weight.power_shifted(2.0),\n"
                "                FragmentKernel.homogeneous_power(0.0), g.nodes, [2.0])\n"
                "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
                "assert not loaded, loaded\n")
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
    def test_unknown_scheme_names_every_scheme(self):
        # the message came from simulate, and left out expm
        g = Grid.geometric(0.05, 3.0, 32)
        gen = discretize(HOM0, RATE_X, g)
        with pytest.raises(InvalidInputError, match="use implicit_euler, rk4 or expm$"):
            semigroup_check(gen, bump(g, 0.2, 1.5), 0.3, 0.2, scheme="leapfrog")
        with pytest.raises(InvalidInputError, match="use implicit_euler or rk4$"):
            simulate(bump(g, 0.2, 1.5), gen, 0.3, 0.1, scheme="expm")

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


class TestNormWeight:
    """A norm weight past the double range on the grid is refused, naming the
    first node where it is: its norm column was NaN, and column_kappa NaN."""

    def test_overflowing_norm_weight_rejected(self):
        g = Grid.geometric(1e-4, 40.0, 64)
        gen = discretize(HOM0, RATE_X, g)
        w = Weight.super_exponential()  # x e^(x^2) overflows past x ~ 26.6
        first = g.nodes[~np.isfinite(w.eval(g.nodes))][0]
        u0 = bump(g, 1.0, 10.0)
        calls = [lambda: column_kappa(gen, w),
                 lambda: simulate(u0, gen, 0.01, 1e-3, weight=w),
                 lambda: simulate(u0, gen, 0.01, 1e-3, scheme="rk4", weight=w),
                 lambda: semigroup_check(gen, u0, 0.01, 0.01, weight=w),
                 lambda: semigroup_check(gen, u0, 0.01, 0.01, scheme="expm", weight=w)]
        for call in calls:
            with pytest.raises(InvalidInputError, match=f"at the node x = {float(first)!r};"):
                call()


class TestFiniteness:
    """The implicit-Euler matrix is checked once per run and the initial state
    once; the steps themselves, products with the blocks' inverses, check
    nothing until the sweep's check of each chunk."""

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [(6, 8), (2, 15)], ids=["diagonal_block", "coupling"])
    def test_non_finite_entry_implicit_euler_reads_raises(self, monkeypatch, bad, at):
        # with 4-row blocks the 17 rows are cut at 0, 5, 9, 13, 17: (6, 8) is in the
        # diagonal block of rows 5:9, (2, 15) in the coupling of rows 0:5 to those below
        monkeypatch.setattr(simulator, "_IE_BLOCK", 4)
        assert simulator._cuts(17) == [0, 5, 9, 13, 17]
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        matrix = gen.matrix.copy()
        matrix[at] = bad
        gen = dataclasses.replace(gen, matrix=matrix)
        with pytest.raises(FragkitError, match="matrix I - dt A has a non-finite"):
            simulate(bump(g, 0.5, 4.0), gen, 0.1, 0.01, scheme="implicit_euler")

    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_density_rejected_before_stepping(self, monkeypatch, scheme, bad):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 4.0)
        u0[5] = bad

        def no_step(*args, **kwargs):
            raise AssertionError("stepped a non-finite state")

        for name in ("_ie_factors", "_rk4_matrix", "_sweep"):
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

    def test_overflowing_dust_raises(self):
        # a huge dust flux overflows the dust alone while every cell stays
        # finite; the run used to end with an infinite dust_mass
        g = Grid.geometric(0.1, 5.0, 16)
        matrix = discretize(HOM0, RATE_X, g).matrix.copy()
        matrix[0, 1:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FragkitError, match="implicit Euler produced a non-finite"):
                simulate(bump(g, 0.1, 5.0), DiscreteGenerator(grid=g, matrix=matrix), 1.0, 0.5)

    @pytest.mark.parametrize("dt, t_end, every", [(0.0, 0.1, 1), (-0.01, 0.1, 1),
                                                  (np.inf, 0.1, 1), (np.nan, 0.1, 1),
                                                  (0.01, np.nan, 1), (0.01, 0.1, 0)])
    def test_bad_step_parameters_are_toolkit_errors(self, dt, t_end, every):
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        with pytest.raises(FragkitError):
            simulate(bump(g, 0.5, 4.0), gen, t_end, dt, sample_every=every)


class TestContinuum:
    """The generator against the continuum equation, not only against its own exponential.

    Ziff & McGrady's exact solutions for uniform binary breakup, b = 2/y
    (``homogeneous_power(0)``), from u0 = e^{-x} (J. Phys. A 18, 1985, 3027):
    ``a = x`` gives (1 + t)^2 e^{-x(1+t)} and ``a = x^2`` gives
    (1 + 2t(1 + x)) e^{-x - t x^2}.  The error is sum_i w_i x_i |u_i - u(x_i, 1)|.
    """

    EXACT = {1.0: lambda x, t: (1.0 + t) ** 2 * np.exp(-x * (1.0 + t)),
             2.0: lambda x, t: (1.0 + 2.0 * t * (1.0 + x)) * np.exp(-x - t * x * x)}

    def error(self, alpha, n):
        grid = Grid.geometric(1e-6, 40.0, n)
        gen = discretize(HOM0, RateFunction.power(alpha), grid)
        u = expm_oracle(gen, 1.0, np.exp(-grid.nodes)).u
        return float(np.sum(grid.weights * grid.nodes * np.abs(u - self.EXACT[alpha](grid.nodes, 1.0))))

    # measured at N = 512: 1.31e-3 (a = x) and 1.15e-3 (a = x^2), from 5.2e-3 and
    # 4.6e-3 at N = 256, an order of 1.98 and 2.01
    @pytest.mark.parametrize("alpha, bound", [(1.0, 1.5e-3), (2.0, 1.3e-3)])
    def test_second_order_in_the_log_spacing(self, alpha, bound):
        coarse, fine = self.error(alpha, 256), self.error(alpha, 512)
        assert math.log2(coarse / fine) >= 1.9
        assert fine <= bound


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
        _implicit_euler(a, 1.0)(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 1)


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
        got, low = _implicit_euler(a, dt)(v0, m)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert low >= 0

    @settings(max_examples=40, deadline=None)
    @given(size=st.sampled_from([1, _IE_LEAF - 1, _IE_LEAF, _IE_LEAF + 1, 63, 64, 65,
                                 _IE_BLOCK, _IE_BLOCK + 1, 2 * _IE_BLOCK - 1]),
           seed=st.integers(0, 2**32 - 1), dt=st.floats(1e-4, 10.0))
    def test_factors_are_non_negative_inverses(self, size, seed, dt):
        # the generator of test_matches_repeated_triangular_solves: each block
        # of I - dt A is an upper-triangular M-matrix, whose inverse, built by
        # halves, has no negative entry and nothing below its diagonal
        rng = np.random.default_rng(seed)
        a = np.triu(rng.uniform(0.0, 1.0, (size, size)), 1) / size
        a[np.diag_indices(size)] = -rng.uniform(0.0, 2.0, size)
        cuts = simulator._cuts(size)
        factors = _ie_factors(a, dt)
        assert len(factors) == len(cuts) - 1
        for (lo, hi), x in zip(zip(cuts, cuts[1:]), factors):
            assert x.shape == (hi - lo, hi - lo)
            assert x.min() >= 0
            assert not np.tril(x, -1).any()
            np.testing.assert_allclose((np.eye(hi - lo) - dt * a[lo:hi, lo:hi]) @ x,
                                       np.eye(hi - lo), rtol=0, atol=1e-12)

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
    """rk4 applies R(h A), built once per run, by the implicit-Euler sweep."""

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
        got, low = _rk4(a, dt)(v0, m)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(low, want[:, 1:].min(initial=np.inf), rtol=1e-12)

    @pytest.mark.parametrize("level, k", [(40.0, 1), (60.0, 2)])
    def test_stiff_steps_are_stage_form_substeps(self, level, k):
        # 20.5 steps of dt are 21 equal steps of h = 20.5 dt / 21, with h a
        # about 1.95 and 2.93: each is 2^k stage-form substeps of h / 2^k, the
        # fewest with h a / 2^k <= 1; the stage form at h itself goes negative
        g = Grid.geometric(0.1, 5.0, 24)
        gen = discretize(HOM0, RateFunction.constant(level), g)
        u0, dt = bump(g, 0.5, 4.0), 0.05
        traj = simulate(u0, gen, 20.5 * dt, dt, scheme="rk4")
        h = 20.5 * dt / 21  # as simulate takes it
        assert 2 ** (k - 1) < h * level <= 2**k
        v = np.append(0.0, g.weights * u0)
        states = [v]
        for _ in range(21):
            for _ in range(2**k):
                v = _stage_form(gen.matrix, v, h / 2**k)
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
        got, low = _rk4(a, 0.5)(np.array([0.0, 0.0, 0.0, 1.0]), 6)
        np.testing.assert_array_equal(got[:, 1], 0.0)
        assert low == pytest.approx(-5e-15, rel=1e-12)

    def test_negative_off_diagonal_entry_is_a_toolkit_error(self):
        # only a hand-built generator with a negative gain can make R negative:
        # A[1, 2] = -1 moves content out of cell 1 that it does not have
        a = np.zeros((5, 5))
        a[1, 2] = -1.0
        a[2, 2] = -1.0
        with pytest.raises(FragkitError, match="rk4 produced a substantive negative"):
            _rk4(a, 0.5)(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 1)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 40), seed=st.integers(0, 2**32 - 1),
           stiffness=st.floats(1e-4, 20.0), steps=st.integers(1, 4),
           tail=st.sampled_from([0.0, 0.3, 0.9]), p=st.floats(0.0, 2.0))
    def test_positive_conservative_and_contractive(self, n, seed, stiffness, steps, tail, p):
        # R = sum_k c_k B^k with c_k >= 0 and sum_k c_k = 1, and B = I + hA has
        # no negative entry: on a random conservative upper-triangular Metzler
        # generator, at dt max_j a_j = stiffness, rk4 makes no negative at all,
        # keeps M1 + dust, and keeps the weighted norm from growing when the
        # columns satisfy kappa <= 1; tail > 0 takes equal steps shorter than dt
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
        simulate(u0, gen, 0.25, 0.1, scheme="rk4")  # three equal steps, one R
        assert builds == [0.25 / 3]

    def test_equal_steps_are_the_stage_form(self):
        # 0.25 / 0.1 is 2.5: three stage-form steps of 0.25 / 3
        g = Grid.geometric(0.1, 5.0, 16)
        gen = discretize(HOM0, RATE_X, g)
        u0 = bump(g, 0.5, 4.0)
        want = np.append(0.0, g.weights * u0)
        lows = []
        for _ in range(3):
            want = _stage_form(gen.matrix, want, 0.25 / 3)
            lows.append(want[1:].min())
        traj = simulate(u0, gen, 0.25, 0.1, scheme="rk4")
        np.testing.assert_allclose(traj.final.u, want[1:] / g.weights, rtol=1e-12)
        np.testing.assert_allclose(traj.final.dust_mass, want[0], rtol=1e-12)
        assert traj.min_content <= min(lows)

    def test_stiff_span_off_the_dt_grid_builds_one_matrix(self, monkeypatch):
        # dt a = 2^20: a span of dt is one step R(hA)^(2^20) at h = 1, and a
        # span of 1.5 dt two equal steps of 0.75 dt, each R(0.75 A)^(2^20),
        # from one R; both are the dense stage form's powers
        builds = []
        real = simulator._rk4_matrix
        monkeypatch.setattr(simulator, "_rk4_matrix",
                            lambda a, h: builds.append(h) or real(a, h))
        g = Grid.geometric(0.1, 5.0, 24)
        gen = discretize(HOM0, RateFunction.constant(1.0), g)
        u0, dt = bump(g, 0.5, 4.0), 2.0**20
        v = np.append(0.0, g.weights * u0)
        for t_end, h, n in ((dt, dt, 1), (1.5 * dt, 0.75 * dt, 2)):
            r = np.linalg.matrix_power(_stage_form(gen.matrix, np.eye(g.n + 1), h / dt), 2**20)
            want = np.linalg.matrix_power(r, n) @ v
            builds.clear()
            traj = simulate(u0, gen, t_end, dt, scheme="rk4")
            assert builds == [h]
            np.testing.assert_array_equal(traj.times, h * np.arange(n + 1))
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
