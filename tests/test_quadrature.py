"""Panel quadrature: accuracy, breakpoint handling, grading, log-space path."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import logsumexp

from fragkit.errors import QuadratureError
from fragkit.quadrature import (_BATCH_CELLS, _log_cell_values, _log_integrate_rows,
                                _panel_nodes, _segment_logsumexp, integrate, log_integrate)


def test_polynomial_is_exact():
    val, err = integrate(lambda x: 3 * x**2, 0.0, 2.0)
    np.testing.assert_allclose(val, 8.0, rtol=1e-13)


def test_empty_range_is_zero():
    assert integrate(lambda x: x, 2.0, 2.0) == (0.0, 0.0)
    lv, _ = log_integrate(lambda x: x, lambda x: 0.0 * x, 3.0, 1.0)
    assert lv == -np.inf


def test_matches_scipy_on_oscillatory():
    f = lambda x: (1.0 + np.sin(7 * x)) * np.exp(-x)
    ref, _ = quad(f, 0.0, 5.0)
    val, _ = integrate(f, 0.0, 5.0)
    np.testing.assert_allclose(val, ref, rtol=1e-10)


def test_breakpoint_restores_accuracy_on_step():
    f = lambda x: np.where(x < 1.0, 1.0, 0.0) + np.where(x >= 4.0, 1.0, 0.0)
    val, _ = integrate(f, 0.0, 5.0, breakpoints=(1.0, 4.0))
    np.testing.assert_allclose(val, 2.0, rtol=1e-12)


@pytest.mark.parametrize("sigma", [-0.5, -0.9, -1.5, -1.9])
def test_graded_endpoint_singularity(sigma):
    # int_0^1 x^sigma dx = 1/(sigma+1) for sigma > -1; shifted by +1 power below
    f = lambda x: x**(sigma + 1.0)
    val, _ = integrate(f, 0.0, 1.0, grade_lo=True)
    np.testing.assert_allclose(val, 1.0 / (sigma + 2.0), rtol=1e-8)


def test_log_integrate_matches_linear_when_safe():
    f = lambda x: 2.0 + np.sin(x)
    lw = lambda x: 0.3 * x
    lin, _ = quad(lambda x: f(x) * np.exp(lw(x)), 0.0, 4.0, epsabs=0.0, epsrel=1e-13)
    lv, _ = log_integrate(f, lw, 0.0, 4.0)
    np.testing.assert_allclose(np.exp(lv), lin, rtol=1e-10)


def test_log_integrate_survives_huge_weights():
    # int_9^10 e^{x^2} dx in log space; linear space would need e^100
    lv, _ = log_integrate(lambda x: np.ones_like(x), lambda x: x * x, 9.0, 10.0)
    ref = np.log(quad(lambda x: np.exp(x * x - 100.0), 9.0, 10.0)[0]) + 100.0
    np.testing.assert_allclose(lv, ref, rtol=1e-10)
    assert np.isfinite(lv)


def test_log_integrate_zero_factor_gives_minus_inf():
    lv, _ = log_integrate(lambda x: np.zeros_like(x), lambda x: x, 0.0, 1.0)
    assert lv == -np.inf


def test_dead_rows_give_minus_inf_beside_live_ones():
    # rows 0, 2, 4 have an all-zero factor; the others integrate e^x over [0, hi]
    spans = [(0.0, 1.0 + i, ()) for i in range(6)]
    total, failed = _log_integrate_rows(lambda x, i: np.where(i % 2, 1.0, 0.0) + 0.0 * x,
                                        lambda x: x, spans)
    assert not failed.any()
    assert np.all(total[::2] == -np.inf)
    np.testing.assert_allclose(total[1::2], np.log(np.expm1([2.0, 4.0, 6.0])), rtol=1e-14)


def test_integrate_rejects_negative_integrand():
    with pytest.raises(ValueError, match="non-negative"):
        integrate(lambda x: np.sin(x), 0.0, 5.0)


def test_cells_above_eps_of_the_total_are_still_refined():
    # the cell [1, 2] holds 1e-8 of the total and its 12 nodes cannot resolve
    # cos(60 x): it must be halved like any other cell until the total settles
    f = lambda x: np.where(x < 1.0, 1.0, 1e-8 * (1.0 + np.cos(60.0 * x)))
    lv, _ = log_integrate(f, lambda x: 0.0 * x, 0.0, 2.0, breakpoints=(1.0,))
    exact = 1.0 + 1e-8 * (1.0 + (np.sin(120.0) - np.sin(60.0)) / 60.0)
    assert abs(lv - np.log(exact)) <= 1e-15


def test_rows_that_outgrow_a_group_equal_one_row_calls_bit_for_bit():
    # 20 oscillating rows need thousands of cells each, so their group is split by
    # rows several times; a row is never split, and gives the bits of its own call
    factor = lambda x, i: 1.5 + np.cos((5.0 + 0.25 * i) * x)
    spans = [(0.0, 30.0 + 0.5 * i, (7.0,)) for i in range(20)]
    points = []
    lw = lambda x: (points.append(x.size), -0.1 * x)[1]
    total, failed = _log_integrate_rows(factor, lw, spans)
    assert not failed.any() and sum(points) > 24 * _BATCH_CELLS
    want = [log_integrate(lambda x, i=i: factor(x, i), lw, lo, hi, breakpoints=bps,
                          grade_lo=True)[0] for i, (lo, hi, bps) in enumerate(spans)]
    np.testing.assert_array_equal(total, want)


def test_nonconvergence_carries_partial_estimate():
    rng = np.random.default_rng(7)
    jitter = rng.uniform(0.5, 1.5, size=4096)

    def noisy(x):  # deliberately rough: never settles under refinement
        idx = (np.abs(x) * 1e7).astype(int) % jitter.size
        return jitter[idx]

    with pytest.raises(QuadratureError) as exc:
        integrate(noisy, 0.0, 1.0)
    assert exc.value.partial is not None
    assert 0.3 < exc.value.partial < 2.0


@pytest.mark.parametrize("grade_lo", [False, True])
def test_nan_or_overflowed_integrand_raises(grade_lo):
    nan = lambda x: np.full_like(x, np.nan)
    with pytest.raises(QuadratureError):
        integrate(nan, 0.0, 1.0, grade_lo=grade_lo)
    with pytest.raises(QuadratureError):
        log_integrate(nan, lambda x: 0.0 * x, 0.0, 1.0, grade_lo=grade_lo)
    points = []

    def inf(x):
        points.append(x.size)
        return np.full_like(x, np.inf)

    with pytest.raises(QuadratureError):  # an infinite total fails on its base cells
        integrate(inf, 0.0, 1.0, grade_lo=grade_lo)
    assert sum(points) == 12 * (1 + 48 * grade_lo)
    # a +inf log total fails too, whether the base cells or a halving (the nodes below
    # 0.008 of the cell [0, 0.5]) make it infinite
    for f in (lambda x: np.full_like(x, np.inf), lambda x: np.where(x < 0.008, np.inf, 1.0)):
        with pytest.raises(QuadratureError):
            log_integrate(f, lambda x: 0.0 * x, 0.0, 1.0, grade_lo=grade_lo)


@settings(max_examples=40, deadline=None)
@given(coef=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
       c0=st.floats(0.1, 3.0), a=st.floats(-5.0, 5.0), b=st.floats(-3.0, 3.0),
       lo=st.floats(0.0, 3.0), width=st.floats(0.1, 4.0), grade_lo=st.booleans())
def test_log_integrate_matches_integrate(coef, c0, a, b, lo, width, grade_lo):
    # non-negative polynomial factor times a linear log-weight, against scipy
    f = lambda x: c0 + x * (coef[0] + x * (coef[1] + x * coef[2]))
    lw = lambda x: a + b * x
    lin, _ = quad(lambda x: f(x) * np.exp(lw(x)), lo, lo + width, epsabs=0.0, epsrel=1e-13)
    lv, _ = log_integrate(f, lw, lo, lo + width, grade_lo=grade_lo)
    np.testing.assert_allclose(np.exp(lv), lin, rtol=1e-9)


def _log_power_exp(q, c, length):
    """log of int_0^L x^q e^(cx) dx = L^(q+1)/(q+1) 1F1(q+1; q+2; cL), for q > -1."""
    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.mpf(length) ** (q + 1) / (q + 1)
                                * mpmath.hyp1f1(q + 1, q + 2, c * length)))


@settings(max_examples=60, deadline=None)
@given(q=st.floats(-0.99, 0.0), c=st.floats(-3.0, 3.0), length=st.floats(0.1, 10.0))
def test_graded_tail_matches_the_confluent_closed_form(q, c, length):
    # x^q e^(cx) near 0: for q near -1 most of the integral lies in the geometric tail
    # below the graded cells, and the weight e^(cx) is not a power of x
    lv, _ = log_integrate(lambda x: x**q, lambda x: c * x, 0.0, length, grade_lo=True)
    assert abs(lv - _log_power_exp(q, c, length)) <= 1e-10


def test_tail_is_closed_below_a_negligible_innermost_cell():
    # x^-0.995 e^(3x) on [0, 10.25]: the innermost graded cell holds 7e-12 of the total,
    # but the Gauss rule sees a thirtieth of the tail it stands for
    lv, _ = log_integrate(lambda x: x**-0.995, lambda x: 3.0 * x, 0.0, 10.25, grade_lo=True)
    assert abs(lv - _log_power_exp(-0.995, 3.0, 10.25)) <= 1e-11


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([-0.9999, -1.0, -1.01]), c=st.floats(-3.0, 3.0),
       length=st.floats(0.1, 10.0))
def test_graded_tail_at_the_integrability_limit_is_never_wrong(q, c, length):
    # the tail ratio 2^-(q+1) is 1 - 7e-5, 1 or above 1: a value may come back only
    # if it is right, and for q <= -1 the integral diverges
    try:
        lv, _ = log_integrate(lambda x: x**q, lambda x: c * x, 0.0, length, grade_lo=True)
    except QuadratureError:
        return
    assert q > -1.0 and abs(lv - _log_power_exp(q, c, length)) <= 1e-10


def test_open_tail_is_named_with_a_finite_error_estimate():
    with pytest.raises(QuadratureError, match=r"the tail at lo does not close, estimated error "
                                              r"\d\.\d{3}e[+-]\d+\)") as exc:
        log_integrate(lambda x: x**-1.1, lambda x: 0.0 * x, 0.0, 1.0, grade_lo=True)
    assert np.isfinite(exc.value.partial)


_LSE_ELEMENTS = st.one_of(st.floats(-750.0, 750.0),
                          st.sampled_from([-np.inf, np.inf, np.nan, 0.0, 1.0, -700.0, 700.0]))


@settings(max_examples=300, deadline=None)
@given(segs=st.lists(hnp.arrays(float, st.integers(1, 20), elements=_LSE_ELEMENTS),
                     min_size=1, max_size=6))
def test_segment_logsumexp_matches_scipy_per_segment(segs):
    # sampled constants give ties, -inf-only segments, +inf and NaN
    counts = np.array([seg.size for seg in segs])
    got = _segment_logsumexp(np.concatenate(segs), np.cumsum(counts) - counts, counts)
    want = np.array([logsumexp(seg) for seg in segs])
    alone = [_segment_logsumexp(seg, np.array([0]), np.array([seg.size]))[0] for seg in segs]
    assert np.array_equal(got, alone, equal_nan=True)  # the other segments do not matter
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[np.isinf(want)], want[np.isinf(want)])
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 4e-15 + 4 * np.spacing(np.abs(want[fin])))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_cells=st.integers(1, 6),
       widths=st.lists(st.floats(1e-6, 5.0), min_size=6, max_size=6))
def test_one_exp_cell_matches_per_point_logsumexp(data, n_cells, widths):
    # zero factors, log-weights spanning +-700 within one cell, -inf log-weights
    # and all-zero cells, against the exact per-point form
    edges = np.concatenate([[0.5], 0.5 + np.cumsum(widths[:n_cells])])
    cells = np.stack([edges[:-1], edges[1:]], axis=-1)[None]
    size = n_cells * 12
    fac = data.draw(hnp.arrays(float, size, elements=st.one_of(
        st.just(0.0), st.floats(1e-300, 1e3), st.floats(0.0, 10.0))))
    lw = data.draw(hnp.arrays(float, size, elements=st.one_of(
        st.floats(-700.0, 700.0), st.just(-np.inf))))
    dead = data.draw(hnp.arrays(bool, n_cells))
    fac = np.where(np.tile(dead, 12), 0.0, fac)  # the nodes come node-major
    got = _log_cell_values(lambda x: fac, lambda x: lw, cells)
    x, half, w = _panel_nodes(cells)
    with np.errstate(divide="ignore"):
        terms = np.log(half * w * fac.reshape(x.shape)) + lw.reshape(x.shape)
    want = logsumexp(terms, axis=0)
    assert got.shape == want.shape == (1, n_cells)
    assert np.array_equal(got == -np.inf, want == -np.inf)
    assert np.all(got[dead[None]] == -np.inf)
    live = want > -np.inf
    # 1e-13 in log, plus the rounding of the last addition: doubles near 700 are
    # 1.1e-13 apart, so the two forms may land an ulp or two apart there
    assert np.all(np.abs(got[live] - want[live]) <= 1e-13 + 2 * np.spacing(np.abs(want[live])))


def test_one_exp_cell_falls_back_where_the_sum_overflows():
    # cell 0: every c_j near the double maximum, so the scaled sum overflows;
    # cell 1: a +inf log-weight; both take the exact per-point form
    cells = np.array([[[0.0, 10.0], [10.0, 20.0]]])
    fac = np.full(24, 1e308)
    lw = np.zeros(24)
    lw[1] = np.inf  # node 0 of cell 1, node-major
    got = _log_cell_values(lambda x: fac, lambda x: lw, cells)
    x, half, w = _panel_nodes(cells)
    want0 = logsumexp(np.log(half[0, 0] * w.ravel()) + np.log(1e308))
    assert np.isfinite(got[0, 0]) and abs(got[0, 0] - want0) <= 1e-13
    assert got[0, 1] == np.inf


def test_one_exp_cell_shifts_by_the_live_nodes_only():
    # a zero-factor node with a huge log-weight must not set the shift: exp(-100 - 700)
    # underflows, so the cell would come out -inf instead of about -100
    cells = np.array([[[0.0, 1.0]]])
    fac = np.r_[0.0, np.ones(11)]
    lw = np.r_[700.0, np.full(11, -100.0)]
    got = _log_cell_values(lambda x: fac, lambda x: lw, cells)
    x, half, w = _panel_nodes(cells)
    want = logsumexp(np.log(half[0, 0] * w.ravel()[1:]) - 100.0)
    assert abs(got[0, 0] - want) <= 1e-13
