"""Panel quadrature: accuracy, breakpoint handling, grading, log-space path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import logsumexp

from fragkit.errors import QuadratureError
from fragkit.quadrature import (DEFAULT_SPEC, QuadratureSpec, _logsumexp, integrate,
                                log_integrate)


def test_polynomial_is_exact():
    val, err = integrate(lambda x: 3 * x**2, 0.0, 2.0)
    np.testing.assert_allclose(val, 8.0, rtol=1e-13)


def test_empty_range_is_zero():
    assert integrate(lambda x: x, 2.0, 2.0) == (0.0, 0.0)
    lv, _ = log_integrate(lambda x: x, lambda x: 0.0 * x, 3.0, 1.0)
    assert lv == -np.inf


def test_matches_scipy_on_oscillatory():
    f = lambda x: np.sin(7 * x) * np.exp(-x)
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
    lin, _ = integrate(lambda x: f(x) * np.exp(lw(x)), 0.0, 4.0)
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


def test_nonconvergence_carries_partial_estimate():
    rng = np.random.default_rng(7)
    jitter = rng.uniform(0.5, 1.5, size=4096)

    def noisy(x):  # deliberately rough: never settles under refinement
        idx = (np.abs(x) * 1e7).astype(int) % jitter.size
        return jitter[idx]

    spec = QuadratureSpec(rel_tol=1e-14, max_refinements=3)
    with pytest.raises(QuadratureError) as exc:
        integrate(noisy, 0.0, 1.0, spec=spec)
    assert exc.value.partial is not None
    assert 0.3 < exc.value.partial < 2.0


def test_spec_is_immutable_default():
    assert DEFAULT_SPEC.rel_tol == 1e-10
    with pytest.raises(Exception):
        DEFAULT_SPEC.rel_tol = 1.0


def test_spec_has_no_abs_tol():
    assert "abs_tol" not in {f.name for f in dataclasses.fields(QuadratureSpec)}


@pytest.mark.parametrize("grade_lo", [False, True])
def test_nan_or_overflowed_integrand_raises(grade_lo):
    nan = lambda x: np.full_like(x, np.nan)
    with pytest.raises(QuadratureError):
        integrate(nan, 0.0, 1.0, grade_lo=grade_lo)
    with pytest.raises(QuadratureError):
        log_integrate(nan, lambda x: 0.0 * x, 0.0, 1.0, grade_lo=grade_lo)
    with pytest.raises(QuadratureError):  # an infinite plain total never settles
        integrate(lambda x: np.full_like(x, np.inf), 0.0, 1.0, grade_lo=grade_lo)


@settings(max_examples=40, deadline=None)
@given(coef=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
       c0=st.floats(0.1, 3.0), a=st.floats(-5.0, 5.0), b=st.floats(-3.0, 3.0),
       lo=st.floats(0.0, 3.0), width=st.floats(0.1, 4.0), grade_lo=st.booleans())
def test_log_integrate_matches_integrate(coef, c0, a, b, lo, width, grade_lo):
    # non-negative polynomial factor times a linear log-weight, both modes of the one driver
    f = lambda x: c0 + x * (coef[0] + x * (coef[1] + x * coef[2]))
    lw = lambda x: a + b * x
    lin, _ = integrate(lambda x: f(x) * np.exp(lw(x)), lo, lo + width, grade_lo=grade_lo)
    lv, _ = log_integrate(f, lw, lo, lo + width, grade_lo=grade_lo)
    np.testing.assert_allclose(np.exp(lv), lin, rtol=1e-9)


_LSE_ELEMENTS = st.one_of(st.floats(-750.0, 750.0),
                          st.sampled_from([-np.inf, np.inf, np.nan, 0.0, 1.0, -700.0, 700.0]))


@settings(max_examples=300, deadline=None)
@given(a=hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
                    elements=_LSE_ELEMENTS))
def test_logsumexp_matches_scipy_bit_for_bit(a):
    # sampled constants give ties, -inf-only rows, +inf and NaN
    for axis in (None, -1):
        got, want = _logsumexp(a, axis=axis), logsumexp(a, axis=axis)
        assert type(got) is type(want)
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        same = ~np.isnan(want)
        assert np.array_equal(got[same].view(np.int64), want[same].view(np.int64))
