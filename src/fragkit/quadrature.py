"""Panel Gauss-Legendre quadrature with breakpoint splitting and log-space accumulation.

All weighted integrals in the toolkit go through one adaptive driver and its
two entry points:

``integrate``
    Plain-valued integral of a vectorized integrand.
``log_integrate``
    Returns ``log`` of the integral of ``factor(x) * exp(log_weight(x))`` with
    ``factor >= 0``, accumulated via log-sum-exp so exponential-class weights
    (where ``exp(log_weight)`` overflows a double) stay representable.

Panels never straddle a supplied breakpoint, which restores spectral accuracy
of the Gauss rule on piecewise-smooth kernels.  An integrable singularity at
the lower endpoint is handled by geometric grading: the first cell is split at
``lo + (len)*2^-k``, and the grading is deepened until the innermost cell
contributes less than ``0.1 * rel_tol`` of the running total (so rates close
to the integrability limit still converge, or fail loudly).  Then every panel
is halved until the total settles.

The two modes differ in three places only: the total of the per-cell values
is a sum or a log-sum-exp; it has settled within ``max(rel_tol, 1e-15)``
relative (never while infinite) or, in log space, ``rel_tol`` absolute (the
same relative change of the integral); and the innermost cell is negligible
below ``0.1 * rel_tol`` of the total or, in log space, also when the total is
not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import logsumexp

from .errors import QuadratureError

__all__ = ["QuadratureSpec", "DEFAULT_SPEC", "integrate", "log_integrate", "panel_sums"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy and refinement knobs for the panel quadrature."""

    rel_tol: float = 1e-10
    gauss_order: int = 12
    max_refinements: int = 9
    grading_levels: int = 48
    max_grading_levels: int = 512


DEFAULT_SPEC = QuadratureSpec()

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        return _RULES[order]
    except KeyError:
        z, w = leggauss(order)
        _RULES[order] = (z, w)
        return z, w


def _base_cells(lo: float, hi: float, breakpoints, levels: int) -> np.ndarray:
    pts = sorted({float(p) for p in breakpoints if lo < p < hi})
    edges = [lo] + pts + [hi]
    if levels:
        width = edges[1] - edges[0]
        graded = edges[0] + width * 2.0 ** (-np.arange(levels, 0, -1, dtype=float))
        edges = [edges[0]] + list(graded) + edges[1:]
    e = np.asarray(edges, dtype=float)
    return np.column_stack([e[:-1], e[1:]])


def _split_cells(cells: np.ndarray) -> np.ndarray:
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    out = np.empty((2 * len(cells), 2), dtype=float)
    out[0::2, 0] = cells[:, 0]
    out[0::2, 1] = mid
    out[1::2, 0] = mid
    out[1::2, 1] = cells[:, 1]
    return out


def _panel_nodes(cells: np.ndarray, order: int):
    z, w = _rule(order)
    half = 0.5 * (cells[:, 1] - cells[:, 0])
    mid = 0.5 * (cells[:, 0] + cells[:, 1])
    x = mid[:, None] + half[:, None] * z[None, :]
    return x, half, w


def _cell_values(f, cells: np.ndarray, order: int) -> np.ndarray:
    x, half, w = _panel_nodes(cells, order)
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    return half * (fx @ w)


def _log_cell_values(factor, log_weight, cells: np.ndarray, order: int) -> np.ndarray:
    x, half, w = _panel_nodes(cells, order)
    flat = x.ravel()
    fac = np.asarray(factor(flat), dtype=float).reshape(x.shape)
    lw = np.asarray(log_weight(flat), dtype=float).reshape(x.shape)
    if np.any(fac < 0):
        raise ValueError("log_integrate requires a non-negative factor")
    with np.errstate(divide="ignore"):
        terms = np.log(half[:, None] * w[None, :] * fac)
    terms = terms + lw
    return logsumexp(terms, axis=1)


def panel_sums(f, edges: np.ndarray, order: int = 12) -> np.ndarray:
    """Fixed-order Gauss integrals of ``f`` over consecutive ``edges`` intervals.

    One vectorized pass, no refinement: meant for batched cumulative
    integrals of piecewise-smooth integrands whose breakpoints the caller has
    already inserted into ``edges``.
    """
    cells = np.column_stack([edges[:-1], edges[1:]])
    return _cell_values(f, cells, order)


def _adaptive(values, lo, hi, breakpoints, spec: QuadratureSpec, grade_lo: bool, log: bool):
    """Grade toward ``lo`` if asked, then halve every panel until the total settles.

    ``values(cells)`` returns per-cell integrals, or their logs when ``log``.
    Returns ``(total, last_change)``; raises :class:`QuadratureError` with the
    last total as ``partial`` when ``spec.max_refinements`` halvings do not settle.
    """
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return (-np.inf if log else 0.0), 0.0
    if log:
        total_of = lambda v: float(logsumexp(v))
        tol = lambda t: spec.rel_tol
        negligible = lambda v0, t: not np.isfinite(t) or v0 <= t + np.log(0.1 * spec.rel_tol)
    else:
        total_of = lambda v: float(v.sum())
        # an overflowed (infinite) plain total never settles
        tol = lambda t: max(spec.rel_tol, 1e-15) * abs(t) if np.isfinite(t) else -1.0
        negligible = lambda v0, t: abs(float(v0)) <= 0.1 * (spec.rel_tol * abs(t))
    # equal totals, infinite ones included, have not changed
    change = lambda cur, prev: 0.0 if cur == prev else abs(cur - prev)

    levels = spec.grading_levels if grade_lo else 0
    cells = _base_cells(lo, hi, breakpoints, levels)
    vals = values(cells)
    total = total_of(vals)

    # Deepen the grading while the innermost cell still matters.
    while grade_lo and levels < spec.max_grading_levels and not negligible(vals[0], total):
        levels += 32
        cells = _base_cells(lo, hi, breakpoints, levels)
        vals = values(cells)
        prev, total = total, total_of(vals)
        if change(total, prev) <= tol(total):
            break

    err = np.inf
    for _ in range(spec.max_refinements):
        cells = _split_cells(cells)
        prev, total = total, total_of(values(cells))
        err = change(total, prev)
        if err <= tol(total):
            return total, err
    raise QuadratureError(
        f"{'log-space' if log else 'panel'} quadrature on [{lo:g}, {hi:g}] "
        f"did not converge (last change {err:.3e})", partial=total, error_estimate=err)


def integrate(f, lo, hi, *, breakpoints=(), spec: QuadratureSpec = DEFAULT_SPEC,
              grade_lo: bool = False):
    """Integrate a vectorized ``f`` over ``[lo, hi]``.

    Returns ``(value, error_estimate)``.  Raises :class:`QuadratureError` with
    the partial estimate attached when successive panel refinements fail to
    settle within ``spec.rel_tol``.
    """
    return _adaptive(lambda cells: _cell_values(f, cells, spec.gauss_order),
                     lo, hi, breakpoints, spec, grade_lo, log=False)


def log_integrate(factor, log_weight, lo, hi, *, breakpoints=(),
                  spec: QuadratureSpec = DEFAULT_SPEC, grade_lo: bool = False):
    """Return ``(log_value, log_error)`` for the integral of ``factor * exp(log_weight)``.

    ``log_value`` is ``-inf`` when the integrand vanishes.  ``log_error`` is the
    absolute change of the log between the last two refinement levels, which
    for small values equals the relative error of the integral.
    """
    return _adaptive(lambda cells: _log_cell_values(factor, log_weight, cells, spec.gauss_order),
                     lo, hi, breakpoints, spec, grade_lo, log=True)
