"""Panel Gauss-Legendre quadrature with breakpoint splitting and log-space accumulation.

All weighted integrals in the toolkit go through one adaptive routine,
``_adaptive``, which integrates a block of rows at once.  A row is one
integral: its interval, its interior breakpoints and, during the run, its own
cells, total, last change, grading depth and failed flag.  Two entry points
run it on a single row:

``integrate``
    Plain-valued integral of a vectorized integrand.
``log_integrate``
    Returns ``log`` of the integral of ``factor(x) * exp(log_weight(x))`` with
    ``factor >= 0``, accumulated via log-sum-exp so exponential-class weights
    (where ``exp(log_weight)`` overflows a double) stay representable.

``_log_integrate_rows`` runs it on many rows of the log-space integral, one per
parent size in ``admissibility.log_n_samples``.

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

Rows and blocks.  The rows of one call share their breakpoint count, so at
every stage all rows of a block have the same number of cells.  A block is
evaluated in one vectorized pass over its flattened ``(rows * cells, 2)``
cells, with the Gauss nodes node-major, ``(order, rows, cells)``: a cell's
reductions over its nodes run along the first axis, elementwise across cells,
and the row totals along the last axis, so each row does exactly the
arithmetic of a one-row call.  After each pass the block splits: rows that
settle leave it, rows that deepen their grading form their own block, and a
block that would exceed ``_BLOCK_POINTS`` integrand points is cut into
smaller ones, which bounds the working set.  Rows are never padded to a common
cell count: padding with empty cells would change how numpy's pairwise
summation groups the terms, and with it the last bits of the totals.

A log-space cell costs one ``exp`` per Gauss point: with ``c_j = half * w_j
* factor(x_j)`` and ``m`` the largest ``log_weight(x_j)`` over the nodes with
``c_j > 0``, the cell is ``m + log(sum_j c_j * exp(log_weight(x_j) - m))``,
which agrees with the per-point form, the log-sum-exp of ``log(c_j) +
log_weight(x_j)``, to rounding (not bit for bit).  A cell with no ``c_j > 0``
is ``-inf``; one where ``m`` is infinite or the sum overflows is recomputed in
the per-point form.

The log-sum-exp of the row totals (and of those fallback cells) is
``_logsumexp``, plain numpy that follows ``scipy.special.logsumexp`` step for
step (so it is bit-identical) without the cost of scipy's array-API dispatch
on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

__all__ = ["QuadratureSpec", "DEFAULT_SPEC", "integrate", "log_integrate", "panel_sums"]

# integrand points evaluated at once; a block that would exceed it is cut by rows
_BLOCK_POINTS = 1 << 13


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


def _logsumexp(a, axis=None):
    """``scipy.special.logsumexp(a, axis)`` for real ``a``, bit for bit.

    ``axis`` is None (all elements) or -1.  The ``m`` copies of the maximum
    ``a_max`` are split off for precision: ``log1p(s) + log(m) + a_max`` with
    ``s`` the sum of the other ``exp(a - a_max)`` over ``m`` (0 stays 0).
    Where that is not finite (all ``-inf``, ``+inf``, NaN) the direct
    ``log(sum(exp(a)))`` is used instead.
    """
    a = np.asarray(a, dtype=float)
    shape = () if axis is None else a.shape[:-1]
    a = a.reshape(1, -1) if axis is None else a.reshape(-1, a.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        top = a == a_max
        m = top.sum(axis=1, dtype=float)
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out.reshape(shape)[()]


def _edges(lo: float, hi: float, breakpoints) -> np.ndarray:
    """``lo``, the distinct breakpoints inside ``(lo, hi)`` in order, then ``hi``."""
    return np.array([lo, *sorted({float(p) for p in breakpoints if lo < p < hi}), hi])


def _base_cells(edges: np.ndarray, levels: int) -> np.ndarray:
    """Cells ``(rows, ncell, 2)`` between each row's edges, the first one graded ``levels`` times."""
    if levels:
        width = edges[:, 1] - edges[:, 0]
        graded = edges[:, :1] + width[:, None] * 2.0 ** (-np.arange(levels, 0, -1, dtype=float))
        edges = np.concatenate([edges[:, :1], graded, edges[:, 1:]], axis=1)
    return np.stack([edges[:, :-1], edges[:, 1:]], axis=-1)


def _split_cells(cells: np.ndarray) -> np.ndarray:
    mid = 0.5 * (cells[..., 0] + cells[..., 1])
    out = np.empty(cells.shape[:-2] + (2 * cells.shape[-2], 2), dtype=float)
    out[..., 0::2, 0] = cells[..., 0]
    out[..., 0::2, 1] = mid
    out[..., 1::2, 0] = mid
    out[..., 1::2, 1] = cells[..., 1]
    return out


def _panel_nodes(cells: np.ndarray, order: int):
    """Gauss nodes ``(order, *cells.shape[:-1])``, node-major, with half-widths and weights."""
    z, w = _rule(order)
    half = 0.5 * (cells[..., 1] - cells[..., 0])
    mid = 0.5 * (cells[..., 0] + cells[..., 1])
    col = (order,) + (1,) * half.ndim
    return mid + half * z.reshape(col), half, w.reshape(col)


def _cell_values(f, cells: np.ndarray, order: int) -> np.ndarray:
    x, half, w = _panel_nodes(cells, order)
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(order, -1)
    # the same (cells, order) matrix-vector product as a node-last layout, bit for bit
    return half * (np.ascontiguousarray(fx.T) @ w.ravel()).reshape(half.shape)


def _log_cell_values(factor, log_weight, cells: np.ndarray, order: int) -> np.ndarray:
    x, half, w = _panel_nodes(cells, order)
    flat = x.ravel()
    fac = np.asarray(factor(flat), dtype=float).reshape(x.shape)
    lw = np.asarray(log_weight(flat), dtype=float).reshape(x.shape)
    if np.any(fac < 0):
        raise ValueError("log_integrate requires a non-negative factor")
    coef = half * w * fac
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lw = np.where(coef > 0, lw, -np.inf)  # a point with coef = 0 adds exactly 0
        m = lw.max(axis=0)  # over the nodes, elementwise across contiguous cells
        shift = np.where(np.isfinite(m), m, 0.0)  # no inf - inf: a dead cell gives -inf
        out = m + np.log((coef * np.exp(lw - shift)).sum(axis=0))
        bad = out == np.inf  # an infinite m or an overflowed sum
        if bad.any():
            out[bad] = _logsumexp(np.log(coef[:, bad].T) + lw[:, bad].T, axis=-1)
    return out


def panel_sums(f, edges: np.ndarray, order: int = 12) -> np.ndarray:
    """Fixed-order Gauss integrals of ``f`` over consecutive ``edges`` intervals.

    One vectorized pass, no refinement: meant for batched cumulative
    integrals of piecewise-smooth integrands whose breakpoints the caller has
    already inserted into ``edges``.
    """
    cells = np.column_stack([edges[:-1], edges[1:]])
    return _cell_values(f, cells, order)


def _adaptive(values, edges: np.ndarray, spec: QuadratureSpec, grade_lo: bool, log: bool):
    """Grade toward ``lo`` if asked, then halve every panel until each row's total settles.

    Row ``i`` integrates over ``[edges[i, 0], edges[i, -1]]`` with interior
    breakpoints ``edges[i, 1:-1]``.  ``values(cells, rows)`` returns the
    per-cell integrals, or their logs when ``log``, of ``cells`` shaped
    ``(len(rows), ncell, 2)`` that belong to the rows ``rows``.  Returns
    ``(total, last_change, failed)`` arrays; a row fails when
    ``spec.max_refinements`` halvings do not settle it, and keeps its last total.
    """
    if log:
        total_of = lambda v: _logsumexp(v, axis=-1)
        tol = lambda t: spec.rel_tol
        negligible = lambda v0, t: ~np.isfinite(t) | (v0 <= t + np.log(0.1 * spec.rel_tol))
    else:
        total_of = lambda v: v.sum(axis=-1)
        # an overflowed (infinite) plain total never settles
        tol = lambda t: np.where(np.isfinite(t), max(spec.rel_tol, 1e-15) * np.abs(t), -1.0)
        negligible = lambda v0, t: np.abs(v0) <= 0.1 * (spec.rel_tol * np.abs(t))
    # equal totals, infinite ones included, have not changed
    change = lambda cur, prev: np.where(cur == prev, 0.0, np.abs(cur - prev))

    live = edges[:, -1] > edges[:, 0]  # an empty range is 0 (-inf in log space), settled
    total = np.full(live.size, -np.inf if log else 0.0)
    err = np.where(live, np.inf, 0.0)
    failed = np.zeros(live.size, dtype=bool)
    order = spec.gauss_order
    levels0 = spec.grading_levels if grade_lo else 0
    # (rows, grading levels, their cells, halvings done; -1 while grading)
    blocks = [(np.flatnonzero(live), levels0, None, -1)]
    with np.errstate(invalid="ignore"):
        while blocks:
            rows, levels, cells, k = blocks.pop()
            if not rows.size:
                continue
            if k >= spec.max_refinements:
                failed[rows] = True
                continue
            n_cells = edges.shape[1] - 1 + levels if k < 0 else 2 * cells.shape[1]
            cap = max(1, _BLOCK_POINTS // (n_cells * order))
            if rows.size > cap:
                for i in range(0, rows.size, cap):
                    part = slice(i, i + cap)
                    blocks.append((rows[part], levels, None if cells is None else cells[part], k))
                continue
            cells = _base_cells(edges[rows], levels) if k < 0 else _split_cells(cells)
            vals = values(cells, rows)
            prev, cur = total[rows], total_of(vals)
            total[rows] = cur
            if k < 0:
                # deepen the grading while the innermost cell still matters, unless the
                # last deepening already settled the total
                deeper = np.zeros(rows.size, dtype=bool)
                if grade_lo and levels < spec.max_grading_levels:
                    deeper = ~negligible(vals[:, 0], cur)
                    if levels > levels0:
                        deeper &= ~(change(cur, prev) <= tol(cur))
                blocks.append((rows[~deeper], levels, cells[~deeper], 0))
                blocks.append((rows[deeper], levels + 32, None, -1))
            else:
                err[rows] = change(cur, prev)
                open_ = ~(err[rows] <= tol(cur))
                blocks.append((rows[open_], levels, cells[open_], k + 1))
    return total, err, failed


def _one_row(values, lo, hi, breakpoints, spec: QuadratureSpec, grade_lo: bool, log: bool):
    """Run ``_adaptive`` on one row ``[lo, hi]``; raise :class:`QuadratureError` if it fails."""
    lo, hi = float(lo), float(hi)
    total, err, failed = _adaptive(lambda cells, rows: values(cells),
                                   _edges(lo, hi, breakpoints)[None], spec, grade_lo, log)
    if failed[0]:
        raise QuadratureError(
            f"{'log-space' if log else 'panel'} quadrature on [{lo:g}, {hi:g}] "
            f"did not converge (last change {err[0]:.3e})",
            partial=float(total[0]), error_estimate=float(err[0]))
    return float(total[0]), float(err[0])


def integrate(f, lo, hi, *, breakpoints=(), spec: QuadratureSpec = DEFAULT_SPEC,
              grade_lo: bool = False):
    """Integrate a vectorized ``f`` over ``[lo, hi]``.

    Returns ``(value, error_estimate)``.  Raises :class:`QuadratureError` with
    the partial estimate attached when successive panel refinements fail to
    settle within ``spec.rel_tol``.
    """
    return _one_row(lambda cells: _cell_values(f, cells, spec.gauss_order),
                    lo, hi, breakpoints, spec, grade_lo, log=False)


def log_integrate(factor, log_weight, lo, hi, *, breakpoints=(),
                  spec: QuadratureSpec = DEFAULT_SPEC, grade_lo: bool = False):
    """Return ``(log_value, log_error)`` for the integral of ``factor * exp(log_weight)``.

    ``log_value`` is ``-inf`` when the integrand vanishes.  ``log_error`` is the
    absolute change of the log between the last two refinement levels, which
    for small values equals the relative error of the integral.
    """
    return _one_row(lambda cells: _log_cell_values(factor, log_weight, cells, spec.gauss_order),
                    lo, hi, breakpoints, spec, grade_lo, log=True)


def _log_integrate_rows(factor, log_weight, spans, spec: QuadratureSpec, grade_lo: bool):
    """``log_integrate`` over many rows at once, without raising.

    Row ``i`` is the ``i``-th ``(lo, hi, breakpoints)`` of the iterable
    ``spans``; ``factor(x, i)`` gets the row index of every point of ``x``.
    Rows are blocked by their breakpoint count.  Returns ``(log_value,
    failed)`` arrays; a failed row carries its last estimate.
    """
    edges = [_edges(float(lo), float(hi), bps) for lo, hi, bps in spans]
    total = np.empty(len(edges))
    failed = np.zeros(len(edges), dtype=bool)
    order = spec.gauss_order
    for n in sorted({e.size for e in edges}):
        group = np.array([i for i, e in enumerate(edges) if e.size == n], dtype=np.intp)

        def values(cells, rows):
            idx = np.tile(np.repeat(group[rows], cells.shape[1]), order)  # node-major
            return _log_cell_values(lambda x: factor(x, idx), log_weight, cells, order)

        total[group], _, failed[group] = _adaptive(
            values, np.stack([edges[i] for i in group]), spec, grade_lo, log=True)
    return total, failed
