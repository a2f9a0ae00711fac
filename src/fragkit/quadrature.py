"""Panel Gauss-Legendre quadrature with breakpoint splitting and log-space accumulation.

The integrals of the toolkit go through one adaptive routine, ``_adaptive``,
which integrates many rows at once in log space.  A row is one integral: its
interval, its interior breakpoints and, during the run, its own cells, log
total, last change and failed flag.  Every integrand is non-negative (the
weighted-L1 theory asks for no other), and a negative one raises
``InvalidInputError``.  Two entry points run the routine on a single row:

``log_integrate``
    Returns ``log`` of the integral of ``factor(x) * exp(log_weight(x))`` with
    ``factor >= 0``, accumulated via log-sum-exp so exponential-class weights
    (where ``exp(log_weight)`` overflows a double) stay representable.
``integrate``
    The plain value of the integral of a non-negative ``f``: ``log_integrate``
    with ``log_weight = 0``.

``_log_integrate_rows`` runs it on many rows, one per parent size: in
``admissibility.log_n_samples``, for the kernel and weight pairs whose n_w has
no closed form, and in ``FragmentKernel.mass_partial``, for a custom kernel's
daughter mass up to the smallest point of each parent size.  The one pass
beside the routine is the rest of that daughter mass: a fixed-panel cumulative
pass, one Gauss cell (``_log_cell_values``) between each two consecutive
points of a parent size, summed without refinement.

Accuracy.  It is fixed, the same for every integral: one 12-point
Gauss-Legendre rule (``_NODES``, ``_WEIGHTS``), a log total settled within
``_REL_TOL = 1e-10`` absolute (the same relative change of the integral), at
most ``_MAX_REFINEMENTS = 9`` halvings, and ``_GRADING_LEVELS = 48`` geometric
cells toward ``lo`` with a closed-form tail below them.

Panels never straddle a supplied breakpoint, which restores spectral accuracy
of the Gauss rule on piecewise-smooth kernels.  An integrable singularity at
the lower endpoint is handled by one graded pass: the first cell is split at
``lo + (len)*2^-k``, ``k = 1 .. 48``, and the tail below the innermost graded
cell is summed in closed form.  Under an integrand ``~ (x - lo)^q`` each
graded cell is ``rho = 2^-(q+1)`` times the next one out, so the cells below
the innermost one sum to ``c1 rho / (1 - rho)``, ``c1`` being the one just
outside it.  ``log rho`` is ``log(c1/c2)`` less its drift, read from
``c2/c3`` (under a smooth factor the drift halves from cell to cell).  The
tail's estimated error relative to the total is that drift plus the rounding
of ``log rho``, read from ``c1 .. c4`` and at least ``eps``, over
``1/rho - 1``; the tail closes when that is below ``0.1 * _REL_TOL``, which
``rho >= 1`` (a divergent tail) never is.  A closed tail replaces the
innermost cell, frozen from then on, whenever that cell or the tail holds at
least ``0.1 * _REL_TOL`` of the total; otherwise the graded cells stay as
they are.  Then the panels are halved until the total settles.

A row fails, keeping its last total, when its total is lost (``+inf`` or NaN;
a ``-inf`` log total is a vanishing integral, not lost), when its innermost
cell holds ``0.1 * _REL_TOL`` of the total or more and the tail below it does
not close (a divergent or unresolvable tail, which halving cannot mend: it
fails at once, with the tail's estimated error, at most 1, as its last
change), or when ``_MAX_REFINEMENTS`` halvings do not settle it.

Ragged rows.  The cells of all rows sit in one flat ``(cells, 2)`` array with
the row of each cell alongside, each row's cells contiguous and in order, and
row totals are segmented log-sum-exps over each row's own cells: a row's
result does not depend on the rows that share its call.  Closing a row's
tail or halving its cells changes only its own cells, and a settled row
leaves the array.  Cells are evaluated in chunks of at most ``_BLOCK_POINTS``
points, and rows run in groups of about ``_BATCH_CELLS`` cells, which bounds
the working set.  Cell evaluation is elementwise, so neither changes any bits.

Frozen cells.  Before each halving, a cell at most ``eps`` (double precision)
of its row's current total is frozen: it keeps its value in the total and is
never halved again, since no refinement of a non-negative cell that small can
move the total.  A dead cell (``-inf``: zero factor at every node) is always
frozen.

A cell costs one ``exp`` per Gauss point: with ``c_j = half * w_j
* factor(x_j)`` and ``m`` the largest ``log_weight(x_j)`` over the nodes with
``c_j > 0``, it is ``m + log(sum_j c_j * exp(log_weight(x_j) - m))``, the
per-point log-sum-exp of ``log(c_j) + log_weight(x_j)`` to rounding.  A cell
with no ``c_j > 0`` is ``-inf``; one where ``m`` is infinite or the sum
overflows is recomputed in the per-point form.  The nodes are node-major,
``(12, cells)``, so the reductions over a cell's nodes run across cells.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidInputError, QuadratureError

__all__ = ["integrate", "log_integrate"]

# accuracy of every integral (see the module docstring)
_REL_TOL = 1e-10
_MAX_REFINEMENTS = 9
_GRADING_LEVELS = 48
_NODES, _WEIGHTS = leggauss(12)
# integrand points evaluated at once
_BLOCK_POINTS = 1 << 13
# cells of the rows run at once; a group that outgrows it is split by rows (a row never is)
_BATCH_CELLS = 1 << 12
# a cell this far below its row's total cannot move it; also the least rounding
# of a log cell value that a tail's error estimate assumes
_EPS = float(np.finfo(float).eps)


def _segment_logsumexp(v: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``log(sum(exp(v)))`` over each segment ``v[starts[i]:starts[i] + counts[i]]``.

    Segments are contiguous and non-empty.  A segment of ``-inf`` gives ``-inf``,
    one holding ``+inf`` gives ``+inf`` and one holding NaN gives NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.maximum.reduceat(v, starts)
        shift = np.where(np.isfinite(m), m, 0.0)  # no inf - inf
        return m + np.log(np.add.reduceat(np.exp(v - np.repeat(shift, counts)), starts))


def _segments(row: np.ndarray):
    """Start and length of each run of equal values of ``row``; none for an empty ``row``."""
    starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]][:row.size])
    return starts, np.diff(np.r_[starts, row.size])


def _edges(lo: float, hi: float, breakpoints) -> np.ndarray:
    """``lo``, the distinct breakpoints inside ``(lo, hi)`` in order, then ``hi``."""
    return np.array([lo, *sorted({float(p) for p in breakpoints if lo < p < hi}), hi])


def _base_cells(edges, rows: np.ndarray, levels: int):
    """Cells ``(n, 2)`` between the edges of each of ``rows``, the first one graded ``levels``
    times, and the row of each cell."""
    size = np.array([edges[i].size for i in rows])
    flat = np.concatenate([edges[i] for i in rows])
    lo = np.cumsum(size) - size
    graded = flat[lo, None] + (flat[lo + 1] - flat[lo])[:, None] * 2.0 ** -np.arange(
        levels, 0, -1, dtype=float)
    flat = np.insert(flat, np.repeat(lo + 1, levels), graded.ravel())
    n = size - 1 + levels  # cells per row
    left = np.delete(np.arange(flat.size - 1), np.cumsum(n + 1)[:-1] - 1)  # not across rows
    return np.column_stack([flat[left], flat[left + 1]]), np.repeat(rows, n)


def _halve(cells: np.ndarray, hot: np.ndarray):
    """``cells`` with each ``hot`` one split in two in place, and the old cell of each new one."""
    src = np.repeat(np.arange(hot.size), 1 + hot)
    out = cells[src]
    left = (np.cumsum(1 + hot) - 2)[hot]
    mid = 0.5 * (cells[hot, 0] + cells[hot, 1])
    out[left, 1] = mid
    out[left + 1, 0] = mid
    return out, src


def _panel_nodes(cells: np.ndarray):
    """Gauss nodes ``(12, *cells.shape[:-1])``, node-major, with half-widths and weights."""
    half = 0.5 * (cells[..., 1] - cells[..., 0])
    mid = 0.5 * (cells[..., 0] + cells[..., 1])
    col = (_NODES.size,) + (1,) * half.ndim
    return mid + half * _NODES.reshape(col), half, _WEIGHTS.reshape(col)


def _log_cell_values(factor, log_weight, cells: np.ndarray) -> np.ndarray:
    """Log-space cell integrals; ``factor`` and ``log_weight`` get the node-major nodes."""
    x, half, w = _panel_nodes(cells)
    fac = np.asarray(factor(x), dtype=float).reshape(x.shape)
    lw = np.asarray(log_weight(x), dtype=float).reshape(x.shape)
    if np.any(fac < 0):
        raise InvalidInputError("quadrature requires a non-negative integrand")
    coef = half * w * fac
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lw = np.where(coef > 0, lw, -np.inf)  # a point with coef = 0 adds exactly 0
        m = lw.max(axis=0)  # over the nodes, elementwise across contiguous cells
        shift = np.where(np.isfinite(m), m, 0.0)  # no inf - inf: a dead cell gives -inf
        out = m + np.log((coef * np.exp(lw - shift)).sum(axis=0))
        bad = out == np.inf  # an infinite m or an overflowed sum
        if bad.any():
            terms = np.log(coef[:, bad].T) + lw[:, bad].T  # one row of nodes per cell
            out[bad] = _segment_logsumexp(terms.ravel(), np.arange(0, terms.size, _NODES.size),
                                          np.full(terms.shape[0], _NODES.size))
    return out


def _adaptive(factor, log_weight, edges, grade_lo: bool):
    """Grade toward each row's ``lo`` if asked, then halve its cells until its total settles.

    Row ``i`` integrates ``factor * exp(log_weight)`` over ``[edges[i][0],
    edges[i][-1]]`` with interior breakpoints ``edges[i][1:-1]``.
    ``factor(x, rows)`` gets the node-major nodes of cells whose rows are
    ``rows``.  Returns ``(log_total, last_change, failed, open_tail)`` arrays;
    a failed row (see the module docstring) keeps its last total, and
    ``open_tail`` marks the rows that failed because their tail at ``lo`` does
    not close, whose last change is the tail's estimated error.
    """
    # equal totals, infinite ones included, have not changed
    change = lambda cur, prev: np.where(cur == prev, 0.0, np.abs(cur - prev))
    lost = lambda t: ~(t < np.inf)  # +inf or NaN
    step = _BLOCK_POINTS // _NODES.size

    def evaluate(cells, row):
        out = np.empty(row.size)
        for i in range(0, row.size, step):
            chunk = row[i:i + step]
            out[i:i + step] = _log_cell_values(lambda x: factor(x, chunk), log_weight,
                                               cells[i:i + step])
        return out

    live = np.flatnonzero([e[-1] > e[0] for e in edges])  # an empty range is 0 (-inf in log)
    total = np.full(len(edges), -np.inf)
    err = np.zeros(len(edges))
    err[live] = np.inf
    failed, open_tail = np.zeros((2, len(edges)), dtype=bool)
    levels = _GRADING_LEVELS if grade_lo else 0
    n_cells = sum(edges[i].size - 1 + levels for i in live)
    with np.errstate(invalid="ignore"):
        for batch in np.array_split(live, -(-n_cells // _BATCH_CELLS)) if live.size else ():
            cells, row = _base_cells(edges, batch, levels)
            val = evaluate(cells, row)
            starts, counts = _segments(row)
            total[batch] = cur = _segment_logsumexp(val, starts, counts)
            hot = np.ones(row.size, dtype=bool)
            if grade_lo:
                # the geometric tail below the innermost cell, c1 (rho + rho^2 + ...), with
                # log rho = log(c1/c2) less its drift from c2/c3; its error relative to the
                # total is the drift left plus the rounding of log rho (at least eps) over
                # 1/rho - 1
                l1, l2, l3, l4 = (val[starts + j] for j in range(1, 5))
                odds = np.maximum(np.expm1(3 * l2 - 2 * l1 - l3), _EPS)  # 1/rho - 1
                tail = l1 - np.log(odds)
                noise = np.maximum(np.abs(-2 * l1 + 5 * l2 - 4 * l3 + l4), _EPS) / odds
                est = np.exp(tail - np.logaddexp(cur, tail)) * (np.abs(l1 - 2 * l2 + l3) + noise)
                # a finite total whose innermost cell matters needs the tail closed; one
                # whose tail matters takes it if it closes.  A closed tail is frozen.  An
                # open one keeps its estimate, at most 1 (NaN, where a cell next to the
                # innermost one is dead, is 1 too: the tail is simply unknown)
                small = cur + np.log(0.1 * _REL_TOL)
                needed = (cur < np.inf) & ~(val[starts] <= small)
                shut = (est <= 0.1 * _REL_TOL) & (needed | (tail > small))
                open_tail[batch], err[batch[needed]] = needed & ~shut, np.fmin(est[needed], 1.0)
                val[starts[shut]], hot[starts[shut]] = tail[shut], False
                total[batch] = _segment_logsumexp(val, starts, counts) if shut.any() else cur
            failed[batch] = open_tail[batch] | lost(total[batch])
            keep = np.repeat(~failed[batch], counts)
            # halving: (cells, row, val, hot, halvings done) of groups of rows, none if
            # every row of the batch failed on its graded cells
            work = [(cells[keep], row[keep], val[keep], hot[keep], 0)] if keep.any() else []
            while work:
                cells, row, val, hot, k = work.pop()
                starts, counts = _segments(row)
                if row.size > _BATCH_CELLS and starts.size > 1:
                    # too many cells: go on with each half of the rows on its own,
                    # which bounds the working set
                    part = lambda s: (cells[s], row[s], val[s], hot[s], k)
                    cut = starts[starts.size // 2]
                    work += [part(slice(cut, None)), part(slice(None, cut))]
                    continue
                rows = row[starts]
                if k == _MAX_REFINEMENTS:
                    failed[rows] = True
                    continue
                # freeze the cells too small to move their row's total
                hot &= val > np.repeat(total[rows] + np.log(_EPS), counts)
                cells, src = _halve(cells, hot)
                row, val, hot = row[src], val[src], hot[src]
                val[hot] = evaluate(cells[hot], row[hot])
                starts, counts = _segments(row)
                cur = _segment_logsumexp(val, starts, counts)
                err[rows] = change(cur, total[rows])
                total[rows] = cur
                out = lost(cur)
                failed[rows[out]] = True
                keep = np.repeat(~((err[rows] <= _REL_TOL) | out), counts)
                if keep.any():
                    work.append((cells[keep], row[keep], val[keep], hot[keep], k + 1))
    return total, err, failed, open_tail


def log_integrate(factor, log_weight, lo, hi, *, breakpoints=(), grade_lo: bool = False):
    """Return ``(log_value, log_error)`` for the integral of ``factor * exp(log_weight)``.

    ``log_value`` is ``-inf`` when the integrand vanishes.  ``log_error`` is the
    absolute change of the log between the last two refinement levels, which
    for small values equals the relative error of the integral.  Raises
    :class:`QuadratureError`, with the last ``log_value`` as ``partial``, when
    the integral fails to converge (its message names a tail at ``lo`` that does
    not close, with its estimated error), and ``InvalidInputError`` on a
    negative ``factor``.
    """
    lo, hi = float(lo), float(hi)
    total, err, failed, open_tail = _adaptive(lambda x, rows: factor(x), log_weight,
                                              [_edges(lo, hi, breakpoints)], grade_lo)
    if failed[0]:
        why = "the tail at lo does not close, estimated error" if open_tail[0] else "last change"
        raise QuadratureError(f"log-space quadrature on [{lo:g}, {hi:g}] did not converge "
                              f"({why} {err[0]:.3e})", partial=float(total[0]))
    return float(total[0]), float(err[0])


def integrate(f, lo, hi, *, breakpoints=(), grade_lo: bool = False):
    """Integrate a vectorized non-negative ``f`` over ``[lo, hi]``.

    ``log_integrate`` with ``log_weight = 0``.  Returns ``(value,
    error_estimate)``, the estimate being the change of the value between the
    last two refinement levels.  Raises :class:`QuadratureError` with the
    partial value attached when the integral fails to converge, and
    ``InvalidInputError`` when ``f`` is negative anywhere it is sampled.
    """
    try:
        lv, lerr = log_integrate(f, np.zeros_like, lo, hi, breakpoints=breakpoints,
                                 grade_lo=grade_lo)
    except QuadratureError as exc:
        raise QuadratureError(str(exc), partial=float(np.exp(exc.partial))) from None
    value = float(np.exp(lv))
    return value, value * float(np.expm1(lerr))


def _log_integrate_rows(factor, log_weight, spans):
    """``log_integrate`` with ``grade_lo`` over many rows at once, without raising.

    Row ``i`` is the ``i``-th ``(lo, hi, breakpoints)`` of the iterable
    ``spans``.  ``factor(x, i)`` gets the nodes ``x`` shaped ``(12, cells)``
    and the row ``i`` of each cell, shaped ``(cells,)`` so that it broadcasts
    over the nodes.  Returns ``(log_value, failed)`` arrays; a failed row
    carries its last estimate.
    """
    edges = [_edges(float(lo), float(hi), bps) for lo, hi, bps in spans]
    total, _, failed, _ = _adaptive(factor, log_weight, edges, grade_lo=True)
    return total, failed
