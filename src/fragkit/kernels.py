"""Fragmentation coefficients: the rate a(x) and the daughter distribution b(x, y).

The built-in kernel families are

``homogeneous_power``
    b(x, y) = (1/y) h(x/y) with h(z) = (nu+2) z^nu, nu in (-2, 0].  Scale
    invariant; every breakup conserves mass exactly.
``boundary_binary``
    b = 1 on [0,1] u [y-1, y] and 0 on (1, y-1) for y > 2; b = 2/y for y <= 2.
    Parents split into one small (size <= 1) and one large (size >= y-1) piece.
``concentrated``
    b = y on [0, 1/y] u [y-1/y, y] and 0 between, for y > sqrt(2); b = 2/y
    otherwise.  Fragment sizes concentrate at the ends as y grows.
``custom``
    Any callable b(x, y) that broadcasts over arrays of x and y; an optional
    breakpoint callback lets the quadrature split at its discontinuities.  Its
    daughter mass is one batched quadrature pass over the parent sizes.

Each built-in family's shape is written once, in the band table
``FragmentKernel._bands``: a bottom band c0 x^q on [0, d0] and, above the
splits, a top band c1 on [y - d1, y].  ``eval_kernel``, ``mass_partial`` and
the closed-form n_w of ``admissibility`` are sums over those bands, and
nothing else states their edges: ``breakpoints`` lists a custom kernel's only.
No split family reaches a quadrature, since every weight family integrates a
band of level c in closed form (at q = 0).  Both bands are closed
intervals; the choice is measure-zero and invisible to every integral.  An
integral takes the top band by its width d1, never as the difference
y - fl(y - d1), whose rounding would cost a narrow band such as concentrated's
[y - 1/y, y] its accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidKernelError, QuadratureError
from .quadrature import _log_cell_values, _log_integrate_rows, _segments

__all__ = [
    "RateFunction", "FragmentKernel", "MassReport",
    "eval_rate", "rate_envelope", "eval_kernel", "classify_mass",
]

_SQRT2 = float(np.sqrt(2.0))
_ENVELOPE_SAMPLES_PER_UNIT = 512


# ---------------------------------------------------------------------------
# fragmentation rate a(x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunction:
    """Fragmentation rate a(x) >= 0, locally bounded on [0, inf)."""

    family: str
    alpha: float = 0.0
    level: float = 1.0
    table: np.ndarray | None = None
    func: object = None

    @classmethod
    def power(cls, alpha: float) -> "RateFunction":
        """a(x) = x**alpha with alpha >= 0 (monotone, its own envelope)."""
        if not 0 <= alpha < np.inf:  # a NaN alpha fails this test too
            raise InvalidKernelError("power rate needs a finite alpha >= 0 (local boundedness), "
                                     f"got {alpha!r}")
        return cls(family="power", alpha=float(alpha))

    @classmethod
    def constant(cls, level: float = 1.0) -> "RateFunction":
        if not 0 <= level < np.inf:
            raise InvalidKernelError(f"rate must be finite and non-negative, got {level!r}")
        return cls(family="constant", level=float(level))

    @classmethod
    def zero(cls) -> "RateFunction":
        return cls.constant(0.0)

    @classmethod
    def tabulated(cls, pairs) -> "RateFunction":
        tab = np.asarray(pairs, dtype=float)
        if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
            raise InvalidKernelError("rate table needs at least two (x, a) pairs")
        if not np.isfinite(tab).all():  # a NaN passes both checks below
            raise InvalidKernelError("rate table entries must be finite")
        if np.any(np.diff(tab[:, 0]) <= 0):
            raise InvalidKernelError("rate table abscissae must be strictly increasing")
        if np.any(tab[:, 1] < 0):
            raise InvalidKernelError("negative rate table entry")
        return cls(family="tabulated", table=tab)

    @classmethod
    def custom(cls, func) -> "RateFunction":
        return cls(family="custom", func=func)

    def __call__(self, x):
        return eval_rate(self, x)

    def describe(self) -> str:
        if self.family == "power":
            return f"a(x) = x^{self.alpha:g}"
        if self.family == "constant":
            return f"a(x) = {self.level:g}"
        if self.family == "tabulated":
            return f"tabulated rate ({self.table.shape[0]} knots)"
        return "custom rate"


def eval_rate(rate: RateFunction, x):
    """Evaluate a(x); linear interpolation between table knots, clamped outside."""
    xs = np.asarray(x, dtype=float)
    if rate.family == "power":
        out = xs ** rate.alpha if rate.alpha != 0 else np.ones_like(xs)
    elif rate.family == "constant":
        out = np.full_like(xs, rate.level)
    elif rate.family == "tabulated":
        out = np.interp(xs, rate.table[:, 0], rate.table[:, 1])
    elif rate.family == "custom":
        out = np.asarray(rate.func(xs), dtype=float)
        if np.any(out < 0):
            raise InvalidKernelError("custom rate returned a negative value")
    else:
        raise InvalidKernelError(f"unknown rate family {rate.family!r}")
    return out if np.ndim(x) else float(out)


def rate_envelope(rate: RateFunction, x):
    """Non-decreasing majorant c(x) = sup of a over [0, x].

    Exact for the monotone built-in families and for tabulated rates (a
    piecewise-linear interpolant attains its running maximum at knots); custom
    rates are sampled ``_ENVELOPE_SAMPLES_PER_UNIT`` times per unit of x and the
    running maximum is returned, which is exact for continuous rates up to that mesh.
    """
    xs = np.asarray(x, dtype=float)
    scalar = np.ndim(x) == 0
    if np.any(xs < 0):
        raise InvalidKernelError("envelope requested at negative size")
    if rate.family in ("power", "constant"):
        out = eval_rate(rate, xs) if not scalar else np.asarray(eval_rate(rate, xs))
    elif rate.family == "tabulated":
        knots = rate.table[:, 0]
        runmax = np.maximum.accumulate(rate.table[:, 1])
        idx = np.searchsorted(knots, xs, side="right") - 1
        below = np.where(idx >= 0, runmax[np.clip(idx, 0, None)], 0.0)
        out = np.maximum(below, eval_rate(rate, xs))
    else:
        hi = float(np.max(xs)) if xs.size else 0.0
        n = max(2, int(np.ceil(_ENVELOPE_SAMPLES_PER_UNIT * max(hi, 1.0))))
        grid = np.linspace(0.0, max(hi, 1e-300), n)
        runmax = np.maximum.accumulate(eval_rate(rate, grid))
        idx = np.clip(np.searchsorted(grid, xs, side="right") - 1, 0, n - 1)
        out = np.maximum(runmax[idx], eval_rate(rate, xs))
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# daughter distribution b(x, y)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FragmentKernel:
    """Daughter distribution b(x, y) >= 0, supported on x <= y."""

    family: str
    nu: float | None = None
    func: object = None
    breakpoints_fn: object = None
    label: str = ""

    @classmethod
    def homogeneous_power(cls, nu: float) -> "FragmentKernel":
        """b(x,y) = (nu+2) x^nu / y^(nu+1); requires nu in (-2, 0]."""
        if not (-2.0 < nu <= 0.0):
            raise InvalidKernelError("homogeneous_power needs nu in (-2, 0]")
        return cls(family="homogeneous_power", nu=float(nu),
                   label=f"homogeneous nu={nu:g}")

    @classmethod
    def boundary_binary(cls) -> "FragmentKernel":
        return cls(family="boundary_binary", label="boundary_binary")

    @classmethod
    def concentrated(cls) -> "FragmentKernel":
        return cls(family="concentrated", label="concentrated")

    @classmethod
    def custom(cls, func, breakpoints=None, label="custom") -> "FragmentKernel":
        """Any b(x, y) = ``func(x, y)``, vectorized over x and y as arrays that broadcast;
        ``breakpoints(y)``, for one float y, lists the x-discontinuities of b(., y)."""
        return cls(family="custom", func=func, breakpoints_fn=breakpoints, label=label)

    @classmethod
    def zero(cls) -> "FragmentKernel":
        """b = 0: every quadrature cell is dead, so its daughter mass is exactly 0."""
        return cls.custom(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)), label="zero")

    def __call__(self, x, y):
        return eval_kernel(self, x, y)

    # -- support structure ---------------------------------------------------

    def breakpoints(self, y: float) -> tuple[float, ...]:
        """Interior x-discontinuities of a custom b(., y), from its ``breakpoints``
        callback, for quadrature splitting; ``()`` without one.  A built-in kernel
        gives ``()`` too: its edges are those of its bands (``_bands``)."""
        if self.breakpoints_fn is None:
            return ()
        return tuple(float(p) for p in self.breakpoints_fn(y))

    def _bands(self, ys: np.ndarray):
        """The band table of a built-in b(., y): ``(q, c0, d0, c1, d1)``, so that
        b(x, y) is c0 x^q on the bottom band [0, d0], c1 on the top band [y - d1, y]
        and 0 between; the top band is empty where d1 = 0.  None for a custom kernel.

        This is the one place where a built-in family's shape is written.
        ``homogeneous_power``, and the split families up to their splits, have the
        bottom band alone: d0 = y.  Above the splits the two bands share one level c
        and each holds one of the two fragments, c d = 1, so d0 = d1 = d is the
        rounded width 1/c.  The edges are d0 and the float y - d1, written nowhere
        else (``breakpoints`` is a custom kernel's); an integral takes the top band
        by its width d1, never as y - fl(y - d1).
        """
        if self.family == "homogeneous_power":
            c0 = (self.nu + 2.0) / ys ** (self.nu + 1.0)
            return self.nu, c0, ys, c0, np.zeros(ys.shape)
        if self.family == "boundary_binary":
            split, c, d = ys > 2.0, 1.0, 1.0
        elif self.family == "concentrated":
            split, c, d = ys > _SQRT2, ys, 1.0 / ys
        else:
            return None
        c0 = np.where(split, c, 2.0 / ys)
        return 0.0, c0, np.where(split, d, ys), c0, np.where(split, d, 0.0)

    # -- partial daughter mass M(s; y) = int_0^min(s,y) b(x,y) x dx -----------

    def mass_partial(self, s, y):
        """Cumulative daughter mass M(s; y); ``s`` and ``y`` broadcast.

        The built-in families sum the closed form of their bands on the whole table;
        a custom kernel takes one batched quadrature pass, ``_mass_partial_numeric``.
        Every y must be positive and finite.
        """
        ys = np.asarray(y, dtype=float)
        _check_parent_sizes(ys)
        scalar = np.ndim(s) == 0 and np.ndim(y) == 0
        s = np.asarray(s, dtype=float)
        bands = self._bands(ys)
        if bands is not None:
            q, c0, d0, c1, d1 = bands
            # s at least 1-d: np.clip returns a numpy scalar for 0-d input, whose ** is
            # another pow than the array path's, so an all-scalar call would round apart
            out = c0 / (q + 2.0) * np.clip(np.atleast_1d(s), 0.0, d0) ** (q + 2.0)
            top = s > np.where(d1 > 0, ys - d1, np.inf)
            if top.any():
                # the top band [t, y] = [y - d1, y] as ((s - y) + d1 + e)(s + t) c1/2: s - y
                # is exact (Sterbenz), where s - t would carry t's rounding, times c1 t, into
                # M(y; y) = y.  e = (1 - c1 d1)/c1 is d1's rounding residual: concentrated's
                # d1 = 1/y alone would leave eps y in M ~ 1/(2y) at s = t
                s, y, t, c, d = (np.broadcast_to(a, top.shape)[top]
                                 for a in (s, ys, ys - d1, c1, d1))
                s = np.minimum(s, y)
                out[top] += 0.5 * c * (((s - y) + d) + _one_minus_product(c, d) / c) * (s + t)
        else:
            out = self._mass_partial_numeric(*np.broadcast_arrays(np.clip(s, 0.0, ys), ys))
        return out.item() if scalar else out

    def _mass_partial_numeric(self, s: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Quadrature for a custom kernel on the broadcast pair ``0 <= s <= y``: one
        cumulative pass per distinct y over its sorted positive s.

        The positive s are sorted by y, then by s, and each run of one y
        (``quadrature._segments``) is a row.  One batched adaptive integral, a row per
        distinct y, reaches each y's smallest s; fixed-order panels between its
        consecutive distinct points, the ``breakpoints`` callback's among them, add
        the rest (``quadrature._log_cell_values``, no refinement).  Geometric points
        are inserted where two consecutive points differ by more than a factor of 2,
        so every panel is accurate near a singular kernel; finer grids, such as the
        simulator's, are used as they are.  The elements that share a y share its
        pass, and an s of 0 gives 0.

        The integrand is ``b(x, y) * exp(log x)``: the daughter mass is n_w with
        w(x) = x.  If a row fails, raises :class:`QuadratureError` with the plain
        values, the failed rows' from their last estimates, as ``partial`` and the
        elements of those rows as ``failed``.
        """
        shape, s, ys = s.shape, s.ravel(), ys.ravel()
        pos = np.flatnonzero(s > 0)
        pos = pos[np.lexsort((s[pos], ys[pos]))]  # by y, then by s
        cuts, counts = _segments(ys[pos])
        y_rows = ys[pos[cuts]]
        bps = [self.breakpoints(float(y)) for y in y_rows]
        log_base, failed_rows = _log_integrate_rows(
            lambda x, i: eval_kernel(self, x, y_rows[i]), np.log,
            ((0.0, s[pos[lo]], bp) for lo, bp in zip(cuts, bps)))
        out = np.zeros(s.shape)
        for y, bp, base, lo, n in zip(y_rows, bps, log_base, cuts, counts):
            at = pos[lo:lo + n]
            pts = np.sort(np.concatenate([s[at], [p for p in bp if s[at[0]] < p < s[at[-1]]]]))
            pts = _geometric_fill(pts[np.r_[True, pts[1:] != pts[:-1]]])
            cells = np.column_stack([pts[:-1], pts[1:]])
            increments = np.exp(_log_cell_values(lambda x: eval_kernel(self, x, y), np.log,
                                                 cells)) if pts.size > 1 else np.zeros(0)
            cum = np.exp(base) + np.concatenate([[0.0], np.cumsum(increments)])
            out[at] = cum[np.searchsorted(pts, s[at])]
        failed = np.zeros(s.shape, dtype=bool)
        failed[pos] = np.repeat(failed_rows, counts)
        if failed.any():
            raise QuadratureError(
                f"daughter mass quadrature did not converge at {np.count_nonzero(failed_rows)} "
                f"of {y_rows.size} parent sizes (first at y = {y_rows[failed_rows][0]:g})",
                partial=out.reshape(shape), failed=failed.reshape(shape))
        return out.reshape(shape)

    def describe(self) -> str:
        return self.label or self.family


def _geometric_fill(pts: np.ndarray) -> np.ndarray:
    """Increasing positive ``pts`` with geometric points added so no gap exceeds a factor of 2."""
    pieces = np.ceil(np.log2(pts[1:] / pts[:-1])).astype(int)
    fill = [pts[i] * (pts[i + 1] / pts[i]) ** (np.arange(1, pieces[i]) / pieces[i])
            for i in np.flatnonzero(pieces > 1)]
    # each filled point lies strictly inside its gap, so the sorted points stay distinct
    return np.sort(np.concatenate([pts, *fill])) if fill else pts


def _one_minus_product(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """1 - y r for y r near 1, the product exact: Dekker's two-product on the frexp
    mantissas of y and r, so that Veltkamp's split by 2^27 + 1 cannot overflow."""
    (m, i), (n, j) = np.frexp(y), np.frexp(r)
    m1, n1 = (x * 134217729.0 - (x * 134217729.0 - x) for x in (m, n))  # 26 bits each
    m2, n2 = m - m1, n - n1
    p = m * n
    err = ((m1 * n1 - p) + m1 * n2 + m2 * n1) + m2 * n2  # m n - p, exactly
    return (1.0 - np.ldexp(p, i + j)) - np.ldexp(err, i + j)  # the first - is exact (Sterbenz)


def _check_parent_sizes(ys: np.ndarray) -> None:
    if ys.size and not (ys.min() > 0 and ys.max() < np.inf):  # a NaN makes min NaN
        raise InvalidKernelError("parent size y must be positive and finite")


def eval_kernel(kernel: FragmentKernel, x, y):
    """Evaluate b(x, y); x and y broadcast, zero on the unsupported region x > y.

    Custom kernels must broadcast over numpy arrays the same way.  Every y must
    be positive and finite.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    _check_parent_sizes(ys)
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    bands = kernel._bands(ys)
    if bands is not None:
        q, c0, d0, c1, d1 = bands
        # x^q is inf at x = 0 for q < 0; np.power is the ufunc on a scalar x too, as on arrays
        with np.errstate(divide="ignore"):
            bottom = c0 * np.power(np.maximum(xs, 0.0), q) if q else c0
        vals = np.where(xs <= d0, bottom, np.where((xs >= ys - d1) & (xs <= ys), c1, 0.0))
    elif kernel.family == "custom":
        vals = np.asarray(kernel.func(xs, ys), dtype=float)
        if np.any(np.where(xs <= ys, vals, 0.0) < 0):
            raise InvalidKernelError("custom kernel returned a negative value")
        vals = np.where(xs > ys, 0.0, vals)
    else:
        raise InvalidKernelError(f"unknown kernel family {kernel.family!r}")
    return float(vals) if scalar else vals


# ---------------------------------------------------------------------------
# mass bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassReport:
    """Sampled mass balance of a kernel.

    ``classification`` is "conserving" when m(y)/y = 1 at every sample (within
    tol), "sub_conserving" when m(y)/y <= 1 + tol everywhere but not all equal
    to 1, and "violating" when some sample produces more mass than the parent.
    Samples whose quadrature failed are listed in ``failed`` and excluded; when
    every sample failed it is "inconclusive" and ``max_excess`` is NaN.
    """

    y_samples: np.ndarray
    m_values: np.ndarray
    classification: str
    max_excess: float
    tol: float
    failed: tuple[int, ...] = field(default_factory=tuple)

    def summary(self) -> str:
        lines = [f"mass balance: {self.classification} (tol={self.tol:g})",
                 f"max excess m(y)/y - 1 = {self.max_excess:.3e}",
                 "      y            m(y)        m(y)/y"]
        for y, m in zip(self.y_samples, self.m_values):
            lines.append(f"{y:12.6g} {m:14.8g} {m / y:13.10f}")
        if self.failed:
            lines.append(f"quadrature failed at sample indices {list(self.failed)}")
        return "\n".join(lines)


def classify_mass(kernel: FragmentKernel, y_samples, tol: float = 1e-8) -> MassReport:
    """Classify a kernel's mass balance over positive, finite samples ``y_samples``
    within a finite ``tol >= 0``."""
    if not 0 <= tol < np.inf:  # a NaN tol fails this test too
        raise InvalidInputError(f"mass tolerance must be finite and non-negative, got {tol!r}")
    ys = np.asarray(y_samples, dtype=float)
    if ys.size == 0 or not np.all((ys > 0) & (ys < np.inf)):  # NaN fails both
        raise InvalidKernelError("y_samples must be non-empty, positive and finite")
    try:
        m, failed = kernel.mass_partial(ys, ys), np.zeros(ys.shape, dtype=bool)
    except QuadratureError as exc:
        m, failed = exc.partial, exc.failed
    excess = m[~failed] / ys[~failed] - 1.0
    max_excess = float(np.max(excess)) if excess.size else np.nan
    if excess.size == 0:
        cls = "inconclusive"
    elif np.all(np.abs(excess) <= tol):
        cls = "conserving"
    elif np.all(excess <= tol):
        cls = "sub_conserving"
    else:
        cls = "violating"
    return MassReport(y_samples=ys, m_values=m, classification=cls,
                      max_excess=max_excess, tol=tol,
                      failed=tuple(np.flatnonzero(failed).tolist()))
