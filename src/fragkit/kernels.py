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
    Any vectorized callable b(x, y); optional breakpoint and partial-mass
    callbacks let the quadrature and the simulator treat it accurately.

Breakpoint values use the closed intervals above verbatim (left-closed
convention); the choice is measure-zero and invisible to every integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidKernelError, QuadratureError
from .quadrature import log_integrate, panel_sums

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
        if alpha < 0:
            raise InvalidKernelError("power rate needs alpha >= 0 (local boundedness)")
        return cls(family="power", alpha=float(alpha))

    @classmethod
    def constant(cls, level: float = 1.0) -> "RateFunction":
        if level < 0:
            raise InvalidKernelError("rate must be non-negative")
        return cls(family="constant", level=float(level))

    @classmethod
    def zero(cls) -> "RateFunction":
        return cls.constant(0.0)

    @classmethod
    def tabulated(cls, pairs) -> "RateFunction":
        tab = np.asarray(pairs, dtype=float)
        if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
            raise InvalidKernelError("rate table needs at least two (x, a) pairs")
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
    mass_partial_fn: object = None
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
    def custom(cls, func, breakpoints=None, mass_partial=None, label="custom") -> "FragmentKernel":
        return cls(family="custom", func=func, breakpoints_fn=breakpoints,
                   mass_partial_fn=mass_partial, label=label)

    @classmethod
    def zero(cls) -> "FragmentKernel":
        return cls.custom(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                          mass_partial=lambda s, y: np.zeros_like(np.asarray(s, dtype=float)),
                          label="zero")

    def __call__(self, x, y):
        return eval_kernel(self, x, y)

    # -- support structure ---------------------------------------------------

    def breakpoints(self, y: float) -> tuple[float, ...]:
        """Interior x-discontinuities of b(., y), for quadrature splitting."""
        if self.family == "boundary_binary":
            return (1.0, y - 1.0) if y > 2.0 else ()
        if self.family == "concentrated":
            return (1.0 / y, y - 1.0 / y) if y > _SQRT2 else ()
        if self.family == "custom" and self.breakpoints_fn is not None:
            return tuple(float(p) for p in self.breakpoints_fn(y))
        return ()

    # -- partial daughter mass M(s; y) = int_0^min(s,y) b(x,y) x dx -----------

    def mass_partial(self, s, y):
        """Cumulative daughter mass M(s; y); ``s`` and ``y`` broadcast.

        The built-in families evaluate their closed form on the whole table.  A
        custom kernel's ``mass_partial`` callback, or the quadrature fallback,
        gets one scalar y at a time, with the s values it broadcasts against.
        Every y must be positive and finite.
        """
        ys = np.asarray(y, dtype=float)
        _check_parent_sizes(ys)
        ss = np.clip(np.asarray(s, dtype=float), 0.0, ys)
        scalar = np.ndim(s) == 0 and np.ndim(y) == 0
        if self.family == "homogeneous_power":
            out = ys * (ss / ys) ** (self.nu + 2.0)
        elif self.family == "boundary_binary":
            # top band as (s - t)(s + t): s^2 - t^2 would cancel near the parent
            t = ys - 1.0
            out = np.where(ys <= 2.0, ss ** 2 / ys,
                           np.where(ss <= 1.0, 0.5 * ss ** 2,
                                    np.where(ss <= t, 0.5, 0.5 + 0.5 * (ss - t) * (ss + t))))
        elif self.family == "concentrated":
            # top band as ((s - y) + 1/y)(s + t): s - y is exact (Sterbenz), where
            # s - t would carry t's rounding, times y t, into M(y; y) = y.  1/y is
            # r + e, e its rounding residual: r alone leaves eps y in M ~ 1/(2y) at s = t
            c, r = 0.5 / ys, 1.0 / ys
            t = ys - r
            e = _one_minus_product(ys, r) / ys
            out = np.where(ys <= _SQRT2, ss ** 2 / ys,
                           np.where(ss <= r, 0.5 * ys * ss ** 2,
                                    np.where(ss <= t, c,
                                             c + 0.5 * ys * (((ss - ys) + r) + e) * (ss + t))))
        else:
            # one call per element of y, with the s values that element broadcasts against
            out = np.empty(ss.shape)
            yb = ys.reshape((1,) * (ss.ndim - ys.ndim) + ys.shape)
            for k in np.ndindex(yb.shape):
                at = tuple(slice(None) if n == 1 else i for i, n in zip(k, yb.shape))
                y_k = float(yb[k])
                out[at] = self._mass_partial_numeric(ss[at], y_k) \
                    if self.mass_partial_fn is None else self.mass_partial_fn(ss[at], y_k)
        return float(out) if scalar else out

    def _mass_partial_numeric(self, s, y: float) -> np.ndarray:
        """Quadrature fallback in one cumulative pass over the sorted positive s.

        An adaptive integral reaches the smallest one; fixed-order panels between
        consecutive points add the rest.  Geometric points are inserted where two
        consecutive points differ by more than a factor of 2, so every panel is
        accurate near a singular kernel; finer grids, such as the simulator's, are
        used as they are.  Results come back in the shape and order of ``s``; zeros
        map to 0.

        The integrand is ``b(x, y) * exp(log x)``: the daughter mass is n_w with
        w(x) = x.  A failure carries the plain partial value, not its log.
        """
        b = lambda x: eval_kernel(self, x, y)
        bps = self.breakpoints(y)
        shape, s_flat = np.shape(s), np.ravel(s)
        order = np.argsort(s_flat)
        order = order[s_flat[order] > 0]
        s = s_flat[order]
        out = np.zeros_like(s_flat)
        if s.size:
            try:
                log_base, _ = log_integrate(b, np.log, 0.0, float(s[0]), breakpoints=bps,
                                            grade_lo=True)
            except QuadratureError as exc:
                raise QuadratureError(str(exc), partial=float(np.exp(exc.partial))) from None
            pts = np.unique(np.concatenate([s, [p for p in bps if s[0] < p < s[-1]]]))
            pts = _geometric_fill(pts)
            increments = np.exp(panel_sums(b, np.log, pts)) if pts.size > 1 else np.zeros(0)
            cum = np.exp(log_base) + np.concatenate([[0.0], np.cumsum(increments)])
            out[order] = cum[np.searchsorted(pts, s)]
        return out.reshape(shape)

    def describe(self) -> str:
        return self.label or self.family


def _geometric_fill(pts: np.ndarray) -> np.ndarray:
    """Increasing positive ``pts`` with geometric points added so no gap exceeds a factor of 2."""
    pieces = np.ceil(np.log2(pts[1:] / pts[:-1])).astype(int)
    fill = [a * (b / a) ** (np.arange(1, n) / n)
            for a, b, n in zip(pts[:-1], pts[1:], pieces) if n > 1]
    return np.unique(np.concatenate([pts, *fill])) if fill else pts


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
    if kernel.family == "homogeneous_power":
        nu = kernel.nu
        with np.errstate(divide="ignore"):
            vals = (nu + 2.0) * np.where(xs > 0, xs, np.nan) ** nu / ys ** (nu + 1.0)
        vals = np.where(xs > 0, vals,
                        np.inf if nu < 0 else (nu + 2.0) / ys)
    elif kernel.family == "boundary_binary":
        vals = np.where(ys <= 2.0, 2.0 / ys,
                        np.where((xs <= 1.0) | (xs >= ys - 1.0), 1.0, 0.0))
    elif kernel.family == "concentrated":
        vals = np.where(ys <= _SQRT2, 2.0 / ys,
                        np.where((xs <= 1.0 / ys) | (xs >= ys - 1.0 / ys), ys, 0.0))
    elif kernel.family == "custom":
        vals = np.asarray(kernel.func(xs, ys), dtype=float)
        if np.any(np.where(xs <= ys, vals, 0.0) < 0):
            raise InvalidKernelError("custom kernel returned a negative value")
    else:
        raise InvalidKernelError(f"unknown kernel family {kernel.family!r}")
    vals = np.where(xs > ys, 0.0, vals)
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
    """Classify a kernel's mass balance over positive, finite samples ``y_samples``."""
    ys = np.asarray(y_samples, dtype=float)
    if ys.size == 0 or not np.all((ys > 0) & (ys < np.inf)):  # NaN fails both
        raise InvalidKernelError("y_samples must be non-empty, positive and finite")
    m = np.empty_like(ys)
    failed = []
    for i, y in enumerate(ys):
        try:
            m[i] = kernel.mass_partial(y, y)
        except QuadratureError as exc:
            m[i] = exc.partial if exc.partial is not None else np.nan
            failed.append(i)
    ok = np.ones(ys.shape, dtype=bool)
    ok[failed] = False
    excess = m[ok] / ys[ok] - 1.0
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
                      max_excess=max_excess, tol=tol, failed=tuple(failed))
