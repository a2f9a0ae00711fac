"""Weight functions for the moment spaces, evaluated in log space.

Every weight exposes ``log_eval`` exactly (super-exponential weights reach
e.g. log w ~ 2500 on the grids the tail diagnostics use, far past the double
range), and ``eval`` as a convenience that may round to ``inf``.  Tabulated
weights interpolate log w piecewise-linearly in x, i.e. the weight itself is
piecewise exponential, which preserves positivity and the growth class of
constructed weights.

Families: ``power`` x^p, ``power_shifted`` 1 + x^p, ``exponential`` c^x,
``super_exponential`` x e^{x^2}, ``tabulated``, and ``composite`` (an exact
base weight below a cutoff glued to a tabulated tail — the form produced by
the constructive weight builder).

``Weight._log_moments`` gives log int x^q w(x) dx over a band [lo, lo + width]
in closed form where the family has one, which ``admissibility.log_n_samples``
sums over the bands of a built-in kernel.  A band is given by its width, not by
its upper edge, so a narrow band far from 0 keeps its accuracy.

The two weight checks are one test, that a quotient of two weights is
non-decreasing along a grid, read from ``log_eval``: ``gamma_monotone_check``
takes w(x)/x, and ``compare_weights``' ordering hypothesis w2(x)/w1(x).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, QuadratureError, WeightDomainError
from .kernels import RateFunction, rate_envelope

__all__ = ["Weight", "ComparisonVerdict", "gamma_monotone_check",
           "derived_weight", "compare_weights"]

# most knots of a tabulated weight that split one integral's panels (evenly thinned)
_MAX_QUAD_BREAKPOINTS = 256


@dataclass(frozen=True)
class Weight:
    """A non-negative weight w on [0, inf) with exact log evaluation."""

    family: str
    p: float | None = None
    base: float | None = None
    knots: np.ndarray | None = None
    log_values: np.ndarray | None = None
    base_weight: "Weight | None" = None
    cutoff: float | None = None
    log_offset: float = 0.0

    # -- constructors ---------------------------------------------------------

    @classmethod
    def power(cls, p: float) -> "Weight":
        if not np.isfinite(p):
            raise WeightDomainError(f"power weight needs a finite p, got {p!r}")
        return cls(family="power", p=float(p))

    @classmethod
    def power_shifted(cls, p: float) -> "Weight":
        """w(x) = 1 + x^p; p=1 gives the classic number-plus-mass weight."""
        if not np.isfinite(p):
            raise WeightDomainError(f"power_shifted weight needs a finite p, got {p!r}")
        return cls(family="power_shifted", p=float(p))

    @classmethod
    def exponential(cls, base: float) -> "Weight":
        if not 1.0 < base < np.inf:  # a NaN base fails this test too
            raise WeightDomainError(f"exponential weight needs a finite base c > 1, got {base!r}")
        return cls(family="exponential", base=float(base))

    @classmethod
    def super_exponential(cls) -> "Weight":
        """w(x) = x e^{x^2}."""
        return cls(family="super_exponential")

    @classmethod
    def tabulated(cls, knots, log_values) -> "Weight":
        k = np.asarray(knots, dtype=float)
        v = np.asarray(log_values, dtype=float)
        if k.ndim != 1 or k.shape != v.shape or k.size < 2:
            raise WeightDomainError("tabulated weight needs matching 1-d knots/log values (>= 2)")
        if not (np.isfinite(k).all() and np.isfinite(v).all()):  # a NaN knot passes diff <= 0
            raise WeightDomainError("tabulated weight needs finite knots and log values")
        if np.any(np.diff(k) <= 0):
            raise WeightDomainError("tabulated weight knots must be strictly increasing")
        return cls(family="tabulated", knots=k, log_values=v)

    @classmethod
    def composite(cls, base_weight: "Weight", cutoff: float, knots, log_values) -> "Weight":
        tail = cls.tabulated(knots, log_values)
        return cls(family="composite", base_weight=base_weight, cutoff=float(cutoff),
                   knots=tail.knots, log_values=tail.log_values)

    def scaled(self, lam: float) -> "Weight":
        """The weight lam * w, kept exact as a log-space offset."""
        if not 0 < lam < np.inf:
            raise WeightDomainError(f"scaling factor must be positive and finite, got {lam!r}")
        return replace(self, log_offset=self.log_offset + float(np.log(lam)))

    # -- evaluation -------------------------------------------------------------

    def _check_log_domain(self, xs) -> None:
        """Refuse x < 0 or NaN, and x = 0 where log w is undefined."""
        if not np.all(xs >= 0):
            raise WeightDomainError("weights live on [0, inf); x has a negative or NaN entry")
        if self.family in ("power", "super_exponential") and np.any(xs == 0):
            raise WeightDomainError(f"log of a {self.family} weight is undefined at x = 0")

    def log_eval(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = np.ndim(x) == 0
        self._check_log_domain(xs)
        fam = self.family
        if fam == "power":
            out = self.p * np.log(xs)
        elif fam == "power_shifted":
            safe = np.where(xs > 0, xs, 1.0)
            out = np.where(xs > 0, np.logaddexp(0.0, self.p * np.log(safe)), 0.0)
        elif fam == "exponential":
            out = xs * np.log(self.base)
        elif fam == "super_exponential":
            out = np.log(xs) + xs * xs
        elif fam == "tabulated":
            out = self._interp_log(xs)
        elif fam == "composite":
            below = xs < self.cutoff
            out = np.where(below,
                           self.base_weight.log_eval(np.where(below, xs, self.cutoff)),
                           self._interp_log(np.where(below, self.cutoff, xs)))
        else:
            raise WeightDomainError(f"unknown weight family {fam!r}")
        out = out + self.log_offset
        return float(out) if scalar else out

    def _interp_log(self, xs):
        k, v = self.knots, self.log_values
        out = np.interp(xs, k, v)
        # extend the boundary segments instead of clamping
        lo_slope = (v[1] - v[0]) / (k[1] - k[0])
        hi_slope = (v[-1] - v[-2]) / (k[-1] - k[-2])
        out = np.where(xs < k[0], v[0] + lo_slope * (xs - k[0]), out)
        out = np.where(xs > k[-1], v[-1] + hi_slope * (xs - k[-1]), out)
        return out

    def eval(self, x):
        """w(x); rounds to inf past the double range and to 0 at x=0 for vanishing families."""
        xs = np.asarray(x, dtype=float)
        scalar = np.ndim(x) == 0
        if not np.all(xs >= 0):
            raise WeightDomainError("weights live on [0, inf); x has a negative or NaN entry")
        scale = np.exp(self.log_offset)
        with np.errstate(over="ignore"):
            if self.family == "power":
                out = scale * xs ** self.p
            elif self.family == "power_shifted":
                out = scale * (1.0 + xs ** self.p)
            elif self.family == "exponential":
                out = scale * self.base ** xs
            elif self.family == "super_exponential":
                out = scale * xs * np.exp(xs * xs)
            else:
                out = np.exp(self.log_eval(xs))
        return float(out) if scalar else out

    def __call__(self, x):
        return self.eval(x)

    # -- structure ----------------------------------------------------------------

    def quad_breakpoints(self, lo: float, hi: float) -> tuple[float, ...]:
        """Kinks of log w inside (lo, hi) worth splitting quadrature panels at."""
        pts: list[float] = []
        if self.family == "composite" and lo < self.cutoff < hi:
            pts.append(self.cutoff)
        if self.family in ("tabulated", "composite"):
            inside = self.knots[(self.knots > lo) & (self.knots < hi)]
            if inside.size > _MAX_QUAD_BREAKPOINTS:
                inside = inside[:: int(np.ceil(inside.size / _MAX_QUAD_BREAKPOINTS))]
            pts.extend(float(t) for t in inside)
        return tuple(pts)

    def _log_moments(self, q: float, lo, width):
        """log of int_lo^(lo+width) x^q w(x) dx for each pair ``lo >= 0``, ``width > 0``
        in closed form, or None where the family has none for this ``q``.

        ``power`` and ``power_shifted`` have one for every q; ``exponential``,
        ``super_exponential``, ``tabulated`` and ``composite`` (whose base below the
        cutoff takes its own family's rule) for q = 0.  An integral that diverges at
        ``lo = 0`` is ``+inf``.  A band is taken by its width, so a narrow one loses
        nothing to the rounding of its upper edge.
        """
        fam = self.family
        if fam == "power":
            out = _log_power_moments(q + self.p + 1.0, lo, width)
        elif fam == "power_shifted":
            out = np.logaddexp(_log_power_moments(q + 1.0, lo, width),
                               _log_power_moments(q + self.p + 1.0, lo, width))
        elif q != 0.0:
            return None
        elif fam == "exponential":
            beta = np.log(self.base)
            out = beta * lo + np.log(width) + _log_expm1_ratio(beta * width)
        elif fam == "super_exponential":
            d = width * (2.0 * lo + width)  # hi^2 - lo^2 without cancellation
            out = lo * lo + np.log(0.5 * d) + _log_expm1_ratio(d)
        elif fam == "tabulated":
            out = _log_table_integrals(self.knots, self.log_values, lo, width)
        elif fam == "composite":
            below, above = lo < self.cutoff, width > self.cutoff - lo
            base = self.base_weight._log_moments(
                q, lo[below], np.minimum(width, self.cutoff - lo)[below])
            if base is None:
                return None
            out = np.full(lo.shape, -np.inf)
            out[below] = base
            start = np.maximum(lo[above], self.cutoff)
            out[above] = np.logaddexp(out[above], _log_table_integrals(
                self.knots, self.log_values, start, width[above] - (start - lo[above])))
        else:
            return None
        return out + self.log_offset

    def describe(self) -> str:
        if self.family == "power":
            return f"w(x) = x^{self.p:g}"
        if self.family == "power_shifted":
            return f"w(x) = 1 + x^{self.p:g}"
        if self.family == "exponential":
            return f"w(x) = {self.base:g}^x"
        if self.family == "super_exponential":
            return "w(x) = x exp(x^2)"
        if self.family == "composite":
            return f"composite weight (base below {self.cutoff:g}, {self.knots.size} knots)"
        return f"tabulated weight ({self.knots.size} knots)"


def _log_expm1_ratio(z):
    """log(expm1(z)/z) elementwise, within a few eps absolute for every z; 0 at z = 0."""
    a = np.abs(z)
    safe = np.where(a > 0, a, 1.0)
    return np.where(a > 0, np.maximum(z, 0.0) + np.log(-np.expm1(-safe)) - np.log(safe), 0.0)


def _log_power_moments(s: float, lo, width):
    """log of int_lo^(lo+width) x^(s-1) dx for each pair ``lo >= 0``, ``width > 0``:
    lo^s L phi(s L) with L = log(1 + width/lo) and phi(z) = expm1(z)/z, so a narrow band
    loses nothing; +inf where lo = 0 and s <= 0, where the integral diverges."""
    at0 = lo == 0.0
    l = np.where(at0, 0.5 * width, lo)  # a stand-in at lo = 0, where the band form is not used
    span = np.where(width <= l, np.log1p(width / l), np.log(l + width) - np.log(l))
    band = s * np.log(l) + np.log(span) + _log_expm1_ratio(s * span)
    return np.where(at0, s * np.log(width) - np.log(s) if s > 0 else np.inf, band)


def _log_table_integrals(knots, log_values, lo, width):
    """log of int_lo^(lo+width) exp(v(x)) dx for each pair ``width > 0``, v the
    piecewise-linear interpolant of ``log_values`` with its end segments extended: an
    exact sum of log-linear segments.

    Each span is a partial segment at either end and the whole segments between
    them.  Those are summed from a pairwise tree of block sums, O(log n) blocks per
    span, never as a difference of two prefix sums, whose cancellation would cost a
    narrow band its accuracy.  A span within one segment is taken by its width.
    """
    k, v = knots, log_values
    slope = np.diff(v) / np.diff(k)
    last = slope.size - 1

    def segment(u, d, j):  # int_u^(u+d) on the segment line j, d > 0
        return v[j] + slope[j] * (u - k[j]) + np.log(d) + _log_expm1_ratio(slope[j] * d)

    hi = lo + width
    i = np.searchsorted(k, lo, side="right")  # the knots strictly inside are k[i:j]
    j = np.searchsorted(k, hi, side="left")
    inside = j > i
    out = segment(lo, np.where(inside, k[np.minimum(i, k.size - 1)] - lo, width),
                  np.clip(i - 1, 0, last))
    top, l, w = j[inside] - 1, lo[inside], width[inside]
    # the part past k[top]: (l - k[top]) + w keeps a narrow band's width where l - k[top]
    # is exact (Sterbenz); elsewhere it could round to <= 0, and hi - k[top] cannot
    d = np.where(2.0 * l >= k[top], (l - k[top]) + w, hi[inside] - k[top])
    out[inside] = np.logaddexp(out[inside], segment(k[top], d, np.minimum(top, last)))
    # whole segments i .. j - 2: a bottom-up pass over the tree of pairwise sums
    level, a, b = segment(k[:-1], np.diff(k), np.arange(slope.size)), i, np.maximum(j - 1, i)
    while np.any(a < b):
        take = (a < b) & (a % 2 == 1)
        out[take] = np.logaddexp(out[take], level[a[take]])
        a = a + take
        take = (a < b) & (b % 2 == 1)
        b = b - take
        out[take] = np.logaddexp(out[take], level[b[take]])
        a, b = a // 2, b // 2
        level = np.logaddexp(level[0::2], np.append(level[1::2], [-np.inf] * (level.size % 2)))
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _log_ratio_non_decreasing(w_lo: Weight, w_hi: Weight, grid) -> bool:
    """True when w_hi/w_lo is non-decreasing along ``grid``, read from ``log_eval``.

    A step of log(w_hi/w_lo) down by less than the rounding of the log weights,
    1e-12 max(1, |log w|) at either end of the step, is no step down.
    """
    g = np.asarray(grid, dtype=float)
    if g.size < 2 or not (np.all(g > 0) and np.all(np.diff(g) > 0)):  # a NaN fails too
        raise WeightDomainError("grid must be positive and strictly increasing")
    lo, hi = w_lo.log_eval(g), w_hi.log_eval(g)
    scale = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return bool(np.all(np.diff(hi - lo) >= -1e-12 * np.maximum(scale[:-1], scale[1:])))


def gamma_monotone_check(weight: Weight, grid) -> bool:
    """True when gamma(x) = w(x)/x is non-decreasing along the grid.

    For a kernel that never produces more daughter mass than the parent, a
    non-decreasing gamma makes the weighted fragment mass satisfy
    n_w(y) <= w(y), i.e. the kappa <= 1 admissibility condition holds for free.
    """
    return _log_ratio_non_decreasing(Weight.power(1.0), weight, grid)


def derived_weight(weight: Weight, rate: RateFunction, knots) -> Weight:
    """Tabulated weight (1 + c(x)) w(x) with c the non-decreasing rate envelope.

    The graph norm of the rate multiplication operator turns the space for w
    into the space for this weight, which the evolution leaves invariant.
    """
    k = np.asarray(knots, dtype=float)
    c = rate_envelope(rate, k)
    return Weight.tabulated(k, np.log1p(c) + weight.log_eval(k))


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of the two-weight tail-ratio comparison.

    ``hypothesis_holds``: w2/w1 is non-decreasing along the grid, the sampled
    form of (log w1)' <= (log w2)'.
    ``pointwise_inequality_holds``: r1(y) >= r2(y) at every sampled y, where
    r_i(y) is the weighted fragment mass ratio n_{w_i}(y)/w_i(y).  On a grid
    fine enough to see w2/w1 fall, the first implies the second; a
    counterexample would be a genuine bug.
    ``failed`` marks the samples whose quadrature did not converge for either
    weight.  Their ratios are partial estimates, and if there is any, the
    comparison is inconclusive and ``pointwise_inequality_holds`` is False.
    """

    hypothesis_holds: bool
    pointwise_inequality_holds: bool
    x_grid: np.ndarray
    y_samples: np.ndarray
    ratio1: np.ndarray
    ratio2: np.ndarray
    failed: np.ndarray

    @property
    def inconclusive(self) -> bool:
        return bool(np.any(self.failed))

    def summary(self) -> str:
        pointwise = "inconclusive" if self.inconclusive else self.pointwise_inequality_holds
        lines = [f"log-derivative ordering holds on grid: {self.hypothesis_holds}",
                 f"pointwise ratio inequality r1 >= r2:   {pointwise}"]
        if self.inconclusive:
            lines.append("quadrature failed at y = "
                         + ", ".join(f"{y:g}" for y in self.y_samples[self.failed]))
        lines.append("      y        r1(y)        r2(y)")
        for y, r1, r2 in zip(self.y_samples, self.ratio1, self.ratio2):
            lines.append(f"{y:10.4g} {r1:12.8f} {r2:12.8f}")
        return "\n".join(lines)


def compare_weights(w1: Weight, w2: Weight, kernel, x_grid, y_samples) -> ComparisonVerdict:
    """Check the ordering hypothesis and the ratio inequality it implies.

    Increasing weights with (log w1)' <= (log w2)', i.e. with w2/w1
    non-decreasing, force the larger-growth weight to see a smaller
    fragment-mass ratio.  The hypothesis is checked as w2/w1 non-decreasing
    along ``x_grid``, from ``log_eval`` for every family (the test of
    :func:`gamma_monotone_check` with w1 in place of x); the sampled form of
    the conclusion is evaluated by quadrature.
    """
    from .admissibility import log_n_samples  # local import; admissibility is weight-agnostic

    xg = np.asarray(x_grid, dtype=float)
    if xg.size < 2:
        raise InvalidInputError(f"x_grid needs at least 2 points, got {xg.size}")
    hypothesis = _log_ratio_non_decreasing(w1, w2, xg)

    ys = np.asarray(y_samples, dtype=float)
    if ys.size == 0:  # no sample would make the inequality hold vacuously
        raise InvalidInputError("y_samples needs at least 1 point")
    failed = np.zeros(ys.shape, dtype=bool)
    ratios = []
    for w in (w1, w2):
        try:
            log_n = log_n_samples(kernel, w, ys)
        except QuadratureError as exc:  # keep the partials; the verdict is inconclusive
            log_n = exc.partial
            failed |= exc.failed
        with np.errstate(invalid="ignore"):
            ratios.append(np.exp(log_n - w.log_eval(ys)))
    r1, r2 = ratios
    pointwise = bool(not failed.any() and np.all(r1 >= r2 - 1e-10 * np.maximum(r2, 1.0)))
    return ComparisonVerdict(hypothesis_holds=hypothesis,
                             pointwise_inequality_holds=pointwise,
                             x_grid=xg, y_samples=ys, ratio1=r1, ratio2=r2,
                             failed=failed)
