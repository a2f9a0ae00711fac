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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .errors import WeightDomainError
from .kernels import RateFunction, rate_envelope

__all__ = ["Weight", "ComparisonVerdict", "gamma_monotone_check",
           "derived_weight", "compare_weights"]

_EXP_CLASS = ("exponential", "super_exponential")


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
        return cls(family="power", p=float(p))

    @classmethod
    def power_shifted(cls, p: float) -> "Weight":
        """w(x) = 1 + x^p; p=1 gives the classic number-plus-mass weight."""
        return cls(family="power_shifted", p=float(p))

    @classmethod
    def exponential(cls, base: float) -> "Weight":
        if base <= 1.0:
            raise WeightDomainError("exponential weight needs base c > 1")
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
        if lam <= 0:
            raise WeightDomainError("scaling factor must be positive")
        return replace(self, log_offset=self.log_offset + float(np.log(lam)))

    # -- evaluation -------------------------------------------------------------

    def log_eval(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = np.ndim(x) == 0
        if np.any(xs < 0):
            raise WeightDomainError("weights live on [0, inf)")
        fam = self.family
        if fam in ("power", "super_exponential") and np.any(xs == 0):
            raise WeightDomainError(f"log of a {fam} weight is undefined at x = 0")
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
        if np.any(xs < 0):
            raise WeightDomainError("weights live on [0, inf)")
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

    @property
    def exponential_class(self) -> bool:
        """True when linear-space evaluation overflows on moderate grids."""
        if self.family in _EXP_CLASS:
            return True
        if self.family in ("tabulated", "composite"):
            return bool(np.max(self.log_values) > 500.0)
        return False

    @property
    def monotone(self) -> bool:
        """Whether the weight is non-decreasing (exact per family)."""
        if self.family in ("power", "power_shifted"):
            return self.p >= 0
        if self.family in ("exponential", "super_exponential"):
            return True
        increasing = bool(np.all(np.diff(self.log_values) >= 0))
        if self.family == "composite":
            return increasing and self.base_weight.monotone
        return increasing

    def log_derivative(self, x):
        """d/dx log w(x) = w'(x)/w(x); the comparison test only needs this ratio.

        Analytic for the smooth families.  Tabulated weights use central
        differences of log w at the knots (one-sided at the two endpoints),
        interpolated linearly between knots.
        """
        xs = np.asarray(x, dtype=float)
        scalar = np.ndim(x) == 0
        fam = self.family
        if fam == "power":
            out = self.p / xs
        elif fam == "power_shifted":
            # (p/x) * x^p/(1+x^p); the sigmoid keeps large x^p finite
            t = self.p * np.log(np.where(xs > 0, xs, 1.0))
            out = np.where(xs > 0, self.p / np.where(xs > 0, xs, 1.0) * expit(t), 0.0)
        elif fam == "exponential":
            out = np.full_like(xs, np.log(self.base))
        elif fam == "super_exponential":
            out = 1.0 / xs + 2.0 * xs
        elif fam in ("tabulated", "composite"):
            if fam == "composite" and np.any(xs < self.cutoff):
                raise WeightDomainError("log_derivative of a composite weight below its cutoff")
            k, v = self.knots, self.log_values
            d = np.gradient(v, k)
            out = np.interp(xs, k, d)
        else:
            raise WeightDomainError(f"unknown weight family {fam!r}")
        return float(out) if scalar else out

    def quad_breakpoints(self, lo: float, hi: float, cap: int = 256) -> tuple[float, ...]:
        """Kinks of log w inside (lo, hi) worth splitting quadrature panels at."""
        pts: list[float] = []
        if self.family == "composite" and lo < self.cutoff < hi:
            pts.append(self.cutoff)
        if self.family in ("tabulated", "composite"):
            inside = self.knots[(self.knots > lo) & (self.knots < hi)]
            if inside.size > cap:
                inside = inside[:: int(np.ceil(inside.size / cap))]
            pts.extend(float(t) for t in inside)
        return tuple(pts)

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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def gamma_monotone_check(weight: Weight, grid) -> bool:
    """True when gamma(x) = w(x)/x is non-decreasing along the grid.

    For a kernel that never produces more daughter mass than the parent, a
    non-decreasing gamma makes the weighted fragment mass satisfy
    n_w(y) <= w(y), i.e. the kappa <= 1 admissibility condition holds for free.
    """
    g = np.asarray(grid, dtype=float)
    if g.size < 2 or np.any(g <= 0) or np.any(np.diff(g) <= 0):
        raise WeightDomainError("grid must be strictly increasing and positive")
    log_gamma = weight.log_eval(g) - np.log(g)
    return bool(np.all(np.diff(log_gamma) >= -1e-12))


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

    ``hypothesis_holds``: (log w1)' <= (log w2)' at every grid point.
    ``pointwise_inequality_holds``: r1(y) >= r2(y) at every sampled y, where
    r_i(y) is the weighted fragment mass ratio n_{w_i}(y)/w_i(y).  The first
    implies the second; a counterexample would be a genuine bug.
    """

    hypothesis_holds: bool
    pointwise_inequality_holds: bool
    x_grid: np.ndarray
    y_samples: np.ndarray
    ratio1: np.ndarray
    ratio2: np.ndarray
    onesided_endpoints: bool = False

    def summary(self) -> str:
        lines = [f"log-derivative ordering holds on grid: {self.hypothesis_holds}",
                 f"pointwise ratio inequality r1 >= r2:   {self.pointwise_inequality_holds}"]
        if self.onesided_endpoints:
            lines.append("note: one-sided differences used at table endpoints")
        lines.append("      y        r1(y)        r2(y)")
        for y, r1, r2 in zip(self.y_samples, self.ratio1, self.ratio2):
            lines.append(f"{y:10.4g} {r1:12.8f} {r2:12.8f}")
        return "\n".join(lines)


def compare_weights(w1: Weight, w2: Weight, kernel, x_grid, y_samples,
                    spec=None) -> ComparisonVerdict:
    """Check the ordering hypothesis and the ratio inequality it implies.

    Increasing differentiable weights with (log w1)' <= (log w2)' pointwise
    force the larger-growth weight to see a smaller fragment-mass ratio; the
    sampled form of that conclusion is evaluated by quadrature here.
    """
    from .admissibility import log_n_samples  # local import; admissibility is weight-agnostic

    for w in (w1, w2):
        if w.family in ("tabulated", "composite") and w.knots.size < 3:
            raise WeightDomainError("comparison needs >= 3 knots for a finite-difference "
                                    "derivative of a tabulated weight")
    xg = np.asarray(x_grid, dtype=float)
    if np.any(xg <= 0) or np.any(np.diff(xg) <= 0):
        raise WeightDomainError("x_grid must be positive and strictly increasing")
    d1 = w1.log_derivative(xg)
    d2 = w2.log_derivative(xg)
    hypothesis = bool(np.all(d1 <= d2 + 1e-12 * np.maximum(np.abs(d2), 1.0)))
    onesided = any(w.family in ("tabulated", "composite")
                   and (np.any(xg <= w.knots[0]) or np.any(xg >= w.knots[-1]))
                   for w in (w1, w2))

    ys = np.asarray(y_samples, dtype=float)
    r1 = np.exp(log_n_samples(kernel, w1, ys, spec=spec) - w1.log_eval(ys))
    r2 = np.exp(log_n_samples(kernel, w2, ys, spec=spec) - w2.log_eval(ys))
    pointwise = bool(np.all(r1 >= r2 - 1e-10 * np.maximum(r2, 1.0)))
    return ComparisonVerdict(hypothesis_holds=hypothesis,
                             pointwise_inequality_holds=pointwise,
                             x_grid=xg, y_samples=ys, ratio1=r1, ratio2=r2,
                             onesided_endpoints=onesided)
