"""Weighted fragment-mass ratios and the admissibility verdicts built on them.

The single quantity everything here revolves around is

    n_w(y) = int_0^y b(x, y) w(x) dx,        r(y) = n_w(y) / w(y).

Three conditions on r decide how much the semigroup theory gives you:

* ``verdict_A32``  -- sup r <= 1 over all sampled y: the generator closes and
  the evolution is substochastic in the w-norm.
* ``verdict_A41``  -- r bounded on (0, eta0] and sup r < 1 on [eta0, y_max]:
  the gain operator is relatively bounded with bound < 1, which upgrades the
  semigroup to analytic and well-posedness to the whole space.
* ``verdict_limsup`` -- a finite-horizon stand-in for the asymptotic version
  of the second condition.  It refuses to certify an asymptotic property the
  sampled trend contradicts: when r is still rising at the horizon and below
  1, the verdict is "inconclusive" rather than "pass" or "fail".

All ratios are computed as exp(log n_w - log w) in log space, so exponential
and super-exponential weights never overflow.

``log_n_samples`` (a grid of y) is the only code that samples n_w: the ratio
curves here, the weight builder and the weight comparison all call it.  It
takes n_w in closed form for the pairs that have one.  A built-in kernel is a
bottom band c0 x^q on [0, d0] and a top band c1 on [y - d1, y]
(``FragmentKernel._bands``), so n_w is a sum of weighted moments of x^q w over
a band given by its lower edge and its width (``Weight._log_moments``): for a
``power`` or ``power_shifted`` weight at any q, and at q = 0 (boundary_binary,
concentrated, homogeneous_power(0)) for an ``exponential``,
``super_exponential``, ``tabulated`` or ``composite`` weight too.  A band that
diverges at 0, such as x^q w with q + p + 1 <= 0 for w = x^p, fails its
sample.  Every other pair, and every custom kernel, goes through one batched
log-sum-exp quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .config import write_csv
from .errors import InvalidInputError, QuadratureError
from .kernels import FragmentKernel, RateFunction, rate_envelope

__all__ = ["log_n_samples", "ratio_curve", "RatioCurve",
           "AdmissibilityReport", "check", "RelativeBoundEstimate", "relative_bound",
           "PASS_MARGIN"]

# tail_estimate must sit below this for a limsup "pass"; separates the
# genuinely-below-1 cases (0.44, 0.5, 0.63) from ratio->1 failures at double
# precision without false positives.
PASS_MARGIN = 0.999

# fitted slope of r per decade above which the tail is treated as still rising
TREND_TOL = 1e-6


def _span(kernel: FragmentKernel, weight, y: float, top: float):
    """``(0, top, breakpoints)`` of n_w(y): the kernel's and the weight's kinks."""
    return 0.0, top, [*kernel.breakpoints(y), *weight.quad_breakpoints(0.0, top)]


def _log_n_pieces(kernel: FragmentKernel, weight, ys: np.ndarray, top: np.ndarray):
    """n_w summed in log space over the bands of a built-in kernel cut at ``top``, each
    a closed-form weighted moment; None where the kernel or the weight has none."""
    bands = kernel._bands(ys)
    if bands is None:
        return None
    q, c0, d0, c1, d1 = bands
    log_n = np.full(ys.shape, -np.inf)
    # [0, min(d0, top)] and [y - d1, top], whose width (top - y) + d1 is d1 itself at top = y
    for q_band, c, lo, width in ((q, c0, np.zeros(ys.shape), np.minimum(d0, top)),
                                 (0.0, c1, ys - d1, (top - ys) + d1)):
        on = width > 0
        log_m = weight._log_moments(q_band, lo[on], width[on])
        if log_m is None:
            return None
        log_n[on] = np.logaddexp(log_n[on], np.log(c[on]) + log_m)
    return log_n


def log_n_samples(kernel: FragmentKernel, weight, ys, hi: float | None = None) -> np.ndarray:
    """log of int_0^min(y, hi) b(x,y) w(x) dx at every y of ``ys``, attempting every sample.

    A built-in kernel whose bands c x^q the weight integrates in closed form
    (``Weight._log_moments``) is summed band by band; every other pair goes
    through one batched quadrature that honors the kernel's and the weight's
    breakpoints.  Each sample gives the same bits as a call on it alone.  If any
    sample fails, raises :class:`QuadratureError` with ``partial`` and ``failed``
    arrays; a closed-form sample fails where a band diverges at 0 (its partial
    is ``+inf``) or the value leaves the float range.
    """
    ys = np.asarray(ys, dtype=float)
    bad = ~((ys > 0) & (ys < np.inf))  # NaN fails both
    if bad.any():
        raise InvalidInputError(f"n_w needs 0 < y < inf, got y = {float(ys[bad][0])!r}")
    top = ys if hi is None else np.minimum(ys, hi)
    log_n = _log_n_pieces(kernel, weight, ys, top)
    if log_n is not None:
        failed = ~(log_n < np.inf)
        what = "is not finite (a band diverges at 0 or leaves the float range)"
    else:
        log_n, failed = quadrature._log_integrate_rows(
            lambda x, i: kernel(x, ys[i]), weight.log_eval,
            (_span(kernel, weight, float(y), float(t)) for y, t in zip(ys, top)))
        what = "quadrature did not converge"
    if np.any(failed):
        raise QuadratureError(
            f"n_w {what} at {np.count_nonzero(failed)} of {ys.size} "
            f"parent sizes (first at y = {ys[failed][0]:g})", partial=log_n, failed=failed)
    return log_n


@dataclass(frozen=True)
class RatioCurve:
    """Sampled ratio r(y) with the log pieces it came from."""

    y: np.ndarray
    log_n: np.ndarray
    log_w: np.ndarray
    ratio: np.ndarray
    failed: np.ndarray  # bool mask; failed samples carry partial estimates

    def csv_columns(self) -> dict:
        return dict(y=self.y, log_n_omega=self.log_n, log_omega=self.log_w, ratio=self.ratio)

    def to_csv(self, path) -> None:
        write_csv(path, self.csv_columns())


def ratio_curve(kernel: FragmentKernel, weight, y_grid) -> RatioCurve:
    """r(y) = n_w(y)/w(y) along an increasing grid, via log-space subtraction."""
    ys = np.asarray(y_grid, dtype=float)
    if np.any(ys <= 0) or np.any(np.diff(ys) < 0):
        raise InvalidInputError("y_grid must be positive and non-decreasing")
    failed = np.zeros(ys.shape, dtype=bool)
    try:
        log_n = log_n_samples(kernel, weight, ys)
    except QuadratureError as exc:
        log_n, failed = exc.partial, exc.failed
    log_w = weight.log_eval(ys)
    with np.errstate(invalid="ignore"):
        ratio = np.exp(log_n - log_w)
    return RatioCurve(y=ys, log_n=log_n, log_w=log_w, ratio=ratio, failed=failed)


def geometric_grid(lo: float, hi: float) -> np.ndarray:
    decades = np.log10(hi / lo)
    n = max(2, int(np.ceil(64 * decades)) + 1)  # 64 points per decade
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Sampled admissibility diagnostics for one (kernel, weight) pair.

    ``kappa_hat``  : sup of r over every sample (both sides of eta0).
    ``kappa1_hat`` : sup of r on (0, eta0] (grid refined geometrically toward 0).
    ``kappa2_hat`` : sup of r on [eta0, y_max].
    ``tail_estimate``: sup of r on [y_max/2, y_max].
    ``trend``      : fitted slope of r per decade over the last decade.
    ``kappa1_growing`` flags a ratio still rising toward y -> 0+ (the sampled
    sup then underestimates the true sup; finiteness is not certified).
    """

    eta0: float
    y_max: float
    main: RatioCurve
    small: RatioCurve
    kappa_hat: float
    kappa1_hat: float
    kappa2_hat: float
    tail_estimate: float
    trend: float
    verdict_A32: bool
    verdict_A41: bool
    verdict_limsup: str  # pass | fail | inconclusive
    kappa1_growing: bool
    kernel_label: str = ""
    weight_label: str = ""

    @property
    def y_grid(self) -> np.ndarray:
        return self.main.y

    @property
    def y_small(self) -> np.ndarray:
        return self.small.y

    @property
    def failed_counts(self) -> tuple[int, int]:
        """Samples whose quadrature failed, below and above eta0."""
        return int(np.count_nonzero(self.small.failed)), int(np.count_nonzero(self.main.failed))

    def summary(self) -> str:
        below, above = self.failed_counts
        when_converged = lambda text: "inconclusive" if below or above else text
        verdict = lambda ok: when_converged("pass" if ok else "fail")
        kappa1 = "pass" if not self.kappa1_growing else "flagged-growing"
        trend = "non-increasing" if self.trend <= TREND_TOL else "increasing"
        lines = [
            f"admissibility report: kernel {self.kernel_label or '?'}, weight {self.weight_label or '?'}",
            f"eta0 = {self.eta0:g}, y_max = {self.y_max:g}, "
            f"samples = {self.y_small.size} below / {self.y_grid.size} above",
            *([f"failed samples = {below} below / {above} above"] if below or above else []),
            f"kappa_hat  = {self.kappa_hat:.12g}",
            f"kappa1_hat = {self.kappa1_hat:.12g}",
            f"kappa2_hat = {self.kappa2_hat:.12g}",
            f"tail_estimate = {self.tail_estimate:.12g}  trend/decade = {self.trend:+.3e}",
            f"verdict_A32    = {verdict(self.verdict_A32)} (sup ratio <= 1)",
            f"verdict_A41    = {verdict(self.verdict_A41)} (tail sup < 1, small-y sup finite)",
            f"verdict_limsup = {self.verdict_limsup}",
            f"verdict_kappa1_bounded = {when_converged(kappa1)}",
            f"verdict_trend  = {when_converged(trend)}",
        ]
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        small, main = self.small.csv_columns(), self.main.csv_columns()
        write_csv(path, {name: np.concatenate([small[name], main[name]]) for name in main})


def check(kernel: FragmentKernel, weight, eta0: float, y_max: float,
          n_samples: int | None = None) -> AdmissibilityReport:
    """Sample r on both sides of eta0 and assemble every verdict.

    The main grid is geometric on [eta0, y_max] (64 points per decade unless
    ``n_samples``, an integer >= 4, pins the count); the small-y grid refines
    geometrically down to eta0 * 1e-6, since boundedness near 0 is what the first condition asks.
    Samples whose quadrature failed enter no sup and no trend fit; if any
    failed, verdict_A32 and verdict_A41 are False and verdict_limsup is
    "inconclusive".
    """
    if not (0 < eta0 < y_max < np.inf):
        raise InvalidInputError("need 0 < eta0 < y_max < inf")
    if n_samples is None:
        y_grid = geometric_grid(eta0, y_max)
    elif isinstance(n_samples, (int, np.integer)) and n_samples >= 4:
        y_grid = np.geomspace(eta0, y_max, n_samples)
    else:
        raise InvalidInputError(f"n_samples must be an integer >= 4, got {n_samples!r}")
    big = ratio_curve(kernel, weight, y_grid)

    y_small = geometric_grid(eta0 * 1e-6, eta0)
    small = ratio_curve(kernel, weight, y_small)

    r_big = np.where(big.failed, -np.inf, big.ratio)
    r_small = np.where(small.failed, -np.inf, small.ratio)
    kappa2 = float(np.max(r_big))
    kappa1 = float(np.max(r_small))
    kappa = max(kappa1, kappa2)

    tail_mask = big.y >= 0.5 * y_max
    tail = float(np.max(r_big[tail_mask]))

    dec_mask = big.y >= 0.1 * y_max
    trend = _slope_per_decade(big.y[dec_mask], r_big[dec_mask])

    # growing toward 0+: r on the smallest sampled decade still rising as y falls
    small_dec = small.y <= y_small[0] * 10.0
    small_slope = _slope_per_decade(small.y[small_dec], r_small[small_dec])
    kappa1_growing = bool(small_slope < -TREND_TOL * max(1.0, kappa1))

    converged = not (np.any(big.failed) or np.any(small.failed))
    verdict_a32 = bool(converged and kappa <= 1.0 + 1e-9)
    verdict_a41 = bool(converged and kappa2 < 1.0 and np.isfinite(kappa1))
    if not converged or (trend > TREND_TOL and tail < 1.0):
        limsup = "inconclusive"
    elif tail < PASS_MARGIN:
        limsup = "pass"
    else:
        limsup = "fail"

    return AdmissibilityReport(
        eta0=eta0, y_max=y_max, main=big, small=small,
        kappa_hat=kappa, kappa1_hat=kappa1, kappa2_hat=kappa2,
        tail_estimate=tail, trend=trend,
        verdict_A32=verdict_a32, verdict_A41=verdict_a41, verdict_limsup=limsup,
        kappa1_growing=kappa1_growing,
        kernel_label=kernel.describe(),
        weight_label=weight.describe())


def _slope_per_decade(y: np.ndarray, r: np.ndarray) -> float:
    good = np.isfinite(r)
    if np.count_nonzero(good) < 2:
        return 0.0
    return float(np.polyfit(np.log10(y[good]), r[good], 1)[0])


@dataclass(frozen=True)
class RelativeBoundEstimate:
    """Sampled constants of the relative bound ||B f|| <= alpha ||A f|| + beta ||f||.

    alpha_hat = kappa2_hat and beta_hat = kappa1_hat * sup of the rate on
    [0, eta0]; alpha_hat < 1 at the sampled horizon is the relative-bound
    hypothesis only, not checked against the dynamics.  With any of the
    ``failed_counts`` (below, above eta0) the estimate is inconclusive.
    """

    alpha_hat: float
    beta_hat: float
    eta0: float
    failed_counts: tuple[int, int]

    def summary(self) -> str:
        below, above = self.failed_counts
        if below or above:
            note = f" (inconclusive: failed samples = {below} below / {above} above)"
        else:
            note = " (alpha_hat < 1: relative-bound hypothesis holds)" if self.alpha_hat < 1 else ""
        return (f"relative bound estimate at eta0 = {self.eta0:g}: "
                f"alpha_hat = {self.alpha_hat:.12g}, beta_hat = {self.beta_hat:.12g}" + note)


def relative_bound(kernel: FragmentKernel, rate: RateFunction, weight,
                   eta0: float, y_max: float) -> RelativeBoundEstimate:
    """Estimate the relative-bound constants from the sampled ratio suprema."""
    report = check(kernel, weight, eta0, y_max)
    a_sup = rate_envelope(rate, eta0)
    return RelativeBoundEstimate(alpha_hat=report.kappa2_hat,
                                 beta_hat=report.kappa1_hat * a_sup,
                                 eta0=eta0, failed_counts=report.failed_counts)
