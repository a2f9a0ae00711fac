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

All ratios are computed as exp(log n_w - log w) with log-sum-exp quadrature,
so exponential and super-exponential weights never overflow.

``log_n_omega`` (one y) and ``log_n_samples`` (a grid of y) are the only code
that samples n_w; the weight builder and the weight comparison call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import write_csv
from .errors import QuadratureError
from .kernels import FragmentKernel, RateFunction, rate_envelope
from .quadrature import DEFAULT_SPEC, QuadratureSpec, log_integrate

__all__ = ["log_n_omega", "log_n_samples", "n_omega", "ratio_curve", "RatioCurve",
           "AdmissibilityReport", "check", "RelativeBoundEstimate", "relative_bound",
           "PASS_MARGIN"]

# tail_estimate must sit below this for a limsup "pass"; separates the
# genuinely-below-1 cases (0.44, 0.5, 0.63) from ratio->1 failures at double
# precision without false positives.
PASS_MARGIN = 0.999

# fitted slope of r per decade above which the tail is treated as still rising
TREND_TOL = 1e-6


def log_n_omega(kernel: FragmentKernel, weight, y: float,
                spec: QuadratureSpec | None = None, hi: float | None = None) -> float:
    """log of int_0^min(y, hi) b(x,y) w(x) dx, honoring kernel and weight breakpoints."""
    if y <= 0:
        raise ValueError("n_w needs y > 0")
    spec = spec or DEFAULT_SPEC
    top = y if hi is None else min(y, hi)
    bps = list(kernel.breakpoints(y))
    if hasattr(weight, "quad_breakpoints"):
        bps.extend(weight.quad_breakpoints(0.0, top))
    val, _ = log_integrate(lambda x: kernel(x, y), weight.log_eval, 0.0, top,
                           breakpoints=bps, spec=spec, grade_lo=True)
    return val


def log_n_samples(kernel: FragmentKernel, weight, ys,
                  spec: QuadratureSpec | None = None, hi: float | None = None) -> np.ndarray:
    """``log_n_omega`` at every y of ``ys``, attempting every sample.

    If any sample fails, raises :class:`QuadratureError` with ``partial`` and ``failed`` arrays.
    """
    ys = np.asarray(ys, dtype=float)
    log_n = np.empty_like(ys)
    failed = np.zeros(ys.shape, dtype=bool)
    for i, y in enumerate(ys):
        try:
            log_n[i] = log_n_omega(kernel, weight, float(y), spec=spec, hi=hi)
        except QuadratureError as exc:
            log_n[i] = exc.partial if exc.partial is not None else np.nan
            failed[i] = True
    if np.any(failed):
        raise QuadratureError(
            f"n_w quadrature did not converge at {np.count_nonzero(failed)} of {ys.size} "
            f"parent sizes (first at y = {ys[failed][0]:g})", partial=log_n, failed=failed)
    return log_n


def n_omega(kernel: FragmentKernel, weight, y: float,
            spec: QuadratureSpec | None = None, as_log: bool | None = None) -> float:
    """Weighted fragment mass n_w(y).

    Returned as a log value for exponential-class weights (where the linear
    value overflows a double on moderate y), as a plain value otherwise;
    pass ``as_log`` to force either convention.
    """
    lv = log_n_omega(kernel, weight, y, spec=spec)
    if as_log is None:
        as_log = bool(getattr(weight, "exponential_class", False))
    return lv if as_log else float(np.exp(lv))


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

    def __iter__(self):
        return iter(zip(self.y, self.ratio))


def ratio_curve(kernel: FragmentKernel, weight, y_grid,
                spec: QuadratureSpec | None = None) -> RatioCurve:
    """r(y) = n_w(y)/w(y) along an increasing grid, via log-space subtraction."""
    ys = np.asarray(y_grid, dtype=float)
    if np.any(ys <= 0) or np.any(np.diff(ys) < 0):
        raise ValueError("y_grid must be positive and non-decreasing")
    failed = np.zeros(ys.shape, dtype=bool)
    try:
        log_n = log_n_samples(kernel, weight, ys, spec=spec)
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
    def ratios(self) -> np.ndarray:
        return self.main.ratio

    @property
    def y_small(self) -> np.ndarray:
        return self.small.y

    @property
    def ratios_small(self) -> np.ndarray:
        return self.small.ratio

    def summary(self) -> str:
        lines = [
            f"admissibility report: kernel {self.kernel_label or '?'}, weight {self.weight_label or '?'}",
            f"eta0 = {self.eta0:g}, y_max = {self.y_max:g}, "
            f"samples = {self.y_small.size} below / {self.y_grid.size} above",
            f"kappa_hat  = {self.kappa_hat:.12g}",
            f"kappa1_hat = {self.kappa1_hat:.12g}",
            f"kappa2_hat = {self.kappa2_hat:.12g}",
            f"tail_estimate = {self.tail_estimate:.12g}  trend/decade = {self.trend:+.3e}",
            f"verdict_A32    = {'pass' if self.verdict_A32 else 'fail'} (sup ratio <= 1)",
            f"verdict_A41    = {'pass' if self.verdict_A41 else 'fail'} (tail sup < 1, small-y sup finite)",
            f"verdict_limsup = {self.verdict_limsup}",
            f"verdict_kappa1_bounded = {'pass' if not self.kappa1_growing else 'flagged-growing'}",
            f"verdict_trend  = {'non-increasing' if self.trend <= TREND_TOL else 'increasing'}",
        ]
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        small, main = self.small.csv_columns(), self.main.csv_columns()
        write_csv(path, {name: np.concatenate([small[name], main[name]]) for name in main})


def check(kernel: FragmentKernel, weight, eta0: float, y_max: float,
          n_samples: int | None = None, spec: QuadratureSpec | None = None) -> AdmissibilityReport:
    """Sample r on both sides of eta0 and assemble every verdict.

    The main grid is geometric on [eta0, y_max] (64 points per decade unless
    ``n_samples`` pins the count); the small-y grid refines geometrically down
    to eta0 * 1e-6, since boundedness near 0 is what the first condition asks.
    """
    if not (0 < eta0 < y_max):
        raise ValueError("need 0 < eta0 < y_max")
    if n_samples is None:
        y_grid = geometric_grid(eta0, y_max)
    else:
        y_grid = np.geomspace(eta0, y_max, max(4, int(n_samples)))
    big = ratio_curve(kernel, weight, y_grid, spec=spec)

    y_small = geometric_grid(eta0 * 1e-6, eta0)
    small = ratio_curve(kernel, weight, y_small, spec=spec)

    r_big = np.where(big.failed, -np.inf, big.ratio)
    r_small = np.where(small.failed, -np.inf, small.ratio)
    kappa2 = float(np.max(r_big))
    kappa1 = float(np.max(r_small))
    kappa = max(kappa1, kappa2)

    tail_mask = big.y >= 0.5 * y_max
    tail = float(np.max(r_big[tail_mask]))

    dec_mask = big.y >= 0.1 * y_max
    trend = _slope_per_decade(big.y[dec_mask], big.ratio[dec_mask])

    # growing toward 0+: r on the smallest sampled decade still rising as y falls
    small_dec = small.y <= y_small[0] * 10.0
    small_slope = _slope_per_decade(small.y[small_dec], small.ratio[small_dec])
    kappa1_growing = bool(small_slope < -TREND_TOL * max(1.0, kappa1))

    verdict_a32 = bool(kappa <= 1.0 + 1e-9)
    verdict_a41 = bool(kappa2 < 1.0 and np.isfinite(kappa1))
    if trend > TREND_TOL and tail < 1.0:
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
        weight_label=weight.describe() if hasattr(weight, "describe") else "")


def _slope_per_decade(y: np.ndarray, r: np.ndarray) -> float:
    good = np.isfinite(r)
    if np.count_nonzero(good) < 2:
        return 0.0
    return float(np.polyfit(np.log10(y[good]), r[good], 1)[0])


@dataclass(frozen=True)
class RelativeBoundEstimate:
    """Sampled constants of the relative bound ||B f|| <= alpha ||A f|| + beta ||f||.

    alpha_hat = kappa2_hat and beta_hat = kappa1_hat * sup of the rate on
    [0, eta0]; alpha_hat < 1 at the sampled horizon signals the analyticity
    hypothesis.
    """

    alpha_hat: float
    beta_hat: float
    eta0: float

    def summary(self) -> str:
        return (f"relative bound estimate at eta0 = {self.eta0:g}: "
                f"alpha_hat = {self.alpha_hat:.12g}, beta_hat = {self.beta_hat:.12g}"
                + (" (alpha_hat < 1: analytic regime at this horizon)" if self.alpha_hat < 1 else ""))


def relative_bound(kernel: FragmentKernel, rate: RateFunction, weight,
                   eta0: float, y_max: float,
                   spec: QuadratureSpec | None = None) -> RelativeBoundEstimate:
    """Estimate the relative-bound constants from the sampled ratio suprema."""
    report = check(kernel, weight, eta0, y_max, spec=spec)
    a_sup = rate_envelope(rate, eta0)
    return RelativeBoundEstimate(alpha_hat=report.kappa2_hat,
                                 beta_hat=report.kappa1_hat * a_sup,
                                 eta0=eta0)
