"""Constructive weight machinery: build a weight the admissibility bound certifies.

Given a kernel whose daughter distribution is bounded on bands above some
eta0 (and an exact base weight omega0 below eta0), a weight satisfying

    int_0^y b(x, y) w(x) dx  <=  kappa * w(y)     for y >= eta0

is constructed in three steps:

1. piecewise-linear majorants: h(y) dominating g(y) = int_0^eta0 b w0 dx, and
   a band majorant bt(x, y), constant along anti-diagonals, dominating b;
2. a second-kind Volterra equation kappa*w(y) = h(y) + int_eta0^y bt w dx,
   solved by a collocated-trapezoid forward march (the positive Neumann
   series behind it guarantees a unique positive continuous solution, and
   bounds the growth by w(eta0) * exp(sup bt / kappa * (y - eta0)));
3. a sampled certificate re-checking the target inequality against the true
   kernel by quadrature, which fails loudly instead of returning a weight
   that does not do its job.

g(y) and the certificate's left-hand side n_w(y) are both sampled by
``admissibility.log_n_samples``, which tries every sample before raising.

The march replaces a truncated Neumann series: one forward pass gives
machine-precision consistency with the discretized equation, and the
factorial series bound is used only as an a-priori growth estimate in tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .admissibility import log_n_samples
from .config import write_csv
from .errors import ConstructionError, StepSizeError
from .kernels import FragmentKernel, eval_kernel
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .weights import Weight

__all__ = ["MajorantH", "MajorantB", "VolterraSolution", "WeightCertificate",
           "build_h", "build_btilde", "solve_volterra", "construct_weight",
           "exp_weight_search", "ExpWeight"]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# majorants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MajorantH:
    """Continuous piecewise-linear majorant of the below-eta0 contribution.

    ``values[n]`` is the sampled sup of g over [eta0, eta0+n+1] plus a strict
    positivity floor; the knots need not be monotone, continuity holds by
    construction.
    """

    eta0: float
    values: np.ndarray
    floor: float

    def eval(self, y):
        ys = np.asarray(y, dtype=float)
        t = ys - self.eta0
        n = np.clip(np.floor(t).astype(int), 0, self.values.size - 2)
        out = self.values[n] + (self.values[n + 1] - self.values[n]) * (t - n)
        return float(out) if np.ndim(y) == 0 else out

    def __call__(self, y):
        return self.eval(y)


@dataclass(frozen=True)
class MajorantB:
    """Anti-diagonal band majorant of the kernel above eta0.

    ``band_values[n]`` is the sampled sup of b over the triangle
    {x, y >= eta0, x + y - 2 eta0 <= n+1}; cumulative in n, so the sequence is
    non-decreasing.  Evaluation interpolates linearly in s = x + y - 2 eta0.
    """

    eta0: float
    band_values: np.ndarray

    @classmethod
    def constant(cls, level: float, eta0: float, y_max: float) -> "MajorantB":
        n = int(np.ceil(2.0 * (y_max - eta0))) + 2
        return cls(eta0=eta0, band_values=np.full(n, float(level)))

    def eval(self, x, y):
        s = np.asarray(x, dtype=float) + np.asarray(y, dtype=float) - 2.0 * self.eta0
        n = np.clip(np.floor(s).astype(int), 0, self.band_values.size - 2)
        out = self.band_values[n] + (self.band_values[n + 1] - self.band_values[n]) * (s - n)
        out = np.where(s < 0, self.band_values[0], out)
        return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out

    def diagonal_max(self, y_max: float) -> float:
        s = 2.0 * (y_max - self.eta0)
        return float(self.eval(y_max, y_max)) if s >= 0 else float(self.band_values[0])

    def __call__(self, x, y):
        return self.eval(x, y)


def build_h(kernel: FragmentKernel, omega0: Weight | None, eta0: float, y_max: float,
            samples_per_unit: int = 256, floor: float = 1e-8,
            spec: QuadratureSpec = DEFAULT_SPEC) -> MajorantH:
    """Majorize g(y) = int_0^eta0 b(x,y) omega0(x) dx by band suprema.

    With eta0 = 0 the integral is empty and h is the positivity floor alone.
    Band suprema come from dense sampling of g (quadrature per sample); an
    independent shifted sample set validates h >= g afterwards.
    """
    n_bands = int(np.ceil(y_max - eta0)) + 1
    if eta0 == 0.0:
        return MajorantH(eta0=0.0, values=np.full(n_bands + 1, floor), floor=floor)
    if omega0 is None:
        raise ConstructionError("omega0 is required when eta0 > 0")

    ys = np.linspace(eta0, eta0 + n_bands, n_bands * max(8, samples_per_unit) + 1)
    g = np.exp(log_n_samples(kernel, omega0, ys, spec=spec, hi=eta0))
    if not np.all(np.isfinite(g)):
        raise ConstructionError("below-eta0 contribution g(y) left the float range",
                                worst_y=float(ys[~np.isfinite(g)][0]))
    # values[n] = sup of g over [eta0, eta0 + n + 1]
    vals = np.empty(n_bands + 1)
    for n in range(n_bands + 1):
        mask = ys <= eta0 + n + 1.0 + 1e-12
        vals[n] = float(np.max(g[mask]))
    h = MajorantH(eta0=eta0, values=vals + floor, floor=floor)

    rng = np.random.default_rng(1234)
    y_check = rng.uniform(eta0, y_max, size=256)
    g_check = np.exp(log_n_samples(kernel, omega0, y_check, spec=spec, hi=eta0))
    bad = g_check > h.eval(y_check) * (1.0 + 1e-9)
    if np.any(bad):
        raise ConstructionError("majorant validation failed: h < g (increase sampling density)",
                                worst_y=float(y_check[bad][0]))
    return h


def build_btilde(kernel: FragmentKernel, eta0: float, y_max: float,
                 points_per_band: int = 10_000) -> MajorantB:
    """Band suprema of b over the anti-diagonal strips above eta0.

    Each strip is scanned on a deterministic (s, x) lattice carrying about
    ``points_per_band`` kernel evaluations, augmented with the kernel's own
    breakpoints so piecewise plateaus are hit exactly.
    """
    n_bands = int(np.ceil(2.0 * (y_max - eta0))) + 2
    n_s = max(8, int(np.sqrt(points_per_band) * 0.64))
    n_x = max(8, int(points_per_band // n_s))
    vals = np.empty(n_bands + 1)
    running = 0.0
    for n in range(n_bands + 1):
        strip_max = 0.0
        for s in np.linspace(max(n - 1.0, 0.0) + 1e-12, float(n) + 1.0, n_s):
            # along x + y = s + 2 eta0 with eta0 <= x <= y
            x_hi = eta0 + 0.5 * s
            xs = np.linspace(eta0, x_hi, n_x)
            ys = (s + 2.0 * eta0) - xs
            extra = [bp for bp in kernel.breakpoints(float(ys[0])) if eta0 <= bp <= x_hi]
            if extra:
                xs = np.concatenate([xs, np.asarray(extra)])
                ys = (s + 2.0 * eta0) - xs
            vals_here = eval_kernel(kernel, xs, ys)
            strip_max = max(strip_max, float(np.max(vals_here)) if vals_here.size else 0.0)
        running = max(running, strip_max)
        if not np.isfinite(running) or running > 1e300:
            raise ConstructionError(f"kernel unbounded on band {n} above eta0={eta0:g}")
        vals[n] = running
    bt = MajorantB(eta0=eta0, band_values=vals)

    rng = np.random.default_rng(4321)
    x_check = rng.uniform(eta0, y_max, size=4096)
    y_check = rng.uniform(eta0, y_max, size=4096)
    x_check, y_check = np.minimum(x_check, y_check), np.maximum(x_check, y_check)
    b_true = eval_kernel(kernel, x_check, y_check)
    approx = bt.eval(x_check, y_check)
    bad = b_true > approx * (1.0 + 1e-9) + 1e-300
    if np.any(bad):
        raise ConstructionError("majorant validation failed: btilde < b",
                                worst_y=float(y_check[bad][0]))
    return bt


# ---------------------------------------------------------------------------
# Volterra march
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolterraSolution:
    """Collocated-trapezoid solution of kappa*w(y) = f(y) + int_eta0^y bt w dx."""

    eta0: float
    y_max: float
    step: float
    nodes: np.ndarray
    values: np.ndarray
    kappa: float
    residual_max: float


def solve_volterra(btilde, f, kappa: float, eta0: float, y_max: float,
                   step: float, residual_stride: int = 1) -> VolterraSolution:
    """Forward march for the second-kind Volterra equation.

    Each new node is solvable because the diagonal trapezoid coefficient
    kappa - step/2 * bt(y, y) stays positive; a step too large for that raises
    :class:`StepSizeError` telling the caller to halve.  The residual is
    measured against a half-step re-integration of the linear interpolant,
    which is an independent (finer) quadrature of the same equation.
    """
    if kappa <= 0 or step <= 0:
        raise ValueError("kappa and step must be positive")
    n_steps = int(np.ceil((y_max - eta0) / step - 1e-12))
    ys = eta0 + step * np.arange(n_steps + 1)
    diag = np.asarray(btilde(ys, ys), dtype=float)
    if np.any(kappa - 0.5 * step * diag <= 0):
        raise StepSizeError(
            f"step {step:g} loses diagonal dominance (max bt on the diagonal "
            f"{float(np.max(diag)):g}); halve the step")

    w = np.empty(n_steps + 1)
    w[0] = f(eta0) / kappa
    for k in range(1, n_steps + 1):
        row = np.asarray(btilde(ys[:k], ys[k]), dtype=float)
        acc = 0.5 * row[0] * w[0]
        if k > 1:
            acc += float(row[1:] @ w[1:k])
        w[k] = (f(ys[k]) + step * acc) / (kappa - 0.5 * step * diag[k])
    if np.any(w < 0):
        raise ConstructionError("Volterra march produced a negative node (should be impossible "
                                "for non-negative f and btilde)")

    # residual against half-step re-integration of the linear interpolant
    res = 0.0
    fine = eta0 + 0.5 * step * np.arange(2 * n_steps + 1)
    w_fine = np.interp(fine, ys, w)
    for k in range(1, n_steps + 1, max(1, residual_stride)):
        m = 2 * k
        row = np.asarray(btilde(fine[:m + 1], ys[k]), dtype=float)
        integral = 0.5 * step * 0.5 * float(row[0] * w_fine[0] + row[m] * w_fine[m]
                                            + 2.0 * (row[1:m] @ w_fine[1:m]))
        denom = kappa * w[k]
        if denom > 0:
            res = max(res, abs(kappa * w[k] - f(ys[k]) - integral) / denom)
    return VolterraSolution(eta0=eta0, y_max=float(ys[-1]), step=step, nodes=ys,
                            values=w, kappa=kappa, residual_max=res)


# ---------------------------------------------------------------------------
# full construction + certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightCertificate:
    """Sampled check of int_0^y b w dx <= kappa w(y) (1 + tol) on [eta0, y_max]."""

    y: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray  # (rhs - lhs) / rhs, >= -tol when the certificate passes
    tol: float
    passed: bool
    worst_y: float

    def to_csv(self, path) -> None:
        write_csv(path, {"y": self.y, "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin})


def construct_weight(kernel: FragmentKernel, omega0: Weight | None, eta0: float,
                     kappa: float, y_max: float, *, step: float | None = None,
                     floor: float = 1e-8, n_validation: int = 200, tol: float = 1e-6,
                     samples_per_unit: int = 256, spec: QuadratureSpec = DEFAULT_SPEC):
    """Run the full pipeline; returns ``(weight, certificate)``.

    The returned weight equals omega0 exactly below eta0 and the marched
    solution (log-linear interpolation between nodes) on [eta0, y_max].
    A certificate violation raises :class:`ConstructionError` carrying the
    worst y; the usual cause is under-sampled majorants.
    """
    if eta0 < 0 or y_max <= eta0:
        raise ValueError("need 0 <= eta0 < y_max")
    h = build_h(kernel, omega0, eta0, y_max, samples_per_unit=samples_per_unit,
                floor=floor, spec=spec)
    bt = build_btilde(kernel, eta0, y_max)
    if step is None:
        bt_max = bt.diagonal_max(y_max)
        step = min((y_max - eta0) / 2048.0, 0.5 * kappa / max(bt_max, 1e-30))
    sol = solve_volterra(bt, h.eval, kappa, eta0, y_max, step)

    with np.errstate(divide="ignore"):
        log_vals = np.log(sol.values)
    if eta0 > 0:
        weight = Weight.composite(omega0, eta0, sol.nodes, log_vals)
    else:
        weight = Weight.tabulated(np.maximum(sol.nodes, 1e-300), log_vals)

    y_check = np.linspace(eta0 if eta0 > 0 else sol.nodes[1], sol.y_max, n_validation)
    log_lhs = log_n_samples(kernel, weight, y_check, spec=spec)
    log_rhs = np.log(kappa) + weight.log_eval(y_check)
    margin = -np.expm1(log_lhs - log_rhs)  # (rhs - lhs)/rhs, overflow-safe
    passed = bool(np.all(margin >= -tol))
    worst = float(y_check[np.argmin(margin)])
    cert = WeightCertificate(y=y_check, lhs=np.exp(log_lhs), rhs=np.exp(log_rhs), margin=margin,
                             tol=tol, passed=passed, worst_y=worst)
    if not passed:
        raise ConstructionError(
            f"certificate violated at y = {worst:g} (margin {float(np.min(margin)):.3e}); "
            "increase majorant sampling density", worst_y=worst)
    return weight, cert


# ---------------------------------------------------------------------------
# exponential-weight parameter search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpWeight:
    """Parameters (c, delta) certifying the limsup bound c^-delta + delta*b_m < 1."""

    c: float
    delta: float

    def as_weight(self) -> Weight:
        return Weight.exponential(self.c)


def exp_weight_search(delta1: float, delta2: float, d: float, b_m: float) -> ExpWeight | None:
    """Deterministic choice of (c, delta) for the exponential-weight criterion.

    Inputs describe the kernel near the two ends: the small-fragment count is
    at most d^y below delta1, and b <= b_m on the top strip of width delta2.
    The rule delta = min(delta2, 1/(4 b_m)), c = max(2d, e^{2/delta1},
    2^{2/delta}) makes all five constraints hold by construction:
    delta <= delta2, delta*b_m < 1/2, c > d, log c > 1/delta1, c^-delta < 1/2.
    Returns None (with a logged diagnostic) only when c leaves the float range.
    """
    if delta1 <= 0 or delta2 <= 0 or b_m <= 0 or d <= 1:
        raise ValueError("need delta1, delta2, b_m > 0 and d > 1")
    delta = min(delta2, 1.0 / (4.0 * b_m))
    log_c = max(np.log(2.0 * d), 2.0 / delta1, (2.0 / delta) * np.log(2.0))
    if log_c > 709.0:
        logger.warning("exponential-weight search overflow: required log c = %.3g "
                       "exceeds the double range", log_c)
        return None
    c = float(max(2.0 * d, np.exp(2.0 / delta1), 2.0 ** (2.0 / delta)))
    assert delta <= delta2 and delta * b_m < 0.5 and c > d
    assert np.log(c) > 1.0 / delta1 and c ** (-delta) < 0.5
    return ExpWeight(c=c, delta=delta)
