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
   kernel, which fails loudly instead of returning a weight that does not do
   its job.

g(y) and the certificate's left-hand side n_w(y) are both sampled by
``admissibility.log_n_samples``, which tries every sample before raising.
For a built-in kernel with a power or ``power_shifted`` omega0 both are
closed form, summed over the kernel's bands (``FragmentKernel._bands``; the
constructed weight is ``composite``, and its table is served at q = 0:
boundary_binary, concentrated, homogeneous_power(0)); a band that diverges at
0 fails its sample.  Other pairs and custom kernels are integrated by
quadrature.  The checks do not depend on which: h is validated on its own
shifted samples and the certificate's margin is held to ``tol``.

Accuracy.  The sampling densities are fixed, the same for every construction:
``_H_SAMPLES_PER_UNIT = 256`` samples of g per unit of y, a ``_BAND_LATTICE =
(64, 156)`` lattice in (s, x) per strip of bt, and ``_N_VALIDATION = 200``
certificate points.  The march's residual is measured at every node.

The march replaces a truncated Neumann series: one forward pass gives
machine-precision consistency with the discretized equation, and the
factorial series bound is used only as an a-priori growth estimate in tests.

bt depends on (x, y) only through s = x + y - 2 eta0.  On the march nodes
y_k = eta0 + k*step and the residual's half-step nodes x_j = eta0 + j*step/2,
s = (j + 2k) * step/2, so one lattice s_i = i*step/2, i = 0..4n, holds every
value the march uses: row k is band[2k:4k:2], the residual row is
band[2k:4k+1] and the diagonal bt(y_k, y_k) is band[4k].  The majorant is
interpolated once per march, not once per row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .admissibility import log_n_samples
from .config import write_csv
from .errors import ConstructionError, InvalidInputError, StepSizeError
from .kernels import FragmentKernel, eval_kernel
from .weights import Weight

__all__ = ["MajorantH", "MajorantB", "VolterraSolution", "WeightCertificate",
           "build_h", "build_btilde", "solve_volterra", "construct_weight",
           "exp_weight_search", "ExpWeight"]

logger = logging.getLogger(__name__)

_H_SAMPLES_PER_UNIT = 256
_BAND_LATTICE = (64, 156)
_N_VALIDATION = 200
# most nodes of one Volterra march: its time is quadratic in them, about a
# minute at this count, and a smaller step asks for no other result
_MAX_NODES = 1 << 18


# ---------------------------------------------------------------------------
# majorants
# ---------------------------------------------------------------------------

def _interp_unit_knots(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Linear interpolation of ``values[n]`` at t = n, the end segments extended."""
    n = np.clip(np.floor(t).astype(int), 0, values.size - 2)
    return values[n] + (values[n + 1] - values[n]) * (t - n)


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
        out = _interp_unit_knots(self.values, np.asarray(y, dtype=float) - self.eta0)
        return float(out) if np.ndim(y) == 0 else out


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
        out = self.eval_s(s)
        return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out

    def eval_s(self, s) -> np.ndarray:
        """The majorant on the anti-diagonal ``x + y - 2 eta0 = s``."""
        s = np.asarray(s, dtype=float)
        return np.where(s < 0, self.band_values[0], _interp_unit_knots(self.band_values, s))

    def diagonal_max(self, y_max: float) -> float:
        return float(self.eval_s(2.0 * (y_max - self.eta0)))


def build_h(kernel: FragmentKernel, omega0: Weight | None, eta0: float, y_max: float,
            floor: float = 1e-8) -> MajorantH:
    """Majorize g(y) = int_0^eta0 b(x,y) omega0(x) dx by band suprema.

    With eta0 = 0 the integral is empty and h is the positivity floor alone.
    Band suprema come from dense sampling of g (quadrature per sample); an
    independent shifted sample set validates h >= g afterwards.
    """
    if not 0 < floor < np.inf:  # a NaN floor fails this test too
        raise InvalidInputError(f"the positivity floor must be finite and positive, got {floor!r}")
    n_bands = int(np.ceil(y_max - eta0)) + 1
    if eta0 == 0.0:
        return MajorantH(eta0=0.0, values=np.full(n_bands + 1, floor), floor=floor)
    if omega0 is None:
        raise ConstructionError("omega0 is required when eta0 > 0")

    ys = np.linspace(eta0, eta0 + n_bands, n_bands * _H_SAMPLES_PER_UNIT + 1)
    g = np.exp(log_n_samples(kernel, omega0, ys, hi=eta0))
    if not np.all(np.isfinite(g)):
        raise ConstructionError("below-eta0 contribution g(y) left the float range",
                                worst_y=float(ys[~np.isfinite(g)][0]))
    # values[n] = sup of g over [eta0, eta0 + n + 1]: a running max read off at each band end
    ends = np.searchsorted(ys, eta0 + np.arange(n_bands + 1) + 1.0 + 1e-12, side="right")
    vals = np.maximum.accumulate(g)[ends - 1]
    h = MajorantH(eta0=eta0, values=vals + floor, floor=floor)

    rng = np.random.default_rng(1234)
    y_check = rng.uniform(eta0, y_max, size=256)
    g_check = np.exp(log_n_samples(kernel, omega0, y_check, hi=eta0))
    bad = g_check > h.eval(y_check) * (1.0 + 1e-9)
    if np.any(bad):
        raise ConstructionError("majorant validation failed: h < g between its samples",
                                worst_y=float(y_check[bad][0]))
    return h


def build_btilde(kernel: FragmentKernel, eta0: float, y_max: float) -> MajorantB:
    """Band suprema of b over the anti-diagonal strips above eta0.

    Each strip is scanned on the deterministic ``_BAND_LATTICE`` of ``n_s``
    lines s and ``n_x`` points x per line, augmented with a custom kernel's
    breakpoints so piecewise plateaus are hit exactly.  A built-in kernel adds
    none: its band edges, taken at the y of each line's point x = eta0, never
    raise a strip's maximum above the lattice's own (a per-line scan in the
    tests keeps this so).
    """
    n_bands = int(np.ceil(2.0 * (y_max - eta0))) + 2
    n_s, n_x = _BAND_LATTICE
    vals = np.empty(n_bands + 1)
    running = 0.0
    for n in range(n_bands + 1):
        # the whole (s, x) lattice of the strip, along x + y = s + 2 eta0 with eta0 <= x <= y
        s = np.linspace(max(n - 1.0, 0.0) + 1e-12, float(n) + 1.0, n_s)
        x_hi = eta0 + 0.5 * s
        xs = np.linspace(eta0, x_hi, n_x, axis=1)
        ys = (s[:, None] + 2.0 * eta0) - xs
        # a custom kernel's breakpoints on each line, so piecewise plateaus are hit exactly
        extra = [(bp, si) for si, top in zip(s, x_hi)
                 for bp in kernel.breakpoints(float((si + 2.0 * eta0) - eta0))
                 if eta0 <= bp <= top]
        ex, es = np.array(extra, dtype=float).reshape(-1, 2).T
        band = eval_kernel(kernel, np.concatenate([xs.ravel(), ex]),
                           np.concatenate([ys.ravel(), (es + 2.0 * eta0) - ex]))
        running = float(np.max([running, np.max(band)]))  # a NaN value propagates and raises
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
                   step: float) -> VolterraSolution:
    """Forward march for the second-kind Volterra equation.

    ``btilde`` is a :class:`MajorantB`; it is read once, on the half-step
    anti-diagonal lattice that holds every value the march and the residual
    use, and ``f`` is evaluated once on the nodes.  Each new node is solvable
    because the diagonal trapezoid coefficient kappa - step/2 * bt(y, y) stays
    positive; a step too large for that raises :class:`StepSizeError` telling
    the caller to halve.  The residual is measured against a half-step
    re-integration of the linear interpolant, which is an independent (finer)
    quadrature of the same equation.  A march of more than ``_MAX_NODES`` nodes
    is refused with :class:`InvalidInputError` before anything is allocated, as is a
    ``kappa`` or ``step`` outside ``(0, inf)``.
    """
    if not (0 < kappa < np.inf and 0 < step < np.inf):  # a NaN fails this test too
        raise InvalidInputError("need 0 < kappa < inf and 0 < step < inf, got "
                                f"kappa = {kappa!r}, step = {step!r}")
    n_steps = np.ceil((y_max - eta0) / step - 1e-12)
    if not n_steps < _MAX_NODES:  # a NaN or infinite count too
        raise InvalidInputError(
            f"the Volterra march with step {step:g} needs {n_steps + 1:.4g} nodes on "
            f"[{eta0:g}, {y_max:g}], more than {_MAX_NODES}; a kernel unbounded near eta0 "
            "makes the step tiny, so take eta0 > 0, a larger kappa or a larger step")
    n_steps = int(n_steps)
    ys = eta0 + step * np.arange(n_steps + 1)
    # bt is constant along anti-diagonals, so one half-step lattice in s holds every
    # value used below: bt(eta0 + step*j/2, eta0 + step*k) = band[j + 2k]
    band = btilde.eval_s(2.0 * (eta0 - btilde.eta0) + 0.5 * step * np.arange(4 * n_steps + 1))
    diag = band[::4]
    fy = np.broadcast_to(np.asarray(f(ys), dtype=float), ys.shape)
    if np.any(kappa - 0.5 * step * diag <= 0):
        raise StepSizeError(
            f"step {step:g} loses diagonal dominance (max bt on the diagonal "
            f"{float(np.max(diag)):g}); halve the step")

    w = np.empty(n_steps + 1)
    w[0] = fy[0] / kappa
    for k in range(1, n_steps + 1):
        row = band[2 * k:4 * k:2]  # bt(ys[:k], ys[k])
        acc = 0.5 * row[0] * w[0] + float(row[1:] @ w[1:k])
        w[k] = (fy[k] + step * acc) / (kappa - 0.5 * step * diag[k])
    if np.any(w < 0):
        raise ConstructionError("Volterra march produced a negative node (should be impossible "
                                "for non-negative f and btilde)")

    # residual against half-step re-integration of the linear interpolant
    res = 0.0
    fine = eta0 + 0.5 * step * np.arange(2 * n_steps + 1)
    w_fine = np.interp(fine, ys, w)
    for k in range(1, n_steps + 1):
        m = 2 * k
        row = band[m:2 * m + 1]  # bt(fine[:m + 1], ys[k])
        integral = 0.5 * step * 0.5 * float(row[0] * w_fine[0] + row[m] * w_fine[m]
                                            + 2.0 * (row[1:m] @ w_fine[1:m]))
        denom = kappa * w[k]
        if denom > 0:
            res = max(res, abs(kappa * w[k] - fy[k] - integral) / denom)
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
                     floor: float = 1e-8, tol: float = 1e-6):
    """Run the full pipeline; returns ``(weight, certificate)``.

    The returned weight equals omega0 exactly below eta0 and the marched
    solution (log-linear interpolation between nodes) on [eta0, y_max].
    A certificate violation raises :class:`ConstructionError` carrying the
    worst y; the usual cause is under-sampled majorants.  Out of range, without
    ``0 <= eta0 < y_max < inf``, ``0 < kappa < inf`` and a ``step`` that is None
    or in ``(0, inf)``, raises :class:`InvalidInputError` naming the parameter.
    """
    if not 0 <= eta0 < y_max < np.inf:  # a NaN fails this test too
        raise InvalidInputError(f"need 0 <= eta0 < y_max < inf, got eta0 = {eta0!r}, "
                                f"y_max = {y_max!r}")
    if not 0 <= tol < np.inf:
        raise InvalidInputError(f"certificate tolerance must be finite and >= 0, got {tol!r}")
    h = build_h(kernel, omega0, eta0, y_max, floor=floor)
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

    y_check = np.linspace(eta0 if eta0 > 0 else sol.nodes[1], sol.y_max, _N_VALIDATION)
    log_lhs = log_n_samples(kernel, weight, y_check)
    log_rhs = np.log(kappa) + weight.log_eval(y_check)
    margin = -np.expm1(log_lhs - log_rhs)  # (rhs - lhs)/rhs, overflow-safe
    passed = bool(np.all(margin >= -tol))
    worst = float(y_check[np.argmin(margin)])
    cert = WeightCertificate(y=y_check, lhs=np.exp(log_lhs), rhs=np.exp(log_rhs), margin=margin,
                             tol=tol, passed=passed, worst_y=worst)
    if not passed:
        raise ConstructionError(
            f"certificate violated at y = {worst:g} (margin {float(np.min(margin)):.3e}); "
            "the majorants are likely under-sampled", worst_y=worst)
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
    Returns None (with a logged diagnostic) only when c leaves the float range;
    raises :class:`InvalidInputError` without ``0 < delta1, delta2, b_m < inf``
    and ``1 < d < inf``.
    """
    if not (0 < delta1 < np.inf and 0 < delta2 < np.inf and 0 < b_m < np.inf and 1 < d < np.inf):
        raise InvalidInputError("need 0 < delta1, delta2, b_m < inf and 1 < d < inf, got "
                                f"delta1 = {delta1!r}, delta2 = {delta2!r}, d = {d!r}, "
                                f"b_m = {b_m!r}")
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
