"""Discretize the fragmentation dynamics on a truncated size grid and evolve it.

State and bookkeeping
---------------------
Nodes x_1 < ... < x_N carry trapezoid weights w_i (cell widths), and the
evolution acts on cell contents mu_i = w_i u_i, where u is the density the
public API exposes.  The generator G = -diag(a) + B is strictly triangular in
size ordering: fragmentation only moves content toward smaller sizes.

The gain matrix allocates daughter *mass*: the expected daughter mass a
parent at x_j deposits into cell i is the exact integral of b(x, x_j) x over
the cell (closed form for the built-in families), converted to number content
at the node by dividing by x_i, with the cell below the parent extended up to
x_j.  Column sums of x_i B_ij then reproduce the kernel's own mass balance to
quadrature precision, so the discrete conservation identity

    M1(t) + dust_mass(t) = M1(0)          (mass-conserving kernels)

closes by construction rather than by accident.  Mass landing below x_1 is
accumulated in ``dust_mass`` (flux d_j per unit cell content), never lost
silently; nothing is ever created above x_N because the structure is
triangular.

Schemes
-------
``implicit_euler`` solves (I - dt G) mu+ = mu by triangular substitution; all
substitution coefficients are non-negative, so positivity of the update is
structural, and the per-step weighted norm is non-increasing whenever the
gain columns satisfy the kappa <= 1 admissibility inequality.  ``rk4`` is
fourth order but only positivity-checked: a step producing negatives beyond
round-off is rejected and halved (a stiffness error after 30 halvings points
to implicit_euler).  ``expm_oracle`` applies the dense scaling-and-squaring
matrix exponential as an independent reference propagator for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm as _expm
from scipy.linalg import solve_triangular

from .config import write_csv
from .errors import FragkitError, StiffnessError
from .kernels import FragmentKernel, RateFunction, eval_rate
from .weights import Weight

__all__ = ["Grid", "DiscreteGenerator", "DensityState", "Trajectory",
           "discretize", "step", "simulate", "expm_oracle", "semigroup_check",
           "bump", "exp_decay", "column_kappa"]

_DEFAULT_NORM_WEIGHT = Weight.power_shifted(1.0)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Strictly increasing nodes with trapezoid weights; cells tile [x_min, x_max]."""

    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray

    @classmethod
    def geometric(cls, x_min: float, x_max: float, n: int) -> "Grid":
        if not (0 < x_min < x_max) or n < 4:
            raise ValueError("need 0 < x_min < x_max and n >= 4")
        nodes = np.geomspace(x_min, x_max, n)
        edges = np.empty(n + 1)
        edges[0] = nodes[0]
        edges[-1] = nodes[-1]
        edges[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
        return cls(nodes=nodes, weights=np.diff(edges), edges=edges)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def dust_cutoff(self) -> float:
        return float(self.nodes[0])

    @property
    def ratio(self) -> float:
        return float(self.nodes[1] / self.nodes[0])


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteGenerator:
    """loss a_i, strictly (upper-)triangular gain B, and the dust flux row d_j."""

    grid: Grid
    loss: np.ndarray
    gain: np.ndarray
    dust: np.ndarray

    def full_matrix(self) -> np.ndarray:
        g = self.gain.copy()
        g[np.diag_indices_from(g)] -= self.loss
        return g

    def apply(self, mu: np.ndarray) -> np.ndarray:
        return self.gain @ mu - self.loss * mu


def discretize(kernel: FragmentKernel, rate: RateFunction, grid: Grid) -> DiscreteGenerator:
    """Assemble the generator; integral truncated at x_max by the triangular structure."""
    x = grid.nodes
    n = grid.n
    a = np.asarray(eval_rate(rate, x), dtype=float)
    gain = np.zeros((n, n))
    dust = np.empty(n)
    for j in range(n):
        below = kernel.mass_partial(x[0], float(x[j]))
        dust[j] = a[j] * below
        if j == 0:
            continue
        bounds = np.append(grid.edges[:j], x[j])
        cum = kernel.mass_partial(bounds, float(x[j]))
        cell_mass = np.diff(cum)
        gain[:j, j] = a[j] * cell_mass / x[:j]
    return DiscreteGenerator(grid=grid, loss=a, gain=gain, dust=dust)


def column_kappa(gen: DiscreteGenerator, weight: Weight) -> float:
    """max over active columns of (sum_i w(x_i) B_ij) / (a_j w(x_j)).

    A value <= 1 is the discrete form of the admissibility inequality and
    makes the implicit-Euler weighted norm non-increasing step by step.
    """
    wv = weight.eval(gen.grid.nodes)
    active = gen.loss > 0
    if not np.any(active):
        return 0.0
    col = wv @ gen.gain
    return float(np.max(col[active] / (gen.loss[active] * wv[active])))


# ---------------------------------------------------------------------------
# states and stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityState:
    """Density values at the nodes, the clock, and accumulated sub-grid mass."""

    grid: Grid
    u: np.ndarray
    t: float = 0.0
    dust_mass: float = 0.0

    def moments(self) -> tuple[float, float]:
        mu = self.grid.weights * self.u
        return float(mu.sum()), float((self.grid.nodes * mu).sum())

    def norm(self, weight: Weight) -> float:
        mu = self.grid.weights * np.abs(self.u)
        return float((weight.eval(self.grid.nodes) * mu).sum())


def bump(grid: Grid, lo: float, hi: float) -> np.ndarray:
    """Indicator-style initial density: 1 on [lo, hi], 0 outside."""
    return np.where((grid.nodes >= lo) & (grid.nodes <= hi), 1.0, 0.0)


def exp_decay(grid: Grid, scale: float) -> np.ndarray:
    return np.exp(-grid.nodes / scale)


def _ie_matrix(gen: DiscreteGenerator, dt: float) -> np.ndarray:
    m = -dt * gen.gain
    m[np.diag_indices_from(m)] = 1.0 + dt * gen.loss
    return m


def _ie_step(gen: DiscreteGenerator, mu: np.ndarray, dt: float,
             matrix: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    m = _ie_matrix(gen, dt) if matrix is None else matrix
    out = solve_triangular(m, mu, lower=False)
    # non-negativity is structural; anything below is round-off
    tiny = -1e-12 * max(float(np.max(out, initial=0.0)), 1e-300)
    if np.any(out < tiny):
        raise FragkitError("implicit Euler produced a substantive negative value")
    np.clip(out, 0.0, None, out=out)
    return out, dt * float(gen.dust @ out)


def _rk4_step(gen: DiscreteGenerator, mu: np.ndarray, dt: float, depth: int = 0
              ) -> tuple[np.ndarray, float]:
    if depth > 30:
        raise StiffnessError("rk4 rejected the step 30 times; use implicit_euler")
    k1 = gen.apply(mu)
    k2 = gen.apply(mu + 0.5 * dt * k1)
    k3 = gen.apply(mu + 0.5 * dt * k2)
    k4 = gen.apply(mu + dt * k3)
    out = mu + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    scale = float(np.max(np.abs(out), initial=0.0))
    if np.min(out, initial=0.0) < -1e-14 * max(scale, 1e-300):
        a, da = _rk4_step(gen, mu, 0.5 * dt, depth + 1)
        b, db = _rk4_step(gen, a, 0.5 * dt, depth + 1)
        return b, da + db
    np.clip(out, 0.0, None, out=out)
    d1 = float(gen.dust @ mu)
    d2 = float(gen.dust @ (mu + 0.5 * dt * k1))
    d3 = float(gen.dust @ (mu + 0.5 * dt * k2))
    d4 = float(gen.dust @ (mu + dt * k3))
    return out, dt / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)


def step(state: DensityState, gen: DiscreteGenerator, dt: float,
         scheme: str = "implicit_euler") -> DensityState:
    """Advance one step; dt = 0 is the identity."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return state
    mu = state.grid.weights * state.u
    if scheme == "implicit_euler":
        mu_new, d_inc = _ie_step(gen, mu, dt)
    elif scheme == "rk4":
        mu_new, d_inc = _rk4_step(gen, mu, dt)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return replace(state, u=mu_new / state.grid.weights, t=state.t + dt,
                   dust_mass=state.dust_mass + d_inc)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along a run."""

    times: np.ndarray
    M0: np.ndarray
    M1: np.ndarray
    norm_omega: np.ndarray
    dust_mass: np.ndarray
    final: DensityState

    def to_csv(self, path) -> None:
        write_csv(path, {"t": self.times, "M0": self.M0, "M1": self.M1,
                         "norm_omega": self.norm_omega, "dust_mass": self.dust_mass})


def simulate(u0, gen: DiscreteGenerator, t_end: float, dt: float,
             scheme: str = "implicit_euler", weight: Weight | None = None,
             sample_every: int = 1) -> Trajectory:
    """Evolve u0 to t_end with fixed steps, sampling observables as it goes.

    ``u0`` may be a density array on the generator's grid or a DensityState.
    The dust integral is accumulated by the same scheme as the state, so the
    conservation identity holds at the scheme's own order.
    """
    if isinstance(u0, DensityState):
        state = u0
    else:
        u0 = np.asarray(u0, dtype=float)
        if np.any(u0 < 0):
            raise ValueError("initial density must be non-negative")
        state = DensityState(grid=gen.grid, u=u0)
    weight = weight or _DEFAULT_NORM_WEIGHT
    wv = weight.eval(gen.grid.nodes)
    x = gen.grid.nodes
    w = gen.grid.weights

    n_steps = int(np.ceil((t_end - state.t) / dt - 1e-12))
    matrix = _ie_matrix(gen, dt) if scheme == "implicit_euler" else None

    times, m0s, m1s, norms, dusts = [], [], [], [], []

    def record(s: DensityState) -> None:
        mu = w * s.u
        times.append(s.t)
        m0s.append(float(mu.sum()))
        m1s.append(float((x * mu).sum()))
        norms.append(float((wv * mu).sum()))
        dusts.append(s.dust_mass)

    record(state)
    for k in range(n_steps):
        h = min(dt, t_end - state.t)
        if h <= 0:
            break
        if scheme == "implicit_euler" and h == dt:
            mu_new, d_inc = _ie_step(gen, w * state.u, h, matrix)
            state = replace(state, u=mu_new / w, t=state.t + h,
                            dust_mass=state.dust_mass + d_inc)
        else:
            state = step(state, gen, h, scheme)
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            record(state)

    return Trajectory(times=np.asarray(times), M0=np.asarray(m0s), M1=np.asarray(m1s),
                      norm_omega=np.asarray(norms), dust_mass=np.asarray(dusts),
                      final=state)


# ---------------------------------------------------------------------------
# oracle propagator and the semigroup property
# ---------------------------------------------------------------------------

def expm_oracle(gen: DiscreteGenerator, t: float, u0) -> DensityState:
    """Dense matrix-exponential reference propagator (N <= 512 cost guard).

    The dust integral rides along as one extra state component (dust' = d.mu),
    so its value is exact at the oracle's own accuracy, not scheme-limited.
    """
    if gen.grid.n > 512:
        raise ValueError("expm_oracle refuses N > 512 (dense cost guard)")
    if isinstance(u0, DensityState):
        state = u0
    else:
        state = DensityState(grid=gen.grid, u=np.asarray(u0, dtype=float))
    n = gen.grid.n
    w = gen.grid.weights
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = gen.full_matrix()
    aug[n, :n] = gen.dust
    vec = np.concatenate([w * state.u, [state.dust_mass]])
    out = _expm(aug * t) @ vec
    return replace(state, u=out[:n] / w, t=state.t + t, dust_mass=float(out[n]))


def semigroup_check(gen: DiscreteGenerator, u0, t: float, s: float, *,
                    scheme: str = "implicit_euler", dt: float = 1e-3,
                    weight: Weight | None = None) -> float:
    """Relative weighted-norm deviation of the one-hop vs two-hop evolution."""
    weight = weight or _DEFAULT_NORM_WEIGHT
    u0 = np.asarray(u0, dtype=float)
    if scheme == "expm":
        one = expm_oracle(gen, t + s, u0)
        two = expm_oracle(gen, t, expm_oracle(gen, s, u0))
    else:
        one = simulate(u0, gen, t + s, dt, scheme=scheme, weight=weight).final
        half = simulate(u0, gen, s, dt, scheme=scheme, weight=weight).final
        two = simulate(half, gen, s + t, dt, scheme=scheme, weight=weight).final
    wv = weight.eval(gen.grid.nodes)
    mu_diff = gen.grid.weights * (one.u - two.u)
    denom = float(np.abs(wv * gen.grid.weights * one.u).sum())
    return float(np.abs(wv * mu_diff).sum()) / max(denom, 1e-300)
