"""Discretize the fragmentation dynamics on a truncated size grid and evolve it.

State and bookkeeping
---------------------
Nodes x_1 < ... < x_N carry trapezoid weights w_i (cell widths).  The state
is the vector v = (dust, mu_1, ..., mu_N): component 0 is the mass carried
below x_1, and mu_i = w_i u_i are the cell contents of the density u the
public API exposes.  The generator is one (N+1) x (N+1) upper-triangular
matrix A: row 0 holds the dust flux d_j per unit cell content, the diagonal
-a_j (0 for the dust), and the gain B_ij above it.  It is triangular because
fragmentation only moves content toward smaller sizes, so nothing is ever
created above x_N.

The gain matrix allocates daughter *mass*: the expected daughter mass a
parent at x_j deposits into cell i is the exact integral of b(x, x_j) x over
the cell (closed form for the built-in families), converted to number content
at the node by dividing by x_i, with the cell below the parent extended up to
x_j; the mass below x_1 is d_j.  Each column then reproduces the kernel's own
mass balance to quadrature precision, sum_i x_i B_ij + d_j = a_j x_j, which
says that l = (1, x_1, ..., x_N) satisfies l A = 0.  So

    M1(t) + dust_mass(t) = M1(0)          (mass-conserving kernels)

holds for every propagator that is a function of A, by the matrix itself.

The columns are assembled in blocks of ``_ASSEMBLY_BLOCK``, with one
``mass_partial`` call per block on a table whose column j holds the edges
below x_j and then x_j itself.  Rows past x_j clip to the parent size, so
their differences are exactly 0 and the block writes its columns whole; each
entry is a_j (M_{i+1} - M_i) / x_i, the same arithmetic as one column at a
time, so the matrix does not depend on the block width.

Schemes
-------
One matrix serves three propagators.  ``implicit_euler`` solves
(I - dt A) v+ = v on A itself, holding no copy of it.  Because A is upper
triangular, block J of a step needs only the rows below it, so a chunk of
``_IE_CHUNK`` steps is solved from the bottom one block of rows at a time:
the block's coupling dt A[J, >J] v+[>J] for every step of the chunk is one
matrix product on a view of A, so A is read once per chunk, not once per
step, and then each step solves the diagonal block I - dt A_JJ, an M-matrix
whose factor is built once per step length.  Every term of the right-hand
side is non-negative and so is the block's inverse, so positivity of the
update is structural, and the per-step weighted norm is non-increasing
whenever the gain columns satisfy the kappa <= 1 admissibility inequality.
dt A is checked for finiteness with its factors, the initial state once per
run; a last step off dt by rounding only is taken as dt, so the run's
factors serve every full step, and step k ends at t0 + (k + 1) dt.
``rk4`` takes v+ = R(dt A) v with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
which for this linear, autonomous system is exactly the classical
four-stage step.  In w = 1 + z, R = 3/8 + w/3 + w^2/4 + w^4/24 has
non-negative coefficients summing to 1, and B = I + hA has no negative entry
once h max_j a_j <= 1.  So R(hA), built by Horner in B for h = dt / 2^k with
the least such k and squared k times, makes no negative and does not raise
the weighted norm when the gain columns satisfy kappa <= 1.  Like the factors,
R is built once per step length and applied by the same sweep: once for the
full steps, and once more for a short last step, whose build, like a full
step's, grows with log2(h max_j a_j).  Both schemes release one step length's
operator before they build the next.  R is one more (N+1)^2 array (two while
it is built), and its build costs about as much as N / 30 to N / 20 stage-form
steps, so a shorter run, or one that ends on a short step, is slower than
stepping stage by stage would be.  Both schemes check each step for non-finite
values and negatives beyond round-off, clip it at 0 before the next step reads
it, and record a chunk of states at once: the sampled observables are one
product of the states with (1, x, w) on the cells.
``expm_oracle``, the reference propagator for tests, applies e^{tA} by
uniformization (Jensen 1953; Moler & Van Loan, SIAM Rev. 2003, sec. 4).  With
sigma = max_j a_j, P = I + A / sigma has no negative entry, so
e^{tA} v = sum_k e^{-sigma t} (sigma t)^k / k! P^k v is a sum of non-negative
vectors, and each conserves l v when l A = 0.  t is split into hops with
sigma t rho <= _HOP, where rho = ||P||_l comes from one product l A (1 for a
conservative kernel, above 1 for a mass-gaining one), and a hop's series stops
once its Poisson tail bound is below 2^-53 of the weight summed.  Each power
is one product with A itself, so the oracle holds a few vectors and no copy of
A, scaled or not.  It refuses a negative entry off the diagonal
(InvalidInputError) and a non-finite entry (FragkitError), both checked once
per call with no (N+1)^2 temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsv

from .config import write_csv
from .errors import FragkitError, InvalidInputError
from .kernels import FragmentKernel, RateFunction, eval_rate
from .weights import Weight

__all__ = ["Grid", "DiscreteGenerator", "DensityState", "Trajectory",
           "discretize", "simulate", "expm_oracle", "semigroup_check",
           "bump", "exp_decay", "column_kappa"]

_DEFAULT_NORM_WEIGHT = Weight.power_shifted(1.0)
# rows per block of the triangular sweeps of both schemes and of the oracle's
# products (the top block takes the rest, up to twice as many): implicit Euler
# solves the block's diagonal factor by dtrsv, rk4 multiplies by its diagonal
# part of R(dt A), and both couple it to the rows below by one matrix product
# per chunk.  For implicit Euler on a 2-vCPU VM 512 rows took half as long
# again at N = 2048 and 512; 128 were no faster
_IE_BLOCK = 256
# steps per chunk of both schemes: A, or R(dt A), is read once per chunk.  The
# chunk's states, (_IE_CHUNK, N + 1), are half the size of the implicit-Euler
# diagonal factors; 256 steps were no faster and need twice the room
_IE_CHUNK = 128
# generator columns per mass_partial call: the block's temporaries, a few
# (N, 32) tables, stay well below the implicit-Euler factors (4.2 MB at
# N = 2048), so assembling does not raise a run's peak memory; 64 columns are
# no faster and need twice the room
_ASSEMBLY_BLOCK = 32
# rk4's R(z) in w = 1 + z, 3/8 + w/3 + w^2/4 + w^4/24, from w^4 down: none negative
_R_IN_B = (1.0 / 24.0, 0.0, 0.25, 1.0 / 3.0, 0.375)
# the oracle's hops: each has lam rho <= _HOP, so e^-lam stays far from
# underflow (below about e^-745), and rho^k <= 2^k far from overflow over the
# hop's terms, about _HOP + 9 sqrt(_HOP) of them
_HOP = 512.0
# the oracle's series stops once its tail bound is below this share of the weight summed
_TAIL = 2.0**-53


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
        # past 2^53 nodes the node index is no longer exact, and no grid could hold them
        if not (0 < x_min < x_max and 4 <= n < 2**53):
            raise InvalidInputError("need 0 < x_min < x_max and 4 <= n < 2^53")
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
    """The generator A on v = (dust, mu): dust flux d_j in row 0, -a_j on the
    diagonal, the gain B_ij above it; upper triangular, (N+1) x (N+1)."""

    grid: Grid
    matrix: np.ndarray


def discretize(kernel: FragmentKernel, rate: RateFunction, grid: Grid) -> DiscreteGenerator:
    """Assemble the generator; integral truncated at x_max by the triangular structure."""
    x = grid.nodes
    n = grid.n
    a = np.asarray(eval_rate(rate, x), dtype=float)
    matrix = np.zeros((n + 1, n + 1))
    for lo in range(0, n, _ASSEMBLY_BLOCK):
        hi = min(lo + _ASSEMBLY_BLOCK, n)
        # column j of the table is edges[:j], then x_j; the rows past it clip to
        # y = x_j, so their differences are exactly 0
        s = np.minimum(grid.edges[:hi, None], x[lo:hi])
        s[np.arange(lo, hi), np.arange(hi - lo)] = x[lo:hi]
        cum = kernel.mass_partial(s, x[lo:hi])
        # edges[0] == x[0], so cum[0] is the mass below the grid: the dust flux
        matrix[0, lo + 1:hi + 1] = a[lo:hi] * cum[0]
        matrix[1:hi, lo + 1:hi + 1] = a[lo:hi] * np.diff(cum, axis=0) / x[:hi - 1, None]
    matrix[np.arange(1, n + 1), np.arange(1, n + 1)] = -a
    return DiscreteGenerator(grid=grid, matrix=matrix)


def column_kappa(gen: DiscreteGenerator, weight: Weight) -> float:
    """max over active columns of (sum_i w(x_i) B_ij) / (a_j w(x_j)).

    A value <= 1 is the discrete form of the admissibility inequality and
    makes the implicit-Euler weighted norm non-increasing step by step.
    """
    wv = weight.eval(gen.grid.nodes)
    loss = -np.diagonal(gen.matrix)[1:]
    active = loss > 0
    if not np.any(active):
        return 0.0
    col = wv @ gen.matrix[1:, 1:] + loss * wv  # the gain's column sums, without copying it
    return float(np.max(col[active] / (loss[active] * wv[active])))


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


def bump(grid: Grid, lo: float, hi: float) -> np.ndarray:
    """Indicator-style initial density: 1 on [lo, hi], 0 outside."""
    return np.where((grid.nodes >= lo) & (grid.nodes <= hi), 1.0, 0.0)


def exp_decay(grid: Grid, scale: float) -> np.ndarray:
    return np.exp(-grid.nodes / scale)


def _as_state(u0, gen: DiscreteGenerator) -> DensityState:
    """``u0``, a density array or a DensityState, as a checked state on ``gen``'s grid."""
    state = u0 if isinstance(u0, DensityState) else \
        DensityState(grid=gen.grid, u=np.asarray(u0, dtype=float))
    if state.u.shape != gen.grid.nodes.shape:
        raise InvalidInputError(f"initial density has shape {state.u.shape}, "
                                f"the grid {gen.grid.nodes.shape}")
    values = np.append(state.u, state.dust_mass)
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("initial density has a non-finite value")
    if np.any(values < 0):
        raise InvalidInputError("initial density must be non-negative")
    return state


def _cuts(n: int) -> list[int]:
    """Bounds of the row blocks of an n-row triangular sweep, top to bottom."""
    # whole blocks from the bottom, the rest in the top one: on a grid of 2^k
    # nodes the dust row would otherwise be a block, and a product per step, alone
    return [0, *range(n - (max(n // _IE_BLOCK, 1) - 1) * _IE_BLOCK, n + 1, _IE_BLOCK)]


def _ie_factors(a: np.ndarray, dt: float) -> list[np.ndarray]:
    """The diagonal blocks of I - dt A, top to bottom, in Fortran order for dtrsv."""
    # max and min see every NaN and inf, with no (N+1)^2 temporary
    if not (np.isfinite(dt * a.max()) and np.isfinite(dt * a.min())):
        raise FragkitError("the implicit-Euler matrix I - dt A has a non-finite entry")
    cuts = _cuts(a.shape[0])
    factors = []
    for lo, hi in zip(cuts, cuts[1:]):
        block = np.empty((hi - lo, hi - lo), order="F")
        np.multiply(a[lo:hi, lo:hi], -dt, out=block)
        block[np.diag_indices(hi - lo)] += 1.0
        factors.append(block)
    return factors


def _ie_chunk(a: np.ndarray, factors: list[np.ndarray], dt: float, v: np.ndarray, m: int
              ) -> tuple[np.ndarray, float]:
    """m implicit-Euler steps from v: ``(states, low)``, row k of states the state
    after step k + 1, clipped at 0, and low the least cell content before clipping.

    Block J of a step needs only the rows below it, so each block is solved for
    all m steps before the one above it: its coupling A[J, >J] out[>J] for the
    whole chunk is one matrix product on a view of A, which is read once per
    chunk, not once per step.  The products read each step's unclipped rows,
    the solves the previous step's clipped ones.
    """
    states = np.empty((m, v.size))
    hi = v.size
    for f in reversed(factors):
        lo = hi - f.shape[0]
        c = np.empty((m, hi - lo))
        np.matmul(states[:, hi:], a[lo:hi, hi:].T, out=c)  # views of A: nothing is copied
        c *= dt
        prev = v[lo:hi]
        for k in range(m):
            x = c[k]
            x += prev
            x = dtrsv(f, x, overwrite_x=1)
            states[k, lo:hi] = x
            prev = np.maximum(x, 0.0, out=x)
        hi = lo
    # non-negativity is structural; anything below is round-off
    return _checked(states, "implicit Euler", 1e-12)


def _checked(states: np.ndarray, scheme: str, tol: float) -> tuple[np.ndarray, float]:
    """``(states, low)``: a chunk of states checked step by step for a non-finite
    value and for a cell below -tol times the largest, then clipped at 0; low is
    the least cell content before clipping."""
    mu = states[:, 1:]
    top = mu.max(axis=1, initial=0.0)
    lows = mu.min(axis=1, initial=np.inf)
    for k in range(len(states)):
        if not np.isfinite(top[k]):
            raise FragkitError(f"{scheme} produced a non-finite value")
        if lows[k] < -tol * max(top[k], 1e-300):
            raise FragkitError(f"{scheme} produced a substantive negative value")
    np.clip(states, 0.0, None, out=states)
    return states, float(lows.min())


def _rk4_matrix(a: np.ndarray, dt: float) -> np.ndarray:
    """R(dt A), the rk4 step: R(hA) for h = dt / 2^k, the least k >= 0 with
    h max_j a_j <= 1 in floating point, so B = I + hA has no negative entry, by
    Horner in B, P <- B P + c I from P = B / 24, then squared k times, on
    non-negative numbers alone.  Row block J of a product is its left factor's
    rows J times P[>=J, >=J], B's rows formed from A's when needed; the two
    buffers take turns, and their lower triangles stay 0."""
    sigma = -float(np.diagonal(a).min())
    if not np.isfinite(sigma):
        raise FragkitError("the generator has a non-finite entry")
    h, k = dt, 0
    while h * sigma > 1.0:
        h, k = 0.5 * h, k + 1
    cuts = _cuts(a.shape[0])
    diag = np.diag_indices(a.shape[0])
    p = a * h
    p[diag] += 1.0
    p *= _R_IN_B[0]  # B / 24: the w^3 coefficient is 0
    q = np.zeros_like(p)
    for i, c in enumerate((*_R_IN_B[2:], *[0.0] * k)):  # Horner in B, then the squarings
        for lo, hi in zip(cuts, cuts[1:]):
            if i < len(_R_IN_B) - 2:  # B's rows lo:hi on the columns >= lo
                left = a[lo:hi, lo:] * h
                j = np.arange(hi - lo)
                left[j, j] += 1.0  # 1 - h a_j >= 0 once h a_j <= 1
            else:
                left = p[lo:hi, lo:]
            np.matmul(left, p[lo:, lo:], out=q[lo:hi, lo:])
        q[diag] += c
        p, q = q, p
    return p


def _rk4_chunk(r: np.ndarray, v: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """m rk4 steps from v by R = R(dt A): ``(states, low)`` as ``_ie_chunk`` gives them.

    The sweep of ``_ie_chunk``: per block, the coupling R[J, >J] v[>J] of every
    step is one product on the previous steps' unclipped states, and each step
    adds R_JJ times the block's previous clipped state.
    """
    states = np.empty((m + 1, v.size))  # row 0 is v, row k the state after step k
    states[0] = v
    hi = v.size
    for lo in reversed(_cuts(v.size)[:-1]):
        c = np.empty((m, hi - lo))
        np.matmul(states[:-1, hi:], r[lo:hi, hi:].T, out=c)
        d = r[lo:hi, lo:hi]
        prev = v[lo:hi]
        for k in range(m):
            x = c[k]
            x += d @ prev
            states[k + 1, lo:hi] = x
            prev = np.maximum(x, 0.0, out=x)
        hi = lo
    # R has no negative entry unless A has one off its diagonal
    return _checked(states[1:], "rk4", 1e-14)


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
    min_content: float  # smallest cell content w_i u_i along the run, before any clipping

    def to_csv(self, path) -> None:
        write_csv(path, {"t": self.times, "M0": self.M0, "M1": self.M1,
                         "norm_omega": self.norm_omega, "dust_mass": self.dust_mass})


def simulate(u0, gen: DiscreteGenerator, t_end: float, dt: float,
             scheme: str = "implicit_euler", weight: Weight | None = None,
             sample_every: int = 1) -> Trajectory:
    """Evolve u0 to t_end with fixed steps, sampling observables as it goes.

    ``u0`` may be a density array on the generator's grid or a DensityState.
    The dust is state component 0, advanced by the same scheme as the cells,
    so M1 + dust is conserved to round-off.
    """
    state = _as_state(u0, gen)
    if not (0 < dt < np.inf and np.isfinite(t_end)
            and isinstance(sample_every, (int, np.integer)) and sample_every >= 1):
        raise InvalidInputError("need finite dt > 0 and t_end, and an integer sample_every >= 1; got "
                                f"dt = {dt!r}, t_end = {t_end!r}, sample_every = {sample_every!r}")
    if scheme not in ("implicit_euler", "rk4"):
        raise InvalidInputError(f"unknown scheme {scheme!r}; use implicit_euler or rk4")
    if t_end < state.t:
        raise InvalidInputError(f"t_end = {t_end!r} is before the initial time {state.t!r}")
    # past 2^53 steps t0 + k dt is no longer exact, and no run could take them
    if not (t_end - state.t) / 2.0**53 < dt:
        raise InvalidInputError("need (t_end - t0) / dt below 2^53; got "
                                f"t_end = {t_end!r}, t0 = {state.t!r}, dt = {dt!r}")
    weight = weight or _DEFAULT_NORM_WEIGHT
    w = gen.grid.weights
    # the observables (dust, M0, M1, norm_omega) of a block of states, as one product
    probe = np.zeros((gen.grid.n + 1, 4))
    probe[0, 0] = 1.0
    probe[1:, 1:] = np.column_stack([np.ones(gen.grid.n), gen.grid.nodes,
                                     weight.eval(gen.grid.nodes)])

    t0 = state.t
    v = np.append(state.dust_mass, w * state.u)
    n_steps = int(np.ceil((t_end - t0) / dt - 1e-12))
    # step k ends at t0 + (k + 1) dt and the last at t_end; a last step off dt
    # by rounding only is taken as dt, so it reuses the run's step operator
    last = t_end - (t0 + (n_steps - 1) * dt)
    if abs(last - dt) <= 1e-12 * dt:
        last = dt
    full = n_steps if last == dt else n_steps - 1
    # samples after these many steps: the start, every sample_every-th and the last
    sampled = np.append(np.arange(0, n_steps, sample_every), n_steps)
    times = t0 + sampled * dt
    if n_steps:
        times[-1] = t_end

    obs = [v[None, :] @ probe]
    min_content = float(np.min(v[1:], initial=np.inf))
    done = 0
    h_op = step_op = None  # a step length and its implicit-Euler factors or R(h A)
    while done < n_steps:
        # chunks of full steps, then a short last step on an operator of its own
        h, m = (dt, min(_IE_CHUNK, full - done)) if done < full else (last, 1)
        if h != h_op:
            step_op = None  # released before its successor is built
            step_op = (_ie_factors if scheme == "implicit_euler" else _rk4_matrix)(gen.matrix, h)
            h_op = h
        if scheme == "implicit_euler":
            states, low = _ie_chunk(gen.matrix, step_op, h, v, m)
        else:
            states, low = _rk4_chunk(step_op, v, m)
        min_content = min(min_content, low)
        rows = sampled[(sampled > done) & (sampled <= done + m)] - done - 1
        obs.append((states @ probe)[rows])  # every row, so a row's values do not depend on sample_every
        v = states[-1].copy()
        del states  # so the next chunk's states replace these, not join them
        done += m

    dust, m0, m1, norm = np.concatenate(obs).T.copy()
    return Trajectory(times=times, M0=m0, M1=m1, norm_omega=norm, dust_mass=dust,
                      final=DensityState(grid=gen.grid, u=v[1:] / w, t=float(times[-1]),
                                         dust_mass=float(v[0])),
                      min_content=min_content)


# ---------------------------------------------------------------------------
# oracle propagator and the semigroup property
# ---------------------------------------------------------------------------

def expm_oracle(gen: DiscreteGenerator, t: float, u0) -> DensityState:
    """Reference propagator: e^{tA} applied to the state by uniformization.

    With P = I + A / sigma, e^{tA} v = sum_k e^{-sigma t} (sigma t)^k / k! P^k v,
    a sum of non-negative terms when A has no negative entry off its diagonal,
    which is refused otherwise.  The dust is state component 0, so its value is
    exact at the oracle's own accuracy, not scheme-limited.
    """
    state = _as_state(u0, gen)
    if not 0 <= t < np.inf:
        raise InvalidInputError(f"need finite t >= 0, got t = {t!r}")
    a = gen.matrix
    n = a.shape[0]
    ell = np.append(1.0, gen.grid.nodes)
    # l A sees every NaN and inf, since l > 0; the off-diagonal entries are a
    # strided view of A's flat buffer, so neither check makes an (N+1)^2 temporary
    growth = ell @ a
    if not np.all(np.isfinite(growth)):
        raise FragkitError("the generator has a non-finite entry")
    if a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].min(initial=0.0) < 0:
        raise InvalidInputError("the generator has a negative entry off its diagonal")
    # the largest growth rate of l v, 0 when every column conserves mass (the
    # dust column is 0); taking sigma at least that bounds rho = ||P||_l by 2
    growth = float(np.max(growth / ell))
    sigma = max(-float(np.diagonal(a).min()), growth)
    v = np.append(state.dust_mass, gen.grid.weights * state.u)
    if sigma > 0:  # else A is 0: l A = 0 with no negative entry
        rho = 1.0 + growth / sigma
        if not sigma * t * rho < np.inf:
            raise InvalidInputError(f"sigma t = {sigma * t!r} is too large for the oracle")
        hops = max(math.ceil(sigma * t * rho / _HOP), 1)
        for _ in range(hops):
            v = _uniformized_hop(a, sigma, sigma * t / hops, rho, v)
        if not np.all(np.isfinite(v)):
            raise FragkitError("the oracle produced a non-finite value")
    return DensityState(grid=gen.grid, u=v[1:] / gen.grid.weights, t=state.t + t,
                        dust_mass=float(v[0]))


def _uniformized_hop(a: np.ndarray, sigma: float, lam: float, rho: float, v: np.ndarray
                     ) -> np.ndarray:
    """e^{lam (P - I)} v = sum_k pois_k(lam) P^k v for P = I + a / sigma, ||P||_l <= rho.

    Each power is taken as P^k v + (a @ P^k v) / sigma and clipped at 0, which
    only removes round-off; a is upper triangular, so the product is taken on
    its triangle, row block J times the rows >= J.  The series stops once the
    tail bound sum_{k > K} pois_k rho^k, a geometric series past k = lam rho,
    is below 2^-53 of the weight summed so far, sum_{k <= K} pois_k rho^k; the
    weights come from pois_{k+1} = pois_k lam / (k + 1), and the result is
    divided by their sum, which is 1 to that bound, so their rounding drops out.
    """
    cuts = _cuts(v.size)
    term = v.copy()
    prod = np.empty_like(v)
    pois = math.exp(-lam)
    out = pois * term
    total = pois  # sum_{k <= K} pois_k
    r = r_total = pois  # pois_K rho^K, and its sum over k <= K
    mean = lam * rho
    k = 0
    while True:
        r_next = r * mean / (k + 1)
        if k + 2 > mean and r_next <= _TAIL * r_total * (1.0 - mean / (k + 2)):
            break
        for lo, hi in zip(cuts, cuts[1:]):
            np.matmul(a[lo:hi, lo:], term[lo:], out=prod[lo:hi])
        prod /= sigma
        term += prod
        np.maximum(term, 0.0, out=term)
        k += 1
        pois *= lam / k
        r = r_next
        total += pois
        r_total += r
        np.multiply(term, pois, out=prod)
        out += prod
    out /= total
    return out


def semigroup_check(gen: DiscreteGenerator, u0, t: float, s: float, *,
                    scheme: str = "implicit_euler", dt: float = 1e-3,
                    weight: Weight | None = None) -> float:
    """Relative weighted-norm deviation of the one-hop vs two-hop evolution.

    ``u0`` may be a density array or a DensityState; both hops start at its clock.
    """
    weight = weight or _DEFAULT_NORM_WEIGHT
    state = _as_state(u0, gen)
    t0 = state.t
    if scheme == "expm":
        one = expm_oracle(gen, t + s, state)
        two = expm_oracle(gen, t, expm_oracle(gen, s, state))
    else:
        one = simulate(state, gen, t0 + t + s, dt, scheme=scheme, weight=weight).final
        half = simulate(state, gen, t0 + s, dt, scheme=scheme, weight=weight).final
        two = simulate(half, gen, t0 + s + t, dt, scheme=scheme, weight=weight).final
    wv = weight.eval(gen.grid.nodes)
    mu_diff = gen.grid.weights * (one.u - two.u)
    denom = float(np.abs(wv * gen.grid.weights * one.u).sum())
    return float(np.abs(wv * mu_diff).sum()) / max(denom, 1e-300)
