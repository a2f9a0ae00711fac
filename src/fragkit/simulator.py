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
whose factor is built once per run.  Every term of the right-hand side is
non-negative and so is the block's inverse, so positivity of the update is
structural, and the per-step weighted norm is non-increasing whenever the
gain columns satisfy the kappa <= 1 admissibility inequality.  Each step is
checked for finiteness and for negatives beyond round-off, and clipped at 0
before the next step reads it.  dt A and the initial state are checked for
finiteness once per run; a last step off dt by rounding only is taken as dt,
so the run's factors serve every full step, and step k ends at
t0 + (k + 1) dt.  ``rk4`` takes v+ = R(dt A) v with
R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, which for this linear, autonomous
system is exactly the classical four-stage step.  Like the factors, R is
built once per run, by Horner on the triangles (a short last step is taken
in stage form), and it is applied by the same sweep: per chunk, one matrix
product per block for its coupling to the rows below, then per step one
product with the block's diagonal part.  This holds one more (N+1)^2 array
(two while it is built), and the build costs about as much as N / 30 to
N / 20 stage-form steps, so a shorter run is slower than stepping stage by
stage would be.  A step producing a non-finite value raises; the first one
producing negatives beyond round-off is redone as two stage-form half steps,
which halve again as needed (a stiffness error after 30 halvings points to
implicit_euler), and the rest of the chunk resumes from there through R.
Both schemes clip each step at 0 before the next step reads it, and record a
chunk of states at once: the sampled observables are one product of the
states with (1, x, w) on the cells.
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
from .errors import FragkitError, InvalidInputError, StiffnessError
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
        if not (0 < x_min < x_max) or n < 4:
            raise InvalidInputError("need 0 < x_min < x_max and n >= 4")
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
    mu = states[:, 1:]
    top = mu.max(axis=1, initial=0.0)
    lows = mu.min(axis=1, initial=np.inf)
    for k in range(m):  # step by step, so the first bad step decides the error
        if not np.isfinite(top[k]):  # the solve overflowed, or the state was not finite
            raise FragkitError("implicit Euler produced a non-finite value")
        # non-negativity is structural; anything below is round-off
        if lows[k] < -1e-12 * max(top[k], 1e-300):
            raise FragkitError("implicit Euler produced a substantive negative value")
    np.clip(states, 0.0, None, out=states)
    return states, float(lows.min())


def _rk4_matrix(a: np.ndarray, dt: float) -> np.ndarray:
    """R(dt A) = I + dt A + (dt A)^2 / 2 + (dt A)^3 / 6 + (dt A)^4 / 24, the rk4 step.

    By Horner, P <- I + (dt / c) A P for c = 4, 3, 2, 1 from P = I.  Both factors
    are upper triangular, so row block J of A P is A[J, >=J] P[>=J, >=J]; the
    two buffers take turns and their lower triangles stay 0.
    """
    n = a.shape[0]
    cuts = _cuts(n)
    diag = np.diag_indices(n)
    p = a * (dt / 4.0)
    p[diag] += 1.0
    q = np.zeros_like(p)
    for c in (3.0, 2.0, 1.0):
        for lo, hi in zip(cuts, cuts[1:]):
            out = q[lo:hi, lo:]
            np.matmul(a[lo:hi, lo:], p[lo:, lo:], out=out)
            out *= dt / c
        q[diag] += 1.0
        p, q = q, p
    return p


def _rk4_chunk(gen: DiscreteGenerator, r: np.ndarray, dt: float, v: np.ndarray, m: int
               ) -> tuple[np.ndarray, float]:
    """m rk4 steps from v by R = R(dt A): ``(states, low)`` as ``_ie_chunk`` gives them.

    Block J of a step needs only the rows below it, so each block is advanced
    for all m steps before the one above it: its coupling R[J, >J] v[>J] for
    the whole chunk is one matrix product on the steps' clipped states, and
    each step adds R_JJ times the block's previous clipped state.  The first
    step with negatives beyond round-off is redone as two stage-form half
    steps, and the rest of the chunk resumes from there through R.
    """
    cuts = _cuts(v.size)
    states = np.empty((m + 1, v.size))  # row 0 is v, row k the state after step k
    states[0] = v
    low, k0, span = np.inf, 0, m
    while k0 < m:
        steps = min(span, m - k0)
        run = states[k0:k0 + steps + 1]  # run[0] is the last accepted state
        lows, tops = np.full(steps, np.inf), np.zeros(steps)
        hi = v.size
        for lo in reversed(cuts[:-1]):
            # row k becomes step k + 1's block, unclipped, once R_JJ times its state is added
            c = run[:-1, hi:] @ r[lo:hi, hi:].T
            d = r[lo:hi, lo:hi]
            for k in range(steps):
                x = c[k]
                x += d @ run[k, lo:hi]
                np.maximum(x, 0.0, out=run[k + 1, lo:hi])
            cells = c[:, 1:] if lo == 0 else c  # the dust is not a cell
            np.minimum(lows, cells.min(axis=1, initial=np.inf), out=lows)
            np.maximum(tops, np.abs(cells).max(axis=1, initial=0.0), out=tops)
            hi = lo
        for k in range(steps):  # step by step, so the first bad step decides
            if not np.isfinite(tops[k]):  # R overflowed, or the state was not finite
                raise FragkitError("rk4 produced a non-finite value")
            if lows[k] < -1e-14 * max(tops[k], 1e-300):
                break
        else:
            low = min(low, float(lows.min()))
            k0, span = k0 + steps, 2 * span
            continue
        # the steps before k stand; step k is redone in two halves
        half, low_a = _rk4_step(gen, run[k], 0.5 * dt, 1)
        run[k + 1], low_b = _rk4_step(gen, half, 0.5 * dt, 1)
        low = min(low, float(lows[:k].min(initial=np.inf)), low_a, low_b)
        # the next sweep goes no further than twice the steps this one kept,
        # so rejections that come every few steps do not sweep the chunk again each time
        k0, span = k0 + k + 1, 2 * (k + 1)
    return states[1:], low


def _rk4_step(gen: DiscreteGenerator, v: np.ndarray, dt: float, depth: int = 0
              ) -> tuple[np.ndarray, float]:
    if depth > 30:
        raise StiffnessError("rk4 rejected the step 30 times; use implicit_euler")
    a = gen.matrix
    k1 = a @ v
    k2 = a @ (v + 0.5 * dt * k1)
    k3 = a @ (v + 0.5 * dt * k2)
    k4 = a @ (v + dt * k3)
    out = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    mu = out[1:]
    scale = float(np.max(np.abs(mu), initial=0.0))
    if not np.isfinite(scale):  # the stages overflowed, or the state was not finite
        raise FragkitError("rk4 produced a non-finite value")
    low = float(np.min(mu, initial=np.inf))
    if low < -1e-14 * max(scale, 1e-300):
        half, low_a = _rk4_step(gen, v, 0.5 * dt, depth + 1)
        out, low_b = _rk4_step(gen, half, 0.5 * dt, depth + 1)
        return out, min(low_a, low_b)
    np.clip(out, 0.0, None, out=out)
    return out, low


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
    # by rounding only is taken as dt, so it reuses the run's factors
    last = t_end - (t0 + (n_steps - 1) * dt)
    if abs(last - dt) <= 1e-12 * dt:
        last = dt
    full = n_steps if last == dt else n_steps - 1
    # chunks of full steps, then a short last step: implicit Euler on its own
    # factors, rk4 in stage form, since a second R(h A) would cost N / 30 steps
    chunks = [(dt, min(_IE_CHUNK, full - k)) for k in range(0, full, _IE_CHUNK)]
    if full < n_steps:
        chunks.append((last, 1))
    # samples after these many steps: the start, every sample_every-th and the last
    sampled = np.append(np.arange(0, n_steps, sample_every), n_steps)
    times = t0 + sampled * dt
    if n_steps:
        times[-1] = t_end

    obs = [v[None, :] @ probe]
    min_content = float(np.min(v[1:], initial=np.inf))
    done = 0
    step_op = None  # the implicit-Euler factors or R(dt A), once per run
    for h, m in chunks:
        if scheme == "rk4" and h != dt:
            out, low = _rk4_step(gen, v, h)
            states = out[None, :]
        else:
            if step_op is None or h != dt:
                step_op = None  # released before its successor is built
                step_op = (_ie_factors if scheme == "implicit_euler" else _rk4_matrix)(gen.matrix, h)
            if scheme == "implicit_euler":
                states, low = _ie_chunk(gen.matrix, step_op, h, v, m)
            else:
                states, low = _rk4_chunk(gen, step_op, h, v, m)
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
