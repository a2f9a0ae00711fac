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

The gain comes from one assembly rule for every kernel.  A built-in kernel's
band table (``FragmentKernel._bands``) makes most cells below x_j regular: they
lie wholly in the bottom band c0 x^q, where M(s; x_j) = c0 s^(q+2) / (q+2), so
their entries a_j c0 / (q+2) times (e_{i+1}^(q+2) - e_i^(q+2)) / x_i are one
outer product per block of ``_ASSEMBLY_BLOCK`` rows, written into the matrix,
the power taken once per edge.  Every other cell (the one that straddles the
bottom band's end, the top band's, the one below x_j) and the dust flux
difference M at their edges, from one list of points per column and one
``mass_partial`` call per group of whole columns.  A custom kernel is the case
with no regular cells: its list is every edge below x_j, then x_j itself.  A
column is never split, so each parent size gets one cumulative quadrature
pass, each entry is computed alone, and the matrix depends on neither the
block width nor the grouping.

Schemes
-------
One matrix serves three propagators, and one sweep, ``_sweep``, applies each
of them.  Every step operator is upper triangular, so block J of a step needs
only the rows below it, and a chunk of steps is taken from the bottom one
block of rows at a time: the block's coupling to the rows below, for every
step of the chunk, is one matrix product on a view of the operator, which is
read once per chunk, not once per step.  Then each step takes the block's
diagonal part, the one thing a scheme supplies, and clips it at 0 before the
next step reads it; the chunk is checked for non-finite values, the dust's
included, and for negatives beyond the scheme's round-off, which the oracle
only clips.
A run from t0 to t_end takes n = ceil((t_end - t0) / dt - 1e-12) equal steps
of length h, so each scheme builds one step operator per run: h is dt when
n dt is t_end - t0 to 1e-12 dt, and (t_end - t0) / n otherwise, a little
shorter than dt; step k ends at t0 + (k + 1) h, and the last at t_end.  A
scheme is one builder, ``(A, h) -> step``, listed in ``_SCHEMES``, and its
``step(v, m)`` takes m steps from v by the sweep.
``implicit_euler`` takes v+ = (I - h A)^-1 v = lambda (lambda - A)^-1 v with
lambda = 1 / h, a multiple of the resolvent, on A itself, holding no copy of
it: its coupling is h A[J, >J] v+[>J], the same step's rows, and its
diagonal step a product with the inverse of I - h A_JJ, an upper-triangular
M-matrix.  That inverse is built by halves, from products of non-negative
factors alone, so it has no negative entry; every term of the right-hand
side is non-negative too, so positivity of the update is structural, and the
per-step weighted norm is non-increasing whenever the gain columns satisfy
the kappa <= 1 admissibility inequality.  h A is checked for finiteness with
its factors, the initial state once per run.
``rk4`` takes v+ = R(h A) v with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
which for this linear, autonomous system is exactly the classical
four-stage step.  In w = 1 + z, R = 3/8 + w/3 + w^2/4 + w^4/24 has
non-negative coefficients summing to 1, and B = I + gA has no negative entry
once g max_j a_j <= 1.  So R(hA), built by Horner in B for g = h / 2^k with
the least such k and squared k times, makes no negative and does not raise
the weighted norm when the gain columns satisfy kappa <= 1; its build grows
with log2(h max_j a_j).  The sweep applies it with its coupling on the
previous step's rows.  R is one more (N+1)^2 array (two while it is built),
and its build costs about as much as N / 30 to N / 20 stage-form steps, so a
shorter run is slower than stepping stage by stage would be.
Both schemes record a chunk of states at once: the sampled observables are
one product of the states with (1, x, w) on the cells.
``expm_oracle``, the reference propagator for tests, applies e^{tA} by
uniformization (Jensen 1953; Moler & Van Loan, SIAM Rev. 2003, sec. 4).  With
sigma = max_j a_j, P = I + A / sigma has no negative entry, so
e^{tA} v = sum_k e^{-sigma t} (sigma t)^k / k! P^k v is a sum of non-negative
vectors, and each conserves l v when l A = 0.  t is split into hops with
sigma t rho <= _HOP, where rho = ||P||_l comes from one product l A (1 for a
conservative kernel, above 1 for a mass-gaining one), and a hop's series stops
once its Poisson tail bound is below 2^-53 of the weight summed.  That stop
depends on sigma t and rho alone, so a hop's weights are known before any
power is taken; the powers P^k v then come from the sweep in chunks, its
coupling A[J, >J] / sigma on the previous power's rows and its diagonal step
prev + A_JJ prev / sigma, both on views of A, so the oracle holds a chunk of
powers and no copy of A, scaled or not.  It refuses a negative entry off the
diagonal (InvalidInputError) and a non-finite entry (FragkitError), both
checked once per call with no (N+1)^2 temporary, and a non-finite power
(FragkitError) in the sweep's check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import write_csv
from .errors import FragkitError, InvalidInputError
from .kernels import FragmentKernel, RateFunction, eval_rate
from .weights import Weight

__all__ = ["Grid", "DiscreteGenerator", "DensityState", "Trajectory",
           "discretize", "simulate", "expm_oracle", "semigroup_check",
           "bump", "exp_decay", "column_kappa"]

_DEFAULT_NORM_WEIGHT = Weight.power_shifted(1.0)
# rows per block of ``_sweep``, for all three propagators (the top block takes
# the rest, up to twice as many): implicit Euler multiplies by the inverse of
# its diagonal block of I - dt A, rk4 by its diagonal part of R(dt A), the
# oracle by I + A_JJ / sigma, and each couples it to the rows below by one
# matrix product per chunk.  For implicit Euler on a 2-vCPU VM 512 rows took
# half as long again at N = 2048 and 512; 128 were no faster
_IE_BLOCK = 256
# most rows of a block of I - dt A that np.linalg.inv inverts whole; larger
# ones are inverted by halves.  On a 2-vCPU VM at N = 2048 every block took
# 9 ms by halves down to 32 rows, 10-11 ms down to 16 or 64, and 31 ms by inv
# on each whole block
_IE_LEAF = 32
# steps per chunk of ``_sweep``, and powers per chunk of the oracle: the
# operator is read once per chunk.  The chunk's states, (_IE_CHUNK, N + 1), are
# half the size of the implicit-Euler diagonal inverses; 256 steps were no
# faster and need twice the room
_IE_CHUNK = 128
# rows per outer product of a built-in kernel's assembly (128 rows are no
# faster), and with N the budget of one mass_partial call: it takes the whole
# columns that begin in one stretch of _ASSEMBLY_BLOCK * N / 2 points, so it
# holds fewer than that before its last column.  A custom kernel's call, with
# each point's column and index beside it, then holds no more than a table of
# N points by _ASSEMBLY_BLOCK columns would, well below the implicit-Euler
# factors (4.2 MB at N = 2048), so assembling does not raise a run's peak memory
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
        if not (0 < x_min < x_max and isinstance(n, (int, np.integer)) and 4 <= n < 2**53):
            raise InvalidInputError("need 0 < x_min < x_max and an integer 4 <= n < 2^53")
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
    """Assemble the generator; integral truncated at x_max by the triangular structure.

    A built-in kernel's band table ``(q, c0, d0, c1, d1)`` at the nodes makes cell
    r of parent j regular when r <= j - 2 and its upper edge is at most d0_j and
    below the top band: its entry is then
    (a_j c0_j / (q + 2)) (e_{r+1}^(q+2) - e_r^(q+2)) / x_r, a column factor times
    a row factor, so each block of ``_ASSEMBLY_BLOCK`` rows is one outer product,
    with the power taken once per edge.  A column's regular cells are a run from
    the first, so only the columns whose run ends inside a block are masked.  The
    rest, the cell that straddles d0_j, the top band's cells, the cell
    [e_{j-1}, x_j] and the dust flux, difference M(s; x_j) at their edges; a cell
    between the bands holds M(d0_j) - M(d0_j) = 0 and stays 0.  A custom kernel
    has no regular cell and no top band, so its points are all of 0..j.  Each
    ``mass_partial`` call takes the whole columns that begin in one stretch of
    ``_ASSEMBLY_BLOCK * N / 2`` points.
    """
    x, e, n = grid.nodes, grid.edges, grid.n
    a = np.asarray(eval_rate(rate, x), dtype=float)
    matrix = np.zeros((n + 1, n + 1))
    cols = np.arange(n)
    run = top = np.zeros(n, int)  # a custom kernel: column j's points are 0..j
    bands = kernel._bands(x)
    if bands is not None:
        q, c0, d0, _, d1 = bands
        t = np.where(d1 > 0, x - d1, np.inf)  # the top band's lower edge, as mass_partial takes it
        run = np.minimum(np.searchsorted(e[1:], np.minimum(d0, t), side="right"),
                         np.maximum(cols - 1, 0))
        top = np.searchsorted(e[1:], t, side="right")  # the first cell that reaches the top band
        row = np.diff(e ** (q + 2.0)) / x
        coef = a * c0 / (q + 2.0)
        for lo in range(0, n, _ASSEMBLY_BLOCK):
            hi = min(lo + _ASSEMBLY_BLOCK, n)
            # column j > lo takes rows lo:hi whole when its run reaches past them, none
            # when it ends at lo, and is masked from its end when that is inside
            reach = run[lo + 1:]
            np.multiply(row[lo:hi, None], np.where(reach > lo, coef[lo + 1:], 0.0),
                        out=matrix[lo + 1:hi + 1, lo + 2:])
            ends = np.flatnonzero((reach > lo) & (reach < hi)) + lo + 1
            part = matrix[lo + 1:hi + 1, ends + 1]
            part[np.arange(lo, hi)[:, None] >= run[ends]] = 0.0
            matrix[lo + 1:hi + 1, ends + 1] = part
    # the points p of column j that bound its other cells, in order: 0 for the
    # dust, the end of its run and the edge after it, and the top band's cells up
    # to point j, which is x_j; the last two always bound [e_{j-1}, x_j]
    starts = np.column_stack([np.zeros_like(cols), run, np.maximum(np.minimum(top, cols - 1), run + 2)])
    stops = np.column_stack([np.minimum(run, 1), np.minimum(run + 2, cols + 1), cols + 1])
    sizes = np.maximum(stops - starts, 0)
    count = sizes.sum(axis=1)
    first = np.cumsum(count) - count  # the index of each column's first point
    # one call per stretch of _ASSEMBLY_BLOCK * n / 2 points: the columns that start in it
    bounds = sorted(set(np.searchsorted(first, range(0, first[-1] + 1, _ASSEMBLY_BLOCK * n // 2))))
    for lo, hi in zip(bounds, bounds[1:] + [n]):
        size = sizes[lo:hi].ravel()
        j = np.repeat(cols[lo:hi], count[lo:hi])
        p = np.repeat(starts[lo:hi].ravel() - np.cumsum(size) + size, size) + np.arange(j.size)
        m = kernel.mass_partial(np.where(p == j, x[j], e[p]), x[j])
        matrix[0, lo + 1:hi + 1] = a[lo:hi] * m[p == 0]  # edges[0] == x[0]: the dust flux
        cell = np.flatnonzero(p[1:] == p[:-1] + 1)  # each column's points start from 0
        matrix[p[cell] + 1, j[cell] + 1] = a[j[cell]] * (m[cell + 1] - m[cell]) / x[p[cell]]
        del j, p, m, cell  # before the next call's are made
    matrix[np.arange(1, n + 1), np.arange(1, n + 1)] = -a
    return DiscreteGenerator(grid=grid, matrix=matrix)


def _norm_weight(weight: Weight, grid: Grid) -> np.ndarray:
    """w at the nodes, refused where it is not finite: past the double range no
    weighted norm, nor any ratio of its columns, is a number."""
    wv = weight.eval(grid.nodes)
    bad = grid.nodes[~np.isfinite(wv)]
    if bad.size:
        raise InvalidInputError(f"the norm weight {weight.describe()} is not finite at the node "
                                f"x = {float(bad[0])!r}; take a smaller x_max")
    return wv


def column_kappa(gen: DiscreteGenerator, weight: Weight) -> float:
    """max over active columns of (sum_i w(x_i) B_ij) / (a_j w(x_j)).

    A value <= 1 is the discrete form of the admissibility inequality and
    makes the implicit-Euler weighted norm non-increasing step by step.
    """
    wv = _norm_weight(weight, gen.grid)
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
    """The inverses of the diagonal blocks of I - dt A, top to bottom."""
    cuts = _cuts(a.shape[0])
    for lo, hi in zip(cuts, cuts[1:]):
        # a block's rows from its diagonal on are all that implicit Euler reads;
        # max and min see every NaN and inf in them, with no temporary
        rows = a[lo:hi, lo:]
        if not (np.isfinite(dt * rows.max()) and np.isfinite(dt * rows.min())):
            raise FragkitError("the implicit-Euler matrix I - dt A has a non-finite entry")
    return [_ie_inverse(a[lo:hi, lo:hi], dt) for lo, hi in zip(cuts, cuts[1:])]


def _ie_inverse(d: np.ndarray, dt: float) -> np.ndarray:
    """(I - dt d)^-1 for an upper-triangular block d, by halves.

    The inverse of [[I - dt d11, -dt d12], [0, I - dt d22]] is [[X11, X12],
    [0, X22]] with X12 = X11 (dt d12) X22.  When d's off-diagonal entries are
    non-negative, I - dt d is an M-matrix and every factor of that product has
    no negative entry, so nothing cancels; nor does the back substitution of
    np.linalg.inv on a leaf, which meets no pivot and sums terms of one sign.
    So X has no negative entry, and nothing below its diagonal.
    """
    n = d.shape[0]
    if n <= _IE_LEAF:
        return np.linalg.inv(np.eye(n) - dt * d)
    h = n // 2
    x = np.zeros((n, n))
    x[:h, :h] = _ie_inverse(d[:h, :h], dt)
    x[h:, h:] = _ie_inverse(d[h:, h:], dt)
    np.matmul(x[:h, :h] @ (d[:h, h:] * dt), x[h:, h:], out=x[:h, h:])
    return x


def _implicit_euler(a: np.ndarray, h: float):
    """The implicit-Euler stepper of step length h on A = a: ``step(v, m)``
    takes m steps from v and returns ``(states, low)`` as ``_sweep`` gives them.

    Each block takes x = (I - h A_JJ)^-1 (prev + h A[J, >J] x[>J]), its
    factor times the sum, so the coupling reads the same step's rows below.
    """
    steps = [lambda c, prev, f=f: f @ np.add(c, prev, out=c) for f in _ie_factors(a, h)]
    # non-negativity is structural; anything below is round-off
    return lambda v, m: _sweep(a, h, steps, v, m, True, "implicit Euler", 1e-12)


def _sweep(couple: np.ndarray, scale: float, steps: list, v: np.ndarray, m: int,
           implicit: bool, scheme: str, tol: float) -> tuple[np.ndarray, float]:
    """m steps from v of an upper-triangular operator, row block by row block
    from the bottom: ``(states, low)`` as ``_checked`` gives them, row k of
    states the state after step k + 1.

    Block J of a step needs only the rows below it, so each block is taken for
    all m steps before the one above it: its coupling scale couple[J, >J] x[>J]
    for the whole chunk is one matrix product on a view of couple, which is
    read once per chunk, not once per step.  x is step k + 1's rows when
    ``implicit``, step k's otherwise, unclipped; then ``steps[J](c, prev)``
    returns the block of step k + 1 from its coupling c, which it may
    overwrite, and the block's previous state prev, clipped at 0.
    """
    states = np.empty((m + 1, v.size))  # row 0 is v, row k the state after step k
    states[0] = v
    below = states[1:] if implicit else states[:-1]
    cuts = _cuts(v.size)
    for j in reversed(range(len(cuts) - 1)):
        lo, hi = cuts[j], cuts[j + 1]
        c = np.empty((m, hi - lo))
        np.matmul(below[:, hi:], couple[lo:hi, hi:].T, out=c)  # views: nothing is copied
        c *= scale
        prev = v[lo:hi]
        for k in range(m):
            x = steps[j](c[k], prev)
            states[k + 1, lo:hi] = x
            prev = np.maximum(x, 0.0, out=x)
    return _checked(states[1:], scheme, tol)


def _checked(states: np.ndarray, scheme: str, tol: float) -> tuple[np.ndarray, float]:
    """``(states, low)``: a chunk of states checked step by step for a non-finite
    value, the dust's included, and for a cell below -tol times the largest,
    then clipped at 0; low is the least cell content before clipping."""
    mu = states[:, 1:]
    top = mu.max(axis=1, initial=0.0)
    lows = mu.min(axis=1, initial=np.inf)
    finite = np.isfinite(top) & np.isfinite(states[:, 0])
    for k in range(len(states)):
        if not finite[k]:
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


def _rk4(a: np.ndarray, h: float):
    """The rk4 stepper of step length h on A = a, by R = R(h A), as
    ``_implicit_euler`` gives its stepper.

    Each block adds R_JJ prev to its coupling R[J, >J] x[>J], which reads the
    previous step's rows below.
    """
    r = _rk4_matrix(a, h)
    cuts = _cuts(a.shape[0])
    steps = [lambda c, prev, d=r[lo:hi, lo:hi]: np.add(c, d @ prev, out=c)
             for lo, hi in zip(cuts, cuts[1:])]
    # R has no negative entry unless A has one off its diagonal
    return lambda v, m: _sweep(r, 1.0, steps, v, m, False, "rk4", 1e-14)


# each scheme's builder (A, h) -> stepper; the one list of the schemes simulate takes
_SCHEMES = {"implicit_euler": _implicit_euler, "rk4": _rk4}


def _check_scheme(scheme: str, *names: str) -> None:
    if scheme not in names:
        raise InvalidInputError(f"unknown scheme {scheme!r}; "
                                f"use {', '.join(names[:-1])} or {names[-1]}")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along a run.

    The dust carries mass only, so ``M0`` counts the fragments on the grid and
    loses those that fell below x_1; for ``homogeneous_power(nu)`` their number
    grows like x_min^(nu+1), so for nu < 0 ``M0`` does not converge as the grid
    is refined at a fixed x_min.  ``M1 + dust_mass`` is the conserved mass.
    """

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
    """Evolve u0 to t_end with equal steps, sampling observables as it goes.

    The run takes n = ceil((t_end - t0) / dt - 1e-12) steps of length h: dt
    when n dt is t_end - t0 to 1e-12 dt, else (t_end - t0) / n, so the last
    step ends at t_end and one step operator serves the whole run.
    ``u0`` may be a density array on the generator's grid or a DensityState.
    The dust is state component 0, advanced by the same scheme as the cells,
    so M1 + dust is conserved to round-off.
    """
    state = _as_state(u0, gen)
    if not (0 < dt < np.inf and np.isfinite(t_end)
            and isinstance(sample_every, (int, np.integer)) and sample_every >= 1):
        raise InvalidInputError("need finite dt > 0 and t_end, and an integer sample_every >= 1; got "
                                f"dt = {dt!r}, t_end = {t_end!r}, sample_every = {sample_every!r}")
    _check_scheme(scheme, *_SCHEMES)
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
                                     _norm_weight(weight, gen.grid)])

    t0, span = state.t, t_end - state.t
    v = np.append(state.dust_mass, w * state.u)
    n_steps = int(np.ceil(span / dt - 1e-12))
    # n_steps equal steps of length h end at t_end: h is dt when n_steps dt is
    # the span to rounding, so step k of a whole number of dt ends at t0 + (k + 1) dt
    h = span / n_steps if n_steps and abs(n_steps * dt - span) > 1e-12 * dt else dt
    # samples after these many steps: the start, every sample_every-th and the last
    sampled = np.append(np.arange(0, n_steps, sample_every), n_steps)
    times = t0 + sampled * h
    if n_steps:
        times[-1] = t_end

    obs = [v[None, :] @ probe]
    min_content = float(np.min(v[1:], initial=np.inf))
    step = _SCHEMES[scheme](gen.matrix, h) if n_steps else None
    for done in range(0, n_steps, _IE_CHUNK):
        m = min(_IE_CHUNK, n_steps - done)
        states, low = step(v, m)
        min_content = min(min_content, low)
        rows = sampled[(sampled > done) & (sampled <= done + m)] - done - 1
        obs.append((states @ probe)[rows])  # every row, so a row's values do not depend on sample_every
        v = states[-1].copy()
        del states  # so the next chunk's states replace these, not join them

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
    return DensityState(grid=gen.grid, u=v[1:] / gen.grid.weights, t=state.t + t,
                        dust_mass=float(v[0]))


def _uniformized_hop(a: np.ndarray, sigma: float, lam: float, rho: float, v: np.ndarray
                     ) -> np.ndarray:
    """e^{lam (P - I)} v = sum_k pois_k(lam) P^k v for P = I + a / sigma, ||P||_l <= rho.

    The series stops at the least K whose tail bound sum_{k > K} pois_k rho^k,
    a geometric series past k = lam rho, is below 2^-53 of the weight summed,
    sum_{k <= K} pois_k rho^k; K depends on lam and rho alone, so the weights,
    from pois_{k+1} = pois_k lam / (k + 1), come first.  The powers P^k v are
    then taken by ``_sweep`` in chunks of ``_IE_CHUNK``: each block's step adds
    prev + (a_JJ prev) / sigma to its coupling a[J, >J] x[>J] / sigma, on views
    of a, and the clip at 0 only removes round-off.  The result is divided by
    the weights' sum, which is 1 to that bound, so their rounding drops out.
    """
    pois = [math.exp(-lam)]
    r = r_total = pois[0]  # pois_K rho^K, and its sum over k <= K
    mean = lam * rho
    k = 0
    while True:
        r_next = r * mean / (k + 1)
        if k + 2 > mean and r_next <= _TAIL * r_total * (1.0 - mean / (k + 2)):
            break
        k += 1
        pois.append(pois[-1] * lam / k)
        r = r_next
        r_total += r
    pois = np.array(pois)
    cuts = _cuts(v.size)
    steps = [lambda c, prev, d=a[lo:hi, lo:hi]: np.add(c, prev + (d @ prev) / sigma, out=c)
             for lo, hi in zip(cuts, cuts[1:])]
    out = pois[0] * v
    for lo in range(1, pois.size, _IE_CHUNK):
        hi = min(lo + _IE_CHUNK, pois.size)
        # P has no negative entry, so a negative is round-off: clipped, never refused
        states, _ = _sweep(a, 1.0 / sigma, steps, v, hi - lo, False, "the oracle", np.inf)
        out += pois[lo:hi] @ states
        v = states[-1].copy()
        del states  # so the next chunk's states replace these, not join them
    out /= pois.sum()
    return out


def semigroup_check(gen: DiscreteGenerator, u0, t: float, s: float, *,
                    scheme: str = "implicit_euler", dt: float = 1e-3,
                    weight: Weight | None = None) -> float:
    """Relative weighted-norm deviation of the one-hop vs two-hop evolution.

    ``u0`` may be a density array or a DensityState; both hops start at its clock.
    """
    weight = weight or _DEFAULT_NORM_WEIGHT
    _check_scheme(scheme, *_SCHEMES, "expm")
    wv = _norm_weight(weight, gen.grid)
    state = _as_state(u0, gen)
    t0 = state.t
    if scheme == "expm":
        one = expm_oracle(gen, t + s, state)
        two = expm_oracle(gen, t, expm_oracle(gen, s, state))
    else:
        one = simulate(state, gen, t0 + t + s, dt, scheme=scheme, weight=weight).final
        half = simulate(state, gen, t0 + s, dt, scheme=scheme, weight=weight).final
        two = simulate(half, gen, t0 + s + t, dt, scheme=scheme, weight=weight).final
    denom = float(np.abs(wv * gen.grid.weights * one.u).sum())
    return float(np.abs(wv * (gen.grid.weights * (one.u - two.u))).sum()) / max(denom, 1e-300)
