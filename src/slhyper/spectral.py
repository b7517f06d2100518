"""Spectral measure construction, the eigenfunction transform and the
heat kernel.

The measure rho on [sigma^2, oo) is approximated by the eigenvalues of the
operator truncated to [a, L] (zero flux at a, Dirichlet at L), each atom
carrying mass 1/||w_lambda||^2.  The eigenvalues of the finite-volume
matrix are located by bisection to theta = 2e-4 times each one's gap, the
largest ratio of tolerance to gap that the floor 1e-8 max(1, lambda_max)
gives on the builtin families (``_bisection``), then its eigenvectors come
from inverse iteration per run of close eigenvalues, cut by relative gap:
LAPACK's own cluster test is an absolute gap, which on these graded
matrices would reorthogonalize the whole wanted spectrum (``_eigenpairs``).
Each eigenvalue is the Rayleigh quotient of its vector, and each vector is
scaled to w(a) = 1 by its least-squares fit to the kernel's w on a window
of leading nodes (``KernelEvaluator.leading_values``).  Eigenvalues and
masses are Richardson extrapolated across a grid halving, which removes
the leading h^2 discretization error.  So are the eigenfunctions: the
measure keeps one vector-valued cubic spline, the exact combination
(4 S_fine - S_coarse) / 3 of the two levels' splines, written on the union
of their knots by knot insertion (``kernel._add_spline``), so every
evaluation is one spline call, in numpy (``kernel.RowSpline``).  Spline
coefficients are linear in their data, so the levels are fitted in turn,
and one level's node table, mapped outside the malloc heap, is alive at a
time (``_levels``); ``SpectralMeasure.pairing`` says where the pairing of
the levels' eigenvalues stopped.

Every inverse transform is one ``sm.synthesize(coef, grid)``.  A spline
is linear in its coefficients (de Boor, A Practical Guide to Splines), so
sum_k m_k coef_k w_k is itself a spline, and synthesize takes the cheaper
order of B(grid) C (masses * coef), C the coefficient table, decided by
the shapes alone: contract first (the rows of C that reach the grid times
the weighted coef, then one spline evaluation), as for the product
kernels on thousands of points; or evaluate every eigenfunction on the
grid first, as for short grids and for many right-hand sides at once.
Contracting first reads only a prefix of the atoms: those whose dropped
tail sum_k |m_k coef_k| b_k, with b_k = max |C[:, k]| a bound on |w_k| by
the convex-hull property of B-splines, stays within one unit roundoff of
the whole sum of such terms.  The full sum's own rounding error is already
up to K times that (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 4), so the result is as accurate; at t >= 0.1 the factor
e^{-t lambda} of the heat and product kernels leaves most atoms below it.
``sm.basis(grid)`` is the one way the transforms and syntheses get the
eigenfunction values on a grid, with the grid's weights for int f r dx
and the forward transform on it; the evaluate-first order of synthesize
reads its values too, every atom of them.  The measure memoizes bases,
keyed by grid content, their grid, values and weights read-only: the
kept values add up to at most the size of the spline's coefficient table,
and a miss evicts the bases with the fewest lookups until the new one
fits.  So a function that uses one grid several times asks for its basis
each time and evaluates it once.  The contract-first order neither reads
nor fills the memo, and ``w_values`` itself is never memoized.  The
eigenfunctions are known on [a_eff, L] only, a_eff the first node of the
kernel's series table (``KernelEvaluator.start``): a point in [a, a_eff)
takes the value 1 of every w_k at a_eff, and a point below a or past L is
an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError

from .kernel import (KernelEvaluator, RowSpline, _add_spline, _interval,
                     _lapack, _mapped_zeros, _merged_knots)
from .operator import OperatorSpec, _seg_integral, build_standard_form

__all__ = [
    "Basis",
    "GridFunction",
    "Pairing",
    "SpectralMeasure",
    "TransformTable",
    "build_spectral_measure",
    "forward_transform",
    "inverse_transform",
    "heat_kernel_grid",
    "bump_function",
]


# ---------------------------------------------------------------------------
# grid functions


def _r_weights(spec: OperatorSpec, grid: np.ndarray) -> np.ndarray:
    """Weights of int f r dx on grid: the trapezoid weights times r, with r
    taken as 0 where it is not finite (a singular endpoint on the grid).  A
    grid of one point has weight 0."""
    w = np.zeros_like(grid)
    if len(grid) > 1:
        w[0] = (grid[1] - grid[0]) / 2
        w[-1] = (grid[-1] - grid[-2]) / 2
        w[1:-1] = (grid[2:] - grid[:-2]) / 2
    with np.errstate(all="ignore"):
        rv = spec.r(grid)
    return np.where(np.isfinite(rv), rv, 0.0) * w


def _checked_grid(grid, name: str = "grid") -> np.ndarray:
    """grid as a float array, which must be finite, strictly increasing and
    at least two points long, or ValueError names it."""
    g = np.asarray(grid, dtype=float)
    if (g.ndim != 1 or len(g) < 2 or not np.all(np.isfinite(g))
            or np.any(np.diff(g) <= 0)):
        raise ValueError(f"{name} must be finite and strictly increasing, "
                         "with at least two points")
    return g


@dataclass(frozen=True)
class GridFunction:
    grid: np.ndarray
    values: np.ndarray
    compact_support: bool = False
    smooth2: bool = False

    def __post_init__(self):
        object.__setattr__(self, "grid", _checked_grid(self.grid))
        object.__setattr__(self, "values", np.asarray(self.values))

    def __call__(self, x):
        return np.interp(x, self.grid, self.values.real,
                         left=0.0, right=0.0)


def bump_function(center: float, width: float, grid) -> GridFunction:
    """Smooth compactly supported bump exp(-1/(1-u^2)) on |u|<1; the
    constructor verifies and sets the admissibility flags."""
    grid = np.asarray(grid, dtype=float)
    u = (grid - center) / width
    vals = np.zeros_like(grid)
    inside = np.abs(u) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    compact = bool(vals[0] == 0.0 and vals[-1] == 0.0)
    return GridFunction(grid, vals, compact_support=compact, smooth2=True)


# ---------------------------------------------------------------------------
# measure


@dataclass(frozen=True)
class TransformTable:
    lambdas: np.ndarray
    values: np.ndarray


@dataclass(eq=False)
class Basis:
    """The eigenfunctions of one measure evaluated on one grid, W[k] =
    w_k(grid), with the grid's weights rw for int f r dx and the number of
    lookups the measure's memo has answered with it.  Built by
    SpectralMeasure.basis, which keeps its own copy of the grid."""

    grid: np.ndarray
    W: np.ndarray
    rw: np.ndarray
    hits: int = 0

    def forward(self, values) -> np.ndarray:
        """int values w_k r dx at every atom."""
        return self.W @ (values * self.rw)



class SpectralMeasure:
    """Atoms and masses of the measure, with the normalized eigenfunctions
    on [a_eff, L] stored as one vector-valued cubic spline: the Richardson
    combination (4 S_fine - S_coarse) / 3 of the two levels' splines,
    written exactly on the union of their knots.

    synthesize contracts the coefficient table with the weighted
    coefficients first when that takes fewer multiply-adds than evaluating
    every eigenfunction on the grid first; the choice depends on the shapes
    alone (see synthesize).  Contracting first drops the atoms whose terms
    lie below one unit roundoff of the sum (see _contracted).

    basis memoizes the bases it builds, keyed by grid content (a stored
    copy of the grid, compared with np.array_equal), each with its grid,
    values and weights read-only.  The kept values add up to at most the
    size of the spline's coefficient table; on a miss, the bases with the
    fewest lookups go, the older on a tie, until the new one fits, so a
    grid that keeps coming back outlives one-off grids.  Values larger
    than the coefficient table are not kept.  The contract-first order of
    synthesize keeps nothing.  sigma2 comes from the operator's standard
    form when first read, so a build does no standard-form work.  pairing
    records how the two levels' eigenpairs were paired, and where the
    pairing stopped when it dropped atoms (see Pairing)."""

    def __init__(self, spec, evaluator, lambdas, masses, L, N,
                 a_eff: float, w: RowSpline, pairing: Pairing):
        self.spec = spec
        self.pairing = pairing
        self.evaluator = evaluator
        self.lambdas = lambdas
        self.masses = masses
        self.L = L
        self.N = N
        self._a_eff = a_eff
        self._w = w
        self._kept: list[Basis] = []
        bad = masses <= 0
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"{spec.name}: non-positive atom mass {masses[k]:.3g} at atom "
                f"{k}, lambda = {lambdas[k]:.6g}: discretization too coarse")

    def __len__(self):
        return len(self.lambdas)

    @cached_property
    def sigma2(self) -> float:
        """sigma^2 of the operator's standard form: the spectrum's bottom."""
        return float(build_standard_form(self.spec).sigma ** 2)

    def _clamped(self, xq: np.ndarray) -> np.ndarray:
        """xq clamped below at a_eff, where every w_k is 1; a point below a,
        or past L where the truncated measure ends, raises ValueError."""
        if np.fmin.reduce(xq, initial=math.inf) < self.spec.a:
            raise ValueError(f"points below a = {self.spec.a:g}, the "
                             "operator's left end")
        if np.fmax.reduce(xq, initial=-math.inf) > self.L:
            raise ValueError(f"points past L = {self.L:g}, where the "
                             "eigenfunctions end")
        return np.maximum(xq, self._a_eff)

    def w_values(self, xq) -> np.ndarray:
        """(K, len(xq)) matrix of eigenfunction values.  Points in [a,
        a_eff) take the value at a_eff, where every w_k is 1; points below
        a or past L raise ValueError."""
        return self._w(
            self._clamped(np.atleast_1d(np.asarray(xq, dtype=float))))

    def basis(self, grid) -> Basis:
        """Every eigenfunction on grid, with the grid's weights: what every
        transform and evaluate-first synthesis reads.  An equal grid kept in
        the measure's memo returns its basis, read-only; a miss evaluates
        grid and keeps the basis unless its values outgrow the spline's
        coefficient table, first evicting the bases with the fewest lookups
        until all kept values fit in that size (see SpectralMeasure)."""
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        for kept in self._kept:
            if np.array_equal(kept.grid, grid):
                kept.hits += 1
                return kept
        b = Basis(grid.copy(), self.w_values(grid), _r_weights(self.spec, grid))
        room = self._w.c.size - b.W.size
        if room >= 0:
            for a in (b.grid, b.W, b.rw):
                a.flags.writeable = False
            while sum(k.W.size for k in self._kept) > room:
                # min keeps the first of equals: the older entry
                self._kept.remove(min(self._kept, key=lambda k: k.hits))
            self._kept.append(b)
        return b

    def synthesize(self, coef, grid) -> np.ndarray:
        """sum_k m_k coef_k w_k(grid), the inverse transform of an atom
        table.  coef of shape (K,) or (K, m) gives shape (n,) or (m, n).

        The sum is B(grid) C (masses * coef), with B the B-splines on grid
        and C the spline's coefficient table, and it takes the cheaper
        order by multiply-adds, a choice made from the shapes alone:
        contracting first costs rows K m + 4 n m, where rows counts the
        rows of C whose B-splines reach the grid's span; evaluating first
        costs n K (4 + m) and reads the values of basis(grid), memo
        included.  Both costs count every atom, K; contracting first then
        reads only the atoms above rounding (see _contracted) and keeps
        nothing, and evaluating first sums every atom."""
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        coef = np.asarray(coef)
        m = 1 if coef.ndim == 1 else coef.shape[1]
        n, K = grid.size, len(self.lambdas)
        if n:
            lo, hi = self._rows(grid)
            if (hi - lo) * K * m + 4 * n * m < n * K * (4 + m):
                return self._contracted(coef, grid, lo, hi)
        return (self.masses * coef.T) @ self.basis(grid).W

    def _rows(self, grid: np.ndarray) -> tuple[int, int]:
        """The rows [lo, hi) of the coefficient table whose B-splines are
        nonzero somewhere on the span of grid, clamped below at a_eff.  The
        knot intervals are found as the spline evaluation finds them."""
        span = (max(np.fmin.reduce(grid), self._a_eff),
                max(np.fmax.reduce(grid), self._a_eff))
        first, last = _interval(self._w.t, span).tolist()
        return first - 3, last + 1

    def _contracted(self, coef, grid, lo: int, hi: int) -> np.ndarray:
        """sum_k m_k coef_k w_k(grid) as one spline: the rows [lo, hi) of
        the coefficient table times masses * coef, on the knots of those
        rows, evaluated on the grid clamped as in w_values.  Only the first
        K0 atoms are read (``_atoms_above_rounding``), so the dropped part
        of each column is at most one unit roundoff of sum_k |m_k coef_k|
        b_k, which bounds the full sum's own rounding error K times over."""
        weighted = (self.masses * coef.T).T
        k0 = self._atoms_above_rounding(weighted)
        spline = RowSpline(self._w.t[lo:hi + 4],
                           self._w.c[lo:hi, :k0] @ weighted[:k0])
        return spline(self._clamped(grid))

    @cached_property
    def _atom_bounds(self) -> np.ndarray:
        """b_k = max_i |C[i, k]|, a bound on |w_k| on [a_eff, L]: a spline
        lies in the convex hull of its coefficients (de Boor).  Taken from
        the column maxima and minima, which make no temporary the size of
        the table."""
        c = self._w.c
        return np.maximum(c.max(axis=0), -c.min(axis=0))

    def _atoms_above_rounding(self, weighted: np.ndarray) -> int:
        """The smallest K0 with T_j(K0) <= 2^-53 T_j(0) for every column j
        of weighted, where T_j(K0) = sum_{k >= K0} |weighted[k, j]| b_k;
        every atom, K, when a weight or a T_j(0) is not finite, so that NaN
        and inf reach the result as in the full sum."""
        terms = np.abs(weighted.reshape(len(weighted), -1)) \
            * self._atom_bounds[:, None]
        # tails[k] = T(k); a float sum of non-negative terms never shrinks
        # as terms are added, so each column of tails is non-increasing
        tails = np.cumsum(terms[::-1], axis=0)[::-1]
        if not (np.isfinite(weighted).all() and np.isfinite(tails[0]).all()):
            return len(weighted)
        above = tails > 2.0 ** -53 * tails[0]
        return int(above.sum(axis=0).max(initial=0))

    def cumulative(self, lam: float) -> float:
        """rho[0, lam], smoothed: it interpolates linearly between atom
        midpoints, which is the natural reading of the staircase as an
        approximation of an absolutely continuous measure."""
        lams, ms = self.lambdas, self.masses
        csum = np.concatenate([[0.0], np.cumsum(ms)])
        # midpoints between consecutive atoms; each atom's mass is treated
        # as spread over its cell
        mids = np.concatenate([[lams[0] - (lams[1] - lams[0]) / 2],
                               (lams[:-1] + lams[1:]) / 2,
                               [lams[-1] + (lams[-1] - lams[-2]) / 2]])
        return float(np.interp(lam, mids, csum))


def _node_grid(a_eff: float, L: float, N: int, grade: float) -> np.ndarray:
    u = np.arange(1, N + 1) / (N + 1)
    return a_eff + (L - a_eff) * u ** grade


# relative eigenvalue gap below which inverse iteration orthogonalizes the
# eigenvectors together, the cluster bound of MRRR (Dhillon & Parlett, 2004)
_RUN_GAP = 1e-3


def _runs(vals: np.ndarray, iblock: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) of the eigenvalue runs: consecutive eigenvalues
    of one block whose relative gap (vals[k+1] - vals[k]) / max(1, |vals[k]|)
    stays below _RUN_GAP."""
    gap = np.diff(vals) / np.maximum(1.0, np.abs(vals[:-1]))
    ends = np.flatnonzero((gap >= _RUN_GAP) | (np.diff(iblock) != 0)) + 1
    bounds = [0, *ends.tolist(), len(vals)]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


# rows per block of the Rayleigh quotient's sum; its two (rows, K) temporaries
# stay small beside the eigenvector table (256 rows raised the peak RSS)
_RQ_ROWS = 64


def _rayleigh_quotients(diag: np.ndarray, off: np.ndarray,
                        vecs: np.ndarray) -> np.ndarray:
    """v^T T v for every column v of vecs, T the symmetric tridiagonal
    matrix (diag, off), written as a sum of squares,

        sum_i g_i v_i^2 + sum_i |off_i| (v_i + sign(off_i) v_{i+1})^2,
        g_i = diag_i - |off_{i-1}| - |off_i|,

    so that the terms of size ||T|| v_i^2 do not cancel in floating point:
    on a Sturm-Liouville matrix g is a small potential and the second sum
    the discrete energy, both nearly free of cancellation.  The sum over
    diag v^2 + 2 off v v' loses eps ||T|| to it, 7e-9 relative on the
    Whittaker matrix at N=4096.  Summed in blocks of rows, so no
    temporary the size of vecs is made.
    """
    a = np.abs(off)
    g = diag.copy()
    g[:-1] -= a
    g[1:] -= a
    sgn = np.sign(off)[:, None]
    lam = np.einsum("i,ik,ik->k", g, vecs, vecs)
    for lo in range(0, len(off), _RQ_ROWS):
        hi = min(lo + _RQ_ROWS, len(off))
        dv = vecs[lo:hi] + sgn[lo:hi] * vecs[lo + 1:hi + 1]
        lam += np.einsum("i,ik,ik->k", a[lo:hi], dv, dv)
    return lam


# bisection chunks, as fractions of lambda_max: (-1e-9, lambda_max 4^-6],
# (lambda_max 4^-6, lambda_max 4^-5], ..., (lambda_max / 4, lambda_max]
_CHUNK_EDGES = tuple(4.0 ** -j for j in range(6, -1, -1))
# bisection tolerance over eigenvalue gap: the largest ratio that the floor
# 1e-8 lambda_max gives on the builtin families (2.1e-4, at cosine's lowest
# atom), so no eigenvalue is located more loosely than that one
_THETA = 2e-4


def _bisection(diag: np.ndarray, off: np.ndarray, lambda_max: float):
    """Eigenvalues in (-1e-9, lambda_max] of the symmetric tridiagonal
    matrix (diag, off), in LAPACK stebz's order (by block, then by value),
    with their block indices and stebz's isplit.  Each is located to within
    theta = _THETA times its gap to its neighbours, and never closer than
    the floor 1e-8 max(1, lambda_max).

    Each chunk of _CHUNK_EDGES is bisected at its own absolute tolerance,
    first theta width / (2 m) from its count m.  Then a chunk whose
    tolerance exceeds 4 max(floor, theta gap) at any of its eigenvalues is
    bisected again at max(floor, theta times its smallest gap), until none
    does.  Tolerances only fall, by more than 4 each time, and stop at the
    floor, so this ends; a pair closer than floor / theta ends at it.  The
    neighbours past the interval's ends are not computed: two Sturm counts
    say whether one lies within one gap of the outermost eigenvalue, and if
    one does, the end stands in for it.
    """
    stebz, = _lapack("stebz")
    floor = 1e-8 * max(1.0, lambda_max)
    edges = [-1e-9, *(lambda_max * f for f in _CHUNK_EDGES)]
    isplit = None

    def bisect(lo, hi, tol):
        nonlocal isplit
        m, w, iblock, isplit, info = stebz(diag, off, 1, lo, hi, 0, 0, tol,
                                           "B")
        if info != 0:
            raise LinAlgError(f"bisection failed (stebz info {info})")
        # copies, so that the chunks keep no matrix-length arrays alive
        return w[:m].copy(), iblock[:m].copy()

    def count(lo, hi):
        # a tolerance of the whole width stops at the two Sturm counts
        return len(bisect(lo, hi, hi - lo)[0])

    chunks = []  # (lo, hi, tol, w, iblock), in ascending order
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = count(lo, hi)
        if m:
            tol = max(floor, _THETA * (hi - lo) / (2 * m))
            chunks.append((lo, hi, tol, *bisect(lo, hi, tol)))
    again = bool(chunks)
    while again:
        vals = np.concatenate([np.sort(w) for *_, w, _ in chunks])
        d = np.diff(vals)
        reach = (d[0], d[-1]) if len(d) else (lambda_max - edges[0],) * 2
        below, above = vals[0] - reach[0], vals[-1] + reach[1]
        if below < edges[0] and count(below, edges[0]):
            below = edges[0]
        if above > lambda_max and count(lambda_max, above):
            above = lambda_max
        gaps = np.diff(np.r_[below, vals, above])
        near = np.minimum(gaps[:-1], gaps[1:])
        again, first = False, 0
        for i, (lo, hi, tol, w, _) in enumerate(chunks):
            need = max(floor, _THETA * near[first:first + len(w)].min())
            first += len(w)
            if tol > 4 * need:
                chunks[i] = (lo, hi, need, *bisect(lo, hi, need))
                again = True
    w = np.concatenate([np.empty(0), *(w for *_, w, _ in chunks)])
    iblock = np.concatenate([np.empty(0, dtype=isplit.dtype),
                             *(b for *_, b in chunks)])
    order = np.lexsort((w, iblock))
    return w[order], iblock[order], isplit


def _eigenpairs(diag: np.ndarray, off: np.ndarray, lambda_max: float):
    """Eigenvalues in (-1e-9, lambda_max] of the symmetric tridiagonal
    matrix (diag, off), ascending, with orthonormal eigenvectors as columns.
    Returns the eigenvalues, the eigenvectors and the table that holds them:
    the vectors are the view table[1:-1] of a zeroed (n + 2, m) table mapped
    outside the malloc heap (``kernel._mapped_zeros``), whose first and last
    rows are left to the caller.

    Bisection (``_bisection``) locates each eigenvalue to theta = 2e-4
    times its gap, never closer than 1e-8 max(1, lambda_max): inverse
    iteration (stein) needs its shift close relative to the eigenvalue's
    own gap (Parlett, The Symmetric Eigenvalue Problem, ch. 4), and theta,
    the loosest ratio that floor gives on the builtin families, lets it
    converge in its usual few steps.  stein runs once per run of close
    eigenvalues (``_runs``), so only the vectors of one run are
    orthogonalized against each other, and each run's vectors are written
    straight into the table.  LAPACK's own cluster test is absolute, a gap
    of 1e-3 ||T||_1, and ||T||_1 reaches 1e4 to 1e10 here, so one call
    would orthogonalize every wanted vector against all the others, an
    O(N K^2) Gram-Schmidt that relative gaps of about 2/k do not need.
    Each eigenvalue is then the Rayleigh quotient of its unit vector
    (``_rayleigh_quotients``), whose error is the square of the vector's
    residual over the gap (ch. 4 again): far below the bisection
    tolerance, and below the ulp ||T|| that a full bisection reaches, which
    on the graded matrices is 1e-6 of the lowest eigenvalues.  Both
    routines come from scipy's compiled LAPACK wrapper (``kernel._lapack``),
    without the import of scipy.linalg.
    """
    stein, = _lapack("stein")
    w, iblock, isplit = _bisection(diag, off, lambda_max)
    m = len(w)
    table = _mapped_zeros((len(diag) + 2, m))
    vecs = table[1:-1]
    # stein reads the block index of each eigenvalue from an array of
    # the matrix's length
    blk = np.empty_like(isplit)
    for lo, hi in _runs(w, iblock):
        blk[:hi - lo] = iblock[lo:hi]
        vecs[:, lo:hi], info = stein(diag, off, w[lo:hi], blk, isplit)
        if info != 0:
            raise LinAlgError(f"inverse iteration failed (stein info {info})")
    lam = _rayleigh_quotients(diag, off, vecs)
    # block order to ascending order; a single block is ascending already,
    # and then the vectors are not moved
    order = np.argsort(lam)
    if np.any(order != np.arange(m)):
        lam = lam[order]
        vecs[:] = vecs[:, order]
    return lam, vecs, table


def _finite_volume(spec: OperatorSpec, a_eff: float, L: float, N: int,
                   grade: float, lambda_max: float):
    """Finite-volume eigenproblem with exact flux coefficients: the nodes,
    the cell masses wgt and the symmetric tridiagonal matrix (diag, off)
    of one level.

    Fluxes use harmonic averages beta = 1/int dx/p and cell masses are
    int r dx, so power-law singular coefficients at the left endpoint are
    represented exactly (the Krein string discretization).  Leading nodes
    whose diagonal entry would dwarf lambda_max are merged into their
    neighbor: they contribute nothing to the spectrum below lambda_max but
    their roundoff (eps times the matrix norm) would pollute the small
    eigenvalues.
    """
    nodes = _node_grid(a_eff, L, N, grade)
    faces = np.empty(N + 1)
    faces[0] = a_eff
    faces[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
    faces[-1] = 0.5 * (nodes[-1] + L)
    beta = np.empty(N)
    # coefficients that over- or underflow give entries that are not
    # finite; the check below names them, so numpy need not warn
    with np.errstate(all="ignore"):
        beta[:-1] = 1.0 / _seg_integral(lambda x: 1.0 / spec.p(x),
                                        nodes[:-1], nodes[1:])
        beta[-1] = 1.0 / _seg_integral(lambda x: 1.0 / spec.p(x),
                                       nodes[-1:], np.array([L]))[0]
        wgt = _seg_integral(spec.r, faces[:-1], faces[1:])
        diag = (np.r_[0.0, beta[:-1]] + beta) / wgt
        cap = 1e7 * max(1.0, lambda_max)
        if diag[0] > cap:
            j0 = int(np.argmax(diag <= cap))
            if j0 == 0:
                raise ValueError("coefficients too singular for the grid")
            nodes, beta = nodes[j0:], beta[j0:]
            wgt = np.concatenate([[wgt[:j0 + 1].sum()], wgt[j0 + 1:]])
            diag = (np.r_[0.0, beta[:-1]] + beta) / wgt
        # the product of two neighbouring cell masses leaves the normal
        # floats where the masses are extreme (2e-306 on a left-infinite
        # grid); there the two roots are taken apart, and elsewhere the
        # product's root keeps its bits
        prod = wgt[:-1] * wgt[1:]
        normal = (prod >= np.finfo(float).tiny) & (prod <= np.finfo(float).max)
        off = -beta[:-1] / np.where(normal, np.sqrt(prod),
                                    np.sqrt(wgt[:-1]) * np.sqrt(wgt[1:]))
    bad = ~np.isfinite(diag)
    bad[:-1] |= ~np.isfinite(off)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(
            f"{spec.name}: the finite-volume matrix is not finite at node {j} "
            f"(x = {nodes[j]:.6g}, cell mass {wgt[j]:.3g}): the coefficients "
            "over- or underflow there")
    return nodes, wgt, diag, off


def _eigen_solve(evaluator: KernelEvaluator, nodes, wgt, diag, off,
                 lambda_max: float):
    """One level solved: the eigenvalues below lambda_max of its
    finite-volume matrix (``_eigenpairs``), their masses and the (n + 2, K)
    node table of the eigenfunctions at the nodes and both interval ends.
    The eigenvectors are divided by sqrt(wgt) in place, in the table, and
    ``_normalize`` scales them to w(a) = 1.
    """
    vals, vecs, table = _eigenpairs(diag, off, lambda_max)
    if len(vals) == 0:
        raise ValueError("no eigenvalues below lambda_max; enlarge L or lambda_max")
    vecs /= np.sqrt(wgt)[:, None]
    return vals, _normalize(evaluator, nodes, table, vals), table


def _normalize(evaluator: KernelEvaluator, nodes, table, vals):
    """Scale the eigenfunction vectors, rows 1..N of table, to the kernel
    normalization w(a)=1, in place, and fill the rows of both interval
    ends, so that table holds the (N+2, K) node values; returns the
    masses.  Each vector is scaled to the least-squares fit of its leading
    entries to w on its atom's window (``KernelEvaluator.leading_values``).
    """
    us = table[1:-1]
    w_win, n_win = evaluator.leading_values(vals, nodes)
    M = w_win.shape[1]
    u_win = np.where(np.arange(M) < n_win[:, None], us[:M].T, 0.0)
    c = np.sum(u_win * w_win, axis=1) / np.sum(u_win * u_win, axis=1)
    us *= c
    # left endpoint: w_lambda -> 1 at a by construction; Dirichlet at L
    table[0] = 1.0
    table[-1] = 0.0
    return 1.0 / (c * c)


@dataclass(frozen=True)
class Pairing:
    """How a build paired the eigenpairs of its two Richardson levels by
    index: the number found on the fine level (N nodes) and on the coarse
    one (N // 2), the number kept as atoms, and the first pair that failed
    the test |lambda_fine - lambda_coarse| <= 0.25 max(lambda_fine, 1), as
    (index, lambda_fine, lambda_coarse), or None when none failed.  No pair
    past the first failed one is kept."""

    fine: int
    coarse: int
    kept: int
    cut: tuple[int, float, float] | None


def _levels(spec: OperatorSpec, L: float, N: int, lambda_max: float,
            evaluator: KernelEvaluator):
    """The two Richardson levels of a measure, on N and N // 2 nodes,
    combined: a_eff, the extrapolated eigenvalues and masses, the one
    eigenfunction spline (4 S_fine - S_coarse) / 3 on the union of the
    levels' knots, and the levels' Pairing.

    Both levels' matrices and the merged knots come first.  Then the fine
    level is solved, normalized and fitted into the coefficient table,
    weighted 4/3, on all its columns, and its node table (mapped outside
    the malloc heap) is released before the coarse level is solved,
    normalized, paired and its kept columns fitted, weighted -1/3
    (``kernel._add_spline``).  When the pairing keeps fewer atoms than the
    fine level found, the spline keeps a view of the table's first K
    columns.
    """
    # left edge of the computational interval: the series table's start
    a_eff = evaluator.start
    # quadratic grading toward a at singular or clipped endpoints, uniform
    # at regular ones
    if not math.isfinite(spec.a):
        grade = 1.0
    elif a_eff > (spec.a + 1e-12 * max(1.0, abs(spec.a))):
        grade = 2.0
    else:
        probe = a_eff + (L - a_eff) * 1e-9
        with np.errstate(all="ignore"):
            regular = (1e-8 < float(spec.p(probe)) < 1e8
                       and 1e-8 < float(spec.r(probe)) < 1e8)
        grade = 1.0 if regular else 2.0

    fine, coarse = (_finite_volume(spec, a_eff, L, n, grade, lambda_max)
                    for n in (N, N // 2))
    xs_f, xs_c = (np.concatenate([[a_eff], nodes, [L]])
                  for nodes, *_ in (fine, coarse))
    tau = _merged_knots(xs_f, xs_c)

    vals_f, mass_f, table = _eigen_solve(evaluator, *fine, lambda_max)
    c = _mapped_zeros((len(tau) - 4, len(vals_f)))
    _add_spline(c, tau, xs_f, table, 4.0 / 3.0)
    del table

    vals_c, mass_c, table = _eigen_solve(evaluator, *coarse, lambda_max)
    K = min(len(vals_f), len(vals_c))
    # pair by index; drop pairs too far apart to share the h^2 expansion
    ok = np.abs(vals_f[:K] - vals_c[:K]) <= 0.25 * np.maximum(vals_f[:K], 1.0)
    cut = None
    if not np.all(ok):
        K = int(np.argmin(ok))
        cut = (K, float(vals_f[K]), float(vals_c[K]))
    _add_spline(c[:, :K], tau, xs_c, table[:, :K], -1.0 / 3.0)
    lam = (4.0 * vals_f[:K] - vals_c[:K]) / 3.0
    mass = (4.0 * mass_f[:K] - mass_c[:K]) / 3.0
    return (a_eff, lam, mass, RowSpline(tau, c[:, :K]),
            Pairing(len(vals_f), len(vals_c), K, cut))


def build_spectral_measure(spec: OperatorSpec, L: float, N: int,
                           lambda_max: float | None = None,
                           evaluator: KernelEvaluator | None = None
                           ) -> SpectralMeasure:
    if N < 16:
        raise ValueError("N must be at least 16")
    if not (spec.a < L < spec.b):
        raise ValueError("L must satisfy a < L < b")
    if evaluator is None:
        evaluator = KernelEvaluator(spec)
    if lambda_max is None:
        # sqrt(lambda_max) times the coarse level's mean spacing L / (N/2)
        # is 0.6: about ten nodes per wavelength of the highest atom
        lambda_max = (0.6 * N / (2.0 * L)) ** 2
    if not lambda_max > 0:
        raise ValueError("lambda_max must be positive")
    a_eff, lam, mass, w, pairing = _levels(spec, L, N, lambda_max, evaluator)
    return SpectralMeasure(spec, evaluator, lam, mass, L, N, a_eff, w,
                           pairing)


# ---------------------------------------------------------------------------
# transforms


def forward_transform(h: GridFunction, sm: SpectralMeasure) -> TransformTable:
    """(Fh)(lambda) = int h w_lambda r dx at every atom."""
    return TransformTable(lambdas=sm.lambdas.copy(),
                          values=sm.basis(h.grid).forward(h.values))


def inverse_transform(tbl: TransformTable, sm: SpectralMeasure,
                      out_grid) -> GridFunction:
    if len(tbl.lambdas) != len(sm.lambdas) or not np.allclose(
            tbl.lambdas, sm.lambdas, rtol=1e-12, atol=1e-12):
        raise ValueError("transform table does not match the measure's atoms")
    return GridFunction(out_grid, sm.synthesize(tbl.values, out_grid))


def heat_kernel_grid(t: float, x, ys, sm: SpectralMeasure) -> np.ndarray:
    """p(t, x, y) = sum_k m_k e^{-t lambda_k} w_k(x) w_k(y) on the grid ys,
    one sm.synthesize: shape (len(ys),) for one number x, and (len(x),
    len(ys)) for an array of x."""
    if t <= 0:
        raise ValueError("t must be positive")
    coef = np.exp(-t * sm.lambdas)[:, None] * sm.w_values(x)
    return sm.synthesize(coef if np.ndim(x) else coef[:, 0], ys)
