"""Spectral measure construction, the eigenfunction transform and the
heat kernel.

The measure rho on [sigma^2, oo) is approximated by the eigenvalues of the
operator truncated to [a, L] (zero flux at a, Dirichlet at L), each atom
carrying mass 1/||w_lambda||^2, from the finite-volume matrices of two
levels (``_finite_volume``).  Each rule of the build and of the sums is
stated once, where it is implemented:

- the two levels, their Richardson combination, their pairing and the
  order in which their tables are released: ``_levels``;
- the bisection and its tolerance: ``_bisection`` and ``_THETA``;
- runs of close eigenvalues and their inverse iteration: ``_runs`` and
  ``_eigenpairs``;
- the seeds of the fine level that are accepted: ``_rayleigh_iteration``;
- the scale w(a) = 1 of each eigenfunction: ``_eigen_solve``, on the
  windows of ``KernelEvaluator.leading_values``;
- the bases of grids and the memo that keeps them:
  ``SpectralMeasure.basis``;
- the order of a synthesis and the bases its caller holds:
  ``SpectralMeasure.synthesize``, and the atoms that contracting first
  drops: ``SpectralMeasure._contracted``;
- the sizes of a build: ``_checked_sizes``; the points the eigenfunctions
  are known at: ``_check_domain`` and ``SpectralMeasure._clamped``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError

from .kernel import (KernelEvaluator, RowSpline, _band_product, _design,
                     _fit_in_place, _interval, _lapack, _mapped_zeros)
from .expr import sqrt_ratio
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


def _positive_time(t, name: str = "t") -> float:
    """t as a float, which must be positive and finite, or ValueError names
    it.  NaN fails every comparison, so a guard t <= 0 lets it through."""
    if not (float(t) > 0 and math.isfinite(t)):
        raise ValueError(f"{name} must be positive and finite, not {t}")
    return float(t)


def _check_domain(xq, a: float, L: float, what: str = "") -> None:
    """ValueError, its message opening with what, unless each point of xq is
    in [a, L] and none is NaN (np.min, unlike np.fmin, returns it)."""
    lo = np.min(xq, initial=math.inf)
    if math.isnan(lo):
        raise ValueError(f"{what}points must not be NaN")
    if lo < a:
        raise ValueError(f"{what}points below a = {a:g}, the operator's "
                         "left end")
    if np.max(xq, initial=-math.inf) > L:
        raise ValueError(f"{what}points past L = {L:g}, where the "
                         "eigenfunctions end")


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
    w_k(grid), with the grid's weights rw for int f r dx, the measure's
    masses and the number of lookups the measure's memo has answered with
    it.  Built by SpectralMeasure.basis."""

    grid: np.ndarray
    W: np.ndarray
    rw: np.ndarray
    masses: np.ndarray
    hits: int = 0

    def forward(self, values) -> np.ndarray:
        """int values w_k r dx at every atom."""
        return self.W @ (values * self.rw)

    def inverse(self, coef) -> np.ndarray:
        """sum_k m_k coef_k w_k on the grid, the inverse transform of the
        atom table coef of shape (K,) or (K, m): shape (n,) or (m, n)."""
        return (self.masses * coef.T) @ self.W


class SpectralMeasure:
    """Atoms and masses of the measure, with the normalized eigenfunctions
    on [a_eff, L] as one vector-valued cubic spline (see _levels).  sigma2
    comes from the operator's standard form when first read, so a build
    does no standard-form work.  pairing records how the two levels'
    eigenpairs were paired (see Pairing)."""

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
        """xq clamped below at a_eff, the first node of the kernel's series
        table (``KernelEvaluator.start``), where every w_k is 1: the
        eigenfunctions are known on [a_eff, L] only.  A point that is NaN,
        below a, or past L raises ValueError (``_check_domain``)."""
        _check_domain(xq, self.spec.a, self.L)
        return np.maximum(xq, self._a_eff)

    def w_values(self, xq) -> np.ndarray:
        """(K, len(xq)) matrix of eigenfunction values at xq, clamped as
        _clamped says.  It is never memoized."""
        return self._w(
            self._clamped(np.atleast_1d(np.asarray(xq, dtype=float))))

    def basis(self, grid, *held: Basis) -> Basis:
        """Every eigenfunction on grid, with the grid's weights: what every
        transform and evaluate-first synthesis reads.  A basis among held
        whose grid equals grid is returned as it is (see synthesize).

        Else the measure's memo answers.  It keeps bases keyed by grid
        content (a stored copy of the grid, compared with np.array_equal),
        their grid, values and weights read-only.  A miss evaluates grid
        and keeps the basis unless its values outgrow the spline's
        coefficient table: the kept values add up to at most that size, so
        the bases with the fewest lookups go first, the older on a tie,
        until the new one fits, and a grid that keeps coming back outlives
        one-off grids."""
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        for b in held:
            if np.array_equal(b.grid, grid):
                return b
        for kept in self._kept:
            if np.array_equal(kept.grid, grid):
                kept.hits += 1
                return kept
        b = Basis(grid.copy(), self.w_values(grid),
                  _r_weights(self.spec, grid), self.masses)
        room = self._w.c.size - b.W.size
        if room >= 0:
            for a in (b.grid, b.W, b.rw):
                a.flags.writeable = False
            while sum(k.W.size for k in self._kept) > room:
                # min keeps the first of equals: the older entry
                self._kept.remove(min(self._kept, key=lambda k: k.hits))
            self._kept.append(b)
        return b

    def synthesize(self, coef, grid, *held: Basis) -> np.ndarray:
        """sum_k m_k coef_k w_k(grid), the inverse transform of an atom
        table.  coef of shape (K,) or (K, m) gives shape (n,) or (m, n).

        A basis among held, those its caller already paid for, on an equal
        grid gives its product, so a call that hands over the bases of its
        input grids evaluates each distinct grid at most once, whatever the
        memo keeps.  Else, a spline being linear in its coefficients (de
        Boor, A Practical Guide to Splines), the sum is B(grid) C (masses *
        coef), with B the B-splines on grid and C the spline's coefficient
        table, in the cheaper order by multiply-adds, chosen from the
        shapes alone: contracting first costs rows K m + 4 n m, where rows
        counts the rows of C whose B-splines reach the grid's span, as for
        the product kernels on thousands of points; evaluating first costs
        n K (4 + m) and reads the values of basis(grid), memo included, as
        for short grids and many right-hand sides at once.  Both costs
        count every atom, K; contracting first then reads only the atoms
        above rounding (see _contracted) and neither reads nor fills the
        memo, and evaluating first sums every atom."""
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        coef = np.asarray(coef)
        if any(np.array_equal(b.grid, grid) for b in held):
            return self.basis(grid, *held).inverse(coef)
        m = 1 if coef.ndim == 1 else coef.shape[1]
        n, K = grid.size, len(self.lambdas)
        if n:
            lo, hi = self._rows(grid)
            if (hi - lo) * K * m + 4 * n * m < n * K * (4 + m):
                return self._contracted(coef, grid, lo, hi)
        return self.basis(grid).inverse(coef)

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
        rows, evaluated on the grid clamped as in w_values.

        Only the first K0 atoms are read (``_atoms_above_rounding``): the
        dropped tail of each column, sum_{k >= K0} |m_k coef_k| b_k with
        b_k a bound on |w_k| (``_atom_bounds``), is at most one unit
        roundoff of the same sum over every atom.  The full sum's own
        rounding error is already up to K times that (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 4), so the result is as
        accurate; at t >= 0.1 the factor e^{-t lambda} of the heat and
        product kernels leaves most atoms below it."""
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
        """K0 for _contracted: the smallest with T_j(K0) <= 2^-53 T_j(0)
        for every column j of weighted, where T_j(K0) = sum_{k >= K0}
        |weighted[k, j]| b_k; every atom, K, when a weight or a T_j(0) is
        not finite, so that NaN and inf reach the result as in the full
        sum."""
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
        approximation of an absolutely continuous measure.  A lone atom has
        no neighbour to size its cell, so it reads as a step: 0 below it,
        its mass from it on."""
        lams, ms = self.lambdas, self.masses
        if len(lams) == 1:
            return float(ms[0]) if lam >= lams[0] else 0.0
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


def _rayleigh_quotient(diag: np.ndarray, off: np.ndarray):
    """v -> v^T T v, T the symmetric tridiagonal matrix (diag, off), for one
    vector v, written as a sum of squares,

        sum_i g_i v_i^2 + sum_i |off_i| (v_i + sign(off_i) v_{i+1})^2,
        g_i = diag_i - |off_{i-1}| - |off_i|,

    so that the terms of size ||T|| v_i^2 do not cancel in floating point:
    on a Sturm-Liouville matrix g is a small potential and the second sum
    the discrete energy, both nearly free of cancellation.  The sum over
    diag v^2 + 2 off v v' loses eps ||T|| to it, 7e-9 relative on the
    Whittaker matrix at N=4096.  g, |off| and sign(off) are formed once, and
    each sum is np.sum's pairwise one, whose error grows like log n eps, not
    n eps (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).
    """
    a = np.abs(off)
    g = diag.copy()
    g[:-1] -= a
    g[1:] -= a
    sgn = np.sign(off)

    def quotient(v: np.ndarray) -> float:
        dv = v[:-1] + sgn * v[1:]
        return float(np.sum(g * v * v) + np.sum(a * dv * dv))
    return quotient


# bisection chunks, as fractions of lambda_max: (-1e-9, lambda_max 4^-6],
# (lambda_max 4^-6, lambda_max 4^-5], ..., (lambda_max / 4, lambda_max]
_CHUNK_EDGES = tuple(4.0 ** -j for j in range(6, -1, -1))
# bisection tolerance over eigenvalue gap: inverse iteration (stein) needs
# its shift close relative to the eigenvalue's own gap (Parlett, The
# Symmetric Eigenvalue Problem, ch. 4), and this is the largest ratio that
# the floor 1e-8 lambda_max gives on the builtin families (2.1e-4, at
# cosine's lowest atom), so no eigenvalue is located more loosely than that
# one and stein converges in its usual few steps
_THETA = 2e-4


def _stebz(diag: np.ndarray, off: np.ndarray, lo: float, hi: float,
           tol: float):
    """LAPACK stebz on the symmetric tridiagonal matrix (diag, off): its
    eigenvalues in (lo, hi], each located to within tol, in stebz's order
    (by block, then by value), their block indices and stebz's isplit.  A
    tolerance of the whole width hi - lo stops at the two Sturm counts.
    The eigenvalues and block indices are copies, so that callers keep no
    matrix-length arrays alive."""
    stebz, = _lapack("stebz")
    m, w, iblock, isplit, info = stebz(diag, off, 1, lo, hi, 0, 0, tol, "B")
    if info != 0:
        raise LinAlgError(f"bisection failed (stebz info {info})")
    return w[:m].copy(), iblock[:m].copy(), isplit


def _count(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> int:
    """The number of eigenvalues in (lo, hi] of the symmetric tridiagonal
    matrix (diag, off), from two Sturm counts."""
    return len(_stebz(diag, off, lo, hi, hi - lo)[0])


def _bisection(diag: np.ndarray, off: np.ndarray, lambda_max: float,
               lo: float = -1e-9):
    """Eigenvalues in (lo, lambda_max] of the symmetric tridiagonal
    matrix (diag, off), in LAPACK stebz's order (by block, then by value),
    with their block indices and stebz's isplit, None when there are none.
    Each is located to within theta = _THETA times its gap to its
    neighbours, and never closer than the floor 1e-8 max(1, lambda_max).

    Each chunk of _CHUNK_EDGES is bisected at its own absolute tolerance,
    first theta width / (2 m) from its count m.  Then a chunk whose
    tolerance exceeds 4 max(floor, theta gap) at any of its eigenvalues is
    bisected again at max(floor, theta times its smallest gap), until none
    does.  Tolerances only fall, by more than 4 each time, and stop at the
    floor, so this ends; a pair closer than floor / theta ends at it.  The
    neighbours past the interval's ends are not computed: two Sturm counts
    say whether one lies within one gap of the outermost eigenvalue, and if
    one does, the end stands in for it.  The chunks start at lo, and edges
    at or below it are dropped.
    """
    floor = 1e-8 * max(1.0, lambda_max)
    edges = [lo, *(e for e in (lambda_max * f for f in _CHUNK_EDGES)
                   if e > lo)]
    chunks = []  # (lo, hi, tol, w, iblock, isplit), in ascending order
    for lo, hi in zip(edges[:-1], edges[1:]):
        if m := _count(diag, off, lo, hi):
            tol = max(floor, _THETA * (hi - lo) / (2 * m))
            chunks.append((lo, hi, tol, *_stebz(diag, off, lo, hi, tol)))
    again = bool(chunks)
    while again:
        vals = np.concatenate([np.sort(c[3]) for c in chunks])
        d = np.diff(vals)
        reach = (d[0], d[-1]) if len(d) else (lambda_max - edges[0],) * 2
        below, above = vals[0] - reach[0], vals[-1] + reach[1]
        if below < edges[0] and _count(diag, off, below, edges[0]):
            below = edges[0]
        if above > lambda_max and _count(diag, off, lambda_max, above):
            above = lambda_max
        gaps = np.diff(np.r_[below, vals, above])
        near = np.minimum(gaps[:-1], gaps[1:])
        again, first = False, 0
        for i, (lo, hi, tol, w, *_) in enumerate(chunks):
            need = max(floor, _THETA * near[first:first + len(w)].min())
            first += len(w)
            if tol > 4 * need:
                chunks[i] = (lo, hi, need, *_stebz(diag, off, lo, hi, need))
                again = True
    w = np.concatenate([np.empty(0), *(c[3] for c in chunks)])
    # stebz's block indices are Fortran integers
    iblock = np.concatenate([np.empty(0, dtype=np.intc),
                             *(c[4] for c in chunks)])
    order = np.lexsort((w, iblock))
    return w[order], iblock[order], chunks[-1][5] if chunks else None


def _eigenpairs(diag: np.ndarray, off: np.ndarray, lambda_max: float,
                table: np.ndarray | None = None, seed=None):
    """Eigenvalues in (-1e-9, lambda_max] of the symmetric tridiagonal
    matrix (diag, off), ascending, with orthonormal eigenvectors as columns.
    Returns the eigenvalues, the eigenvectors, the table that holds them
    and the number of them accepted from seeds: the vectors are the view
    table[1:-1] of a zeroed (n + 2, m) table mapped outside the malloc heap
    (``kernel._mapped_zeros``), whose first and last rows are left to the
    caller.

    A caller that has seeds passes that table itself, m the count of
    eigenvalues in (-1e-9, lambda_max], and seed(j), the seed of
    eigenvector j as a vector of length n, or None past the last seed, for
    a matrix that stebz does not split.  ``_rayleigh_iteration`` refines
    them one at a time and writes a leading run of accepted ones into the
    table; a Sturm count then checks that no eigenvalue lies within
    _RUN_GAP of the last accepted one, which would belong to its run, and
    drops accepted columns from the top until none does.
    Everything above, the eigenpairs of rejected seeds and those past the
    seeds, is bisected on (``_above`` of the last accepted eigenvalue,
    lambda_max], and a matrix with no seeds on all of (-1e-9, lambda_max].

    stein runs from the bisected eigenvalues (``_bisection``) once per run
    of close eigenvalues (``_runs``), so only the vectors of one run are
    orthogonalized against each other, and each run's vectors are copied
    into the table.  LAPACK's own cluster test is absolute, a gap of 1e-3
    ||T||_1, and ||T||_1 reaches 1e4 to 1e10 here, so one call would
    orthogonalize every wanted vector against all the others, an O(N K^2)
    Gram-Schmidt that relative gaps of about 2/k do not need.  Each
    eigenvalue is then the Rayleigh quotient of its unit vector, one vector
    at a time (``_rayleigh_quotient``), read from stein's output, whose
    columns are contiguous, before the table takes them.  Its error is the
    square of the vector's residual over the gap (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4): far below the bisection tolerance, and
    below the ulp ||T|| that a full bisection reaches, which on the graded
    matrices is 1e-6 of the lowest eigenvalues.
    """
    stein, = _lapack("stein")
    lam = (np.empty(0) if seed is None
           else _rayleigh_iteration(diag, off, table[1:-1], seed))
    k = len(lam)
    # the last accepted eigenvalue is a run of its own below the rest
    while 0 < k < table.shape[1] and _count(diag, off, -1e-9,
                                            _above(lam[k - 1])) != k:
        k -= 1
    lam = lam[:k]
    if table is None or k < table.shape[1]:
        w, iblock, isplit = _bisection(diag, off, lambda_max,
                                       _above(lam[-1]) if k else -1e-9)
        if table is None:
            table = _mapped_zeros((len(diag) + 2, len(w)))
        if k + len(w) != table.shape[1]:
            raise LinAlgError(f"{k} seeded and {len(w)} bisected eigenvalues "
                              f"against a count of {table.shape[1]}")
        bisected = table[1:-1, k:]
        quotient, quotients = _rayleigh_quotient(diag, off), [lam]
        # stein reads the block index of each eigenvalue from an array of
        # the matrix's length
        blk = np.empty(len(diag), dtype=iblock.dtype)
        for lo, hi in _runs(w, iblock):
            blk[:hi - lo] = iblock[lo:hi]
            z, info = stein(diag, off, w[lo:hi], blk, isplit)
            if info != 0:
                raise LinAlgError(
                    f"inverse iteration failed (stein info {info})")
            # stein's columns are contiguous, the table's are not
            quotients.append(list(map(quotient, z.T)))
            bisected[:, lo:hi] = z
        lam = np.concatenate(quotients)
    vecs = table[1:-1]
    # block order to ascending order; a single block is ascending already,
    # and then the vectors are not moved
    order = np.argsort(lam)
    if np.any(order != np.arange(len(lam))):
        lam = lam[order]
        vecs[:] = vecs[:, order]
    return lam, vecs, table, k


def _above(lam):
    """The point one relative gap _RUN_GAP above lam, as _runs measures
    gaps, for a number or an array: where the bisection above the last
    accepted seed starts."""
    return lam + _RUN_GAP * np.maximum(1.0, np.abs(lam))


# Rayleigh-quotient inverse-iteration steps per seed: after one, the
# residual check stops a fifth to a half of the way up the fine spectra of
# the benchmark's families; after two, every seed there passes it
_RQI_STEPS = 2
# the largest residual over gap, and so the largest angle between an
# accepted vector and its eigenvector; rounding alone leaves up to 3.5e-9
# on the cosine matrix at N=6144
_RQI_ANGLE = 1e-8


def _rayleigh_iteration(diag: np.ndarray, off: np.ndarray, vecs: np.ndarray,
                        seed) -> np.ndarray:
    """Refine seed vectors toward the eigenvectors 0, 1, ... of the
    symmetric tridiagonal matrix (diag, off), one vector at a time, write
    the leading ones that are accepted into the columns of vecs, and return
    their eigenvalues.  seed(j) gives the seed of eigenvector j, a vector
    of length n, or None past the last seed; seeds are asked for only as
    far as the refinement goes.

    Each seed takes _RQI_STEPS steps of Rayleigh-quotient inverse
    iteration, cubically convergent (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4): a LAPACK gtsv solve (``kernel._lapack``) shifted by
    the vector's Rayleigh quotient (``_rayleigh_quotient``), then
    normalized.  Its eigenvalue is the quotient of the refined vector, kept
    as computed.  Vector j is accepted only if its solves are finite; it
    has exactly j sign changes, the i with v_i off_i v_{i+1} > 0, as
    eigenvector j of a Jacobi matrix does (Gantmacher & Krein, Oscillation
    Matrices and Kernels); its eigenvalue exceeds vector j - 1's by
    _RUN_GAP relative, as _runs measures gaps (vector 0's exceeds -1e-9);
    and its residual ||T v - lambda v|| is at most _RQI_ANGLE times its gap
    to the neighbouring eigenvalues, so that its angle to its eigenvector
    is at most _RQI_ANGLE (the gap theorem).  Without the residual check,
    vectors 150 to 165 of Bessel alpha = 1/2 at L=16, N=2048 and lambda_max
    8000 were accepted with vector errors up to 1e-2.  The first vector
    that fails a check ends the refinement; only the gap above a vector
    waits for the next one, so that part of the residual check comes last,
    over the kept eigenvalues, and may reject more.  No vector after a
    rejected one is accepted.  Apart from vecs, the refinement holds about
    a dozen vectors of length n at its peak.
    """
    gtsv, = _lapack("gtsv")
    quotient = _rayleigh_quotient(diag, off)
    lam, res = [], []
    for j in range(vecs.shape[1]):
        if (v := seed(j)) is None:
            break
        # normalized into a copy of its own, which gtsv overwrites
        v = v / math.sqrt(v @ v)
        solved = True
        for _ in range(_RQI_STEPS):
            *_, v, info = gtsv(off, diag - quotient(v), off, v,
                               overwrite_d=1, overwrite_b=1)
            solved &= info == 0
            v /= math.sqrt(v @ v)
        # a solve that is not finite leaves q NaN, which fails here
        q = quotient(v)
        t = (diag - q) * v
        t[:-1] += off * v[1:]
        t[1:] += off * v[:-1]
        r = math.sqrt(t @ t)
        changes = np.count_nonzero(v[:-1] * off * v[1:] > 0)
        # the gap below; the residual check against the gap above waits
        # for the next vector
        below = lam[-1] if lam else -math.inf
        if not (solved and q > -1e-9 and changes == j
                and q - below >= _RUN_GAP * max(1.0, abs(below))
                and r <= _RQI_ANGLE * (q - below)):
            break
        vecs[:, j] = v
        lam.append(q)
        res.append(r)
    lam = np.array(lam)
    # no eigenvalue lies within _above(lam[-1]) once _eigenpairs accepts
    # the last vector, so that bounds the last gap
    gap = np.diff(np.r_[-np.inf, lam, _above(lam[-1:])])
    ok = np.array(res) <= _RQI_ANGLE * np.minimum(gap[:-1], gap[1:])
    return lam[:len(lam) if ok.all() else int(np.argmin(ok))]


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
        off = -beta[:-1] / sqrt_ratio([wgt[:-1], wgt[1:]])
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
                 lambda_max: float, table=None, seed=None):
    """One level solved: the eigenvalues below lambda_max of its
    finite-volume matrix (``_eigenpairs``, into table and from seed when
    given), their masses, the (n + 2, K) node table of the eigenfunctions
    at the nodes and both interval ends, and the number of eigenpairs
    accepted from the seeds.  The eigenvectors are divided by sqrt(wgt) in
    place, in the table, and each is scaled to w(a) = 1 by the
    least-squares fit of its leading entries to w on its atom's window
    (``KernelEvaluator.leading_values``); its mass is one over the square
    of that scale.
    """
    vals, us, table, seeded = _eigenpairs(diag, off, lambda_max, table, seed)
    if len(vals) == 0:
        raise ValueError("no eigenvalues below lambda_max; enlarge L or lambda_max")
    us /= np.sqrt(wgt)[:, None]
    w_win, n_win = evaluator.leading_values(vals, nodes)
    M = w_win.shape[1]
    u_win = np.where(np.arange(M) < n_win[:, None], us[:M].T, 0.0)
    c = np.sum(u_win * w_win, axis=1) / np.sum(u_win * u_win, axis=1)
    us *= c
    # left endpoint: w_lambda -> 1 at a by construction; Dirichlet at L
    table[0] = 1.0
    table[-1] = 0.0
    return vals, 1.0 / (c * c), table, seeded


@dataclass(frozen=True)
class Pairing:
    """How a build paired the eigenpairs of its two Richardson levels (see
    _levels): the number found on the fine level (N nodes) and on the
    coarse one (N // 2), the number kept as atoms, the first pair that
    failed, as (index, lambda_fine, lambda_coarse), or None when none
    failed, and the number of fine eigenpairs accepted from the coarse
    level's seeds; the rest were bisected."""

    fine: int
    coarse: int
    kept: int
    cut: tuple[int, float, float] | None
    seeded: int


def _levels(spec: OperatorSpec, L: float, N: int, lambda_max: float,
            evaluator: KernelEvaluator):
    """The two Richardson levels of a measure, on N and N // 2 nodes,
    combined: a_eff, the extrapolated eigenvalues and masses, the one
    eigenfunction spline and the levels' Pairing.  Eigenvalues and masses
    are combined as (4 fine - coarse) / 3, which cancels the leading h^2
    discretization error.  The spline is the not-a-knot cubic spline on
    the fine level's own knots through (4 T_fine - S_coarse(x_fine)) / 3,
    T_fine the fine node table and S_coarse the coarse level's spline on
    its own knots: between the fine nodes, its O(h^4) interpolation error
    lies far below the O(h^2) error that the combination cancels.  The
    levels' eigenpairs are paired by index, and the first pair with
    |lambda_fine - lambda_coarse| > 0.25 max(lambda_fine, 1), too far apart
    to share the h^2 expansion, ends the atoms.

    One stebz call gives the number of fine eigenvalues below lambda_max
    and whether the fine matrix splits into blocks.  The coarse level is
    solved, normalized and fitted into a table of K = min(fine count,
    coarse count) rows of N // 2 + 2 coefficients, one eigenfunction per
    contiguous row, and its node table is released.  That spline, read at
    the fine nodes times sqrt(wgt) one row at a time as
    ``_rayleigh_iteration`` asks for it, seeds ``_eigenpairs`` on the fine
    matrix, unless stebz splits it into blocks: there the sign changes of
    an eigenvector do not give its index.  The fine level is normalized
    and paired, and its node table's kept columns are combined and fitted
    in place (``kernel._fit_in_place``), so the node table becomes the
    coefficient table, N + 2 rows by K columns, or a copy of its first K
    columns when it has more, so that none stays alive unused.  The
    combination is written into the fit's one buffer a column at a time,
    each S_coarse column read from its contiguous row of the coarse table,
    so it holds a few arrays of N floats.
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
    nodes, wgt, diag, off = fine
    w, _, isplit = _stebz(diag, off, -1e-9, lambda_max, lambda_max + 1e-9)
    count, split = len(w), isplit[0] < len(diag)

    vals_c, mass_c, table, _ = _eigen_solve(evaluator, *coarse, lambda_max)
    K = min(count, len(vals_c))
    c = _mapped_zeros((K, len(xs_c)))
    # the coarse spline, one eigenfunction per row, at the fine nodes and ends
    band, first = _design(_fit_in_place(
        xs_c, c.T, lambda cols, out: np.copyto(out, table[:, cols])), xs_f)
    del table
    root_wgt = np.sqrt(wgt)

    def seed(j):
        return (_band_product(band[1:-1], first[1:-1], c[j]) * root_wgt
                if j < len(c) else None)

    vals_f, mass_f, table, seeded = _eigen_solve(
        evaluator, *fine, lambda_max, _mapped_zeros((len(nodes) + 2, count)),
        None if split else seed)
    del w, isplit, root_wgt, seed    # not read past the fine solve
    ok = np.abs(vals_f[:K] - vals_c[:K]) <= 0.25 * np.maximum(vals_f[:K], 1.0)
    cut = None
    if not np.all(ok):
        K = int(np.argmin(ok))
        cut = (K, float(vals_f[K]), float(vals_c[K]))

    def combined(cols, out):
        for j, col in zip(range(cols.start, cols.stop), out.T):
            np.multiply(table[:, j], 4.0, out=col)
            col -= _band_product(band, first, c[j])
            col /= 3.0

    t = _fit_in_place(xs_f, table[:, :K], combined)
    lam = (4.0 * vals_f[:K] - vals_c[:K]) / 3.0
    mass = (4.0 * mass_f[:K] - mass_c[:K]) / 3.0
    kept = np.ascontiguousarray(table[:, :K])
    return (a_eff, lam, mass, RowSpline(t, kept),
            Pairing(len(vals_f), len(vals_c), K, cut, seeded))


def _checked_sizes(spec: OperatorSpec, L: float, N: int,
                   lambda_max: float | None) -> float:
    """lambda_max, by default (0.3 N / L)^2, once N is an integer >= 16,
    a < L < b and 0 < lambda_max < inf, checked before any work."""
    if not isinstance(N, (int, np.integer)):
        raise ValueError(f"N must be an integer, not {N!r}")
    if N < 16:
        raise ValueError("N must be at least 16")
    if not (spec.a < L < spec.b):
        raise ValueError("L must satisfy a < L < b")
    if lambda_max is None:
        # sqrt(lambda_max) times the coarse level's mean spacing L / (N/2)
        # is 0.6: about ten nodes per wavelength of the highest atom
        lambda_max = (0.6 * N / (2.0 * L)) ** 2
    if not (lambda_max > 0 and math.isfinite(lambda_max)):
        raise ValueError(f"lambda_max must be positive and finite, "
                         f"not {lambda_max}")
    return lambda_max


def build_spectral_measure(spec: OperatorSpec, L: float, N: int,
                           lambda_max: float | None = None,
                           evaluator: KernelEvaluator | None = None
                           ) -> SpectralMeasure:
    """The spectral measure of spec truncated to [a, L], from two
    finite-volume levels on N and N // 2 nodes, with its atoms up to
    lambda_max (see _levels), its sizes checked first (_checked_sizes)."""
    lambda_max = _checked_sizes(spec, L, N, lambda_max)
    if evaluator is None:
        evaluator = KernelEvaluator(spec)
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
    """sum_k m_k (Fh)(lambda_k) w_k on out_grid, through its basis
    (sm.basis).  tbl must be on sm's atoms."""
    if len(tbl.lambdas) != len(sm.lambdas) or not np.allclose(
            tbl.lambdas, sm.lambdas, rtol=1e-12, atol=1e-12):
        raise ValueError("transform table does not match the measure's atoms")
    return GridFunction(out_grid, sm.basis(out_grid).inverse(tbl.values))


def heat_kernel_grid(t: float, x, ys, sm: SpectralMeasure) -> np.ndarray:
    """p(t, x, y) = sum_k m_k e^{-t lambda_k} w_k(x) w_k(y) on the grid ys,
    one sm.synthesize: shape (len(ys),) for one number x, and (len(x),
    len(ys)) for an array of x."""
    t = _positive_time(t)
    coef = np.exp(-t * sm.lambdas)[:, None] * sm.w_values(x)
    return sm.synthesize(coef if np.ndim(x) else coef[:, 0], ys)
