"""Evaluation of the kernel functions w_lambda.

w_lambda solves -(1/r)(p w')' = lambda w on (a,b) with w -> 1 and
p w' -> 0 at the left endpoint.  Near a, where the problem may be
singular, w is computed from the iterated-integral series

    w = sum_j (-lambda)^j eta_j,     eta_0 = 1,
    eta_j(x) = int_a^x (s(x) - s(xi)) eta_{j-1}(xi) r(xi) dxi,

with s' = 1/p.  The series terms are lambda-independent, so they are
tabulated on one grid, with zeta_j = int_a^x eta_j r: the rows a sum
reads, extended on demand.  A sum at |lambda| S <= 1 reads 19 rows; larger
|lambda| S read more, up to _MAX_TERMS + 1, and each new row comes from the
same recurrence, so its bits do not depend on how the table grew.
Their slopes are exact: eta_{j+1}' = zeta_j / p, zeta_j' = eta_j r, and p'
and r' are symbolic.  So each interval's integral is the cubic Hermite one
(``_hermite_increments``), the terms between nodes are cubic Hermite
interpolants (``KernelEvaluator._terms``), and no system is solved.  Further
out, evaluation integrates the first-order system w' = w1/p, w1' = -lambda r w.

Evaluation is batched over lambda (``KernelEvaluator.eval_many``).  The
series part is one matrix product of scaled powers (-lambda)^j with the
table, served up to each lambda's hand-off point, where |lambda| S <= 1.
The ODE part is one DOP853 solve (``slhyper.ode``, numpy) of the stacked
state of every lambda that needs it, started at the earliest of their
hand-off points, with the tolerances tightened so that each lambda is held
to its single-lambda error criterion.  A single lambda is the batch of one.
A solve that would span more than _MAX_PERIODS periods of w is refused
before it runs.

The table is this module's alone.  The spectral measure takes its left
edge, the table's first node (``KernelEvaluator.start``), and the values
its eigenvectors are scaled to (``KernelEvaluator.leading_values``) from
here, so both series rules, the hand-off and the normalization windows,
are set side by side in this module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import mmap
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ode import solve_ivp
from .operator import OperatorSpec, _seg_integral

__all__ = ["KernelEvaluator"]

_SERIES_POINTS = 4000
_MAX_TERMS = 60
# eval_many sums the series while |lambda| S <= _HANDOFF_RHO.  A normalization
# window (``leading_values``) is the series alone on the leading nodes with
# |lambda| S <= _WINDOW_RHO, at most _WINDOW_NODES of them, or, with fewer
# than _WINDOW_MIN, eval_many on the first _FALLBACK_NODES nodes
_HANDOFF_RHO = 1.0
_WINDOW_RHO, _WINDOW_NODES, _WINDOW_MIN, _FALLBACK_NODES = 0.5, 80, 3, 20
# DOP853 tolerances of the kernel ODE
_RTOL = 1e-11
_ATOL = 1e-13
# the most periods, sqrt(|lambda|) int sqrt(r/p) dx / 2 pi, that one ODE solve
# may span.  DOP853's steps follow the oscillation: each period costs about
# 3 ms per lambda and adds to a phase error that the estimate leaves out
# (about 2e-12 a period on cosine), so this budget is some 30 s; the tests,
# the CI commands and the benchmark stay under 400 periods
_MAX_PERIODS = 1e4


def _hermite_increments(h: np.ndarray, f: np.ndarray, d: np.ndarray):
    """The integral over each interval of the cubic Hermite interpolant of
    values f and slopes d at nodes h apart.  Each is local to its interval,
    so no large antiderivative constant enters the arithmetic."""
    return h * (f[:-1] + f[1:]) / 2.0 + h * h * (d[:-1] - d[1:]) / 12.0


def _cumint(h: np.ndarray, f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The integral from the first node to every node of the cubic Hermite
    interpolant of values f and slopes d at nodes h apart."""
    return np.concatenate([[0.0], np.cumsum(_hermite_increments(h, f, d))])


def _term_count(rho: float) -> int:
    """The number of series terms J a sum at |lambda| S <= rho takes: the
    first J with rho^J / J! below 1e-16, the bound on the first omitted
    term, or all _MAX_TERMS + 1 rows.  At rho = 1 it is 19."""
    log_rho = math.log(max(rho, 1e-300))
    return next((j for j in range(1, _MAX_TERMS + 1)
                 if j * log_rho - math.lgamma(j + 1) < math.log(1e-16)),
                _MAX_TERMS + 1)


# columns fitted per solve in _add_spline
_SPLINE_BLOCK = 32


def _not_a_knot(xs: np.ndarray) -> np.ndarray:
    """Knots of the not-a-knot cubic spline through xs, the ones
    make_interp_spline chooses: both ends four times, then xs[2:-2]."""
    return np.concatenate([np.repeat(xs[0], 4), xs[2:-2], np.repeat(xs[-1], 4)])


def _interval(t: np.ndarray, x) -> np.ndarray:
    """Index mu of the knot interval t[mu] <= x < t[mu+1] of each point,
    clipped to [3, len(t) - 5]: a point past either end knot takes the
    end interval, whose polynomial piece extends the spline there.  The
    count of the knots t[4:-4] at or below x is that index less 3."""
    return np.searchsorted(t[4:-4], x, side="right") + 3


def _de_boor(knots, stages) -> list:
    """The cubic B-splines mu-3..mu nonzero on the knot interval t[mu] <= x
    < t[mu+1], from the de Boor-Cox recurrence (Lyche & Morken, Spline
    Methods, ch. 2-4), with knots[k] = t[mu - 2 + k] for k = 0..5 and the
    degree-d stage taken at the points stages[d - 1].  The knots and points
    are Python floats for one point, or arrays for many.  The operations
    and their order are those of scipy's BSpline, so the values agree bit
    for bit."""
    b = [1.0]
    for d, x in enumerate(stages, start=1):
        nb = [0.0] * (d + 1)
        for j in range(d):
            # b[j] is the B-spline mu - d + 1 + j of degree d-1, on [lo, hi)
            lo, hi = knots[3 - d + j], knots[3 + j]
            share = b[j] / (hi - lo)
            nb[j] += share * (hi - x)
            nb[j + 1] = share * (x - lo)
        b = nb
    return b


def _bspline_rows(t: np.ndarray, mu: np.ndarray, stages):
    """The band of the matrix whose row i holds the cubic B-splines
    mu[i]-3..mu[i] on the knots t (``_de_boor``, vectorized over the rows),
    shape (len(mu), 4), and the index mu - 3 of each row's first column."""
    knots = t[mu + np.arange(-2, 4)[:, None]]      # row k: t[mu - 2 + k]
    return np.array(_de_boor(knots, stages)).T, mu - 3


def _band_product(band: np.ndarray, first: np.ndarray, c: np.ndarray):
    """Row i of the banded matrix (band, first) times c, of shape (n,) or
    (n, q): sum_j band[i, j] c[first[i] + j], added to 0 in the order
    j = 0..3, as scipy's sparse products and BSpline add, bit for bit."""
    shape = (-1,) + (1,) * (c.ndim - 1)
    v = c[first] * band[:, 0].reshape(shape)
    v += 0.0
    for j in (1, 2, 3):
        term = c[first + j]
        term *= band[:, j].reshape(shape)
        v += term
    return v


def _refinement(t: np.ndarray, tau: np.ndarray):
    """The banded matrix, as (band, first), that maps the coefficients of a
    cubic spline on the knots t to those of the same spline on tau, which
    holds every knot of t at least as often (the Oslo algorithm; Lyche &
    Morken, Spline Methods, ch. 4).

    Row i has four entries, at the B-splines mu-3..mu of t whose support
    holds the knot interval t[mu] <= tau[i] < t[mu+1].  They are the
    product R_1(tau[i+1]) R_2(tau[i+2]) R_3(tau[i+3]) of the matrices of
    the de Boor-Cox recurrence, each stage taken at its own knot of tau.
    """
    m = len(tau) - 4
    return _bspline_rows(t, _interval(t, tau[:m]),
                         [tau[d:m + d] for d in (1, 2, 3)])


def _design(t: np.ndarray, x: np.ndarray):
    """The collocation matrix of the cubic B-splines on the knots t at the
    points x, as (band, first): row i holds the four B-splines
    first[i]..first[i]+3 at x[i], extrapolated past the end knots by the
    end pieces."""
    return _bspline_rows(t, _interval(t, x), (x, x, x))


# RowSpline evaluates up to this many points one at a time
_FEW_POINTS = 4


@dataclass(frozen=True, eq=False)
class RowSpline:
    """A vector-valued cubic spline: knots t and coefficients c of shape
    (len(t) - 4, *lead), one spline for each entry of lead."""

    t: np.ndarray
    c: np.ndarray

    def __call__(self, x) -> np.ndarray:
        """Values at the 1-D points x, shape lead + (len(x),), equal to
        scipy's BSpline's bit for bit, past the end knots included.

        Many points take the collocation matrix of x (``_design``) times
        the coefficients.  Up to _FEW_POINTS points go one at a time, the
        recurrence on Python floats and the sum over the point's four
        contiguous coefficient rows: the vectorized recurrence costs some
        forty numpy operations whatever the number of points, several
        times scipy's compiled call on the one to three points that
        spectral sums evaluate apart from their grids."""
        x = np.asarray(x, dtype=float)
        c = self.c.reshape(len(self.c), -1)
        if c.shape[1] == 1:
            # a 1-D gather is faster than one of rows of length 1
            c = c[:, 0]
        if len(x) > _FEW_POINTS:
            v = _band_product(*_design(self.t, x), c)
        else:
            v = np.empty((len(x),) + c.shape[1:])
            for i, (xi, mu) in enumerate(zip(x.tolist(),
                                             _interval(self.t, x).tolist())):
                b = _de_boor(self.t[mu - 2:mu + 4].tolist(), (xi, xi, xi))
                rows = c[mu - 3:mu + 1]
                vi = rows[0] * b[0] + 0.0
                for j in (1, 2, 3):
                    vi += rows[j] * b[j]
                v[i] = vi
        v = v.reshape(len(x), *self.c.shape[1:])
        return v.transpose(*range(1, v.ndim), 0)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending: np.unique's, without the
    numpy.ma import that np.unique makes when it returns no indices."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


_FLAPACK = "scipy.linalg._flapack"


def _lapack(*names: str):
    """The double-precision LAPACK routines names ("gbtrf", ...) of scipy's
    compiled LAPACK wrapper, scipy.linalg._flapack, loaded without importing
    scipy or scipy.linalg.

    The routines are the ones scipy.linalg.get_lapack_funcs returns for
    float64 arrays.  Importing scipy.linalg costs a process about 0.2 s and
    28 MB, most of it in scipy's array API layer (numpy.f2py, numpy.testing,
    numpy.ma); the extension alone loads in a few milliseconds.  The module
    is registered under its own name, so a later import of scipy.linalg
    reuses this one module object, and one that came first is reused here.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        # find_spec of a top-level name locates scipy without importing it
        scipy = importlib.util.find_spec("scipy")
        paths = [os.path.join(base, "linalg", "_flapack" + suffix)
                 for base in scipy.submodule_search_locations
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"cannot find {_FLAPACK} under {paths}")
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return [getattr(module, "d" + name) for name in names]


def _interpolation(xs: np.ndarray, t: np.ndarray):
    """The map from a block of columns of values at xs, shape (len(xs), b),
    to the coefficients, shape (len(xs), b), of the cubic splines on the
    knots t through them.

    The collocation matrix depends on xs and t alone, so it is LU-factored
    once here (LAPACK gbtrf, from scipy's compiled wrapper: ``_lapack``),
    where make_interp_spline factors it again on every call (gbsv, which is
    gbtrf then gbtrs).  Each block costs one Fortran-ordered copy, solved in
    place, and the coefficients are make_interp_spline's, bit for bit.
    """
    band, first = _design(t, xs)
    row = np.arange(len(xs))[:, None]
    col = first[:, None] + np.arange(4)
    # LAPACK band storage with room for the fill-in: A[i, j] at [6 + i - j, j]
    ab = np.zeros((10, len(xs)), order="F")
    ab[6 + row - col, col] = band
    gbtrf, gbtrs = _lapack("gbtrf", "gbtrs")
    lu, piv, info = gbtrf(ab, 3, 3, overwrite_ab=True)
    if info != 0:
        raise ValueError("spline collocation system is singular")

    def solve(cols):
        rhs = np.array(cols, order="F")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("spline values must be finite")
        c, info = gbtrs(lu, 3, 3, rhs, piv, overwrite_b=True)
        return c

    return solve


def _mapped_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A float array of zeros in an anonymous memory map of its own, outside
    the malloc heap.

    glibc maps each large malloc block on its own and, when one is freed,
    raises the size from which it maps later blocks to that block's size
    (up to 32 MB; mallopt(3), M_MMAP_THRESHOLD).  The largest arrays of a
    measure build are the merged eigenfunction table, 15 MB at N=6144, and
    each level's node table, which lives only until its level is fitted.
    Freed through malloc, they would send every array of the next build
    below that size to the heap, where the holes they leave raised the
    peak memory of three builds in one process by 4 MB.  Released, a map
    returns its pages at once.
    """
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(8 * n, 1)), dtype=float,
                         count=n).reshape(shape)


def _merged_knots(*grids: np.ndarray) -> np.ndarray:
    """The union of the knots of the not-a-knot cubic splines through each
    of grids, which share their end points: knots on which a weighted sum
    of those splines is one spline (``_add_spline``)."""
    knots = [_not_a_knot(xs) for xs in grids]
    inner = _distinct(np.concatenate([t[4:-4] for t in knots]))
    return np.concatenate([knots[0][:4], inner, knots[0][-4:]])


# rows of the coefficient table refined and summed per step in _add_spline
_REFINE_ROWS = 1024


def _add_spline(c: np.ndarray, tau: np.ndarray, xs: np.ndarray,
                Y: np.ndarray, weight: float) -> None:
    """Add to c, in place, weight times the coefficients on the knots tau
    of the not-a-knot cubic spline through each column of Y over xs.  Y
    has shape (len(xs), m) and c (len(tau) - 4, m); tau holds every knot of
    those splines, as ``_merged_knots`` of xs and other grids does.

    Each spline's coefficients are refined onto tau exactly
    (``_refinement``), so a sum of such calls is the same function as the
    weighted sum of their splines, to rounding.  When tau is the splines'
    own knots they are not refined: with weight 1 and c zero, c becomes
    make_interp_spline's coefficients.

    The columns are fitted a block of _SPLINE_BLOCK at a time, each
    block's solve released before the next, and summed into c a chunk of
    _REFINE_ROWS rows at a time, so the temporaries stay one block's solve
    and one chunk's products.  Large temporaries leave holes in the heap
    that later large arrays may or may not fit, which would make the peak
    memory of a process that builds several measures depend on its heap
    layout, not on its work.
    """
    t = _not_a_knot(xs)
    fit = _interpolation(xs, t)
    refine = None if np.array_equal(t, tau) else _refinement(t, tau)
    for j in range(0, Y.shape[1], _SPLINE_BLOCK):
        part = fit(Y[:, j:j + _SPLINE_BLOCK])
        cols = c[:, j:j + _SPLINE_BLOCK]
        for lo in range(0, len(cols), _REFINE_ROWS):
            rows = slice(lo, lo + _REFINE_ROWS)
            v = part[rows] if refine is None else _band_product(
                refine[0][rows], refine[1][rows], part)
            v *= weight
            cols[rows] += v
        del part, v


class KernelEvaluator:
    """Kernel evaluation bound to one operator, with its series table."""

    def __init__(self, spec: OperatorSpec):
        self.spec = spec
        self._build_series_table()

    # -- series table -------------------------------------------------------

    def _left_grid(self) -> np.ndarray:
        a, b = self.spec.a, self.spec.b
        if math.isinf(a):
            # left-infinite domains: start grid from far left, measure decay
            xs = np.linspace(-50.0, 10.0, _SERIES_POINTS)
        else:
            span = 10.0 if math.isinf(b) else (b - a) * 0.9
            xs = a + np.geomspace(span * 1e-14, span, _SERIES_POINTS)
        # clip points where the coefficients are not representable
        with np.errstate(all="ignore"):
            pv, rv = self.spec.p(xs), self.spec.r(xs)
            inv_p = 1.0 / pv
        ok = (pv > 0) & (rv > 0) & np.isfinite(inv_p)
        if math.isfinite(a):
            ok &= np.isfinite(rv) & (inv_p < 1e15)
        return xs[ok]

    def _build_series_table(self) -> None:
        xs = self._left_grid()
        if xs.size < 64:
            raise ValueError(f"{self.spec.name}: cannot build series grid near a")
        inv_p = 1.0 / self.spec.p(xs)
        rv = self.spec.r(xs)
        # every integrand's exact slope comes from p' and r'
        with np.errstate(all="ignore"):
            dp, dr = self.spec.p.derivative(xs), self.spec.r.derivative(xs)
        for name, d in (("p", dp), ("r", dr)):
            if not np.all(np.isfinite(d)):
                raise ValueError(f"{self.spec.name}: the derivative of {name} is "
                                 f"not finite at x={xs[np.argmin(np.isfinite(d))]:g}")
        h = np.diff(xs)

        # s(x) = -int_x^{table end} dx/p: suffix sums keep s accurate at
        # moderate x even when 1/p is astronomically large near a (a plain
        # cumulative integral would cancel ~16 digits there)
        inc_p = _hermite_increments(h, inv_p, -dp * inv_p * inv_p)
        s = -np.concatenate([np.cumsum(inc_p[::-1])[::-1], [0.0]])

        eta1 = s * _cumint(h, rv, dr) - _cumint(h, s * rv, rv * inv_p + s * dr)
        # the series is only ever summed where S(x)|lambda| <= 1, so the
        # table can stop once the majorant S = eta_1 passes a small cap
        ncut = int(np.searchsorted(eta1, 4.0))
        if 64 < ncut < len(xs):
            xs, inv_p, rv, dr, s = (v[:ncut] for v in (xs, inv_p, rv, dr, s))

        self._xs = xs
        # 1/p and r at the nodes give the slopes of the rows (``_terms``);
        # with r' and s they give the rows themselves (``_extend_table``)
        self._inv_p, self._r, self._dr, self._s = inv_p, rv, dr, s
        self._table = np.empty((2, 0, len(xs)))
        self._extend_table(_term_count(_HANDOFF_RHO))
        # S(x): the majorant with |eta_j| <= S^j / j!
        self._S = np.abs(self._table[0, 1])

    def _extend_table(self, J: int) -> None:
        """The (2, J, n) table of eta_j and zeta_j = int_a^x eta_j r for j <
        J, from the rows already in it.  Each row is integrated with its
        exact slope: zeta_j' = eta_j r and eta_{j+1}' = zeta_j / p, so
        (s eta_j r)' = eta_j r / p + s (eta_j r)'.  The slope of eta_j is
        recomputed from zeta_{j-1}, so a row has the same bits whether the
        table is built to J rows at once or grown to them in steps."""
        xs, inv_p, rv, dr, s = self._xs, self._inv_p, self._r, self._dr, self._s
        h = np.diff(xs)
        j0 = self._table.shape[1]
        table = np.empty((2, J, len(xs)))
        table[:, :j0] = self._table
        etas, zetas = table
        etas[0] = 1.0
        for j in range(max(j0 - 1, 0), J):
            f = etas[j] * rv
            d_eta = zetas[j - 1] * inv_p if j else np.zeros_like(xs)
            df = d_eta * rv + etas[j] * dr
            if j >= j0:
                zetas[j] = _cumint(h, f, df)
            if j + 1 < J:
                etas[j + 1] = s * zetas[j] - _cumint(h, s * f, f * inv_p + s * df)
        self._table = table

    def _terms(self, x: np.ndarray, J: int) -> np.ndarray:
        """(eta_j, zeta_j) for j < J at the in-table points x, shape
        (2, J, len(x)): the cubic Hermite interpolant of the rows' values
        and exact slopes eta_j' = zeta_{j-1} / p, zeta_j' = eta_j r at the
        nodes.  The table is extended first when it has fewer than J rows.
        Products go through one buffer, not fresh temporaries."""
        if J > self._table.shape[1]:
            self._extend_table(J)
        xs = self._xs
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
        h = xs[i + 1] - xs[i]
        t = (x - xs[i]) / h
        u = 1.0 - t
        out = np.zeros((2, J, len(x)))
        buf = np.empty((J, len(x)))
        for k, value_w, slope_w in ((i, (1.0 + 2.0 * t) * u * u, h * t * u * u),
                                    (i + 1, t * t * (3.0 - 2.0 * t), -h * t * t * u)):
            # gathered per contiguous (J, n) block: the (2, J, n) view is slower
            eta, zeta = (rows[:J, k] for rows in self._table)
            out[0] += np.multiply(eta, value_w, out=buf)
            out[1] += np.multiply(zeta, value_w, out=buf)
            out[0, 1:] += np.multiply(zeta[:-1], slope_w * self._inv_p[k],
                                      out=buf[:-1])
            out[1] += np.multiply(eta, slope_w * self._r[k], out=buf)
        return out

    def _series(self, lams: np.ndarray, x: np.ndarray, rho: float):
        """Series (w, w1) for every lambda at in-table points x, with the
        bound on the first omitted term; each of shape (K, len(x)).

        rho bounds |lambda| S on every pair the caller keeps.  Since
        |eta_j| <= S^j / j!, J terms leave at most rho^J / J!, and the sum
        over terms is one (K x J)(J x n) product.  The terms are scaled by
        tau^j, tau = max S(x), so that neither (-lambda tau)^j nor
        eta_j / tau^j leaves the float range.
        """
        S = np.interp(x, self._xs, self._S)
        J = _term_count(rho)
        tau = float(S.max()) or 1.0
        powers = np.arange(J)
        coef = (-lams[:, None] * tau) ** powers
        eta, zeta = self._terms(x, J) * tau ** -powers[:, None]
        w = coef @ eta
        w1 = -lams[:, None] * (coef @ zeta)
        lS = np.abs(lams)[:, None] * S
        log_bound = J * np.log(np.maximum(lS, 1e-300)) - math.lgamma(J + 1)
        return w, w1, np.exp(np.minimum(log_bound, 700.0))

    def _handoff_index(self, lams: np.ndarray) -> np.ndarray:
        """Largest table index with S(x)|lambda| <= 1, for each lambda."""
        mag = np.maximum(np.abs(lams), 1e-30)
        idx = np.searchsorted(self._S, _HANDOFF_RHO / mag) - 1
        return np.clip(idx, 8, len(self._xs) - 1)

    @property
    def start(self) -> float:
        """The table's first node, a or above: w = 1 and p w' = 0 up to it."""
        return float(self._xs[0])

    def leading_values(self, lams: np.ndarray, nodes: np.ndarray):
        """w for each real lambda on its normalization window, the leading
        nodes an eigenvector is scaled on: (K, M) values, row k read only on
        nodes[:n[k]], and the lengths n.  S grows with x, so each window is
        a prefix of the nodes, and no ODE runs past one."""
        S_nodes = np.interp(nodes, self._xs, self._S, right=np.inf)
        n_win = np.minimum(np.searchsorted(
            S_nodes, _WINDOW_RHO / np.maximum(lams, 1e-30), side="right"),
            _WINDOW_NODES)
        fallback = n_win < _WINDOW_MIN
        n_fb = min(_FALLBACK_NODES, len(nodes))
        n_win[fallback] = n_fb
        w_win = np.zeros((len(lams), int(n_win.max())))
        if not fallback.all():
            M_ser = int(n_win[~fallback].max())
            w_win[~fallback, :M_ser] = self._series(
                lams[~fallback], nodes[:M_ser], _WINDOW_RHO)[0]
        if fallback.any():
            w_win[fallback, :n_fb] = self.eval_many(lams[fallback],
                                                    nodes[:n_fb])[0].real
        return w_win, n_win

    # -- public evaluation ---------------------------------------------------

    def eval_many(self, lams, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, w1) for every lambda at a sorted array of points, shapes
        (K, n) and (K, n), with a per-lambda error estimate of shape (K,).

        Each (lambda, x) pair up to that lambda's hand-off point takes the
        series value.  The pairs past it come from one stacked ODE solve,
        started at the earliest hand-off among the lambdas that need it.
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if np.any(np.diff(xs) < 0):
            raise ValueError("evaluation grid must be sorted")
        a, b = self.spec.a, self.spec.b
        if xs.size and (xs[0] < a or xs[-1] >= b):
            raise ValueError(f"point outside domain [{a},{b})")
        W = np.ones((lams.size, xs.size), dtype=complex)
        W1 = np.zeros((lams.size, xs.size), dtype=complex)
        err = np.zeros(lams.size)
        live = lams != 0
        if not live.all():
            # w_0 = 1 and p w_0' = 0 exactly; only the other lambdas need work
            if live.any():
                W[live], W1[live], err[live] = self.eval_many(lams[live], xs)
            return W, W1, err
        ih = self._handoff_index(lams)
        x_h = self._xs[ih]

        beyond = xs > x_h[:, None]
        rows = np.flatnonzero(beyond.any(axis=1))
        # points at or before the table start keep w = 1, p w' = 0
        ser = (xs > self._xs[0]) & ~beyond.all(axis=0)
        pts = xs[ser]
        if rows.size:
            x0 = float(x_h[rows].min())
            pts = np.append(pts, x0)
        if pts.size:
            ws, w1s, bound = self._series(lams, pts,
                                          float(np.max(np.abs(lams) * self._S[ih])))
            err = np.max(bound, axis=1, where=pts <= x_h[:, None], initial=0.0)
            n_ser = int(ser.sum())
            W[:, ser] = ws[:, :n_ser]
            W1[:, ser] = w1s[:, :n_ser]
        if rows.size:
            cols = np.flatnonzero(xs > x0)
            w_ode, w1_ode = self._integrate(lams[rows], x0, ws[rows, -1],
                                            w1s[rows, -1], xs[cols])
            blk = np.ix_(rows, cols)
            take = beyond[blk]
            W[blk] = np.where(take, w_ode, W[blk])
            W1[blk] = np.where(take, w1_ode, W1[blk])
            peak = np.max(np.abs(w_ode), axis=1, where=take, initial=1.0)
            err[rows] += _RTOL * peak
        return W, W1, err

    def eval_grid(self, lam: complex, xs) -> tuple[np.ndarray, np.ndarray, float]:
        """(w, w1) at a sorted array of points for one lambda."""
        W, W1, err = self.eval_many([lam], xs)
        return W[0], W1[0], float(err[0])

    def _integrate(self, lams, x0, w0, w10, xs):
        """One DOP853 solve of w' = w1/p, w1' = -lambda r w for every
        lambda from x0.  The state is real, (w, w1), or, when some lambda
        is complex, the (Re, Im) pairs of (w, w1), which read as a complex
        array.  Returns w and w1 at xs, each (K, len(xs)); xs may repeat
        nodes.  A span of more than _MAX_PERIODS periods of the largest
        |lambda| is a ValueError, raised before the solve.

        The error norm is an RMS over all m K real components.  Scaling the
        tolerances by 2 / sqrt(m K) keeps each lambda's own four-component
        norm, the criterion a lone complex lambda is solved to, within 1.
        """
        p, r = self.spec.p, self.spec.r
        K = len(lams)
        paired = bool(np.any(lams.imag != 0))
        if paired:
            y_init = np.concatenate([w0, w10]).astype(complex).view(float)

            def fun(x, y):
                z = y.view(complex)
                return np.concatenate([z[K:] / p(x), -r(x) * (lams * z[:K])]).view(float)
        else:
            lre = lams.real
            y_init = np.concatenate([w0.real, w10.real])

            def fun(x, y):
                return np.concatenate([y[K:] / p(x), -r(x) * (lre * y[:K])])

        scale = 2.0 / math.sqrt(len(y_init))
        targets, where = np.unique(xs, return_inverse=True)
        lam = lams[np.argmax(np.abs(lams))]
        # estimated by Gauss-Legendre on each interval between the targets
        edges = np.concatenate([[x0], targets])
        span = _seg_integral(lambda x: np.sqrt(r(x) / p(x)), edges[:-1],
                             edges[1:])
        periods = math.sqrt(abs(lam)) * float(np.sum(span)) / (2.0 * math.pi)
        if periods > _MAX_PERIODS:
            shown = lam.real if lam.imag == 0 else lam
            raise ValueError(
                f"{self.spec.name}: lambda = {shown:.6g} spans about "
                f"{periods:.3g} periods of w on [{x0:.6g}, {targets[-1]:.6g}],"
                f" past the {_MAX_PERIODS:g} that one ODE solve may take")
        y = solve_ivp(fun, x0, y_init, targets, _RTOL * scale,
                      _ATOL * scale).y[:, where]
        z = y[0::2] + 1j * y[1::2] if paired else y.astype(complex)
        return z[:K], z[K:]

    def eval_w_shifted(self, lam, a_m: float, xs) -> tuple[np.ndarray, np.ndarray]:
        """Solution with w(a_m)=1, (p w')(a_m)=0 at a regular interior point.

        lam is one lambda or an array of them; the results have shape
        np.shape(lam) + (len(xs),), from one stacked solve.
        """
        lams = np.asarray(lam, dtype=complex)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if not (self.spec.a < a_m):
            raise ValueError("a_m must lie inside (a,b)")
        if xs.size and xs.min() <= a_m:
            raise ValueError("shifted evaluation needs x > a_m")
        flat = lams.reshape(-1)
        w = np.ones((flat.size, xs.size), dtype=complex)
        w1 = np.zeros((flat.size, xs.size), dtype=complex)
        live = flat != 0
        if live.any() and xs.size:
            start = np.ones(int(live.sum()), dtype=complex)
            w[live], w1[live] = self._integrate(flat[live], a_m, start,
                                                0.0 * start, xs)
        return w.reshape(lams.shape + xs.shape), w1.reshape(lams.shape + xs.shape)

