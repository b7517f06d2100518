"""Evaluation of the kernel functions w_lambda.

w_lambda solves -(1/r)(p w')' = lambda w on (a,b) with w -> 1 and
p w' -> 0 at the left endpoint.  Near a, where the problem may be
singular, w is computed from the iterated-integral series

    w = sum_j (-lambda)^j eta_j,     eta_0 = 1,
    eta_j(x) = int_a^x (s(x) - s(xi)) eta_{j-1}(xi) r(xi) dxi,

with s' = 1/p.  The series terms are lambda-independent, so they are
tabulated on one grid (``KernelEvaluator._build_series_table``), with the
rows a sum reads (``_extend_table``) and the terms between the nodes
(``KernelEvaluator._terms``) taken from exact slopes, so no system is
solved.  Further out, evaluation integrates the first-order system
w' = w1/p, w1' = -lambda r w, one DOP853 solve (``slhyper.ode``) for every
lambda at once, within the period budget _MAX_PERIODS (``_check_periods``), by
``KernelEvaluator.eval_many``; its points follow one rule (``_points``).

The spectral measure reads this module's table through its first node
(``KernelEvaluator.start``) and the values its eigenvectors are scaled to
(``KernelEvaluator.leading_values``), and fits and evaluates its
eigenfunction splines here (``_fit_in_place``, ``RowSpline``), each with
at most one fixed block of temporaries: the memory rule is stated in
``_band_product`` and ``_fit_in_place``.
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
from .expr import sqrt_ratio
from .operator import OperatorSpec, _seg_integral

__all__ = ["KernelEvaluator"]

_SERIES_POINTS = 4000
_MAX_TERMS = 60
# eval_many sums the series while |lambda| S <= _HANDOFF_RHO; the window
# constants are leading_values'
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


# columns fitted per solve in _fit_in_place
_SPLINE_BLOCK = 32
# the floats of one block of temporaries (``_band_product``)
_BLOCK = 1 << 15


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


def _de_boor(knots, x) -> list:
    """The cubic B-splines mu-3..mu nonzero on the knot interval t[mu] <= x
    < t[mu+1], at x, from the de Boor-Cox recurrence (Lyche & Morken,
    Spline Methods, ch. 2), with knots[k] = t[mu - 2 + k] for k = 0..5.
    The knots and x are Python floats for one point, or arrays for many.
    The operations and their order are those of scipy's BSpline, so the
    values agree bit for bit."""
    b = [1.0]
    for d in (1, 2, 3):
        nb = [0.0] * (d + 1)
        for j in range(d):
            # b[j] is the B-spline mu - d + 1 + j of degree d-1, on [lo, hi)
            lo, hi = knots[3 - d + j], knots[3 + j]
            share = b[j] / (hi - lo)
            nb[j] += share * (hi - x)
            nb[j + 1] = share * (x - lo)
        b = nb
    return b


def _band_product(band: np.ndarray, first: np.ndarray, c: np.ndarray):
    """Row i of the banded matrix (band, first) times c, of shape (n,) or
    (n, q): sum_j band[i, j] c[first[i] + j], added to 0 in the order
    j = 0..3, as scipy's sparse products and BSpline add, bit for bit.

    The memory rule of the spline layer, for evaluation: a product larger
    than one block of _BLOCK floats holds its output, in a memory map of
    its own (``_mapped_zeros``), and one block besides.  It is accumulated
    into its output a block of rows at a time, each term gathered into one
    reused buffer (np.take, whose "clip" mode writes straight into it; the
    band's columns are always in range), with the same operations in the
    same order as in one shot, which would hold two more arrays the size
    of the output.  A product of up to one block, as the many small ones
    of a build and of the spectral sums are, is one gather and multiply
    per term, which costs them less than the loop.
    """
    shape = (-1,) + (1,) * (c.ndim - 1)
    width = math.prod(c.shape[1:])
    if len(first) * width <= _BLOCK:
        v = c[first] * band[:, 0].reshape(shape)
        v += 0.0
        for j in (1, 2, 3):
            term = c[first + j]
            term *= band[:, j].reshape(shape)
            v += term
        return v
    step = max(_BLOCK // width, 1)
    v = _mapped_zeros(first.shape + c.shape[1:])
    gather = np.empty((step,) + c.shape[1:])
    for i in range(0, len(first), step):
        rows = slice(i, i + step)
        out, at, b = v[rows], first[rows], band[rows]
        term = gather[:len(at)]
        np.take(c, at, axis=0, out=out, mode="clip")
        out *= b[:, 0].reshape(shape)
        out += 0.0
        for j in (1, 2, 3):
            np.take(c, at + j, axis=0, out=term, mode="clip")
            term *= b[:, j].reshape(shape)
            out += term
    return v


def _design(t: np.ndarray, x: np.ndarray):
    """The collocation matrix of the cubic B-splines on the knots t at the
    points x, as (band, first): row i holds the four B-splines
    first[i]..first[i]+3 at x[i] (``_de_boor``, vectorized over the rows),
    extrapolated past the end knots by the end pieces."""
    mu = _interval(t, x)
    knots = t[mu + np.arange(-2, 4)[:, None]]      # row k: t[mu - 2 + k]
    return np.array(_de_boor(knots, x)).T, mu - 3


# RowSpline evaluates up to this many points one at a time
_FEW_POINTS = 4


@dataclass(frozen=True, eq=False)
class RowSpline:
    """A vector-valued cubic spline: knots t and coefficients c of shape
    (len(t) - 4,) for one spline or (len(t) - 4, m) for m of them."""

    t: np.ndarray
    c: np.ndarray

    def __call__(self, x) -> np.ndarray:
        """Values at the 1-D points x, shape c.shape[1:] + (len(x),), equal to
        scipy's BSpline's bit for bit, past the end knots included.

        Many points take the collocation matrix of x (``_design``) times
        the coefficients.  Up to _FEW_POINTS points go one at a time, the
        recurrence on Python floats and the sum over the point's four
        contiguous coefficient rows: the vectorized recurrence costs some
        forty numpy operations whatever the number of points, several
        times scipy's compiled call on the one to three points that
        spectral sums evaluate apart from their grids."""
        x = np.asarray(x, dtype=float)
        c = self.c
        if c.ndim == 2 and c.shape[1] == 1:
            # a 1-D gather is faster than one of rows of length 1
            c = c[:, 0]
        if len(x) > _FEW_POINTS:
            v = _band_product(*_design(self.t, x), c)
        else:
            v = np.empty((len(x),) + c.shape[1:])
            for i, (xi, mu) in enumerate(zip(x.tolist(),
                                             _interval(self.t, x).tolist())):
                b = _de_boor(self.t[mu - 2:mu + 4].tolist(), xi)
                rows = c[mu - 3:mu + 1]
                vi = rows[0] * b[0] + 0.0
                for j in (1, 2, 3):
                    vi += rows[j] * b[j]
                v[i] = vi
        return v.reshape(len(x), *self.c.shape[1:]).T


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


def _mapped_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A float array of zeros in an anonymous memory map of its own, outside
    the malloc heap.

    glibc maps each large malloc block on its own and, when one is freed,
    raises the size from which it maps later blocks to that block's size
    (up to 32 MB; mallopt(3), M_MMAP_THRESHOLD), and the size of free heap
    it keeps resident to twice that (M_TRIM_THRESHOLD).  The largest arrays
    of a measure build are its levels' tables, 10 MB at N=6144 for the
    fine node table, which becomes the eigenfunctions' coefficient table.
    Freed through malloc, they would send every array of the next build
    below that size to the heap, where the holes they leave raised the
    peak memory of three builds in one process by 4 MB.  The spline
    layer's other arrays of a table's size, a fit's buffer and the values
    of a large evaluation (``_fit_in_place``, ``_band_product``), are
    mapped for the same reason: through malloc, the 1 MB fit buffer of a
    4096-node level and the 2.4 MB values of an evaluation kept up to
    3.4 MB of freed heap resident in the next build, 1.1 MB over the
    benchmark's live peak.  Released, a map returns its pages at once;
    a new one costs its page faults, about 1.4 ms for 2.4 MB on 2 shared
    cores, where reused heap pages cost none.
    """
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(8 * n, 1)), dtype=float,
                         count=n).reshape(shape)


def _fit_in_place(xs: np.ndarray, c: np.ndarray, values) -> np.ndarray:
    """Write into c, of shape (len(xs), m), the coefficients of the
    not-a-knot cubic splines over xs through the node values that
    values(cols, out) writes into out, of shape (len(xs), len(cols)), for
    the columns cols of c, and return their knots (``_not_a_knot``).
    cols is a slice of at most _SPLINE_BLOCK columns, taken in order, and
    each block is written before its columns of c are, so values may read
    c itself: a node table becomes its own coefficient table, with no
    second table of its size.  c may be a transposed view, one spline per
    row of the array beneath.  With values copying c[:, cols] into out, c
    becomes make_interp_spline's coefficients, bit for bit.

    The collocation matrix depends on xs alone, so it is LU-factored once
    (LAPACK gbtrf, from scipy's compiled wrapper: ``_lapack``), where
    make_interp_spline factors it again on every call (gbsv, which is
    gbtrf then gbtrs).  The memory rule of the spline layer, for fits: a
    fit holds its table and one block besides, the one Fortran-ordered
    buffer of len(xs) by _SPLINE_BLOCK floats mapped here
    (``_mapped_zeros``), which values fills and gbtrs solves in place for
    every block.
    """
    t = _not_a_knot(xs)
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
    del band, first, row, col      # only the factors stay for the blocks
    m = c.shape[1]
    block = _mapped_zeros((min(_SPLINE_BLOCK, m), len(xs))).T
    for j in range(0, m, _SPLINE_BLOCK):
        cols = slice(j, min(j + _SPLINE_BLOCK, m))
        rhs = block[:, :cols.stop - j]
        values(cols, rhs)
        if not np.all(np.isfinite(rhs)):
            raise ValueError("spline values must be finite")
        c[:, cols] = gbtrs(lu, 3, 3, rhs, piv, overwrite_b=True)[0]
    return t


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
        J, from the rows already in it.  Rows are made on demand: the
        table starts with the 19 rows that every sum at |lambda| S <= 1
        reads, and _terms adds those that a larger |lambda| S reads
        (``_term_count``), up to _MAX_TERMS + 1.  Each row is integrated
        with its exact slope: zeta_j' = eta_j r and eta_{j+1}' = zeta_j / p, so
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
        nodes.  Products go through one buffer, not fresh temporaries."""
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
        nodes[:n[k]], and the lengths n.  A window is the series alone on
        the leading nodes with |lambda| S <= _WINDOW_RHO, at most
        _WINDOW_NODES of them, or, where fewer than _WINDOW_MIN are, eval_many
        on the first _FALLBACK_NODES nodes.  S grows with x, so each window
        is a prefix of the nodes, and no ODE runs past one."""
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

    def _points(self, xs, a_m: float | None = None) -> np.ndarray:
        """xs as a 1-D float array: points in any order, none NaN (np.min,
        unlike np.fmin, returns it), each in [a, b), or in (a_m, b) for a
        solution started at a_m; else ValueError."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        lo = np.min(xs, initial=math.inf)
        if math.isnan(lo):
            raise ValueError("points must not be NaN")
        a, b = self.spec.a, self.spec.b
        ok, ends = (lo >= a, f"[{a:g}, {b:g})") if a_m is None else (
            lo > a_m, f"({a_m:g}, {b:g})")
        if not ok or np.max(xs, initial=-math.inf) >= b:
            raise ValueError(f"points outside {ends}")
        return xs

    def eval_many(self, lams, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, w1) for every lambda at the points xs, in any order (see
        _points), shapes (K, n) and (K, n), with a per-lambda error estimate
        of shape (K,); a point's values do not depend on the order.

        Each (lambda, x) pair up to that lambda's hand-off point takes the
        series value.  The pairs past it come from one stacked ODE solve,
        started at the earliest hand-off among the lambdas that need it.
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=complex))
        xs = self._points(xs)
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
            cols = np.flatnonzero(xs > x0)
            # before the series, whose terms overflow at such a lambda
            self._check_periods(lams[rows], x0, xs[cols])
            pts = np.append(pts, x0)
        if pts.size:
            ws, w1s, bound = self._series(lams, pts,
                                          float(np.max(np.abs(lams) * self._S[ih])))
            err = np.max(bound, axis=1, where=pts <= x_h[:, None], initial=0.0)
            n_ser = int(ser.sum())
            W[:, ser] = ws[:, :n_ser]
            W1[:, ser] = w1s[:, :n_ser]
        if rows.size:
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
        """(w, w1) at the points xs, in any order, for one lambda."""
        W, W1, err = self.eval_many([lam], xs)
        return W[0], W1[0], float(err[0])

    def _integrate(self, lams, x0, w0, w10, xs):
        """One DOP853 solve of w' = w1/p, w1' = -lambda r w for every
        lambda from x0.  The state is real, (w, w1), or, when some lambda
        is complex, the (Re, Im) pairs of (w, w1), which read as a complex
        array.  Returns w and w1 at xs, each (K, len(xs)); xs may repeat
        nodes.  Its callers check the span first (``_check_periods``).

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
        y = solve_ivp(fun, x0, y_init, targets, _RTOL * scale,
                      _ATOL * scale).y[:, where]
        z = y[0::2] + 1j * y[1::2] if paired else y.astype(complex)
        return z[:K], z[K:]

    def _check_periods(self, lams, x0: float, xs) -> None:
        """ValueError if the largest |lambda| spans more than _MAX_PERIODS
        periods of w from x0 to the last of xs, the span estimated by
        Gauss-Legendre on each interval between the points."""
        spec = self.spec
        # asked for indices, np.unique does not import numpy.ma
        targets = np.unique(xs, return_inverse=True)[0]
        lam = lams[np.argmax(np.abs(lams))]
        edges = np.concatenate([[x0], targets])
        span = _seg_integral(lambda x: sqrt_ratio([spec.r], [spec.p], x),
                             edges[:-1], edges[1:])
        periods = math.sqrt(abs(lam)) * float(np.sum(span)) / (2.0 * math.pi)
        if periods > _MAX_PERIODS:
            shown = lam.real if lam.imag == 0 else lam
            raise ValueError(
                f"{spec.name}: lambda = {shown:.6g} spans about "
                f"{periods:.3g} periods of w on [{x0:.6g}, {targets[-1]:.6g}],"
                f" past the {_MAX_PERIODS:g} that one ODE solve may take")

    def eval_w_shifted(self, lam, a_m: float, xs) -> tuple[np.ndarray, np.ndarray]:
        """Solution with w(a_m)=1, (p w')(a_m)=0 at a regular interior point.

        lam is one lambda or an array of them, and xs points in (a_m, b)
        (see _points); the results have shape np.shape(lam) + (len(xs),),
        from one stacked solve.
        """
        lams = np.asarray(lam, dtype=complex)
        if not (self.spec.a < a_m < self.spec.b):
            raise ValueError("a_m must lie inside (a,b)")
        xs = self._points(xs, a_m)
        flat = lams.reshape(-1)
        w = np.ones((flat.size, xs.size), dtype=complex)
        w1 = np.zeros((flat.size, xs.size), dtype=complex)
        live = flat != 0
        if live.any() and xs.size:
            start = np.ones(int(live.sum()), dtype=complex)
            self._check_periods(flat[live], a_m, xs)
            w[live], w1[live] = self._integrate(flat[live], a_m, start,
                                                0.0 * start, xs)
        return w.reshape(lams.shape + xs.shape), w1.reshape(lams.shape + xs.shape)

