"""Evaluation of the kernel functions w_lambda.

w_lambda solves -(1/r)(p w')' = lambda w on (a,b) with w -> 1 and
p w' -> 0 at the left endpoint.  Near a, where the problem may be
singular, w is computed from the iterated-integral series

    w = sum_j (-lambda)^j eta_j,     eta_0 = 1,
    eta_j(x) = int_a^x (s(x) - s(xi)) eta_{j-1}(xi) r(xi) dxi,

with s' = 1/p.  The series terms are lambda-independent, so they are
tabulated once per operator, as one vector-valued spline.  Each term's
integrals are those of the not-a-knot cubic spline through the previous
term on one grid; the spline's slope system depends on the grid alone, so
one factored matrix serves every term (``_spline_increments``).  Further out,
evaluation continues by integrating the first-order system
w' = w1/p, w1' = -lambda r w.

Evaluation is batched over lambda (``KernelEvaluator.eval_many``).  The
series part is one matrix product of scaled powers (-lambda)^j with the
table, served up to each lambda's hand-off point, where |lambda| S <= 1.
The ODE part is one DOP853 solve (``slhyper.ode``, numpy) of the stacked
state of every lambda that needs it, started at the earliest of their
hand-off points, with the tolerances tightened so that each lambda is held
to its single-lambda error criterion.  A single lambda is the batch of one.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import csr_array

from .ode import solve_ivp
from .operator import OperatorSpec

__all__ = ["KernelEvaluator"]

_SERIES_POINTS = 4000
_MAX_TERMS = 60
# DOP853 tolerances of the kernel ODE
_RTOL = 1e-11
_ATOL = 1e-13


def _spline_increments(xs: np.ndarray):
    """The map f -> per-interval integrals of the not-a-knot cubic spline
    through (xs, f), for a grid of at least four points.

    The slopes d solve a tridiagonal system whose matrix depends on xs
    alone, so it is built and LU-factored once here, and each f costs one
    pair of triangular solves.  The matrix and right-hand side are those of
    scipy's CubicSpline.  Each interval integral is the Hermite form
    h (f_i + f_{i+1}) / 2 + h^2 (d_i - d_{i+1}) / 12, which is local to the
    interval, so no large antiderivative constant enters the arithmetic.
    """
    h = np.diff(xs)
    # not-a-knot: the third derivative is continuous at xs[1] and xs[-2]
    d_lo, d_hi = xs[2] - xs[0], xs[-1] - xs[-3]
    sub = np.append(h[1:], d_hi)
    main = np.concatenate([[h[1]], 2.0 * (h[:-1] + h[1:]), [h[-2]]])
    sup = np.insert(h[:-1], 0, d_lo)
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (main,))
    *lu, info = gttrf(sub, main, sup)
    if info != 0:
        raise ValueError("spline slope system is singular")

    def increments(f):
        slope = np.diff(f) / h
        rhs = np.empty_like(xs)
        rhs[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
        rhs[0] = ((h[0] + 2.0 * d_lo) * h[1] * slope[0]
                  + h[0] ** 2 * slope[1]) / d_lo
        rhs[-1] = (h[-1] ** 2 * slope[-2]
                   + (2.0 * d_hi + h[-1]) * h[-2] * slope[-1]) / d_hi
        d, _ = gttrs(*lu, rhs)
        return h * (f[:-1] + f[1:]) / 2.0 + h * h * (d[:-1] - d[1:]) / 12.0

    return increments


# rows fitted per solve in _row_spline
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


def _bspline_rows(t: np.ndarray, mu: np.ndarray, stages) -> csr_array:
    """Row i: the cubic B-splines mu[i]-3..mu[i] on the knots t, nonzero on
    the knot interval t[mu[i]] <= x < t[mu[i]+1], from the de Boor-Cox
    recurrence (Lyche & Morken, Spline Methods, ch. 2-4) with its degree-d
    stage taken at the points stages[d - 1].  The operations and their
    order are those of scipy's BSpline, so the values agree bit for bit."""
    m = len(mu)
    knots = t[mu + np.arange(-2, 4)[:, None]]      # row k: t[mu - 2 + k]
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
    return csr_array((np.column_stack(b).ravel(),
                      (mu[:, None] + np.arange(-3, 1)).ravel(),
                      np.arange(0, 4 * m + 1, 4)), shape=(m, len(t) - 4))


def _refinement(t: np.ndarray, tau: np.ndarray) -> csr_array:
    """The matrix that maps the coefficients of a cubic spline on the knots t
    to those of the same spline on tau, which holds every knot of t at
    least as often (the Oslo algorithm; Lyche & Morken, Spline Methods,
    ch. 4).

    Row i has four nonzeros, at the B-splines mu-3..mu of t whose support
    holds the knot interval t[mu] <= tau[i] < t[mu+1].  They are the
    product R_1(tau[i+1]) R_2(tau[i+2]) R_3(tau[i+3]) of the matrices of
    the de Boor-Cox recurrence, each stage taken at its own knot of tau.
    """
    m = len(tau) - 4
    return _bspline_rows(t, _interval(t, tau[:m]),
                         [tau[d:m + d] for d in (1, 2, 3)])


def _design(t: np.ndarray, x: np.ndarray) -> csr_array:
    """The collocation matrix of the cubic B-splines on the knots t at the
    points x, shape (len(x), len(t) - 4), four nonzeros a row: design(t, x)
    @ c is the spline with coefficients c at x, extrapolated past the end
    knots by the end pieces."""
    return _bspline_rows(t, _interval(t, x), (x, x, x))


@dataclass(frozen=True, eq=False)
class RowSpline:
    """A vector-valued cubic spline: knots t and coefficients c of shape
    (len(t) - 4, *lead), one spline for each entry of lead."""

    t: np.ndarray
    c: np.ndarray

    def __call__(self, x) -> np.ndarray:
        """Values at the 1-D points x, shape lead + (len(x),): the one
        collocation matrix of x (``_design``) times the coefficients."""
        x = np.asarray(x, dtype=float)
        v = _design(self.t, x) @ self.c.reshape(len(self.c), -1)
        return np.moveaxis(v.reshape(len(x), *self.c.shape[1:]), 0, -1)


def _interpolation(xs: np.ndarray, t: np.ndarray):
    """The map from a block of rows of values at xs, shape (b, len(xs)), to
    the coefficients, shape (len(xs), b), of the cubic splines on the knots
    t through them.

    The collocation matrix depends on xs and t alone, so it is LU-factored
    once here (LAPACK gbtrf), where make_interp_spline factors it again on
    every call (gbsv, which is gbtrf then gbtrs).  Each block costs one
    Fortran-ordered copy, solved in place, and the coefficients are
    make_interp_spline's, bit for bit.
    """
    col = _design(t, xs).tocoo()
    # LAPACK band storage with room for the fill-in: A[i, j] at [6 + i - j, j]
    ab = np.zeros((10, len(xs)), order="F")
    ab[6 + col.row - col.col, col.col] = col.data
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lu, piv, info = gbtrf(ab, 3, 3, overwrite_ab=True)
    if info != 0:
        raise ValueError("spline collocation system is singular")

    def solve(rows):
        rhs = np.array(rows.T, order="F")
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
    (up to 32 MB).  The merged eigenfunction table is the largest array of
    a measure build, 15 MB at N=6144.  Freed through malloc, it would send
    every array of the next build below that size to the heap, where the
    holes they leave raised the peak memory of three builds in one process
    by 4 MB.
    """
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(8 * n, 1)), dtype=float,
                         count=n).reshape(shape)


def _row_spline(*levels: tuple[np.ndarray, np.ndarray, float]) -> RowSpline:
    """The sum over levels (xs, Y, weight) of weight times the not-a-knot
    cubic spline through every row of Y over xs, as one RowSpline whose
    values run along Y's last axis.  The levels share their end points and
    the shape of Y's leading axes.

    The sum lives on the union of the levels' knots.  Each level's
    coefficients are refined onto it exactly (``_refinement``), so the one
    spline is the same function as the weighted sum of the level splines,
    to rounding.  A lone level is not refined: with weight 1 its
    coefficients equal make_interp_spline's.

    The rows are fitted a block at a time, and every level's block is
    refined and summed straight into the one preallocated coefficient
    array, so the temporaries stay one block's size: a copy for the solve
    and its refinement.  Large temporaries leave holes in the heap that
    later large arrays may or may not fit, which would make the peak memory
    of a process that builds several measures depend on its heap layout,
    not on its work.
    """
    knots = [_not_a_knot(xs) for xs, _, _ in levels]
    if len(levels) == 1:
        tau, maps = knots[0], [None]
    else:
        inner = functools.reduce(np.union1d, [t[4:-4] for t in knots])
        tau = np.concatenate([knots[0][:4], inner, knots[0][-4:]])
        maps = [_refinement(t, tau) for t in knots]
    lead = levels[0][1].shape[:-1]
    n_rows = math.prod(lead)
    tables = [Y.reshape(n_rows, Y.shape[-1]) for _, Y, _ in levels]
    fits = [_interpolation(xs, t) for (xs, _, _), t in zip(levels, knots)]
    c = _mapped_zeros((len(tau) - 4, n_rows))
    for j in range(0, n_rows, _SPLINE_BLOCK):
        for (_, _, weight), rows, fit, refine in zip(levels, tables, fits, maps):
            part = fit(rows[j:j + _SPLINE_BLOCK])
            if refine is not None:
                part = refine @ part
            part *= weight
            c[:, j:j + _SPLINE_BLOCK] += part
    return RowSpline(tau, c.reshape(len(tau) - 4, *lead))


class KernelEvaluator:
    """Kernel evaluation bound to one operator, with its series table."""

    def __init__(self, spec: OperatorSpec):
        self.spec = spec
        self._build_series_table()

    # -- series table -------------------------------------------------------

    def _left_grid(self) -> np.ndarray:
        a, b = self.spec.a, self.spec.b
        span = 10.0 if math.isinf(b) else (b - a) * 0.9
        offs = np.geomspace(span * 1e-14, span, _SERIES_POINTS)
        xs = a + offs
        # clip points where the coefficients are not representable
        with np.errstate(all="ignore"):
            pv = self.spec.p(xs)
            rv = self.spec.r(xs)
            inv_p = 1.0 / pv
        ok = (pv > 0) & (rv > 0) & np.isfinite(inv_p) & np.isfinite(rv) & (inv_p < 1e15)
        return xs[ok]

    def _build_series_table(self) -> None:
        a = self.spec.a
        if math.isinf(a):
            # left-infinite domains: start grid from far left, measure decay
            xs = np.linspace(-50.0, 10.0, _SERIES_POINTS)
            with np.errstate(all="ignore"):
                rv = self.spec.r(xs)
                pv = self.spec.p(xs)
            ok = (pv > 0) & (rv > 0) & np.isfinite(1.0 / pv)
            xs = xs[ok]
        else:
            xs = self._left_grid()
        if xs.size < 64:
            raise ValueError(f"{self.spec.name}: cannot build series grid near a")
        pv = self.spec.p(xs)
        rv = self.spec.r(xs)
        increments = _spline_increments(xs)

        def cumint(f):
            return np.concatenate([[0.0], np.cumsum(increments(f))])

        # s(x) = -int_x^{table end} dx/p: suffix sums keep s accurate at
        # moderate x even when 1/p is astronomically large near a (a plain
        # cumulative integral would cancel ~16 digits there)
        inc_p = increments(1.0 / pv)
        s = -np.concatenate([np.cumsum(inc_p[::-1])[::-1], [0.0]])

        eta1 = s * cumint(rv) - cumint(s * rv)
        # the series is only ever summed where S(x)|lambda| <= 1, so the
        # table can stop once the majorant S = eta_1 passes a small cap
        ncut = int(np.searchsorted(eta1, 4.0))
        if 64 < ncut < len(xs):
            xs, pv, rv, s = xs[:ncut], pv[:ncut], rv[:ncut], s[:ncut]
            increments = _spline_increments(xs)

        # the (2, J+1, n) table of eta_j and zeta_j = int_a^x eta_j r
        table = np.empty((2, _MAX_TERMS + 1, len(xs)))
        etas, zetas = table
        etas[0] = 1.0
        for j in range(_MAX_TERMS):
            f = etas[j] * rv
            zetas[j] = cumint(f)
            etas[j + 1] = s * zetas[j] - cumint(s * f)
        zetas[-1] = cumint(etas[-1] * rv)

        self._xs = xs
        # one spline over the whole table
        self._terms = _row_spline((xs, table, 1.0))
        # S(x): the majorant with |eta_j| <= S^j / j!
        self._S = np.abs(etas[1])

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
        log_rho = math.log(max(rho, 1e-300))
        J = next((j for j in range(1, _MAX_TERMS + 1)
                  if j * log_rho - math.lgamma(j + 1) < math.log(1e-16)),
                 _MAX_TERMS + 1)
        tau = float(S.max()) or 1.0
        powers = np.arange(J)
        coef = (-lams[:, None] * tau) ** powers
        eta, zeta = self._terms(x)[:, :J] * tau ** -powers[:, None]
        w = coef @ eta
        w1 = -lams[:, None] * (coef @ zeta)
        lS = np.abs(lams)[:, None] * S
        log_bound = J * np.log(np.maximum(lS, 1e-300)) - math.lgamma(J + 1)
        return w, w1, np.exp(np.minimum(log_bound, 700.0))

    def _handoff_index(self, lams: np.ndarray) -> np.ndarray:
        """Largest table index with S(x)|lambda| <= 1, for each lambda."""
        mag = np.maximum(np.abs(lams), 1e-30)
        idx = np.searchsorted(self._S, 1.0 / mag) - 1
        return np.clip(idx, 8, len(self._xs) - 1)

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
        nodes.

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

