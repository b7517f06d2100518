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
The ODE part is one DOP853 solve of the stacked state of every lambda that
needs it, started at the earliest of their hand-off points, with the
tolerances tightened so that each lambda is held to its single-lambda
error criterion.  A single lambda is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import BSpline, make_interp_spline
from scipy.linalg import get_lapack_funcs

from .operator import OperatorSpec

__all__ = ["KernelValue", "KernelEvaluator", "KappaShiftedOperator"]

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


# rows fitted per make_interp_spline call in _row_spline
_SPLINE_BLOCK = 32


def _row_spline(xs: np.ndarray, Y: np.ndarray) -> BSpline:
    """Not-a-knot cubic spline through every row of Y over xs, as one
    vector-valued BSpline along Y's last axis.

    make_interp_spline holds three full-size copies of its right-hand side
    while it solves: the C-ordered table, LAPACK's Fortran copy and the
    contiguous result, 30 MB for 200 eigenfunctions on 6144 nodes.  Fitted
    a block of rows at a time, the coefficients are the same, bit for bit,
    and the temporaries stay one block's size.  Large temporaries leave
    holes in the heap that later large arrays may or may not fit, which
    would make the peak memory of a process that builds several measures
    depend on its heap layout, not on its work.
    """
    rows = Y.reshape(-1, Y.shape[-1])
    c = None
    for j in range(0, max(len(rows), 1), _SPLINE_BLOCK):
        part = make_interp_spline(xs, rows[j:j + _SPLINE_BLOCK], k=3, axis=1)
        if c is None:
            c = np.empty((part.c.shape[0], len(rows)))
        c[:, j:j + _SPLINE_BLOCK] = part.c
    return BSpline.construct_fast(part.t, c.reshape(c.shape[0], *Y.shape[:-1]),
                                  3, axis=Y.ndim - 1)


@dataclass(frozen=True)
class KernelValue:
    lam: complex
    x: float
    w: complex
    w1: complex
    est_error: float


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
        self._terms = _row_spline(xs, table)
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
        sol = solve_ivp(fun, (x0, float(targets[-1])), y_init, t_eval=targets,
                        method="DOP853", rtol=_RTOL * scale,
                        atol=_ATOL * scale)
        if not sol.success:
            raise RuntimeError(f"kernel ODE integration failed: {sol.message}")
        y = sol.y[:, where]
        z = y[0::2] + 1j * y[1::2] if paired else y.astype(complex)
        return z[:K], z[K:]

    def eval_w(self, lam: complex, x: float) -> KernelValue:
        w, w1, err = self.eval_grid(lam, [float(x)])
        return KernelValue(lam=complex(lam), x=float(x), w=complex(w[0]),
                           w1=complex(w1[0]), est_error=err)

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


# ---------------------------------------------------------------------------
# kappa modification


class KappaShiftedOperator:
    """The modified operator with p<k> = w_k^2 p, r<k> = w_k^2 r.

    Its kernel functions satisfy w<k>_lam = w_{k+lam} / w_k.
    """

    def __init__(self, base: KernelEvaluator, kappa: float, sigma2: float):
        if kappa > sigma2 + 1e-12:
            raise ValueError(f"kappa={kappa} exceeds sigma^2={sigma2}")
        self.base = base
        self.kappa = float(kappa)
        self.sigma2 = float(sigma2)

    def eval_w(self, lam: complex, xs) -> np.ndarray:
        W, _, _ = self.base.eval_many([self.kappa, self.kappa + lam], xs)
        return W[1] / W[0]
