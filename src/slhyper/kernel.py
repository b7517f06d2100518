"""Evaluation of the kernel functions w_lambda.

w_lambda solves -(1/r)(p w')' = lambda w on (a,b) with w -> 1 and
p w' -> 0 at the left endpoint.  Near a, where the problem may be
singular, w is computed from the iterated-integral series

    w = sum_j (-lambda)^j eta_j,     eta_0 = 1,
    eta_j(x) = int_a^x (s(x) - s(xi)) eta_{j-1}(xi) r(xi) dxi,

with s' = 1/p.  The series terms are lambda-independent, so they are
tabulated once per operator; evaluation further out continues by
integrating the first-order system w' = w1/p, w1' = -lambda r w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, make_interp_spline

from .operator import OperatorSpec

__all__ = ["KernelValue", "KernelEvaluator", "KappaShiftedOperator"]

_SERIES_POINTS = 4000
_MAX_TERMS = 60


@dataclass(frozen=True)
class KernelValue:
    lam: complex
    x: float
    w: complex
    w1: complex
    est_error: float


class KernelEvaluator:
    """Kernel evaluation bound to one operator, with its series table."""

    def __init__(self, spec: OperatorSpec, rtol: float = 1e-11, atol: float = 1e-13):
        self.spec = spec
        self.rtol = rtol
        self.atol = atol
        self._build_series_table()

    # -- series table -------------------------------------------------------

    def _left_grid(self) -> np.ndarray:
        a, b = self.spec.a, self.spec.b
        span = 10.0 if math.isinf(b) else (b - a) * 0.9
        if math.isinf(a):
            return a  # handled separately
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

        def increments(f):
            # per-interval integrals of the cubic interpolant; computed from
            # the local polynomial pieces so no large antiderivative constant
            # ever enters the arithmetic
            spl = CubicSpline(xs, f)
            h = np.diff(xs)
            inc = np.zeros_like(h)
            for m in range(4):
                inc += spl.c[m] * h ** (4 - m) / (4 - m)
            return inc

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

        etas = [np.ones_like(xs)]
        zetas = []  # zeta_j = int_a^x eta_j r
        for _ in range(_MAX_TERMS):
            f = etas[-1] * rv
            c1 = cumint(f)
            zetas.append(c1)
            etas.append(s * c1 - cumint(s * f))
        zetas.append(cumint(etas[-1] * rv))

        self._xs = xs
        # one spline over the (2, J+1, n) table of eta_j and zeta_j
        self._terms = make_interp_spline(xs, np.array([etas, zetas]), k=3,
                                         axis=2)
        # S(x): the majorant with |eta_j| <= S^j / j!
        self._S = np.abs(etas[1])

    def _series_at(self, lam: complex, x: float) -> tuple[complex, complex, float]:
        """Series value of (w, w1) at one in-table point, plus truncation bound."""
        S = float(np.interp(x, self._xs, self._S))
        lS = abs(lam) * S

        w = 0.0 + 0.0j
        wint = 0.0 + 0.0j   # int_a^x w r = sum (-lam)^j zeta_j
        coef = 1.0 + 0.0j
        trunc = 0.0
        etas, zetas = self._terms(x)
        for j in range(len(etas)):
            w += coef * etas[j]
            wint += coef * zetas[j]
            coef *= -lam
            # |next term| <= (|lam| S)^{j+1} / (j+1)!  (computed in logs)
            log_bound = (j + 1) * math.log(max(lS, 1e-300)) - math.lgamma(j + 2)
            trunc = math.exp(min(log_bound, 700.0))
            if trunc < 1e-16 * max(abs(w), 1.0):
                break
        return w, -lam * wint, trunc

    def _handoff_index(self, lam: complex) -> int:
        """Largest table index with S(x)|lambda| <= 1."""
        mag = max(abs(lam), 1e-30)
        idx = np.searchsorted(self._S, 1.0 / mag) - 1
        return int(min(max(idx, 8), len(self._xs) - 1))

    # -- public evaluation ---------------------------------------------------

    def eval_grid(self, lam: complex, xs) -> tuple[np.ndarray, np.ndarray, float]:
        """(w, w1) at a sorted array of points; one ODE solve per lambda."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if np.any(np.diff(xs) < 0):
            raise ValueError("evaluation grid must be sorted")
        a, b = self.spec.a, self.spec.b
        if xs.size and (xs[0] < a or xs[-1] >= b):
            raise ValueError(f"point outside domain [{a},{b})")
        w = np.empty(xs.shape, dtype=complex)
        w1 = np.empty(xs.shape, dtype=complex)
        if lam == 0:
            return np.ones_like(w), np.zeros_like(w1), 0.0

        ih = self._handoff_index(lam)
        x_h = self._xs[ih]
        inside = xs <= x_h
        err = 0.0
        for i in np.where(inside)[0]:
            if xs[i] <= self._xs[0]:
                w[i], w1[i] = 1.0, 0.0
                continue
            w[i], w1[i], tr = self._series_at(lam, xs[i])
            err = max(err, tr)

        outside = ~inside
        if np.any(outside):
            w0, w10, tr = self._series_at(lam, x_h)
            err = max(err, tr)
            targets = xs[outside]
            vals = self._integrate(lam, x_h, (w0, w10), targets)
            w[outside] = vals[0]
            w1[outside] = vals[1]
            err += self.rtol * max(1.0, float(np.max(np.abs(vals[0]))))
        return w, w1, err

    def _integrate(self, lam, x0, y0, targets):
        p, r = self.spec.p, self.spec.r
        lre, lim_ = complex(lam).real, complex(lam).imag

        def fun(x, y):
            wr, wi, v1r, v1i = y
            px = p(x)
            rx = r(x)
            # w' = w1/p ; w1' = -lam r w  (split into real/imaginary parts)
            return [v1r / px, v1i / px,
                    -rx * (lre * wr - lim_ * wi), -rx * (lre * wi + lim_ * wr)]

        y_init = [complex(y0[0]).real, complex(y0[0]).imag,
                  complex(y0[1]).real, complex(y0[1]).imag]
        sol = solve_ivp(fun, (x0, float(targets[-1])), y_init, t_eval=targets,
                        method="DOP853", rtol=self.rtol, atol=self.atol,
                        dense_output=False, max_step=np.inf)
        if not sol.success:
            raise RuntimeError(f"kernel ODE integration failed: {sol.message}")
        wv = sol.y[0] + 1j * sol.y[1]
        w1v = sol.y[2] + 1j * sol.y[3]
        return wv, w1v

    def eval_w(self, lam: complex, x: float) -> KernelValue:
        w, w1, err = self.eval_grid(lam, [float(x)])
        return KernelValue(lam=complex(lam), x=float(x), w=complex(w[0]),
                           w1=complex(w1[0]), est_error=err)

    def eval_w_shifted(self, lam: complex, a_m: float, xs) -> tuple[np.ndarray, np.ndarray]:
        """Solution with w(a_m)=1, (p w')(a_m)=0 at a regular interior point."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if not (self.spec.a < a_m):
            raise ValueError("a_m must lie inside (a,b)")
        if xs.size and xs[0] <= a_m:
            raise ValueError("shifted evaluation needs x > a_m")
        if lam == 0:
            return np.ones(xs.shape, dtype=complex), np.zeros(xs.shape, dtype=complex)
        return self._integrate(complex(lam), a_m, (1.0, 0.0), xs)[:2]


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
        wk, _, _ = self.base.eval_grid(self.kappa, xs)
        ws, _, _ = self.base.eval_grid(self.kappa + lam, xs)
        return ws / wk

    def shift_measure_atoms(self, lambdas: np.ndarray) -> np.ndarray:
        """Spectral atoms of the modified operator: rho<k>(l1,l2] = rho(l1+k, l2+k]."""
        return np.asarray(lambdas, dtype=float) - self.kappa

