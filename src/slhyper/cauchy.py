"""Spectral solution of the hyperbolic problem l_x f = l_y f with initial
data on the boundary, shifted-boundary approximations, the characteristic
triangle integral identity, and positivity reporting.  The identity's
coefficient tables come from one array inverse of gamma, and every one of
its terms from one (n+1) x (n+1) trapezoid block, on which the test
function and its derivatives are evaluated once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import sqrt_ratio
from .operator import MpCertificate
from .spectral import (GridFunction, SpectralMeasure, _checked_grid,
                       forward_transform)

__all__ = [
    "CauchySolution",
    "TriangleIdentityReport",
    "solve_cauchy",
    "solve_cauchy_shifted",
    "triangle_identity_residual",
    "positivity_report",
]


# ---------------------------------------------------------------------------
# solutions


class CauchySolution:
    """f(x, y) at the nodes of the grid xs x ys, values[i, j] at
    (xs[i], ys[j]), with the initial profile on the lower edge."""

    def __init__(self, h: GridFunction, xs: np.ndarray, ys: np.ndarray,
                 values: np.ndarray, sm: SpectralMeasure):
        self.h = h
        self.xs = xs
        self.ys = ys
        self.values = values
        self.sm = sm

    def pde_residual(self) -> np.ndarray:
        """l_x f - l_y f on the interior nodes, by centered differences.

        This is a report of consistency between the spectral solution and
        the differential equation at the grid resolution; it is not used in
        the construction.
        """
        spec = self.sm.spec
        xs, ys, f = self.xs, self.ys, self.values

        def ell(grid, vals, axis):
            # -(p u')' / r along one axis
            du = np.gradient(vals, grid, axis=axis)
            with np.errstate(all="ignore"):
                pv = spec.p(grid)
                rv = spec.r(grid)
            shape = [1, 1]
            shape[axis] = len(grid)
            flux = du * pv.reshape(shape)
            return -np.gradient(flux, grid, axis=axis) / rv.reshape(shape)

        res = ell(xs, f, 0) - ell(ys, f, 1)
        return res[2:-2, 2:-2]


def _checked_problem(h: GridFunction, xs, ys):
    """The solution grids xs and ys (xs when None), checked, and ValueError
    unless the initial data h is flagged smooth2 and compact_support."""
    xs = _checked_grid(xs, "solution grid")
    ys = xs if ys is None else _checked_grid(ys, "solution grid")
    if not (h.smooth2 and h.compact_support):
        raise ValueError("initial data must be flagged smooth2 and "
                         "compact_support")
    return xs, ys


def solve_cauchy(h: GridFunction, sm: SpectralMeasure, xs,
                 ys=None) -> CauchySolution:
    xs, ys = _checked_problem(h, xs, ys)
    fh = sm.basis(h.grid).forward(h.values)
    vals = sm.synthesize(fh[:, None] * sm.basis(xs).W, ys)
    return CauchySolution(h, xs, ys, vals, sm)


def solve_cauchy_shifted(h: GridFunction, a_m: float, sm: SpectralMeasure,
                         xs, ys=None) -> CauchySolution:
    """Same spectral sum with the y-kernel replaced by the solution
    normalized at the shifted origin a_m; eval_w_shifted checks a_m and ys."""
    xs, ys = _checked_problem(h, xs, ys)
    tbl = forward_transform(h, sm)
    weights = np.abs(tbl.values) * sm.masses
    keep = weights >= 1e-14 * max(weights.max(), 1e-300)
    wy = np.zeros((len(sm), len(ys)))
    wy[keep] = sm.evaluator.eval_w_shifted(sm.lambdas[keep], a_m, ys)[0].real
    coef = sm.masses * np.where(keep, tbl.values, 0.0)
    vals = (sm.w_values(xs) * coef[:, None]).T @ wy
    return CauchySolution(h, xs, ys, vals, sm)


# ---------------------------------------------------------------------------
# triangle identity


@dataclass(frozen=True)
class TriangleIdentityReport:
    c: float
    x: float
    y: float
    n: int
    H: float
    I0: float
    I1: float
    I2: float
    I3: float
    I4: float
    lhs: float
    residual: float


def _checked_panels(n) -> None:
    """ValueError unless the identity's panel count n is an integer >= 1."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer of at least 1, not {n!r}")


def triangle_identity_residual(v, c: float, x: float, y: float,
                               cert: MpCertificate,
                               n: int = 200) -> TriangleIdentityReport:
    """Residual of the characteristic-triangle identity for a C^2 function
    v(xi, zeta) given in standard coordinates, which takes broadcasting
    arrays, as do its derivatives (centred differences when v has none).

    v, its derivatives, A_B, phi and psi are evaluated once each on the
    (n+1) x (n+1) volume block, and every term reads them by index: row 0
    is the base zeta = c (I0 and the corners of H), columns 0 and n are
    the sides (I1, I2), and row n is the apex (x, y) (lhs).  All
    quadratures are composite trapezoid with n panels, so the residual
    decreases at a predictable rate under refinement; at y = c the block
    shrinks to the apex and I0 to I4 vanish.  The volume term I4 vanishes
    for exact solutions of the transformed equation; for spectral
    solutions it reports their PDE defect.
    """
    if not cert.all_ok:
        raise ValueError("MP certificate required")
    sf = cert.sf
    # gamma(a) is -inf where gamma is unbounded below
    if not (sf.gamma_a < c <= y <= x):
        raise ValueError("need gamma(a) < c <= y <= x")
    _checked_panels(n)
    h_fd = max((x + y - 2 * c), 1.0) / (8 * n)

    # dense tables for A_B, phi, psi over every argument the terms touch;
    # B is the cumulative trapezoid of eta/2 anchored at c
    lo = max(c - 4 * h_fd, (sf.gamma_a + c) / 2)
    hi = max(x + y, x + y - c) + 4 * h_fd
    dense = np.linspace(lo, hi, 8 * n + 1)
    x_d = sf.gamma_inv(dense)
    eta_d = cert.eta(dense)
    log_b = 0.5 * np.concatenate(
        [[0.0], np.cumsum((eta_d[1:] + eta_d[:-1]) / 2 * np.diff(dense))])
    log_b -= np.interp(c, dense, log_b)
    # log A_B = log sqrt(p r) - 2 log B is interpolated, then
    # exponentiated: exact where A_B grows or decays exponentially, where
    # interpolating A_B itself measures the table, not the identity
    log_ab_d = (sqrt_ratio([sf.spec.p, sf.spec.r], x=x_d, log=True)
                - 2.0 * log_b)
    phi_d, psi_d = sf.mp_coefficients(cert.eta, x_d, dense)

    # row i of the volume block spans [x - y + z_i, x + y - z_i] at zeta = z_i
    sy = np.linspace(c, y, n + 1)
    z = sy[:, None]
    xi_b = np.linspace(x - y + sy, x + y - sy, n + 1, axis=1)
    (ab_x, phi_x, psi_x), (ab_z, phi_z, psi_z) = (
        (np.exp(np.interp(s, dense, log_ab_d)), np.interp(s, dense, phi_d),
         np.interp(s, dense, psi_d)) for s in (xi_b, z))
    if hasattr(v, "d_zeta"):
        fs = [f(xi_b, z) for f in (v, v.d_zeta, v.d_xi, v.dd_zeta, v.dd_xi)]
    else:
        f0, zp, zm, xp, xm = (
            np.asarray(v(xi_b + dxi, z + dzeta), dtype=float)
            for dxi, dzeta in ((0.0, 0.0), (0.0, h_fd), (0.0, -h_fd),
                               (h_fd, 0.0), (-h_fd, 0.0)))
        fs = [f0, (zp - zm) / (2 * h_fd), (xp - xm) / (2 * h_fd),
              (zp - 2 * f0 + zm) / h_fd ** 2, (xp - 2 * f0 + xm) / h_fd ** 2]
    vals, d_zeta, d_xi, dd_zeta, dd_xi = (
        np.broadcast_to(np.asarray(f, dtype=float), xi_b.shape) for f in fs)

    A_c = ab_z[0, 0]
    H = 0.5 * A_c * (ab_x[0, 0] * vals[0, 0] + ab_x[0, n] * vals[0, n])
    I0 = 0.5 * A_c * np.trapezoid(ab_x[0] * d_zeta[0], xi_b[0])
    I1 = 0.5 * np.trapezoid(ab_z[:, 0] * ab_x[:, 0]
                            * (phi_z[:, 0] + phi_x[:, 0]) * vals[:, 0], sy)
    I2 = 0.5 * np.trapezoid(ab_z[:, 0] * ab_x[:, n]
                            * (phi_z[:, 0] - phi_x[:, n]) * vals[:, n], sy)

    def volume(f):
        rows = np.trapezoid(ab_x * ab_z * f, xi_b, axis=1)
        return 0.5 * np.trapezoid(rows, sy)

    psi_v = (psi_z - psi_x) * vals
    I3 = volume(psi_v)
    # (l^B_zeta - l^B_xi) v
    I4 = volume(-(dd_zeta - dd_xi) - phi_z * d_zeta + phi_x * d_xi + psi_v)
    lhs = ab_x[n, 0] * ab_z[n, 0] * vals[n, 0]
    residual = abs(lhs - (H + I0 + I1 + I2 + I3 - I4))
    return TriangleIdentityReport(
        c=c, x=x, y=y, n=n, H=float(H), I0=float(I0), I1=float(I1),
        I2=float(I2), I3=float(I3), I4=float(I4), lhs=float(lhs),
        residual=float(residual))


# ---------------------------------------------------------------------------
# positivity


def positivity_report(sol: CauchySolution, strict: bool = False) -> dict:
    if np.any(np.asarray(sol.h.values) < 0):
        raise ValueError("initial data must be nonnegative")
    out = {"min_value": float(np.min(sol.values))}
    if strict:
        out["strict_positive_fraction"] = float(
            np.mean(sol.values > 1e-10))
    return out
