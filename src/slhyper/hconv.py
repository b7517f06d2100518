"""Generalized translation and convolution attached to the operator.

The regularized product kernel

    q_t(x, y, xi) = sum_k m_k e^{-t lam_k} w_k(x) w_k(y) w_k(xi)

is a probability density in xi (mass one against r), and as t decreases it
concentrates on the convolution support of the point pair (x, y).  All
convolution-level objects here are built from it or from the transform-domain
product, which is exact on the measure's atoms: the inverse transform of a
product of transforms (``SpectralMeasure.synthesize``, handed the bases of
the input grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (GridFunction, SpectralMeasure, _checked_grid,
                       _positive_time, _r_weights)

__all__ = [
    "ProductKernel",
    "MeasureApprox",
    "MeasureConvolution",
    "product_density",
    "product_formula_residual",
    "approx_nu",
    "translate",
    "convolve_functions",
    "convolve_measures",
    "DEFAULT_T_SCHEDULE",
]

DEFAULT_T_SCHEDULE = (0.1, 0.03, 0.01, 0.003, 0.001)


# ---------------------------------------------------------------------------
# product kernel


@dataclass(frozen=True)
class ProductKernel:
    """q_t(x, y, .) on xi, with its mass and the weights rw of int . r dxi
    on xi that the mass was summed with."""
    t: float
    x: float
    y: float
    xi: np.ndarray
    values: np.ndarray
    mass: float
    rw: np.ndarray


def default_xi_grid(sm: SpectralMeasure, t: float, x: float, y: float,
                    n: int = 3001) -> np.ndarray:
    """Grid covering the region where q_t is non-negligible."""
    lo = sm._a_eff
    hi = min(sm.L, x + y + 8.0 * math.sqrt(t) + 2.0)
    hi = max(hi, lo + 1.0)
    return np.linspace(lo, hi, n)


def product_density(t: float, x: float, y: float, xi_grid,
                    sm: SpectralMeasure) -> ProductKernel:
    """q_t(x, y, .) on xi_grid, with its mass int q_t r dxi by the grid's
    trapezoid weights.  The sum over atoms is one sm.synthesize.  xi_grid
    is checked by _checked_grid."""
    t = _positive_time(t)
    xi = _checked_grid(xi_grid, "xi grid")
    wxy = sm.w_values([x, y])
    vals = sm.synthesize(np.exp(-t * sm.lambdas) * wxy[:, 0] * wxy[:, 1], xi)
    rw = _r_weights(sm.spec, xi)
    return ProductKernel(t=t, x=x, y=y, xi=xi, values=vals,
                         mass=float(np.sum(vals * rw)), rw=rw)


def product_formula_residual(lam: float, t: float, x: float, y: float,
                             sm: SpectralMeasure, xi_grid=None) -> float:
    """|e^{-t lam} w(x) w(y) - int w(xi) q_t(x,y,xi) r dxi|.

    The left side uses the high-accuracy kernel solver, so the residual
    measures the quality of the discretized measure, not of the identity.
    """
    t = _positive_time(t)
    if xi_grid is None:
        xi_grid = default_xi_grid(sm, t, x, y)
    pk = product_density(t, x, y, xi_grid, sm)
    # one solve for the xi grid and both points
    w = sm.evaluator.eval_grid(lam, np.concatenate([pk.xi, [x, y]]))[0].real
    rhs = float(np.sum(w[:-2] * pk.values * pk.rw))
    return abs(math.exp(-t * lam) * w[-2] * w[-1] - rhs)


# ---------------------------------------------------------------------------
# weak limit nu_{x,y}


@dataclass(frozen=True)
class MeasureApprox:
    density: GridFunction | None
    atoms: tuple | None
    moment_lambdas: np.ndarray
    moments: np.ndarray          # (len(schedule), len(probe lambdas))
    cauchy_gaps: np.ndarray
    mass: float


def _probe_atoms(sm: SpectralMeasure) -> list[int]:
    """Indices of the atoms whose moments approx_nu follows."""
    targets = (0.05, 0.1, 0.2, 0.4)
    return sorted({int(np.argmin(np.abs(sm.lambdas - g))) for g in targets})


def approx_nu(x: float, y: float, sm: SpectralMeasure,
              t_schedule=DEFAULT_T_SCHEDULE, xi_grid=None) -> MeasureApprox:
    ts = [_positive_time(t, "t_schedule") for t in t_schedule]
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_schedule must be strictly decreasing")
    idx = _probe_atoms(sm)
    probe_lambdas = sm.lambdas[idx]
    a = sm.spec.a
    if x == a or y == a:
        atom = y if x == a else x
        mom = sm.w_values(atom)[idx, 0][None]
        return MeasureApprox(density=None, atoms=((atom, 1.0),),
                             moment_lambdas=probe_lambdas, moments=mom,
                             cauchy_gaps=np.zeros(0), mass=1.0)
    if xi_grid is None:
        xi_grid = default_xi_grid(sm, max(ts), x, y, n=6001)
    xi = _checked_grid(xi_grid, "xi grid")
    W_probe = sm.evaluator.eval_many(probe_lambdas, xi)[0].real
    moments = np.empty((len(ts), len(probe_lambdas)))
    last = None
    for i, t in enumerate(ts):
        pk = product_density(t, x, y, xi, sm)
        moments[i] = W_probe @ (pk.values * pk.rw)
        last = pk
    gaps = np.max(np.abs(np.diff(moments, axis=0)), axis=1)
    density = GridFunction(last.xi, last.values)
    return MeasureApprox(density=density, atoms=None,
                         moment_lambdas=probe_lambdas, moments=moments,
                         cauchy_gaps=gaps, mass=last.mass)


# ---------------------------------------------------------------------------
# translation and convolution


def translate(h: GridFunction, y: float, sm: SpectralMeasure,
              t_reg: float, out_grid=None) -> GridFunction:
    """(T^y h)(x) = int h d(delta_x * delta_y), regularized through q_t:
    the convolution h * delta_y of the heat-smoothed profile, with transform
    e^{-t_reg lam} (Fh)(lam) w_lam(y), for t_reg > 0.  T^a h is h itself."""
    t_reg = _positive_time(t_reg, "t_reg")
    out_grid = h.grid if out_grid is None else np.asarray(out_grid, dtype=float)
    if y == sm.spec.a:
        return GridFunction(out_grid, h(out_grid))
    bh = sm.basis(h.grid)
    coef = (np.exp(-t_reg * sm.lambdas) * bh.forward(h.values)
            * sm.w_values(y)[:, 0])
    return GridFunction(out_grid, sm.synthesize(coef, out_grid, bh))


def convolve_functions(h: GridFunction, g: GridFunction, sm: SpectralMeasure,
                       t_reg: float, out_grid=None) -> GridFunction:
    """(h * g)(x) = int (T^y h)(x) g(y) r(y) dy; evaluated through the
    transform product, which is the same quadrature reordered and is
    symmetric in (h, g) by construction."""
    t_reg = _positive_time(t_reg, "t_reg")
    out_grid = h.grid if out_grid is None else out_grid
    bh = sm.basis(h.grid)
    bg = sm.basis(g.grid, bh)
    coef = (np.exp(-t_reg * sm.lambdas) * bh.forward(h.values)
            * bg.forward(g.values))
    return GridFunction(out_grid, sm.synthesize(coef, out_grid, bh, bg))


@dataclass(frozen=True)
class MeasureConvolution:
    lambdas: np.ndarray
    mu_hat: np.ndarray
    nu_hat: np.ndarray
    product: np.ndarray
    density: GridFunction | None


def _measure_hat(atoms, sm: SpectralMeasure) -> np.ndarray:
    xs = np.array([pos for pos, _ in atoms], dtype=float)
    wts = np.array([wt for _, wt in atoms], dtype=float)
    return sm.w_values(xs) @ wts


def convolve_measures(mu, nu, sm: SpectralMeasure,
                      t_reg: float = 0.0) -> MeasureConvolution:
    """mu, nu: finite atom lists [(position, weight), ...].  The transform
    product is the exact contract; a q_t density realization is attached
    when t_reg > 0, and none when t_reg = 0; any other t_reg, NaN included,
    is a ValueError.  By linearity that density is sum_ij mu_i nu_j
    q_t(x_i, y_j, .), the inverse transform of e^{-t lam} mu_hat nu_hat.
    An empty list is the zero measure, and the density is then zero."""
    mu_hat = _measure_hat(mu, sm)
    nu_hat = _measure_hat(nu, sm)
    product = mu_hat * nu_hat
    density = None
    if t_reg != 0:
        t_reg = _positive_time(t_reg, "t_reg")
        hi = sum(max((pos for pos, _ in atoms), default=sm._a_eff)
                 for atoms in (mu, nu))
        grid = default_xi_grid(sm, t_reg, hi / 2, hi / 2)
        density = GridFunction(grid, sm.synthesize(
            np.exp(-t_reg * sm.lambdas) * product, grid))
    return MeasureConvolution(lambdas=sm.lambdas.copy(), mu_hat=mu_hat,
                              nu_hat=nu_hat, product=product, density=density)
