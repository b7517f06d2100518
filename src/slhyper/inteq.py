"""Solvability analysis and solution of convolution integral equations.

Equations of the second kind

    rho h(x) + (h * f)(x) = psi(x)

diagonalize under the eigenfunction transform: (Fh)(rho + (Ff)) = (Fpsi).
A solution in the weighted class L_{1,kappa} exists precisely when
rho + (Ff)(lambda) stays away from zero on the spectral strip Pi_kappa,
and then the resolvent kernel g with 1/(rho + Ff) = rho + Fg turns the
equation into the explicit formula h = rho psi + psi * g.

Nonvanishing is checked by sampling: the real ray, the strip boundary
curve and its conjugate, plus a tail estimate standing in for the point
at infinity.  On the real ray the transform is exact at the measure's
atoms only; between atoms the check takes the linear interpolation of the
atom values, not transform samples.  This is a practical surrogate for
the full strip (the transform is holomorphic inside, so boundary
behaviour is what matters), not a proof.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import (Basis, GridFunction, SpectralMeasure, TransformTable,
                       _r_weights, heat_kernel_grid)

__all__ = [
    "SpectralStrip",
    "EquationProblem",
    "EquationSolution",
    "StripCheck",
    "ResolventResult",
    "l1_kappa_norm",
    "wiener_levy_check",
    "solve_equation",
    "solve_qt_equation",
]

# bisection steps that locate a sign change of Re(rho + Ff) on the real ray
_BISECT_STEPS = 48
# heat regularization time of the convolution psi * g in solve_equation
_T_REG = 1e-6


# ---------------------------------------------------------------------------
# the strip Pi_kappa


@dataclass(frozen=True)
class SpectralStrip:
    """Pi_kappa = {lambda : |Im sqrt(lambda - sigma2)| <= Im sqrt(kappa - sigma2)}.

    For kappa = sigma2 the strip collapses to the real ray [sigma2, inf).
    Membership is symmetric under conjugation since Im Delta flips sign.
    """

    kappa: float
    sigma2: float

    def __post_init__(self):
        if self.kappa > self.sigma2 + 1e-12:
            raise ValueError("kappa must not exceed sigma2")

    @property
    def half_width(self) -> float:
        """Im Delta_kappa = sqrt(sigma2 - kappa)."""
        return math.sqrt(max(self.sigma2 - self.kappa, 0.0))

    def delta(self, lam: complex) -> complex:
        """Delta_lambda = sqrt(lambda - sigma2), principal branch."""
        return cmath.sqrt(complex(lam) - self.sigma2)

    def contains(self, lam: complex) -> bool:
        return abs(self.delta(lam).imag) <= self.half_width + 1e-12

    def boundary(self, tau) -> np.ndarray:
        """Boundary curve lambda(tau) = (tau + i ImDelta_kappa)^2 + sigma2."""
        tau = np.asarray(tau, dtype=float)
        return (tau + 1j * self.half_width) ** 2 + self.sigma2


# ---------------------------------------------------------------------------
# weighted L1 norms


def l1_kappa_norm(h: GridFunction, kappa: float, sm: SpectralMeasure) -> float:
    """Quadrature of |h| w_kappa r over the grid of h.

    The weight w_kappa grows when kappa < 0, so the integrand may fail to
    decay even for decaying h; a tail whose window contributions stop
    shrinking is reported as divergent rather than silently truncated.
    """
    SpectralStrip(kappa, sm.sigma2)  # kappa <= sigma2, or ValueError
    wk, _, _ = sm.evaluator.eval_grid(complex(kappa), h.grid)
    contrib = np.abs(h.values) * np.abs(wk) * _r_weights(sm.spec, h.grid)
    total = float(np.sum(contrib))
    # partial-integral growth test on the trailing half of the grid
    n = len(contrib)
    if n >= 32:
        windows = np.array_split(contrib[n // 2:], 4)
        inc = np.array([float(np.sum(w)) for w in windows])
        if inc[-1] > 0.5 * max(inc[-2], 1e-300) and inc[-1] > 1e-6 * total:
            raise ValueError(
                f"L1,kappa norm appears divergent: trailing window contributions "
                f"{inc.tolist()} are not decaying")
    return total


# ---------------------------------------------------------------------------
# problem and solution containers


@dataclass(frozen=True)
class EquationProblem:
    """rho h + h * f = psi, posed in L_{1,kappa}."""

    f: GridFunction
    psi: GridFunction
    kappa: float
    rho: complex = 1.0


@dataclass(frozen=True)
class EquationSolution:
    h: GridFunction
    g: GridFunction
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StripCheck:
    ok: bool
    min_modulus: float
    witness: complex
    tail_modulus: float
    n_samples: int


@dataclass(frozen=True)
class ResolventResult:
    g: GridFunction
    fg: TransformTable
    round_trip_residual: float
    forward_recheck: float


# ---------------------------------------------------------------------------
# transform sampling off the atoms


def _transform_samples(f: GridFunction, lams, sm: SpectralMeasure) -> np.ndarray:
    """(Ff)(lambda) for arbitrary (possibly complex) lambda, from one
    batched kernel evaluation."""
    wgt = f.values * _r_weights(sm.spec, f.grid)
    W, _, _ = sm.evaluator.eval_many(lams, f.grid)
    return W @ wgt


def _refine_crossing(f: GridFunction, rho: complex, lo: float, hi: float,
                     v_lo: float, v_hi: float,
                     sm: SpectralMeasure) -> tuple[float, float]:
    """Bisect a sign change of Re(rho + Ff) on the real ray."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        v_mid = float((rho + _transform_samples(f, [mid], sm)[0]).real)
        if v_mid == 0.0:
            return mid, 0.0
        if (v_mid > 0) == (v_lo > 0):
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return 0.5 * (lo + hi), min(abs(v_lo), abs(v_hi))


def wiener_levy_check(f: GridFunction, strip: SpectralStrip, rho: complex,
                      sm: SpectralMeasure, n: int = 512) -> StripCheck:
    """Sample rho + (Ff)(lambda) over Pi_kappa and report the minimum modulus.

    Sampling covers the real ray [sigma2, lam_max], the strip boundary
    curve and its conjugate (skipped when the strip is degenerate and they
    coincide with the ray), and a tail estimate for lambda = infinity.  On
    the real ray, Ff is exact only at the measure's atoms; the uniform
    refinement up to n samples takes the linear interpolation of the atom
    values, not transform samples, so a dip of |rho + Ff| between two
    atoms that the atom values do not show is not seen.  When rho and the
    ray values are real, a sign change between ray samples is bisected with
    transform samples.  ok is never an error: a failed check carries the
    witness point.
    """
    return _strip_check(sm.basis(f.grid).forward(f.values), f, strip, rho,
                        sm, n)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending: np.unique's, without the
    numpy.ma import that np.unique makes when it returns no indices."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _strip_check(ff, f: GridFunction, strip: SpectralStrip, rho: complex,
                 sm: SpectralMeasure, n: int = 512) -> StripCheck:
    """wiener_levy_check from the atom transform ff of f."""
    lam_max = float(sm.lambdas[-1])
    # real ray: the atoms, filled uniformly up to n samples by linear
    # interpolation of the atom values
    ray = _distinct(np.concatenate(
        [sm.lambdas, np.linspace(strip.sigma2, lam_max,
                                 max(n - len(sm.lambdas), 2))]))
    ray_vals = rho + np.interp(ray, sm.lambdas, ff.real) \
        + 1j * np.interp(ray, sm.lambdas, ff.imag)
    mods = np.abs(ray_vals)
    k = int(np.argmin(mods))
    min_mod = float(mods[k])
    witness = complex(ray[k])
    tail = float(np.max(np.abs(ray_vals[-max(1, len(ray) // 20):] - rho)))
    total = len(ray)
    # a sign change of the real part between ray samples means rho + Ff
    # passes through (or very near) zero; locate it
    if abs(complex(rho).imag) < 1e-14 and np.max(np.abs(ray_vals.imag)) < 1e-10:
        re = ray_vals.real
        flips = np.nonzero(np.sign(re[:-1]) * np.sign(re[1:]) < 0)[0]
        for i in flips[:8]:
            lam_c, v_c = _refine_crossing(f, rho, float(ray[i]),
                                          float(ray[i + 1]),
                                          float(re[i]), float(re[i + 1]), sm)
            if abs(v_c) < min_mod:
                min_mod = abs(v_c)
                witness = complex(lam_c)
            total += _BISECT_STEPS
    if strip.half_width > 1e-14:
        tau = np.linspace(0.0, math.sqrt(max(lam_max - strip.sigma2, 0.0)), n)
        bd = strip.boundary(tau)
        for curve in (bd, np.conj(bd)):
            vals = rho + _transform_samples(f, curve, sm)
            cm = np.abs(vals)
            k = int(np.argmin(cm))
            if cm[k] < min_mod:
                min_mod = float(cm[k])
                witness = complex(curve[k])
            tail = max(tail, float(np.max(np.abs(
                vals[-max(1, len(curve) // 20):] - rho))))
            total += len(curve)
    # point at infinity: Ff decays along the strip, so the modulus there is
    # |rho| up to the observed tail level
    inf_mod = abs(complex(rho)) - tail
    if inf_mod < min_mod:
        min_mod = inf_mod
        witness = complex(np.inf)
    return StripCheck(ok=min_mod > 1e-8, min_modulus=min_mod,
                      witness=witness, tail_modulus=tail, n_samples=total)


# ---------------------------------------------------------------------------
# resolvent and solver


def _resolvent(ff, rho: complex, sm: SpectralMeasure,
               basis: Basis) -> tuple[ResolventResult, np.ndarray]:
    """The resolvent kernel g with 1/(rho + Ff) = rho + Fg on the measure's
    atoms, from the atom transform ff of f: the identity defines Fg
    exactly on the atoms, and g is its inverse transform on the grid of
    basis.  forward_recheck reports how well the quadrature transform of
    the realized g, returned beside the result, reproduces the defining
    table."""
    denom = rho + ff
    if np.min(np.abs(denom)) <= 1e-8:
        k = int(np.argmin(np.abs(denom)))
        raise ValueError(
            f"rho + Ff vanishes at atom lambda = {sm.lambdas[k]:.6g}")
    fg_vals = 1.0 / denom - rho
    fg = TransformTable(lambdas=sm.lambdas.copy(), values=fg_vals)
    g = GridFunction(basis.grid, basis.inverse(fg_vals))
    rt = float(np.max(np.abs((rho + fg_vals) * denom - 1.0)))
    g_back = basis.forward(g.values)
    scale = max(float(np.max(np.abs(fg_vals))), 1e-300)
    recheck = float(np.max(np.abs(g_back - fg_vals))) / scale
    return ResolventResult(g=g, fg=fg, round_trip_residual=rt,
                           forward_recheck=recheck), g_back


def solve_equation(prob: EquationProblem, sm: SpectralMeasure) -> EquationSolution:
    """Solve rho h + h * f = psi through the resolvent formula
    h = rho psi + psi * g, with psi * g heat-regularized for the time
    _T_REG.

    Raises when the nonvanishing condition fails, carrying the witness
    point; otherwise the returned diagnostics report the sampled minimum
    modulus and the transform-domain residual of the solved equation.
    """
    strip = SpectralStrip(prob.kappa, sm.sigma2)
    l1_kappa_norm(prob.f, prob.kappa, sm)  # rejects divergent kernels early
    bf = sm.basis(prob.f.grid)
    ff = bf.forward(prob.f.values)
    check = _strip_check(ff, prob.f, strip, prob.rho, sm)
    if not check.ok:
        raise ValueError(
            f"equation not solvable in L1,kappa: |rho + Ff| = "
            f"{check.min_modulus:.3e} at lambda = {check.witness}")
    res, g_back = _resolvent(ff, prob.rho, sm, bf)
    bpsi = sm.basis(prob.psi.grid, bf)
    fpsi = bpsi.forward(prob.psi.values)
    conv = bpsi.inverse(np.exp(-_T_REG * sm.lambdas) * fpsi * g_back)
    h_vals = prob.rho * prob.psi.values + conv
    h = GridFunction(prob.psi.grid, np.real_if_close(h_vals, tol=1e6))
    fh = bpsi.forward(h.values)
    scale = max(float(np.max(np.abs(fpsi))), 1e-300)
    resid = float(np.max(np.abs(fh * (prob.rho + ff) - fpsi))) / scale
    diag = {
        "min_modulus": check.min_modulus,
        "witness": check.witness,
        "transform_residual": resid,
        "resolvent_round_trip": res.round_trip_residual,
        "resolvent_recheck": res.forward_recheck,
    }
    return EquationSolution(h=h, g=res.g, diagnostics=diag)


def solve_qt_equation(t: float, x: float, psi: GridFunction,
                      sm: SpectralMeasure) -> EquationSolution:
    """h(y) + int h(xi) q_t(x, y, xi) r(xi) dxi = psi(y).

    The kernel is generated by the heat slice f = p(t, x, .): translating
    it produces exactly q_t, and 1 + (Ff)(lambda) = 1 + e^{-t lambda}
    w_lambda(x) never vanishes for t > 0, so the equation is always
    solvable.
    """
    f = GridFunction(psi.grid, heat_kernel_grid(t, x, psi.grid, sm))
    prob = EquationProblem(f=f, psi=psi, kappa=sm.sigma2, rho=1.0)
    return solve_equation(prob, sm)
