"""Closed forms of the Bessel-Kingman operator, p = r = x^(2 alpha + 1) on
(0, oo) with alpha > -1/2, for the tests (Kingman, "Random walks with
spherical symmetry", Acta Math. 1963; Watson, A Treatise on the Theory of
Bessel Functions, ch. 15 and 18).  With k = sqrt(lambda):

    w_lambda(x) = Gamma(alpha + 1) (2 / (k x))^alpha J_alpha(k x),

and the measure of the operator truncated to [0, L] with a Dirichlet end
at L has its atoms at (j_n / L)^2, j_n the n-th positive zero of J_alpha,
with masses

    2 k_n^(2 alpha) / (4^alpha Gamma(alpha + 1)^2 L^2 J_{alpha+1}(j_n)^2).
"""

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma, jv


def kernel(alpha: float, lams, xs) -> np.ndarray:
    """w_lambda(x) for every lambda > 0 and x >= 0, shape (len(lams),
    len(xs)); 1 at x = 0."""
    z = np.sqrt(np.asarray(lams, dtype=float))[:, None] * np.asarray(xs, dtype=float)
    zs = np.where(z > 0.0, z, 1.0)
    w = gamma(alpha + 1.0) * (2.0 / zs) ** alpha * jv(alpha, zs)
    return np.where(z > 0.0, w, 1.0)


def zeros(alpha: float, n: int) -> np.ndarray:
    """The first n positive zeros of J_alpha: sign changes on a grid of
    step 0.05, which is below half the spacing of the zeros (about pi),
    each refined by brentq."""
    # McMahon: j_n is near (n + alpha/2 - 1/4) pi, so this grid holds n zeros
    z = np.arange(0.05, (n + alpha / 2.0 + 1.0) * np.pi, 0.05)
    v = jv(alpha, z)
    i = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[:n]
    return np.array([brentq(lambda t: jv(alpha, t), z[k], z[k + 1],
                            xtol=1e-14) for k in i])


def spectrum(alpha: float, L: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n atoms and masses of the measure truncated at L."""
    j = zeros(alpha, n)
    k = j / L
    masses = 2.0 * k ** (2.0 * alpha) / (
        4.0 ** alpha * gamma(alpha + 1.0) ** 2 * L ** 2 * jv(alpha + 1.0, j) ** 2)
    return k * k, masses
