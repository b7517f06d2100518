"""Closed forms of the Bessel-Kingman operator, p = r = x^(2 alpha + 1) on
(0, oo) with alpha > -1/2, for the tests (Kingman, "Random walks with
spherical symmetry", Acta Math. 1963; Watson, A Treatise on the Theory of
Bessel Functions, ch. 15 and 18).  With k = sqrt(lambda):

    w_lambda(x) = Gamma(alpha + 1) (2 / (k x))^alpha J_alpha(k x),

and the measure of the operator truncated to [0, L] with a Dirichlet end
at L has its atoms at (j_n / L)^2, j_n the n-th positive zero of J_alpha,
with masses

    2 k_n^(2 alpha) / (4^alpha Gamma(alpha + 1)^2 L^2 J_{alpha+1}(j_n)^2).

The heat kernel against r is

    p_t(x, y) = (x y)^(-alpha) e^{-(x^2 + y^2)/(4t)} I_alpha(x y / (2t)) / (2t),

and the product kernel, on |x - y| < z < x + y, is

    K(x, y, z) = Gamma(alpha + 1) 2^(2 alpha - 1) Delta^(2 alpha - 1)
                 / (sqrt(pi) Gamma(alpha + 1/2) (x y z)^(2 alpha)),

Delta the area of the triangle with sides x, y and z (Bloom & Heyer,
Harmonic Analysis of Probability Measures on Hypergroups, 1995, ch. 3).
q_t(x, y, .) = int K(x, y, z) p_t(z, .) z^(2 alpha + 1) dz.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma, ive, jv, roots_jacobi


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


def heat_kernel(alpha: float, t: float, x, y) -> np.ndarray:
    """p_t(x, y) for x, y >= 0 broadcast together, written with
    ive(alpha, z) = e^{-z} I_alpha(z), and at x y = 0 its limit
    e^{-(x^2 + y^2)/(4t)} / ((4t)^alpha Gamma(alpha + 1) 2t)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    xy, d2 = x * y, (x - y) ** 2
    pos = xy > 0.0
    s = np.where(pos, xy, 1.0)
    general = s ** -alpha * np.exp(-d2 / (4.0 * t)) * ive(alpha, s / (2.0 * t))
    limit = np.exp(-d2 / (4.0 * t)) / ((4.0 * t) ** alpha * gamma(alpha + 1.0))
    return np.where(pos, general, limit) / (2.0 * t)


def product_nodes(alpha: float, x: float, y: float,
                  n: int = 600) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights of int f(z) K(x, y, z) z^(2 alpha + 1) dz, for
    x, y > 0 and x != y: Gauss-Jacobi with weight ((1 - u)(1 + u))^(alpha
    - 1/2) on z = m + h u, which takes up the edge factor of
    Delta^(2 alpha - 1), 16 Delta^2 = (x + y + z)(z + |x - y|)(z - |x - y|)
    (x + y - z)."""
    lo, hi = abs(x - y), x + y
    m, h = (hi + lo) / 2.0, (hi - lo) / 2.0
    u, wu = roots_jacobi(n, alpha - 0.5, alpha - 0.5)
    z = m + h * u
    c = gamma(alpha + 1.0) * 2.0 ** (2.0 * alpha - 1.0) / (
        math.sqrt(math.pi) * gamma(alpha + 0.5))
    smooth = ((x + y + z) * (z + lo) / 16.0) ** (alpha - 0.5) * h ** (2.0 * alpha)
    return z, wu * c * smooth * z / (x * y) ** (2.0 * alpha)


def product_density(alpha: float, t: float, x: float, y: float, xi,
                    n: int = 600) -> np.ndarray:
    """q_t(x, y, xi) at the points xi, by product_nodes."""
    z, w = product_nodes(alpha, x, y, n)
    return w @ heat_kernel(alpha, t, z[:, None], np.asarray(xi, dtype=float))
