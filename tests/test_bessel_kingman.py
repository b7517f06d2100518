"""The kernel, the truncated spectral measure, the heat kernel and the
product density q_t of the Bessel-Kingman operator p = r = x^(2 alpha + 1)
against their closed forms (bessel_kingman.py), for alpha other than the
sinc case 1/2; and the one Whittaker kernel value that a closed form
reaches, which shows the same defect."""

import math

import numpy as np
import pytest

import bessel_kingman as bk
from slhyper.kernel import KernelEvaluator
from slhyper.hconv import approx_nu, product_density, translate
from slhyper.operator import builtin_operator
from slhyper.spectral import (build_spectral_measure, bump_function,
                              heat_kernel_grid)

# the series table starts where 1/p first drops below 1e15, and the head
# int_a^{x0} of every eta_j is dropped there: at lambda = 1000 and x = 0.05
# the kernel is off by 4e-6 (alpha 1.5) and 4e-3 (alpha 3), while eval_many
# estimates its error at 1e-11.  On Whittaker the dropped head of eta_1(1)
# is 0.034 of 0.662
HEAD_DROPPED = pytest.mark.xfail(
    strict=True, reason="series table drops int_a^x0 of every eta_j")


def test_oracle_at_alpha_half():
    # alpha = 1/2: w = sin(kx) / (kx), atoms (n pi / L)^2, masses 2 k^2 / L
    xs = np.linspace(0.0, 10.0, 201)
    lams = np.array([0.01, 1.0, 30.0])
    want = np.sinc(np.sqrt(lams)[:, None] * xs / math.pi)
    assert np.max(np.abs(bk.kernel(0.5, lams, xs) - want)) <= 1e-14
    lam, mass = bk.spectrum(0.5, 16.0, 50)
    k = np.arange(1, 51) * math.pi / 16.0
    assert np.allclose(lam, k * k, rtol=1e-13, atol=0.0)
    assert np.allclose(mass, 2.0 * k * k / 16.0, rtol=1e-12, atol=0.0)
    # the heat kernel is the method of images
    ys, t = np.linspace(0.0, 4.0, 401), 0.05
    images = (np.exp(-(1.0 - ys) ** 2 / (4 * t))
              - np.exp(-(1.0 + ys) ** 2 / (4 * t))) \
        / (2.0 * np.where(ys > 0, ys, 1.0) * math.sqrt(math.pi * t))
    images[0] = math.exp(-1.0 / (4 * t)) / (2 * t * math.sqrt(4 * t)
                                            * math.gamma(1.5))
    assert np.max(np.abs(bk.heat_kernel(0.5, t, 1.0, ys) - images)) <= 1e-13


@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_product_kernel_oracle(alpha):
    """K(2, 1.5, .) has mass 1 and reproduces w_lambda(2) w_lambda(1.5) at
    k = 1.3: measured within 6e-11 and 1.2e-10 (alpha -0.25), 3e-15
    otherwise."""
    z, w = bk.product_nodes(alpha, 2.0, 1.5)
    assert abs(np.sum(w) - 1.0) <= 1e-10
    lam = [1.3 ** 2]
    want = bk.kernel(alpha, lam, [2.0])[0, 0] * bk.kernel(alpha, lam, [1.5])[0, 0]
    assert abs(w @ bk.kernel(alpha, lam, z)[0] - want) <= 1e-9


@pytest.mark.parametrize("alpha", [
    -0.25, 0.0,
    pytest.param(1.5, marks=HEAD_DROPPED),
    pytest.param(3.0, marks=HEAD_DROPPED),
])
def test_kernel_matches_closed_form(alpha):
    """eval_many on 201 points of [0, 10] for 24 lambda in [1e-2, 1e3],
    relative to max |w| = w(0) = 1.  Measured: 5.8e-11 at alpha -0.25 and
    3.9e-11 at alpha 0; the bound is 1e-9."""
    xs = np.linspace(0.0, 10.0, 201)
    lams = np.logspace(-2.0, 3.0, 24)
    ev = KernelEvaluator(builtin_operator(f"bessel?alpha={alpha}"))
    W = ev.eval_many(lams, xs)[0]
    ref = bk.kernel(alpha, lams, xs)
    rel = np.abs(W - ref) / np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.max(rel) <= 1e-9


@HEAD_DROPPED
def test_whittaker_kernel_takes_the_whole_first_term():
    """Whittaker alpha = 1/4, kappa = 1: p = x^1.5 e^(-1/x), r = x^-0.5
    e^(-1/x).  At lambda = 1e-3, w(1) = 1 - lambda eta_1(1) up to
    lambda^2 eta_2(1) <= lambda^2 eta_1(1)^2 / 2 < 2.2e-7.  With u = 1/t,
    int_xi^1 dt / p(t) = sqrt(pi) (erfi(xi^-1/2) - erfi(1)), and r(xi)
    times it is xi^-1/2 (2 D(xi^-1/2) - sqrt(pi) erfi(1) e^(-1/xi)), D
    Dawson's function, so eta_1(1), its integral over (0, 1), is one
    smooth quadrature: 0.661928.  The table starts at x0 = 0.034,
    where 1/p reaches 1e15, and gives 0.627595: the kernel is 3.4e-5 off
    while eval_many estimates its error at 1e-22."""
    from scipy.integrate import quad
    from scipy.special import dawsn, erfi

    eta1, _ = quad(lambda xi: xi ** -0.5 * (
        2.0 * dawsn(xi ** -0.5)
        - math.sqrt(math.pi) * erfi(1.0) * math.exp(-1.0 / xi)),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    lam = 1e-3
    ev = KernelEvaluator(builtin_operator("whittaker?alpha=0.25&kappa=1.0"))
    w = ev.eval_many([lam], [1.0])[0][0, 0]
    assert abs(w - (1.0 - lam * eta1)) <= 1e-6


@pytest.fixture(scope="module")
def measure():
    """The measure of bessel?alpha=... on L=16, N=4096, lambda_max 1600,
    built once per alpha."""
    built = {}

    def get(alpha):
        if alpha not in built:
            built[alpha] = build_spectral_measure(
                builtin_operator(f"bessel?alpha={alpha}"),
                L=16.0, N=4096, lambda_max=1600.0)
        return built[alpha]

    return get


# measured maximum relative errors of eigenvalue and mass; each bound is
# twice the measured figure
@pytest.mark.parametrize("alpha, eig_measured, mass_measured", [
    (-0.25, 9.4e-6, 2.8e-4),
    (0.0, 8.4e-6, 8.2e-4),
    (1.5, 1.2e-6, 2.0e-4),
])
def test_spectrum_matches_closed_form(alpha, eig_measured, mass_measured,
                                      measure):
    sm = measure(alpha)
    lam, mass = bk.spectrum(alpha, 16.0, len(sm))
    assert np.max(np.abs(sm.lambdas - lam) / lam) <= 2.0 * eig_measured
    assert np.max(np.abs(sm.masses - mass) / mass) <= 2.0 * mass_measured


# measured maximum absolute error of p_t(1, .) at t = 0.05 on 401 points of
# [0, 4], where it peaks at 1.28-1.42; each bound is twice the figure
@pytest.mark.parametrize("alpha, measured", [
    (-0.25, 6.7e-7), (0.0, 1.7e-6), (1.5, 3.4e-7)])
def test_heat_kernel_matches_closed_form(alpha, measured, measure):
    ys = np.linspace(0.0, 4.0, 401)
    got = heat_kernel_grid(0.05, 1.0, ys, measure(alpha))
    assert np.max(np.abs(got - bk.heat_kernel(alpha, 0.05, 1.0, ys))) \
        <= 2.0 * measured


# measured maximum absolute error of q_t(2, 1.5, .) on 3001 points of
# [0, 6]; each bound is twice the figure
@pytest.mark.parametrize("alpha, t, measured", [
    (-0.25, 0.1, 4.6e-7), (-0.25, 0.01, 2.8e-6),
    (0.0, 0.1, 6.0e-7), (0.0, 0.01, 4.1e-6),
    (1.5, 0.1, 1.8e-9), (1.5, 0.01, 3.7e-7)])
def test_product_density_matches_closed_form(alpha, t, measured, measure):
    xi = np.linspace(0.0, 6.0, 3001)
    got = product_density(t, 2.0, 1.5, xi, measure(alpha)).values
    want = bk.product_density(alpha, t, 2.0, 1.5, xi)
    assert np.max(np.abs(got - want)) <= 2.0 * measured


# measured maximum absolute error of approx_nu's moments at x = 2, y = 1.5
# over t in (0.1, 0.01), against e^{-t lambda} w_lambda(2) w_lambda(1.5)
# at the measure's own probe atoms; each bound is twice the figure
@pytest.mark.parametrize("alpha, measured", [
    (-0.25, 3.8e-6), (0.0, 1.5e-7), (1.5, 2.4e-9)])
def test_approx_nu_moments_match_closed_form(alpha, measured, measure):
    ap = approx_nu(2.0, 1.5, measure(alpha), t_schedule=(0.1, 0.01))
    lam = ap.moment_lambdas
    w = bk.kernel(alpha, lam, [2.0, 1.5])
    want = np.exp(-np.array([0.1, 0.01])[:, None] * lam) * w[:, 0] * w[:, 1]
    assert np.max(np.abs(ap.moments - want)) <= 2.0 * measured


def _bump(z, center=4.0, width=1.5):
    u = (z - center) / width
    return np.where(np.abs(u) < 1.0,
                    np.exp(-1.0 / np.maximum(1e-300, 1.0 - u * u)), 0.0)


# measured maximum absolute error of T^y h at y = 1.5 (t_reg 1e-6) on 30
# points of [0.2, 6], h a bump of height e^-1 centred at 4 on 601 points of
# [0, 12], against int h(z) K(x, y, z) z^(2 alpha + 1) dz by
# product_nodes; each bound is twice the figure
@pytest.mark.parametrize("alpha, measured", [
    (-0.25, 2.2e-5), (0.0, 6.6e-6), (1.5, 4.9e-7)])
def test_translate_matches_closed_form(alpha, measured, measure):
    h = bump_function(4.0, 1.5, np.linspace(0.0, 12.0, 601))
    xs = np.linspace(0.2, 6.0, 30)
    got = translate(h, 1.5, measure(alpha), t_reg=1e-6, out_grid=xs).values
    want = []
    for x in xs:
        z, w = bk.product_nodes(alpha, x, 1.5)
        want.append(w @ _bump(z))
    assert np.max(np.abs(got - np.array(want))) <= 2.0 * measured
