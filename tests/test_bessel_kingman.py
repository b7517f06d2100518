"""The kernel and the truncated spectral measure of the Bessel-Kingman
operator p = r = x^(2 alpha + 1) against their closed forms
(bessel_kingman.py), for alpha other than the sinc case 1/2."""

import math

import numpy as np
import pytest

import bessel_kingman as bk
from slhyper.kernel import KernelEvaluator
from slhyper.operator import builtin_operator
from slhyper.spectral import build_spectral_measure

# the series table starts where 1/p first drops below 1e15, and the head
# int_a^{x0} of every eta_j is dropped there: at lambda = 1000 and x = 0.05
# the kernel is off by 4e-6 (alpha 1.5) and 4e-3 (alpha 3), while eval_many
# estimates its error at 1e-11
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


# measured maximum relative errors of eigenvalue and mass on L=16, N=4096,
# lambda_max 1600; each bound is twice the measured figure
@pytest.mark.parametrize("alpha, eig_measured, mass_measured", [
    (-0.25, 9.4e-6, 2.8e-4),
    (0.0, 8.4e-6, 8.2e-4),
    (1.5, 1.2e-6, 2.0e-4),
])
def test_spectrum_matches_closed_form(alpha, eig_measured, mass_measured):
    sm = build_spectral_measure(builtin_operator(f"bessel?alpha={alpha}"),
                                L=16.0, N=4096, lambda_max=1600.0)
    lam, mass = bk.spectrum(alpha, 16.0, len(sm))
    assert np.max(np.abs(sm.lambdas - lam) / lam) <= 2.0 * eig_measured
    assert np.max(np.abs(sm.masses - mass) / mass) <= 2.0 * mass_measured
