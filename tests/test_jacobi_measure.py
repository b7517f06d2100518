"""The spectral measure of p = r = sinh(x)^2 on (0, oo), loaded from JSON:
the radial Laplacian of hyperbolic 3-space, the first family with sigma^2 =
1 whose measure has closed forms.  Its kernel is w_lambda(x) = sin(kx) /
(k sinh x) with lambda = 1 + k^2, so on [0, L] with w(L) = 0 the atoms are
1 + (n pi / L)^2 and the masses 1 / ||w||^2 = 2 k_n^2 / L.  The bounds are
twice the errors measured at L = 16, N = 4096 and lambda_max 1600."""

import math

import numpy as np
import pytest

from slhyper.operator import load_operator
from slhyper.spectral import build_spectral_measure, heat_kernel_grid

L = 16.0


@pytest.fixture(scope="module")
def sm_jacobi(tmp_path_factory):
    path = tmp_path_factory.mktemp("jacobi") / "jac.json"
    path.write_text('{"name": "jacobi", "a": 0.0, "b": "inf", '
                    '"p": "sinh(x)^2", "r": "sinh(x)^2", "eta": "0"}')
    return build_spectral_measure(load_operator(str(path)), L, 4096,
                                  lambda_max=1600.0)


def _k(sm):
    return np.arange(1, len(sm) + 1) * math.pi / L


def test_atoms_are_one_plus_k_squared(sm_jacobi):
    """Measured 1.21e-6 relative, over all 204 atoms."""
    want = 1.0 + _k(sm_jacobi) ** 2
    assert len(sm_jacobi) == 204 and sm_jacobi.pairing.cut is None
    assert np.max(np.abs(sm_jacobi.lambdas - want) / want) <= 2.42e-6


def test_masses_are_two_k_squared_over_L(sm_jacobi):
    """Measured 3.95e-5 relative, over all 204 atoms."""
    want = 2.0 * _k(sm_jacobi) ** 2 / L
    assert np.max(np.abs(sm_jacobi.masses - want) / want) <= 7.9e-5


def test_heat_kernel_is_the_shifted_image_kernel(sm_jacobi):
    """p(t, x, y) = e^{-t} (e^{-(x-y)^2/4t} - e^{-(x+y)^2/4t}) /
    (2 sqrt(pi t) sinh x sinh y) against r dy, at t = 0.05 and x = 1 on 400
    points of (0, 4].  Measured 7.44e-8."""
    t, x = 0.05, 1.0
    ys = np.linspace(0.0, 4.0, 401)[1:]
    want = math.exp(-t) * (np.exp(-(x - ys) ** 2 / (4 * t))
                           - np.exp(-(x + ys) ** 2 / (4 * t))) \
        / (2.0 * math.sqrt(math.pi * t) * math.sinh(x) * np.sinh(ys))
    got = heat_kernel_grid(t, x, ys, sm_jacobi)
    assert np.max(np.abs(got - want)) <= 1.49e-7
