"""Two-variable initial value problem and the mixed triangle identity."""

import dataclasses

import numpy as np
import pytest

from slhyper.operator import (build_standard_form, builtin_operator,
                              certify_mp)
from slhyper.spectral import GridFunction, bump_function
from slhyper.cauchy import (CauchySolution, positivity_report, solve_cauchy,
                            solve_cauchy_shifted,
                            triangle_identity_residual)


def _at(sol, x, y):
    """sol.values at the grid node (x, y)."""
    i, j = np.argmin(np.abs(sol.xs - x)), np.argmin(np.abs(sol.ys - y))
    assert abs(sol.xs[i] - x) < 1e-12 and abs(sol.ys[j] - y) < 1e-12
    return sol.values[i, j]


@pytest.fixture(scope="module")
def sol_cosine(sm_cosine):
    g = np.linspace(0.0, 16.0, 1601)
    h = bump_function(4.0, 1.5, g)
    xs = np.linspace(0.0, 10.0, 101)
    return solve_cauchy(h, sm_cosine, xs)


def test_boundary_trace(sol_cosine):
    h = sol_cosine.h
    edge = sol_cosine.values[:, 0]
    assert np.max(np.abs(edge - h(sol_cosine.xs))) < 1e-4


def test_symmetry(sol_cosine):
    f = sol_cosine
    assert abs(_at(f, 3.0, 1.0) - _at(f, 1.0, 3.0)) < 1e-10


def test_flat_case_dalembert_oracle(sol_cosine):
    # flat operator: f(x,y) = (h(x+y) + h(|x-y|)) / 2
    h = sol_cosine.h
    for x, y in ((3.0, 1.0), (5.0, 2.0), (4.5, 4.0)):
        want = 0.5 * (h(x + y) + h(abs(x - y)))
        assert _at(sol_cosine, x, y) == pytest.approx(want, abs=2e-4)


@pytest.mark.parametrize("xs", [[3.0], np.linspace(5.0, 0.0, 11),
                                [0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0],
                                [0.0, np.nan, 2.0], [0.0, 1.0, np.inf]])
def test_solve_cauchy_rejects_bad_grids(sm_cosine, xs):
    h = bump_function(4.0, 1.5, np.linspace(0.0, 16.0, 401))
    for args in ((xs,), (np.linspace(0.0, 5.0, 11), xs)):
        with pytest.raises(ValueError, match="solution grid"):
            solve_cauchy(h, sm_cosine, *args)


def test_requires_flags(sm_cosine):
    g = np.linspace(0.0, 16.0, 401)
    plain = GridFunction(g, np.exp(-g))
    with pytest.raises(ValueError):
        solve_cauchy(plain, sm_cosine, np.linspace(0.0, 5.0, 11))


def test_pde_residual_small_interior(sol_cosine):
    res = sol_cosine.pde_residual()
    assert res.shape == (len(sol_cosine.xs) - 4, len(sol_cosine.ys) - 4)
    # crude second differences on a 0.1 step: consistency, not accuracy
    assert np.max(np.abs(res)) < 5e-2


def test_positivity_report(sol_cosine):
    # the modest eigenvalue cutoff used here leaves O(1e-5) undershoot
    rep = positivity_report(sol_cosine)
    assert rep["min_value"] > -1e-4
    strict = positivity_report(sol_cosine, strict=True)
    assert 0.0 <= strict["strict_positive_fraction"] <= 1.0


def test_shifted_origin_validation(sm_cosine):
    g = np.linspace(0.0, 16.0, 801)
    h = bump_function(4.0, 1.5, g)
    with pytest.raises(ValueError):
        solve_cauchy_shifted(h, 0.5, sm_cosine, np.linspace(0.2, 5.0, 9))


def test_shifted_origin_approaches_plain(sm_cosine, sol_cosine):
    h = sol_cosine.h
    xs = np.linspace(0.2, 6.0, 30)
    ref = solve_cauchy(h, sm_cosine, xs).values
    errs = []
    for a_m in (0.1, 0.01):
        s = solve_cauchy_shifted(h, a_m, sm_cosine, xs)
        errs.append(float(np.max(np.abs(s.values - ref))))
    assert errs[1] < errs[0]


@pytest.fixture(scope="module")
def cert_cosine():
    sf = build_standard_form(builtin_operator("cosine"))
    return certify_mp(sf)


def test_triangle_constant_v_exact(cert_cosine):
    # v == 1: both sides reduce to A(x) A(y); residual is pure quadrature
    rep = triangle_identity_residual(lambda s, z: np.ones_like(np.asarray(s) * np.asarray(z)),
                                     c=0.5, x=3.0, y=1.5, cert=cert_cosine,
                                     n=80)
    assert abs(rep.residual) < 1e-12
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)


def test_triangle_separable_solution(cert_cosine):
    # F(x+y) + F(x-y) solves the wave equation for the flat operator
    def v(s, z):
        return np.exp(-((s + z) - 2.0) ** 2) + np.exp(-((s - z) - 2.0) ** 2)

    rep = triangle_identity_residual(v, c=0.3, x=3.0, y=1.2,
                                     cert=cert_cosine, n=200)
    assert abs(rep.residual) < 1e-4
    assert rep.n == 200


def test_input_errors_name_what_is_wrong(sm_cosine, sol_cosine):
    """Initial data with a negative part has no positivity report, the
    shifted solve needs flagged data as the plain one does, and the
    triangle identity needs a certificate whose checks all hold."""
    h = sol_cosine.h
    negative = CauchySolution(GridFunction(h.grid, -h.values, True, True),
                              sol_cosine.xs, sol_cosine.ys, sol_cosine.values,
                              sm_cosine)
    with pytest.raises(ValueError, match="initial data must be nonnegative"):
        positivity_report(negative)
    unflagged = GridFunction(h.grid, h.values)
    with pytest.raises(ValueError, match="must be flagged smooth2"):
        solve_cauchy_shifted(unflagged, 0.5, sm_cosine,
                             np.linspace(1.0, 3.0, 5))
    cert = certify_mp(build_standard_form(builtin_operator("cosine")))
    failed = dataclasses.replace(cert, checks={**cert.checks,
                                               "phi_decreasing": False})
    with pytest.raises(ValueError, match="MP certificate required"):
        triangle_identity_residual(lambda xi, zeta: xi * 0.0, 0.5, 3.0, 1.5,
                                   failed)
