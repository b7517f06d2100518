"""Discrete spectral measure: atoms, cumulative, transform round trips, and
the heat kernel."""

import math
import mmap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline
from scipy.linalg import eigh_tridiagonal

from slhyper import spectral
from slhyper.inteq import l1_kappa_norm
from slhyper.kernel import (KernelEvaluator, RowSpline, _add_spline,
                            _merged_knots)
from slhyper.operator import builtin_operator
from slhyper.spectral import (GridFunction, TransformTable, _eigenpairs,
                              _r_weights, build_spectral_measure,
                              bump_function, forward_transform,
                              heat_kernel_grid, inverse_transform)


def test_grid_function_rejects_bad_grid():
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 2.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, np.nan, 2.0]), np.zeros(3))


def test_grid_function_interp_zero_outside():
    h = GridFunction(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]))
    assert h(2.5) == pytest.approx(5.0)
    assert h(0.5) == 0.0
    assert h(10.0) == 0.0


def test_trapezoid_weights_sum_to_length():
    # r = 1 on the cosine operator, so its r-weights are the trapezoid weights
    g = np.linspace(0.0, 7.0, 23)
    assert _r_weights(builtin_operator("cosine"), g).sum() == pytest.approx(7.0)


def test_bump_flags_and_support():
    g = np.linspace(0.0, 10.0, 401)
    h = bump_function(4.0, 1.5, g)
    assert h.compact_support and h.smooth2
    assert np.all(h.values >= 0.0)
    assert h(4.0) > 0.0
    assert h(4.0 + 1.6) == 0.0 and h(4.0 - 1.6) == 0.0


def test_atoms_sorted_positive(sm_cosine):
    assert np.all(np.diff(sm_cosine.lambdas) > 0)
    assert np.all(sm_cosine.masses > 0)
    assert sm_cosine.lambdas[0] >= sm_cosine.sigma2 - 0.05


def test_sigma2_is_the_operators(sm_cosine, sm_whittaker):
    # sigma^2 of the standard form: 0 for the flat operator, and
    # ((1 - 2 alpha) / 2)^2 = 1/16 for Whittaker at alpha = 1/4
    assert sm_cosine.sigma2 == 0.0
    assert sm_whittaker.sigma2 == pytest.approx(1.0 / 16.0, rel=0.0, abs=1e-6)


def test_cosine_atom_masses(sm_cosine):
    # Dirichlet at L: each normalized cos(sqrt(lam) x) has mass 2/L
    low = sm_cosine.lambdas <= 400.0
    assert np.allclose(sm_cosine.masses[low], 2.0 / sm_cosine.L, rtol=1e-4, atol=0.0)


def test_bessel_atom_masses(sm_bessel):
    # alpha = 1/2: w = sin(k x)/(k x) with r = x^2, so the mass is 2 k^2 / L
    low = sm_bessel.lambdas <= 400.0
    want = 2.0 * sm_bessel.lambdas[low] / sm_bessel.L
    assert np.allclose(sm_bessel.masses[low], want, rtol=1e-4, atol=0.0)


def test_bessel_eigenvalues_closed_form(sm_bessel):
    # alpha = 1/2: w = sin(k x)/(k x) vanishes at L for k = n pi / L
    n = np.arange(1, len(sm_bessel) + 1)
    want = (n * np.pi / sm_bessel.L) ** 2
    assert np.max(np.abs(sm_bessel.lambdas - want) / want) <= 2e-6
    assert abs(sm_bessel.lambdas[0] - want[0]) <= 1e-8


def test_cumulative_monotone(sm_cosine):
    lams = np.linspace(0.0, 100.0, 300)
    vals = np.array([sm_cosine.cumulative(l) for l in lams])
    assert np.all(np.diff(vals) >= -1e-14)
    total = float(np.sum(sm_cosine.masses))
    assert sm_cosine.cumulative(sm_cosine.lambdas[-1] + 10.0) == pytest.approx(total)


def test_cosine_cumulative_oracle(sm_cosine):
    # for the flat operator on [0, inf) the density is 1/(pi sqrt(lam)),
    # so rho[0, lam] = 2 sqrt(lam) / pi
    for lam in (4.0, 25.0, 100.0):
        want = 2.0 * np.sqrt(lam) / np.pi
        assert sm_cosine.cumulative(lam) == pytest.approx(want, rel=2e-2)


def test_transform_round_trip(sm_cosine):
    g = np.linspace(0.0, 12.0, 1201)
    h = bump_function(5.0, 2.0, g)
    tbl = forward_transform(h, sm_cosine)
    back = inverse_transform(tbl, sm_cosine, g)
    err = np.max(np.abs(back.values - h.values)) / np.max(np.abs(h.values))
    assert err < 5e-3


def test_whittaker_profile_from_singular_endpoint(sm_whittaker):
    # r is not finite at x = 0; the bump vanishes below 0.05, so the nodes
    # there must add nothing
    g = np.linspace(0.0, 8.0, 801)
    h = bump_function(3.0, 1.5, g)
    inner = g >= 0.05
    h_in = GridFunction(g[inner], h.values[inner])
    full = forward_transform(h, sm_whittaker).values
    assert np.all(np.isfinite(full))
    assert np.allclose(full, forward_transform(h_in, sm_whittaker).values,
                       rtol=1e-12, atol=1e-12)
    assert l1_kappa_norm(h, 0.0, sm_whittaker) == pytest.approx(
        l1_kappa_norm(h_in, 0.0, sm_whittaker), rel=1e-12, abs=1e-12)


def test_w_values_below_a_eff_is_one(sm_whittaker):
    # the Whittaker measure starts at a_eff ~ 0.034, where every w_k is 1
    W = sm_whittaker.w_values([0.0, 0.01])
    assert np.allclose(W, 1.0, rtol=0.0, atol=1e-12)
    # below a = 0 there is no operator: an error, not the value at a
    with pytest.raises(ValueError, match="below a = 0"):
        sm_whittaker.w_values([-0.01, 0.5])
    for n in (3, 3000):         # both synthesis orders
        with pytest.raises(ValueError, match="below a = 0"):
            sm_whittaker.synthesize(np.ones(len(sm_whittaker)),
                                    np.linspace(-0.01, 1.0, n))


@pytest.mark.parametrize("name", ["sm_cosine", "sm_bessel", "sm_whittaker"])
def test_w_values_is_the_richardson_combination(name, request, monkeypatch):
    """The measure's one eigenfunction spline, on the merged knots, is the
    combination (4 S_fine - S_coarse) / 3 of the two levels' own splines on
    [a_eff, L], each fitted alone on its own knots from a copy of its node
    table; eigenvalues and masses are those of the levels, bit for bit.
    Every fixture measure is built with lambda_max 1600."""
    sm = request.getfixturevalue(name)
    tables = []
    eigen_solve = spectral._eigen_solve

    def spy(evaluator, nodes, *args):
        vals, masses, table = eigen_solve(evaluator, nodes, *args)
        tables.append((np.concatenate([[sm._a_eff], nodes, [sm.L]]),
                       table.copy()))
        return vals, masses, table

    monkeypatch.setattr(spectral, "_eigen_solve", spy)
    a_eff, lam, mass, w, pairing = spectral._levels(sm.spec, sm.L, sm.N,
                                                    1600.0, sm.evaluator)
    assert np.array_equal(lam, sm.lambdas)
    assert np.array_equal(mass, sm.masses)
    assert a_eff == sm._a_eff and len(tables) == 2

    def alone(xs, table):
        t = _merged_knots(xs)
        c = np.zeros((len(t) - 4, len(lam)))
        _add_spline(c, t, xs, table[:, :len(lam)], 1.0)
        return RowSpline(t, c)

    fine, coarse = (alone(xs, table) for xs, table in tables)
    x = np.linspace(a_eff, sm.L, 4001)
    want = (4.0 * fine(x) - coarse(x)) / 3.0
    assert np.max(np.abs(sm.w_values(x) - want)) <= 1e-14


def _memory(a: np.ndarray):
    """The object that owns the memory of the array a: an array, or the
    object under the buffer that a chain of views ends in."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_fine_node_table_is_released_before_the_coarse_solve(monkeypatch):
    """The levels are solved one at a time: when the coarse level's
    eigenpairs are computed, nothing refers to the memory of the fine
    level's node table any more, and that memory is a map of its own, not
    the malloc heap's."""
    owners = []
    eigenpairs = spectral._eigenpairs

    def spy(diag, off, lambda_max):
        assert all(ref() is None for ref in owners)
        vals, vecs, table = eigenpairs(diag, off, lambda_max)
        owner = _memory(table)
        assert isinstance(owner, mmap.mmap) and _memory(vecs) is owner
        owners.append(weakref.ref(owner))
        return vals, vecs, table

    monkeypatch.setattr(spectral, "_eigenpairs", spy)
    build_spectral_measure(builtin_operator("cosine"), 16.0, 2048,
                           lambda_max=1600.0)
    assert len(owners) == 2


def test_pairing_reports_where_it_stops():
    """Bessel alpha = 1/2 at L = 16, N = 2048 and lambda_max 8000 finds 477
    fine and 557 coarse eigenpairs; pair 426 is the first more than 25%
    apart, so 426 atoms are kept, the top one at 7036.3, and the measure
    says so.  The sm_cosine fixture pairs every eigenpair it finds."""
    sm = build_spectral_measure(builtin_operator("bessel?alpha=0.5"), 16.0,
                                2048, lambda_max=8000.0)
    p = sm.pairing
    assert (p.fine, p.coarse, p.kept) == (477, 557, 426) == (477, 557, len(sm))
    k, lam_f, lam_c = p.cut
    assert k == 426
    assert abs(lam_f - lam_c) > 0.25 * max(lam_f, 1.0)
    assert sm.lambdas[-1] == pytest.approx(7036.3, abs=0.05)


def test_pairing_of_the_cosine_measure_keeps_every_pair(sm_cosine):
    p = sm_cosine.pairing
    assert p.cut is None
    assert p.kept == len(sm_cosine) == min(p.fine, p.coarse)


@pytest.mark.parametrize("name", ["sm_cosine", "sm_bessel", "sm_whittaker"])
def test_eigenfunctions_end_at_L(name, request):
    """Every w_k vanishes at L, the Dirichlet end, and is not extrapolated
    past it: w_values and both orders of synthesize raise."""
    sm = request.getfixturevalue(name)
    assert np.max(np.abs(sm.w_values([sm.L]))) <= 1e-12
    coef = np.exp(-0.1 * sm.lambdas)
    for call in (lambda: sm.w_values([sm.L + 1.0]),
                 lambda: sm.synthesize(coef, [sm.L + 1.0]),
                 lambda: sm.synthesize(coef, np.linspace(0.0, sm.L + 1.0, 5001))):
        with pytest.raises(ValueError, match=f"past L = {sm.L:g}"):
            call()


def _synthesis_grids(sm):
    """Grids that start below a_eff, end at L, cover a narrow sub-span or
    are non-uniform, and a short one, which synthesize evaluates first."""
    u = np.linspace(0.0, 1.0, 2001)
    return (np.linspace(0.0, 0.25 * sm.L, 13),
            np.linspace(0.0, 0.5 * sm.L, 1501),
            np.linspace(sm._a_eff, sm.L, 3001),
            np.linspace(0.4 * sm.L, 0.41 * sm.L, 301),
            sm._a_eff + (sm.L - sm._a_eff) * u ** 3)


@pytest.mark.parametrize("name", ["sm_cosine", "sm_bessel", "sm_whittaker"])
@pytest.mark.parametrize("m", [1, 3])
def test_synthesis_orders_agree(name, m, request):
    """Contracting the spline's coefficients first and evaluating the
    eigenfunctions first are the same sum, to rounding."""
    sm = request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(len(sm) if m == 1 else (len(sm), m))
    for grid in _synthesis_grids(sm):
        first = sm._contracted(coef, grid, *sm._rows(grid))
        later = (sm.masses * coef.T) @ sm.w_values(grid)
        assert first.shape == later.shape
        scale = np.max(np.abs(later))
        assert np.max(np.abs(first - later)) <= 1e-14 * scale


def _rule_atoms(sm, weighted):
    """The atoms that contracting first reads: the smallest K0 with
    sum_{k >= K0} |weighted[k, j]| b_k <= 2^-53 times the sum over every k,
    for every column j, with b_k = max |C[:, k]|."""
    b = np.abs(sm._w.c).max(axis=0)
    terms = np.abs(weighted.reshape(len(sm), -1)) * b[:, None]
    tails = np.cumsum(terms[::-1], axis=0)[::-1]
    return next((k0 for k0 in range(len(sm))
                 if np.all(tails[k0] <= 2.0 ** -53 * tails[0])), len(sm))


def _full_contraction(sm, weighted, grid):
    """sum_k weighted_k w_k(grid) contracted first over every atom."""
    lo, hi = sm._rows(grid)
    return RowSpline(sm._w.t[lo:hi + 4],
                     sm._w.c[lo:hi] @ weighted)(np.maximum(grid, sm._a_eff))


def test_eigenfunction_values_are_bspline_values(sm_cosine, monkeypatch):
    """w_values and both orders of synthesize evaluate the measure's spline
    in numpy (RowSpline) with the values of scipy's BSpline on the same
    knots and coefficients, bit for bit: on one to three points, points
    below a_eff and at L included, on a grid, and contracted with one and
    with three columns of coefficients.  Contracting first reads the atoms
    above rounding (_rule_atoms): 95 of the 204 for e^{-0.1 lambda}, all
    of them for the random coefficients."""
    sm = sm_cosine
    monkeypatch.setattr(sm, "_kept", [])
    t, c = sm._w.t, sm._w.c
    spline = BSpline.construct_fast(t, c, 3, axis=1)
    for x in ([0.0], [2.0, 3.5], [0.5 * sm._a_eff, 7.25, sm.L],
              np.linspace(0.0, sm.L, 1201)):
        want = spline(np.maximum(x, sm._a_eff))
        assert np.array_equal(sm.w_values(x), want)
        assert np.array_equal(np.signbit(sm.w_values(x)), np.signbit(want))
    rng = np.random.default_rng(11)
    for coef in (np.exp(-0.1 * sm.lambdas), rng.standard_normal((len(sm), 3))):
        weighted = (sm.masses * coef.T).T
        short = np.linspace(0.0, 3.0, 13)
        first = (sm.masses * coef.T) @ spline(np.maximum(short, sm._a_eff))
        assert np.array_equal(sm.synthesize(coef, short), first)
        long = np.linspace(0.0, 6.0, 3001)
        lo, hi = sm._rows(long)
        k0 = _rule_atoms(sm, weighted)
        assert k0 == sm._atoms_above_rounding(weighted)
        assert k0 == (95 if coef.ndim == 1 else len(sm))
        contracted = BSpline.construct_fast(t[lo:hi + 4],
                                            c[lo:hi, :k0] @ weighted[:k0], 3,
                                            axis=coef.ndim - 1)
        assert np.array_equal(sm.synthesize(coef, long),
                              contracted(np.maximum(long, sm._a_eff)))


def test_synthesis_order_ignores_the_memo(sm_cosine, monkeypatch):
    """The order is a function of the shapes alone: a grid whose values the
    memo keeps gives the same bits as before they were kept."""
    sm = sm_cosine
    monkeypatch.setattr(sm, "_kept", [])
    coef = np.exp(-0.1 * sm.lambdas)
    for grid in _synthesis_grids(sm):
        cold = sm.synthesize(coef, grid)
        sm.basis(grid)
        assert np.array_equal(sm.synthesize(coef, grid), cold)


XY_PAIRS = [(2.0, 1.5), (1.0, 0.5), (3.0, 2.5)]


@pytest.mark.parametrize("name", ["sm_cosine", "sm_bessel", "sm_whittaker"])
@pytest.mark.parametrize("t", [1e-3, 0.01, 0.1, 0.5, 2.0])
def test_contracted_sum_drops_only_rounding(name, t, request, monkeypatch):
    """The product-kernel sum contracted first over the atoms above rounding
    is within 1e-14 sum_k |m_k coef_k| b_k of the sum over every atom, and
    bit for bit that sum where no atom is dropped (t = 1e-3)."""
    sm = request.getfixturevalue(name)
    monkeypatch.setattr(sm, "basis", None)     # contract first only
    xi = np.linspace(sm._a_eff, 6.0, 3001)
    b = np.abs(sm._w.c).max(axis=0)
    for x, y in XY_PAIRS:
        wxy = sm.w_values([x, y])
        coef = np.exp(-t * sm.lambdas) * wxy[:, 0] * wxy[:, 1]
        weighted = sm.masses * coef
        got = sm.synthesize(coef, xi)
        full = _full_contraction(sm, weighted, xi)
        bound = 1e-14 * np.sum(np.abs(weighted) * b)
        assert np.max(np.abs(got - full)) <= bound
        if t == 1e-3:
            assert _rule_atoms(sm, weighted) == len(sm)
            assert np.array_equal(got, full)


@pytest.mark.parametrize("m", [1, 3])
def test_contracted_sum_of_random_coefficients_keeps_every_atom(sm_cosine, m):
    sm = sm_cosine
    coef = np.random.default_rng(5).standard_normal(
        len(sm) if m == 1 else (len(sm), m))
    weighted = (sm.masses * coef.T).T
    xi = np.linspace(0.0, 6.0, 3001)
    assert sm._atoms_above_rounding(weighted) == len(sm)
    full = _full_contraction(sm, weighted, xi)
    assert np.array_equal(sm.synthesize(coef, xi), full)


def test_contracted_product_kernel_reads_a_quarter_of_the_atoms(sm_cosine):
    """At t = 0.5, e^{-t lambda} leaves 43 of the 204 atoms above rounding,
    and the contraction reads those alone."""
    sm = sm_cosine
    wxy = sm.w_values([2.0, 1.5])
    weighted = sm.masses * np.exp(-0.5 * sm.lambdas) * wxy[:, 0] * wxy[:, 1]
    k0 = sm._atoms_above_rounding(weighted)
    assert k0 == _rule_atoms(sm, weighted)
    assert k0 <= len(sm) // 4


def test_contracted_sum_keeps_every_atom_past_a_nan_weight(sm_cosine):
    """A NaN weight, on an atom the rule would drop, reaches every point of
    the result, as in the full sum."""
    sm = sm_cosine
    coef = np.exp(-0.5 * sm.lambdas)
    coef[-1] = np.nan
    out = sm.synthesize(coef, np.linspace(0.0, 6.0, 3001))
    assert sm._atoms_above_rounding(sm.masses * coef) == len(sm)
    assert np.all(np.isnan(out))


def test_transform_linearity(sm_cosine):
    g = np.linspace(0.0, 12.0, 801)
    h1 = bump_function(4.0, 1.5, g)
    h2 = bump_function(7.0, 2.0, g)
    both = GridFunction(g, 2.0 * h1.values + h2.values,
                        compact_support=True, smooth2=True)
    f1 = forward_transform(h1, sm_cosine).values
    f2 = forward_transform(h2, sm_cosine).values
    fb = forward_transform(both, sm_cosine).values
    assert np.allclose(fb, 2.0 * f1 + f2, atol=1e-12)


def test_heat_kernel_requires_positive_time(sm_cosine):
    with pytest.raises(ValueError):
        heat_kernel_grid(0.0, 1.0, [1.0], sm_cosine)
    with pytest.raises(ValueError):
        heat_kernel_grid(-0.5, 1.0, [1.0], sm_cosine)


def test_heat_kernel_symmetry_and_mass(sm_cosine):
    t = 0.3
    assert heat_kernel_grid(t, 1.0, [2.0], sm_cosine)[0] == pytest.approx(
        heat_kernel_grid(t, 2.0, [1.0], sm_cosine)[0], rel=1e-10)
    # q_t(x, .) r integrates to ~1 well inside the truncated interval
    ys = np.linspace(0.0, 14.0, 1401)
    q = heat_kernel_grid(t, 2.0, ys, sm_cosine)
    r = sm_cosine.spec.r(ys)
    assert np.trapezoid(q * r, ys) == pytest.approx(1.0, abs=5e-3)


def test_heat_kernel_gaussian_oracle(sm_cosine):
    # flat case: q_t(x,y) = sum of image Gaussians; one term dominates
    t, x, y = 0.2, 1.0, 1.5
    got = heat_kernel_grid(t, x, [y], sm_cosine)[0]
    want = 0.0
    for s in (-1.0, 1.0):
        want += np.exp(-(x - s * y) ** 2 / (4 * t)) / np.sqrt(4 * np.pi * t)
    assert got == pytest.approx(want, rel=1e-4)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(2.0, 8.0), wd=st.floats(0.5, 2.0))
def test_transform_bounded_by_l1_mass(c, wd, sm_wide_cached):
    sm = sm_wide_cached
    g = np.linspace(0.0, 12.0, 601)
    h = bump_function(c, wd, g)
    mass = np.trapezoid(np.abs(h.values) * sm.spec.r(g), g)
    vals = forward_transform(h, sm).values
    assert np.max(np.abs(vals)) <= mass * (1 + 1e-9)


@pytest.fixture(scope="module")
def sm_wide_cached(sm_cosine_wide):
    return sm_cosine_wide


def _tridiag_residual(diag, off, vals, vecs):
    """Largest ||T v - lambda v||_2 over the columns, relative to ||T||_1."""
    tv = diag[:, None] * vecs
    tv[:-1] += off[:, None] * vecs[1:]
    tv[1:] += off[:, None] * vecs[:-1]
    norm1 = np.max(np.abs(diag) + np.r_[np.abs(off), 0] + np.r_[0, np.abs(off)])
    return np.max(np.linalg.norm(tv - vals * vecs, axis=0)) / norm1


@pytest.mark.parametrize("name, L, N", [
    ("cosine", 16.0, 2048),
    ("bessel?alpha=0.5", 12.0, 4096),
    ("whittaker?alpha=0.25&kappa=1.0", 12.0, 4096),
])
def test_eigenpairs_of_sturm_liouville_matrices(name, L, N, monkeypatch):
    """The finite-volume matrices of the three builtin families, at their
    benchmark sizes: every eigenvalue is a run of its own, so no vector is
    reorthogonalized, and the vectors are still eigenvectors and
    orthonormal.  The plain Gram matrix of the vectors _eigenpairs returns
    is the wgt-weighted Gram matrix of the eigenfunction vectors that
    _eigen_solve makes of them in place, so they are copied here."""
    calls, runs = [], []
    run_bounds = spectral._runs

    def eigenpairs(diag, off, lambda_max):
        vals, vecs, table = _eigenpairs(diag, off, lambda_max)
        calls.append((diag, off, vals, vecs.copy()))
        return vals, vecs, table

    def spy_runs(vals, iblock):
        out = run_bounds(vals, iblock)
        runs.extend(hi - lo for lo, hi in out)
        return out

    monkeypatch.setattr(spectral, "_eigenpairs", eigenpairs)
    monkeypatch.setattr(spectral, "_runs", spy_runs)
    build_spectral_measure(builtin_operator(name), L, N, lambda_max=1600.0)
    assert len(calls) == 2  # the fine and the coarse level
    assert runs and set(runs) == {1}
    assert len(runs) == sum(len(c[2]) for c in calls)
    for diag, off, vals, vecs in calls:
        assert _tridiag_residual(diag, off, vals, vecs) <= 1e-12
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(len(vals)))) <= 1e-9


def _stebz_calls(monkeypatch, pin: float | None = None) -> list[tuple]:
    """Every stebz call that spectral makes from here on, as (diag, off, vl,
    vu, tol); with pin, each call bisects at the tolerance pin instead of
    the one asked for."""
    calls = []
    lapack = spectral._lapack

    def spy(stebz):
        def spied(d, e, rng, vl, vu, il, iu, tol, order):
            out = stebz(d, e, rng, vl, vu, il, iu,
                        tol if pin is None else pin, order)
            calls.append((d, e, vl, vu, tol))
            return out
        return spied

    def spy_lapack(*names):
        return [spy(f) if name == "stebz" else f
                for name, f in zip(names, lapack(*names))]

    monkeypatch.setattr(spectral, "_lapack", spy_lapack)
    return calls


def _chunk_bisections(calls, lambda_max: float) -> dict:
    """The tolerances at which each chunk (vl, vu] of the bisection was
    bisected, in call order; a call whose tolerance is the chunk's width
    only counts its eigenvalues."""
    edges = [-1e-9, *(lambda_max * f for f in spectral._CHUNK_EDGES)]
    chunks = set(zip(edges[:-1], edges[1:]))
    out = {}
    for _, _, vl, vu, tol in calls:
        if (vl, vu) in chunks and tol < vu - vl:
            out.setdefault((vl, vu), []).append(tol)
    return out


def _check_gap_tolerances(calls, lambda_max: float) -> int:
    """Assert that on every matrix the calls bisected, every chunk of the
    bisection that holds eigenvalues is bisected, and its last tolerance
    lies in [floor, 4 max(floor, theta g)]: floor = 1e-8 max(1,
    lambda_max), and g the smallest gap of the chunk's eigenvalues to their
    neighbours in the whole spectrum (stemr), the ones past lambda_max
    included.  The rule reads the gaps of its own eigenvalues, each within
    its tolerance of the true one, so the bound allows g 2 tol more.
    Returns the number of matrices."""
    floor = 1e-8 * max(1.0, lambda_max)
    edges = [-1e-9, *(lambda_max * f for f in spectral._CHUNK_EDGES)]
    mats = {}
    for call in calls:
        mats.setdefault(id(call[0]), []).append(call)
    for mat_calls in mats.values():
        diag, off = mat_calls[0][:2]
        spectrum = eigh_tridiagonal(diag, off, eigvals_only=True,
                                    lapack_driver="stemr")
        gap = np.diff(np.r_[-np.inf, spectrum, np.inf])
        gap = np.minimum(gap[:-1], gap[1:])
        final = {chunk: tols[-1] for chunk, tols
                 in _chunk_bisections(mat_calls, lambda_max).items()}
        held = {(vl, vu) for vl, vu in zip(edges[:-1], edges[1:])
                if np.any((spectrum > vl) & (spectrum <= vu))}
        assert set(final) == held
        for (vl, vu), tol in final.items():
            g = gap[(spectrum > vl) & (spectrum <= vu)].min()
            assert floor <= tol <= 4 * max(floor,
                                           spectral._THETA * (g + 2 * tol))
    return len(mats)


@pytest.mark.parametrize("n, coupling, lambda_max, bound", [
    (60, 1e-13, 1.0, 1e-12),
    # the double well: its lowest pairs are 1.4e-9 apart, closer than the
    # bisection's floor 1e-8, so each of their vectors is a mix of the
    # pair's two eigenvectors, an eigenvector only up to that split
    (300, -1e-3, 0.5, 1e-8),
], ids=["weak-coupling", "double-well"])
def test_eigenpairs_near_degenerate_pairs_stay_orthonormal(
        n, coupling, lambda_max, bound, monkeypatch):
    """Two copies of the uniform Laplacian, joined by a coupling too weak to
    split the eigenvalue pairs far but not weak enough for bisection to
    split the matrix: no run of close eigenvalues splits a pair, and
    inverse iteration orthogonalizes each pair's two vectors together.
    Solved one eigenvalue at a time, both vectors of a pair would come out
    the same.  The chunk tolerances that the eigenvalue counts give are far
    looser than the pairs' splits; the gap check bisects a chunk again, and
    every chunk ends at a tolerance that follows the gaps
    (_check_gap_tolerances)."""
    calls = _stebz_calls(monkeypatch)
    diag = np.full(2 * n, 2.0)
    off = np.full(2 * n - 1, -1.0)
    off[n - 1] = coupling
    vals, vecs, _ = _eigenpairs(diag, off, lambda_max)
    ref = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    assert np.allclose(vals, ref[ref <= lambda_max], rtol=0.0, atol=bound)
    # every run starts at an even index, so none splits a pair
    runs = spectral._runs(vals, np.ones(len(vals), dtype=int))
    assert all(lo % 2 == 0 for lo, _ in runs)
    assert _tridiag_residual(diag, off, vals, vecs) <= bound
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(len(vals)))) <= 1e-9
    assert max(map(len, _chunk_bisections(calls, lambda_max).values())) >= 2
    assert _check_gap_tolerances(calls, lambda_max) == 1


@pytest.mark.parametrize("lambda_max", [0.0, -1.0])
def test_build_rejects_a_lambda_max_that_is_not_positive(lambda_max):
    with pytest.raises(ValueError, match="lambda_max must be positive"):
        build_spectral_measure(builtin_operator("cosine"), 16.0, 512,
                               lambda_max=lambda_max)


@pytest.mark.parametrize("L, N, message", [
    (16.0, 15, "N must be at least 16"),
    (0.0, 512, "L must satisfy a < L < b"),
    (math.inf, 512, "L must satisfy a < L < b"),
])
def test_build_rejects_a_size_or_cut_outside_its_range(L, N, message):
    with pytest.raises(ValueError, match=message):
        build_spectral_measure(builtin_operator("cosine"), L, N,
                               lambda_max=100.0)


def test_inverse_transform_rejects_a_table_of_other_atoms(sm_cosine):
    values = np.ones(len(sm_cosine))
    grid = np.linspace(0.0, 4.0, 5)
    for lambdas in (sm_cosine.lambdas[:-1], sm_cosine.lambdas * (1 + 1e-9)):
        table = TransformTable(lambdas, values[:len(lambdas)])
        with pytest.raises(ValueError, match="does not match the measure"):
            inverse_transform(table, sm_cosine, grid)


def test_bisection_sees_a_neighbour_past_lambda_max(monkeypatch):
    """Eigenvalues 1, 2, ..., 10 and 10 + 1e-5, all but decoupled, with
    lambda_max between the last two: the only close pair straddles
    lambda_max, so the gap of the top eigenvalue shows only in a count past
    lambda_max, and its chunk ends at the floor, not at theta times the gap
    1 to the eigenvalue below."""
    calls = _stebz_calls(monkeypatch)
    diag = np.r_[np.arange(1.0, 11.0), 10.0 + 1e-5]
    off = np.full(10, 1e-12)
    lambda_max = 10.0 + 5e-6
    vals, vecs, _ = _eigenpairs(diag, off, lambda_max)
    assert np.allclose(vals, np.arange(1.0, 11.0), rtol=0.0, atol=1e-12)
    assert _tridiag_residual(diag, off, vals, vecs) <= 1e-12
    assert _check_gap_tolerances(calls, lambda_max) == 1


def test_eigenpairs_of_a_split_matrix_come_out_ascending():
    """Where the matrix splits, bisection lists the eigenvalues block by
    block; here the two blocks' spectra interleave, and _eigenpairs still
    returns them ascending, each with its own vector, in rows 1..n of its
    table, whose first and last rows stay zero."""
    n = 40
    diag = np.r_[np.full(n, 2.0), np.full(n, 3.0)]
    off = np.full(2 * n - 1, -1.0)
    off[n - 1] = 0.0
    vals, vecs, table = _eigenpairs(diag, off, 2.5)
    assert table.shape == (2 * n + 2, len(vals))
    assert np.shares_memory(vecs, table[1:-1]) and vecs.shape == (2 * n, len(vals))
    assert not table[[0, -1]].any()
    lap = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    both = np.sort(np.r_[lap, lap + 1.0])
    assert np.allclose(vals, both[both <= 2.5], rtol=0.0, atol=1e-12)
    assert _tridiag_residual(diag, off, vals, vecs) <= 1e-12
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(len(vals)))) <= 1e-9


# (operator, L, N, lambda_max): the three families of the measure-build
# benchmark, and the sm_cosine_dense fixture, whose lambda_max gives the
# loosest bisection tolerance
SL_MATRICES = [
    ("cosine", 16.0, 2048, 1600.0),
    ("bessel?alpha=0.5", 12.0, 4096, 1600.0),
    ("whittaker?alpha=0.25&kappa=1.0", 12.0, 4096, 1600.0),
    ("cosine", 20.0, 4096, 1.0e4),
]


@pytest.mark.parametrize("name, L, N, lambda_max", SL_MATRICES)
def test_eigenpairs_match_mrrr(name, L, N, lambda_max, monkeypatch):
    """On the fine and the coarse matrix of each build, the eigenvalues
    agree with MRRR (LAPACK stemr) within 1e-9 max(1, |lambda|).  A full
    bisection misses this on the graded Bessel matrices by 1e-6, its
    tolerance ulp ||T|| with ||T|| about 1e10."""
    mats = []
    eigenpairs = spectral._eigenpairs

    def spy(diag, off, lam_max):
        vals, vecs, table = eigenpairs(diag, off, lam_max)
        mats.append((diag, off, lam_max, vals))
        return vals, vecs, table

    monkeypatch.setattr(spectral, "_eigenpairs", spy)
    build_spectral_measure(builtin_operator(name), L, N, lambda_max=lambda_max)
    assert len(mats) == 2
    for diag, off, lam_max, vals in mats:
        ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                               select_range=(-1e-9, lam_max),
                               lapack_driver="stemr")
        assert len(vals) == len(ref)
        assert np.all(np.abs(vals - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("name, L, N, lambda_max", SL_MATRICES)
def test_bisection_tolerances_follow_the_gaps(name, L, N, lambda_max,
                                              monkeypatch):
    """The chunk tolerances of the fine and the coarse matrix of each build
    (_check_gap_tolerances)."""
    calls = _stebz_calls(monkeypatch)
    build_spectral_measure(builtin_operator(name), L, N, lambda_max=lambda_max)
    assert _check_gap_tolerances(calls, lambda_max) == 2


@pytest.mark.parametrize("name, L, N", [
    ("cosine", 16.0, 2048),
    ("whittaker?alpha=0.25&kappa=1.0", 12.0, 4096),
])
def test_gap_tolerances_keep_the_measure_of_a_tight_bisection(name, L, N,
                                                              monkeypatch):
    """A build whose bisection follows the gaps against the same build with
    every bisection pinned to 1e-13.  Over ten builds (the three families,
    the CLI's cosine sizes and four Bessel builds) the largest differences
    from such a reference were 2.0e-13 relative in the eigenvalues, 6.3e-9
    relative in the masses and 1.3e-9 in w_values on [0.05, 11.5], against
    2.9e-13, 7.5e-9 and 1.6e-9 for one bisection of the whole interval to
    1e-8 lambda_max; each bound is twice the latter."""
    spec = builtin_operator(name)
    sm = build_spectral_measure(spec, L, N, lambda_max=1600.0)
    _stebz_calls(monkeypatch, pin=1e-13)
    ref = build_spectral_measure(spec, L, N, lambda_max=1600.0)
    assert len(sm) == len(ref)
    assert np.max(np.abs(sm.lambdas / ref.lambdas - 1.0)) <= 6e-13
    assert np.max(np.abs(sm.masses / ref.masses - 1.0)) <= 1.5e-8
    xs = np.linspace(0.05, 11.5, 777)
    assert np.max(np.abs(sm.w_values(xs) - ref.w_values(xs))) <= 3.2e-9


@pytest.mark.parametrize("name, L, N, n_ode", [
    ("cosine", 16.0, 2048, 1),
    ("whittaker?alpha=0.25&kappa=1.0", 12.0, 4096, 0),
])
def test_normalization_integrates_only_fallback_windows(name, L, N, n_ode,
                                                        monkeypatch):
    """The normalization reads each atom on its own window of leading
    nodes.  Where the series covers at least 3 of them, no ODE runs: on
    Whittaker at all, and on cosine's fine level.  On cosine's coarse
    level (N=1024) the atoms above about lambda 455 have fewer than 3 such
    nodes; their one stacked solve stops at the last node of their window,
    the 20th."""
    events = []
    normalize = spectral._normalize
    integrate = KernelEvaluator._integrate

    def spy_normalize(evaluator, nodes, *args):
        events.append(("level", nodes))
        return normalize(evaluator, nodes, *args)

    def spy_integrate(self, lams, x0, w0, w10, xs):
        events.append(("ode", np.max(xs)))
        return integrate(self, lams, x0, w0, w10, xs)

    monkeypatch.setattr(spectral, "_normalize", spy_normalize)
    monkeypatch.setattr(KernelEvaluator, "_integrate", spy_integrate)
    build_spectral_measure(builtin_operator(name), L, N, lambda_max=1600.0)
    assert [kind for kind, _ in events].count("ode") == n_ode
    nodes = None
    for kind, value in events:
        if kind == "level":
            nodes = value
        else:
            assert value <= nodes[19]
