"""Product measures, translation, convolution, and the support geometry."""

import numpy as np
import pytest

from slhyper.operator import (SupportParams, _merge, build_standard_form,
                              builtin_operator, classify_support)
from slhyper.spectral import GridFunction, bump_function, forward_transform
from slhyper.hconv import (approx_nu, convolve_functions, convolve_measures,
                           product_density, product_formula_residual,
                           translate)


def test_product_density_mass_and_sign(sm_cosine):
    t, x, y = 0.02, 2.0, 1.0
    xi = np.linspace(0.0, 8.0, 801)
    pk = product_density(t, x, y, xi, sm_cosine)
    r = sm_cosine.spec.r(xi)
    mass = np.trapezoid(pk.values * r, xi)
    assert mass == pytest.approx(1.0, abs=5e-3)
    assert pk.values.min() > -1e-6


@pytest.mark.parametrize("t", [0.0, -0.5])
def test_product_kernels_need_a_positive_t(sm_cosine, t):
    xi = np.linspace(0.0, 8.0, 81)
    with pytest.raises(ValueError, match="t must be positive"):
        product_density(t, 2.0, 1.0, xi, sm_cosine)
    with pytest.raises(ValueError, match="t must be positive"):
        product_formula_residual(1.0, t, 2.0, 1.0, sm_cosine, xi)


def test_product_density_follows_its_grid(sm_cosine):
    # two grids with the same endpoints and length but different interior
    # nodes must each get their own density
    t, x, y = 0.02, 2.0, 1.0
    u = np.linspace(0.0, 1.0, 3001)
    keep = np.exp(-t * sm_cosine.lambdas) >= 1e-16
    coef = (sm_cosine.masses * np.exp(-t * sm_cosine.lambdas)
            * sm_cosine.w_values([x])[:, 0] * sm_cosine.w_values([y])[:, 0])
    for xi in (8.0 * u, 8.0 * u ** 2):
        pk = product_density(t, x, y, xi, sm_cosine)
        assert np.array_equal(pk.xi, xi)
        direct = coef[keep] @ sm_cosine.w_values(xi)[keep]
        assert np.allclose(pk.values, direct, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("xi", [[3.0], np.linspace(5.0, 0.0, 11),
                                [0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 2.0],
                                [0.0, np.nan, 2.0], [0.0, 1.0, np.inf]])
def test_product_density_rejects_bad_grids(sm_cosine, xi):
    with pytest.raises(ValueError, match="xi grid"):
        product_density(0.5, 1.0, 1.0, xi, sm_cosine)


def test_approx_nu_schedule_validation(sm_cosine):
    with pytest.raises(ValueError):
        approx_nu(1.0, 2.0, sm_cosine, t_schedule=(0.1, 0.1))
    with pytest.raises(ValueError):
        approx_nu(1.0, 2.0, sm_cosine, t_schedule=(0.1, -0.01))


def test_approx_nu_density_concentrates(sm_cosine):
    # for the flat operator delta_x * delta_y is supported at |x-y| and x+y;
    # the smoothed density should put nearly all mass near those two points
    ap = approx_nu(2.0, 1.0, sm_cosine,
                   t_schedule=(0.02, 0.01, 0.005, 0.002, 0.001))
    assert ap.mass == pytest.approx(1.0, abs=5e-3)
    assert ap.atoms is None
    assert ap.cauchy_gaps.shape == (4,)
    d = ap.density
    r = sm_cosine.spec.r(d.grid)
    near = (np.abs(d.grid - 1.0) < 0.3) | (np.abs(d.grid - 3.0) < 0.3)
    inside = np.trapezoid(np.where(near, d.values * r, 0.0), d.grid)
    assert inside == pytest.approx(1.0, abs=2e-2)


def test_approx_nu_boundary_shortcut(sm_cosine):
    ap = approx_nu(0.0, 2.5, sm_cosine)
    assert ap.atoms == ((2.5, 1.0),)
    assert ap.mass == 1.0
    assert ap.density is None


def test_translate_at_origin_is_identity(sm_cosine):
    g = np.linspace(0.0, 12.0, 901)
    h = bump_function(5.0, 2.0, g)
    out = translate(h, 0.0, sm_cosine, t_reg=1e-6)
    assert np.allclose(out.values, h.values)


def test_translate_atomic_shortcut_matches_spectral(sm_cosine):
    # for the flat operator delta_x * delta_y has two atoms, at |x - y| and
    # x + y, so T^y h = (h(|x - y|) + h(x + y)) / 2; translate itself takes
    # only t_reg > 0
    g = np.linspace(0.0, 14.0, 1401)
    h = bump_function(5.0, 2.0, g)
    y = 1.5
    exact = 0.5 * (h(np.abs(g - y)) + h(g + y))
    spect = translate(h, y, sm_cosine, t_reg=1e-6)
    err = np.max(np.abs(exact - spect.values.real))
    assert err < 2e-3
    for t_reg in (0.0, -1e-6):
        with pytest.raises(ValueError, match="t_reg must be positive"):
            translate(h, y, sm_cosine, t_reg=t_reg)


def test_translate_diagonalizes(sm_cosine):
    # F(T^y h)(lam) = w_lam(y) F(h)(lam), up to the heat regularization
    g = np.linspace(0.0, 14.0, 1401)
    h = bump_function(5.0, 2.0, g)
    y, t_reg = 2.0, 1e-6
    th = GridFunction(g, translate(h, y, sm_cosine, t_reg).values.real,
                      compact_support=True)
    fh = forward_transform(h, sm_cosine).values
    fth = forward_transform(th, sm_cosine).values
    wy = sm_cosine.w_values(np.array([y]))[:, 0]
    keep = sm_cosine.lambdas < 400.0
    assert np.allclose(fth[keep], (wy * fh)[keep], atol=2e-4)


def test_convolve_symmetric(sm_cosine):
    g = np.linspace(0.0, 16.0, 1601)
    h = bump_function(4.0, 1.5, g)
    k = bump_function(6.0, 2.0, g)
    hk = convolve_functions(h, k, sm_cosine, t_reg=1e-6)
    kh = convolve_functions(k, h, sm_cosine, t_reg=1e-6)
    assert np.max(np.abs(hk.values - kh.values)) < 1e-10
    with pytest.raises(ValueError):
        convolve_functions(h, k, sm_cosine, t_reg=0.0)


def test_convolve_measures_delta_identity(sm_cosine):
    # delta_a is the unit: transform of delta_a * mu equals that of mu
    mu = (((0.0, 1.0),))
    nu = ((1.0, 0.5), (2.5, 0.5))
    out = convolve_measures(mu, nu, sm_cosine)
    assert np.allclose(out.product, out.nu_hat, atol=1e-12)
    assert np.allclose(out.mu_hat, 1.0, atol=1e-12)


def _sf_cosine():
    return build_standard_form(builtin_operator("cosine"))


def test_convolve_measures_density_sums_product_densities(sm_cosine):
    t = 0.05
    mu = [(1.0, 0.3), (2.5, 0.7)]
    nu = [(0.5, 0.6), (1.5, 0.4)]
    dens = convolve_measures(mu, nu, sm_cosine, t_reg=t).density
    want = sum(wi * wj * product_density(t, xi, yj, dens.grid, sm_cosine).values
               for xi, wi in mu for yj, wj in nu)
    assert np.allclose(dens.values, want, rtol=1e-12, atol=1e-12)


def test_classify_support_case_a():
    sf = _sf_cosine()
    par = SupportParams(x0=np.inf, x1=0.0, eta_at_origin=0.0)
    rep = classify_support(3.0, 1.0, sf, par)
    assert rep.case == "a"
    assert len(rep.intervals) == 2
    (l0, h0), (l1, h1) = sorted(rep.intervals)
    assert l0 == pytest.approx(2.0, abs=1e-9) and h0 == pytest.approx(2.0, abs=1e-9)
    assert l1 == pytest.approx(4.0, abs=1e-9) and h1 == pytest.approx(4.0, abs=1e-9)


def test_classify_support_case_c_interval():
    sf = _sf_cosine()
    par = SupportParams(x0=np.inf, x1=2.0, eta_at_origin=0.0)
    rep = classify_support(3.0, 1.0, sf, par)
    assert rep.case == "c"
    lo = min(lo for lo, _ in rep.intervals)
    hi = max(hi for _, hi in rep.intervals)
    assert lo == pytest.approx(2.0, abs=1e-9)
    assert hi == pytest.approx(4.0, abs=1e-9)


# on the cosine standard form gamma(x) - gamma(a) = x, so the support is
# the one in the standard coordinate s
@pytest.mark.parametrize("par, x, y, case, want", [
    ((5.0, 0.0, 0.0), 2.0, 1.0, "b", ((1.0, 1.0), (3.0, 3.0))),
    ((5.0, 0.0, 0.0), 2.0, 2.0, "b", ((0.0, 0.0), (4.0, 4.0))),
    ((5.0, 0.0, 0.0), 3.0, 2.5, "b", ((0.5, 0.5), (4.5, 5.5))),
    ((5.0, 0.0, 0.0), 6.0, 1.0, "b", ((5.0, 7.0),)),
    ((np.inf, 1.0, 0.0), 4.0, 3.0, "c", ((1.0, 3.0), (5.0, 7.0))),
    ((np.inf, 1.0, 0.0), 4.0, 1.5, "c", ((2.5, 5.5),)),
    ((10.0, 1.0, 0.0), 4.0, 3.0, "d", ((1.0, 3.0), (5.0, 7.0))),
    ((10.0, 1.0, 0.0), 9.5, 3.0, "d", ((6.5, 12.5),)),
    ((10.0, 1.0, 0.0), 4.0, 1.5, "d", ((2.5, 5.5),)),
    ((2.0, 1.0, 0.0), 4.0, 3.0, "e", ((1.0, 7.0),)),
    ((np.inf, 0.0, 0.5), 4.0, 3.0, "e", ((1.0, 7.0),)),
])
def test_classify_support_cases(par, x, y, case, want):
    rep = classify_support(x, y, _sf_cosine(), SupportParams(*par))
    assert rep.case == case and rep.gamma_mapped
    assert np.allclose(rep.intervals, want, rtol=0.0, atol=1e-12)


def test_merge_joins_overlapping_and_touching_intervals():
    assert _merge([(3.0, 4.0), (1.0, 2.5), (2.5, 3.5)]) == ((1.0, 4.0),)
    assert _merge([(0.0, 1.0), (1.0 + 5e-15, 2.0)]) == ((0.0, 2.0),)
    assert _merge([(2.0, 3.0), (0.0, 1.0)]) == ((0.0, 1.0), (2.0, 3.0))


def test_classify_support_degenerate():
    sf = build_standard_form(builtin_operator("whittaker?alpha=0.25&kappa=1.0"))
    rep = classify_support(3.0, 1.0, sf, None)
    assert rep.case == "degenerate_full"
    assert not rep.gamma_mapped


def test_classify_support_needs_params_when_finite():
    sf = _sf_cosine()
    with pytest.raises(ValueError):
        classify_support(3.0, 1.0, sf, None)
