"""Weighted L1 norms, the invertibility check on the spectral strip, and the
resolvent-based equation solver."""

import numpy as np
import pytest

from slhyper.spectral import GridFunction, bump_function, forward_transform
from slhyper.inteq import (EquationProblem, SpectralStrip, _resolvent,
                           l1_kappa_norm, solve_equation, wiener_levy_check)


def test_strip_geometry():
    strip = SpectralStrip(kappa=-1.0, sigma2=0.0)
    assert strip.half_width == pytest.approx(1.0)
    assert strip.contains(2.0)
    assert strip.contains(-0.5)          # inside: sqrt gives imag 0.707
    assert not strip.contains(-2.0)      # below kappa on the real axis
    z = (1.5 + 0.8j) ** 2               # a point with |Im sqrt| = 0.8 < 1
    assert strip.contains(z)
    z = (1.5 + 1.2j) ** 2               # |Im sqrt| = 1.2 > 1
    assert not strip.contains(z)
    assert strip.contains(np.conj(z)) == strip.contains(z)


def test_strip_requires_kappa_below_sigma2():
    with pytest.raises(ValueError):
        SpectralStrip(kappa=1.0, sigma2=0.0)


def test_strip_boundary_curve():
    strip = SpectralStrip(kappa=-2.0, sigma2=0.25)
    hw = strip.half_width
    for tau in (0.0, 1.5, -3.0):
        z = complex(strip.boundary(tau))
        # boundary points sit at the edge of the region, within tolerance
        assert strip.contains(z)
        assert abs(strip.delta(z).imag) == pytest.approx(hw, abs=1e-12)
    assert strip.boundary(0.0) == pytest.approx(-hw ** 2 + strip.sigma2)


def _bump(sm, center=4.0, width=1.5, top=16.0, n=1601):
    g = np.linspace(0.0, top, n)
    return bump_function(center, width, g), g


def test_l1_norm_kappa_zero_matches_quadrature(sm_cosine):
    h, g = _bump(sm_cosine)
    want = np.trapezoid(np.abs(h.values) * sm_cosine.spec.r(g), g)
    assert l1_kappa_norm(h, 0.0, sm_cosine) == pytest.approx(want, rel=1e-6)


def test_l1_norm_nesting(sm_cosine):
    # a deeper strip weights the tail more heavily
    h, _ = _bump(sm_cosine)
    n0 = l1_kappa_norm(h, 0.0, sm_cosine)
    n1 = l1_kappa_norm(h, -1.0, sm_cosine)
    n4 = l1_kappa_norm(h, -4.0, sm_cosine)
    assert n0 <= n1 <= n4


def test_l1_norm_divergence_detected(sm_cosine):
    # exp(-x) decays slower than the kappa = -4 weight cosh(2x) grows
    g = np.linspace(0.0, 40.0, 4001)
    h = GridFunction(g, np.exp(-g))
    with pytest.raises(ValueError, match="divergent"):
        l1_kappa_norm(h, -4.0, sm_cosine)


def test_wiener_levy_zero_f(sm_cosine):
    g = np.linspace(0.0, 12.0, 601)
    zero = GridFunction(g, np.zeros_like(g), compact_support=True,
                        smooth2=True)
    chk = wiener_levy_check(zero, SpectralStrip(0.0, 0.0), 1.0, sm_cosine)
    assert chk.ok
    assert chk.min_modulus == pytest.approx(1.0, abs=1e-12)
    assert chk.tail_modulus == pytest.approx(0.0, abs=1e-12)


def test_wiener_levy_boundary_curve_sampled(sm_cosine):
    # a strip of positive width adds its boundary path to the sample set;
    # keep n small since each complex sample is an ODE solve.  On cosine
    # |Ff| <= int f cosh(x/2) < 2 on the strip |Im sqrt(lambda)| <= 1/2,
    # so rho = 2 leaves no zero there
    h, g = _bump(sm_cosine, center=3.0, width=1.2)
    assert np.trapezoid(h.values * np.cosh(g / 2.0), g) < 1.9
    chk0 = wiener_levy_check(h, SpectralStrip(0.0, 0.0), 2.0, sm_cosine,
                             n=24)
    chk1 = wiener_levy_check(h, SpectralStrip(-0.25, 0.0), 2.0, sm_cosine,
                             n=24)
    assert chk1.n_samples > chk0.n_samples
    assert chk1.ok and chk1.zeros == 0
    assert chk1.min_modulus <= chk0.min_modulus + 1e-12


def test_zeros_of_one_plus_ff_inside_the_strip_are_counted(sm_cosine_512):
    """On cosine Ff(k^2) = int f(x) cos(k x) dx, and for this bump 1 + Ff
    vanishes at k = 1.00679 + 0.45050i and its conjugate, inside the strip
    |Im k| <= 1/2 of kappa = -1/4: the winding number of 1 + Ff along the
    strip's boundary counts both, where the sampled moduli stay above
    0.15."""
    h, g = _bump(sm_cosine_512, center=3.0, width=1.2)
    k0 = 1.0067850119965 + 0.4505032679778j
    assert abs(1.0 + np.trapezoid(h.values * np.cos(k0 * g), g)) < 1e-9
    chk = wiener_levy_check(h, SpectralStrip(-0.25, 0.0), 1.0, sm_cosine_512,
                            n=16)
    assert not chk.ok and chk.zeros == 2
    assert chk.min_modulus > 0.1
    with pytest.raises(ValueError, match="has 2 zeros inside the strip"):
        solve_equation(EquationProblem(f=h, psi=h, kappa=-0.25),
                       sm_cosine_512)


def _resolvent_on_grid(f, rho, sm):
    """The resolvent kernel of f, on the grid of f."""
    bf = sm.basis(f.grid)
    return _resolvent(bf.forward(f.values), rho, sm, bf)[0]


def test_resolvent_pointwise_formula(sm_cosine):
    # transform of the resolvent: Fg = 1/(rho + Ff) - rho, so on the real
    # ray Fg = -Ff/(1+Ff) at rho = 1.  (No domination |Fg| <= |Ff| holds in
    # general; it fails wherever Ff < 0.)
    h, _ = _bump(sm_cosine, center=3.0, width=1.2)
    rr = _resolvent_on_grid(h, 1.0, sm_cosine)
    ff = forward_transform(h, sm_cosine).values
    want = -ff / (1.0 + ff)
    assert np.max(np.abs(rr.fg.values - want)) < 1e-10
    assert rr.round_trip_residual < 1e-12
    assert rr.forward_recheck < 1e-2


def test_resolvent_of_zero_is_zero(sm_cosine):
    g = np.linspace(0.0, 12.0, 601)
    zero = GridFunction(g, np.zeros_like(g), compact_support=True,
                        smooth2=True)
    rr = _resolvent_on_grid(zero, 1.0, sm_cosine)
    assert np.max(np.abs(rr.fg.values)) < 1e-14
    assert np.max(np.abs(rr.g.values)) < 1e-12


def test_solve_equation_zero_psi(sm_cosine):
    f, g = _bump(sm_cosine, center=3.0, width=1.2)
    psi = GridFunction(g, np.zeros_like(g), compact_support=True,
                       smooth2=True)
    sol = solve_equation(EquationProblem(f=f, psi=psi, kappa=0.0), sm_cosine)
    assert np.max(np.abs(sol.h.values)) < 1e-10


def test_solve_equation_zero_f_returns_psi(sm_cosine):
    g = np.linspace(0.0, 16.0, 1601)
    zero = GridFunction(g, np.zeros_like(g), compact_support=True,
                        smooth2=True)
    psi = bump_function(5.0, 2.0, g)
    sol = solve_equation(EquationProblem(f=zero, psi=psi, kappa=0.0),
                         sm_cosine)
    assert np.max(np.abs(sol.h.values - psi.values)) < 1e-8


def test_solve_equation_in_a_strip_of_whittaker(sm_whittaker):
    # Whittaker's spectrum starts at sigma^2 = 1/16, so kappa = 0.05 poses
    # the equation on a strip of half width sqrt(1/16 - 0.05)
    g = np.linspace(0.0, 8.0, 401)
    f, psi = bump_function(3.0, 1.0, g), bump_function(4.0, 1.5, g)
    sol = solve_equation(EquationProblem(f=f, psi=psi, kappa=0.05),
                         sm_whittaker)
    assert sol.diagnostics["min_modulus"] > 1e-8
    assert sol.diagnostics["transform_residual"] < 1e-3


def test_solve_equation_transform_residual(sm_cosine):
    f, g = _bump(sm_cosine, center=3.0, width=1.2)
    psi = bump_function(5.0, 2.0, g)
    sol = solve_equation(EquationProblem(f=f, psi=psi, kappa=0.0), sm_cosine)
    assert sol.diagnostics["min_modulus"] > 1e-8
    assert sol.diagnostics["transform_residual"] < 1e-3


def test_kappa_zero_on_bessel_is_the_ray(sm_bessel, monkeypatch):
    # sigma = 0 for Bessel, so kappa = 0 is kappa = sigma2: the strip is
    # the real ray, and the check samples Ff at real lambda only
    import slhyper.inteq as inteq

    g = np.linspace(0.0, 12.0, 401)
    f, psi = bump_function(3.0, 1.0, g), bump_function(5.0, 2.0, g)
    assert SpectralStrip(0.0, sm_bessel.sigma2).half_width <= 1e-14
    samples = []
    transform_samples = inteq._transform_samples

    def spy(f, lams, sm):
        samples.extend(np.asarray(lams))
        return transform_samples(f, lams, sm)

    monkeypatch.setattr(inteq, "_transform_samples", spy)
    sol = solve_equation(EquationProblem(f=f, psi=psi, kappa=0.0), sm_bessel)
    assert np.all(np.imag(samples) == 0.0)
    ref = solve_equation(EquationProblem(f=f, psi=psi,
                                         kappa=sm_bessel.sigma2), sm_bessel)
    assert sol.diagnostics == ref.diagnostics
    assert np.array_equal(sol.h.values, ref.h.values)


def test_l1_kappa_norm_needs_kappa_at_most_sigma2(sm_cosine):
    h = bump_function(4.0, 1.5, np.linspace(0.0, 10.0, 201))
    with pytest.raises(ValueError, match="kappa must not exceed sigma2"):
        l1_kappa_norm(h, 1.0, sm_cosine)


def test_a_zero_inside_the_strip_is_not_solvable(tmp_path):
    """p = r = sinh(x)^2 has sigma2 = 1, and for f = e^{-x^2} the transform
    is sqrt(pi) e^{(1 - k^2)/4} sin(k/2) / (2k) at lambda = 1 + k^2.  With
    kappa = 0 the strip is |Im k| <= 1, so k0 = 2 + 0.5i lies inside it,
    and rho = -Ff(1 + k0^2) makes rho + Ff vanish there."""
    import cmath

    from slhyper.operator import load_operator
    from slhyper.spectral import build_spectral_measure

    path = tmp_path / "jac.json"
    path.write_text('{"name": "jacobi", "a": 0.0, "b": "inf", '
                    '"p": "sinh(x)^2", "r": "sinh(x)^2", "eta": "0"}')
    sm = build_spectral_measure(load_operator(str(path)), 16.0, 2048,
                                lambda_max=1600.0)
    xs = np.linspace(0.0, 12.0, 2401)
    f = GridFunction(xs, np.exp(-xs ** 2))
    k0 = 2.0 + 0.5j
    rho = -(np.sqrt(np.pi) * cmath.exp((1.0 - k0 ** 2) / 4.0)
            * cmath.sin(k0 / 2.0) / (2.0 * k0))
    chk = wiener_levy_check(f, SpectralStrip(0.0, sm.sigma2), rho, sm, n=16)
    assert not chk.ok and chk.zeros == 1
    # the same rho + Ff has no zero in the narrower strip |Im k| <= 0.4
    narrow = wiener_levy_check(f, SpectralStrip(1.0 - 0.16, sm.sigma2), rho,
                               sm, n=16)
    assert narrow.ok and narrow.zeros == 0
