"""Operator specifications, standard form, and the maximum-principle
certificate."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slhyper.operator import (builtin_operator, build_standard_form,
                              certify_mp, check_left_boundary, load_operator,
                              support_params)


@pytest.fixture(scope="module")
def sf_cosine():
    return build_standard_form(builtin_operator("cosine"))


@pytest.fixture(scope="module")
def sf_bessel():
    return build_standard_form(builtin_operator("bessel?alpha=0.5"))


@pytest.fixture(scope="module")
def sf_whittaker():
    return build_standard_form(builtin_operator("whittaker?alpha=0.25&kappa=1.0"))


def test_builtins_validate():
    for name in ("cosine", "bessel?alpha=0.5", "bessel?alpha=1.5",
                 "whittaker?alpha=0.25&kappa=1.0"):
        builtin_operator(name).validate()


def test_builtin_rejects_bad_parameters():
    with pytest.raises(ValueError):
        builtin_operator("bessel?alpha=-0.8")
    with pytest.raises(ValueError):
        builtin_operator("whittaker?alpha=0.6&kappa=1")
    with pytest.raises(ValueError):
        builtin_operator("nosuch")


def test_left_boundary_cosine():
    rep = check_left_boundary(builtin_operator("cosine"))
    assert rep["finite"]
    assert rep["value"] == pytest.approx(0.5, abs=1e-8)


def test_gamma_identity_for_cosine(sf_cosine):
    # p = r = 1 makes gamma a unit-speed shift
    for x in (0.25, 1.0, 3.7):
        assert sf_cosine.gamma(x) == pytest.approx(x - 1.0, abs=1e-10)
    assert sf_cosine.gamma_a == pytest.approx(-1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.05, 40.0))
def test_gamma_inverse_round_trip(x):
    sf = build_standard_form(builtin_operator("bessel?alpha=1.5"))
    assert sf.gamma_inv(sf.gamma(x)) == pytest.approx(x, rel=1e-9, abs=1e-10)


@pytest.fixture(scope="module")
def sf_bessel15():
    return build_standard_form(builtin_operator("bessel?alpha=1.5"))


# unsorted, repeated, on both sides of gamma(c) = 0; gamma(a) = -1 for Bessel
# and -inf for Whittaker
_TARGETS = {"sf_bessel15": [2.5, -0.9, 0.0, 17.0, 2.5, -0.25, 0.3, 6.0],
            "sf_whittaker": [2.5, -4.5, 0.0, 11.0, 2.5, -0.25, 0.3, -2.0]}


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_gamma_inv_array_matches_scalar(name, request):
    sf = request.getfixturevalue(name)
    xi = np.array(_TARGETS[name])
    got = sf.gamma_inv(xi.reshape(2, 4))
    assert got.shape == (2, 4)
    want = [sf.gamma_inv(t) for t in xi]
    # each root is within brentq's xtol + rtol |x| of the true one
    assert np.allclose(got.ravel(), want, rtol=2e-15, atol=2e-12)


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_gamma_of_gamma_inv_array(name, request):
    sf = request.getfixturevalue(name)
    xi = np.array(_TARGETS[name])
    x = sf.gamma_inv(xi)
    # one quadrature from c per point, and chained over the sorted array
    assert np.allclose([sf.gamma(v) for v in x], xi, rtol=0.0, atol=1e-10)
    assert np.allclose(sf.gamma(x), xi, rtol=0.0, atol=1e-10)


def test_gamma_inv_whittaker_near_underflow(sf_whittaker):
    # gamma = log x here; below x ~ 1/745 exp(-1/x) underflows in both p and
    # r, so the bracket toward 0 must step back from where the integral is
    # not finite
    assert sf_whittaker.gamma_inv(-6.0) == pytest.approx(math.exp(-6.0),
                                                         rel=0.0, abs=1e-10)
    with pytest.raises(ValueError, match="beyond reachable range"):
        sf_whittaker.gamma_inv(-8.0)


def test_sigma_estimates(sf_cosine, sf_bessel, sf_whittaker):
    assert sf_cosine.sigma == pytest.approx(0.0, abs=1e-9)
    assert sf_bessel.sigma == pytest.approx(0.0, abs=1e-6)
    # A = x^{zeta0} e^{-kappa/x} with zeta0 = 1 - 2 alpha gives A'/2A -> zeta0/2
    assert sf_whittaker.sigma == pytest.approx(0.25, abs=1e-6)


def test_certificates_all_ok(sf_cosine, sf_bessel, sf_whittaker):
    for sf in (sf_cosine, sf_bessel, sf_whittaker):
        cert = certify_mp(sf)
        assert cert.all_ok, cert.checks


def test_cosine_support_params(sf_cosine):
    params = support_params(certify_mp(sf_cosine))
    # phi and psi vanish identically: both structure radii collapse to zero
    assert params.x0 == 0.0 or params.x0 == math.inf
    assert params.x1 == 0.0
    assert params.eta_at_origin == pytest.approx(0.0, abs=1e-12)


def test_support_params_reject_degenerate(sf_whittaker):
    with pytest.raises(ValueError, match="degenerate"):
        support_params(certify_mp(sf_whittaker))


def test_phi_eta_bessel(sf_bessel):
    cert = certify_mp(sf_bessel)
    # gamma(x) = x - 1, A = x^2: phi = A'/A = 2/(xi + 1)
    xi = np.array([0.0, 0.5, 2.0])
    phi, psi = sf_bessel.mp_coefficients(cert.eta, sf_bessel.gamma_inv(xi), xi)
    assert phi == pytest.approx(2.0 / (xi + 1.0), rel=1e-8)
    assert psi == pytest.approx(np.zeros(3), abs=1e-9)


def test_load_operator_json(tmp_path):
    doc = {"name": "radial3", "a": 0.0, "b": "inf", "p": "x^2", "r": "x^2"}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    spec = load_operator(str(path))
    ref = builtin_operator("bessel?alpha=0.5")
    xs = np.linspace(0.1, 5.0, 11)
    assert np.allclose(spec.p(xs), ref.p(xs))


def test_standard_form_rejects_exterior_anchor():
    with pytest.raises(ValueError):
        build_standard_form(builtin_operator("cosine"), c=-1.0)
