"""Operator specifications, standard form, and the maximum-principle
certificate."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slhyper import operator
from slhyper.expr import parse_expression
from slhyper.operator import (OperatorSpec, builtin_operator,
                              build_standard_form, certify_mp,
                              check_left_boundary, classify_support,
                              load_operator, support_params)


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


@pytest.mark.parametrize("alpha", [-0.25, 0.5, 1.5])
def test_left_boundary_bessel_closed_form(alpha):
    # p = r = x^(2 alpha + 1) and c = 1: the nested integral is 1/(4(alpha+1))
    rep = check_left_boundary(builtin_operator(f"bessel?alpha={alpha}"))
    assert rep["finite"] and len(rep["refinement_trace"]) == 14
    assert rep["value"] == pytest.approx(1.0 / (4.0 * (alpha + 1.0)),
                                         rel=0.0, abs=1e-10)


def test_left_boundary_whittaker_stops_at_the_float_range():
    # 1/p overflows below x ~ 1/700, inside the fifth piece: four pieces
    # and their tail
    rep = check_left_boundary(builtin_operator("whittaker?alpha=0.25&kappa=1.0"))
    assert rep["finite"] and len(rep["refinement_trace"]) == 4
    assert rep["value"] == pytest.approx(0.6618621606211247, rel=1e-9)


def test_left_boundary_anchor_inside_a_left_infinite_interval():
    # on (-oo, -1) the anchor is c = b - 1 = -2, as in the standard form;
    # with p = 1 the integral is int_-oo^c r(y) (c - y) dy
    # = e^-1 (Gamma(5/2, 1) - Gamma(3/2, 1))
    from scipy.special import gamma, gammaincc
    rep = check_left_boundary(_spec(-math.inf, -1.0, "1", "exp(x)*sqrt(-1-x)"))
    want = math.exp(-1.0) * (gamma(2.5) * gammaincc(2.5, 1.0)
                             - gamma(1.5) * gammaincc(1.5, 1.0))
    assert rep["finite"]
    assert rep["value"] == pytest.approx(want, rel=1e-10, abs=0.0)


def test_left_boundary_log_divergence():
    # p = x^3, r = x: r(y) int_y^1 dx/p = (1/y - y)/2 is not integrable at 0
    rep = check_left_boundary(_spec(0.0, math.inf, "x^3", "x"))
    assert not rep["finite"]


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
    # the array's roots are the scalar ones, up to the Newton steps' rounding
    assert np.allclose(got.ravel(), want, rtol=2e-15, atol=2e-12)


@pytest.mark.parametrize("name", sorted(_TARGETS))
def test_gamma_of_gamma_inv_array(name, request):
    sf = request.getfixturevalue(name)
    xi = np.array(_TARGETS[name])
    x = sf.gamma_inv(xi)
    # gamma of one point and of the whole array read the same table
    assert np.allclose([sf.gamma(v) for v in x], xi, rtol=0.0, atol=1e-10)
    assert np.allclose(sf.gamma(x), xi, rtol=0.0, atol=1e-10)


def test_gamma_inv_whittaker_near_underflow(sf_whittaker):
    # gamma = log x here; below x ~ 1/745 exp(-1/x) underflows in both p and
    # r, but sqrt(r/p) = 1/x is read from their logs, so the table toward 0
    # runs to its last node, x = 2^-60 (gamma = -41.59)
    t = np.linspace(-30.0, 0.0, 61)
    assert sf_whittaker.gamma_inv(t) == pytest.approx(np.exp(t), rel=1e-12,
                                                      abs=0.0)
    with pytest.raises(ValueError, match="beyond reachable range"):
        sf_whittaker.gamma_inv(-42.0)


@pytest.mark.parametrize("t", [-6.5, -6.55, -6.59, -6.6, -6.6001])
def test_gamma_inv_whittaker_at_underflow_edge(sf_whittaker, t):
    # p is subnormal from t ~ -6.55, where sqrt(r/p) turns from the direct
    # form to the log form: a target on either side is reached to full
    # accuracy
    x = sf_whittaker.gamma_inv(t)
    assert x == pytest.approx(math.exp(t), rel=1e-12, abs=0.0)


def _spec(a, b, p, r):
    return OperatorSpec("closed-form", a, b, parse_expression(p),
                        parse_expression(r))


# (operator, c, gamma_a, sigma, points, gamma in closed form); for the unit
# interval A = sqrt(p r) = 1/(1-x), so A'/(2A) = 1/2 at every xi
_CLOSED_FORMS = {
    "line": (_spec(-math.inf, math.inf, "1", "1"), 0.0, -math.inf, 0.0,
             np.array([-1e6, -3.0, -1e-9, 0.0, 0.7, 40.0, 1e6]),
             lambda x: x),
    "unit": (_spec(0.0, 1.0, "1", "(1-x)^-2"), 0.5, -math.log(2.0), 0.5,
             np.array([1e-9, 1e-3, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-6]),
             lambda x: np.log(0.5 / (1.0 - x))),
    "whittaker": (builtin_operator("whittaker?alpha=0.25&kappa=1.0"), 1.0,
                  -math.inf, 0.25, np.geomspace(2e-3, 1e6, 37), np.log),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
def test_gamma_closed_forms(name):
    spec, c, gamma_a, sigma, xs, exact = _CLOSED_FORMS[name]
    sf = build_standard_form(spec)
    assert sf.c == c
    assert sf.gamma_a == pytest.approx(gamma_a, abs=1e-10)
    assert sf.sigma == pytest.approx(sigma, abs=1e-6)
    assert np.allclose(sf.gamma(xs), exact(xs), rtol=1e-10, atol=1e-10)
    assert np.allclose(sf.gamma_inv(sf.gamma(xs)), xs, rtol=1e-10, atol=1e-10)


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


@pytest.mark.parametrize("vanish, depart, case", [
    (0, 200, "b"), (300, None, "c"), (100, 400, "d")])
def test_support_params_read_where_phi_vanishes_and_psi_departs(
        sf_bessel, vanish, depart, case):
    """A certified certificate whose phi vanishes from probe `vanish` on
    and whose psi departs from its first value at probe `depart` (never,
    for None): x1 is the probe's s where phi vanishes, x0 the s of the last
    probe before psi departs, and eta(0) = 0 gives cases b, c and d."""
    cert = certify_mp(sf_bessel)
    k = np.arange(len(cert.grid_s))
    phi = np.where(k >= vanish, 0.0, 1.0)
    psi = np.zeros(len(k)) if depart is None else np.where(k >= depart, 1.0, 0.0)
    par = support_params(dataclasses.replace(cert, phi_values=phi,
                                             psi_values=psi))
    s = cert.grid_s
    assert par.x1 == (0.0 if vanish == 0 else s[vanish])
    assert par.x0 == (math.inf if depart is None else s[depart - 1])
    assert classify_support(3.0, 1.0, sf_bessel, par).case == case


def test_exponential_weight_on_the_line_has_the_support_of_bessel_zero():
    """p = 1, r = e^x on the line is Bessel-Kingman alpha = 0 under
    xi = 2 e^{x/2}, with gamma(a) = -2.  Its MP probes stop where
    xi - gamma(a) reaches 1e6, as the x-form's do, so both forms get one
    case, and the intervals are gamma^-1(gamma(a) + [|u - v|, u + v]),
    u = 2 e^{x/2}: 2 log(s / 2), since gamma(x) = 2 e^{x/2} - 2."""
    spec = OperatorSpec("expline", -math.inf, math.inf, parse_expression("1"),
                        parse_expression("exp(x)"))
    sf = build_standard_form(spec)
    sf_b = build_standard_form(builtin_operator("bessel?alpha=0"))
    x, y = 1.0, 0.5
    u, v = 2.0 * math.exp(x / 2.0), 2.0 * math.exp(y / 2.0)
    rep = classify_support(x, y, sf, support_params(certify_mp(sf)))
    rep_b = classify_support(u, v, sf_b, support_params(certify_mp(sf_b)))
    assert rep.case == rep_b.case == "extrapolated_e"
    want = [[2.0 * math.log(abs(u - v) / 2.0), 2.0 * math.log((u + v) / 2.0)]]
    assert np.allclose(rep.intervals, want, rtol=0.0, atol=1e-12)
    assert np.allclose(rep_b.intervals, [[abs(u - v), u + v]], rtol=0.0,
                       atol=1e-12)


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



@pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
def test_bessel_sigma_is_zero(alpha):
    # A'/(2A) = (2 alpha + 1) / (2x) at c + 4^k: its tail limit is 0 to
    # rounding (2e-16 to 2e-15)
    sf = build_standard_form(builtin_operator(f"bessel?alpha={alpha}"))
    assert 0.0 <= sf.sigma <= 1e-14


@pytest.mark.parametrize("alpha, kappa", [(0.25, 1.0), (-1.0, 2.0)])
def test_whittaker_sigma_is_the_limit(alpha, kappa):
    # A'/(2A) = (1 - 2 alpha) / 2 + kappa / (2x), so sigma = 1/2 - alpha
    sf = build_standard_form(
        builtin_operator(f"whittaker?alpha={alpha}&kappa={kappa}"))
    assert abs(sf.sigma - (0.5 - alpha)) <= 1e-12


def test_sigma_drops_probes_past_the_float_range():
    # A = e^x, so A'/(2A) = 1/2; from the probe c + 4^5 = 1025 on, p and r
    # overflow and A'/(2A) is nan there
    spec = OperatorSpec("exp", 0.0, math.inf, parse_expression("exp(x)"),
                        parse_expression("exp(x)"))
    with np.errstate(over="ignore"):
        sf = build_standard_form(spec)
    assert abs(sf.sigma - 0.5) <= 1e-12


@pytest.mark.parametrize("coeff", ["sinh(x)^4 * cosh(x)^2",
                                   "tanh(x)^4 * cosh(x)^6",
                                   "sinh(x)^2 * cosh(x)^4"])
def test_sigma_where_p_r_overflows(coeff, tmp_path):
    # Jacobi p = r = sinh^(2 alpha + 1) cosh^(2 beta + 1), sigma = alpha +
    # beta + 1 = 3.  p r grows like e^(12x) and overflows past x = 59.8,
    # so it lost the probe c + 4^3 = 65, while p and r stay finite to 119
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"a": 0.0, "b": "inf", "p": coeff, "r": coeff}))
    sf = build_standard_form(load_operator(str(path)))
    assert abs(sf.sigma - 3.0) <= 1e-12


def test_sigma_where_a_coefficient_is_0_times_inf(tmp_path):
    # p = r = sinh(x)^-0.5 cosh(x) is 0 times inf past x = 710 and loads;
    # A'/(2A) = (tanh x - coth(x) / 2) / 2 -> 1/4
    coeff = "sinh(x)^-0.5 * cosh(x)"
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"a": 0.0, "b": "inf", "p": coeff, "r": coeff}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sf = build_standard_form(load_operator(str(path)))
    assert abs(sf.sigma - 0.25) <= 1e-12


def test_gauss_legendre_rule_is_leggauss():
    x, w = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(operator._GL_X, x)
    assert np.array_equal(operator._GL_W, w)


def test_operator_with_a_kink_at_the_first_sigma_probe(tmp_path):
    # c = 1, so the first sigma probe c + 4^0 = 2 sits on the kink of p,
    # where p' = sign(0) = 0
    doc = {"name": "kink", "a": 0.0, "b": "inf", "p": "abs(x - 2) + 1",
           "r": "pow(x, 2) + exp(-x)", "eta": "0"}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    spec = load_operator(str(path))
    assert float(spec.p.derivative(2.0)) == 0.0
    sf = build_standard_form(spec)
    assert 0.0 <= sf.sigma <= 1e-14
    assert check_left_boundary(spec)["finite"]


@pytest.mark.parametrize("coeff", ["sinh(x)^2", "exp(x)", "cosh(x)"])
def test_validate_accepts_overflow_toward_b(coeff):
    # the probes run to 1e4, past the float range of each coefficient
    spec = OperatorSpec("overflow", 0.0, math.inf, parse_expression(coeff),
                        parse_expression(coeff))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec.validate()


@pytest.mark.parametrize("coeff", ["exp(1000 - x)", "sinh(x)^-0.5 * cosh(x)",
                                   "x^60 * exp(-1/x)"])
def test_validate_accepts_a_positive_coefficient_outside_the_floats(coeff):
    # positive with a finite log at every probe, where the value is +inf
    # toward a, 0 times inf toward b, and 0 toward a
    spec = OperatorSpec("log-form", 0.0, math.inf, parse_expression(coeff),
                        parse_expression(coeff))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec.validate()


@pytest.mark.parametrize("coeff, message", [
    ("sqrt(x - 1)", "not finite"),
    ("x - 1", "negative"),
    ("1 + sign(x - 1) * sign(x - 2)", "vanishing"),
    ("log(x - 1)", "not finite"),
])
def test_validate_rejects(coeff, message):
    # nan, a negative value, a zero on (1, 2), nan below x = 1
    spec = OperatorSpec("bad", 0.0, math.inf, parse_expression(coeff),
                        parse_expression("1"))
    with pytest.raises(ValueError, match=message):
        spec.validate()
