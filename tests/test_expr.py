"""Coefficient expression parsing, evaluation, and differentiation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slhyper.expr import CoefficientExpr, ExprError, parse_expression


def test_arithmetic_matches_numpy():
    e = parse_expression("x^2 * exp(-1/x) + 3.5")
    xs = np.linspace(0.5, 4.0, 17)
    ref = xs ** 2 * np.exp(-1.0 / xs) + 3.5
    assert np.allclose(e(xs), ref, rtol=1e-14)


def test_scalar_and_vector_agree():
    e = parse_expression("sin(x) / (1 + x^2)")
    xs = np.linspace(0.0, 3.0, 7)
    vec = e(xs)
    for x, v in zip(xs, vec):
        assert math.isclose(float(e(float(x))), float(v), rel_tol=1e-14,
                            abs_tol=1e-300)


def test_constant_on_array_has_array_shape():
    out = parse_expression("1")(np.zeros((3, 2)))
    assert isinstance(out, np.ndarray)
    assert out.shape == (3, 2) and out.dtype == float
    assert np.all(out == 1.0)


def test_pretty_reparse_round_trip():
    texts = ["x^2", "exp(-2.0/x)", "x^3.0 * exp(-1.0/x)", "1 + x - x^2/4"]
    xs = np.linspace(0.3, 5.0, 23)
    for text in texts:
        e = parse_expression(text)
        e2 = parse_expression(e.pretty())
        assert np.allclose(e(xs), e2(xs), rtol=1e-14)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprError) as exc:
        parse_expression("x^^2")
    assert exc.value.offset >= 0


def test_unknown_identifier_rejected():
    with pytest.raises(ExprError):
        parse_expression("foo(x)")


def test_derivative_of_polynomial():
    e = parse_expression("x^3 - 2*x")
    xs = np.linspace(-2.0, 2.0, 9)
    assert np.allclose(e.derivative(xs), 3.0 * xs ** 2 - 2.0, rtol=1e-12)


def test_diff_is_derived_once():
    e = parse_expression("x^3 - 2*x")
    assert e.diff() is e.diff()


def test_derivative_of_abs():
    # abs(x)' = sign(x)
    e = parse_expression("abs(x)")
    assert float(e.derivative(2.0)) == 1.0
    assert float(e.derivative(-2.0)) == -1.0


def test_second_derivative_of_abs():
    # sign(x)' = 0
    e = parse_expression("abs(x)")
    xs = np.array([-2.0, 0.5, 3.0])
    assert np.array_equal(e.diff().derivative(xs), np.zeros(3))
    assert [float(e.diff().diff()(x)) for x in xs] == [0.0, 0.0, 0.0]


def test_pretty_of_abs_derivative_reparses():
    d = parse_expression("abs(x)").diff()
    xs = np.array([-2.0, -0.5, 0.0, 3.0])
    assert np.array_equal(parse_expression(d.pretty())(xs), d(xs))
    assert np.array_equal(d(xs), [-1.0, -1.0, 0.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-4, 4, allow_nan=False), b=st.floats(0.1, 4),
       x=st.floats(0.2, 5))
def test_affine_power_property(a, b, x):
    e = CoefficientExpr(f"{a!r} + {b!r} * x^2")
    assert float(e(x)) == pytest.approx(a + b * x ** 2, rel=1e-12, abs=1e-12)


# first derivatives against their closed forms, one rule each
@pytest.mark.parametrize("text, closed", [
    ("sin(2*x)", lambda x: 2.0 * np.cos(2.0 * x)),
    ("cos(x^2)", lambda x: -2.0 * x * np.sin(x ** 2)),
    ("sinh(x)", np.cosh),
    ("cosh(3*x)", lambda x: 3.0 * np.sinh(3.0 * x)),
    ("tanh(x)", lambda x: 1.0 - np.tanh(x) ** 2),
    ("log(1 + x^2)", lambda x: 2.0 * x / (1.0 + x ** 2)),
    ("sqrt(x)", lambda x: 0.5 / np.sqrt(x)),
    ("x^x", lambda x: x ** x * (np.log(x) + 1.0)),
    ("pow(x, sin(x))", lambda x: x ** np.sin(x) * (np.cos(x) * np.log(x) + np.sin(x) / x)),
    ("pi * x^2", lambda x: 2.0 * math.pi * x),
    ("e^x", np.exp),
    ("+x^3", lambda x: 3.0 * x ** 2),
    ("-+x", lambda x: -np.ones_like(x)),
])
def test_first_derivative_rules(text, closed):
    xs = np.linspace(0.3, 2.5, 23)
    e = parse_expression(text)
    assert np.allclose(e.derivative(xs), closed(xs), rtol=1e-13, atol=1e-14)
    assert math.isclose(float(e.derivative(1.7)), float(closed(np.float64(1.7))),
                        rel_tol=1e-13)


@pytest.mark.parametrize("name", ["cosine", "bessel?alpha=-0.25", "bessel?alpha=0",
                                  "bessel?alpha=1.5", "whittaker?alpha=0.25&kappa=1.0",
                                  "whittaker?alpha=-1&kappa=2"])
def test_pretty_of_builtin_derivatives_reparses(name):
    from slhyper.operator import builtin_operator

    spec = builtin_operator(name)
    xs = np.linspace(0.0, 6.0, 61)
    for coeff in (spec.p, spec.r, spec.eta):
        d = coeff.diff()
        with np.errstate(all="ignore"):
            assert np.array_equal(parse_expression(d.pretty())(xs), d(xs),
                                  equal_nan=True)


def test_pretty_uses_caret_for_power():
    e = parse_expression("pow(x, 2) * -x^-2")
    assert e.pretty() == "x ^ 2.0 * -x ^ (-2.0)"
    assert e.diff().source == e.diff().pretty()


@pytest.mark.parametrize("text", [
    "x**2", "x // 2", "x % 2", "x < 1", "x if x else 1", "not x", "x and x",
    "x.real", "x[0]", "(x, 1)", "x,", "True", "1j", "0x10", "1_0", "1e",
    "exp(x,)", "exp(x=1)", "exp(*x)", "(exp)(x)", "2(x)", "exp", "exp()",
    "pow(x)", "sin(x, 1)", "__import__(x)", "x # comment", "'x'",
])
def test_python_outside_the_grammar_rejected(text):
    with pytest.raises(ExprError) as exc:
        parse_expression(text)
    assert 0 <= exc.value.offset <= len(text)


def test_length_and_depth_limits():
    with pytest.raises(ExprError, match="longer than 1000"):
        parse_expression("x + " * 250 + "x")
    with pytest.raises(ExprError, match="deeper than 100"):
        parse_expression("^".join(["x"] * 101))
    with pytest.raises(ExprError):
        parse_expression("-" * 999 + "x")


def test_hundred_deep_power_tower():
    # x^x^...^x with 100 levels; at x = 1 every level's derivative is 1
    e = parse_expression("^".join(["x"] * 100))
    xs = np.array([1.0, 1.05, 1.2])
    d = e.derivative(xs)
    assert d[0] == 1.0
    h = 1e-6
    fd = (e(xs + h) - e(xs - h)) / (2.0 * h)
    assert np.allclose(d, fd, rtol=1e-7)
    assert np.all(np.isfinite(e.diff().derivative(xs)))
