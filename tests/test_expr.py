"""Coefficient expression parsing, evaluation, and differentiation."""

import ast
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slhyper.expr import (CoefficientExpr, ExprError, parse_expression,
                          sqrt_ratio)


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


def test_division_by_a_zero_constant_is_inf_not_an_exception():
    # a constant subtree evaluates on Python floats, which raise where numpy
    # gives +-inf or nan, as it does on arrays
    with np.errstate(divide="ignore", invalid="ignore"):
        assert parse_expression("pi / (pi - pi) + x")(1.0) == math.inf
        assert np.array_equal(parse_expression("(1 - 1) / (2 - 2) * x")(
            np.array([1.0, 2.0])), [math.nan] * 2, equal_nan=True)


# ---------------------------------------------------------------------------
# log_abs and sqrt_ratio

_GRAMMAR_FUNCTIONS = ["exp", "log", "sqrt", "sin", "cos", "sinh", "cosh",
                      "tanh", "abs", "sign"]


def _grammar():
    """Text drawn from the whole expression grammar."""
    leaf = st.one_of(st.sampled_from(["x", "pi", "e"]),
                     st.floats(0.01, 100.0).map(repr))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(st.sampled_from(_GRAMMAR_FUNCTIONS), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, inner).map(lambda t: f"pow({t[0]}, {t[1]})"),
            inner.map(lambda u: f"-({u})"))

    return st.recursive(leaf, extend, max_leaves=8)


def _subnormal_node(e, x):
    """Where some node of e's tree is subnormal at x, so that the value
    read directly has lost digits."""
    out = np.zeros(x.shape, bool)
    for node in ast.walk(e._tree):
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call)):
            v = np.abs(CoefficientExpr(None, _tree=node)(x))
            out |= (v > 0) & (v < np.finfo(float).tiny)
    return out


@settings(max_examples=300, deadline=None)
@given(text=_grammar(), xs=st.lists(
    st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=8))
def test_log_abs_matches_the_log_of_a_finite_value(text, xs):
    """Wherever f is finite and nonzero, and no node of its tree is a
    subnormal that has lost digits, log_abs is (sign f, log|f|)."""
    e = parse_expression(text)
    x = np.array(xs)
    with np.errstate(all="ignore"):
        f = e(x)
        ok = np.isfinite(f) & (f != 0) & ~_subnormal_node(e, x)
    sign, log = e.log_abs(x)
    assert np.array_equal(sign[ok], np.sign(f[ok]))
    assert np.allclose(log[ok], np.log(np.abs(f[ok])), rtol=1e-12, atol=1e-10)


@pytest.mark.parametrize("text, x, direct, log", [
    # 0 times inf; sinh(x)^-0.5 cosh(x) = e^(x/2) / sqrt(2) up to e^(-2x)
    ("sinh(x)^-0.5 * cosh(x)", 1000.0, math.nan, 500.0 - 0.5 * math.log(2.0)),
    ("exp(-1/x)", 1e-4, 0.0, -1e4),
    ("sinh(x)^2", 800.0, math.inf, 1600.0 - 2.0 * math.log(2.0)),
])
def test_log_abs_where_the_value_leaves_the_floats(text, x, direct, log):
    e = parse_expression(text)
    with np.errstate(all="ignore"):
        assert np.array_equal(e(x), direct, equal_nan=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sign, value = e.log_abs(x)
    assert sign == 1.0
    assert value == pytest.approx(log, rel=1e-15)


def test_log_abs_of_sinh_near_zero_keeps_its_digits():
    x = np.array([1e-300, 1e-10, -1e-3, 0.5])
    sign, log = parse_expression("sinh(x)").log_abs(x)
    assert np.array_equal(sign, np.sign(x))
    assert np.allclose(log, np.log(np.abs(np.sinh(x))), rtol=1e-15, atol=0.0)


def test_sqrt_ratio_keeps_the_direct_bits_where_the_floats_hold():
    x = np.linspace(0.1, 30.0, 301)
    p, r = parse_expression("x^3 * exp(-x)"), parse_expression("cosh(x)")
    pv, rv = p(x), r(x)
    assert np.array_equal(sqrt_ratio([r], [p], x), np.sqrt(rv / pv))
    assert np.array_equal(sqrt_ratio([p, r], x=x), np.sqrt(pv * rv))
    assert np.array_equal(sqrt_ratio([p, r], x=x, log=True),
                          0.5 * (np.log(pv) + np.log(rv)))


def test_sqrt_ratio_reads_logs_where_the_floats_do_not_hold():
    # Whittaker's p and r underflow below x = 1/745 and their ratio is
    # 1/x^2: the -1/x of both logs cancels exactly
    x = 2.0 ** -np.arange(0, 61, 4)
    p = parse_expression("x^1.5 * exp(-1.0/x)")
    r = parse_expression("x^-0.5 * exp(-1.0/x)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.allclose(sqrt_ratio([r], [p], x) * x, 1.0, rtol=1e-14,
                           atol=0.0)
        # cell masses whose product underflows
        w = np.array([1e-300, 1e-200, 1e-10])
        assert np.allclose(sqrt_ratio([w[:-1], w[1:]]), [1e-250, 1e-105],
                           rtol=1e-15, atol=0.0)
        # a root that leaves the floats itself, and a factor that is not
        # positive
        assert np.isinf(sqrt_ratio([parse_expression("exp(x)")], [], 1500.0))
        assert np.isnan(sqrt_ratio([np.array([-1e-320])]))
    assert sqrt_ratio([p], [r], 0.5).shape == ()
