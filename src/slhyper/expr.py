"""Small arithmetic expression language for operator coefficients.

The grammar is Python's arithmetic, read by Python's own parser
(``ast.parse``), with ``^`` for the power:

    + - * /     binary, left-associative, the usual precedence
    ^           power, binds tightest and associates right: -x^2 = -(x^2)
    - +         unary
    NUMBER      digits with an optional point and exponent: 2, .5, 1e-3
    x, pi, e    the variable and the two constants
    f(u)        exp, log, sqrt, sin, cos, sinh, cosh, tanh, abs, sign
    pow(u, v)   u^v

``**`` is not accepted.  Text longer than 1000 characters, or a tree
deeper than 100 levels, is an error.  The expression tree is Python's
``ast``: numbers are float constants, ``pow(u, v)`` is the power node and
unary plus is dropped.  Every function has a symbolic derivative: abs(u)'
is sign(u) u', and sign(u)' is 0.  ``pretty`` is ``ast.unparse`` with
``^`` for the power, and reads back to the same tree.

``CoefficientExpr.log_abs`` reads (sign, log|f|) from the tree, finite
where factors leave the floats and f does not; ``sqrt_ratio`` states the
one rule for products of coefficients.
"""

from __future__ import annotations

import ast
import math
import operator
import re

import numpy as np

__all__ = ["ExprError", "CoefficientExpr", "parse_expression", "sqrt_ratio"]

_MAX_CHARS = 1000
_MAX_DEPTH = 100
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max
_LOG2 = math.log(2.0)


class ExprError(ValueError):
    """Syntax or evaluation error, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "abs": np.abs,
    "sign": np.sign,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: np.power}
_OPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div, "^": ast.Pow}

_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
# a character outside the grammar, or Python's power operator
_UNEXPECTED = re.compile(r"[^A-Za-z0-9_.+\-*/^(), \t\n\r\f\v]|\*\*")


# ---------------------------------------------------------------------------
# Reading


def _reject(message: str, node: ast.AST) -> SyntaxError:
    return SyntaxError(message, ("<expr>", 1, node.col_offset + 1, None))


def _check(node: ast.AST, src: str, depth: int = 1) -> ast.AST:
    """The tree of node if it is in the grammar: numbers as floats,
    ``pow`` as the power node, unary plus dropped.  src is the text that
    ``ast.parse`` read."""
    if depth > _MAX_DEPTH:
        raise _reject(f"expression deeper than {_MAX_DEPTH} levels", node)
    seg = src[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        node.left = _check(node.left, src, depth + 1)
        node.right = _check(node.right, src, depth + 1)
        return node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _check(node.operand, src, depth + 1)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node.operand = _check(node.operand, src, depth + 1)
        return node
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(seg):
        return ast.Constant(float(seg))
    if isinstance(node, ast.Name):
        if node.id == "x" or node.id in _CONSTANTS:
            return node
        raise _reject(f"unknown identifier {node.id!r}", node)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.col_offset == node.col_offset:
        name = node.func.id
        if name != "pow" and name not in _FUNCTIONS:
            raise _reject(f"unknown function {name!r}", node)
        n = 2 if name == "pow" else 1
        if node.keywords or len(node.args) != n \
                or "," in src[node.args[-1].end_col_offset:node.end_col_offset]:
            raise _reject(f"{name} takes {n} argument{'s' * (n > 1)}", node)
        node.args = [_check(a, src, depth + 1) for a in node.args]
        return ast.BinOp(node.args[0], ast.Pow(), node.args[1]) if n == 2 else node
    raise _reject(f"unexpected {seg.replace('**', '^')!r}", node)


def _read(text: str) -> ast.AST:
    """The checked tree of text, with errors at offsets into text."""
    if len(text) > _MAX_CHARS:
        raise ExprError(f"expression longer than {_MAX_CHARS} characters",
                        _MAX_CHARS)
    bad = _UNEXPECTED.search(text)
    if bad:
        raise ExprError(f"unexpected {bad.group()!r}", bad.start())
    # Python reads "**" for "^" and no leading or line-breaking space;
    # where[i] is the offset in text of character i of src
    body = text.lstrip()
    src = re.sub(r"\s", " ", body).replace("^", "**")
    where = [i for i, c in enumerate(body, len(text) - len(body))
             for _ in range(1 + (c == "^"))] + [len(text)]
    try:
        return _check(ast.parse(src, mode="eval").body, src)
    except SyntaxError as err:
        # Python puts an unexpected end of the text at offset 0
        at = where[min(err.offset - 1, len(src))] if err.offset else len(text)
        raise ExprError(err.msg, at) from None
    except RecursionError:
        raise ExprError(f"expression deeper than {_MAX_DEPTH} levels", 0) from None


# ---------------------------------------------------------------------------
# Evaluation and differentiation


def _eval(node, x):
    if isinstance(node, ast.BinOp):
        try:
            return _BINOPS[type(node.op)](_eval(node.left, x),
                                          _eval(node.right, x))
        except ZeroDivisionError:
            # Python floats; numpy reads u/0 as +-inf or nan, as on arrays
            return np.divide(_eval(node.left, x), _eval(node.right, x))
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return x if node.id == "x" else _CONSTANTS[node.id]
    if isinstance(node, ast.UnaryOp):
        return -_eval(node.operand, x)
    return _FUNCTIONS[node.func.id](_eval(node.args[0], x))


def _has_x(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "x" for n in ast.walk(node))


def _log_terms(node, x):
    """(sign, terms) of the tree at x, log|f| the sum of the terms: those
    of both factors for * and /, c times those of u for u^c with c a
    finite constant, v(x) times them for u^v where u > 0 and v is finite
    and not 0, u for exp(u), |u| and log(1 -+ e^(-2|u|)) - log 2 for sinh
    and cosh, and log|f(x)| for any other node or point.  Kept apart,
    equal terms of two factors, such as the -1/x of exp(-1/x) in p and in
    r, cancel exactly in ``_fsum``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        (su, tu), (sv, tv) = _log_terms(node.left, x), _log_terms(node.right, x)
        return su * sv, tu + (tv if isinstance(node.op, ast.Mult)
                              else [-t for t in tv])
    if isinstance(node, ast.UnaryOp):
        s, tu = _log_terms(node.operand, x)
        return -s, tu
    power = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
    if power and _has_x(node.right):
        s, tu = _log_terms(node.left, x)
        v, f = _eval(node.right, x), _eval(node, x)
        pos = (s > 0) & np.isfinite(v) & (v != 0)
        return np.where(pos, 1.0, np.sign(f)), (
            [np.where(pos, v * t, 0.0) for t in tu]
            + [np.where(pos, 0.0, np.log(np.abs(f)))])
    if power or isinstance(node, ast.Call) and node.func.id == "sqrt":
        c = float(_eval(node.right, x)) if power else 0.5
        if math.isfinite(c):
            s, tu = _log_terms(node.left if power else node.args[0], x)
            # u^0 = 1 also where u is 0, inf or nan, and c log|u| is not
            return np.sign(np.power(s, c)), [c * t for t in tu] if c else [0.0]
    if isinstance(node, ast.Call) and node.func.id in ("exp", "sinh", "cosh"):
        u = _eval(node.args[0], x)
        a, one = np.abs(u), np.where(np.isnan(u), u, 1.0)
        if node.func.id == "exp":
            return one, [u]
        if node.func.id == "cosh":
            return one, [a, np.log1p(np.exp(-2.0 * a)) - _LOG2]
        # log(-expm1(-2a)) = log(1 - e^(-2a)) keeps its digits as a -> 0
        return np.sign(u), [a, np.log(-np.expm1(-2.0 * a)) - _LOG2]
    f = _eval(node, x)
    return np.sign(f), [np.log(np.abs(f))]


def _fsum(terms):
    """Neumaier's compensated sum of arrays: the rounding errors of the
    running sum are carried apart and added back at the end."""
    total, carry = terms[0], 0.0
    for t in terms[1:]:
        s = total + t
        err = np.where(np.abs(total) >= np.abs(t), total - s + t, t - s + total)
        carry, total = carry + np.where(np.isfinite(s), err, 0.0), s
    return total + carry


def _bin(op: str, left, right) -> ast.BinOp:
    return ast.BinOp(left, _OPS[op](), right)


def _call(fn: str, arg) -> ast.Call:
    return ast.Call(ast.Name(fn), [arg], [])


def _diff(node):
    if isinstance(node, ast.Constant):
        return ast.Constant(0.0)
    if isinstance(node, ast.Name):
        return ast.Constant(1.0 if node.id == "x" else 0.0)
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(ast.USub(), _diff(node.operand))
    if isinstance(node, ast.BinOp):
        u, v = node.left, node.right
        du, dv = _diff(u), _diff(v)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return ast.BinOp(du, node.op, dv)
        if isinstance(node.op, ast.Mult):
            return _bin("+", _bin("*", du, v), _bin("*", u, dv))
        if isinstance(node.op, ast.Div):
            num = _bin("-", _bin("*", du, v), _bin("*", u, dv))
            return _bin("/", num, _bin("^", v, ast.Constant(2.0)))
        # power: constant exponent rule, otherwise through exp(v log u)
        if not _has_x(v):
            vm1 = _bin("-", v, ast.Constant(1.0))
            return _bin("*", _bin("*", v, _bin("^", u, vm1)), du)
        inner = _bin("+", _bin("*", dv, _call("log", u)),
                     _bin("/", _bin("*", v, du), u))
        return _bin("*", _bin("^", u, v), inner)
    fn = node.func.id
    (u,) = node.args
    if fn == "sign":
        return ast.Constant(0.0)
    du = _diff(u)
    if fn == "exp":
        outer = _call("exp", u)
    elif fn == "log":
        return _bin("/", du, u)
    elif fn == "sqrt":
        return _bin("/", du, _bin("*", ast.Constant(2.0), _call("sqrt", u)))
    elif fn == "sin":
        outer = _call("cos", u)
    elif fn == "cos":
        outer = ast.UnaryOp(ast.USub(), _call("sin", u))
    elif fn == "sinh":
        outer = _call("cosh", u)
    elif fn == "cosh":
        outer = _call("sinh", u)
    elif fn == "tanh":
        outer = _bin("-", ast.Constant(1.0),
                     _bin("^", _call("tanh", u), ast.Constant(2.0)))
    else:  # abs
        outer = _call("sign", u)
    return _bin("*", outer, du)


# ---------------------------------------------------------------------------
# Public wrapper


class CoefficientExpr:
    """A parsed scalar function of x, vectorised over numpy arrays."""

    def __init__(self, text: str | None, _tree=None):
        self._source = text
        self._tree = _read(text) if _tree is None else _tree
        self._d = None

    @property
    def source(self) -> str:
        """The text read, or a derivative's ``pretty`` text."""
        return self.pretty() if self._source is None else self._source

    def __call__(self, x):
        """Value at a scalar, or a float array of the input's shape at an
        array (constant expressions included)."""
        if np.ndim(x) == 0:
            return _eval(self._tree, x)
        x = np.asarray(x, dtype=float)
        return np.asarray(_eval(self._tree, x), dtype=float) + np.zeros_like(x)

    def log_abs(self, x):
        """(sign, log|f(x)|), arrays of x's shape, from the tree
        (``_log_terms``): finite at sinh(x)^-0.5 * cosh(x), x = 1000,
        where the value is 0 times inf.  numpy does not warn."""
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            s, terms = _log_terms(self._tree, x)
            return s + np.zeros_like(x), _fsum(terms) + np.zeros_like(x)

    def __repr__(self):
        return f"CoefficientExpr({self.source!r})"

    def diff(self) -> "CoefficientExpr":
        """Derivative as a new expression, derived at the first call."""
        if self._d is None:
            self._d = CoefficientExpr(None, _tree=_diff(self._tree))
        return self._d

    def derivative(self, x):
        return self.diff()(x)

    def pretty(self) -> str:
        """Text of the expression tree that reads back to the same tree."""
        return ast.unparse(self._tree).replace("**", "^")


def parse_expression(text: str) -> CoefficientExpr:
    return CoefficientExpr(text)


def _normal(v):
    """Where v is a normal float: finite, nonzero and not subnormal."""
    a = np.abs(v)
    return (a >= _TINY) & (a <= _HUGE)


def sqrt_ratio(num, den=(), x=None, *, log=False):
    """sqrt(prod num / prod den), or with log=True its log, for factors
    that are CoefficientExprs read at x or arrays, all of one shape.

    The one rule for a product, quotient or root of coefficients: the
    direct form where every factor and the value are normal floats, so
    those values keep their bits, and exp of the half-sum of the factors'
    logs elsewhere, nan where a factor is not positive.  A factor's log is
    np.log of its value where that is normal, else its terms from the tree
    (``_log_terms``); one ``_fsum`` takes every term, so the -1/x of
    exp(-1/x) in p and in r cancels exactly.  The log is that half-sum at
    every point.  numpy does not warn."""
    shape = np.shape(num[0] if x is None else x)
    x = None if x is None else np.ravel(np.asarray(x, dtype=float))
    factors = (*num, *den)
    with np.errstate(all="ignore"):
        vals = [np.ravel(np.asarray(f(x) if isinstance(f, CoefficientExpr)
                                    else f, dtype=float)) for f in factors]
        at = slice(None)
        if not log:
            value = np.sqrt(math.prod(vals[:len(num)])
                            / math.prod(vals[len(num):]))
            at = ~_normal([value, *vals]).all(axis=0)
            if not at.any():
                return value.reshape(shape)
        sign, terms = 1.0, []
        for k, (f, v) in enumerate(zip(factors, vals)):
            v = v[at]
            s, logs, off = np.sign(v), [np.log(np.abs(v))], ~_normal(v)
            if isinstance(f, CoefficientExpr) and off.any():
                s_off, t_off = _log_terms(f._tree, x[at])
                s = np.where(off, s_off, s)
                logs = [np.where(off, 0.0, logs[0]),
                        *(np.where(off, t, 0.0) for t in t_off)]
            sign = sign * s
            terms += logs if k < len(num) else [-t for t in logs]
        half = _fsum(terms) / 2
        if log:
            return half.reshape(shape)
        value[at] = np.where(sign > 0, np.exp(half), np.nan)
    return value.reshape(shape)
