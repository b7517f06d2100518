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
"""

from __future__ import annotations

import ast
import math
import operator
import re

import numpy as np

__all__ = ["ExprError", "CoefficientExpr", "parse_expression"]

_MAX_CHARS = 1000
_MAX_DEPTH = 100


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
        return _BINOPS[type(node.op)](_eval(node.left, x), _eval(node.right, x))
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return x if node.id == "x" else _CONSTANTS[node.id]
    if isinstance(node, ast.UnaryOp):
        return -_eval(node.operand, x)
    return _FUNCTIONS[node.func.id](_eval(node.args[0], x))


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
        if not any(isinstance(n, ast.Name) and n.id == "x" for n in ast.walk(v)):
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
