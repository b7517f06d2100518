"""Small arithmetic expression language for operator coefficients.

Grammar (standard precedence, ``^`` binds tightest and associates right):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := ("-" | "+") factor | power
    power   := atom ("^" factor)?
    atom    := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Recognised identifiers: the variable ``x``, the constants ``pi`` and ``e``,
and the functions exp, log, sqrt, sin, cos, sinh, cosh, tanh, abs, sign and
pow(x, y).  Every function has a symbolic derivative: abs(u)' is
sign(u) u', and sign(u)' is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ExprError", "CoefficientExpr", "parse_expression"]


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


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Const:
    name: str


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _Neg:
    arg: object


@dataclass(frozen=True)
class _Call:
    fn: str
    args: tuple


# ---------------------------------------------------------------------------
# Tokenizer / parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        node = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return node

    def _expr(self):
        node = self._term()
        while self._peek() and self._peek() in "+-":
            op = self.text[self.pos]
            self.pos += 1
            node = _Bin(op, node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self._peek() and self._peek() in "*/":
            op = self.text[self.pos]
            self.pos += 1
            node = _Bin(op, node, self._factor())
        return node

    def _factor(self):
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return _Neg(self._factor())
        if ch == "+":
            self.pos += 1
            return self._factor()
        return self._power()

    def _power(self):
        node = self._atom()
        if self._peek() == "^":
            self.pos += 1
            node = _Bin("^", node, self._factor())
        return node

    def _atom(self):
        ch = self._peek()
        start = self.pos
        if ch == "":
            raise ExprError("unexpected end of expression", self.pos)
        if ch == "(":
            self.pos += 1
            node = self._expr()
            if self._peek() != ")":
                raise ExprError("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return self._number()
        if ch.isalpha() or ch == "_":
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if self._peek() == "(":
                self.pos += 1
                args = [self._expr()]
                while self._peek() == ",":
                    self.pos += 1
                    args.append(self._expr())
                if self._peek() != ")":
                    raise ExprError("expected ')'", self.pos)
                self.pos += 1
                if name == "pow":
                    if len(args) != 2:
                        raise ExprError("pow takes two arguments", start)
                    return _Bin("^", args[0], args[1])
                if name not in _FUNCTIONS:
                    raise ExprError(f"unknown function {name!r}", start)
                if len(args) != 1:
                    raise ExprError(f"{name} takes one argument", start)
                return _Call(name, tuple(args))
            if name == "x":
                return _Var(name)
            if name in _CONSTANTS:
                return _Const(name)
            raise ExprError(f"unknown identifier {name!r}", start)
        raise ExprError(f"unexpected {ch!r}", self.pos)

    def _number(self):
        start = self.pos
        text = self.text
        while self.pos < len(text) and (text[self.pos].isdigit() or text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            save = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = save
        try:
            return _Num(float(text[start:self.pos]))
        except ValueError:
            raise ExprError("bad number literal", start) from None


# ---------------------------------------------------------------------------
# Evaluation, differentiation, printing


def _eval(node, x):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return x
    if isinstance(node, _Const):
        return _CONSTANTS[node.name]
    if isinstance(node, _Neg):
        return -_eval(node.arg, x)
    if isinstance(node, _Bin):
        lv = _eval(node.left, x)
        rv = _eval(node.right, x)
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        if node.op == "/":
            return lv / rv
        return np.power(lv, rv)
    return _FUNCTIONS[node.fn](_eval(node.args[0], x))


def _is_const(node) -> bool:
    if isinstance(node, (_Num, _Const)):
        return True
    if isinstance(node, _Var):
        return False
    if isinstance(node, _Neg):
        return _is_const(node.arg)
    if isinstance(node, _Bin):
        return _is_const(node.left) and _is_const(node.right)
    return all(_is_const(a) for a in node.args)


def _diff(node):
    if isinstance(node, (_Num, _Const)):
        return _Num(0.0)
    if isinstance(node, _Var):
        return _Num(1.0)
    if isinstance(node, _Neg):
        return _Neg(_diff(node.arg))
    if isinstance(node, _Bin):
        u, v = node.left, node.right
        du, dv = _diff(u), _diff(v)
        if node.op in "+-":
            return _Bin(node.op, du, dv)
        if node.op == "*":
            return _Bin("+", _Bin("*", du, v), _Bin("*", u, dv))
        if node.op == "/":
            num = _Bin("-", _Bin("*", du, v), _Bin("*", u, dv))
            return _Bin("/", num, _Bin("^", v, _Num(2.0)))
        # power: constant exponent rule, otherwise through exp(v log u)
        if _is_const(v):
            vm1 = _Bin("-", v, _Num(1.0))
            return _Bin("*", _Bin("*", v, _Bin("^", u, vm1)), du)
        inner = _Bin("+", _Bin("*", dv, _Call("log", (u,))),
                     _Bin("/", _Bin("*", v, du), u))
        return _Bin("*", _Bin("^", u, v), inner)
    fn = node.fn
    (u,) = node.args
    if fn == "sign":
        return _Num(0.0)
    du = _diff(u)
    if fn == "exp":
        outer = _Call("exp", (u,))
    elif fn == "log":
        return _Bin("/", du, u)
    elif fn == "sqrt":
        return _Bin("/", du, _Bin("*", _Num(2.0), _Call("sqrt", (u,))))
    elif fn == "sin":
        outer = _Call("cos", (u,))
    elif fn == "cos":
        outer = _Neg(_Call("sin", (u,)))
    elif fn == "sinh":
        outer = _Call("cosh", (u,))
    elif fn == "cosh":
        outer = _Call("sinh", (u,))
    elif fn == "tanh":
        outer = _Bin("-", _Num(1.0), _Bin("^", _Call("tanh", (u,)), _Num(2.0)))
    else:  # abs
        outer = _Call("sign", (u,))
    return _Bin("*", outer, du)


def _pretty(node) -> str:
    if isinstance(node, _Num):
        return repr(node.value)
    if isinstance(node, (_Var, _Const)):
        return node.name
    if isinstance(node, _Neg):
        return f"(-{_pretty(node.arg)})"
    if isinstance(node, _Bin):
        return f"({_pretty(node.left)} {node.op} {_pretty(node.right)})"
    return f"{node.fn}({_pretty(node.args[0])})"


# ---------------------------------------------------------------------------
# Public wrapper


class CoefficientExpr:
    """A parsed scalar function of x, vectorised over numpy arrays."""

    def __init__(self, text: str, _ast=None):
        self.source = text
        self._ast = _ast if _ast is not None else _Parser(text).parse()
        self._d = None

    def __call__(self, x):
        """Value at a scalar, or a float array of the input's shape at an
        array (constant expressions included)."""
        if np.ndim(x) == 0:
            return _eval(self._ast, x)
        x = np.asarray(x, dtype=float)
        return np.asarray(_eval(self._ast, x), dtype=float) + np.zeros_like(x)

    def __repr__(self):
        return f"CoefficientExpr({self.source!r})"

    def diff(self) -> "CoefficientExpr":
        """Derivative as a new expression, derived at the first call."""
        if self._d is None:
            ast = _diff(self._ast)
            self._d = CoefficientExpr(_pretty(ast), _ast=ast)
        return self._d

    def derivative(self, x):
        return self.diff()(x)

    def pretty(self) -> str:
        """Canonical text of the expression tree, fully parenthesized."""
        return _pretty(self._ast)


def parse_expression(text: str) -> CoefficientExpr:
    return CoefficientExpr(text)
