"""Analytic scalar fields with gradient and Hessian callbacks.

Built-in fields (the sharp-layer tanh test function, simple polynomials) are
written in closed form.  User fields come from a small expression grammar
(+, -, *, /, ^, tanh, exp, sin, cos, x1, x2, numbers, pi) whose derivatives
are produced by forward-mode automatic differentiation of the parse tree, so
gradient and Hessian are exact rather than finite-differenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = [
    "ScalarField",
    "tanh_layer",
    "constant_field",
    "linear_field",
    "monomial_field",
    "expression_field",
    "get_field",
    "register_field",
    "check_derivatives",
]


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on R^2 with exact first and second derivatives.

    All three callbacks are vectorized: for points of shape (..., 2) they
    return shapes (...,), (..., 2) and (..., 2, 2) respectively.  Points may
    be any (..., 2) view, not only C-contiguous pairs: the L2 pass hands
    ``value`` (e, P, 2) views of two coordinate planes, so ``points[..., 0]``
    is a contiguous plane there.  A callback gives the same values for the
    same points whatever their layout.
    """

    value: object
    gradient: object
    hessian: object
    label: str = "field"

    def __call__(self, points):
        return self.value(points)


def tanh_layer():
    """Steep two-layer test function tanh(60 x2) - tanh(60 (x1 - x2) - 30).

    One layer runs along the x1-axis, the other along the line x2 = x1 - 0.5.
    """

    def parts(points):
        p = np.asarray(points, dtype=float)
        s = 60.0 * p[..., 1]
        t = 60.0 * (p[..., 0] - p[..., 1]) - 30.0
        return np.tanh(s), np.tanh(t)

    def value(points):
        ts, tt = parts(points)
        return ts - tt

    def gradient(points):
        ts, tt = parts(points)
        g = np.empty(np.shape(ts) + (2,))
        # 60 sech^2(t) once, negated exactly; g's columns are 0-d for one point.
        dt = 60.0 * (1.0 - tt * tt)
        np.negative(dt, out=g[..., 0])
        np.add(60.0 * (1.0 - ts * ts), dt, out=g[..., 1])
        return g

    def hessian(points):
        ts, tt = parts(points)
        ds = -7200.0 * (1.0 - ts * ts) * ts  # d/dx2 of 60*sech^2(s) per unit x2
        dt = -7200.0 * (1.0 - tt * tt) * tt
        h = np.empty(ts.shape + (2, 2))
        h[..., 0, 0] = -dt
        h[..., 0, 1] = dt
        h[..., 1, 0] = dt
        h[..., 1, 1] = ds - dt
        return h

    return ScalarField(value, gradient, hessian, label="tanh_layer")


def constant_field(c, label=None):
    c = float(c)

    def value(points):
        p = np.asarray(points, dtype=float)
        return np.full(p.shape[:-1], c)

    def gradient(points):
        p = np.asarray(points, dtype=float)
        return np.zeros(p.shape[:-1] + (2,))

    def hessian(points):
        p = np.asarray(points, dtype=float)
        return np.zeros(p.shape[:-1] + (2, 2))

    return ScalarField(value, gradient, hessian, label=label or f"const({c:g})")


def linear_field(a, b, c=0.0, label=None):
    """a*x1 + b*x2 + c."""
    a, b, c = float(a), float(b), float(c)

    def value(points):
        p = np.asarray(points, dtype=float)
        return a * p[..., 0] + b * p[..., 1] + c

    def gradient(points):
        p = np.asarray(points, dtype=float)
        g = np.empty(p.shape[:-1] + (2,))
        g[..., 0] = a
        g[..., 1] = b
        return g

    def hessian(points):
        p = np.asarray(points, dtype=float)
        return np.zeros(p.shape[:-1] + (2, 2))

    return ScalarField(value, gradient, hessian, label=label or f"linear({a:g},{b:g},{c:g})")


def monomial_field(i, j, label=None):
    """x1^i * x2^j with exact derivatives."""
    i, j = int(i), int(j)

    def powi(x, k):
        return x ** k if k > 0 else np.ones_like(x)

    def value(points):
        p = np.asarray(points, dtype=float)
        return powi(p[..., 0], i) * powi(p[..., 1], j)

    def gradient(points):
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        g = np.zeros(p.shape[:-1] + (2,))
        if i > 0:
            g[..., 0] = i * powi(x, i - 1) * powi(y, j)
        if j > 0:
            g[..., 1] = j * powi(x, i) * powi(y, j - 1)
        return g

    def hessian(points):
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        h = np.zeros(p.shape[:-1] + (2, 2))
        if i > 1:
            h[..., 0, 0] = i * (i - 1) * powi(x, i - 2) * powi(y, j)
        if j > 1:
            h[..., 1, 1] = j * (j - 1) * powi(x, i) * powi(y, j - 2)
        if i > 0 and j > 0:
            h[..., 0, 1] = h[..., 1, 0] = i * j * powi(x, i - 1) * powi(y, j - 1)
        return h

    return ScalarField(value, gradient, hessian, label=label or f"x1^{i}*x2^{j}")


# ---------------------------------------------------------------------------
# Expression grammar with forward-mode AD
# ---------------------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in expression")
    return tokens


class _Dual:
    """Value with first and second derivative arrays for two variables."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v = v
        self.g = g  # (..., 2)
        self.h = h  # (..., 2, 2)

    @staticmethod
    def const(c, shape):
        return _Dual(np.full(shape, float(c)), np.zeros(shape + (2,)), np.zeros(shape + (2, 2)))

    @staticmethod
    def var(values, index):
        shape = values.shape
        g = np.zeros(shape + (2,))
        g[..., index] = 1.0
        return _Dual(values.copy(), g, np.zeros(shape + (2, 2)))

    def __add__(self, o):
        return _Dual(self.v + o.v, self.g + o.g, self.h + o.h)

    def __sub__(self, o):
        return _Dual(self.v - o.v, self.g - o.g, self.h - o.h)

    def __neg__(self):
        return _Dual(-self.v, -self.g, -self.h)

    def __mul__(self, o):
        v = self.v * o.v
        g = self.g * o.v[..., None] + o.g * self.v[..., None]
        outer = self.g[..., :, None] * o.g[..., None, :]
        h = (
            self.h * o.v[..., None, None]
            + o.h * self.v[..., None, None]
            + outer
            + np.swapaxes(outer, -1, -2)
        )
        return _Dual(v, g, h)

    def __truediv__(self, o):
        inv = _chain(o, lambda x: 1.0 / x, lambda x: -1.0 / x ** 2, lambda x: 2.0 / x ** 3)
        return self * inv

    def pow_const(self, k):
        return _chain(
            self,
            lambda x: x ** k,
            lambda x: k * x ** (k - 1.0),
            lambda x: k * (k - 1.0) * x ** (k - 2.0),
        )


def _chain(d, f, fp, fpp):
    """Apply a scalar function through second order."""
    v = f(d.v)
    fp_v = fp(d.v)
    fpp_v = fpp(d.v)
    g = fp_v[..., None] * d.g
    outer = d.g[..., :, None] * d.g[..., None, :]
    h = fp_v[..., None, None] * d.h + fpp_v[..., None, None] * outer
    return _Dual(v, g, h)


_UNARY = {
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2,
             lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2)),
    "exp": (np.exp, np.exp, np.exp),
    "sin": (np.sin, np.cos, lambda x: -np.sin(x)),
    "cos": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


class _Parser:
    """Recursive descent for:  expr := term (('+'|'-') term)*
    term := unary (('*'|'/') unary)* ;  unary := '-' unary | power ;
    power := atom ('^' number)? ;  atom := number | name | name '(' expr ')' | '(' expr ')'
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing token {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            node = (op, node, rhs)
        return node

    def unary(self):
        if self.peek() == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            sign = 1.0
            if self.peek() == "-":
                self.next()
                sign = -1.0
            tok = self.next()
            try:
                exponent = sign * float(tok)
            except ValueError:
                raise ParseError(f"exponent must be a number, got {tok!r}") from None
            return ("pow", base, exponent)
        return base

    def atom(self):
        tok = self.next()
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok in _UNARY:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return (tok, arg)
        if tok in _CONSTANTS:
            return ("num", _CONSTANTS[tok])
        if tok in ("x1", "x2"):
            return (tok,)
        try:
            return ("num", float(tok))
        except ValueError:
            raise ParseError(f"unknown token {tok!r}") from None


def _eval_node(node, x1, x2, shape):
    kind = node[0]
    if kind == "num":
        return _Dual.const(node[1], shape)
    if kind == "x1":
        return _Dual.var(x1, 0)
    if kind == "x2":
        return _Dual.var(x2, 1)
    if kind == "neg":
        return -_eval_node(node[1], x1, x2, shape)
    if kind == "pow":
        return _eval_node(node[1], x1, x2, shape).pow_const(node[2])
    if kind in _UNARY:
        f, fp, fpp = _UNARY[kind]
        return _chain(_eval_node(node[1], x1, x2, shape), f, fp, fpp)
    lhs = _eval_node(node[1], x1, x2, shape)
    rhs = _eval_node(node[2], x1, x2, shape)
    if kind == "+":
        return lhs + rhs
    if kind == "-":
        return lhs - rhs
    if kind == "*":
        return lhs * rhs
    if kind == "/":
        return lhs / rhs
    raise ParseError(f"bad node {kind!r}")


def expression_field(text, label=None):
    """Compile an expression string into a ScalarField with exact derivatives."""
    tree = _Parser(_tokenize(text)).parse()

    def evaluate(points):
        p = np.asarray(points, dtype=float)
        return _eval_node(tree, p[..., 0], p[..., 1], p.shape[:-1])

    def value(points):
        return evaluate(points).v

    def gradient(points):
        return evaluate(points).g

    def hessian(points):
        return evaluate(points).h

    return ScalarField(value, gradient, hessian, label=label or text)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY = {}


def register_field(label, factory):
    _REGISTRY[label] = factory


register_field("tanh_layer", tanh_layer)


def get_field(label):
    """Look up a registered field, or compile ``expr:...`` expressions."""
    if label in _REGISTRY:
        return _REGISTRY[label]()
    if label.startswith("expr:"):
        return expression_field(label[len("expr:"):])
    raise ParseError(f"unknown field {label!r} (try 'tanh_layer' or 'expr:<expression>')")


def check_derivatives(fld, points, step=1e-5, scale=1.0):
    """Max relative mismatch of gradient/Hessian against central differences."""
    p = np.asarray(points, dtype=float)
    h = step * scale
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    g_fd = np.stack(
        [
            (fld.value(p + ex) - fld.value(p - ex)) / (2 * h),
            (fld.value(p + ey) - fld.value(p - ey)) / (2 * h),
        ],
        axis=-1,
    )
    h_fd = np.stack(
        [
            (fld.gradient(p + ex) - fld.gradient(p - ex)) / (2 * h),
            (fld.gradient(p + ey) - fld.gradient(p - ey)) / (2 * h),
        ],
        axis=-2,
    )
    g = fld.gradient(p)
    hh = fld.hessian(p)
    gscale = np.abs(g).max() + 1.0
    hscale = np.abs(hh).max() + 1.0
    return (
        float(np.abs(g - g_fd).max() / gscale),
        float(np.abs(hh - h_fd).max() / hscale),
    )
