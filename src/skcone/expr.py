"""Prepotential DSL: parsing and holomorphic jet evaluation.

The grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' integer)? | '-' factor
    atom   := number | 'i' | variable | '(' expr ')'

Variables are ``z0`` .. ``z9`` and ``z{k}`` for k >= 10.  Numbers are
unsigned decimals.  Powers take nonnegative integer exponents; negative
powers are written with division.

Holomorphic derivatives up to fourth order come from truncated
multivariate Taylor jets: a jet stores the value together with the full
(symmetric) derivative tensors, and arithmetic propagates them by the
Leibniz rule over index shuffles.  Since the prepotential is holomorphic
there are no anti-holomorphic slots; conjugation is applied by consumers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationSingularity, ParseError

MAX_JET_ORDER = 4

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Node = Union["Lit", "Var", "Neg", "Sum", "Product", "Quotient", "Power"]


@dataclass(frozen=True)
class Lit:
    value: complex


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Neg:
    arg: Node


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Quotient:
    num: Node
    den: Node


@dataclass(frozen=True)
class Power:
    base: Node
    exponent: int


@dataclass(frozen=True)
class PrepotentialAst:
    """Parsed prepotential in n_vars complex variables."""

    root: Node
    n_vars: int


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text):
    """Yield (kind, value, offset) triples; kind in {op, num, imag, var, end}."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append((ch, None, pos))
            pos += 1
            continue
        if ch.isdigit() or ch == ".":
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos < n and text[pos] == ".":
                pos += 1
                while pos < n and text[pos].isdigit():
                    pos += 1
            lexeme = text[start:pos]
            if lexeme == ".":
                raise ParseError("malformed number", start)
            tokens.append(("num", float(lexeme), start))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            name = text[start:pos]
            if name == "i":
                tokens.append(("imag", None, start))
                continue
            if name == "z" and pos < n and text[pos] == "{":
                close = text.find("}", pos)
                if close < 0:
                    raise ParseError("unterminated variable brace", pos)
                digits = text[pos + 1 : close]
                if not digits.isdigit():
                    raise ParseError(f"malformed variable index {digits!r}", pos + 1)
                tokens.append(("var", int(digits), start))
                pos = close + 1
                continue
            if name.startswith("z") and name[1:].isdigit():
                tokens.append(("var", int(name[1:]), start))
                continue
            raise ParseError(f"unknown variable name {name!r}", start)
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, n_vars):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse_expr(self):
        terms = []
        self._append_term(terms, self.parse_term())
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.advance()
            term = self.parse_term()
            self._append_term(terms, Neg(term) if op == "-" else term)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    @staticmethod
    def _append_term(terms, term):
        # Flatten nested sums from parenthesized input so the printed form
        # reparses to the identical tree.
        if isinstance(term, Sum):
            terms.extend(term.terms)
        else:
            terms.append(term)

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.advance()
            rhs = self.parse_factor()
            if op == "*":
                lhs_factors = acc.factors if isinstance(acc, Product) else (acc,)
                rhs_factors = rhs.factors if isinstance(rhs, Product) else (rhs,)
                acc = Product(lhs_factors + rhs_factors)
            else:
                if _syntactically_zero(rhs):
                    raise ParseError("division by syntactically zero denominator", offset)
                acc = Quotient(acc, rhs)
        return acc

    def parse_factor(self):
        kind, _, _ = self.peek()
        if kind == "-":
            self.advance()
            return Neg(self.parse_factor())
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            exponent = tok[1]
            if exponent != int(exponent):
                raise ParseError("exponent must be an integer", tok[2])
            return Power(atom, int(exponent))
        return atom

    def parse_atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Lit(complex(value))
        if kind == "imag":
            return Lit(1j)
        if kind == "var":
            if value >= self.n_vars:
                raise ParseError(
                    f"variable index {value} out of range (n_vars = {self.n_vars})",
                    offset,
                )
            return Var(value)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {kind!r}", offset)


def _syntactically_zero(node):
    while isinstance(node, Neg):
        node = node.arg
    return isinstance(node, Lit) and node.value == 0


def parse_prepotential(text: str, n_vars: int) -> PrepotentialAst:
    """Parse the DSL text into an AST over ``n_vars`` complex variables."""
    if not text or not text.strip():
        raise ParseError("empty prepotential", 0)
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    parser = _Parser(_tokenize(text), n_vars)
    root = parser.parse_expr()
    end = parser.advance()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[0]!r}", end[2])
    return PrepotentialAst(root, n_vars)


def max_var_index(node) -> int:
    """Largest variable index in an expression tree, or -1 if it has no variable."""
    best, stack = -1, [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            best = max(best, node.index)
        elif isinstance(node, Neg):
            stack.append(node.arg)
        elif isinstance(node, Power):
            stack.append(node.base)
        elif isinstance(node, Quotient):
            stack += (node.num, node.den)
        elif isinstance(node, Sum):
            stack += node.terms
        elif isinstance(node, Product):
            stack += node.factors
    return best


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

# Precedence levels used for minimal parenthesization.
_P_SUM, _P_TERM, _P_UNARY, _P_POW, _P_ATOM = 0, 1, 2, 3, 4


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _print(node, parent_prec):
    if isinstance(node, Lit):
        v = node.value
        if v.imag == 0:
            text, prec = _fmt_number(v.real), _P_ATOM
            if v.real < 0:
                prec = _P_UNARY
        elif v == 1j:
            text, prec = "i", _P_ATOM
        elif v.real == 0:
            text, prec = f"{_fmt_number(v.imag)}*i", _P_TERM
        else:
            text, prec = f"{_fmt_number(v.real)} + {_fmt_number(v.imag)}*i", _P_SUM
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Var):
        name = f"z{node.index}" if node.index < 10 else f"z{{{node.index}}}"
        return name
    if isinstance(node, Neg):
        inner = _print(node.arg, _P_UNARY)
        text = f"-{inner}"
        return f"({text})" if parent_prec > _P_UNARY else text
    if isinstance(node, Sum):
        parts = [_print(node.terms[0], _P_TERM)]
        for term in node.terms[1:]:
            if isinstance(term, Neg):
                parts.append(f" - {_print(term.arg, _P_TERM)}")
            else:
                parts.append(f" + {_print(term, _P_TERM)}")
        text = "".join(parts)
        return f"({text})" if parent_prec > _P_SUM else text
    if isinstance(node, Product):
        text = "*".join(_print(f, _P_TERM + 1) for f in node.factors)
        return f"({text})" if parent_prec > _P_TERM else text
    if isinstance(node, Quotient):
        num = _print(node.num, _P_TERM)
        den = _print(node.den, _P_TERM + 1)
        text = f"{num}/{den}"
        return f"({text})" if parent_prec > _P_TERM else text
    if isinstance(node, Power):
        base = _print(node.base, _P_ATOM)
        text = f"{base}^{node.exponent}"
        return f"({text})" if parent_prec > _P_POW else text
    raise TypeError(f"not an AST node: {node!r}")


def pretty(ast: PrepotentialAst) -> str:
    """Render the AST back to canonical DSL text (parse o pretty is identity)."""
    return _print(ast.root, _P_SUM)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

# _SHUFFLES[r][s] lists the axis permutations placing s "left factor" axes
# into each size-s subset of r slots, in order; the Leibniz rule for the
# r-th derivative of a product sums the shuffled outer products.
_SHUFFLES = {}
for _r in range(1, MAX_JET_ORDER + 1):
    _SHUFFLES[_r] = {}
    for _s in range(_r + 1):
        perms = []
        for subset in itertools.combinations(range(_r), _s):
            rest = [axis for axis in range(_r) if axis not in subset]
            placement = list(subset) + rest
            # placement[i] = destination slot of source axis i; np.transpose
            # wants axes[dest] = source.
            axes = [0] * _r
            for src, dest in enumerate(placement):
                axes[dest] = src
            perms.append(tuple(axes))
        _SHUFFLES[_r][_s] = perms


class _Jet:
    """Value plus symmetric holomorphic derivative tensors up to ``order``."""

    __slots__ = ("order", "m", "t")

    def __init__(self, order, m, t):
        self.order = order
        self.m = m
        self.t = t  # list: t[0] complex scalar, t[r] ndarray of shape (m,)*r

    @classmethod
    def constant(cls, value, order, m):
        t = [complex(value)] + [np.zeros((m,) * r, dtype=complex) for r in range(1, order + 1)]
        return cls(order, m, t)

    @classmethod
    def variable(cls, index, value, order, m):
        jet = cls.constant(value, order, m)
        if order >= 1:
            jet.t[1][index] = 1.0
        return jet

    def __add__(self, other):
        t = [self.t[0] + other.t[0]]
        t += [self.t[r] + other.t[r] for r in range(1, self.order + 1)]
        return _Jet(self.order, self.m, t)

    def __sub__(self, other):
        t = [self.t[0] - other.t[0]]
        t += [self.t[r] - other.t[r] for r in range(1, self.order + 1)]
        return _Jet(self.order, self.m, t)

    def __neg__(self):
        return _Jet(self.order, self.m, [-self.t[0]] + [-self.t[r] for r in range(1, self.order + 1)])

    def __mul__(self, other):
        order, m = self.order, self.m
        t = [self.t[0] * other.t[0]]
        for r in range(1, order + 1):
            acc = self.t[0] * other.t[r] + self.t[r] * other.t[0]
            for s in range(1, r):
                left, right = self.t[s], other.t[r - s]
                block = np.multiply.outer(left, right)
                for axes in _SHUFFLES[r][s]:
                    acc = acc + np.transpose(block, axes)
            t.append(acc)
        return _Jet(order, m, t)

    def reciprocal(self, node_text):
        if abs(self.t[0]) < 1e-300:
            raise EvaluationSingularity(node_text, abs(self.t[0]))
        order, m = self.order, self.m
        inv0 = 1.0 / self.t[0]
        t = [inv0]
        for r in range(1, order + 1):
            acc = np.zeros((m,) * r, dtype=complex)
            for s in range(1, r + 1):
                left = self.t[s]
                right = t[r - s] if r > s else None
                if s == r:
                    block_sum = left * t[0]
                    acc = acc + block_sum
                    continue
                block = np.multiply.outer(left, right)
                for axes in _SHUFFLES[r][s]:
                    acc = acc + np.transpose(block, axes)
            t.append(-inv0 * acc)
        return _Jet(order, m, t)

    def pow_int(self, exponent):
        order, m = self.order, self.m
        result = _Jet.constant(1.0, order, m)
        for _ in range(exponent):
            result = result * self
        return result


@dataclass(frozen=True)
class ComplexJet:
    """Holomorphic value and derivative tensors of F at a point.

    ``derivs[m-1]`` is the rank-m symmetric tensor of order-m partials,
    for m = 1..order.
    """

    order: int
    value: complex
    derivs: tuple

    def deriv(self, m: int) -> np.ndarray:
        if not 1 <= m <= self.order:
            raise ValueError(f"order-{m} derivative not in jet (order {self.order})")
        return self.derivs[m - 1]


def _eval_node(node, zvals, order, m):
    if isinstance(node, Lit):
        return _Jet.constant(node.value, order, m)
    if isinstance(node, Var):
        return _Jet.variable(node.index, zvals[node.index], order, m)
    if isinstance(node, Neg):
        return -_eval_node(node.arg, zvals, order, m)
    if isinstance(node, Sum):
        acc = _eval_node(node.terms[0], zvals, order, m)
        for term in node.terms[1:]:
            acc = acc + _eval_node(term, zvals, order, m)
        return acc
    if isinstance(node, Product):
        acc = _eval_node(node.factors[0], zvals, order, m)
        for factor in node.factors[1:]:
            acc = acc * _eval_node(factor, zvals, order, m)
        return acc
    if isinstance(node, Quotient):
        num = _eval_node(node.num, zvals, order, m)
        den = _eval_node(node.den, zvals, order, m)
        return num * den.reciprocal(_print(node.den, _P_SUM))
    if isinstance(node, Power):
        return _eval_node(node.base, zvals, order, m).pow_int(node.exponent)
    raise TypeError(f"not an AST node: {node!r}")


def eval_jet(ast: PrepotentialAst, z, order: int) -> ComplexJet:
    """Evaluate F and its holomorphic partials up to ``order`` at z."""
    if not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"order must be in [0, {MAX_JET_ORDER}]")
    zvals = np.asarray(z, dtype=complex)
    if zvals.shape != (ast.n_vars,):
        raise ValueError(f"point has shape {zvals.shape}, expected ({ast.n_vars},)")
    jet = _eval_node(ast.root, zvals, order, ast.n_vars)
    return ComplexJet(order, jet.t[0], tuple(jet.t[1 : order + 1]))


# ---------------------------------------------------------------------------
# Residual reduction
# ---------------------------------------------------------------------------


def max_or_nan(a, b):
    """The larger of two residuals, or NaN when either one is NaN.

    Builtin ``max(a, b)`` returns ``a`` when only ``b`` is NaN, so a NaN
    residual after the first would be dropped and the check would pass.
    """
    return a if a != a or a >= b else b


# ---------------------------------------------------------------------------
# Homogeneity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneityReport:
    """Worst-case degree-2 scaling and Euler residuals over a sample set."""

    scale_residual: float
    euler_residual: float
    skipped: tuple


def check_homogeneity(ast: PrepotentialAst, samples, scales) -> HomogeneityReport:
    """Residuals of F(lam*z) = lam^2 F(z) and sum_i z_i dF/dz_i = 2F.

    Singular samples are skipped and reported in ``skipped``.
    """
    scale_res = 0.0
    euler_res = 0.0
    skipped = []
    for idx, z in enumerate(samples):
        z = np.asarray(z, dtype=complex)
        try:
            jet = eval_jet(ast, z, 1)
            f_z = jet.value
            euler = abs(np.dot(z, jet.deriv(1)) - 2.0 * f_z) / (1.0 + abs(2.0 * f_z))
            euler_res = max_or_nan(euler_res, euler)
            for lam in scales:
                f_scaled = eval_jet(ast, lam * z, 0).value
                ref = lam * lam * f_z
                scale_res = max_or_nan(scale_res, abs(f_scaled - ref) / (1.0 + abs(ref)))
        except EvaluationSingularity:
            skipped.append(idx)
            continue
    return HomogeneityReport(scale_res, euler_res, tuple(skipped))


def jet_fd_residual(ast: PrepotentialAst, z, order: int = MAX_JET_ORDER) -> float:
    """Max relative gap between deriv[m] and central differences of deriv[m-1].

    Steps along each variable with a real increment 1e-5 * max(1, |z|);
    holomorphy makes the real-direction difference the holomorphic partial.
    """
    z = np.asarray(z, dtype=complex)
    step = 1e-5 * max(1.0, float(np.linalg.norm(z)))
    worst = 0.0
    for m in range(1, order + 1):
        exact = eval_jet(ast, z, m).deriv(m)
        scale = max(1.0, float(np.max(np.abs(exact))))
        for j in range(ast.n_vars):
            dz = np.zeros(ast.n_vars, dtype=complex)
            dz[j] = step
            if m == 1:
                hi = eval_jet(ast, z + dz, 0).value
                lo = eval_jet(ast, z - dz, 0).value
            else:
                hi = eval_jet(ast, z + dz, m - 1).deriv(m - 1)
                lo = eval_jet(ast, z - dz, m - 1).deriv(m - 1)
            fd = (hi - lo) / (2.0 * step)
            worst = max_or_nan(worst, float(np.max(np.abs(fd - exact[..., j]))) / scale)
    return worst
