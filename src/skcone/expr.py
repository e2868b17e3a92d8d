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
from functools import cache, cached_property
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

    @cached_property
    def tape(self) -> tuple:
        """The jet tape of F, compiled on first use and kept with the AST."""
        return _compile(self.root)


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
#
# An AST compiles once (lazily, see ``PrepotentialAst.tape``) to a
# straight-line tape: one instruction per distinct node, whose operands are
# the slots of earlier instructions.  ``eval_jet`` runs the tape on a stack
# of P points; a single point is the case P = 1.  Every derivative tensor
# carries the point axis first, and each one goes through the same numpy
# loops whatever P is, so a point's jet is bit-identical alone and in a
# stack.  The value part is the exception: numpy's complex multiply and
# divide fuse multiply-adds where CPython's complex arithmetic does not, so
# values stay Python complex numbers, one point at a time.


@cache
def _shuffles(r, s):
    """Axis permutations placing s "left factor" axes into each size-s subset of r slots.

    The Leibniz rule for the r-th derivative of a product sums the shuffled
    outer products.  Axis 0, the point axis, stays in place.
    """
    perms = []
    for subset in itertools.combinations(range(r), s):
        placement = list(subset) + [axis for axis in range(r) if axis not in subset]
        # placement[i] = destination slot of source axis i; np.transpose
        # wants axes[dest] = source.
        axes = [0] * r
        for src, dest in enumerate(placement):
            axes[dest] = src
        perms.append((0, *(axis + 1 for axis in axes)))
    return tuple(perms)


def _read_only(a):
    a.flags.writeable = False
    return a


@cache
def _zeros(m, r):
    """The rank-r zero tensor with a point axis of length 1, shared read-only."""
    return _read_only(np.zeros((1,) + (m,) * r, dtype=complex))


@cache
def _unit(m, index):
    """Gradient of the variable z_index, with a point axis of length 1, shared read-only."""
    e = np.zeros((1, m), dtype=complex)
    e[0, index] = 1.0
    return _read_only(e)


def _compile(root) -> tuple:
    """Post-order instructions of the AST; common subexpressions share a slot.

    Instructions: ("lit", value), ("var", index), ("neg", a), ("add", a, b),
    ("mul", a, b) and ("inv", a, text) with ``text`` the printed
    denominator.  A power is a chain of products starting from 1.
    """
    tape, slots = [], {}

    def emit(instr):
        if instr[0] == "lit":  # literals are cheap; -0.0 == 0.0 must not merge
            tape.append(instr)
            return len(tape) - 1
        if instr not in slots:
            slots[instr] = len(tape)
            tape.append(instr)
        return slots[instr]

    def walk(node):
        if isinstance(node, Lit):
            return emit(("lit", complex(node.value)))
        if isinstance(node, Var):
            return emit(("var", node.index))
        if isinstance(node, Neg):
            return emit(("neg", walk(node.arg)))
        if isinstance(node, (Sum, Product)):
            op, items = ("add", node.terms) if isinstance(node, Sum) else ("mul", node.factors)
            acc = walk(items[0])
            for item in items[1:]:
                acc = emit((op, acc, walk(item)))
            return acc
        if isinstance(node, Quotient):
            num = walk(node.num)
            inv = emit(("inv", walk(node.den), _print(node.den, _P_SUM)))
            return emit(("mul", num, inv))
        if isinstance(node, Power):
            base = walk(node.base)
            acc = emit(("lit", 1.0 + 0j))
            for _ in range(node.exponent):
                acc = emit(("mul", acc, base))
            return acc
        raise TypeError(f"not an AST node: {node!r}")

    walk(root)
    return tuple(tape)


def _outer(left, right):
    """Per-point outer product of two stacked tensors."""
    return left.reshape(left.shape + (1,) * (right.ndim - 1)) * right.reshape(
        right.shape[:1] + (1,) * (left.ndim - 1) + right.shape[1:])


def _run(tape, zs, order, m):
    """Run the tape on the stacked points zs (P, m).

    Returns the root's values (P Python complex numbers) and tensors, and a
    dict mapping each point that hit a singular denominator to its first
    :class:`EvaluationSingularity`; such a point carries NaN from there on.
    """
    count = len(zs)
    columns = zs.T.tolist()
    zero = [_zeros(m, r) for r in range(1, order + 1)]
    shapes = [(count,) + (1,) * r for r in range(1, order + 1)]

    def scaled(values):
        """Per-point scalars broadcasting against the tensors of each rank 1..order.

        One point needs no array: numpy broadcasts a Python complex through
        the same multiply as a (1, 1, ...) array.
        """
        if count == 1:
            return [values[0]] * order
        base = np.array(values, dtype=complex)
        return [base.reshape(shape) for shape in shapes]

    def scale_of(slot):
        if slot not in scales:
            scales[slot] = scaled(vals[slot])
        return scales[slot]

    singular = {}
    vals, tens, scales = [], [], {}
    for instr in tape:
        op = instr[0]
        if op == "lit":
            v, t = [instr[1]] * count, zero
        elif op == "var":
            v, t = columns[instr[1]], [_unit(m, instr[1])] + zero[1:] if order else zero
        elif op == "neg":
            v = [-x for x in vals[instr[1]]]
            t = [-x for x in tens[instr[1]]]
        elif op == "add":
            a, b = instr[1], instr[2]
            v = [x + y for x, y in zip(vals[a], vals[b])]
            t = [x + y for x, y in zip(tens[a], tens[b])]
        elif op == "mul":
            a, b = instr[1], instr[2]
            ta, tb = tens[a], tens[b]
            v = [x * y for x, y in zip(vals[a], vals[b])]
            t = []
            if order:
                sa, sb = scale_of(a), scale_of(b)
            for r in range(1, order + 1):
                acc = sa[r - 1] * tb[r - 1] + ta[r - 1] * sb[r - 1]
                for s in range(1, r):
                    block = _outer(ta[s - 1], tb[r - s - 1])
                    for axes in _shuffles(r, s):
                        acc = acc + block.transpose(axes)
                t.append(acc)
        else:  # "inv"
            a, text = instr[1], instr[2]
            v = []
            for p, x in enumerate(vals[a]):
                if abs(x) < 1e-300:
                    singular.setdefault(p, EvaluationSingularity(text, abs(x)))
                    v.append(complex("nan+nanj"))
                else:
                    v.append(1.0 / x)
            ta = tens[a]
            t = []
            if order:
                sv, sneg = scaled(v), scaled([-x for x in v])
            for r in range(1, order + 1):
                acc = zero[r - 1]
                for s in range(1, r + 1):
                    if s == r:
                        acc = acc + ta[r - 1] * sv[r - 1]
                        continue
                    block = _outer(ta[s - 1], t[r - s - 1])
                    for axes in _shuffles(r, s):
                        acc = acc + block.transpose(axes)
                t.append(sneg[r - 1] * acc)
        vals.append(v)
        tens.append(t)
    return vals[-1], tens[-1], singular


@dataclass(frozen=True)
class ComplexJet:
    """Holomorphic value and derivative tensors of F at a point, or at a stack of points.

    ``derivs[m-1]`` is the rank-m symmetric tensor of order-m partials,
    for m = 1..order.  A jet of a stack of P points has a leading point
    axis on ``value`` and on every tensor, and ``singular`` maps each point
    that hit a singular denominator to its error; those points hold NaN.
    """

    order: int
    value: complex
    derivs: tuple
    singular: dict

    def deriv(self, m: int) -> np.ndarray:
        if not 1 <= m <= self.order:
            raise ValueError(f"order-{m} derivative not in jet (order {self.order})")
        return self.derivs[m - 1]

    def row(self, p: int) -> "ComplexJet":
        """Point p of a stacked jet as a single-point jet.

        A view of what was evaluated, not an evaluation: it is built through
        ``type(self)``, so the jets made by :func:`eval_jet` are exactly one
        per call.
        """
        return type(self)(self.order, complex(self.value[p]), tuple(d[p] for d in self.derivs), {})


def eval_jet(ast: PrepotentialAst, z, order: int) -> ComplexJet:
    """Evaluate F and its holomorphic partials up to ``order`` at z.

    z is one point of shape (n,), or a stack of points of shape (P, n).  A
    singular denominator raises at a single point; in a stack it marks
    only its own point (see :class:`ComplexJet`).
    """
    if not 0 <= order <= MAX_JET_ORDER:
        raise ValueError(f"order must be in [0, {MAX_JET_ORDER}]")
    zs = np.asarray(z, dtype=complex)
    stacked = zs.ndim == 2
    if zs.shape[-1:] != (ast.n_vars,) or zs.ndim not in (1, 2):
        raise ValueError(f"point has shape {zs.shape}, expected ({ast.n_vars},) or (P, {ast.n_vars})")
    values, tensors, singular = _run(ast.tape, zs.reshape(-1, ast.n_vars), order, ast.n_vars)
    count = len(values)
    # A root that is a literal or a bare variable hands back a shared read-only
    # constant with a point axis of length 1: give the caller its own copy.
    derivs = tuple(t if t.shape[0] == count and t.flags.writeable
                   else np.broadcast_to(t, (count,) + t.shape[1:]).copy() for t in tensors)
    if stacked:
        return ComplexJet(order, np.array(values, dtype=complex), derivs, singular)
    if singular:
        raise singular[0]
    return ComplexJet(order, values[0], tuple(t[0] for t in derivs), singular)


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

    The samples are evaluated as one order-1 stack, and their scaled points
    ``lam * z`` as one order-0 stack per scale.  A sample whose own point is
    singular contributes nothing; one whose point at some scale is singular
    keeps its Euler residual and those of the scales before it.  Either way
    it is reported once in ``skipped``.
    """
    scale_res = 0.0
    euler_res = 0.0
    skipped = []
    zs = [np.asarray(z, dtype=complex) for z in samples]
    if not zs:
        return HomogeneityReport(scale_res, euler_res, ())
    base = eval_jet(ast, np.stack(zs), 1)
    scaled = [eval_jet(ast, np.stack([lam * z for z in zs]), 0) for lam in scales]
    for idx, z in enumerate(zs):
        if idx in base.singular:
            skipped.append(idx)
            continue
        jet = base.row(idx)
        f_z = jet.value
        euler = abs(np.dot(z, jet.deriv(1)) - 2.0 * f_z) / (1.0 + abs(2.0 * f_z))
        euler_res = max_or_nan(euler_res, euler)
        for lam, stack in zip(scales, scaled):
            if idx in stack.singular:
                skipped.append(idx)
                break
            f_scaled = complex(stack.value[idx])
            ref = lam * lam * f_z
            scale_res = max_or_nan(scale_res, abs(f_scaled - ref) / (1.0 + abs(ref)))
    return HomogeneityReport(scale_res, euler_res, tuple(skipped))


def jet_fd_residual(ast: PrepotentialAst, z, order: int = MAX_JET_ORDER) -> float:
    """Max relative gap between deriv[m] and central differences of deriv[m-1].

    Steps along each variable with a real increment 1e-5 * max(1, |z|);
    holomorphy makes the real-direction difference the holomorphic partial.
    One jet of order ``order`` at z gives every exact tensor, since its
    lower tensors are the same floats as a lower-order jet's.  The 2n
    offsets z + dz_j, z - dz_j of each order are evaluated as one stack; a
    singular offset raises the error of the first one in that order, as
    evaluating them one at a time would.
    """
    z = np.asarray(z, dtype=complex)
    step = 1e-5 * max(1.0, float(np.linalg.norm(z)))
    n = ast.n_vars
    dz = step * np.eye(n, dtype=complex)
    offsets = np.stack([z + dz, z - dz], axis=1).reshape(2 * n, n)  # rows z+dz_0, z-dz_0, z+dz_1, ...
    worst = 0.0
    jet = eval_jet(ast, z, order) if order > 0 else None
    for m in range(1, order + 1):
        exact = jet.deriv(m)
        scale = max(1.0, float(np.max(np.abs(exact))))
        stack = eval_jet(ast, offsets, m - 1)
        if stack.singular:
            raise stack.singular[min(stack.singular)]
        for j in range(n):
            if m == 1:
                hi, lo = complex(stack.value[2 * j]), complex(stack.value[2 * j + 1])
            else:
                hi, lo = stack.deriv(m - 1)[2 * j], stack.deriv(m - 1)[2 * j + 1]
            fd = (hi - lo) / (2.0 * step)
            worst = max_or_nan(worst, float(np.max(np.abs(fd - exact[..., j]))) / scale)
    return worst
