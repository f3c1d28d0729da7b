"""Expression trees for modulation formulas.

Nodes are immutable dataclasses. Source spans are carried for error
reporting but excluded from equality, so two parses of equivalent text
compare structurally equal.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .symbols import LABEL_STREAMS, resolve

Span = tuple[int, int]

_NO_SPAN: Span = (0, 0)


@dataclass(frozen=True)
class Const:
    value: float
    span: Span = field(default=_NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Symbol:
    name: str
    span: Span = field(default=_NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "Expr"
    span: Span = field(default=_NO_SPAN, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Call:
    func: str  # sin, cos, integral, sum
    args: tuple["Expr", ...]
    span: Span = field(default=_NO_SPAN, compare=False, repr=False, kw_only=True)


Expr = Union[Const, Symbol, Neg, BinOp, Pow, Call]


def children(expr: Expr) -> tuple[Expr, ...]:
    if isinstance(expr, (Const, Symbol)):
        return ()
    if isinstance(expr, Neg):
        return (expr.operand,)
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, Pow):
        return (expr.base, expr.exponent)
    return expr.args


def depth(expr: Expr) -> int:
    """Height of the tree; a lone constant or symbol has depth 1."""
    kids = children(expr)
    if not kids:
        return 1
    return 1 + max(depth(k) for k in kids)


def _scoped(node: Expr, bound: frozenset[str]) -> list[tuple[Expr, frozenset[str]]]:
    """Each child of a node with the names bound in it: the language's one
    scoping rule. A sum binds its index in its body, and the index itself
    is not a child, so it is never a read."""
    if isinstance(node, Call) and node.func == "sum":
        body, index, *limits = node.args
        return [(body, bound | {index.name})] + [(k, bound) for k in limits]
    return [(kid, bound) for kid in children(node)]


def walk(expr: Expr) -> Iterator[tuple[Expr, frozenset[str], bool]]:
    """Yield (node, bound names, inside an integral body) in preorder."""
    stack = [(expr, frozenset(), False)]
    while stack:
        node, bound, in_integral = item = stack.pop()
        yield item
        if isinstance(node, (Const, Symbol)):
            continue
        integral = isinstance(node, Call) and node.func == "integral"
        kids = _scoped(node, bound)
        for i in range(len(kids) - 1, -1, -1):
            kid, kid_bound = kids[i]
            stack.append((kid, kid_bound, in_integral or (integral and i == 0)))


def op_count(expr: Expr) -> int:
    """Number of arithmetic and function-evaluation nodes in the tree.

    Constants and symbols are free; every negate, binary operation, power
    and function call counts as one operation. Additive over subtrees, so
    the total for a waveform run is op_count(expr) * sample count.
    """
    return sum(not isinstance(node, (Const, Symbol)) for node, _, _ in walk(expr))


def reads(expr: Expr) -> tuple[frozenset[str], frozenset[str]]:
    """The symbols a tree reads, and those read inside integral bodies.

    Each name is reported as the namespace resolves it (a bare d as d(t)),
    or as written where it is undefined. A bound sum index is no read.
    """
    names, integrated = set(), set()
    for node, bound, in_integral in walk(expr):
        if isinstance(node, Symbol) and node.name not in bound:
            name = resolve(node.name) or node.name
            names.add(name)
            if in_integral:
                integrated.add(name)
    return frozenset(names), frozenset(integrated)


def affine_in(expr: Expr) -> bool:
    """Whether the tree is a(t) + sum_i c_i(t)*s_i(t) in the label streams.

    Conservative: True only for a subtree that reads no stream, a stream
    symbol, negations, sums and differences of such terms, products in
    which at most one factor reads a stream, and division by a divisor
    that reads none. A power, sin, cos, sum or integral of a stream is
    never affine. Names resolve as in reads, so a bare Q is Q(t). One
    bottom-up walk returns each subtree's (reads a stream, affine).
    """

    def visit(node: Expr, bound: frozenset[str]) -> tuple[bool, bool]:
        if isinstance(node, Symbol):
            hit = node.name not in bound and resolve(node.name) in LABEL_STREAMS
            return hit, True
        kids = [visit(kid, kid_bound) for kid, kid_bound in _scoped(node, bound)]
        if not any(hit for hit, _ in kids):
            return False, True
        if isinstance(node, Neg):
            return True, kids[0][1]
        if isinstance(node, BinOp):
            (left_hit, left), (right_hit, right) = kids
            if node.op in "+-":
                return True, left and right
            if node.op == "*":
                return True, left and right and not (left_hit and right_hit)
            return True, left and not right_hit
        return True, False

    return visit(expr, frozenset())[1]


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _PREC_ADD if expr.op in "+-" else _PREC_MUL
    if isinstance(expr, Neg):
        return _PREC_UNARY
    if isinstance(expr, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_number(value: float) -> str:
    """Plain decimal digits, the only number form the lexer reads, in the
    shortest form that reads back as the same float."""
    return np.format_float_positional(value, trim="-")


def to_text(expr: Expr) -> str:
    """Render the tree in the ASCII formula grammar.

    Emits explicit `*` for every product. Output reparses to a tree that
    compares structurally equal to the input.
    """
    if isinstance(expr, Const):
        return _fmt_number(expr.value)
    if isinstance(expr, Symbol):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_text(expr.operand)
        if _prec(expr.operand) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        me = _prec(expr)
        left = to_text(expr.left)
        if _prec(expr.left) < me:
            left = f"({left})"
        right = to_text(expr.right)
        # left-associative grammar: equal-precedence right children need parens
        if _prec(expr.right) <= me:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, Pow):
        base = to_text(expr.base)
        if _prec(expr.base) < _PREC_POW:
            base = f"({base})"
        exponent = to_text(expr.exponent)
        if _prec(expr.exponent) <= _PREC_POW:
            exponent = f"({exponent})"
        return f"{base}^{exponent}"
    return f"{expr.func}({', '.join(to_text(a) for a in expr.args)})"
