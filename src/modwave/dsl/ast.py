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


def _terms(node: Expr, sign: int = 1) -> list[tuple[int, Expr]]:
    """The signed additive terms of a tree: a - (b + c) is +a, -b, -c."""
    if isinstance(node, BinOp) and node.op in "+-":
        flip = sign if node.op == "+" else -sign
        return _terms(node.left, sign) + _terms(node.right, flip)
    return [(sign, node)]


def _signed_sum(terms: list[tuple[int, Expr]]) -> Expr:
    (sign, out), *rest = terms
    out = out if sign > 0 else Neg(out)
    for sign, term in rest:
        out = BinOp("+" if sign > 0 else "-", out, term)
    return out


_ONE = Const(1.0)

# scalar, part (None for 1) and column (None for 1) of one basis term
Term = tuple[Expr, Expr | None, Expr | None]


def _times(a: Expr | None, b: Expr | None) -> Expr | None:
    """a * b, where None and 1 are the empty product."""
    if a is None or a == _ONE:
        return b
    return a if b is None or b == _ONE else BinOp("*", a, b)


def basis_terms(expr: Expr) -> list[Term] | None:
    """The tree as a sum of terms scalar·part·column, or None for the bank.

    scalar reads only pi and scalar names; part reads time (t, m(t) or an
    undefined name) and no label stream; column reads label streams and no
    time. A column is a stream leaf, named as the namespace resolves it, so
    I and I(t) are one column, or a feature h(labels) such as cos(pi*d) or
    I*Q. One bottom-up walk classes each node once, by whether it reads a
    stream, reads time and is affine in the streams, and makes its terms
    from its children's:
    - a node that reads no stream is one term, a part if it reads time and
      a scalar if not, so each part is a maximal column-free subtree, or a
      product of such, as the evaluator keys them in the grid store;
    - a maximal subtree that reads streams but not time is one feature,
      unless it is affine in the streams, like (I - Q)/2, and is split;
    - negations, sums and differences, products in which at most one
      factor reads a stream, and x / y with a divisor that reads none, as
      x times the term 1 / y, are split into their children's terms;
    - cos(a + b) and sin(a + b), where the additive terms of a read no
      stream and those of b no time, are cos a*cos b - sin a*sin b and
      sin a*cos b + cos a*sin b, with features cos b and sin b.
    Anything else is None: a product of two stream terms, a power of a
    term that reads both, a stream times t inside a phase, and a stream in
    a sum or integral.
    """
    seen: dict[int, tuple[bool, bool]] = {}  # (stream, time) by node id

    def atom(node: Expr, time: bool) -> list[Term]:
        return [(_ONE, node, None)] if time else [(node, None, None)]

    def visit(node: Expr, bound: frozenset[str]) -> tuple[bool, list[Term]] | None:
        """(affine, terms) of a separable node, else None."""
        if isinstance(node, (Const, Symbol)):  # a constant or bound index reads as pi
            name = resolve(node.name) if isinstance(node, Symbol) and node.name not in bound else "pi"
            stream = name in LABEL_STREAMS
            time = not stream and (name is None or name == "t" or name.endswith("(t)"))
            seen[id(node)] = stream, time
            return True, [(_ONE, None, Symbol(name))] if stream else atom(node, time)
        scoped = _scoped(node, bound)
        kids = []
        for kid, kid_bound in scoped:
            if (kid := visit(kid, kid_bound)) is None:
                return None
            kids.append(kid)
        classes = [seen[id(kid)] for kid, _ in scoped]
        stream, time = any(c[0] for c in classes), any(c[1] for c in classes)
        seen[id(node)] = stream, time
        if not stream:
            return True, atom(node, time)
        if isinstance(node, BinOp) and node.op == "*":
            linear = not (classes[0][0] and classes[1][0])
        elif isinstance(node, BinOp) and node.op == "/":
            linear = not classes[1][0]
        else:
            linear = isinstance(node, (Neg, BinOp))
        affine = linear and all(a for a, _ in kids)
        if isinstance(node, Call):
            if node.func in ("sum", "integral"):
                return None
            if time:
                return phase(node)
        if not time and not affine:
            return False, [(_ONE, None, node)]  # a feature
        if not linear:
            return None
        if isinstance(node, Neg):
            return affine, [(Neg(s), p, c) for s, p, c in kids[0][1]]
        (_, left), (_, right) = kids
        if node.op in "+-":
            return affine, left + (right if node.op == "+" else [(Neg(s), p, c) for s, p, c in right])
        if node.op == "/":
            right = atom(BinOp("/", _ONE, node.right), classes[1][1])
        return affine, [(_times(s, z), _times(p, q), c or d) for s, p, c in left for z, q, d in right]

    def phase(node: Call) -> tuple[bool, list[Term]] | None:
        a, b = [], []
        for sign, term in _terms(node.args[0]):
            stream, time = seen[id(term)]
            if stream and time:
                return None
            (b if stream else a).append((sign, term))
        a, b = _signed_sum(a), _signed_sum(b)
        cos_a, sin_a, h_cos, h_sin = (Call(f, (x,)) for x in (a, b) for f in ("cos", "sin"))
        if node.func == "cos":
            return False, [(_ONE, cos_a, h_cos), (Neg(_ONE), sin_a, h_sin)]
        return False, [(_ONE, sin_a, h_cos), (_ONE, cos_a, h_sin)]

    split = visit(expr, frozenset())
    return None if split is None else split[1]


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
