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


def separable_in(expr: Expr) -> tuple[Expr, dict[str, Expr]] | None:
    """The tree as a(t) + sum_j c_j(t)*h_j(labels), or None for the bank.

    Returns (rewritten, features). rewritten is affine in the label streams
    it reads and in feature streams named #0, #1, ..., and features maps
    each name to h_j, a tree that reads label streams and otherwise only pi
    and scalars. Bound to the h_j's values, rewritten equals the tree. A
    tree affine in the streams comes back unchanged, with no features.

    One bottom-up walk classes each subtree by whether it reads a label
    stream and whether it reads time (t, m(t) or an undefined name):
    - a maximal subtree that reads streams but not time becomes a feature,
      unless it is affine in the streams, like (I - Q)/2, which stays;
    - negations, sums and differences, products in which at most one
      factor reads a stream, and division by a divisor that reads none
      keep the tree affine;
    - cos(a + b) and sin(a + b), where the additive terms of a read no
      stream and those of b no time, become cos a*h_cos - sin a*h_sin
      and sin a*h_cos + cos a*h_sin, with h_cos = cos b and h_sin = sin b.
    Anything else is None: a product of two stream terms, a power of a
    term that reads both, a stream times t inside a phase, and a stream
    in a sum or integral. Names resolve as in reads, so a bare Q is Q(t).
    """
    features: dict[Expr, Symbol] = {}
    seen: dict[int, tuple[bool, bool, bool]] = {}  # (stream, time, affine) by node id

    def visit(node: Expr, bound: frozenset[str]) -> bool:
        """Whether the node is separable; records its class in seen."""
        if isinstance(node, (Const, Symbol)):
            stream = time = False
            if isinstance(node, Symbol) and node.name not in bound:
                name = resolve(node.name)
                stream = name in LABEL_STREAMS
                time = not stream and (name is None or name == "t" or name.endswith("(t)"))
            seen[id(node)] = stream, time, True
            return True
        scoped = _scoped(node, bound)
        if not all(visit(kid, kid_bound) for kid, kid_bound in scoped):
            return False
        classes = [seen[id(kid)] for kid, _ in scoped]
        stream = any(c[0] for c in classes)
        time = any(c[1] for c in classes)
        linear = True  # the node keeps its stream terms affine
        if stream:
            if isinstance(node, Call) and node.func in ("sum", "integral"):
                return False
            if isinstance(node, BinOp) and node.op == "*":
                linear = not (classes[0][0] and classes[1][0])
            elif isinstance(node, BinOp) and node.op == "/":
                linear = not classes[1][0]
            else:
                linear = isinstance(node, (Neg, BinOp))
        seen[id(node)] = stream, time, linear and all(c[2] for c in classes)
        if not (stream and time):
            return True
        if isinstance(node, Call):  # sin or cos: no additive term may read both
            return all(not all(seen[id(term)][:2]) for _, term in _terms(node.args[0]))
        return linear

    def feature(tree: Expr) -> Symbol:  # #j: a name no formula can spell
        return features.setdefault(tree, Symbol(f"#{len(features)}"))

    def rewrite(node: Expr) -> Expr:
        stream, time, affine = seen[id(node)]
        if not stream or (not time and affine):
            return node
        if not time:
            return feature(node)
        if isinstance(node, Neg):
            return Neg(rewrite(node.operand))
        if isinstance(node, BinOp):
            return BinOp(node.op, rewrite(node.left), rewrite(node.right))
        a, b = [], []
        for sign, term in _terms(node.args[0]):
            (b if seen[id(term)][0] else a).append((sign, term))
        a, b = _signed_sum(a), _signed_sum(b)
        h_cos, h_sin = feature(Call("cos", (b,))), feature(Call("sin", (b,)))
        cos_a, sin_a = Call("cos", (a,)), Call("sin", (a,))
        if node.func == "cos":
            return BinOp("-", BinOp("*", cos_a, h_cos), BinOp("*", sin_a, h_sin))
        return BinOp("+", BinOp("*", sin_a, h_cos), BinOp("*", cos_a, h_sin))

    if not visit(expr, frozenset()):
        return None
    new = rewrite(expr)
    return new, {symbol.name: tree for tree, symbol in features.items()}


_ONE = Const(1.0)


def _times(a: Expr | None, b: Expr | None) -> Expr | None:
    """a * b, where None and 1 are the empty product."""
    if a is None or a == _ONE:
        return b
    return a if b is None or b == _ONE else BinOp("*", a, b)


def affine_terms(expr: Expr) -> list[tuple[Expr, Expr | None, str | None]]:
    """separable_in's rewritten tree as a sum of terms scalar·part·column.

    A column is a label stream or a feature #j; scalar reads only pi and
    scalar names; part, None for 1, reads time. Only a node that reads a
    column is split: a sum into its terms, a product into its factors, and
    x / y into x times the subtree 1 / y. So each part is a maximal
    column-free subtree, or a product of such, and the evaluator keeps the
    same subtrees in the grid store under the same keys.
    """

    def expand(node: Expr) -> list[tuple[Expr, Expr | None, str | None]]:
        name = (resolve(node.name) or node.name) if isinstance(node, Symbol) else None
        if name in LABEL_STREAMS or name and name.startswith("#"):
            return [(_ONE, None, name)]
        if isinstance(node, (Neg, BinOp)):
            kids = [expand(kid) for kid in children(node)]
            if any(column for terms in kids for *_, column in terms):
                return split(node, *kids)
            time = any(part is not None for terms in kids for _, part, _ in terms)
        else:  # time as separable_in reads it: t, m(t) or an undefined name
            time = any(resolve(n) in (None, "t") or n.endswith("(t)") for n in reads(node)[0])
        return [(_ONE, node, None)] if time else [(node, None, None)]

    def split(node: Expr, *kids) -> list[tuple[Expr, Expr | None, str | None]]:
        if isinstance(node, Neg):
            return [(Neg(s), p, c) for s, p, c in kids[0]]
        left, right = kids
        if node.op in "+-":
            return left + (right if node.op == "+" else [(Neg(s), p, c) for s, p, c in right])
        if node.op == "/":
            right = expand(BinOp("/", _ONE, node.right))
        return [(_times(s, z), _times(p, q), c or d) for s, p, c in left for z, q, d in right]

    return expand(expr)


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
