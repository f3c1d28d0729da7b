import contextlib
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from modwave import grid as grids
from modwave.dsl import BinOp, Call, Const, Neg, Pow, Symbol
from modwave.dsl.ast import Expr, _scoped, basis_terms, children, reads
from modwave.dsl.symbols import LABEL_STREAMS, NAMES, resolve
from modwave.metrics import extract_constellation
from modwave.synth import constellation, labels_to_bits

# derandomized: every run draws the same examples, so Tier-1 stays deterministic
settings.register_profile(
    "modwave", derandomize=True, max_examples=20, deadline=None, database=None
)
settings.load_profile("modwave")


@contextlib.contextmanager
def cold_store():
    """Run the body on an empty grid store; the store before it comes back after."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grids, "_LAST", None)
        yield


# the three grids of the continuous-phase tests: the default, 16 samples
# per symbol with a non-unit amplitude, and an off-cycle carrier at 10
CPM_GEOMETRIES = [
    {},
    {"carrier_freq": 4000.0, "samples_per_symbol": 16, "amplitude": 0.7},
    {"carrier_freq": 2745.0, "symbol_rate": 1200.0, "samples_per_symbol": 10},
]
CPM_GEOMETRY_IDS = ["sps48", "sps16", "off-cycle-sps10"]

# values a number formatter must spell right: signed zeros, infinities,
# nan, the extremes of float64, whole numbers stored as floats
SPECIAL = np.array(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, 1e-12,
     3.0, -42.0, 2.0**53, 1.0 / 3.0, 12345.678901234]
)
# values that float32 rounds, and its own extremes
SPECIAL_F32 = np.array(
    [0.1, 1.0 / 3.0, 3.4e38, 1e-45, 1e-40, -2.5, 16777217.0, 0.0], dtype=np.float32
)


def row_writer(path, header: str, row_format: str, rows, newline: str = "\r\n") -> None:
    """The row-at-a-time table writer, `row_format % row` per row: the
    oracle for modwave.table, which formats whole blocks of cells."""
    line = (row_format + newline).encode()
    with open(path, "wb") as handle:
        handle.write((header + newline).encode())
        handle.writelines(line % tuple(row) for row in rows)


def row_bytes(table, newline: str = "\r\n") -> bytes:
    """A 2-D float table at %.10g, comma-separated, one `%` per row."""
    table = np.asarray(table, dtype=np.float64)
    line = (",".join(["%.10g"] * table.shape[1]) + newline).encode()
    return b"".join(line % tuple(row) for row in table.tolist())


def table_edges() -> np.ndarray:
    """Values a %.10g formatter gets wrong first, each also negated."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    rng = np.random.default_rng(24)
    mantissas = rng.integers(10**9, 10**10, 3000).astype(float)
    scales = np.array([float(f"1e{k}") for k in rng.integers(-300, 290, 3000)])
    switches = [
        # carries across a notation switch, and both sides of each switch
        9.9999999996e-05, 9.9999999995e-05, 9.9999999994e-05, 1e-05, 9.999999999e-06,
        0.0001, 0.00010000000005, 9999999999.6, 9999999999.5, 9999999999.4, 1e10,
        999999999.96, 1e9, 99999.999995, 0.00099999999995,
        # the ends of float64, and of the range formatted in numpy
        5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
        1e-280, 1e280, 0.0, math.inf, math.nan,
    ]
    values = np.concatenate([
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, math.inf),
        # 11th-digit ties: exact in binary up to 2**53, rounded beyond it
        mantissas + 0.5,
        (mantissas * 10 + 5) * 10.0 ** rng.integers(-12, 4, 3000),
        (mantissas + 0.5) * scales,
        switches,
    ])
    return np.concatenate([values, -values])

# grammar files of each shape that load_grammar rejects, by what is wrong;
# past the first two, the fault is in the alternatives of the rule "tail"
MALFORMED_GRAMMARS = {
    "not-json": b'{"start": [',
    "not-utf8": b'{"start": [{"production": "A \xff", "weight": 1.0}]}',
    **{
        kind: b'{"start": [{"production": "A", "weight": 1.0}], "tail": ' + tail + b"}"
        for kind, tail in {
            "alternatives-object": b'{"production": "A", "weight": 1.0}',
            "alternative-not-object": b'["A"]',
            "missing-production": b'[{"weight": 1.0}]',
            "extra-key": b'[{"production": "A", "weight": 1.0, "note": "x"}]',
            "production-not-string": b'[{"production": 3, "weight": 1.0}]',
            "weight-string": b'[{"production": "A", "weight": "heavy"}]',
            "weight-bool": b'[{"production": "A", "weight": true}]',
        }.items()
    },
}


# constants as the lexer reads them, plain decimal digits: whole numbers
# up to 1e21 and fractions down to 1e-9; names in and out of the namespace
_CONSTANTS = st.one_of(
    st.integers(0, 10**21).map(float),
    st.builds(lambda m, k: float(f"0.{'0' * k}{m}"), st.integers(1, 10**6), st.integers(0, 8)),
)
_NAMES = sorted(NAMES) + ["I", "Q", "d", "f", "i", "j", "x_q"]


def _extend(kids):
    return st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
        st.builds(Pow, kids, kids),
        st.builds(lambda f, x: Call(f, (x,)), st.sampled_from(("sin", "cos")), kids),
        kids.map(lambda body: Call("integral", (body, Symbol("t")))),
        st.builds(
            lambda body, index, low, high: Call("sum", (body, Symbol(index), low, high)),
            kids, st.sampled_from(("i", "j", "I")), kids, kids,
        ),
    )


# every node kind, small enough for the lexer's length and token limits
FORMULA_TREES = st.recursive(
    st.one_of(_CONSTANTS.map(Const), st.sampled_from(_NAMES).map(Symbol)),
    _extend,
    max_leaves=6,
)


def qfunc(x: float) -> float:
    """Gaussian tail probability, the textbook detection oracle."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def oracle_demap_labels(points_rx, alphabet):
    """The distance demapper: argmin |p - c| over every alphabet point c."""
    return np.argmin(np.abs(points_rx[:, None] - alphabet), axis=1)


def oracle_nearest_point_bits(received, config):
    """The coherent receiver the alphabet rows had: the constellation
    points, scaled by their blind RMS gain, to the nearest alphabet point."""
    points = extract_constellation(received, config)
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    labels = oracle_demap_labels(points, constellation(config.scheme))
    return labels_to_bits(labels, config.bits_per_symbol)


# The separable pass as two walks, a rewritten tree with feature symbols #j
# and a second walk that splits it into terms: the oracle of
# dsl.ast.basis_terms.


def _additive(node: Expr, sign: int = 1) -> list[tuple[int, Expr]]:
    """The signed additive terms of a tree: a - (b + c) is +a, -b, -c."""
    if isinstance(node, BinOp) and node.op in "+-":
        flip = sign if node.op == "+" else -sign
        return _additive(node.left, sign) + _additive(node.right, flip)
    return [(sign, node)]


def _signed_sum(terms: list[tuple[int, Expr]]) -> Expr:
    (sign, out), *rest = terms
    out = out if sign > 0 else Neg(out)
    for sign, term in rest:
        out = BinOp("+" if sign > 0 else "-", out, term)
    return out


def oracle_separable_in(expr: Expr) -> tuple[Expr, dict[str, Expr]] | None:
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
            return all(not all(seen[id(term)][:2]) for _, term in _additive(node.args[0]))
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
        for sign, term in _additive(node.args[0]):
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


def oracle_affine_terms(expr: Expr) -> list[tuple[Expr, Expr | None, str | None]]:
    """oracle_separable_in's rewritten tree as a sum of terms scalar·part·column.

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
        else:  # time as oracle_separable_in reads it: t, m(t) or an undefined name
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


def oracle_basis_terms(expr):
    """oracle_affine_terms in basis_terms' form: each column a tree, a
    stream as its resolved name and a feature #j as its h_j."""
    split = oracle_separable_in(expr)
    if split is None:
        return None
    rewritten, features = split
    return [
        (s, p, None if c is None else features.get(c, Symbol(c)))
        for s, p, c in oracle_affine_terms(rewritten)
    ]


def stream_affine(expr) -> bool:
    """Whether basis_terms splits the tree with every column a label
    stream: affine in the streams, with no feature."""
    terms = basis_terms(expr)
    return terms is not None and all(c is None or isinstance(c, Symbol) for *_, c in terms)
