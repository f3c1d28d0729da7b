import random
import string

import pytest
from hypothesis import given

from modwave.dsl import (
    BinOp,
    Call,
    Const,
    Neg,
    Pow,
    Symbol,
    bundled_corpus_path,
    bundled_generated_path,
    depth,
    load_corpus,
    op_count,
    parse_formula,
    to_text,
    tokenize,
)
from modwave.dsl.ast import reads
from modwave.dsl.parser import parse
from modwave.errors import LexicalError, ParseError

from conftest import FORMULA_TREES

AM_TEXT = "A_c * (1 + m * cos(2*pi*f_m*t + phi_m)) * cos(2*pi*f_c*t + phi_c)"


def test_am_formula_structure():
    tree = parse_formula(AM_TEXT)
    # left-associative product: root is *, left subtree is A_c(1 + m cos(...))
    assert isinstance(tree, BinOp) and tree.op == "*"
    left = tree.left
    assert isinstance(left, BinOp) and left.op == "*"
    assert left.left == Symbol("A_c")
    envelope = left.right
    assert isinstance(envelope, BinOp) and envelope.op == "+"
    assert envelope.left == Const(1.0)
    carrier = tree.right
    assert isinstance(carrier, Call) and carrier.func == "cos"


def test_unbalanced_close():
    with pytest.raises(ParseError) as err:
        parse_formula("cos(2*pi*f_c*t")
    assert err.value.kind == "unbalanced-parenthesis"


def test_m2_contains_data_term():
    entries = {e.id: e for e in load_corpus(bundled_generated_path())}
    tree = parse_formula(entries["m2"].formula)
    term = parse_formula("A*pi*d(t)*sin(2*pi*f_c*t)")

    def subtrees(node):
        yield node
        if isinstance(node, BinOp):
            yield from subtrees(node.left)
            yield from subtrees(node.right)
        elif isinstance(node, (Call,)):
            for a in node.args:
                yield from subtrees(a)
        elif isinstance(node, Neg):
            yield from subtrees(node.operand)
        elif isinstance(node, Pow):
            yield from subtrees(node.base)
            yield from subtrees(node.exponent)

    assert any(sub == term for sub in subtrees(tree))


def test_precedence_and_associativity():
    tree = parse_formula("a + b * c ^ 2")
    assert isinstance(tree, BinOp) and tree.op == "+"
    product = tree.right
    assert isinstance(product, BinOp) and product.op == "*"
    assert isinstance(product.right, Pow)
    # left-associative chains
    chain = parse_formula("a - b - c")
    assert chain == BinOp("-", BinOp("-", Symbol("a"), Symbol("b")), Symbol("c"))
    powers = parse_formula("a ^ b ^ c")
    assert powers == Pow(Pow(Symbol("a"), Symbol("b")), Symbol("c"))


def test_signal_reference_vs_juxtaposition():
    assert parse_formula("Q(t)") == Symbol("Q(t)")
    # any other parenthesized group after an identifier is a product
    assert parse_formula("A_c(1 + x)") == BinOp(
        "*", Symbol("A_c"), BinOp("+", Const(1.0), Symbol("x"))
    )
    assert parse_formula("m(t + 1)") == BinOp(
        "*", Symbol("m"), BinOp("+", Symbol("t"), Const(1.0))
    )


def test_unary_minus():
    assert parse_formula("-a * b") == BinOp("*", Neg(Symbol("a")), Symbol("b"))
    assert parse_formula("-a ^ 2") == Neg(Pow(Symbol("a"), Const(2.0)))
    assert parse_formula("a * -b") == BinOp("*", Symbol("a"), Neg(Symbol("b")))


def test_function_arity_errors():
    for text in ("sin(t, t)", "integral(m(t))", "sum(m, i, 1)", "cos()"):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert err.value.kind in ("arity-error", "unexpected-token", "dangling-operator")
    with pytest.raises(ParseError) as err:
        parse_formula("sum(m, 2, 1, n)")
    assert err.value.kind == "arity-error"


def test_dangling_operator():
    with pytest.raises(ParseError) as err:
        parse_formula("a + ")
    assert err.value.kind == "dangling-operator"


def test_depth_limit():
    deep = "(" * 20 + "a" + ")" * 20
    assert parse_formula(deep) == Symbol("a")
    # 100 chained negations stay under the token cap but over the default depth
    nested = "-" * 100 + "a"
    with pytest.raises(ParseError) as err:
        parse_formula(nested)
    assert err.value.kind == "too-deep"


def test_roundtrip_over_bundled_corpora():
    for path in (bundled_corpus_path(), bundled_generated_path()):
        for entry in load_corpus(path):
            tree = parse_formula(entry.formula)
            again = parse_formula(to_text(tree))
            assert again == tree, entry.id


def test_roundtrip_misc_shapes():
    for text in (
        "a - (b - c)",
        "a / b / c",
        "a / (b / c)",
        "-(a + b)",
        "2 ^ (x + 1)",
        "sum(i * m, i, 1, n)",
        "integral(m(t), t) + Q(t)",
        # constants print as plain decimals, never in exponent form
        "0.00001 * A + 100000000000000000000",
    ):
        tree = parse_formula(text)
        assert parse_formula(to_text(tree)) == tree, text


@given(tree=FORMULA_TREES)
def test_roundtrip_drawn_trees(tree):
    assert parse_formula(to_text(tree)) == tree


def test_parser_totality_fuzz():
    # any input yields a tree or a classified error, never another exception
    alphabet = string.ascii_letters + string.digits + "+-*/^(), _."
    rnd = random.Random(1234)
    for _ in range(3000):
        text = "".join(
            rnd.choice(alphabet) for _ in range(rnd.randrange(1, 40))
        )
        try:
            parse_formula(text)
        except (ParseError, LexicalError):
            pass


def test_op_count_examples():
    assert op_count(parse_formula("A")) == 0
    assert op_count(parse_formula("A_c * cos(x)")) == 2
    # hand tally for the binary-phase formula:
    # outer *, cos, +, three * inside the carrier argument, one * for pi*d(t)
    assert op_count(parse_formula("A_c * cos(2*pi*f_c*t + pi*d(t))")) == 7
    # additive over subtrees
    left = parse_formula("A_c * cos(x)")
    right = parse_formula("k_p * m(t)")
    combined = parse_formula("A_c * cos(x) + k_p * m(t)")
    assert op_count(combined) == op_count(left) + op_count(right) + 1


def test_reads_names_and_integrated_names():
    names, integrated = reads(parse_formula("A_c*cos(2*pi*f_c*t + k_f*integral(m(t), t))"))
    assert names == {"A_c", "pi", "f_c", "t", "k_f", "m(t)"}
    assert integrated == {"m(t)"}
    # a bare d reads d(t); a sum index is local to the sum's body
    names, integrated = reads(parse_formula("integral(d - 1.5, t) + sum(2*d, d, 1, n)"))
    assert names == {"d(t)", "t", "n"}
    assert integrated == {"d(t)"}
    names, integrated = reads(parse_formula("sum(integral(d, t), d, 1, n)"))
    assert names == {"t", "n"} and integrated == set()


def test_depth_helper():
    assert depth(parse_formula("A")) == 1
    assert depth(parse_formula("a + b")) == 2
