import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modwave.dsl import (
    CLASS_ARITY,
    CLASS_OTHER,
    CLASS_UNBALANCED,
    CLASS_UNDEFINED,
    CLASS_VALID,
    MISSING_QUADRATURE,
    UNDEFINED_SYMBOL,
    ZERO_LITERAL_DIVISOR,
    BinOp,
    Call,
    Const,
    Neg,
    Symbol,
    ValidationReport,
    bundled_corpus_path,
    bundled_generated_path,
    children,
    classify,
    load_corpus,
    op_count,
    parse_formula,
    to_text,
    validate,
)
from modwave.dsl.ast import affine_in, reads
from modwave.dsl.symbols import resolve
from modwave.genlab import generate_batch, load_grammar

from conftest import FORMULA_TREES


def flag_kinds(report):
    return sorted(f.kind for f in report.semantic_flags)


def test_bundled_corpus_all_clean():
    for entry in load_corpus(bundled_corpus_path()):
        report = validate(entry.formula)
        assert report.syntactic_ok, entry.id
        assert not report.semantic_flags, (entry.id, flag_kinds(report))


def test_generated_fixture_flags():
    entries = {e.id: e for e in load_corpus(bundled_generated_path())}
    for ident in ("m1", "m2"):
        report = validate(entries[ident].formula)
        assert report.syntactic_ok and not report.semantic_flags

    m3 = validate(entries["m3"].formula)
    assert m3.syntactic_ok
    assert flag_kinds(m3) == [ZERO_LITERAL_DIVISOR]
    assert m3.valid  # parseable and fully defined, the divisor is a warning


def test_undefined_symbol_flag():
    report = validate("A_c * cos(x_q)")
    assert report.has_flag(UNDEFINED_SYMBOL)
    assert not report.valid
    assert "x_q" in report.error_messages[0]


def test_bare_name_resolves_to_signal_form():
    report = validate("Q + I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t)")
    assert not report.has_flag(UNDEFINED_SYMBOL)


def test_zero_divisor_variants():
    assert validate("A / 0").has_flag(ZERO_LITERAL_DIVISOR)
    assert validate("A / (Q(t) * pi * 0)").has_flag(ZERO_LITERAL_DIVISOR)
    assert validate("A / (0 * f_c)").has_flag(ZERO_LITERAL_DIVISOR)
    assert validate("A / (-0)").has_flag(ZERO_LITERAL_DIVISOR)
    assert not validate("A / Q(t)").has_flag(ZERO_LITERAL_DIVISOR)
    assert not validate("0 / A").has_flag(ZERO_LITERAL_DIVISOR)
    # a sum containing zero is not a literal-zero product
    assert not validate("A / (1 + 0)").has_flag(ZERO_LITERAL_DIVISOR)


def test_quadrature_policy():
    lone = validate("I(t) * cos(2*pi*f_c*t)")
    assert lone.has_flag(MISSING_QUADRATURE)
    assert lone.valid  # policy flag, not a disqualifier
    both = validate("I(t)*cos(2*pi*f_c*t) - Q(t)*sin(2*pi*f_c*t)")
    assert not both.has_flag(MISSING_QUADRATURE)
    neither = validate("A_c * cos(2*pi*f_c*t)")
    assert not neither.has_flag(MISSING_QUADRATURE)


def test_sum_index_is_bound():
    report = validate("A * sum(i * m, i, 1, n)")
    assert not report.has_flag(UNDEFINED_SYMBOL)
    # the index does not leak out of the sum body
    leaky = validate("i + A * sum(m, i, 1, n)")
    assert leaky.has_flag(UNDEFINED_SYMBOL)


# the one scoping rule, read by reads, validation, affine_in and op_count:
# (formula, names read, names read in integral bodies, flags, affine, ops)
SCOPING = [
    # a sum index that shadows a stream: the body's I is the index
    ("sum(I, I, 1, n)", {"n"}, set(), [], True, 1),
    # the index is bound in the sum's body only
    ("i + A * sum(m, i, 1, n)", {"i", "A", "m", "n"}, set(),
     [(UNDEFINED_SYMBOL, (0, 1))], True, 3),
    # nor in its own limits; flags come in preorder
    ("sum(i, i, 1, i) + j", {"i", "j"}, set(),
     [(UNDEFINED_SYMBOL, (13, 14)), (UNDEFINED_SYMBOL, (18, 19))], True, 2),
    # nested sums: the outer index is bound in the inner limits, and the
    # inner index is not bound in the outer body
    ("sum(sum(i * j, j, 1, i) + j, i, 1, n)", {"j", "n"}, set(),
     [(UNDEFINED_SYMBOL, (26, 27))], True, 4),
    # an integral inside a sum
    ("sum(integral(d, t), i, 1, n)", {"d(t)", "t", "n"}, {"d(t)"}, [], False, 2),
    # a sum inside an integral: its body and limits are integrated, its index is no read
    ("integral(sum(i * Q, i, 1, n), t)", {"Q(t)", "n", "t"}, {"Q(t)", "n"},
     [(MISSING_QUADRATURE, (0, 32))], False, 3),
]


@pytest.mark.parametrize("text, names, integrated, flags, affine, ops", SCOPING)
def test_scoping_rule(text, names, integrated, flags, affine, ops):
    expr = parse_formula(text)
    assert reads(expr) == (names, integrated)
    assert [(f.kind, f.span) for f in validate(text).semantic_flags] == flags
    assert affine_in(expr) == affine
    assert op_count(expr) == ops


def oracle(expr):
    """reads and the validation flags by plain recursion over the tree."""
    names, integrated, flags = set(), set(), []

    def zero(node):
        if isinstance(node, Const):
            return node.value == 0.0
        if isinstance(node, Neg):
            return zero(node.operand)
        return isinstance(node, BinOp) and node.op == "*" and (zero(node.left) or zero(node.right))

    def visit(node, bound, in_integral):
        if isinstance(node, Symbol):
            if node.name not in bound:
                name = resolve(node.name)
                names.add(name or node.name)
                if in_integral:
                    integrated.add(name or node.name)
                if name is None:
                    flags.append((UNDEFINED_SYMBOL, f"undefined symbol {node.name!r}", node.span))
            return
        if isinstance(node, BinOp) and node.op == "/" and zero(node.right):
            flags.append((ZERO_LITERAL_DIVISOR,
                          "divisor is a literal zero or a product containing one",
                          node.right.span))
        if isinstance(node, Call) and node.func == "sum":
            body, index, low, high = node.args
            visit(body, bound | {index.name}, in_integral)
            visit(low, bound, in_integral)
            visit(high, bound, in_integral)
        elif isinstance(node, Call) and node.func == "integral":
            visit(node.args[0], bound, True)
            visit(node.args[1], bound, in_integral)
        else:
            for kid in children(node):
                visit(kid, bound, in_integral)

    visit(expr, frozenset(), False)
    if ("I(t)" in names) != ("Q(t)" in names):
        present = "I(t)" if "I(t)" in names else "Q(t)"
        flags.append((MISSING_QUADRATURE,
                      f"only one quadrature component ({present}) is used", expr.span))
    return (names, integrated), flags


def assert_matches_oracle(text):
    report = validate(text)
    expected_reads, expected_flags = oracle(report.expr)
    assert reads(report.expr) == expected_reads, text
    assert [(f.kind, f.message, f.span) for f in report.semantic_flags] == expected_flags, text


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       temperature=st.sampled_from([0.8, 3.0]))
def test_walk_matches_oracle_on_grammar_formulas(seed, temperature):
    batch = generate_batch(8, replace(load_grammar(temperature=temperature), seed=seed))
    for item in batch.items:
        if item.report.syntactic_ok:
            assert_matches_oracle(item.formula)


@given(tree=FORMULA_TREES)
def test_walk_matches_oracle_on_drawn_trees(tree):
    assert_matches_oracle(to_text(tree))


def test_integral_over_another_variable_is_invalid():
    # the evaluator integrates along t only, so any other variable cannot run
    report = validate("A_c*cos(2*pi*f_c*t + k_f*integral(m(t), x))")
    assert not report.valid
    assert classify(report) == CLASS_ARITY
    assert "variable t" in report.error_messages[0]
    assert validate("A_c*cos(2*pi*f_c*t + k_f*integral(m(t), t))").valid


def test_classification_buckets():
    cases = {
        "A_c * cos(2*pi*f_c*t)": CLASS_VALID,
        "cos(2*pi*f_c*t": CLASS_UNBALANCED,
        "A + (": CLASS_UNBALANCED,
        "x)": CLASS_UNBALANCED,
        "A + x_q": CLASS_UNDEFINED,
        "sin(t, t)": CLASS_ARITY,
        "A + * m": CLASS_OTHER,
        "A_c ⊕ t": CLASS_OTHER,
    }
    for text, expected in cases.items():
        assert classify(validate(text)) == expected, text


def test_parse_error_wrapped_into_report():
    report = validate("cos(")
    assert not report.syntactic_ok
    assert report.syntax_error_kind == "unbalanced-parenthesis"
    assert report.error_messages


def test_overflowing_literal_is_a_lexical_error():
    report = validate("A * " + "9" * 310)
    assert not report.valid and not report.syntactic_ok
    assert report.syntax_error_kind == "lexical"
    assert classify(report) == CLASS_OTHER


def test_report_serializes_to_json():
    report = validate("A / 0 + x_q")
    payload = json.loads(json.dumps(report.to_dict()))
    kinds = {f["kind"] for f in payload["semantic_flags"]}
    assert {ZERO_LITERAL_DIVISOR, UNDEFINED_SYMBOL} <= kinds
    assert payload["syntactic_ok"] is True
    assert payload["classification"] == CLASS_UNDEFINED
    for flag in payload["semantic_flags"]:
        assert len(flag["span"]) == 2


# pieces of the formula alphabet, some of them misplaced or undefined
FORMULA_TOKENS = (
    "sin", "cos", "integral", "sum", "(", ")", ",", "+", "-", "*", "/", "^", " ",
    "t", "(t)", "pi", "f_c", "A_c", "k_f", "m", "n", "i", "d", "I(t)", "Q", "x_q",
    "0", "1", "2.5", "0.0", "1e5", "9" * 300,
)


@given(
    st.text(max_size=512),
    st.lists(st.sampled_from(FORMULA_TOKENS), max_size=80).map("".join),
)
def test_outside_text_never_crashes_validate(arbitrary, tokens):
    # the lexer and parser raise only LexicalError or ParseError, which
    # validate turns into a report
    for text in (arbitrary, tokens):
        report = validate(text)
        assert isinstance(report, ValidationReport)
        assert report.syntactic_ok == (report.expr is not None)
        json.dumps(report.to_dict())
