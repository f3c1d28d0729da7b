import json

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
    ValidationReport,
    bundled_corpus_path,
    bundled_generated_path,
    classify,
    load_corpus,
    validate,
)


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
