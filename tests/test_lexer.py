import pytest

from modwave.dsl.lexer import (
    FUNC,
    IDENT,
    LPAREN,
    NUMBER,
    OP,
    RPAREN,
    MAX_FORMULA_CHARS,
    MAX_FORMULA_TOKENS,
    tokenize,
)
from modwave.errors import LexicalError


def kinds_and_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


def test_explicit_product_stream():
    tokens = tokenize("A_c * cos(2*pi*f_c*t)")
    assert kinds_and_texts(tokens) == [
        (IDENT, "A_c"),
        (OP, "*"),
        (FUNC, "cos"),
        (LPAREN, "("),
        (NUMBER, "2"),
        (OP, "*"),
        (IDENT, "pi"),
        (OP, "*"),
        (IDENT, "f_c"),
        (OP, "*"),
        (IDENT, "t"),
        (RPAREN, ")"),
    ]


def test_juxtaposition_matches_starred_form():
    # oracle: the explicitly starred spelling of the same formula
    implicit = tokenize("cos(2 pi f_c t)")
    explicit = tokenize("cos(2*pi*f_c*t)")
    assert kinds_and_texts(implicit) == kinds_and_texts(explicit)
    inserted = [t for t in implicit if t.implicit]
    assert len(inserted) == 3 and all(t.text == "*" for t in inserted)


def test_lexical_error_position():
    with pytest.raises(LexicalError) as err:
        tokenize("A_c ⊕ t")
    assert err.value.position == 4


def test_no_implicit_star_between_ident_and_paren():
    tokens = tokenize("Q(t)")
    assert [t.kind for t in tokens] == [IDENT, LPAREN, IDENT, RPAREN]


def test_implicit_star_between_groups():
    tokens = tokenize("(a)(b)")
    assert [t.kind for t in tokens] == [
        LPAREN, IDENT, RPAREN, OP, LPAREN, IDENT, RPAREN,
    ]
    assert tokens[3].implicit


def test_number_lexing():
    tokens = tokenize("2.5 + 7")
    assert tokens[0].value == 2.5
    assert tokens[2].value == 7.0


def test_empty_input_rejected():
    with pytest.raises(LexicalError):
        tokenize("   ")


def test_length_limits():
    with pytest.raises(LexicalError):
        tokenize("a" * (MAX_FORMULA_CHARS + 1))
    with pytest.raises(LexicalError):
        tokenize(" ".join(["a"] * (MAX_FORMULA_TOKENS + 1)))


def test_positions_point_into_source():
    text = "A_c + f_c"
    for token in tokenize(text):
        if not token.implicit:
            assert text[token.pos : token.pos + len(token.text)] == token.text


def test_overflowing_number_rejected():
    # 310 nines is beyond float64; it must not lex as inf
    text = "A * " + "9" * 310
    with pytest.raises(LexicalError) as err:
        tokenize(text)
    assert err.value.position == 4
    assert tokenize("9" * 308)[0].value == float("9" * 308)
