"""Tokenizer for the ASCII modulation-formula grammar.

The accepted alphabet: identifiers (letters, digits, underscore), decimal
numbers, the operators + - * / ^, parentheses, commas, and whitespace.
The function keywords sin, cos, integral and sum lex as function tokens.

Adjacent value tokens imply multiplication ("2 pi f_c t" lexes like
"2*pi*f_c*t"); the inserted tokens are flagged `implicit`. No token is
inserted between an identifier and an opening parenthesis, since that
pairing may be a signal reference like d(t) or a juxtaposed product like
A_c*(1 + x); the parser decides which.
"""

import re
from dataclasses import dataclass

from ..errors import LexicalError

FUNCTION_ARITY = {"sin": 1, "cos": 1, "integral": 2, "sum": 4}

MAX_FORMULA_CHARS = 512
MAX_FORMULA_TOKENS = 128

# the token kinds other than FUNC are the scanner's group names
NUMBER = "number"
IDENT = "ident"
FUNC = "func"
OP = "op"
LPAREN = "lparen"
RPAREN = "rparen"
COMMA = "comma"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int
    value: float | None = None
    implicit: bool = False


_SCANNER = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[+\-*/^])"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,)"
)

# pairs (previous kind, next kind) that imply a multiplication between them
_VALUE_END = frozenset({NUMBER, IDENT, FUNC, RPAREN})
_VALUE_START = frozenset({NUMBER, IDENT, FUNC, LPAREN})


def tokenize(text: str) -> list[Token]:
    """Lex a formula string into a token list with source positions.

    Raises LexicalError for characters outside the alphabet, empty input,
    or formulas above the 512-character / 128-token limits.
    """
    if len(text) > MAX_FORMULA_CHARS:
        raise LexicalError(
            f"formula exceeds {MAX_FORMULA_CHARS} characters", MAX_FORMULA_CHARS
        )

    raw: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _SCANNER.match(text, pos)
        if match is None:
            raise LexicalError(f"unexpected character {text[pos]!r}", pos)
        kind, lexeme = match.lastgroup, match.group()
        if kind == NUMBER:
            raw.append(Token(NUMBER, lexeme, pos, value=float(lexeme)))
        elif kind != "ws":
            raw.append(Token(FUNC if lexeme in FUNCTION_ARITY else kind, lexeme, pos))
        pos = match.end()

    if not raw:
        raise LexicalError("empty formula", 0)
    if len(raw) > MAX_FORMULA_TOKENS:
        raise LexicalError(
            f"formula exceeds {MAX_FORMULA_TOKENS} tokens",
            raw[MAX_FORMULA_TOKENS].pos,
        )

    tokens: list[Token] = [raw[0]]
    for token in raw[1:]:
        prev = tokens[-1]
        implied = prev.kind in _VALUE_END and token.kind in _VALUE_START
        deferred = prev.kind in (IDENT, FUNC) and token.kind == LPAREN
        if implied and not deferred:
            tokens.append(Token(OP, "*", token.pos, implicit=True))
        tokens.append(token)
    return tokens
