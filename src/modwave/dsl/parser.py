"""Recursive-descent parser for the formula grammar.

Precedence, loosest to tightest: + -, * / (including juxtaposition),
unary minus, ^. All binary operators associate to the left. An identifier
followed by the literal argument list (t) parses as a signal-valued symbol
such as d(t); any other identifier-parenthesis pairing is a product, so
A_c(1 + x) means A_c * (1 + x).

Every failure raises a classified ParseError; the parser never aborts on
arbitrary input.
"""

from dataclasses import replace

from ..errors import ParseError
from .ast import BinOp, Call, Const, Expr, Neg, Pow, Symbol, depth
from .lexer import (
    COMMA,
    FUNC,
    FUNCTION_ARITY,
    IDENT,
    LPAREN,
    NUMBER,
    OP,
    RPAREN,
    Token,
    tokenize,
)

DEFAULT_MAX_DEPTH = 64


class _Parser:
    def __init__(self, tokens: list[Token], max_depth: int):
        self._tokens = tokens
        self._pos = 0
        self._max_depth = max_depth
        self._nesting = 0

    # ---- token plumbing ----

    def _peek(self, ahead: int = 0) -> Token | None:
        i = self._pos + ahead
        return self._tokens[i] if i < len(self._tokens) else None

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def _enter(self):
        self._nesting += 1
        if self._nesting > 4 * self._max_depth + 32:
            raise ParseError("too-deep", "formula nests too deeply")

    def _leave(self):
        self._nesting -= 1

    # ---- grammar ----

    def parse(self) -> Expr:
        expr = self._expr()
        if not self._at_end():
            token = self._peek()
            if token.kind == RPAREN:
                raise ParseError("unbalanced-parenthesis", "unmatched ')'", token.pos)
            raise ParseError(
                "unexpected-token", f"unexpected {token.text!r}", token.pos
            )
        if depth(expr) > self._max_depth:
            raise ParseError(
                "too-deep", f"expression deeper than {self._max_depth} levels"
            )
        return expr

    def _expr(self) -> Expr:
        self._enter()
        try:
            node = self._term()
            while True:
                token = self._peek()
                if token is None or token.kind != OP or token.text not in "+-":
                    return node
                self._advance()
                rhs = self._term()
                node = BinOp(token.text, node, rhs, span=(node.span[0], rhs.span[1]))
        finally:
            self._leave()

    def _term(self) -> Expr:
        node = self._factor()
        while True:
            token = self._peek()
            if token is not None and token.kind == OP and token.text in "*/":
                self._advance()
                rhs = self._factor()
                node = BinOp(token.text, node, rhs, span=(node.span[0], rhs.span[1]))
            elif token is not None and token.kind == LPAREN:
                # juxtaposed parenthesized factor, e.g. A_c(1 + x)
                rhs = self._group()
                node = BinOp("*", node, rhs, span=(node.span[0], rhs.span[1]))
            else:
                return node

    def _factor(self) -> Expr:
        self._enter()
        try:
            token = self._peek()
            if token is not None and token.kind == OP and token.text == "-":
                self._advance()
                operand = self._factor()
                return Neg(operand, span=(token.pos, operand.span[1]))
            return self._power()
        finally:
            self._leave()

    def _power(self) -> Expr:
        node = self._atom()
        while True:
            token = self._peek()
            if token is None or token.kind != OP or token.text != "^":
                return node
            self._advance()
            rhs = self._atom()
            node = Pow(node, rhs, span=(node.span[0], rhs.span[1]))

    def _atom(self) -> Expr:
        self._enter()
        try:
            token = self._peek()
            if token is None:
                prev = self._tokens[self._pos - 1] if self._pos else None
                if prev is not None and prev.kind == OP:
                    raise ParseError(
                        "dangling-operator",
                        f"operator {prev.text!r} has no right operand",
                        prev.pos,
                    )
                if prev is not None and prev.kind in (LPAREN, COMMA):
                    raise ParseError(
                        "unbalanced-parenthesis", "missing ')'", prev.pos
                    )
                raise ParseError("unexpected-token", "unexpected end of formula")
            if token.kind == NUMBER:
                self._advance()
                end = token.pos + len(token.text)
                return Const(token.value, span=(token.pos, end))
            if token.kind == FUNC:
                return self._call()
            if token.kind == IDENT:
                return self._symbol()
            if token.kind == LPAREN:
                return self._group()
            if token.kind == RPAREN:
                raise ParseError("unbalanced-parenthesis", "unmatched ')'", token.pos)
            if token.kind == COMMA:
                raise ParseError(
                    "unexpected-token", "comma outside a function argument list",
                    token.pos,
                )
            raise ParseError(
                "dangling-operator",
                f"operator {token.text!r} has no left operand",
                token.pos,
            )
        finally:
            self._leave()

    def _symbol(self) -> Expr:
        token = self._advance()
        nxt, inner, closing = self._peek(), self._peek(1), self._peek(2)
        if (
            nxt is not None
            and nxt.kind == LPAREN
            and inner is not None
            and inner.kind == IDENT
            and inner.text == "t"
            and closing is not None
            and closing.kind == RPAREN
        ):
            self._advance(), self._advance()
            end_token = self._advance()
            return Symbol(
                f"{token.text}(t)", span=(token.pos, end_token.pos + 1)
            )
        return Symbol(token.text, span=(token.pos, token.pos + len(token.text)))

    def _group(self) -> Expr:
        opening = self._advance()
        node = self._expr()
        closing = self._peek()
        if closing is None or closing.kind != RPAREN:
            raise ParseError(
                "unbalanced-parenthesis", "missing ')'", opening.pos
            )
        self._advance()
        return replace(node, span=(opening.pos, closing.pos + 1))

    def _call(self) -> Expr:
        name_token = self._advance()
        name = name_token.text
        opening = self._peek()
        if opening is None or opening.kind != LPAREN:
            raise ParseError(
                "arity-error",
                f"function {name!r} requires a parenthesized argument list",
                name_token.pos,
            )
        self._advance()
        args: list[Expr] = []
        empty = self._peek()
        if empty is not None and empty.kind == RPAREN:
            self._advance()
            raise ParseError(
                "arity-error",
                f"{name} takes {FUNCTION_ARITY[name]} argument(s), got 0",
                name_token.pos,
            )
        args.append(self._expr())
        while True:
            token = self._peek()
            if token is not None and token.kind == COMMA:
                self._advance()
                args.append(self._expr())
                continue
            break
        closing = self._peek()
        if closing is None or closing.kind != RPAREN:
            raise ParseError("unbalanced-parenthesis", "missing ')'", opening.pos)
        self._advance()

        expected = FUNCTION_ARITY[name]
        if len(args) != expected:
            raise ParseError(
                "arity-error",
                f"{name} takes {expected} argument(s), got {len(args)}",
                name_token.pos,
            )
        # the evaluator integrates along the time grid only
        if name == "integral" and not (isinstance(args[1], Symbol) and args[1].name == "t"):
            raise ParseError(
                "arity-error",
                "integral's second argument must be the integration variable t",
                name_token.pos,
            )
        if name == "sum" and not isinstance(args[1], Symbol):
            raise ParseError(
                "arity-error",
                "sum's second argument must be the index variable",
                name_token.pos,
            )
        return Call(name, tuple(args), span=(name_token.pos, closing.pos + 1))


def parse(tokens: list[Token], max_depth: int = DEFAULT_MAX_DEPTH) -> Expr:
    """Parse a token sequence into an expression tree or raise ParseError."""
    return _Parser(tokens, max_depth).parse()


def parse_formula(text: str, max_depth: int = DEFAULT_MAX_DEPTH) -> Expr:
    """Tokenize and parse a formula string."""
    return parse(tokenize(text), max_depth=max_depth)
