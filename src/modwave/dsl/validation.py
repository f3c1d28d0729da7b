"""Syntactic and semantic validation of modulation formulas.

Syntax problems come from the tokenizer and parser; everything else lands
in semantic flags so a formula can be simultaneously parseable and
suspect. A literal-zero divisor, for instance, flags the formula without
rejecting it, since guarded evaluation can still run it end to end.
"""

from dataclasses import dataclass, field

from ..errors import LexicalError, ParseError
from .ast import BinOp, Call, Const, Expr, Neg, Span, Symbol, children, reads
from .lexer import tokenize
from .parser import parse
from .symbols import resolve

UNDEFINED_SYMBOL = "undefined-symbol"
ZERO_LITERAL_DIVISOR = "zero-literal-divisor"
MISSING_QUADRATURE = "missing-quadrature-component"

# batch classification buckets (exactly one per formula)
CLASS_VALID = "valid"
CLASS_UNBALANCED = "unbalanced-parenthesis"
CLASS_UNDEFINED = "undefined-symbol"
CLASS_ARITY = "arity-function-error"
CLASS_OTHER = "other-syntax"

CLASSES = (CLASS_VALID, CLASS_UNBALANCED, CLASS_UNDEFINED, CLASS_ARITY, CLASS_OTHER)


@dataclass(frozen=True)
class ValidationFlag:
    kind: str
    message: str
    span: Span

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "span": list(self.span)}


@dataclass
class ValidationReport:
    formula: str | None
    syntactic_ok: bool
    syntax_error_kind: str | None = None
    error_messages: list[str] = field(default_factory=list)
    semantic_flags: list[ValidationFlag] = field(default_factory=list)
    expr: Expr | None = None

    def has_flag(self, kind: str) -> bool:
        return any(f.kind == kind for f in self.semantic_flags)

    @property
    def valid(self) -> bool:
        """Parseable with every symbol defined; warnings do not disqualify."""
        return self.syntactic_ok and not self.has_flag(UNDEFINED_SYMBOL)

    def to_dict(self) -> dict:
        return {
            "formula": self.formula,
            "syntactic_ok": self.syntactic_ok,
            "syntax_error_kind": self.syntax_error_kind,
            "error_messages": list(self.error_messages),
            "semantic_flags": [f.to_dict() for f in self.semantic_flags],
            "valid": self.valid,
            "classification": classify(self),
        }


def _literal_zero(expr: Expr) -> bool:
    """True for a literal 0 or a product/negation containing one."""
    if isinstance(expr, Const):
        return expr.value == 0.0
    if isinstance(expr, Neg):
        return _literal_zero(expr.operand)
    if isinstance(expr, BinOp) and expr.op == "*":
        return _literal_zero(expr.left) or _literal_zero(expr.right)
    return False


def _walk_semantics(
    expr: Expr, bound: frozenset[str], flags: list[ValidationFlag]
) -> None:
    if isinstance(expr, Symbol):
        if expr.name in bound:
            return
        if resolve(expr.name) is None:
            flags.append(
                ValidationFlag(
                    UNDEFINED_SYMBOL, f"undefined symbol {expr.name!r}", expr.span
                )
            )
        return
    if isinstance(expr, BinOp) and expr.op == "/" and _literal_zero(expr.right):
        flags.append(
            ValidationFlag(
                ZERO_LITERAL_DIVISOR,
                "divisor is a literal zero or a product containing one",
                expr.right.span,
            )
        )
    if isinstance(expr, Call) and expr.func == "sum":
        index = expr.args[1]
        inner = bound | {index.name}
        _walk_semantics(expr.args[0], inner, flags)
        for arg in expr.args[2:]:
            _walk_semantics(arg, bound, flags)
        return
    if isinstance(expr, Call) and expr.func == "integral":
        # the integration variable t is not a read
        _walk_semantics(expr.args[0], bound, flags)
        return
    for kid in children(expr):
        _walk_semantics(kid, bound, flags)


def validate(formula: str | Expr) -> ValidationReport:
    """Validate a formula string or pre-parsed tree against the namespace.

    All findings go into the report; this function does not raise for bad
    formulas. Using exactly one of I(t) and Q(t) is flagged.
    """
    text: str | None
    if isinstance(formula, str):
        text = formula
        try:
            expr = parse(tokenize(formula))
        except LexicalError as exc:
            return ValidationReport(
                formula=text,
                syntactic_ok=False,
                syntax_error_kind="lexical",
                error_messages=[str(exc)],
            )
        except ParseError as exc:
            return ValidationReport(
                formula=text,
                syntactic_ok=False,
                syntax_error_kind=exc.kind,
                error_messages=[str(exc)],
            )
    else:
        text = None
        expr = formula

    flags: list[ValidationFlag] = []
    _walk_semantics(expr, frozenset(), flags)

    names, _ = reads(expr)
    has_i, has_q = "I(t)" in names, "Q(t)" in names
    if has_i != has_q:
        present = "I(t)" if has_i else "Q(t)"
        flags.append(
            ValidationFlag(
                MISSING_QUADRATURE,
                f"only one quadrature component ({present}) is used",
                expr.span,
            )
        )

    report = ValidationReport(
        formula=text, syntactic_ok=True, expr=expr, semantic_flags=flags
    )
    report.error_messages = [f.message for f in flags]
    return report


def classify(report: ValidationReport) -> str:
    """Assign exactly one taxonomy bucket to a validation outcome."""
    if not report.syntactic_ok:
        if report.syntax_error_kind == "unbalanced-parenthesis":
            return CLASS_UNBALANCED
        if report.syntax_error_kind == "arity-error":
            return CLASS_ARITY
        return CLASS_OTHER
    if report.has_flag(UNDEFINED_SYMBOL):
        return CLASS_UNDEFINED
    return CLASS_VALID
