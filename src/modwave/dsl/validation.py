"""Syntactic and semantic validation of modulation formulas.

Syntax problems come from the tokenizer and parser; everything else lands
in semantic flags so a formula can be simultaneously parseable and
suspect. A literal-zero divisor, for instance, flags the formula without
rejecting it, since guarded evaluation can still run it end to end.
"""

from dataclasses import dataclass, field

from ..errors import LexicalError, ParseError
from .ast import BinOp, Const, Expr, Neg, Span, Symbol, walk
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
    formula: str
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


def validate(formula: str) -> ValidationReport:
    """Validate a formula string against the namespace.

    All findings go into the report; this function does not raise for bad
    formulas. One walk flags each undefined symbol and literal-zero
    divisor in preorder; using exactly one of I(t) and Q(t) is flagged.
    """
    try:
        expr = parse(tokenize(formula))
    except (LexicalError, ParseError) as exc:
        return ValidationReport(
            formula=formula,
            syntactic_ok=False,
            syntax_error_kind=exc.kind,
            error_messages=[str(exc)],
        )

    flags: list[ValidationFlag] = []
    names: set[str] = set()
    for node, bound, _ in walk(expr):
        if isinstance(node, Symbol) and node.name not in bound:
            name = resolve(node.name)
            if name is None:
                flags.append(
                    ValidationFlag(
                        UNDEFINED_SYMBOL, f"undefined symbol {node.name!r}", node.span
                    )
                )
            else:
                names.add(name)
        elif isinstance(node, BinOp) and node.op == "/" and _literal_zero(node.right):
            flags.append(
                ValidationFlag(
                    ZERO_LITERAL_DIVISOR,
                    "divisor is a literal zero or a product containing one",
                    node.right.span,
                )
            )

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

    return ValidationReport(
        formula=formula,
        syntactic_ok=True,
        error_messages=[f.message for f in flags],
        semantic_flags=flags,
        expr=expr,
    )


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
