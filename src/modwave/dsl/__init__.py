"""Formula DSL: tokenizer, parser, validation and numeric evaluation."""

from .ast import (
    BinOp,
    Call,
    Const,
    Expr,
    Neg,
    Pow,
    Symbol,
    children,
    depth,
    op_count,
    to_text,
)
from .corpus import (
    CorpusEntry,
    bundled_corpus_path,
    bundled_generated_path,
    load_corpus,
    write_corpus,
)
from .evaluation import EvalContext, EvalResult, evaluate
from .lexer import FUNCTION_ARITY, MAX_FORMULA_CHARS, MAX_FORMULA_TOKENS, Token, tokenize
from .parser import DEFAULT_MAX_DEPTH, parse, parse_formula
from .validation import (
    CLASS_ARITY,
    CLASS_OTHER,
    CLASS_UNBALANCED,
    CLASS_UNDEFINED,
    CLASS_VALID,
    CLASSES,
    MISSING_QUADRATURE,
    UNDEFINED_SYMBOL,
    ZERO_LITERAL_DIVISOR,
    ValidationFlag,
    ValidationReport,
    classify,
    validate,
)
