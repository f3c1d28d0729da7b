"""Exception types shared across the package."""


class ModwaveError(Exception):
    """Base class for all package errors."""


class LexicalError(ModwaveError):
    """A character or token-level problem in a formula string."""

    kind = "lexical"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(ModwaveError):
    """Classified syntax error.

    `kind` is one of: unbalanced-parenthesis, dangling-operator,
    unexpected-token, arity-error, too-deep.
    """

    def __init__(self, kind: str, message: str, position: int | None = None):
        where = "" if position is None else f" (at position {position})"
        super().__init__(f"{kind}: {message}{where}")
        self.kind = kind
        self.position = position


class EvaluationError(ModwaveError):
    """Formula evaluation failed (undefined symbol, non-finite result, ...)."""


class SignalError(ModwaveError):
    """Problem with a sampled signal or its configuration."""


class ZeroPowerError(SignalError):
    """Operation requires a signal with nonzero power."""


class GridSizeError(SignalError):
    """A row's arrays do not fit in memory: its configured grid is too large."""


class NyquistError(SignalError):
    """Scheme configuration violates the sampling-rate headroom rule."""


class DemodulationError(ModwaveError):
    """Demodulation is impossible (missing ground truth, unsupported scheme)."""


class CorpusError(ModwaveError):
    """Malformed formula corpus file."""

    def __init__(self, message: str, line: int | None = None):
        where = "" if line is None else f" (line {line})"
        super().__init__(f"{message}{where}")
        self.line = line


class ConfigError(ModwaveError):
    """Invalid experiment configuration."""


class GenerationSourceError(ModwaveError):
    """External formula generator failed (network, status, malformed reply)."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
