"""Numeric evaluation of formula trees over a uniform time grid.

Subexpressions are numpy values that broadcast against the output shape:
constants, pi and sum indices are scalars, the time axis and
label-invariant signals have the grid's shape (n,), and signals bound with
a leading label axis have shape (rows, 1). A subtree therefore runs at the
smallest shape its symbols need: carrier trig, m(t) and integrals of m(t)
are computed once at (n,) even when the output has a row per label. The
result is broadcast to the full output shape, (n,) or (rows, n), at the
end. Every sample is computed with the same floating-point operations as
when each row is evaluated on its own, so both give identical bits.

The definite integral runs along the time axis from t = 0 with a zero
initial condition using the cumulative trapezoid rule; finite sums expand
with the index variable substituted over its bounds. Division is always
guarded: samples whose divisor magnitude falls below GUARD_EPSILON
evaluate to 0 and are counted once per output sample they reach, which
lets formulas with degenerate denominators run end to end while staying
honest about how often the guard fired.
"""

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..errors import EvaluationError
from .ast import BinOp, Call, Const, Expr, Neg, Pow, Symbol
from .symbols import resolve

MAX_SUM_ITERATIONS = 100_000
GUARD_EPSILON = 1e-12
_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply}


@dataclass(frozen=True)
class EvalContext:
    """Bindings for every formula symbol.

    constants map scalar names to floats; signals map signal-valued names
    (keyed with their (t) suffix) to arrays of shape (n,), matching the
    grid, or (rows, 1), one value per row held over the whole grid. With
    any (rows, 1) signal bound the result has shape (rows, n), and row r
    equals the result of binding every signal to its row r held over the
    grid.
    """

    constants: Mapping[str, float] = field(default_factory=dict)
    signals: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "constants", MappingProxyType(dict(self.constants)))
        object.__setattr__(self, "signals", MappingProxyType(dict(self.signals)))


@dataclass(frozen=True)
class EvalResult:
    samples: np.ndarray
    guard_count: int
    invalid_mask: np.ndarray


class _Evaluator:
    def __init__(self, ctx: EvalContext, grid: np.ndarray):
        self.ctx = ctx
        self.grid = grid
        self.n = grid.size
        self.signals = {
            name: self._signal(name, value) for name, value in ctx.signals.items()
        }
        try:
            self.shape = np.broadcast_shapes(
                (self.n,), *(s.shape for s in self.signals.values())
            )
        except ValueError as exc:
            raise EvaluationError(f"signals disagree on their row count: {exc}") from exc
        self.size = int(np.prod(self.shape))
        self.guards = 0

    def _signal(self, name: str, value) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != (self.n,) and (arr.ndim != 2 or arr.shape[1] != 1):
            raise EvaluationError(
                f"signal {name!r} has shape {arr.shape}, grid has {self.n} "
                "samples; bind (n,) or (rows, 1)"
            )
        return arr

    def lookup(self, name: str, local: dict[str, float]) -> np.ndarray:
        """A sum index, else the binding of the name that validation
        resolves `name` to; a name outside the namespace binds as written."""
        if name in local:
            return np.float64(local[name])
        key = resolve(name) or name
        if key == "t":
            return self.grid
        if key == "pi":
            return np.float64(np.pi)
        if key in self.ctx.constants:
            return np.float64(self.ctx.constants[key])
        if key in self.signals:
            return self.signals[key]
        raise EvaluationError(f"no binding for symbol {name!r}")

    def _apply(self, ufunc, *args):
        """ufunc(*args), written over an argument that is a temporary of the
        result's shape when there is one.

        Each (rows, n) temporary of a candidate bank is as large as the
        bank, so reusing them bounds the evaluator's memory. Every value
        that is not a bound input is made by one node and read by one
        parent, so overwriting it is safe.
        """
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        for arg in args:
            if (
                isinstance(arg, np.ndarray)
                and arg.shape == shape
                and arg is not self.grid
                and not any(arg is s for s in self.signals.values())
            ):
                return ufunc(*args, out=arg)
        return ufunc(*args)

    def eval(self, expr: Expr, local: dict[str, float]) -> np.ndarray:
        if isinstance(expr, Const):
            return np.float64(expr.value)
        if isinstance(expr, Symbol):
            return self.lookup(expr.name, local)
        if isinstance(expr, Neg):
            return self._apply(np.negative, self.eval(expr.operand, local))
        if isinstance(expr, Pow):
            base = self.eval(expr.base, local)
            exponent = self.eval(expr.exponent, local)
            # numpy swaps pow() for sqrt, square or reciprocal when the
            # exponent repeats along the loop, which can move the last bit;
            # a contiguous exponent on the time axis keeps every sample on pow()
            shape = np.broadcast_shapes(np.shape(base), np.shape(exponent), (self.n,))
            exponent = np.ascontiguousarray(np.broadcast_to(exponent, shape))
            with np.errstate(all="ignore"):
                return np.power(base, exponent)
        if isinstance(expr, BinOp):
            left = self.eval(expr.left, local)
            right = self.eval(expr.right, local)
            if expr.op == "/":
                return self._divide(left, right)
            return self._apply(_ARITHMETIC[expr.op], left, right)
        return self._call(expr, local)

    def _divide(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        guarded = np.abs(den) < GUARD_EPSILON
        hits = int(np.count_nonzero(guarded))
        # each divisor value reaches size / den.size output samples
        self.guards += hits * (self.size // np.size(den))
        if not hits:
            with np.errstate(all="ignore"):
                return self._apply(np.divide, num, den)
        safe = np.where(guarded, 1.0, den)
        with np.errstate(all="ignore"):
            out = self._apply(np.divide, num, safe)
        if np.ndim(out) == 0:
            return np.where(guarded, 0.0, out)
        np.copyto(out, 0.0, where=guarded)
        return out

    def _call(self, expr: Call, local: dict[str, float]) -> np.ndarray:
        if expr.func == "sin":
            return self._apply(np.sin, self.eval(expr.args[0], local))
        if expr.func == "cos":
            return self._apply(np.cos, self.eval(expr.args[0], local))
        if expr.func == "integral":
            var = expr.args[1]
            if var.name != "t":
                raise EvaluationError(
                    f"integral over {var.name!r} is not supported, only t"
                )
            body = self.eval(expr.args[0], local)
            body = np.broadcast_to(body, np.broadcast_shapes(np.shape(body), (self.n,)))
            steps = np.diff(self.grid) * (body[..., 1:] + body[..., :-1]) / 2.0
            out = np.zeros(body.shape, dtype=steps.dtype)
            np.cumsum(steps, axis=-1, out=out[..., 1:])
            return out
        # finite sum with the index substituted over its inclusive bounds
        body_expr, index = expr.args[0], expr.args[1]
        low = self._scalar(expr.args[2], local, "sum lower bound")
        high = self._scalar(expr.args[3], local, "sum upper bound")
        if high < low:
            raise EvaluationError("sum upper bound is below its lower bound")
        count = int(high - low) + 1
        if count > MAX_SUM_ITERATIONS:
            raise EvaluationError(f"sum expands to {count} terms, over the limit")
        total = np.float64(0.0)
        inner = dict(local)
        for k in range(int(low), int(high) + 1):
            inner[index.name] = float(k)
            total = self._apply(np.add, total, self.eval(body_expr, inner))
        return total

    def _scalar(self, expr: Expr, local: dict[str, float], what: str) -> int:
        values = self.eval(expr, local)
        lo, hi = np.min(values), np.max(values)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise EvaluationError(f"{what} must be finite")
        if hi - lo > 1e-9:
            raise EvaluationError(f"{what} must be constant over the grid")
        value = float(lo)
        if abs(value - round(value)) > 1e-9:
            raise EvaluationError(f"{what} must be an integer, got {value}")
        return int(round(value))


def evaluate(expr: Expr, ctx: EvalContext, grid: np.ndarray) -> EvalResult:
    """Evaluate a formula sample-wise over a uniform time grid.

    Returns the samples, shape (n,) or (rows, n) when a signal is bound
    with a label axis, the number of guarded output samples, and a mask
    of samples that came out non-finite and were zeroed.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 2:
        raise EvaluationError("grid must be one-dimensional with at least 2 samples")
    steps = np.diff(grid)
    if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise EvaluationError("grid must be uniformly spaced and increasing")

    engine = _Evaluator(ctx, grid)
    samples = engine.eval(expr, {})
    if np.shape(samples) != engine.shape:
        samples = np.broadcast_to(samples, engine.shape).copy()
    invalid = ~np.isfinite(samples)
    if invalid.any():
        samples = np.where(invalid, 0.0, samples)
    return EvalResult(
        samples=samples, guard_count=engine.guards, invalid_mask=invalid
    )
