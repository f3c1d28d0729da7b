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

A label-invariant subtree, one that reads the time axis and otherwise
only pi and bound scalars, has the same value in every call on the same
grid: modulate and the receiver of one row both compute its carrier. On
the axis of the last grid's store (modwave.grid) each maximal one but a
lone symbol is kept there by invariant_key, sum bodies included, unless
a division guard fired while it was computed: that one is computed and
counted afresh in every call, as in a cold run. The evaluator writes
into an argument only when it is writeable: the grid, the bound signals
and stored values are read-only, so none of them is ever overwritten.
"""

import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .. import grid as grids
from ..errors import EvaluationError
from .ast import BinOp, Call, Const, Expr, Neg, Pow, Symbol, _scoped
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


def _bits(value) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _key(node: Expr, bound: frozenset[str], constants: Mapping[str, float], found: dict):
    """(invariant_key or None, reads t) of node. Each maximal label-invariant
    subtree below it that reads t and is no lone symbol goes into found, its
    key by its node id."""
    if isinstance(node, Const):
        return _bits(node.value), False
    if isinstance(node, Symbol):
        name = None if node.name in bound else resolve(node.name) or node.name
        if name == "t":
            return "t", True
        if name == "pi":
            return _bits(np.pi), False
        if name in constants:
            return _bits(np.float64(constants[name])), False
        return None, False
    kids = [(kid, *_key(kid, kid_bound, constants, found))
            for kid, kid_bound in _scoped(node, bound)]
    keys = [key for _, key, _ in kids]
    if None not in keys:
        tag = node.op if isinstance(node, BinOp) else getattr(node, "func", type(node).__name__)
        return (tag, *keys), any(reads_t for *_, reads_t in kids)
    for kid, key, reads_t in kids:
        if key is not None and reads_t and not isinstance(kid, Symbol):
            found[id(kid)] = key
    return None, False


def invariant_key(expr: Expr, constants: Mapping[str, float]):
    """The store key of a tree that reads only t, pi and bound scalars, else
    None: its structure with every scalar by its bits, so 0.0 and -0.0 are
    two keys, and by value, not name: A and A_c of one value are one float64.
    Names resolve in the order lookup binds them."""
    return _key(expr, frozenset(), constants, {})[0]


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class _Evaluator:
    def __init__(self, expr: Expr, ctx: EvalContext, grid: np.ndarray,
                 store: grids.GridStore | None):
        self.ctx = ctx
        self.store = store  # the store whose axis is grid, or None
        self.invariant = {}  # store key by node id of the subtrees it serves
        if store is not None:
            _key(expr, frozenset(), ctx.constants, self.invariant)
        self.grid = _read_only(grid)
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
        self.guards = 0  # guarded output samples

    def _signal(self, name: str, value) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != (self.n,) and (arr.ndim != 2 or arr.shape[1] != 1):
            raise EvaluationError(
                f"signal {name!r} has shape {arr.shape}, grid has {self.n} "
                "samples; bind (n,) or (rows, 1)"
            )
        return _read_only(arr)

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
        """ufunc(*args), written over a writeable argument of the result's
        shape when there is one.

        Each (rows, n) temporary of a candidate bank is as large as the
        bank, so reusing them bounds the evaluator's memory. The grid, the
        bound signals and the store's values are read-only, and every
        writeable value is made by one node and read by one parent, so
        overwriting it is safe.
        """
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        for arg in args:
            if isinstance(arg, np.ndarray) and arg.shape == shape and arg.flags.writeable:
                return ufunc(*args, out=arg)
        return ufunc(*args)

    def eval(self, expr: Expr, local: dict[str, float]) -> np.ndarray:
        key = self.invariant.get(id(expr))
        value = None if key is None else self.store.get(key)
        if value is None:
            guards = self.guards
            value = self._node(expr, local)
            if key is not None and self.guards == guards:
                self.store.put(key, value)
        return value

    def _node(self, expr: Expr, local: dict[str, float]) -> np.ndarray:
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
        if not hits:
            with np.errstate(all="ignore"):
                return self._apply(np.divide, num, den)
        self.guards += hits * (self.size // np.size(den))  # each reaches size / its size
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


def scalar(expr: Expr, constants: Mapping[str, float]) -> float:
    """The value of a tree that reads only pi and the scalars in constants,
    as evaluate gives it at every sample, without a grid to check."""
    value = _Evaluator(expr, EvalContext(constants), np.zeros(2), None).eval(expr, {})
    return float(np.ravel(value)[0])


def evaluate(expr: Expr, ctx: EvalContext, grid: np.ndarray) -> EvalResult:
    """Evaluate a formula sample-wise over a uniform time grid.

    Returns the samples, shape (n,) or (rows, n) when a signal is bound
    with a label axis, the number of guarded output samples, and a mask
    of samples that came out non-finite and were zeroed. When grid is the
    axis of the last grid's store, label-invariant subtrees are served from
    and kept in that store; any other grid is checked and keeps nothing.
    """
    store = grids.last()
    if store is None or grid is not store.t:
        store, grid = None, np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 2:
        raise EvaluationError("grid must be one-dimensional with at least 2 samples")
    if store is None:  # the store's axis is uniform by construction
        steps = np.diff(grid)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise EvaluationError("grid must be uniformly spaced and increasing")

    engine = _Evaluator(expr, ctx, grid, store)
    samples = engine.eval(expr, {})
    # a bare t or signal is a read-only input: the caller gets its own copy
    if np.shape(samples) != engine.shape or not samples.flags.writeable:
        samples = np.broadcast_to(samples, engine.shape).copy()
    invalid = ~np.isfinite(samples)
    if invalid.any():
        samples = np.where(invalid, 0.0, samples)
    return EvalResult(samples, engine.guards, invalid)
