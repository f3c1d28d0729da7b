import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from modwave.dsl import BinOp, Call, Const, Neg, Pow, Symbol
from modwave.dsl.symbols import NAMES

# derandomized: every run draws the same examples, so Tier-1 stays deterministic
settings.register_profile(
    "modwave", derandomize=True, max_examples=20, deadline=None, database=None
)
settings.load_profile("modwave")


# values a number formatter must spell right: signed zeros, infinities,
# nan, the extremes of float64, whole numbers stored as floats
SPECIAL = np.array(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, 1e-12,
     3.0, -42.0, 2.0**53, 1.0 / 3.0, 12345.678901234]
)
# values that float32 rounds, and its own extremes
SPECIAL_F32 = np.array(
    [0.1, 1.0 / 3.0, 3.4e38, 1e-45, 1e-40, -2.5, 16777217.0, 0.0], dtype=np.float32
)

# grammar files of each shape that load_grammar rejects, by what is wrong;
# past the first two, the fault is in the alternatives of the rule "tail"
MALFORMED_GRAMMARS = {
    "not-json": b'{"start": [',
    "not-utf8": b'{"start": [{"production": "A \xff", "weight": 1.0}]}',
    **{
        kind: b'{"start": [{"production": "A", "weight": 1.0}], "tail": ' + tail + b"}"
        for kind, tail in {
            "alternatives-object": b'{"production": "A", "weight": 1.0}',
            "alternative-not-object": b'["A"]',
            "missing-production": b'[{"weight": 1.0}]',
            "extra-key": b'[{"production": "A", "weight": 1.0, "note": "x"}]',
            "production-not-string": b'[{"production": 3, "weight": 1.0}]',
            "weight-string": b'[{"production": "A", "weight": "heavy"}]',
            "weight-bool": b'[{"production": "A", "weight": true}]',
        }.items()
    },
}


# constants as the lexer reads them, plain decimal digits: whole numbers
# up to 1e21 and fractions down to 1e-9; names in and out of the namespace
_CONSTANTS = st.one_of(
    st.integers(0, 10**21).map(float),
    st.builds(lambda m, k: float(f"0.{'0' * k}{m}"), st.integers(1, 10**6), st.integers(0, 8)),
)
_NAMES = sorted(NAMES) + ["I", "Q", "d", "f", "i", "j", "x_q"]


def _extend(kids):
    return st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
        st.builds(Pow, kids, kids),
        st.builds(lambda f, x: Call(f, (x,)), st.sampled_from(("sin", "cos")), kids),
        kids.map(lambda body: Call("integral", (body, Symbol("t")))),
        st.builds(
            lambda body, index, low, high: Call("sum", (body, Symbol(index), low, high)),
            kids, st.sampled_from(("i", "j", "I")), kids, kids,
        ),
    )


# every node kind, small enough for the lexer's length and token limits
FORMULA_TREES = st.recursive(
    st.one_of(_CONSTANTS.map(Const), st.sampled_from(_NAMES).map(Symbol)),
    _extend,
    max_leaves=6,
)


def qfunc(x: float) -> float:
    """Gaussian tail probability, the textbook detection oracle."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
