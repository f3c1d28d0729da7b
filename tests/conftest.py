import contextlib
import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from modwave import grid as grids
from modwave.dsl import BinOp, Call, Const, Neg, Pow, Symbol
from modwave.dsl.symbols import NAMES
from modwave.metrics import extract_constellation
from modwave.synth import constellation, labels_to_bits

# derandomized: every run draws the same examples, so Tier-1 stays deterministic
settings.register_profile(
    "modwave", derandomize=True, max_examples=20, deadline=None, database=None
)
settings.load_profile("modwave")


@contextlib.contextmanager
def cold_store():
    """Run the body on an empty grid store; the store before it comes back after."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grids, "_LAST", None)
        yield


# the three grids of the continuous-phase tests: the default, 16 samples
# per symbol with a non-unit amplitude, and an off-cycle carrier at 10
CPM_GEOMETRIES = [
    {},
    {"carrier_freq": 4000.0, "samples_per_symbol": 16, "amplitude": 0.7},
    {"carrier_freq": 2745.0, "symbol_rate": 1200.0, "samples_per_symbol": 10},
]
CPM_GEOMETRY_IDS = ["sps48", "sps16", "off-cycle-sps10"]

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


def row_writer(path, header: str, row_format: str, rows, newline: str = "\r\n") -> None:
    """The row-at-a-time table writer, `row_format % row` per row: the
    oracle for modwave.table, which formats whole blocks of cells."""
    line = (row_format + newline).encode()
    with open(path, "wb") as handle:
        handle.write((header + newline).encode())
        handle.writelines(line % tuple(row) for row in rows)


def row_bytes(table, newline: str = "\r\n") -> bytes:
    """A 2-D float table at %.10g, comma-separated, one `%` per row."""
    table = np.asarray(table, dtype=np.float64)
    line = (",".join(["%.10g"] * table.shape[1]) + newline).encode()
    return b"".join(line % tuple(row) for row in table.tolist())


def table_edges() -> np.ndarray:
    """Values a %.10g formatter gets wrong first, each also negated."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    rng = np.random.default_rng(24)
    mantissas = rng.integers(10**9, 10**10, 3000).astype(float)
    scales = np.array([float(f"1e{k}") for k in rng.integers(-300, 290, 3000)])
    switches = [
        # carries across a notation switch, and both sides of each switch
        9.9999999996e-05, 9.9999999995e-05, 9.9999999994e-05, 1e-05, 9.999999999e-06,
        0.0001, 0.00010000000005, 9999999999.6, 9999999999.5, 9999999999.4, 1e10,
        999999999.96, 1e9, 99999.999995, 0.00099999999995,
        # the ends of float64, and of the range formatted in numpy
        5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
        1e-280, 1e280, 0.0, math.inf, math.nan,
    ]
    values = np.concatenate([
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, math.inf),
        # 11th-digit ties: exact in binary up to 2**53, rounded beyond it
        mantissas + 0.5,
        (mantissas * 10 + 5) * 10.0 ** rng.integers(-12, 4, 3000),
        (mantissas + 0.5) * scales,
        switches,
    ])
    return np.concatenate([values, -values])

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


def oracle_demap_labels(points_rx, alphabet):
    """The distance demapper: argmin |p - c| over every alphabet point c."""
    return np.argmin(np.abs(points_rx[:, None] - alphabet), axis=1)


def oracle_nearest_point_bits(received, config):
    """The coherent receiver the alphabet rows had: the constellation
    points, scaled by their blind RMS gain, to the nearest alphabet point."""
    points = extract_constellation(received, config)
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    labels = oracle_demap_labels(points, constellation(config.scheme))
    return labels_to_bits(labels, config.bits_per_symbol)
