"""Text tables of float64 cells at `%.10g`, formatted in numpy blocks.

format_table gives, byte for byte, what `b"%.10g" % x` gives each cell,
with a comma after each cell of a row and the newline after its last.
Per cell it takes the decimal exponent e = floor(log10|x|) and the
ten-digit mantissa m = rint(|x| * 10**(9 - e)). The power of ten comes
from a table of correctly rounded float("1e%d" % k); numpy's 10.0 ** k is
an ulp off for some k. The product's float64 error is below 2.3e-6, so
every cell whose scaled mantissa lies more than _TIE from a rounding tie
rounds as CPython's correctly rounded dtoa does. CPython formats the
rest: cells near a tie, cells whose m falls outside [1e9, 1e10) (a
misjudged exponent, or a carry into the next power of ten), and cells
that are 0, nan, ±inf or outside _RANGE.

The digits fill a fixed per-cell template of slots: the sign, "0.000",
ten digits with a point slot after each, "e±ddd", and the separator.
Each slot `%g` leaves out is 0: trailing zeros, the point, and the
exponent, which is written when e < -4 or e >= 10. The template is built
slot-major, one row per slot, then transposed once and compacted by
dropping its zero bytes, _BLOCK_CELLS cells at a time.
"""

import numpy as np

_BLOCK_CELLS = 1 << 15  # cells formatted per block: whole rows, at least one
_TIE = 1e-5  # a scaled mantissa this close to a rounding tie goes to CPython
_RANGE = 1e-280, 1e280  # |x| outside this goes to CPython

# the template's slot rows: sign, "0.000", digit and point, "e±ddd", separator
_SIGN, _ZERO, _DIGIT, _EXP, _SEP = 0, 1, 6, 26, 31
_PREFIX = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_PREFIX_BELOW = np.array([0, 0, -1, -2, -3])[:, None]  # slot written when e < this
_I = np.arange(10)[:, None]  # digit index
_MARK = 1  # the sign slot of a cell CPython formats

_POW10 = np.array([float("1e%d" % k) for k in range(-300, 301)])  # 10**k at [k + 300]
_FOUR = 10_000
# the four ASCII digits of each v < 10**4, one row per digit
_DIGITS4 = np.stack(
    [np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), 10 ** (3 - j)), 10**j) for j in range(4)]
)
# trailing zeros of each v < 10**4 as four digits (4 for v = 0)
_TRAILING4 = np.zeros(_FOUR, dtype=np.int8)
for _j in range(1, 5):
    _TRAILING4[:: 10**_j] += 1
for _table in (_PREFIX_BELOW, _I, _POW10, _DIGITS4, _TRAILING4):
    _table.flags.writeable = False
del _j, _table


def _cells(x: np.ndarray, sep: np.ndarray) -> bytes:
    """The bytes of the cells x, each followed by its column of sep, whose
    zero bytes are not written."""
    a = np.abs(x)
    native = (a >= _RANGE[0]) & (a <= _RANGE[1])
    a = np.where(native, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    scaled = a * _POW10[309 - e]
    m = np.rint(scaled)
    native &= (np.abs(scaled - m) < 0.5 - _TIE) & (m >= 1e9) & (m < 1e10)
    m = np.where(native, m, 1e9).astype(np.int64)
    # m's ten digits in groups of 2, 4 and 4, and how many are significant
    high = m // _FOUR
    groups = high // _FOUR, high % _FOUR, m - high * _FOUR
    zeros = np.where(groups[1] == 0, 4 + _TRAILING4[groups[0]], _TRAILING4[groups[1]])
    digits = 10 - np.where(groups[2] == 0, 4 + zeros, _TRAILING4[groups[2]])
    fixed = (e >= -4) & (e < 10)

    # each row is a character times its keep mask
    cells = np.empty((_SEP + sep.shape[0], x.size), dtype=np.uint8)
    np.multiply(x < 0, np.uint8(ord("-")), out=cells[_SIGN])
    np.multiply(fixed & (e < _PREFIX_BELOW), _PREFIX, out=cells[_ZERO:_DIGIT])
    digit = cells[_DIGIT:_EXP:2]
    for j in range(10):  # the first group spells two digits as four: "00dd"
        group, place = divmod(j + 2, 4)
        _DIGITS4[place].take(groups[group], out=digit[j], mode="clip")
    np.multiply(digit, (_I < digits) | (fixed & (_I <= e)), out=digit)
    point = np.where(fixed, e, 0)
    np.multiply((_I == point) & (digits > point + 1), np.uint8(ord(".")), out=cells[_DIGIT + 1 : _EXP : 2])
    exp = cells[_EXP:_SEP]
    e_abs = np.abs(e)
    exp[0] = ord("e")
    exp[1] = np.where(e < 0, ord("-"), ord("+"))
    for j in range(3):
        _DIGITS4[1 + j].take(e_abs, out=exp[2 + j], mode="clip")
    np.multiply(exp, ~fixed, out=exp)
    np.multiply(exp[2], e_abs >= 100, out=exp[2])
    cells[_SEP:] = sep
    fallback = np.flatnonzero(~native)
    cells[:_SEP, fallback] = 0
    cells[_SIGN, fallback] = _MARK

    flat = cells.T.ravel()
    body = flat.compress(flat.view(bool)).tobytes()
    if not fallback.size:
        return body
    pieces = body.split(bytes([_MARK]))
    out = [pieces[0]]
    for k, piece in zip(fallback.tolist(), pieces[1:]):
        out += b"%.10g" % x[k], piece
    return b"".join(out)


def _blocks(table, newline: str):
    """Yield the bytes of the table's rows, a block of whole rows at a time."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"a table is 2-D, got shape {table.shape}")
    rows, cols = table.shape
    if not rows * cols:
        yield newline.encode() * rows
        return
    step = max(1, _BLOCK_CELLS // cols)
    # a block's separator slots: a comma after each cell, the newline after
    # a row's last
    sep = np.zeros((max(1, len(newline)), cols), dtype=np.uint8)
    sep[0] = ord(",")
    sep[:, -1] = 0
    sep[: len(newline), -1] = np.frombuffer(newline.encode(), dtype=np.uint8)
    sep = np.tile(sep, min(step, rows))
    for start in range(0, rows, step):
        cells = table[start : start + step].ravel()
        yield _cells(cells, sep[:, : cells.size])


def format_table(table, newline: str = "\r\n") -> bytes:
    """Each row of a 2-D float table as its cells at `%.10g`, comma
    separated, then newline: the bytes of `b"%.10g" % x` for every cell."""
    return b"".join(_blocks(table, newline))


def write_table(path, header: bytes, table, newline: str = "\r\n") -> None:
    """Write the header line, then the table's rows as format_table does.

    `b'%.10g' % x` spells `f"{x:.10g}"`, so CRLF tables match `csv.writer`.
    """
    with open(path, "wb") as handle:
        handle.write(header + newline.encode())
        handle.writelines(_blocks(table, newline))
