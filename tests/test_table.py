"""modwave.table against CPython's own `b"%.10g" % x`, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modwave.table
from modwave.table import format_table, write_table

from conftest import SPECIAL, SPECIAL_F32, row_bytes, row_writer, table_edges

EDGES = table_edges()


def cells(values):
    """Each value as its own row, as `b"%.10g" % x` spells it."""
    return b"".join(b"%.10g\r\n" % x for x in np.asarray(values, dtype=np.float64).tolist())


class TestCells:
    @settings(max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_float_is_cpythons(self, values):
        # nan, ±inf, ±0 and subnormals included
        row = np.array(values)[None, :]
        assert format_table(row) == row_bytes(row)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_pattern_is_cpythons(self, patterns):
        row = np.array(patterns, dtype=np.uint64).view(np.float64)[None, :]
        assert format_table(row) == row_bytes(row)

    def test_edges(self):
        assert format_table(EDGES[:, None]) == cells(EDGES)

    @pytest.mark.parametrize(
        "value, spelled",
        [
            (9.9999999996e-05, b"0.0001"),
            (9.9999999994e-05, b"9.999999999e-05"),
            (9999999999.6, b"1e+10"),
            (9999999999.4, b"9999999999"),
            (1e-05, b"1e-05"),
            (0.0001, b"0.0001"),
            (1e9, b"1000000000"),
            (1e10, b"1e+10"),
            (1234567890.5, b"1234567890"),
            (1234567891.5, b"1234567892"),
            (-0.0, b"-0"),
            (-1e-300, b"-1e-300"),
            (1e100, b"1e+100"),
            (0.00012, b"0.00012"),
        ],
    )
    def test_spellings(self, value, spelled):
        assert format_table([[value]], newline="") == spelled

    def test_numpys_powers_of_ten_are_not_all_correctly_rounded(self):
        # why the kernel keeps a table of float("1e%d" % k)
        k = np.arange(-300, 301)
        correct = np.array([float(f"1e{e}") for e in k.tolist()])
        assert np.count_nonzero(10.0 ** k.astype(float) != correct) > 0
        assert np.array_equal(modwave.table._POW10, correct)

    def test_special_values(self):
        f32 = SPECIAL_F32.astype(float).repeat(2)[: SPECIAL.size]
        table = np.column_stack((np.outer(SPECIAL, [1.0, -1.0, 3.0]), f32))
        assert format_table(table, "\n") == row_bytes(table, "\n")


class TestTables:
    @pytest.mark.parametrize("block_cells", [1, 5, 7, 64, modwave.table._BLOCK_CELLS])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 9), (13, 7)])
    @pytest.mark.parametrize("newline", ["\r\n", "\n", ""])
    def test_blocks_are_one_table(self, monkeypatch, block_cells, shape, newline):
        # blocks smaller than a row, a partial last block, one block
        monkeypatch.setattr(modwave.table, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(block_cells)
        table = rng.choice(EDGES, size=shape)
        assert format_table(table, newline) == row_bytes(table, newline)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_tables(self, shape):
        assert format_table(np.zeros(shape), "\n") == b"\n" * shape[0]

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2))])
    def test_a_table_is_two_dimensional(self, bad):
        with pytest.raises(ValueError, match="2-D"):
            format_table(bad)

    @pytest.mark.parametrize("newline", ["\r\n", "\n"])
    def test_write_table_equals_the_row_writer(self, tmp_path, newline):
        table = np.column_stack((EDGES, EDGES[::-1], np.arange(EDGES.size)))
        write_table(tmp_path / "block.csv", b"a,b,c", table, newline)
        row_writer(tmp_path / "row.csv", "a,b,c", "%.10g,%.10g,%.10g", table.tolist(), newline)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()

    def test_float32_cells_are_widened_exactly(self):
        values = SPECIAL_F32[:, None]
        assert format_table(values) == cells(values.ravel().tolist())

    def test_the_tie_margin_covers_the_products_error(self):
        # the scaled mantissa is below 1e10, and two roundings of relative
        # error 2**-53 each put it within 2.3e-6 of |x| * 10**(9 - e)
        assert 1e10 * 2 * 2.0**-53 < 2.3e-6 < modwave.table._TIE
