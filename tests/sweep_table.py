"""Compare modwave.table.format_table with CPython's `b"%.10g" % x` on
2**N random float64 bit patterns, then on the tests' edge set.

    PYTHONPATH=src python tests/sweep_table.py [--log2 21] [--seed 0]

Prints the first cell that differs and exits 1, else exits 0. Not a
pytest module: a sweep of this size is a CI step of its own.
"""

import argparse
import sys

import numpy as np

from modwave.table import format_table

from conftest import row_bytes, table_edges

COLUMNS = 64


def first_difference(values: np.ndarray) -> str | None:
    table = values[: values.size - values.size % COLUMNS].reshape(-1, COLUMNS)
    tail = values[table.size :][None, :]
    for part in (table, tail):
        if format_table(part) != row_bytes(part):
            for x in part.ravel().tolist():
                got, want = format_table([[x]], newline=""), b"%.10g" % x
                if got != want:
                    return f"{x!r}: {got!r}, expected {want!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log2", type=int, default=21, help="log2 of the random values")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    patterns = rng.integers(0, 2**64, size=1 << args.log2, dtype=np.uint64, endpoint=False)
    for name, values in (("bit patterns", patterns.view(np.float64)), ("edges", table_edges())):
        difference = first_difference(values)
        if difference is not None:
            print(f"{name}: {difference}")
            return 1
        print(f"{name}: {values.size} values equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
