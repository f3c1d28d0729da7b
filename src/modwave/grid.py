"""The store of the last sample grid: its time axis and the arrays every
row on it shares.

Those arrays are the label-invariant subtrees of formulas and the
label-invariant parts of a basis (synth.candidate_basis), keyed by
dsl.evaluation.invariant_key, so every formula's cos(2*pi*f_c*t) is one
entry; the Gram matrix over each symbol of a basis's parts, keyed
("gram", samples per symbol, the parts' keys); and the channel's
standard-normal draw, keyed ("standard_normal", seed). A formula's
subtree is kept when it is a maximal one that reads t and otherwise only
pi and bound scalars, is no lone symbol, and fired no division guard
while it was computed; a part, when it fired no guard. The SLOTS most
recently used are kept; an evicted array is dropped, never written, so a
caller that holds it keeps its values. The last grid's store is the
package's only state between calls, and modwave runs no threads.
"""

import math
import mmap
from collections import OrderedDict

import numpy as np

SLOTS = 6  # the carrier pair, its Gram, one more subtree, the noise draw and a spare


class GridStore:
    """A grid's read-only time axis t and an LRU table of read-only (n_samples,) arrays."""

    def __init__(self, n_samples: int, sample_rate: float):
        self.grid = n_samples, sample_rate
        # a float arange converts each index exactly (all below 2**53), so the
        # axis has the bits of an int arange divided, without the int pass
        self.t = np.arange(n_samples, dtype=np.float64) / sample_rate
        self.t.flags.writeable = False
        self.entries: OrderedDict[object, np.ndarray] = OrderedDict()

    def get(self, key) -> np.ndarray | None:
        """The array kept under key, now the most recent entry, or None."""
        if key in self.entries:
            self.entries.move_to_end(key)
        return self.entries.get(key)

    def put(self, key, value: np.ndarray) -> np.ndarray:
        """Keep value, made read-only, under key and return it."""
        value.flags.writeable = False
        self.entries[key] = value
        self.entries.move_to_end(key)
        if len(self.entries) > SLOTS:
            self.entries.popitem(last=False)
        return value

    def value(self, key, make) -> np.ndarray:
        """The array kept under key, else make()'s, kept under it."""
        value = self.get(key)
        return self.put(key, make()) if value is None else value


def mapped(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array of this shape in its own anonymous map. On
    the heap, where modwave's malloc settings keep arrays, an entry made
    mid-row and kept splits a block the next row needs, and the heap grows
    by a block: 3.8 MB of a 12-row compare's peak for a 320 KB Gram."""
    buffer = mmap.mmap(-1, 8 * math.prod(shape))
    return np.frombuffer(buffer, dtype=np.float64).reshape(shape)


_LAST: GridStore | None = None


def grid(n_samples: int, sample_rate: float) -> GridStore:
    """The store of this grid: the last one, or a new one that replaces it."""
    global _LAST
    if _LAST is None or _LAST.grid != (n_samples, sample_rate):
        _LAST = GridStore(n_samples, sample_rate)
    return _LAST


def last() -> GridStore | None:
    """The store of the last grid asked for, if any."""
    return _LAST
