"""Range-minimum queries over integer arrays via a doubling sparse table.

Build is O(n log n) time and space; ``query`` is O(1) and ``run_bounds``
answers a batch of nearest-smaller-value queries in O(log n) vectorized
steps.  The master index (``predict.build_master_index``) finds its lcp
intervals with ``run_bounds``; the tests use ``query`` as an oracle.
"""

from __future__ import annotations

import numpy as np


def _log_table(n: int) -> np.ndarray:
    """logt[k] = floor(log2 k) for 1 <= k <= n (logt[0] unused)."""
    logt = np.zeros(n + 1, np.int64)
    j = 1
    while (1 << j) <= n:
        logt[(1 << j):] = j
        j += 1
    return logt


class RmqIndex:
    """Sparse table: level j holds the minimum of each window of 2**j values."""

    def __init__(self, values) -> None:
        arr = np.asarray(values, np.int64)
        if arr.ndim != 1:
            raise ValueError("values must be one-dimensional")
        self._n = int(arr.size)
        levels = [arr]
        j = 1
        while (1 << j) <= self._n:
            prev = levels[-1]
            half = 1 << (j - 1)
            width = self._n - (1 << j) + 1
            levels.append(np.minimum(prev[:width], prev[half:half + width]))
            j += 1
        self._levels = levels
        self._logt = _log_table(self._n)

    def __len__(self) -> int:
        return self._n

    def query(self, x: int, y: int) -> int:
        """Minimum of values[x..y] inclusive; x > y or out of bounds raises."""
        if x > y:
            raise IndexError(f"empty range [{x}, {y}]")
        if x < 0 or y >= self._n:
            raise IndexError(f"range [{x}, {y}] out of bounds for size {self._n}")
        j = int(self._logt[y - x + 1])
        row = self._levels[j]
        return int(min(row[x], row[y - (1 << j) + 1]))

    def run_bounds(self, pos, floor) -> tuple[np.ndarray, np.ndarray]:
        """Maximal runs values[lo..hi] >= floor around each position.

        Vectorized over ``pos`` and ``floor``; values[pos] >= floor must
        hold.  lo - 1 and hi + 1 are the nearest positions left and right of
        pos holding a value below floor (-1 and n when there is none).  Each
        level extends both ends by one whole window when that window stays
        at or above floor, largest windows first.
        """
        floor = np.asarray(floor, np.int64)
        lo = np.array(pos, np.int64, copy=True)
        hi = lo.copy()
        for j in range(len(self._levels) - 1, -1, -1):
            row = self._levels[j]
            last = row.size - 1
            s = lo - (1 << j)
            ok = (s >= 0) & (row[np.maximum(s, 0)] >= floor)
            lo = np.where(ok, s, lo)
            s = hi + 1
            ok = (s <= last) & (row[np.minimum(s, last)] >= floor)
            hi = np.where(ok, hi + (1 << j), hi)
        return lo, hi
