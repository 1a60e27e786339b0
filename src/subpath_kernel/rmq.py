"""Range-minimum queries over integer arrays via a doubling sparse table.

Build is O(n log n) time and space; ``query`` is O(1).  The tests use it
as the lcp oracle: the lcp of the suffixes at ranks x < y is the minimum
of lcp[x..y-1].  The library finds lcp intervals with one stack pass
instead (``kernel.lcp_intervals``).
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
