"""Range-minimum queries over integer arrays via a doubling sparse table.

Build is O(n log n) time and space; queries are O(1).  No production path
uses it: it is the oracle that checks lcp arrays against direct suffix
comparison in the tests.
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
    """Sparse table answering min over inclusive index ranges."""

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
        self._scalar = [lv.tolist() for lv in levels]
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
        row = self._scalar[j]
        other = row[y - (1 << j) + 1]
        first = row[x]
        return first if first <= other else other
