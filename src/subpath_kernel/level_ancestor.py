"""Level-ancestor queries (the j-th ancestor of a node) via binary lifting.

Build is O(n log n); each query walks the set bits of the distance.  Row r
of the lifting table holds 2**r-step ancestors; index n is a sentinel that
self-loops, standing for "past the root".
"""

from __future__ import annotations

import numpy as np


class LevelAncestorIndex:
    def __init__(self, parent, depth) -> None:
        par = np.asarray(parent, np.int64)
        n = int(par.size)
        self._n = n
        self._depth = np.asarray(depth, np.int64).tolist()
        row = np.append(np.where(par < 0, n, par), np.int64(n))
        rows = [row]
        maxd = max(self._depth) if n else 0
        while (1 << len(rows)) <= maxd:
            prev = rows[-1]
            rows.append(prev[prev])
        self._rows_np = rows
        self._rows = [r.tolist() for r in rows]

    def query(self, v: int, j: int) -> int:
        """The j-th ancestor of v (j = 0 is v itself); j > depth[v] raises."""
        if j < 0 or j > self._depth[v]:
            raise IndexError(f"ancestor distance {j} out of range for node {v}")
        b = 0
        while j:
            if j & 1:
                v = self._rows[b][v]
            j >>= 1
            b += 1
        return v

    def query_batch(self, vs, js) -> np.ndarray:
        """Vectorized ancestor steps; distances must be in range per node."""
        cur = np.array(vs, np.int64, copy=True)
        js = np.asarray(js, np.int64)
        for b, row in enumerate(self._rows_np):
            mask = ((js >> b) & 1).astype(bool)
            if mask.any():
                cur[mask] = row[cur[mask]]
        return cur
