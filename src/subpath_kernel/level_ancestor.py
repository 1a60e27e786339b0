"""Level-ancestor queries (the j-th ancestor of a node) via binary lifting.

Build is O(n log n) numpy work; ``query_batch`` answers a batch of queries
in one vectorized step per table row.  Row r of the lifting table holds
2**r-step ancestors; index n is a sentinel that self-loops, standing for
"past the root".  The master index (``predict.build_master_index``) finds
each interval's edge-start node with one batch; matching statistics then
walk master labels by parent steps and make no queries of their own.
"""

from __future__ import annotations

import numpy as np


class LevelAncestorIndex:
    def __init__(self, parent, depth) -> None:
        par = np.asarray(parent, np.int64)
        n = int(par.size)
        row = np.append(np.where(par < 0, n, par), np.int64(n))
        rows = [row]
        maxd = int(np.asarray(depth, np.int64).max(initial=0))
        while (1 << len(rows)) <= maxd:
            prev = rows[-1]
            rows.append(prev[prev])
        self._rows = rows

    def query_batch(self, vs, js) -> np.ndarray:
        """Vectorized ancestor steps; distances must be in range per node."""
        cur = np.array(vs, np.int64, copy=True)
        js = np.asarray(js, np.int64)
        for b, row in enumerate(self._rows):
            mask = ((js >> b) & 1).astype(bool)
            if mask.any():
                cur[mask] = row[cur[mask]]
        return cur
