"""Subpath kernel between labeled rooted trees.

The kernel counts, for every downward label sequence p (a path from some
node toward the root, read root-ward labels reversed — equivalently every
prefix of every node-to-root suffix), the product of its occurrence counts
in the two trees, weighted by lam**len(p).  Equivalently it is the sum over
all cross-tree suffix pairs of W[lcp], where W[k] = sum_{j<=k} lam**j.

The fast path places both trees side by side in one forest, builds a
single suffix array over every node-to-root suffix, and accumulates
interval products in one left-to-right sweep over the lcp array with a
stack of (depth, count-in-tree-1, count-in-tree-2) frames — O(n) after the
build.

``subpath_kernel_oracle`` recounts everything with a hash map of explicit
prefix strings; it is the slow, independent cross-check.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import os

import numpy as np

from . import esa as _esa
from .trees import Tree


@dataclass(frozen=True)
class KernelParams:
    """Weight lam per path edge+1: a length-k path contributes lam**k."""

    lam: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lam must be in (0, 1], got {self.lam}")


def weight_table(max_len: int, lam: float) -> list[float]:
    """W[k] = lam + lam**2 + ... + lam**k, accumulated to avoid pow churn."""
    w = [0.0] * (max_len + 1)
    acc = 0.0
    p = 1.0
    for k in range(1, max_len + 1):
        p *= lam
        acc += p
        w[k] = acc
    return w


@dataclass(frozen=True)
class MergedTree:
    """Forest of input trees placed side by side, each root at parent -1.

    Every field is an int64 array over the forest's nodes; ``source[v]``
    is the 0-based index of the tree node v came from.  No separator is
    needed: every suffix ends at its own root, end-of-suffix sorts before
    every label, and identical suffixes tie-break by node id, which is
    tree order.
    """

    labels: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    source: np.ndarray


def merge_forest(trees: list[Tree]) -> MergedTree:
    sizes = np.array([tree.n for tree in trees], np.int64)
    empty = [np.empty(0, np.int64)]
    parent = np.concatenate(empty + [tree.parent for tree in trees])
    offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
    return MergedTree(
        labels=np.concatenate(empty + [tree.labels for tree in trees]),
        parent=np.where(parent < 0, -1, parent + offsets),
        depth=np.concatenate(empty + [tree.depth for tree in trees]),
        source=np.repeat(np.arange(len(trees)), sizes),
    )


def merge_trees(t1: Tree, t2: Tree) -> MergedTree:
    return merge_forest([t1, t2])


def merged_esa(merged: MergedTree, builder: str = "linear") -> _esa.TreeSuffixArray:
    """Suffix array of the merged forest by the named builder.

    A stage of its own so that the benchmark's traced run
    (``perfbench/spans.py``) can time it by name.
    """
    return _esa.select_builder(builder)(merged)


def _sweep(sa, lcp, depth, source, w) -> float:
    """Interval sum over the lcp array in one pass.

    A stack frame (h, c1, c2) records how many suffixes from each tree sit
    in the currently open interval of string depth h.  Closing an interval
    of depth h inside one of depth g contributes (W[h] - W[g]) * c1 * c2:
    each cross pair shares a prefix of length h, of which g was already
    charged to the enclosing interval.  Identical suffixes of both trees
    tie at their full length h and share one frame.
    """
    if sa.size == 0:
        return 0.0
    # Gather each rank's suffix depth and tree up front, so the stack loop
    # reads its inputs in rank order instead of jumping through node ids.
    hs = (depth[sa] + 1).tolist()
    ones = (source[sa] == 0).tolist()
    bs = lcp.tolist()
    bs[-1] = 0
    total = 0.0
    stack = [[-1, 0, 0]]
    top = stack[0]
    for h, one, b in zip(hs, ones, bs):
        if top[0] != h:
            top = [h, 0, 0]
            stack.append(top)
        if one:
            top[1] += 1
        else:
            top[2] += 1
        while top[0] > b:
            ph, c1, c2 = stack.pop()
            top = stack[-1]
            g = top[0]
            if g < b:
                g = b
            if c1 and c2:
                total += (w[ph] - (w[g] if g > 0 else 0.0)) * c1 * c2
            if top[0] == g:
                top[1] += c1
                top[2] += c2
            else:
                top = [g, c1, c2]
                stack.append(top)
    return total


def subpath_kernel(t1: Tree, t2: Tree, params: KernelParams, *, builder: str = "linear") -> float:
    """K(t1, t2) via the merged suffix array, O(|t1| + |t2|) post-build."""
    merged = merge_trees(t1, t2)
    arr = merged_esa(merged, builder=builder)
    maxh = int(merged.depth.max(initial=0)) + 1
    w = weight_table(maxh, params.lam)
    return _sweep(arr.sa, arr.lcp, merged.depth, merged.source, w)


def _prefix_counts(tree: Tree) -> Counter:
    """Multiset of node-to-root label strings' prefixes, encoded as str."""
    strs: list[str] = [""] * tree.n
    counts: Counter = Counter()
    for v, (lab, p) in enumerate(zip(tree.labels.tolist(), tree.parent.tolist())):
        s = chr(lab + 1) + (strs[p] if p != -1 else "")
        strs[v] = s
        for k in range(1, len(s) + 1):
            counts[s[:k]] += 1
    return counts


def subpath_kernel_oracle(t1: Tree, t2: Tree, lam: float) -> float:
    """Direct hash-map recount; quadratic-ish, for cross-checking."""
    c1 = _prefix_counts(t1)
    c2 = _prefix_counts(t2)
    if len(c2) < len(c1):
        c1, c2 = c2, c1
    total = 0.0
    for s, a in c1.items():
        b = c2.get(s)
        if b:
            total += (lam ** len(s)) * a * b
    return total


_POOL_TREES: list[Tree] = []
_POOL_PARAMS: KernelParams | None = None


def _pool_init(trees: list[Tree], params: KernelParams) -> None:
    global _POOL_TREES, _POOL_PARAMS
    _POOL_TREES = trees
    _POOL_PARAMS = params


def _pool_entry(ij: tuple[int, int]) -> tuple[int, int, float]:
    i, j = ij
    value = subpath_kernel(_POOL_TREES[i], _POOL_TREES[j], _POOL_PARAMS)
    return i, j, value


def gram_matrix(
    trees: list[Tree],
    params: KernelParams,
    *,
    normalize: bool = False,
    jobs: int = 1,
) -> list[list[float]]:
    """Symmetric kernel matrix; optionally cosine-normalized.

    ``jobs > 1`` fans the lower-triangle entries out to worker processes,
    at most one per CPU; ``jobs < 1`` raises.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    n = len(trees)
    gram = [[0.0] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    if workers > 1 and len(pairs) > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(trees, params)
        ) as pool:
            for i, j, value in pool.map(_pool_entry, pairs, chunksize=8):
                gram[i][j] = gram[j][i] = value
    else:
        for i, j in pairs:
            value = subpath_kernel(trees[i], trees[j], params)
            gram[i][j] = gram[j][i] = value
    if normalize:
        g = np.array(gram, np.float64).reshape(n, n)
        diag = g.diagonal()
        d = np.sqrt(np.outer(diag, diag))
        gram = np.divide(g, d, out=np.zeros_like(g), where=d > 0).tolist()
    return gram
