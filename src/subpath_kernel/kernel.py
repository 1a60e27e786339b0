"""Subpath kernel between labeled rooted trees.

The kernel counts, for every downward label sequence p (a path from some
node toward the root, read root-ward labels reversed — equivalently every
prefix of every node-to-root suffix), the product of its occurrence counts
in the two trees, weighted by lam**len(p).  Equivalently it is the sum over
all cross-tree suffix pairs of W[lcp], where W[k] = sum_{j<=k} lam**j.

The fast path merges both trees into one forest under fresh terminal
labels, builds a single suffix array, and accumulates interval products in
one left-to-right sweep over the lcp array with a stack of
(depth, count-in-tree-1, count-in-tree-2) frames — O(n) after the build.

``subpath_kernel_oracle`` recounts everything with a hash map of explicit
prefix strings; it is the slow, independent cross-check.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import math
import os

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
    """Forest of input trees, each hung under its own terminal root.

    ``source[v]`` is the 1-based index of the originating tree, 0 for
    terminal nodes.  ``terminals`` lists the terminal node ids in component
    order.  Terminal labels are negative so they sort below every real
    label and never collide with one.
    """

    labels: list[int]
    parent: list[int]
    depth: list[int]
    source: list[int]
    terminals: list[int]
    n_components: int


def merge_forest(trees: list[Tree], terminal_labels: list[int] | None = None) -> MergedTree:
    m = len(trees)
    if terminal_labels is None:
        terminal_labels = list(range(-m, 0))
    if len(terminal_labels) != m:
        raise ValueError("need one terminal label per tree")
    if any(t >= 0 for t in terminal_labels):
        raise ValueError("terminal labels must be negative")
    if any(b <= a for a, b in zip(terminal_labels, terminal_labels[1:])):
        raise ValueError("terminal labels must be strictly increasing")
    labels: list[int] = []
    parent: list[int] = []
    depth: list[int] = []
    source: list[int] = []
    terminals: list[int] = []
    for i, tree in enumerate(trees):
        base = len(labels)
        terminals.append(base)
        labels.append(terminal_labels[i])
        parent.append(-1)
        depth.append(0)
        source.append(0)
        off = base + 1
        labels.extend(tree.labels)
        parent.extend(base if p == -1 else p + off for p in tree.parent)
        depth.extend(d + 1 for d in tree.depth)
        source.extend([i + 1] * tree.n)
    return MergedTree(labels, parent, depth, source, terminals, m)


def merge_trees(t1: Tree, t2: Tree) -> MergedTree:
    return merge_forest([t1, t2])


def merged_esa(merged: MergedTree, builder: str = "linear") -> _esa.TreeSuffixArray:
    """Suffix array of the merged forest with terminal-only rows dropped.

    Terminal labels are the m smallest and each occurs once as a length-1
    suffix, so those rows are exactly the first m ranks; dropping a prefix
    of the suffix array leaves every remaining lcp entry intact.
    """
    full = _esa.select_builder(builder)(merged)
    m = merged.n_components
    term = set(merged.terminals)
    assert all(v in term for v in full.sa[:m])
    rsa = [r - m for r in full.rsa]
    for v in merged.terminals:
        rsa[v] = -1
    return _esa.TreeSuffixArray(sa=full.sa[m:], lcp=full.lcp[m:], rsa=rsa,
                                suffix_len=full.suffix_len)


def _sweep(sa, lcp, depth, source, w) -> float:
    """Interval sum over the lcp array in one pass.

    A stack frame (h, c1, c2) records how many suffixes from each tree sit
    in the currently open interval of string depth h.  Closing an interval
    of depth h inside one of depth g contributes (W[h] - W[g]) * c1 * c2:
    each cross pair shares a prefix of length h, of which g was already
    charged to the enclosing interval.  Suffix depths here include the
    terminal label, but cross pairs never match through distinct terminals,
    so charged depths stay within real labels.
    """
    n = len(sa)
    if n == 0:
        return 0.0
    # Gather each rank's suffix depth and tree up front, so the stack loop
    # reads its inputs in rank order instead of jumping through node ids.
    hs = [depth[v] + 1 for v in sa]
    ones = [source[v] == 1 for v in sa]
    bs = list(lcp[:n - 1])
    bs.append(0)
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
    maxh = max(merged.depth, default=0) + 1
    w = weight_table(maxh, params.lam)
    return _sweep(arr.sa, arr.lcp, merged.depth, merged.source, w)


def _prefix_counts(tree: Tree) -> Counter:
    """Multiset of node-to-root label strings' prefixes, encoded as str."""
    strs: list[str] = [""] * tree.n
    counts: Counter = Counter()
    for v in range(tree.n):
        p = tree.parent[v]
        s = chr(tree.labels[v] + 1) + (strs[p] if p != -1 else "")
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
        diag = [gram[i][i] for i in range(n)]
        for i in range(n):
            for j in range(n):
                d = math.sqrt(diag[i] * diag[j])
                gram[i][j] = gram[i][j] / d if d > 0 else 0.0
    return gram
