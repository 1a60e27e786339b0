"""Subpath kernel between labeled rooted trees.

The kernel counts, for every downward label sequence p (a path from some
node toward the root, read root-ward labels reversed — equivalently every
prefix of every node-to-root suffix), the product of its occurrence counts
in the two trees, weighted by lam**len(p).  Equivalently it is the sum over
all cross-tree suffix pairs of W[lcp], where W[k] = sum_{j<=k} lam**j.

The fast path places both trees side by side in one forest, builds a
single suffix array over every node-to-root suffix, finds its lcp intervals
with ``lcp_intervals`` (shared with the master index of ``predict``: on
large inputs numpy passes peel the innermost intervals and a stack pass
takes the rest), and sums each interval's weighted count product in numpy
— O(n) after the build.

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


def weight_table(max_len: int, lam: float) -> np.ndarray:
    """W[k] = lam + lam**2 + ... + lam**k for 0 <= k <= max_len.

    A running product of lam behind a leading 1.0, then a running sum
    behind a leading 0.0: both accumulate in order, so every entry is
    rounded exactly as by the loop ``p *= lam; acc += p``.
    """
    w = np.full(max_len + 1, lam, np.float64)
    w[0] = 1.0
    np.multiply.accumulate(w, out=w)
    w[0] = 0.0
    return np.add.accumulate(w, out=w)


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


# Innermost intervals are peeled in numpy only while at least
# _PEEL_MIN_RUNS runs of equal boundary lcp remain: below that a numpy pass
# costs more than the stack steps it saves (peeling on every call made a
# Gram of 100-400-node trees about a quarter slower).  Peeling stops after a pass that
# finds fewer than _PEEL_MIN_SHARE of the runs as peaks, so a shape with
# few peaks pays one pass at most.
_PEEL_MIN_RUNS = 1024
_PEEL_MIN_SHARE = 0.25


def _peel(pos: np.ndarray, after: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Remove innermost intervals in numpy passes, the "rake" of parallel
    tree contraction (Miller & Reif 1985).

    Runs of equal boundary lcp are given as ``lcp_intervals`` reads them:
    each run but the last ends at rank ``pos[j]`` and the run after it has
    the value ``after[j]``; the first run has the root's value 0.  A run
    higher than both neighbours is an innermost interval: its depth is the
    run value, and its ranks reach from the end of the run before it to
    one past its own end.  Each such peak is lowered to its higher
    neighbour, which removes that leaf of the interval tree and leaves
    every other interval as it was.  Returns the remaining runs in the
    same form and one (depth, lb, rb) triple of arrays per pass.
    """
    start = np.concatenate(([0], pos + 1))
    value = np.concatenate(([0], after))
    peeled = []
    while True:
        runs = start.size
        mid = value[1:-1]
        peak = np.flatnonzero((mid > value[:-2]) & (mid > value[2:])) + 1
        peeled.append((value[peak], start[peak] - 1, start[peak + 1]))
        value[peak] = np.maximum(value[peak - 1], value[peak + 1])
        # A run equal to the one before it joins that one.
        keep = np.concatenate(([True], value[1:] != value[:-1]))
        start, value = start[keep], value[keep]
        if peak.size < _PEEL_MIN_SHARE * runs or start.size < _PEEL_MIN_RUNS:
            return start[1:] - 1, value[1:], peeled


def lcp_intervals(lcp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every lcp interval of positive depth, in the order they close.

    ``lcp[i]`` is the lcp of ranks i and i + 1; the last entry is ignored.
    An interval of depth d is a maximal rank range [lb, rb) whose inner
    boundaries are all >= d, at least one of them equal to d.  Returns int64
    arrays (depth, lb, rb, enclosing), where ``enclosing`` is the depth of
    the smallest interval around it (0 for the root, which is not reported).

    The boundary lcp is read as runs of equal value.  With at least
    ``_PEEL_MIN_RUNS`` runs, ``_peel`` first emits the innermost intervals
    in numpy passes.  Then one stack of open (depth, lb) frames (Abouelhoda,
    Kurtz & Ohlebusch 2004) takes the runs that remain, one step per run
    end: a drop pops every deeper frame and closes it at that rank; a rise
    pushes a frame starting at the left end of the last frame popped, or at
    the rank itself.

    The stack closes intervals by ascending rb and, at one rb, deepest
    first, and no two intervals share both rb and depth; so however the
    intervals were found, one stable sort of the unique packed keys
    rb * (max depth + 1) - depth restores that order, which the kernel's
    sequential float sum depends on.  The stack's intervals and each
    pass's peaks come in rb order already, and a stable ``np.argsort``
    merges such runs quickly.  ``esa._sorted_order`` would need bounds for
    the negative keys and gained little (whole call on the pair-large pairs
    of seeds 1 and 2, medians of 61 alternating calls, 2-CPU Xeon VM: 2.28,
    1.49 -> 2.26, 1.52 ms at sigma=5; 3.86, 2.53 -> 3.69, 2.40 ms on paths).
    """
    # ext[i + 1] is boundary i; the root's depth 0 stands on both sides.
    ext = np.concatenate(([0], lcp[:-1], [0]))
    pos = np.flatnonzero(ext[1:] != ext[:-1])
    after = ext[pos + 1]
    peeled = []
    if pos.size + 1 >= _PEEL_MIN_RUNS:
        pos, after, peeled = _peel(pos, after)
    depths, lbs, rbs = [], [], []
    stack_depth = [0]
    stack_lb = [0]
    top = 0
    for i, h in zip(pos.tolist(), after.tolist()):
        lb = i
        while h < top:
            lb = stack_lb.pop()
            depths.append(top)
            lbs.append(lb)
            rbs.append(i)
            stack_depth.pop()
            top = stack_depth[-1]
        if h > top:
            stack_depth.append(h)
            stack_lb.append(lb)
            top = h
    k = len(depths)
    depth = np.fromiter(depths, np.int64, k)
    lb = np.fromiter(lbs, np.int64, k)
    rb = np.fromiter(rbs, np.int64, k) + 1
    if peeled:
        depth, lb, rb = (np.concatenate(parts) for parts in zip((depth, lb, rb), *peeled))
        order = np.argsort(rb * (int(depth.max()) + 1) - depth, kind="stable")
        depth, lb, rb = depth[order], lb[order], rb[order]
    # The enclosing interval's depth is the larger boundary just outside.
    return depth, lb, rb, np.maximum(ext[lb], ext[rb])


def subpath_kernel(t1: Tree, t2: Tree, params: KernelParams, *, builder: str = "linear") -> float:
    """K(t1, t2) via the merged suffix array, O(|t1| + |t2|) post-build.

    Each lcp interval of depth d inside one of depth g adds
    (W[d] - W[g]) * c1 * c2, where c1 and c2 count its suffixes from each
    tree: every cross pair in it shares a prefix of length d, of which g
    was already charged to the enclosing interval.  Identical suffixes of
    both trees tie at their full length and share one interval; a suffix
    alone in its leaf interval pairs with nothing there.
    """
    merged = merge_trees(t1, t2)
    arr = merged_esa(merged, builder=builder)
    depth, lb, rb, enclosing = lcp_intervals(arr.lcp)
    if depth.size == 0:
        return 0.0
    w = weight_table(int(merged.depth.max()) + 1, params.lam)
    ones = np.concatenate(([0], np.cumsum(merged.source[arr.sa] == 0)))
    c1 = ones[rb] - ones[lb]
    c2 = rb - lb - c1
    # A sequential sum in closing order: the float order of a stack sweep,
    # where np.sum would add pairwise.
    return float(np.cumsum((w[depth] - w[enclosing]) * c1 * c2)[-1])


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


def _kernels(trees: list[Tree], params: KernelParams, rows: np.ndarray,
             cols: np.ndarray) -> list[float]:
    """K(trees[i], trees[j]) for each (i, j) in zip(rows, cols), in order."""
    pairs = zip(rows.tolist(), cols.tolist())
    return [subpath_kernel(trees[i], trees[j], params) for i, j in pairs]


def gram_matrix(
    trees: list[Tree],
    params: KernelParams,
    *,
    normalize: bool = False,
    jobs: int = 1,
) -> list[list[float]]:
    """Symmetric kernel matrix; optionally cosine-normalized.

    The lower-triangle entries are computed row by row.  ``jobs > 1``
    splits them into one contiguous share per worker process, at most one
    per CPU and per entry; ``jobs < 1`` raises.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    n = len(trees)
    rows, cols = np.tril_indices(n)
    workers = min(jobs, os.cpu_count() or 1, rows.size)
    if workers > 1:
        cut = [k * rows.size // workers for k in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = [pool.submit(_kernels, trees, params, rows[a:b], cols[a:b])
                      for a, b in zip(cut, cut[1:])]
            values = [v for share in shares for v in share.result()]
    else:
        values = _kernels(trees, params, rows, cols)
    g = np.zeros((n, n))
    g[rows, cols] = values
    g[cols, rows] = values
    if normalize:
        diag = g.diagonal()
        d = np.sqrt(np.outer(diag, diag))
        g = np.divide(g, d, out=np.zeros_like(g), where=d > 0)
    return g.tolist()
