"""Kernel-expansion prediction via matching statistics.

A fitted kernel machine scores a tree t as bias + sum_i alpha_i * K(T_i, t)
over support trees T_i.  Instead of evaluating each kernel separately, the
support trees are merged into one master forest whose suffix-array interval
tree is annotated once:

* ``wv``: for each lcp interval, the sum of alpha over the suffixes inside
  (each suffix carries the alpha of its originating support tree);
* ``val``: the telescoped contribution of everything that branches off
  strictly above the interval, so that a node of t whose suffix matches the
  master to length q with locus interval X contributes exactly
  ``val[X] + wv[X] * W[q]``;
* suffix links, so consecutive nodes of t reuse each other's matches: a
  node's suffix equals its child's suffix minus the first label, hence its
  match length is at least the child's minus one.  Processing nodes in
  reverse id order (children before parents) turns scoring into a single
  sweep whose work is governed by the matching-statistics bound rather than
  by sum of suffix lengths.  The sweep keeps the current node's root path
  in an array, so each input label it reads is one list lookup; a master
  label inside a long interval edge is read off a cursor node that moves
  one parent step per comparison.

The intervals come from ``kernel.lcp_intervals``, the interval pass the
pair kernel uses too (numpy peels of the innermost intervals, then a stack
pass); a level-ancestor batch finds each interval's edge-start node once,
at build time.

``predict_direct`` recomputes the same score as an explicit sum of pairwise
kernels and serves as the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .kernel import (
    KernelParams,
    MergedTree,
    lcp_intervals,
    merge_forest,
    merged_esa,
    subpath_kernel,
    weight_table,
)
from .level_ancestor import LevelAncestorIndex
# parse_tree is not called here, but perfbench/spans.py wraps
# ``predict.parse_tree`` by name.
from .trees import LabelTable, Tree, _content_lines, _parse_texts, _utf8_error_line, parse_tree, serialize_tree  # noqa: F401


@dataclass(frozen=True)
class SupportSet:
    """Support trees with their expansion coefficients and offset."""

    trees: list[Tree]
    alphas: list[float]
    bias: float
    params: KernelParams

    def __post_init__(self) -> None:
        if len(self.trees) != len(self.alphas):
            raise ValueError("need one coefficient per support tree")
        if not all(map(math.isfinite, [self.bias, *self.alphas])):
            raise ValueError("bias and alphas must be finite numbers")


@dataclass
class MasterIndex:
    """Annotated lcp-interval tree over the merged support forest.

    Interval id 0 is the root (empty string, full rank range), and ids are
    in (depth, lb) order, so a parent's id is below its children's.
    Parallel arrays index intervals.
    ``iv_children`` maps the branching label to the child interval;
    ``iv_slink`` is the interval of the same string minus its first label;
    ``iv_edge`` is the master node holding the first label of a non-root
    interval's edge, on the suffix at the interval's first rank (-1 for
    the root).
    """

    bias: float
    weights: list[float]
    merged: MergedTree
    iv_depth: list[int]
    iv_parent: list[int]
    iv_children: list[dict[int, int]]
    iv_wv: list[float]
    iv_val: list[float]
    iv_slink: list[int]
    iv_edge: list[int]

    @property
    def n_intervals(self) -> int:
        return len(self.iv_depth)


@dataclass
class MatchStats:
    """Matching statistics of one tree against a master index.

    ``lengths[v]``: longest prefix of node v's root-ward suffix occurring
    root-ward in the master; ``locus[v]``: its locus interval.  Counters
    tally the elementary steps of the sweep: fresh label ``comparisons``,
    branching ``descents``, suffix-link jumps, and ``skips`` (interval
    steps that re-cross already-matched labels by length arithmetic after
    a suffix-link jump).  ``work`` is their sum.
    """

    lengths: list[int]
    locus: list[int]
    comparisons: int = 0
    descents: int = 0
    slinks: int = 0
    skips: int = 0

    @property
    def work(self) -> int:
        return self.comparisons + self.descents + self.slinks + self.skips


def _intervals(lcp, hs):
    """Every lcp interval as parallel (depth, lb, rb, enclosing) arrays.

    ``lcp`` holds the boundary lcp of each rank with the next (last entry
    -1), ``hs`` the full suffix length of each rank.  The intervals are the
    root, those of ``lcp_intervals``, and a singleton for each rank whose
    full suffix ties neither neighbour.  rb is exclusive.  ``enclosing`` is
    the depth of the smallest interval around each one (0 for the root):
    for a singleton, the larger boundary lcp beside its rank.
    """
    n = hs.size
    depth, lb, rb, enclosing = lcp_intervals(lcp)
    left = np.concatenate(([-1], lcp[:-1]))
    single = np.flatnonzero((hs != left) & (hs != lcp))
    return (np.concatenate(([0], depth, hs[single])),
            np.concatenate(([0], lb, single)),
            np.concatenate(([n], rb, single + 1)),
            np.concatenate(([0], enclosing, np.maximum(np.maximum(left, lcp)[single], 0))))


def build_master_index(sv: SupportSet) -> MasterIndex:
    merged = merge_forest(sv.trees)
    arr = merged_esa(merged)
    sa = arr.sa
    n = sa.size
    slen = merged.depth + 1
    depth, lb, rb, enclosing = _intervals(arr.lcp, slen[sa])
    # Intervals of one depth are disjoint, so (depth, lb) is a unique key.
    # Sorted by it, parents come first, and the interval at depth d holding
    # rank r is the last whose key is at most (d, r).
    keys = depth * (n + 1) + lb
    order = np.argsort(keys)
    depth, lb, rb, enclosing, keys = (a[order] for a in (depth, lb, rb, enclosing, keys))
    m = depth.size

    def holding(d, r):
        return np.searchsorted(keys, d * (n + 1) + r, side="right") - 1

    # Non-root intervals: the parent is the interval at the enclosing depth
    # holding lb.  The string minus its first label is a prefix of the
    # suffix of the parent node of the interval's first suffix, so its
    # rank finds the suffix link.  Only a depth-1 interval can start with
    # a root: its parent -1 reads slot n, which holds rank 0, and at depth
    # 0 any rank finds the root interval, which is that interval's link.
    first = sa[lb[1:]]
    parent = np.append(-1, holding(enclosing[1:], lb[1:]))
    rank = np.zeros(n + 1, np.int64)
    rank[sa] = np.arange(n)
    slink = np.append(0, holding(depth[1:] - 1, rank[merged.parent[first]]))

    la = LevelAncestorIndex(merged.parent, merged.depth)
    edge = la.query_batch(first, enclosing[1:])
    blabels = merged.labels[edge].tolist()

    # alpha mass per interval: prefix sums over ranks by source tree.
    alpha = np.asarray(sv.alphas, np.float64)[merged.source[sa]]
    pref = np.cumsum(np.concatenate(([0.0], alpha)))
    iv_wv = (pref[rb] - pref[lb]).tolist()
    weights = weight_table(int(slen.max(initial=1)), sv.params.lam).tolist()

    iv_depth = depth.tolist()
    iv_parent = parent.tolist()
    # Only intervals with children get a dict of their own.  The leaves all
    # share ``no_children``, which is only ever read: every write below goes
    # to a parent interval's dict.
    has_children = np.zeros(m, bool)
    has_children[parent[1:]] = True
    no_children: dict[int, int] = {}
    iv_children = [{} if k else no_children for k in has_children.tolist()]
    iv_val = [0.0] * m
    for c in range(1, m):
        p = iv_parent[c]
        iv_children[p][blabels[c - 1]] = c
        iv_val[c] = iv_val[p] + (iv_wv[p] - iv_wv[c]) * weights[iv_depth[p]]

    return MasterIndex(
        bias=sv.bias,
        weights=weights,
        merged=merged,
        iv_depth=iv_depth,
        iv_parent=iv_parent,
        iv_children=iv_children,
        iv_wv=iv_wv,
        iv_val=iv_val,
        iv_slink=slink.tolist(),
        iv_edge=[-1] + edge.tolist(),
    )


def matching_statistics(idx: MasterIndex, t: Tree) -> MatchStats:
    """Match length and locus for every node of t against the master.

    Nodes are processed children-first (descending preorder id).  A parent
    resumes from its best child's match instead of the root: the child
    matched l labels, so the parent — whose suffix is the child's minus the
    first label — matches at least l - 1.  The resume point is found by
    taking the suffix link of the deepest fully-matched interval on the
    child's path, then skip/counting down through already-matched labels
    (child lookups without re-comparing); only the tail beyond l - 1 needs
    fresh comparisons.  Skipping down from the linked ancestor, rather than
    climbing up from the link of the (possibly much deeper) locus itself,
    is what keeps the walk cost telescoping along best-child chains.

    The input labels of node v are read off its root path: ``path[d]`` is
    v's ancestor at depth d and ``plab[d]`` its label, so the label at
    distance q from v is ``plab[depth[v] - q]``.  In descending preorder a
    subtree is processed as one contiguous run ending at its root, so when
    v is reached only the entries from depth[v] up to the first one that
    already holds v's ancestor are stale; each node is written once, O(n)
    in all.

    The master label at distance q inside interval x is read off a cursor
    ``cur``: a master node at distance q on some suffix of interval ``cx``.
    A comparison that matches moves it to its parent.  It goes stale only
    when a descent changes x, so a comparison that finds cx != x is the
    first one after a descent, at q one past the edge's first label, and
    takes the parent of ``iv_edge[x]``.  A resume reuses the best child's
    cursor unchanged: it is at distance l on the suffix of some master node
    w, hence at distance l - 1 on the suffix of w's parent, which lies in
    the resumed interval.  A cursor passed on this way can be stale only
    if the child's match ended where no comparison could follow: its labels
    ran out, or its locus has depth l (no child interval matched there).
    Then the parent's labels run out at l - 1 as well, or its resumed
    interval, the locus of the child's string minus its first label, has
    depth l - 1 = q; either way the parent descends or stops before it
    compares, and a descent marks the cursor stale.
    """
    n = t.n
    lengths = [0] * n
    locus = [0] * n
    # best[v]: v's child with the longest match so far, and its length.
    # Children finish in descending id order, so taking a child on ties
    # leaves the lowest id among the longest.
    best = [-1] * n
    best_len = [-1] * n
    best_cur = [-1] * n
    comparisons = descents = slinks = skips = 0
    iv_depth = idx.iv_depth
    iv_parent = idx.iv_parent
    iv_children = idx.iv_children
    iv_slink = idx.iv_slink
    iv_edge = idx.iv_edge
    mlab = idx.merged.labels
    mparent = idx.merged.parent
    tlab = t.labels.tolist()
    parent_t = t.parent.tolist()
    depth_t = t.depth.tolist()
    # The root is every node's depth-0 ancestor, so no walk passes it.
    h = t.height
    path = [0] + [-1] * (h - 1)
    plab = [tlab[0]] * h
    cur = -1

    for v in range(n - 1, -1, -1):
        dv = depth_t[v]
        u, d = v, dv
        while path[d] != u:
            path[d] = u
            plab[d] = tlab[u]
            u = parent_t[u]
            d -= 1
        q = 0
        x = 0
        cx = -1
        if best[v] >= 0:
            q0 = best_len[v] - 1
            if q0 > 0:
                slinks += 1
                x = iv_slink[iv_parent[locus[best[v]]]]
                while iv_depth[x] < q0:
                    skips += 1
                    x = iv_children[x][plab[dv - iv_depth[x]]]
                q = q0
                cur = best_cur[v]
                cx = x
        while q <= dv:
            c = plab[dv - q]
            if q < iv_depth[x]:
                comparisons += 1
                if cx != x:
                    cur = mparent[iv_edge[x]]
                    cx = x
                if mlab[cur] != c:
                    break
                cur = mparent[cur]
                q += 1
            else:
                descents += 1
                nxt = iv_children[x].get(c)
                if nxt is None:
                    break
                x = nxt
                q += 1
        lengths[v] = q
        locus[v] = x
        p = parent_t[v]
        if p >= 0 and q >= best_len[p]:
            best[p] = v
            best_len[p] = q
            best_cur[p] = cur
    return MatchStats(lengths=lengths, locus=locus, comparisons=comparisons,
                      descents=descents, slinks=slinks, skips=skips)


def predict(idx: MasterIndex, t: Tree) -> float:
    """Score bias + sum_i alpha_i K(T_i, t) in one matching sweep."""
    stats = matching_statistics(idx, t)
    w = idx.weights
    val = idx.iv_val
    wv = idx.iv_wv
    total = idx.bias
    for x, q in zip(stats.locus, stats.lengths):
        total += val[x] + wv[x] * w[q]
    return total


def predict_direct(sv: SupportSet, t: Tree) -> float:
    """Same score as an explicit sum of pairwise kernels (cross-check)."""
    total = sv.bias
    for tree, alpha in zip(sv.trees, sv.alphas):
        total += alpha * subpath_kernel(tree, t, sv.params)
    return total


def save_model(path: str, sv: SupportSet, table: LabelTable | None = None) -> None:
    """Text format: 'lambda x', 'bias b', then one 'alpha<TAB>tree' per SV."""
    lines = [f"lambda {sv.params.lam:.17g}", f"bias {sv.bias:.17g}"]
    for tree, alpha in zip(sv.trees, sv.alphas):
        lines.append(f"{alpha:.17g}\t{serialize_tree(tree, table)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _model_float(lineno: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"model line {lineno}: {what} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"model line {lineno}: {what} must be finite, got {text!r}")
    return value


def load_model(path: str, table: LabelTable | None = None) -> SupportSet:
    """Read a ``save_model`` file; errors name the 1-based file line.

    Lines are read as ``parse_corpus`` reads them (``_content_lines``).
    The tree column is parsed in one pass over all rows, with one label
    table for all of them (a fresh one when ``table`` is None).  A bad file
    raises for its first bad row and leaves ``table`` unchanged.
    """
    if table is None:
        table = LabelTable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = _content_lines(fh)
    except UnicodeDecodeError:
        raise ValueError(f"model line {_utf8_error_line(path)}: not valid UTF-8") from None
    if not rows or not rows[0][1].startswith("lambda "):
        where = f"model line {rows[0][0]}: " if rows else ""
        raise ValueError(f"{where}model file must start with a 'lambda <value>' line")
    k, ln = rows[0]
    lam = _model_float(k, ln.split(None, 1)[1], "lambda")
    try:
        params = KernelParams(lam=lam)
    except ValueError as exc:
        raise ValueError(f"model line {k}: {exc}") from None
    bias = 0.0
    rest = rows[1:]
    if rest and rest[0][1].startswith("bias "):
        k, ln = rest[0]
        bias = _model_float(k, ln.split(None, 1)[1], "bias")
        rest = rest[1:]
    cols = [ln.split("\t", 1) for _, ln in rest]
    # The first row whose columns are bad is named unless an earlier row's
    # tree is: parse the trees before it into a throwaway table, so that a
    # bad file leaves ``table`` unchanged either way.
    alphas: list[float] = []
    row_error = None
    try:
        for (k, _), parts in zip(rest, cols):
            if len(parts) != 2:
                raise ValueError(f"model line {k}: expected '<alpha>\\t<tree>'")
            alphas.append(_model_float(k, parts[0], "alpha"))
    except ValueError as exc:
        row_error = exc
    trees = _parse_texts([parts[1] for parts in cols[:len(alphas)]],
                         table if row_error is None else LabelTable(),
                         lambda i: f"model line {rest[i][0]}")
    if row_error is not None:
        raise row_error
    return SupportSet(trees=trees, alphas=alphas, bias=bias, params=params)
