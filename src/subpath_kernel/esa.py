"""Enhanced suffix arrays for labeled trees and forests.

The suffix of a node is the label sequence read upward from the node to the
root of its component; its length is depth + 1.  Suffixes are ordered
lexicographically with end-of-suffix sorting before every label, and nodes
with identical suffix strings are tie-broken by ascending node id.  The lcp
array entry i is the longest common prefix of the suffixes at ranks i and
i+1 (full suffix length between tied neighbours); the last entry is -1.

Two interchangeable builders produce byte-identical output:

* ``build_esa_reference``: most-significant-first, character-at-a-time
  partitioning.  Simple, stack-safe, O(n + total distinguishing prefix).
  It is the oracle the fast builder is tested against.
* ``build_esa_linear``: prefix doubling (Manber & Myers) in numpy.  Round k
  ranks every node by the pair (rank of its first 2^k labels, rank of the
  first 2^k labels of its 2^k-th ancestor); walking past a root reads a
  sentinel of rank 0, which sorts below every label.  Rounds stop once all
  ranks are distinct or every 2^k-th ancestor is the sentinel.  The lcp of
  each rank-adjacent pair is then read off the stored rank levels by one
  descending jump pass, capped at the shorter suffix length.  A tree of
  height h needs at most ceil(log2(h + 1)) rounds of O(n) numpy work plus
  one sort each, so the worst case (a single-label path) is O(n log h),
  not the O(n) the paper's construction guarantees; random trees stop
  after about 5 rounds.  The name is kept for callers that select it as
  ``"linear"``.

``select_builder`` maps the ``builder=`` names to these functions.  Both
builders accept any object with ``labels``, ``parent`` and ``depth``
sequences, including multi-root forests (parent -1 marks each root).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TreeSuffixArray:
    """sa: rank -> node; rsa: node -> rank; lcp as documented above."""

    sa: list[int]
    lcp: list[int]
    rsa: list[int]


def suffix(tree, v: int) -> list[int]:
    """Labels from v up to its component root."""
    out = []
    parent = tree.parent
    labels = tree.labels
    while v != -1:
        out.append(labels[v])
        v = parent[v]
    return out


def naive_lcp(tree, u: int, v: int) -> int:
    """Longest common prefix of two suffixes by direct label comparison."""
    labels = tree.labels
    parent = tree.parent
    k = 0
    while u != -1 and v != -1 and labels[u] == labels[v]:
        k += 1
        u = parent[u]
        v = parent[v]
    return k


def _finish(sa, lcp: list[int]) -> TreeSuffixArray:
    order = np.asarray(sa, np.int64)
    rsa = np.empty_like(order)
    rsa[order] = np.arange(order.size)
    return TreeSuffixArray(sa=order.tolist(), lcp=lcp, rsa=rsa.tolist())


# ---------------------------------------------------------------------------
# reference builder


def _reference_order(labels, parent) -> tuple[list[int], list[int]]:
    """Suffix order and lcp by stable most-significant-first partitioning.

    A work item is a group of (node, ancestor-at-offset) pairs sharing a
    prefix of length k.  Splitting a group by the label at offset k makes
    the boundary lcp between adjacent parts exactly k; suffixes that end at
    offset k come first and are mutually tied at full length k.  Stability
    of the grouping yields the ascending node id tie-break for free.
    """
    n = len(labels)
    sa: list[int] = []
    lcp: list[int] = []
    if n == 0:
        return sa, lcp
    GRP, BOUND = 0, 1
    stack: list[tuple[int, int, object]] = [(GRP, 0, [(v, v) for v in range(n)])]
    while stack:
        tag, k, items = stack.pop()
        if tag == BOUND:
            lcp.append(k)
            continue
        if len(items) == 1:
            sa.append(items[0][0])
            continue
        ended: list[int] = []
        groups: dict[int, list[tuple[int, int]]] = {}
        for v, a in items:
            if a < 0:
                ended.append(v)
            else:
                groups.setdefault(labels[a], []).append((v, parent[a]))
        first = True
        for j, v in enumerate(ended):
            if j:
                lcp.append(k)
            sa.append(v)
            first = False
        pending: list[tuple[int, int, object]] = []
        for lab in sorted(groups):
            if not first:
                pending.append((BOUND, k, None))
            pending.append((GRP, k + 1, groups[lab]))
            first = False
        stack.extend(reversed(pending))
    lcp.append(-1)
    return sa, lcp


def build_esa_reference(tree) -> TreeSuffixArray:
    sa, lcp = _reference_order(list(tree.labels), list(tree.parent))
    return _finish(sa, lcp)


# ---------------------------------------------------------------------------
# prefix-doubling builder


def build_esa_linear(tree, stats: dict | None = None) -> TreeSuffixArray:
    """Prefix-doubling builder; output equals ``build_esa_reference``.

    Pass ``stats`` to receive ``{"recursion_depth": rounds}``: the number of
    doubling rounds, at most ceil(log2(height + 1)).
    """
    lab = np.asarray(tree.labels, np.int64)
    n = int(lab.size)
    if n == 0:
        return TreeSuffixArray(sa=[], lcp=[], rsa=[])
    par = np.asarray(tree.parent, np.int64)
    dep = np.asarray(tree.depth, np.int64)
    # Index n is the sentinel: its own ancestor, rank 0 at every level.
    anc = np.append(np.where(par < 0, n, par), n)
    rank = np.append(np.unique(lab, return_inverse=True)[1] + 1, 0)
    ranks, ancs = [rank], [anc]
    while int(rank.max()) < n and bool((anc[:n] < n).any()):
        key = rank[:n] * (n + 1) + rank[anc[:n]]
        order = np.argsort(key)
        sk = key[order]
        rank = np.zeros(n + 1, np.int64)
        rank[order] = np.cumsum(np.concatenate(([True], sk[1:] != sk[:-1])))
        anc = anc[anc]
        ranks.append(rank)
        ancs.append(anc)
    if stats is not None:
        stats["recursion_depth"] = len(ranks) - 1

    sa = np.argsort(rank[:n], kind="stable")
    u, v = sa[:-1], sa[1:]
    cap = np.minimum(dep[u], dep[v]) + 1
    h = np.zeros(n - 1, np.int64)
    for k in range(len(ranks) - 1, -1, -1):
        eq = ranks[k][u] == ranks[k][v]
        h += eq << k
        u = np.where(eq, ancs[k][u], u)
        v = np.where(eq, ancs[k][v], v)
    lcp = np.append(np.minimum(h, cap), -1)
    return _finish(sa, lcp.tolist())


def select_builder(name: str):
    """The builder function for a ``builder=`` name; unknown names raise.

    Looked up in the module globals on each call, so a wrapper installed on
    ``build_esa_linear`` after import is the one returned.
    """
    if name == "linear":
        return build_esa_linear
    if name == "reference":
        return build_esa_reference
    raise ValueError(f"unknown suffix-array builder {name!r}; expected 'linear' or 'reference'")
