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
  ranks are distinct, once every 2^k-th ancestor is the sentinel, or once
  a round refines nothing.  A round's partition refines the previous one,
  so a round with no more distinct ranks split no class; and a partition
  one doubling leaves unchanged stays unchanged, because nodes of one
  class then have ancestors of one class at every later step.  That round
  is dropped.  After a round ranked by a sort, the next round's keys are
  first read in that sorted order, where each class is one run: they
  change at the distinct - 1 class boundaries and elsewhere only where a
  class splits, so exactly distinct - 1 changes stop the rounds before
  that round is ranked.  After any other round the next one is ranked,
  found to refine nothing, and dropped.  At the stop, equal ranks mean
  identical suffixes, ordered by node id; a last sorted round already
  gives that order, else one more sort of the ranks, ties by id, does.
  A rank-adjacent pair with equal final ranks takes the full suffix
  length as its lcp, and the lcp of every other pair is read off the
  stored rank levels by one descending jump pass from the level below
  the top, where such pairs already differ.
  A tree of height h needs at most ceil(log2(h + 1)) rounds of O(n) numpy
  work plus one sort each.  Keys spanning a small multiple of n are
  ranked by counting instead, and keys already in order by one pass; the
  others are sorted by ``_sorted_order``, ties by index.  So the worst
  case (a single-label path, whose every round refines) is O(n log h),
  not the O(n) the paper's construction guarantees; random trees keep 4
  or 5 rounds.  The name is kept for callers that select it as
  ``"linear"``.

``select_builder`` maps the ``builder=`` names to these functions.  Both
builders accept any object with ``labels``, ``parent`` and ``depth``
int64 arrays (a ``Tree`` or a ``MergedTree``), including multi-root
forests (parent -1 marks each root), and return a ``TreeSuffixArray`` of
int64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class TreeSuffixArray:
    """sa: rank -> node; lcp as documented above.

    Both are int64 arrays of length n; ``==`` compares them.
    """

    sa: np.ndarray
    lcp: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeSuffixArray):
            return NotImplemented
        return np.array_equal(self.sa, other.sa) and np.array_equal(self.lcp, other.lcp)


def _finish(sa, lcp) -> TreeSuffixArray:
    return TreeSuffixArray(sa=np.asarray(sa, np.int64), lcp=np.asarray(lcp, np.int64))


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
    sa, lcp = _reference_order(tree.labels.tolist(), tree.parent.tolist())
    return _finish(sa, lcp)


# ---------------------------------------------------------------------------
# prefix-doubling builder

# Node ids, ranks and the sentinel n must fit in int32.
_MAX_NODES = 2**31 - 1


# Keys spanning at most this many times their count are ranked by counting.
_COUNT_SPAN = 4


def _sorted_order(key: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys in ascending order and that order, ties by ascending index.

    ``lo`` and ``hi`` are Python ints bounding the keys.  Each key packs
    with its index, ``(key - lo) << b | index`` with b =
    ``key.size.bit_length()``, into one int64 that ``np.sort`` orders
    without ``np.argsort``'s indirection; ``>> b`` and ``& (2**b - 1)``
    unpack it.  Spans too wide for 63 - b bits (int64-extreme labels, long
    packed label spellings, doubling rounds past about 2^21 nodes) take a
    stable ``np.argsort`` of the keys themselves, with the same result:
    ``key - lo`` could overflow int64.
    """
    b = key.size.bit_length()
    if (hi - lo) >> (63 - b):
        order = np.argsort(key, kind="stable")
        return key.take(order), order
    packed = np.subtract(key, lo, dtype=np.int64)
    packed <<= b
    packed |= np.arange(key.size)
    packed.sort()
    # In place: a new array for the keys cost sigma=5 pair builds ~775 page faults.
    order = packed & ((1 << b) - 1)
    packed >>= b
    if lo:
        packed += lo
    return packed, order


def _dense_ranks(key: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, int, np.ndarray | None]:
    """Dense 1-based int32 ranks of ``key``, then the sentinel's rank 0.

    ``lo`` and ``hi`` are Python ints bounding the keys.  A small span is
    ranked by marking the present keys and counting them, and keys that
    already come in order by counting their changes.  Other keys are
    sorted by ``_sorted_order``.  Returns the ``key.size + 1`` ranks, the
    number of distinct keys, and the sorted order (ties by ascending
    index), or None when the keys were counted or already in order.
    """
    # ``rank`` is allocated after the temporaries, whose freed memory it
    # can reuse; allocated first, it made the later rounds slower.
    order = None
    if hi - lo <= _COUNT_SPAN * key.size:
        if lo:
            key = key - lo
        present = np.zeros(hi - lo + 1, bool)
        present[key] = True
        dense = np.cumsum(present, dtype=np.int32)
        rank = np.empty(key.size + 1, np.int32)
        rank[:-1] = dense.take(key)
    else:
        # ``at`` lists the indices in sorted order.
        if (key[1:] >= key[:-1]).all():
            at, sk = slice(key.size), key
        else:
            sk, order = _sorted_order(key, lo, hi)
            at = order
        dense = np.cumsum(np.concatenate(([True], sk[1:] != sk[:-1])), dtype=np.int32)
        rank = np.empty(key.size + 1, np.int32)
        rank[at] = dense
    rank[-1] = 0
    return rank, int(dense[-1]), order


def build_esa_linear(tree, stats: dict | None = None) -> TreeSuffixArray:
    """Prefix-doubling builder; output equals ``build_esa_reference``.

    The module docstring describes the rounds, their stop, the final order
    and the lcp pass.  Pass ``stats`` to receive ``{"recursion_depth": rounds}``: the number of
    rank levels kept after the label ranks, at most ceil(log2(height + 1));
    a round found to refine nothing is dropped and not counted.
    """
    lab = tree.labels
    n = int(lab.size)
    if n == 0:
        return _finish([], [])
    if n >= _MAX_NODES:
        raise ValueError(f"build_esa_linear takes fewer than {_MAX_NODES} nodes, got {n}")
    par = tree.parent
    dep = tree.depth
    # Index n is the sentinel: its own ancestor, rank 0 at every level.
    # Ranks and ancestors are at most n, so they are held as int32, which
    # halves the bytes every gather moves; sort keys are int64.
    anc = np.empty(n + 1, np.int32)
    anc[:n] = par
    anc[:n][par < 0] = n
    anc[n] = n
    rank, distinct, order = _dense_ranks(lab, int(lab.min()), int(lab.max()))
    ranks, ancs = [rank], [anc]
    # Rounds stop once the ranks are distinct, once no node has a
    # step-th ancestor (step exceeds the greatest depth), or once a round
    # refines nothing.
    step = 1
    max_depth = int(dep.max())
    while distinct < n and step <= max_depth:
        # Ranks are 1..distinct and the sentinel's is 0, so the pair
        # (rank, ancestor's rank) packs into keys below (distinct + 1)^2.
        key = np.multiply(rank[:n], distinct + 1, dtype=np.int64)
        key += rank.take(anc[:n])
        if order is not None:
            # The last ranking sorted the keys: read in its order, each
            # class is a run, so the keys change at the distinct - 1 class
            # boundaries and elsewhere only where a class splits.  No split
            # means the round refines nothing, so it is not ranked.
            key_in_order = key.take(order)
            if np.count_nonzero(key_in_order[1:] != key_in_order[:-1]) == distinct - 1:
                break
        rank, refined, order = _dense_ranks(key, 0, (distinct + 1) ** 2 - 1)
        if refined == distinct:
            # Same classes in the same order as the last kept level, so
            # ``rank`` still sorts the suffixes as that level would.
            break
        distinct = refined
        anc = anc.take(anc)
        step *= 2
        ranks.append(rank)
        ancs.append(anc)
    if stats is not None:
        stats["recursion_depth"] = len(ranks) - 1

    # The final ranks tie only for identical suffixes, which order by id:
    # their sorted order, ties by index, is the suffix order, and the sort
    # that ranked them, if one did, gave it already.
    if order is None:
        final, sa = _sorted_order(rank[:n], 0, distinct)
    else:
        sa, final = order, rank.take(order)
    # A tied pair is two nodes with one suffix string: its lcp is the
    # string's length.  Every pair is written so (one contiguous gather
    # costs less than a masked one), and the descent overwrites the rest.
    lcp = np.empty(n, np.int64)
    lcp[-1] = -1
    lcp[:-1] = dep.take(sa[1:]) + 1
    apart = np.flatnonzero(final[1:] != final[:-1])
    u, v = sa[apart], sa[apart + 1]
    # The other pairs differ at the top level.  Ranks see where a suffix
    # ends (the sentinel's 0 matches no label), so the descent reads their
    # lcp exactly, never past the shorter length.
    h = np.zeros(u.size, np.int64)
    for k in range(len(ranks) - 2, -1, -1):
        eq = ranks[k][u] == ranks[k][v]
        h += eq << k
        u = np.where(eq, ancs[k][u], u)
        v = np.where(eq, ancs[k][v], v)
    lcp[apart] = h
    return _finish(sa, lcp)


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
