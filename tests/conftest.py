"""Shared test helpers: tolerance checks, slow independent oracles, and
structure-shuffling transforms used by invariance tests."""

from __future__ import annotations

import random

from oracles import suffix
from subpath_kernel.trees import Tree


def rel_close(a: float, b: float, tol: float) -> bool:
    """|a - b| within tol relative to the larger magnitude (floor 1)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def naive_match_lengths(sv_trees: list[Tree], t: Tree) -> list[int]:
    """Longest prefix of each suffix of t found among all SV suffixes.

    Suffixes are spelled one character per label, so each SV suffix is
    tested with one ``startswith`` against the longest prefix found so far
    and extended label by label only when it beats it.
    """
    def spell(tree, v):
        return "".join(map(chr, suffix(tree, v)))

    master = [spell(tree, v) for tree in sv_trees for v in range(tree.n)]
    out = []
    for v in range(t.n):
        s = spell(t, v)
        best = 0
        for ms in master:
            while best < len(s) and ms.startswith(s[:best + 1]):
                best += 1
        out.append(best)
    return out


def shuffle_children(tree: Tree, seed: int) -> Tree:
    """Same unordered tree, children visited in a shuffled order.

    Rebuilds preorder ids from a DFS that permutes every child list, so
    node ids and SA tie-breaking change while the unordered structure and
    label multiset stay fixed.
    """
    rng = random.Random(seed)
    order: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        kids = list(tree.children[v])
        rng.shuffle(kids)
        stack.extend(reversed(kids))
    new_id = {old: new for new, old in enumerate(order)}
    labels = [tree.labels[v] for v in order]
    parent = [-1 if tree.parent[v] == -1 else new_id[tree.parent[v]] for v in order]
    return Tree.from_parents(labels, parent)
