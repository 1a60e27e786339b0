"""Slow reference implementations that the tests compare the library against.

* ``scan_tree``: a character-at-a-time bracket-text parser, the oracle for
  ``trees._parse_texts`` (trees, label interning, and the message and byte
  offset of the first error).
* ``suffix`` and ``naive_lcp``: node-to-root label strings and their
  longest common prefix by direct comparison.
* ``children`` and ``leaf_count``: child lists rebuilt from the parent
  array; the library reads structure off the preorder arrays instead.
* ``RmqIndex``: range minima from a doubling sparse table.  The lcp of the
  suffixes at ranks x < y is the minimum of lcp[x..y-1]; the library finds
  lcp intervals without range minima instead (``kernel.lcp_intervals``:
  numpy passes peel the innermost intervals, a stack pass takes the rest).
"""

from __future__ import annotations

import numpy as np

from subpath_kernel.trees import _RESERVED, LabelTable, Tree, TreeParseError


def scan_tree(text: str, table: LabelTable) -> Tree:
    """Parse one tree a character at a time; raises on the first error.

    Labels are interned as they are read, so a text that fails part way
    leaves the labels before the error in ``table``.  Byte offsets count
    UTF-8 with lone surrogates passed through (three bytes each).
    """
    labels: list[int] = []
    parent: list[int] = []
    stack: list[int] = []
    pos = 0
    end = len(text)

    def byte_at(p: int) -> int:
        return len(text[:p].encode("utf-8", "surrogatepass"))

    def skip_ws(p: int) -> int:
        while p < end and text[p].isspace():
            p += 1
        return p

    expect_label = True
    can_open = False
    last = -1
    while True:
        pos = skip_ws(pos)
        if pos == end:
            break
        c = text[pos]
        if expect_label:
            if c in _RESERVED:
                raise TreeParseError("expected a label", byte_at(pos))
            start = pos
            while pos < end and text[pos] not in _RESERVED and not text[pos].isspace():
                pos += 1
            last = len(labels)
            labels.append(table.intern(text[start:pos]))
            parent.append(stack[-1] if stack else -1)
            expect_label = False
            can_open = True
        elif c == "(":
            if not can_open:
                raise TreeParseError("'(' must follow a label", byte_at(pos))
            stack.append(last)
            pos += 1
            expect_label = True
        elif c == ",":
            if not stack:
                raise TreeParseError("comma outside brackets", byte_at(pos))
            pos += 1
            expect_label = True
        elif c == ")":
            if not stack:
                raise TreeParseError("unmatched ')'", byte_at(pos))
            stack.pop()
            pos += 1
            can_open = False
        else:
            raise TreeParseError("trailing garbage after tree", byte_at(pos))
    if not labels:
        raise TreeParseError("empty input", byte_at(pos))
    if expect_label:
        raise TreeParseError("missing subtree", byte_at(pos))
    if stack:
        raise TreeParseError("unbalanced brackets", byte_at(pos))
    return Tree.from_parents(labels, parent)


def children(tree) -> list[list[int]]:
    """Each node's children in ascending id order."""
    out: list[list[int]] = [[] for _ in range(tree.n)]
    for v, p in enumerate(tree.parent.tolist()):
        if p >= 0:
            out[p].append(v)
    return out


def leaf_count(tree) -> int:
    return sum(1 for kids in children(tree) if not kids)


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


def _log_table(n: int) -> np.ndarray:
    """logt[k] = floor(log2 k) for 1 <= k <= n (logt[0] unused)."""
    logt = np.zeros(n + 1, np.int64)
    j = 1
    while (1 << j) <= n:
        logt[(1 << j):] = j
        j += 1
    return logt


class RmqIndex:
    """Sparse table: level j holds the minimum of each window of 2**j values.

    Build is O(n log n) time and space; ``query`` is O(1).
    """

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
        self._levels = levels
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
        row = self._levels[j]
        return int(min(row[x], row[y - (1 << j) + 1]))
