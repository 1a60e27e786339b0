"""Rooted labeled trees: bracket text format, random generation, structure checks.

Node ids are always 0..n-1 in preorder (root = 0, a parent precedes each of
its descendants, every subtree occupies a contiguous id range).  The id order
is load bearing: suffix-array tie-breaking relies on it, so every
constructor in this module validates it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

_RESERVED = "(),"


class TreeParseError(ValueError):
    """Malformed bracket-grammar text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte {offset})")
        self.message = message
        self.offset = offset

    def located(self, where: str) -> "TreeParseError":
        """The same error with ``where`` (say ``"line 3"``) prefixed."""
        return TreeParseError(f"{where}: {self.message}", self.offset)


class LabelTable:
    """Interns label spellings as dense ids 0..sigma-1.

    Share a single table across every tree taking part in one computation so
    that equal spellings map to equal ids.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []

    def __len__(self) -> int:
        return len(self._names)

    def intern(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            if not name or any(c in _RESERVED or c.isspace() for c in name):
                raise ValueError(f"invalid label spelling: {name!r}")
            lid = len(self._names)
            self._ids[name] = lid
            self._names.append(name)
        return lid

    def name(self, label: int) -> str:
        if not 0 <= label < len(self._names):
            raise KeyError(f"unknown label id {label}")
        return self._names[label]


@dataclass(frozen=True)
class Tree:
    """Rooted labeled tree with preorder node ids.

    ``parent[root] == -1``; ``children`` lists are in ascending id order,
    which is also the order the serializer emits them in.  Instances are
    treated as immutable after construction.
    """

    labels: list[int]
    parent: list[int]
    children: list[list[int]]
    depth: list[int]
    root: int = 0

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def leaf_count(self) -> int:
        return sum(1 for ch in self.children if not ch)

    @property
    def height(self) -> int:
        """Number of nodes on the longest root-to-leaf path."""
        return max(self.depth) + 1

    @staticmethod
    def from_parents(labels: Sequence[int], parent: Sequence[int]) -> "Tree":
        """Build and validate a tree from a preorder parent array."""
        n = len(labels)
        if n == 0:
            raise ValueError("a tree needs at least one node")
        if len(parent) != n:
            raise ValueError("labels and parent must have equal length")
        if parent[0] != -1:
            raise ValueError("node 0 must be the root (parent -1)")
        children: list[list[int]] = [[] for _ in range(n)]
        depth = [0] * n
        for v in range(1, n):
            p = parent[v]
            if not 0 <= p < v:
                raise ValueError(f"node {v}: parent {p} is not an earlier node")
            children[p].append(v)
            depth[v] = depth[p] + 1
        _check_preorder(children, n)
        return Tree(list(labels), list(parent), children, depth)


def _check_preorder(children: list[list[int]], n: int) -> None:
    """Verify that a DFS in stored child order visits ids 0,1,2,..."""
    visit = 0
    stack = [0]
    while stack:
        v = stack.pop()
        if v != visit:
            raise ValueError("node ids are not in preorder")
        visit += 1
        stack.extend(reversed(children[v]))
    if visit != n:
        raise ValueError("parent array is not connected")


def parse_tree(text: str, table: LabelTable | None = None) -> Tree:
    """Parse one tree in the grammar ``tree := label ['(' tree (',' tree)* ')']``.

    Labels are non-empty runs of characters other than brackets, commas and
    whitespace.  Nodes are numbered in preorder.  Pass ``table`` to keep
    label ids consistent across multiple trees; a throwaway table is used
    otherwise.
    """
    if table is None:
        table = LabelTable()
    labels: list[int] = []
    parent: list[int] = []
    stack: list[int] = []
    pos = 0
    end = len(text)

    def byte_at(p: int) -> int:
        return len(text[:p].encode("utf-8"))

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


def serialize_tree(tree: Tree, table: LabelTable | None = None) -> str:
    """Bracket text for a tree, children in stored order; inverse of parse_tree.

    Without a table, labels are spelled as their decimal ids.
    """
    spell = table.name if table is not None else str
    parts: list[str] = []
    stack: list[tuple[int, int]] = [(tree.root, 0)]
    while stack:
        v, i = stack.pop()
        ch = tree.children[v]
        if i == 0:
            parts.append(spell(tree.labels[v]))
            if ch:
                parts.append("(")
                stack.append((v, 1))
                stack.append((ch[0], 0))
        elif i < len(ch):
            parts.append(",")
            stack.append((v, i + 1))
            stack.append((ch[i], 0))
        else:
            parts.append(")")
    return "".join(parts)


def parse_corpus(lines: Iterable[str], table: LabelTable) -> list[Tree]:
    """One tree per non-blank line; lines starting with '#' are comments.

    Parse errors are re-raised with the 1-based line number prefixed.
    """
    trees: list[Tree] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            trees.append(parse_tree(stripped, table))
        except TreeParseError as exc:
            raise exc.located(f"line {lineno}") from None
    return trees


def random_tree(n: int, sigma: int, seed: int) -> Tree:
    """Random recursive tree: node i attaches to a uniform earlier node.

    The attachment shape is renumbered to preorder ids; labels are uniform
    over ``range(sigma)``.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    rng = random.Random(seed)
    raw_children: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        raw_children[rng.randrange(i)].append(i)
    newid = [0] * n
    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        newid[v] = len(order)
        order.append(v)
        stack.extend(reversed(raw_children[v]))
    parent = [0] * n
    parent[0] = -1
    for old in range(n):
        for c in raw_children[old]:
            parent[newid[c]] = newid[old]
    labels = [rng.randrange(sigma) for _ in range(n)]
    return Tree.from_parents(labels, parent)


def path_tree(n: int, labels: Sequence[int] | int = 0) -> Tree:
    """Chain of n nodes; ``labels`` may be a constant or one value per node."""
    labs = [labels] * n if isinstance(labels, int) else list(labels)
    return Tree.from_parents(labs, [-1] + list(range(n - 1)))


def star_tree(n: int, labels: Sequence[int] | int = 0) -> Tree:
    """Root with n-1 leaf children."""
    labs = [labels] * n if isinstance(labels, int) else list(labels)
    return Tree.from_parents(labs, [-1] + [0] * (n - 1))
