"""Rooted labeled trees: bracket text format, random generation, structure checks.

One numpy pass (``_parse_texts``) parses bracket text for ``parse_tree``,
``parse_corpus`` and ``predict.load_model``; it also finds the first
error of a malformed batch.

Node ids are always 0..n-1 in preorder (root = 0, a parent precedes each of
its descendants, every subtree occupies a contiguous id range).  The id order
is load bearing: suffix-array tie-breaking relies on it, so
``Tree.from_parents`` validates it and the parser produces it by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .esa import _dense_ranks

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


@dataclass(frozen=True, eq=False)
class Tree:
    """Rooted labeled tree with preorder node ids.

    ``labels``, ``parent`` and ``depth`` are read-only int64 arrays of
    length n, with ``parent[root] == -1``.  ``children`` is derived on
    first use (lists in ascending id order, which is also the order the
    serializer emits them in) and cached; the hot paths never need it.
    Instances are immutable; ``==`` compares the arrays.
    """

    labels: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    root: int = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.root == other.root and all(
            np.array_equal(a, b)
            for a, b in ((self.labels, other.labels), (self.parent, other.parent), (self.depth, other.depth))
        )

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @cached_property
    def children(self) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent.tolist()):
            if p >= 0:
                children[p].append(v)
        return children

    @property
    def leaf_count(self) -> int:
        return sum(1 for ch in self.children if not ch)

    @property
    def height(self) -> int:
        """Number of nodes on the longest root-to-leaf path."""
        return int(self.depth.max()) + 1

    @staticmethod
    def from_parents(labels: Sequence[int], parent: Sequence[int]) -> "Tree":
        """Build and validate a tree from a preorder parent array."""
        labels = _frozen(labels)
        parent = _frozen(parent)
        n = labels.size
        if n == 0:
            raise ValueError("a tree needs at least one node")
        if parent.size != n:
            raise ValueError("labels and parent must have equal length")
        if parent[0] != -1:
            raise ValueError("node 0 must be the root (parent -1)")
        children: list[list[int]] = [[] for _ in range(n)]
        depth = [0] * n
        for v, p in enumerate(parent.tolist()[1:], start=1):
            if not 0 <= p < v:
                raise ValueError(f"node {v}: parent {p} is not an earlier node")
            children[p].append(v)
            depth[v] = depth[p] + 1
        _check_preorder(children, n)
        return Tree(labels, parent, _frozen(depth))


def _frozen(values) -> np.ndarray:
    """A read-only int64 copy of ``values``."""
    arr = np.array(values, np.int64)
    arr.flags.writeable = False
    return arr


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


# Character classes of the vectorized parser; a token's kind is its class.
_LABEL, _SPACE, _OPEN, _CLOSE, _COMMA = range(5)
_ASCII_CLASS = np.array(
    [_SPACE if chr(c).isspace() else _LABEL for c in range(128)], np.int8)
_ASCII_CLASS[[ord("("), ord(")"), ord(",")]] = [_OPEN, _CLOSE, _COMMA]
# _FOLLOWS[a * 5 + b]: token kind b may come right after kind a within a
# text.  _SPACE never is a token, so its row stands for the start of a text.
_FOLLOWS = np.zeros((5, 5), bool)
_FOLLOWS[_SPACE, _LABEL] = True
_FOLLOWS[_LABEL, [_OPEN, _CLOSE, _COMMA]] = True
_FOLLOWS[_OPEN, _LABEL] = True
_FOLLOWS[_CLOSE, [_CLOSE, _COMMA]] = True
_FOLLOWS[_COMMA, _LABEL] = True
_FOLLOWS = _FOLLOWS.ravel()
_ENDS = np.zeros(5, bool)
_ENDS[[_LABEL, _CLOSE]] = True
# The bracket level's step at each token kind.
_STEP = np.zeros(5, np.int32)
_STEP[[_OPEN, _CLOSE]] = [1, -1]
# Brackets and commas to spaces: ``str.split`` then yields the labels.
_TO_SPACES = str.maketrans("(),", "   ")


def _char_classes(text: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The class of every character of ``text`` (whitespace as ``str.isspace``),
    and the character codes as uint8 when ``text`` is ASCII, else None."""
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), np.uint8)
        return _ASCII_CLASS.take(codes), codes
    cp = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    cls = _ASCII_CLASS.take(np.minimum(cp, 127))
    wide = np.unique(cp[cp > 127]).tolist()
    spaces = [c for c in wide if chr(c).isspace()]
    if spaces:
        cls[np.isin(cp, spaces)] = _SPACE
    return cls, None


# Eight 7-bit characters and a 4-bit length fill 60 bits of an int64 key.
_KEY_CHARS = 8


def _intern_packed(joined: str, codes: np.ndarray, run: np.ndarray,
                   start: np.ndarray, table: LabelTable) -> np.ndarray | None:
    """Label ids of the ASCII label runs of ``joined`` that begin at ``start``;
    None, with nothing interned, if a label is longer than ``_KEY_CHARS``.

    Equal spellings get equal keys and different ones different keys, so
    the dense ranks of the keys number the distinct spellings.  Each
    spelling is interned once, in order of first occurrence, which is the
    order ``dict.fromkeys`` of the names would give.
    """
    last = run.copy()
    last[:-1] &= ~run[1:]
    end = np.flatnonzero(last) + 1
    length = end - start
    longest = int(length.max())
    if longest > _KEY_CHARS:
        return None
    key = codes.take(start).astype(np.int64) << 4
    key |= length
    for j in range(1, longest):
        at = np.flatnonzero(length > j)
        key[at] |= codes.take(start.take(at) + j).astype(np.int64) << (4 + 7 * j)
    n = key.size
    rank, distinct = _dense_ranks(key, int(key.min()), int(key.max()))
    rank = rank[:n]
    first = np.full(distinct + 1, n, np.int64)
    np.minimum.at(first, rank, np.arange(n))
    first = np.sort(first[1:])
    lut = np.empty(distinct + 1, np.int64)
    lut[rank.take(first)] = [table.intern(joined[a:b]) for a, b in
                             zip(start.take(first).tolist(), end.take(first).tolist())]
    return lut.take(rank)


def _parse_texts(texts: Sequence[str], table: LabelTable,
                 where: Callable[[int], str] | None = None) -> list[Tree]:
    """Parse many trees in one numpy pass; raise on the first malformed text.

    The texts are joined with single spaces and tokenized at once: a token
    is a maximal run of label characters or one bracket or comma.  Each
    text's first token is found by one ``searchsorted`` of the text starts.
    A text is well formed when it has a token, each token may follow the
    previous one (``_FOLLOWS``, ``_ENDS``), the bracket level never drops
    below 0, each comma sits at level 1 or deeper and the level is 0 at
    the text's end.  Those rules leave one root per text: a label at level
    0 after the first token would have to follow a comma at level 0.  The
    level's magnitude is at most the token count, so int32 holds it below
    2**31 tokens; larger batches count it in int64.

    When a rule fails anywhere, ``_first_error`` finds the first failure in
    input order and this raises it as a ``TreeParseError`` with its byte
    offset in its text, prefixed with ``where(i)`` for the i-th text when
    ``where`` is given.  Nothing is interned before every text has passed,
    so a malformed input leaves ``table`` unchanged.

    The level at a label is its depth.  Ordered by (depth, id), a label
    right after '(' is a first child, whose parent is the label just
    before it (id - 1), and one after ',' has the parent of the label
    before it in that order, which is its previous sibling: every label
    between two siblings lies in the first one's subtree, so it is deeper.
    The first label of every depth but 0 follows a '(', so one running
    maximum of the position of the last first child (or root) gives every
    parent.  A root's "id - 1" is the last id of the text before it, which
    is -1 once ids are made local to their text.  Ids come out in
    preorder.  Labels are interned in first-seen order.

    When the joined text is ASCII and no label is longer than 8
    characters, each label packs into one int64 key (``_intern_packed``):
    character j in bits 4 + 7j upward, zero-padded, and the length in the
    low 4 bits, so ``"a"`` and ``"a\x00"`` differ.  The keys' dense ranks
    (``esa._dense_ranks``: counted when their span is small, else sorted)
    number the distinct spellings, one ``np.minimum.at`` finds where each
    first occurs, and ``table.intern`` runs once per spelling in that
    order.  Other batches (non-ASCII text, or a label longer than 8
    characters) intern through ``dict.fromkeys`` of the split names.
    """
    if not texts:
        return []
    joined = " ".join(texts)
    cls, codes = _char_classes(joined)
    run = cls == _LABEL
    tok = cls > _SPACE
    tok[:1] |= run[:1]
    tok[1:] |= run[1:] & ~run[:-1]
    pos = np.flatnonzero(tok)
    if len(texts) == 1:
        starts = first = np.zeros(1, np.intp)
    else:
        starts = np.cumsum([0] + [len(t) + 1 for t in texts[:-1]])
        first = np.searchsorted(pos, starts)
    count = np.diff(first, append=pos.size)
    last = first + count - 1
    kind = cls.take(pos)
    # One slot more than there are tokens, so that an empty text's first
    # token, pos.size when it is last, has a slot to write to.
    prev = np.empty(pos.size + 1, np.int8)
    prev[0] = _SPACE
    prev[1:] = kind
    prev[first] = _SPACE
    prev = prev[:-1]
    level = np.cumsum(_STEP.take(kind), dtype=np.int32 if pos.size < 2**31 else np.int64)
    if not (
        count.all()
        and _FOLLOWS.take(prev * 5 + kind).all()
        and _ENDS.take(kind.take(last)).all()
        and not level.take(last).any()
        and (level - (kind == _COMMA)).min() >= 0
    ):
        i, error = _first_error(texts, starts, pos, first, count, kind, prev, level)
        raise error if where is None else error.located(where(i))

    at_label = np.flatnonzero(kind == _LABEL)
    depth = level.take(at_label).astype(np.int64)
    n = depth.size
    # Sort (depth, id) keys packed into one int64; the low bits give the ids.
    shift = max(n - 1, 1).bit_length()
    keys = depth << shift
    keys |= np.arange(n)
    keys.sort()
    ids = keys & ((1 << shift) - 1)
    anchor = np.arange(n)
    anchor *= prev.take(at_label).take(ids) != _COMMA
    np.maximum.accumulate(anchor, out=anchor)
    parent = np.empty(n, np.int64)
    parent[ids] = ids.take(anchor) - 1
    if len(texts) == 1:
        bounds = [0, n]
    else:
        offsets = np.searchsorted(at_label, first)
        parent -= np.repeat(offsets, np.diff(offsets, append=n))
        bounds = offsets.tolist() + [n]

    labels = None if codes is None else _intern_packed(joined, codes, run, pos.take(at_label), table)
    if labels is None:
        names = joined.translate(_TO_SPACES).split()
        ids_of = dict.fromkeys(names)
        for name in ids_of:
            ids_of[name] = table.intern(name)
        labels = np.fromiter(map(ids_of.__getitem__, names), np.int64, n)
    for arr in (labels, parent, depth):
        arr.flags.writeable = False
    return [Tree(labels[a:b], parent[a:b], depth[a:b]) for a, b in zip(bounds, bounds[1:])]


def _first_error(texts: Sequence[str], starts: np.ndarray, pos: np.ndarray,
                 first: np.ndarray, count: np.ndarray, kind: np.ndarray,
                 prev: np.ndarray, level: np.ndarray) -> tuple[int, TreeParseError]:
    """The first grammar error of a batch that failed ``_parse_texts``'
    checks, and the index of its text.

    Within a text the first token that breaks a rule decides: a step that
    ``_FOLLOWS`` forbids, else a comma below level 1 or a ')' below level
    0.  A text whose tokens all pass fails at its end, at its byte length:
    no token, a last token outside ``_ENDS``, or a nonzero level, checked
    in that order.  The level is counted from the start of the batch, not
    of the text; the two agree up to the end of the first bad text,
    because every text before it passes and so ends at level 0.
    """
    step_bad = ~_FOLLOWS.take(prev * 5 + kind)
    bad = np.flatnonzero(step_bad | (level < (kind == _COMMA)))
    # A token belongs to the last text starting at or before it; a text
    # without tokens starts where the next one does.
    t = int(np.searchsorted(first, bad[0], "right")) - 1 if bad.size else len(texts)
    count = count[:t]
    # A text without tokens reads the padding or another text's last token
    # here; its count flags it first.
    last = first[:t] + count - 1
    end_kind = np.append(kind, _SPACE).take(last)
    end_bad = np.flatnonzero((count == 0) | ~_ENDS.take(end_kind)
                             | (np.append(level, 0).take(last) != 0))
    if end_bad.size:
        i = int(end_bad[0])
        message = ("empty input" if count[i] == 0 else
                   "missing subtree" if not _ENDS[end_kind[i]] else
                   "unbalanced brackets")
        return i, TreeParseError(message, len(texts[i].encode("utf-8", "surrogatepass")))
    j = int(bad[0])
    k = kind[j]
    if step_bad[j]:
        message = ("trailing garbage after tree" if k == _LABEL else
                   "'(' must follow a label" if k == _OPEN and prev[j] == _CLOSE else
                   "expected a label")
    else:
        message = "comma outside brackets" if k == _COMMA else "unmatched ')'"
    head = texts[t][:int(pos[j] - starts[t])]
    return t, TreeParseError(message, len(head.encode("utf-8", "surrogatepass")))


def parse_tree(text: str, table: LabelTable | None = None) -> Tree:
    """Parse one tree in the grammar ``tree := label ['(' tree (',' tree)* ')']``.

    Labels are non-empty runs of characters other than brackets, commas and
    whitespace.  Nodes are numbered in preorder.  Pass ``table`` to keep
    label ids consistent across multiple trees; a throwaway table is used
    otherwise.  Malformed text raises ``TreeParseError`` with the byte
    offset of the first error and leaves ``table`` unchanged.
    """
    return _parse_texts([text], LabelTable() if table is None else table)[0]


def serialize_tree(tree: Tree, table: LabelTable | None = None) -> str:
    """Bracket text for a tree, children in stored order; inverse of parse_tree.

    Without a table, labels are spelled as their decimal ids.
    """
    spell = table.name if table is not None else str
    labels = tree.labels.tolist()
    children = tree.children
    parts: list[str] = []
    stack: list[tuple[int, int]] = [(tree.root, 0)]
    while stack:
        v, i = stack.pop()
        ch = children[v]
        if i == 0:
            parts.append(spell(labels[v]))
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

    All lines are parsed in one ``_parse_texts`` pass.  A malformed line
    raises ``TreeParseError`` with the 1-based line number of the first
    bad line prefixed, and leaves ``table`` unchanged.
    """
    rows = [(lineno, s) for lineno, s in enumerate((ln.strip() for ln in lines), start=1)
            if s and not s.startswith("#")]
    return _parse_texts([s for _, s in rows], table, lambda i: f"line {rows[i][0]}")


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
