"""Tree model, bracket-grammar parser/serializer, and generators."""

import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import children, leaf_count, scan_tree
from subpath_kernel.predict import load_model
from subpath_kernel.trees import (
    LabelTable,
    Tree,
    TreeParseError,
    _parse_texts,
    parse_corpus,
    parse_tree,
    path_tree,
    random_tree,
    serialize_tree,
    star_tree,
)


def first_seen_renumbering(labels):
    """Relabel to 0,1,2,... in order of first appearance (what a fresh
    parse's label table does to serialized decimal spellings)."""
    seen: dict[int, int] = {}
    return [seen.setdefault(l, len(seen)) for l in labels]


class TestParse:
    def test_single_node(self):
        t = parse_tree("a")
        assert t.n == 1
        assert t.labels.tolist() == [0]
        assert t.parent.tolist() == [-1]
        assert t.depth.tolist() == [0]

    def test_two_children(self):
        t = parse_tree("a(b,c)")
        assert t.n == 3
        assert t.parent.tolist() == [-1, 0, 0]
        assert t.depth.tolist() == [0, 1, 1]

    def test_nested_with_repeat_label(self):
        table = LabelTable()
        t = parse_tree("a(b(c),b)", table)
        assert t.n == 4
        assert t.depth.tolist() == [0, 1, 2, 1]
        b = table.intern("b")
        assert t.labels[1] == b and t.labels[3] == b
        assert children(t)[0] == [1, 3]

    def test_shared_table_across_trees(self):
        table = LabelTable()
        t1 = parse_tree("a", table)
        t2 = parse_tree("b(a)", table)
        assert t1.labels[0] == t2.labels[1]

    def test_whitespace_in_label_rejected(self):
        with pytest.raises(TreeParseError):
            parse_tree("a b")

    @pytest.mark.parametrize(
        "text",
        ["", "a(", "a(b", "a(b))", "(a)", "a(,b)", "a(b,)", "a()", "a,b", "a(b)c", ")", ","],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(TreeParseError):
            parse_tree(text)

    def test_error_carries_byte_offset(self):
        with pytest.raises(TreeParseError) as exc:
            parse_tree("a(b))")
        assert exc.value.offset == 4
        assert "(byte 4)" in str(exc.value)

    def test_error_offset_counts_bytes_not_chars(self):
        # two-byte UTF-8 label before the offending bracket
        with pytest.raises(TreeParseError) as exc:
            parse_tree("é)")
        assert exc.value.offset == 2

    def test_preorder_ids(self):
        t = parse_tree("a(b(c,d),e(f))")
        # preorder contract: every parent id precedes the child id,
        # children contiguous in DFS order
        for v in range(1, t.n):
            assert t.parent[v] < v
        assert children(t)[:2] == [[1, 4], [2, 3]]


class TestSerialize:
    def test_single_decimal_spelling_without_table(self):
        # no table: label ids spell as decimal, and a fresh parse re-interns
        assert serialize_tree(parse_tree("a")) == "0"

    def test_children_in_stored_order(self):
        table = LabelTable()
        assert serialize_tree(parse_tree("a(b,c)", table), table) == "a(b,c)"

    @pytest.mark.parametrize("text", ["a", "a(b)", "a(b,c)", "a(b(c),b)", "x(y(z(w)),y)"])
    def test_round_trip_text(self, text):
        table = LabelTable()
        assert serialize_tree(parse_tree(text, table), table) == text

    def test_round_trip_random_structural(self):
        for seed in range(20):
            t = random_tree(50, 5, seed)
            u = parse_tree(serialize_tree(t))
            assert u.parent.tolist() == t.parent.tolist()
            assert u.labels.tolist() == first_seen_renumbering(t.labels.tolist())

    def test_decimal_spellings_without_table(self):
        t = random_tree(8, 3, 1)
        text = serialize_tree(t)
        u = parse_tree(text)
        # decimal labels re-interned in first-seen order still match structure
        assert u.parent.tolist() == t.parent.tolist()

    @given(st.integers(1, 60), st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, n, sigma, seed):
        # structure round-trips exactly; label ids round-trip up to the
        # first-seen renumbering a fresh parse applies
        t = random_tree(n, sigma, seed)
        u = parse_tree(serialize_tree(t))
        assert u.parent.tolist() == t.parent.tolist()
        assert u.depth.tolist() == t.depth.tolist()
        assert u.labels.tolist() == first_seen_renumbering(t.labels.tolist())


class TestLabelTable:
    def test_interning_is_dense_and_stable(self):
        table = LabelTable()
        assert table.intern("x") == 0
        assert table.intern("y") == 1
        assert table.intern("x") == 0
        assert table.name(1) == "y"

    def test_reserved_characters_rejected(self):
        table = LabelTable()
        for bad in ["", "a(b", "a)b", "a,b", "a b", "a\tb"]:
            with pytest.raises(ValueError):
                table.intern(bad)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            LabelTable().name(0)


class TestTreeValidation:
    def test_depth_recurrence_and_children(self):
        t = random_tree(200, 5, 3)
        kids_of = children(t)
        for v in range(1, t.n):
            assert t.depth[v] == t.depth[t.parent[v]] + 1
            assert v in kids_of[t.parent[v]]
        assert t.parent[0] == -1

    def test_non_preorder_rejected(self):
        # parent ids must precede children in a DFS-contiguous layout;
        # [root, child-of-2 first] breaks subtree contiguity
        with pytest.raises(ValueError):
            Tree.from_parents([0, 0, 0, 0], [-1, 2, 0, 1])

    @pytest.mark.parametrize("parent", [
        [-1, 0, 0, 1],     # node 3 rejoins the closed subtree of node 1
        [-1, 0, 1, 0, 2],  # node 4's parent is deeper than node 3
    ])
    def test_parent_off_the_previous_root_path_rejected(self, parent):
        with pytest.raises(ValueError, match="not in preorder"):
            Tree.from_parents([0] * len(parent), parent)

    @given(st.lists(st.integers(0, 2**16), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_dfs_preorders(self, draws):
        # Any earlier node as each parent; accepted iff a DFS over the
        # child lists in id order visits 0, 1, 2, ...
        parent = [-1] + [r % v for v, r in enumerate(draws, start=1)]
        kids_of = [[] for _ in parent]
        for v, p in enumerate(parent[1:], start=1):
            kids_of[p].append(v)
        order, stack = [], [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(kids_of[v]))
        if order == list(range(len(parent))):
            assert Tree.from_parents([0] * len(parent), parent).parent.tolist() == parent
        else:
            with pytest.raises(ValueError, match="not in preorder"):
                Tree.from_parents([0] * len(parent), parent)

    @pytest.mark.parametrize("labels, parent, name", [
        ([1.7, 2.2, 0.5], [-1, 0, 1], "labels"),   # floats were truncated
        ([1, 2, 0], [-1, 0.9, 1.99], "parent"),
        (["3", "1"], [-1, 0], "labels"),           # strings were parsed
        ([1, 2], ["-1", "0"], "parent"),
        ([True, False], [-1, 0], "labels"),        # bools were cast to 1 and 0
        ([1, 2], [False, False], "parent"),
        ([[1], [2]], [-1, 0], "labels"),           # 2-D input was accepted
        ([1, 2], [[-1, 0]], "parent"),
        ([[1], [2, 3]], [-1, 0], "labels"),        # ragged
        ([1, 2**70], [-1, 0], "labels"),           # outside int64
        (np.array([1, 2], np.uint64), [-1, 0], "labels"),
    ])
    def test_non_integer_input_rejected(self, labels, parent, name):
        with pytest.raises(ValueError, match=f"^{name} must be a 1-D sequence of int64 integers"):
            Tree.from_parents(labels, parent)

    def test_integer_arrays_of_any_int64_safe_dtype_accepted(self):
        t = Tree.from_parents(np.array([3, 1, 2], np.uint32), np.array([-1, 0, 0], np.int8))
        assert t == Tree.from_parents([3, 1, 2], [-1, 0, 0])
        assert t.labels.dtype == t.parent.dtype == np.int64

    def test_parent_after_child_rejected(self):
        with pytest.raises(ValueError):
            Tree.from_parents([0, 0], [1, -1])

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            Tree.from_parents([0, 0], [-1, -1])

    def test_counts(self):
        t = parse_tree("a(b(c),b)")
        assert leaf_count(t) == 2
        assert t.height == 3


class TestGenerators:
    def test_single_node(self):
        t = random_tree(1, 4, 0)
        assert t.n == 1 and t.depth.tolist() == [0]

    def test_size_and_alphabet(self):
        t = random_tree(1000, 5, 42)
        assert t.n == 1000
        assert all(0 <= lab < 5 for lab in t.labels)

    def test_deterministic(self):
        a = random_tree(300, 7, 99)
        b = random_tree(300, 7, 99)
        assert a == b

    def test_seed_sensitivity(self):
        a = random_tree(300, 7, 1)
        b = random_tree(300, 7, 2)
        assert a != b

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            random_tree(0, 3, 0)

    def test_preorder_property(self):
        for seed in range(30):
            t = random_tree(100, 3, seed)
            assert all(t.parent[v] < v for v in range(1, t.n))
            # subtree contiguity: from_parents checks each parent against
            # the root path of the node before its child, so
            # reconstructing must not raise
            Tree.from_parents(t.labels, t.parent)

    def test_path_and_star_shapes(self):
        p = path_tree(5)
        assert p.depth.tolist() == [0, 1, 2, 3, 4]
        assert leaf_count(p) == 1
        s = star_tree(5)
        assert s.depth.tolist() == [0, 1, 1, 1, 1]
        assert leaf_count(s) == 4
        p2 = path_tree(6, labels=3)
        assert p2.labels.tolist() == [3] * 6
        p3 = path_tree(6, [i % 3 for i in range(6)])
        assert p3.labels.tolist() == [0, 1, 2, 0, 1, 2]


class TestCorpus:
    def test_skips_blanks_and_comments(self):
        table = LabelTable()
        trees = parse_corpus(["# header", "", "a", "  ", "b(a)"], table)
        assert [t.n for t in trees] == [1, 2]

    def test_error_reports_line_number(self):
        with pytest.raises(TreeParseError) as exc:
            parse_corpus(["a", "b((" ], LabelTable())
        assert str(exc.value) == "line 2: expected a label (byte 2)"
        assert exc.value.offset == 2


# Every error class of the grammar with its message and byte offset.
ERROR_CASES = [
    ("(a)", "expected a label", 0),
    ("a(,b)", "expected a label", 2),
    ("a(b)(c)", "'(' must follow a label", 4),
    ("a,b", "comma outside brackets", 1),
    ("a(b))", "unmatched ')'", 4),
    ("é(日本)),", "unmatched ')'", 10),
    ("a(b)c", "trailing garbage after tree", 4),
    ("\u3000a(b)\u3000c", "trailing garbage after tree", 10),
    ("", "empty input", 0),
    ("   ", "empty input", 3),
    ("\u3000", "empty input", 3),
    ("a(", "missing subtree", 2),
    ("日本(é,", "missing subtree", 10),
    ("a(b", "unbalanced brackets", 3),
    ("\ud800)", "unmatched ')'", 3),
]
LABEL_POOL = ["a", "bc", "é", "日本", "x_1", "ñandú"]
SPACES = ["", "", " ", "\t", "\n", "\u3000", "\xa0"]


def spaced_text(t: Tree, rng: random.Random) -> str:
    """Bracket text of t over multi-character and non-ASCII labels, with
    random whitespace (ASCII and not) between tokens."""
    table = LabelTable()
    for name in rng.sample(LABEL_POOL, len(LABEL_POOL)):
        table.intern(name)
    tokens = re.findall(r"[^(),]+|[(),]", serialize_tree(t, table))
    return "".join(rng.choice(SPACES) + tok for tok in tokens) + rng.choice(SPACES)


def comb_text(teeth: int, leaf_first: bool = True) -> str:
    """A spine of ``teeth`` nodes, each with a leaf child besides its spine
    child.  Leaf first, every spine node follows a comma; spine first,
    every leaf follows a comma right after the spine's deeper subtree."""
    if leaf_first:
        return "a(b," * (teeth - 1) + "a(b)" + ")" * (teeth - 1)
    return "a(" * (teeth - 1) + "a(b)" + ",b)" * (teeth - 1)


def scanned(texts, table, where=None):
    """The oracle's trees, or its first error, located by ``where(i)``."""
    trees = []
    for i, text in enumerate(texts):
        try:
            trees.append(scan_tree(text, table))
        except TreeParseError as exc:
            raise (exc if where is None else exc.located(where(i))) from None
    return trees


def line_of(i):
    return f"line {i + 1}"


def assert_parses_as_scanner(texts):
    """``_parse_texts`` returns the oracle's trees and interns as it does,
    or raises the oracle's first error, located, and interns nothing."""
    slow, fast = LabelTable(), LabelTable()
    try:
        want = scanned(texts, slow, line_of)
    except TreeParseError as exc:
        with pytest.raises(TreeParseError) as got:
            _parse_texts(texts, fast, line_of)
        assert (str(got.value), got.value.offset) == (str(exc), exc.offset)
        assert len(fast) == 0
    else:
        assert _parse_texts(texts, fast, line_of) == want
        assert fast._names == slow._names


class TestVectorizedParse:
    def test_equals_scanner_on_spaced_random_trees(self):
        rng = random.Random(5)
        for seed in range(200):
            t = random_tree(rng.randint(1, 120), len(LABEL_POOL), seed)
            text = spaced_text(t, rng)
            fast, slow = LabelTable(), LabelTable()
            assert parse_tree(text, fast) == scan_tree(text, slow)
            assert fast._names == slow._names

    def test_batch_equals_scanner_with_shared_table(self):
        rng = random.Random(6)
        texts = [spaced_text(random_tree(rng.randint(1, 60), 6, s), rng) for s in range(50)]
        fast, slow = LabelTable(), LabelTable()
        fast.intern("日本")
        slow.intern("日本")
        assert _parse_texts(texts, fast) == scanned(texts, slow)
        assert fast._names == slow._names

    @given(st.lists(st.text(alphabet="ab\x00\x7f~Z9_.", min_size=1, max_size=12),
                    min_size=1, max_size=8, unique=True),
           st.lists(st.tuples(st.integers(1, 40), st.integers(0, 2**32 - 1)), min_size=1, max_size=5),
           st.randoms(use_true_random=False))
    @example(["a", "a\x00"], [(30, 1)], random.Random(0))
    @settings(max_examples=200, deadline=None)
    def test_ascii_labels_intern_as_the_scanner(self, pool, shapes, rng):
        # Labels of 1-12 ASCII characters, on both sides of the packed-key
        # cut, interned into a table that already holds some of them.
        spell = LabelTable()
        for name in pool:
            spell.intern(name)
        texts = [serialize_tree(random_tree(n, len(pool), seed), spell) for n, seed in shapes]
        known = rng.sample(pool, rng.randint(0, len(pool)))
        fast, slow = LabelTable(), LabelTable()
        for name in known:
            fast.intern(name)
            slow.intern(name)
        assert _parse_texts(texts, fast) == scanned(texts, slow)
        assert fast._names == slow._names

    def test_output_arrays_are_read_only(self):
        for t in (parse_tree("a(b,c)"), random_tree(5, 2, 0)):
            for arr in (t.labels, t.parent, t.depth):
                assert not arr.flags.writeable

    @given(st.text(alphabet="ab(), é\t", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_what_the_scanner_accepts(self, text):
        assert_parses_as_scanner([text])

    @given(st.lists(st.text(alphabet="ab(), é\t", max_size=12), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_batch_raises_the_scanners_first_error(self, texts):
        assert_parses_as_scanner(texts)

    @pytest.mark.parametrize("texts", [
        [serialize_tree(star_tree(2001, [0] + [1] * 2000))],
        [comb_text(500), "x", comb_text(300, leaf_first=False)],
        [serialize_tree(path_tree(40_000, [i % 3 for i in range(40_000)]))],
        ["a", "b(c)", *("abc"[i % 3] for i in range(3000)), "d(e,f)"],
        [spaced_text(random_tree(300, 6, s), random.Random(s)) for s in range(20)],
        ["abcdefgh(abcdefghi,abcdefgh(a))", "abcdefghi"],
    ], ids=["star", "combs", "deep_path", "single_nodes", "mixed", "key_cut"])
    def test_parent_fill_shapes(self, texts):
        fast, slow = LabelTable(), LabelTable()
        assert _parse_texts(texts, fast) == scanned(texts, slow)
        assert fast._names == slow._names

    @pytest.mark.parametrize("text,message,offset", ERROR_CASES)
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(TreeParseError) as exc:
            scan_tree(text, LabelTable())
        assert (exc.value.message, exc.value.offset) == (message, offset)
        with pytest.raises(TreeParseError) as exc:
            _parse_texts(["a(b)", text, "c", "d("], LabelTable(), line_of)
        assert str(exc.value) == f"line 2: {message} (byte {offset})"
        with pytest.raises(TreeParseError) as exc:
            parse_tree(text)
        assert (exc.value.message, exc.value.offset) == (message, offset)
        if text and text == text.strip():
            # parse_corpus strips each line, which would move the offset
            with pytest.raises(TreeParseError) as exc:
                parse_corpus(["a(b)", "# note", text, "c"], LabelTable())
            assert str(exc.value) == f"line 3: {message} (byte {offset})"

    @pytest.mark.parametrize("text", [text for text, _, _ in ERROR_CASES])
    def test_failed_parse_leaves_the_table_unchanged(self, text, tmp_path):
        table = LabelTable()
        for name in ("c", "x", "a"):
            table.intern(name)
        with pytest.raises(TreeParseError):
            parse_tree(text, table)
        assert table._names == ["c", "x", "a"]
        if text.strip():  # parse_corpus skips a blank line
            with pytest.raises(TreeParseError):
                parse_corpus(["a(b)", text, "d"], table)
            assert table._names == ["c", "x", "a"]
        if any("\ud800" <= c <= "\udfff" for c in text):
            return  # a UTF-8 model file cannot hold a lone surrogate
        path = tmp_path / "model.txt"
        path.write_text(f"lambda 1\n1\ta(b)\n1\t{text}\n1\td\n", encoding="utf-8")
        # Stripping can leave a row without its tree column: a ValueError.
        with pytest.raises(ValueError):
            load_model(str(path), table)
        assert table._names == ["c", "x", "a"]

    def test_corpus_names_the_first_bad_line(self):
        with pytest.raises(TreeParseError) as exc:
            parse_corpus(["a", "b(c", "", "d)", "e("], LabelTable())
        assert str(exc.value) == "line 2: unbalanced brackets (byte 3)"
