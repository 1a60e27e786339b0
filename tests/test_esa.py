"""Suffix arrays for trees: frozen examples, invariants, and the
linear-vs-reference differential."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import caterpillar
from oracles import RmqIndex, naive_lcp, suffix
from subpath_kernel import esa
from subpath_kernel.esa import _dense_ranks, _sorted_order, build_esa_linear, build_esa_reference
from subpath_kernel.kernel import merge_forest
from subpath_kernel.trees import LabelTable, parse_tree, path_tree, random_tree, star_tree


def assert_valid_esa(tree, arr):
    """Full invariant battery checked against per-pair brute force."""
    n = tree.n
    assert sorted(arr.sa) == list(range(n))
    sufs = [suffix(tree, v) for v in range(n)]
    assert [len(s) for s in sufs] == [d + 1 for d in tree.depth]
    for i in range(n - 1):
        u, v = arr.sa[i], arr.sa[i + 1]
        assert sufs[u] <= sufs[v]
        if sufs[u] == sufs[v]:
            assert u < v  # identical strings ordered by node id
        assert arr.lcp[i] == naive_lcp(tree, u, v)
    if n:
        assert arr.lcp[n - 1] == -1


class TestFrozenExamples:
    def test_two_node_chain(self):
        t = parse_tree("a(b)")
        for build in (build_esa_reference, build_esa_linear):
            arr = build(t)
            assert arr.sa.tolist() == [0, 1]
            assert arr.lcp.tolist() == [0, -1]
            assert [t.depth[v] + 1 for v in arr.sa] == [1, 2]

    def test_single_node(self):
        t = parse_tree("a")
        for build in (build_esa_reference, build_esa_linear):
            arr = build(t)
            assert arr.sa.tolist() == [0]
            assert arr.lcp.tolist() == [-1]

    def test_equal_sibling_tie(self):
        t = parse_tree("a(b,b)")
        for build in (build_esa_reference, build_esa_linear):
            arr = build(t)
            assert arr.sa.tolist() == [0, 1, 2]
            assert arr.lcp.tolist() == [0, 2, -1]

    def test_end_of_suffix_sorts_first(self):
        # "a" is a proper prefix of "ab...": shorter suffix must rank first
        t = parse_tree("a(a(a))")
        arr = build_esa_reference(t)
        assert arr.sa.tolist() == [0, 1, 2]
        assert arr.lcp.tolist() == [1, 2, -1]


class TestSuffix:
    def test_root(self):
        t = parse_tree("a(b)")
        assert suffix(t, 0) == [t.labels[0]]

    def test_chain(self):
        table = LabelTable()
        t = parse_tree("a(b(c))", table)
        want = [table.intern("c"), table.intern("b"), table.intern("a")]
        assert suffix(t, 2) == want

    def test_matches_parent_walk(self):
        t = random_tree(30, 4, 0)
        for v in range(t.n):
            walk, u = [], v
            while u != -1:
                walk.append(t.labels[u])
                u = t.parent[u]
            assert suffix(t, v) == walk
            assert len(walk) == t.depth[v] + 1


class TestInvariants:
    @pytest.mark.parametrize("build", [build_esa_reference, build_esa_linear])
    def test_random_corpus(self, build):
        rng = random.Random(0)
        for i in range(60):
            t = random_tree(rng.randint(1, 80), rng.choice([1, 2, 5, 26]), i)
            assert_valid_esa(t, build(t))

    @pytest.mark.parametrize("build", [build_esa_reference, build_esa_linear])
    def test_shaped_corpus(self, build):
        for t in [path_tree(64), star_tree(64), path_tree(64, labels=4),
                  random_tree(64, 1, 0)]:
            assert_valid_esa(t, build(t))

    @given(st.integers(1, 64), st.integers(1, 5), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_property_random(self, n, sigma, seed):
        t = random_tree(n, sigma, seed)
        ref = build_esa_reference(t)
        assert_valid_esa(t, ref)
        lin = build_esa_linear(t)
        assert lin == ref


class TestDifferential:
    def test_random_trees(self):
        rng = random.Random(7)
        for i in range(400):
            t = random_tree(rng.randint(1, 256), rng.choice([1, 2, 5, 26]), 10_000 + i)
            a = build_esa_reference(t)
            b = build_esa_linear(t)
            assert a == b

    @pytest.mark.parametrize("make", [
        lambda n: path_tree(n),
        lambda n: path_tree(n, labels=3),
        lambda n: star_tree(n),
        lambda n: random_tree(n, 1, 11),
    ])
    def test_degenerate_shapes(self, make):
        for n in (1, 2, 16, 17, 100, 1000, 4097):
            t = make(n)
            a = build_esa_reference(t)
            b = build_esa_linear(t)
            assert a == b


def coin_path(n, seed, root=None):
    """A path of n nodes with random labels 0/1, the root's label fixed if given."""
    rng = random.Random(seed)
    labels = [rng.randrange(2) for _ in range(n)]
    if root is not None:
        labels[0] = root
    return path_tree(n, labels)


def built_like_reference(forest):
    """build_esa_linear's rounds and arrays, each array checked against the reference."""
    stats = {}
    got = build_esa_linear(forest, stats)
    want = build_esa_reference(forest)
    for name in ("sa", "lcp"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    return stats["recursion_depth"]


def rankings(forest, monkeypatch):
    """``built_like_reference`` plus, for each ranking the build ran, its
    number of distinct ranks and whether it sorted (returned an order)."""
    log = []
    real = esa._dense_ranks

    def spy(key, lo, hi):
        out = real(key, lo, hi)
        log.append((out[1], out[2] is not None))
        return out

    monkeypatch.setattr(esa, "_dense_ranks", spy)
    try:
        return built_like_reference(forest), log
    finally:
        monkeypatch.undo()


class TestStopAndTies:
    """The branches of the fixed-point stop and the tied-neighbour shortcut."""

    def test_stop_before_ranking(self, monkeypatch):
        # a sorted round that refines, then one that splits no class: read in
        # the sorted order, its keys stop the rounds before it is ranked.
        # Ties are left (twins, equal sibling leaves) and the step is below
        # the greatest depth, so only that stop ends the rounds.
        t = random_tree(1 << 12, 5, 0)
        forests = [merge_forest([t, t])] + [
            merge_forest([random_tree(n, 5, seed), random_tree(n, 5, seed + 1)])
            for n, seed in ((1 << 12, 0), (1 << 12, 2), (1 << 13, 4))]
        for forest in forests:
            rounds, log = rankings(forest, monkeypatch)
            assert len(log) == rounds + 1 and log[-1][0] < forest.labels.size
            assert 2**rounds <= forest.depth.max()
            assert [s for _, s in log[-2:]] == [True, True] and log[-1][0] > log[-2][0]

    def test_drop_after_counted_round(self, monkeypatch):
        # after a counted ranking the round that splits no class is ranked,
        # found to keep the distinct count, and dropped
        t = parse_tree("a(b(c))")
        rounds, log = rankings(merge_forest([t, t]), monkeypatch)
        assert rounds == 0 and log == [(3, False), (3, False)]

    def test_repeated_trees(self):
        # [t, p, t, p]: every suffix has an identical twin
        for seed in range(5):
            t, p = random_tree(60, 2, seed), coin_path(30, seed)
            built_like_reference(merge_forest([t, p, t, p]))

    def test_all_distinct(self):
        # roots labelled apart: no two suffixes are equal
        for seed in range(5):
            forest = merge_forest([coin_path(200, seed, root=0), coin_path(150, seed + 50, root=1)])
            assert len({tuple(suffix(forest, v)) for v in range(forest.labels.size)}) == forest.labels.size
            built_like_reference(forest)
        built_like_reference(path_tree(300))

    def test_stop_before_depth_cap(self):
        # equal root labels tie the two one-node suffixes for good, so only
        # the stop ends the rounds before step passes the greatest depth
        for seed in range(5):
            forest = merge_forest([coin_path(1000, seed, root=0), coin_path(900, seed + 50, root=0)])
            assert built_like_reference(forest) < int(forest.depth.max()).bit_length()

    def test_top_level_zero(self):
        # no doubling round: one node, or roots only (tied and distinct labels)
        table = LabelTable()
        roots = [parse_tree(text, table) for text in "abab"]
        for forest in (merge_forest([roots[0]]), merge_forest(roots), merge_forest(roots[:2])):
            assert built_like_reference(forest) == 0


class TestNaiveLcp:
    def test_self_is_full_length(self):
        t = random_tree(20, 3, 1)
        for v in range(t.n):
            assert naive_lcp(t, v, v) == t.depth[v] + 1

    def test_disjoint_first_label(self):
        t = parse_tree("a(b)")
        assert naive_lcp(t, 0, 1) == 0

    def test_equals_range_min_over_lcp_array(self):
        rng = random.Random(2)
        for seed in range(10):
            t = random_tree(rng.randint(2, 120), rng.choice([1, 2, 4]), seed)
            arr = build_esa_reference(t)
            rank = np.argsort(arr.sa)
            idx = RmqIndex(arr.lcp)
            for _ in range(200):
                u, v = rng.randrange(t.n), rng.randrange(t.n)
                if u == v:
                    continue
                x, y = sorted((rank[u], rank[v]))
                assert naive_lcp(t, u, v) == idx.query(x, y - 1)


class TestLinearInternals:
    def test_recursion_depth_logarithmic(self):
        for n in (100, 1000, 5000):
            t = path_tree(n)  # one label along the tallest shape: most doubling rounds
            stats = {}
            build_esa_linear(t, stats)
            assert stats["recursion_depth"] <= math.log(n, 1.5) + 3

    def test_node_count_beyond_int32_rejected(self):
        # ranks and ancestors are held as int32; the check reads only the size
        huge = SimpleNamespace(labels=SimpleNamespace(size=2**31 - 1))
        with pytest.raises(ValueError, match="fewer than"):
            build_esa_linear(huge)

    def test_forest_input(self):
        """Builders accept multi-root forests (parent -1 per component), with
        any int64 labels: negative ones, a span too wide to count ({0, 2^40})
        and the int64 extremes, whose span overflows int64."""
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        relabels = [lambda lab: lab, lambda lab: lab - 7, lambda lab: lab << 40,
                    lambda lab: np.where(lab > 0, hi, lo)]
        shapes = [(random_tree(10, 2, 0), random_tree(7, 2, 1)),
                  (path_tree(40), path_tree(25))]
        for t1, t2 in shapes:
            for relabel in relabels:
                class Forest:
                    labels = relabel(np.concatenate((t1.labels, t2.labels)))
                    parent = np.concatenate((t1.parent, np.where(t2.parent < 0, -1, t2.parent + t1.n)))
                    depth = np.concatenate((t1.depth, t2.depth))

                a = build_esa_reference(Forest)
                b = build_esa_linear(Forest)
                assert a == b

    def test_dense_ranks_count_equals_sort(self, monkeypatch):
        # tight bounds take the counting branch; bounds 2^40 below the keys
        # the packed np.sort, and 2^62 below the stable np.argsort fallback,
        # since the packed form would pass 63 bits (both sides of that edge
        # are run); keys already in order skip the sort
        real_argsort = np.argsort

        def ranked(key, lo, hi):
            calls = []
            monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or real_argsort(*a, **kw))
            try:
                return _dense_ranks(key, lo, hi), bool(calls)
            finally:
                monkeypatch.undo()

        rng = np.random.default_rng(4)
        for size, span in [(1, 0), (50, 3), (1000, 1), (1000, 40), (1000, 3999), (300, 10**6)]:
            drawn = rng.integers(-5, span - 4, size, endpoint=True)
            for key in (drawn, np.sort(drawn)):
                in_order = bool((np.diff(key) >= 0).all())
                uniq, inverse = np.unique(key, return_inverse=True)
                lo, hi = int(key.min()), int(key.max())
                # the widest keys span more than 4n even under tight bounds
                counted = hi - lo <= 4 * size
                # spans below 2^(63 - b) pack key and index into 63 bits
                edge = 2 ** (63 - size.bit_length()) - (hi - lo)
                for below in (0, 2**40, edge - 1, edge, 2**62):
                    (rank, distinct, order), argsorted = ranked(key, lo - below, hi)
                    assert rank.dtype == np.int32 and rank[-1] == 0
                    assert np.array_equal(rank[:-1], inverse + 1) and distinct == uniq.size
                    assert argsorted == (below >= edge and not in_order)
                    if (below == 0 and counted) or in_order:
                        assert order is None
                    else:
                        # every sort's order, the fallback's included, sorts
                        # the keys, ties by ascending index
                        assert np.array_equal(order, real_argsort(key, kind="stable"))

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_sorted_order_is_the_stable_argsort(self, data):
        # spans from none to all of int64, with just under and at the 63-bit
        # edge of the packed form among them; a few distinct values make
        # heavy ties, and the lower bound may sit below the keys
        int64 = np.iinfo(np.int64)
        size = data.draw(st.integers(0, 200), label="size")
        edge = 2 ** (63 - size.bit_length())
        span = data.draw(st.sampled_from([0, 1, edge - 1, edge, 2**64 - 1])
                         | st.integers(0, 2**64 - 1), label="span")
        lo = data.draw(st.integers(int64.min, int64.max - span), label="lo")
        pool = data.draw(st.lists(st.integers(lo, lo + span), min_size=1, max_size=6), label="pool")
        key = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)), np.int64)
        below = data.draw(st.sampled_from([0, 1, 2**40]).filter(lambda d: lo - d >= int64.min), label="below")
        sk, order = _sorted_order(key, lo - below, lo + span)
        assert np.array_equal(order, np.argsort(key, kind="stable"))
        assert np.array_equal(sk, np.sort(key))
        assert sk.dtype == order.dtype == np.int64

    def test_round_counts_pinned(self):
        # the stop rule alone fixes the round count; how keys are ranked must not move it
        def rounds(t):
            stats = {}
            build_esa_linear(t, stats)
            return stats["recursion_depth"]

        assert rounds(path_tree(5000)) == 13
        # caterpillars of a 5,461-node spine have about 2^14 nodes (16,268
        # and 16,400 here) and a height of about 2^14 / 3
        spine = (1 << 14) // 3
        pairs = {5: (random_tree(1 << 14, 5, 0), random_tree(1 << 14, 5, 1)),
                 1: (random_tree(1 << 14, 1, 0), random_tree(1 << 14, 1, 1)),
                 "paths": (coin_path(1 << 14, 0), coin_path(1 << 14, 1)),
                 "tied paths": (coin_path(1 << 14, 2), coin_path(1 << 14, 3)),
                 "caterpillars 5": (caterpillar(spine, 5, 0), caterpillar(spine, 5, 1)),
                 "caterpillars 1": (caterpillar(spine, 1, 0), caterpillar(spine, 1, 1))}
        got = {k: rounds(merge_forest(list(pair))) for k, pair in pairs.items()}
        assert got == {5: 4, 1: 5, "paths": 5, "tied paths": 5,
                       "caterpillars 5": 4, "caterpillars 1": 13}
        # the worst case: every round refines a single-label path
        assert rounds(path_tree(1 << 17)) == 17
