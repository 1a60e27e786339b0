"""Suffix arrays for trees: frozen examples, invariants, and the
linear-vs-reference differential."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from subpath_kernel.esa import build_esa_linear, build_esa_reference, naive_lcp, suffix
from subpath_kernel.rmq import RmqIndex
from subpath_kernel.trees import LabelTable, parse_tree, path_tree, random_tree, star_tree


def assert_valid_esa(tree, arr):
    """Full invariant battery checked against per-pair brute force."""
    n = tree.n
    assert sorted(arr.sa) == list(range(n))
    assert [arr.rsa[arr.sa[i]] for i in range(n)] == list(range(n))
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
            assert arr.sa == [0, 1]
            assert arr.lcp == [0, -1]
            assert arr.rsa == [0, 1]
            assert [t.depth[v] + 1 for v in arr.sa] == [1, 2]

    def test_single_node(self):
        t = parse_tree("a")
        for build in (build_esa_reference, build_esa_linear):
            arr = build(t)
            assert arr.sa == [0]
            assert arr.lcp == [-1]

    def test_equal_sibling_tie(self):
        t = parse_tree("a(b,b)")
        for build in (build_esa_reference, build_esa_linear):
            arr = build(t)
            assert arr.sa == [0, 1, 2]
            assert arr.lcp == [0, 2, -1]

    def test_end_of_suffix_sorts_first(self):
        # "a" is a proper prefix of "ab...": shorter suffix must rank first
        t = parse_tree("a(a(a))")
        arr = build_esa_reference(t)
        assert arr.sa == [0, 1, 2]
        assert arr.lcp == [1, 2, -1]


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
        assert (lin.sa, lin.lcp, lin.rsa) == (ref.sa, ref.lcp, ref.rsa)


class TestDifferential:
    def test_random_trees(self):
        rng = random.Random(7)
        for i in range(400):
            t = random_tree(rng.randint(1, 256), rng.choice([1, 2, 5, 26]), 10_000 + i)
            a = build_esa_reference(t)
            b = build_esa_linear(t)
            assert (a.sa, a.lcp, a.rsa) == (b.sa, b.lcp, b.rsa)

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
            assert (a.sa, a.lcp, a.rsa) == (b.sa, b.lcp, b.rsa)


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
            idx = RmqIndex(arr.lcp)
            for _ in range(200):
                u, v = rng.randrange(t.n), rng.randrange(t.n)
                if u == v:
                    continue
                x, y = sorted((arr.rsa[u], arr.rsa[v]))
                assert naive_lcp(t, u, v) == idx.query(x, y - 1)


class TestLinearInternals:
    def test_recursion_depth_logarithmic(self):
        for n in (100, 1000, 5000):
            t = path_tree(n)  # one label along the tallest shape: most doubling rounds
            stats = {}
            build_esa_linear(t, stats)
            assert stats["recursion_depth"] <= math.log(n, 1.5) + 3

    def test_forest_input(self):
        """Builders accept multi-root forests (parent -1 per component)."""
        t1 = random_tree(10, 2, 0)
        t2 = random_tree(7, 2, 1)

        class Forest:
            labels = t1.labels + t2.labels
            parent = t1.parent + [-1 if p == -1 else p + t1.n for p in t2.parent]
            depth = t1.depth + t2.depth

        a = build_esa_reference(Forest)
        b = build_esa_linear(Forest)
        assert (a.sa, a.lcp, a.rsa) == (b.sa, b.lcp, b.rsa)
