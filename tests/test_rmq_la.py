"""Range-minimum and level-ancestor indexes against brute-force oracles."""

import random

import numpy as np
import pytest

from subpath_kernel.level_ancestor import LevelAncestorIndex
from subpath_kernel.rmq import RmqIndex
from subpath_kernel.trees import parse_tree, path_tree, random_tree, star_tree


class TestRmq:
    def test_singleton(self):
        assert RmqIndex([5]).query(0, 0) == 5

    def test_small_direct(self):
        assert RmqIndex([3, 1, 4, 1, 5]).query(1, 3) == 1

    def test_exhaustive_small(self):
        rng = random.Random(0)
        for trial in range(20):
            n = rng.randint(1, 64)
            arr = [rng.randint(-50, 50) for _ in range(n)]
            idx = RmqIndex(arr)
            for x in range(n):
                for y in range(x, n):
                    assert idx.query(x, y) == min(arr[x:y + 1])

    def test_sampled_large(self):
        rng = random.Random(1)
        arr = [rng.randint(-10**6, 10**6) for _ in range(4096)]
        idx = RmqIndex(arr)
        for _ in range(2000):
            x = rng.randrange(4096)
            y = rng.randrange(x, 4096)
            assert idx.query(x, y) == min(arr[x:y + 1])

    def test_range_errors(self):
        idx = RmqIndex([1, 2, 3])
        with pytest.raises(IndexError):
            idx.query(2, 1)
        with pytest.raises(IndexError):
            idx.query(-1, 1)
        with pytest.raises(IndexError):
            idx.query(0, 3)


def parent_walk(tree, v, j):
    for _ in range(j):
        v = int(tree.parent[v])
    return v


class TestLevelAncestor:
    def test_identity(self):
        t = random_tree(30, 3, 0)
        idx = LevelAncestorIndex(t.parent, t.depth)
        assert idx.query_batch(np.arange(t.n), np.zeros(t.n, np.int64)).tolist() == list(range(t.n))

    def test_chain(self):
        t = parse_tree("a(b(c))")
        idx = LevelAncestorIndex(t.parent, t.depth)
        assert idx.query_batch([2, 2, 2, 1], [2, 1, 0, 1]).tolist() == [0, 1, 2, 0]

    def test_against_naive_walk(self):
        rng = random.Random(3)
        trees = [random_tree(400, 4, seed) for seed in range(5)]
        trees += [path_tree(300), star_tree(50), parse_tree("a")]
        for t in trees:
            idx = LevelAncestorIndex(t.parent, t.depth)
            vs = [rng.randrange(t.n) for _ in range(2000)]
            js = [rng.randint(0, int(t.depth[v])) for v in vs]
            out = idx.query_batch(np.array(vs), np.array(js))
            assert out.tolist() == [parent_walk(t, v, j) for v, j in zip(vs, js)]

    def test_batch_matches_scalar(self):
        t = random_tree(600, 4, 9)
        idx = LevelAncestorIndex(t.parent, t.depth)
        rng = random.Random(4)
        vs, js = [], []
        for _ in range(500):
            v = rng.randrange(t.n)
            vs.append(v)
            js.append(rng.randint(0, int(t.depth[v])))
        out = idx.query_batch(np.array(vs), np.array(js))
        assert [int(u) for u in out] == [parent_walk(t, v, j) for v, j in zip(vs, js)]
