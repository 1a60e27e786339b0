"""Range-minimum and level-ancestor indexes against brute-force oracles."""

import random

import numpy as np
import pytest

from subpath_kernel.level_ancestor import LevelAncestorIndex
from subpath_kernel.rmq import RmqIndex
from subpath_kernel.trees import parse_tree, random_tree


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

    def test_run_bounds_against_scan(self):
        rng = random.Random(2)
        arrays = [[7], [3, 3, 3, 3, 3]]
        arrays += [[rng.randint(0, 4) for _ in range(rng.randint(1, 70))] for _ in range(30)]
        for arr in arrays:
            pos, floor = [], []
            for p in range(len(arr)):
                for f in range(min(arr) - 1, arr[p] + 1):
                    pos.append(p)
                    floor.append(f)
            lo, hi = RmqIndex(arr).run_bounds(pos, floor)
            for p, f, a, b in zip(pos, floor, lo.tolist(), hi.tolist()):
                want_lo, want_hi = p, p
                while want_lo > 0 and arr[want_lo - 1] >= f:
                    want_lo -= 1
                while want_hi < len(arr) - 1 and arr[want_hi + 1] >= f:
                    want_hi += 1
                assert (a, b) == (want_lo, want_hi)

    def test_run_bounds_empty_batch(self):
        lo, hi = RmqIndex([2, 1]).run_bounds([], [])
        assert lo.size == 0 and hi.size == 0

    def test_range_errors(self):
        idx = RmqIndex([1, 2, 3])
        with pytest.raises(IndexError):
            idx.query(2, 1)
        with pytest.raises(IndexError):
            idx.query(-1, 1)
        with pytest.raises(IndexError):
            idx.query(0, 3)


class TestLevelAncestor:
    def test_identity(self):
        t = random_tree(30, 3, 0)
        idx = LevelAncestorIndex(t.parent, t.depth)
        for v in range(t.n):
            assert idx.query(v, 0) == v

    def test_chain(self):
        t = parse_tree("a(b(c))")
        idx = LevelAncestorIndex(t.parent, t.depth)
        assert idx.query(2, 2) == 0
        assert idx.query(2, 1) == 1

    def test_against_naive_walk(self):
        rng = random.Random(3)
        for seed in range(5):
            t = random_tree(400, 4, seed)
            idx = LevelAncestorIndex(t.parent, t.depth)
            for _ in range(2000):
                v = rng.randrange(t.n)
                j = rng.randint(0, t.depth[v])
                u = v
                for _ in range(j):
                    u = t.parent[u]
                assert idx.query(v, j) == u

    def test_batch_matches_scalar(self):
        t = random_tree(600, 4, 9)
        idx = LevelAncestorIndex(t.parent, t.depth)
        rng = random.Random(4)
        vs, js = [], []
        for _ in range(500):
            v = rng.randrange(t.n)
            vs.append(v)
            js.append(rng.randint(0, t.depth[v]))
        out = idx.query_batch(np.array(vs), np.array(js))
        assert [int(u) for u in out] == [idx.query(v, j) for v, j in zip(vs, js)]

    def test_too_deep_rejected(self):
        t = parse_tree("a(b)")
        idx = LevelAncestorIndex(t.parent, t.depth)
        with pytest.raises(IndexError):
            idx.query(1, 2)
        with pytest.raises(IndexError):
            idx.query(0, 1)
