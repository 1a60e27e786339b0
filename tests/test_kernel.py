"""Subpath kernel: weight table, merged forest, sweep vs. independent
oracles, and algebraic invariants."""

import math
import random

import numpy as np
import pytest

from conftest import rel_close, shuffle_children
from oracles import suffix
from subpath_kernel import kernel as kernel_module
from subpath_kernel.kernel import (
    KernelParams,
    _prefix_counts,
    gram_matrix,
    lcp_intervals,
    merge_forest,
    merge_trees,
    merged_esa,
    subpath_kernel,
    subpath_kernel_oracle,
    weight_table,
)
from subpath_kernel.trees import LabelTable, parse_tree, path_tree, random_tree, star_tree


def pairwise_weight_kernel(t1, t2, lam):
    """Third route: sum W[lcp] over all cross-tree suffix pairs."""
    maxh = max(max(t1.depth), max(t2.depth)) + 1
    w = weight_table(maxh, lam)
    sufs1 = [suffix(t1, v) for v in range(t1.n)]
    sufs2 = [suffix(t2, v) for v in range(t2.n)]
    total = 0.0
    for s1 in sufs1:
        for s2 in sufs2:
            k = 0
            while k < len(s1) and k < len(s2) and s1[k] == s2[k]:
                k += 1
            total += w[k]
    return total


class TestParams:
    @pytest.mark.parametrize("lam", [0.0, -0.5, 1.0001, 2.0])
    def test_out_of_range(self, lam):
        with pytest.raises(ValueError):
            KernelParams(lam=lam)

    def test_boundary_one_allowed(self):
        assert KernelParams(lam=1.0).lam == 1.0

    def test_unknown_builder_rejected(self):
        t = parse_tree("a(b)")
        with pytest.raises(ValueError, match="linaer"):
            subpath_kernel(t, t, KernelParams(), builder="linaer")


class TestWeightTable:
    def test_unit_decay_counts_lengths(self):
        assert weight_table(5, 1.0).tolist() == [0, 1, 2, 3, 4, 5]

    def test_half_decay(self):
        w = weight_table(3, 0.5)
        assert w[3] == pytest.approx(0.875, abs=0)
        assert w.tolist() == [0.0, 0.5, 0.75, 0.875]

    def test_matches_closed_form(self):
        lam = 0.9
        w = weight_table(50, lam)
        for n in (1, 10, 50):
            closed = lam * (1 - lam**n) / (1 - lam)
            assert rel_close(w[n], closed, 1e-12)

    def test_increment_is_power(self):
        w = weight_table(30, 0.7)
        for n in range(1, 31):
            assert rel_close(w[n] - w[n - 1], 0.7**n, 1e-12)


def brute_lcp_intervals(lcp):
    """(depth, lb, rb, enclosing) of every maximal rank range, enumerated.

    A range [lb, rb) of two or more ranks is an interval of depth d when
    its smallest inner boundary is d > 0 and both boundaries just outside
    it (0 past either end) are below d.  Sorted in closing order: by rb,
    deeper first.
    """
    b = lcp[:-1].tolist()
    n = len(lcp)
    found = []
    for lb in range(n):
        for rb in range(lb + 2, n + 1):
            d = min(b[lb:rb - 1])
            left = b[lb - 1] if lb > 0 else 0
            right = b[rb - 1] if rb < n else 0
            if d > 0 and left < d and right < d:
                found.append((d, lb, rb))
    out = []
    for d, lb, rb in found:
        around = [e for e, lo, hi in found if lo <= lb and rb <= hi and e < d]
        out.append((d, lb, rb, max(around, default=0)))
    return sorted(out, key=lambda iv: (iv[2], -iv[0]))


def lcp_of_forest(trees):
    return merged_esa(merge_forest(trees)).lcp


class TestLcpIntervals:
    # The brute-force cases have fewer runs than the default cut-off, so
    # there only the stack runs; at a cut-off of 3 the numpy peel runs too.
    CUTOFFS = (kernel_module._PEEL_MIN_RUNS, 3)

    def check(self, lcp):
        want = brute_lcp_intervals(np.asarray(lcp))
        for cutoff in self.CUTOFFS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel_module, "_PEEL_MIN_RUNS", cutoff)
                got = lcp_intervals(np.asarray(lcp, np.int64))
            assert all(a.dtype == np.int64 for a in got)
            assert list(zip(*(a.tolist() for a in got))) == want, cutoff

    def test_single_rank_and_empty(self):
        self.check([-1])
        self.check(np.empty(0, np.int64))

    def test_random_forests(self):
        rng = random.Random(11)
        for i in range(60):
            sig = rng.choice([1, 2, 3, 5])
            trees = [random_tree(rng.randint(1, 12), sig, 100 * i + k) for k in range(rng.randint(1, 3))]
            self.check(lcp_of_forest(trees))

    @pytest.mark.parametrize("make", [
        lambda n, rng: path_tree(n),
        lambda n, rng: path_tree(n, [rng.randrange(2) for _ in range(n)]),
        lambda n, rng: star_tree(n),
        lambda n, rng: star_tree(n, [rng.randrange(2) for _ in range(n)]),
        lambda n, rng: random_tree(n, 1, rng.randrange(1000)),
    ], ids=["path-sigma1", "path-sigma2", "star", "star-sigma2", "random-sigma1"])
    def test_degenerate_shapes(self, make):
        rng = random.Random(12)
        for n in (1, 2, 3, 8, 30):
            self.check(lcp_of_forest([make(n, rng)]))
            self.check(lcp_of_forest([make(n, rng), make(n // 2 + 1, rng)]))

    def test_tied_suffixes(self):
        # identical trees: every suffix ties with its copies at full length
        t = random_tree(10, 2, 5)
        for copies in (2, 3):
            self.check(lcp_of_forest([t] * copies))

    def test_tied_paths(self):
        # coin paths sharing their root-ward labels tie on every suffix of
        # the shared part: deep nested intervals for the peel's sort order
        rng = random.Random(15)
        for shared in (4, 15, 30):
            common = [rng.randrange(2) for _ in range(shared)]
            self.check(lcp_of_forest([path_tree(shared + k, common + [rng.randrange(2) for _ in range(k)])
                                      for k in (8, 20)]))

    def test_arbitrary_arrays(self):
        rng = random.Random(13)
        for _ in range(200):
            b = [rng.randint(0, 4) for _ in range(rng.randint(0, 25))]
            self.check(b + [-1])

    @pytest.mark.parametrize("make", [
        lambda n, rng: (random_tree(n, 5, 21), random_tree(n, 5, 22)),
        lambda n, rng: (random_tree(n, 1, 23), random_tree(n, 1, 24)),
        lambda n, rng: tuple(path_tree(n, [rng.randrange(2) for _ in range(n)]) for _ in "ab"),
        lambda n, rng: (star_tree(n), random_tree(n, 2, 25)),
    ], ids=["sigma5", "sigma1", "paths", "star-sigma2"])
    def test_large_pairs_peel_like_stack(self, make, monkeypatch):
        # 2^12-node pairs: the peel runs at the default cut-off (but for
        # sigma = 1, whose few runs stay under it) and must give the pure
        # stack's arrays, dtypes and order.
        lcp = lcp_of_forest(make(1 << 12, random.Random(14)))
        peeled = lcp_intervals(lcp)
        monkeypatch.setattr(kernel_module, "_PEEL_MIN_RUNS", lcp.size + 2)
        for a, b in zip(peeled, lcp_intervals(lcp)):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)


class TestMerge:
    def test_two_singletons(self):
        table = LabelTable()
        m = merge_trees(parse_tree("a", table), parse_tree("b", table))
        assert m.labels.tolist() == [0, 1]
        assert m.parent.tolist() == [-1, -1]
        assert m.depth.tolist() == [0, 0]
        assert m.source.tolist() == [0, 1]

    def test_component_sizes(self):
        t1, t2 = random_tree(9, 2, 0), random_tree(4, 2, 1)
        m = merge_trees(t1, t2)
        assert len(m.labels) == t1.n + t2.n
        assert m.source.tolist() == [0] * t1.n + [1] * t2.n
        assert m.parent[t1.n:].tolist() == [-1] + [p + t1.n for p in t2.parent[1:].tolist()]
        assert m.depth.tolist() == t1.depth.tolist() + t2.depth.tolist()


class TestFrozenValues:
    def test_identical_singletons(self):
        k = subpath_kernel(parse_tree("a"), parse_tree("a"), KernelParams(lam=1.0))
        assert k == 1.0

    def test_disjoint_alphabets_exact_zero(self):
        table = LabelTable()
        k = subpath_kernel(parse_tree("a", table), parse_tree("b", table),
                           KernelParams(lam=0.5))
        assert k == 0.0 and math.copysign(1.0, k) == 1.0

    def test_chain_pair_half_decay(self):
        t = parse_tree("a(b)")
        assert subpath_kernel(t, t, KernelParams(lam=0.5)) == pytest.approx(1.25, abs=1e-15)

    def test_asymmetric_pair_unit_decay(self):
        table = LabelTable()
        k = subpath_kernel(parse_tree("a(b,b)", table), parse_tree("a(b)", table),
                           KernelParams(lam=1.0))
        assert k == pytest.approx(5.0, abs=1e-12)

    def test_oracle_agrees_on_frozen_cases(self):
        table = LabelTable()
        cases = [("a", "a", 1.0), ("a(b)", "a(b)", 0.5), ("a(b,b)", "a(b)", 1.0)]
        for a, b, lam in cases:
            t1, t2 = parse_tree(a, table), parse_tree(b, table)
            assert rel_close(subpath_kernel(t1, t2, KernelParams(lam=lam)),
                             subpath_kernel_oracle(t1, t2, lam), 1e-12)


class TestPinnedValues:
    # float.hex values of the parent release's stack sweep: the interval
    # sum must keep its order of float additions, which lam = 0.7 exposes
    # (lam = 0.5 and 1e-200 round the same in any order on these inputs)
    @staticmethod
    def pairs():
        rng = random.Random(8)
        return {
            "sigma3": (random_tree(300, 3, 11), random_tree(280, 3, 12)),
            "sigma1": (random_tree(200, 1, 13), random_tree(250, 1, 14)),
            "paths": (path_tree(150, [k % 2 for k in range(150)]),
                      path_tree(170, [rng.randrange(2) for _ in range(170)])),
            "star-random": (star_tree(100), random_tree(120, 2, 15)),
            # large enough that lcp_intervals peels before its stack pass
            "sigma3-large": (random_tree(1 << 12, 3, 16), random_tree(1 << 12, 3, 17)),
            "paths-large": tuple(path_tree(1 << 12, [rng.randrange(2) for _ in range(1 << 12)])
                                 for _ in "ab"),
        }

    PINNED = {
        "sigma3": ("0x1.0221f80000000p+14", "0x1.4d420d87e963bp-650", "0x1.8640f877b9f5bp+14"),
        "sigma1": ("0x1.709bb18000000p+15", "0x1.2b010d3e1cf55p-649", "0x1.6e2500252dcdcp+16"),
        "paths": ("0x1.0480600000000p+13", "0x1.30fbf3e850bcdp-651", "0x1.9e963f6fd21fep+13"),
        "star-random": ("0x1.8920000000000p+11", "0x1.fb1c686126df9p-653", "0x1.2483333333333p+12"),
        "sigma3-large": ("0x1.9957f71800000p+21", "0x1.052f1b7a93544p-642", "0x1.37501c7177e57p+22"),
        "paths-large": ("0x1.554aac88cde20p+22", "0x1.87ee4c07bff96p-642", "0x1.139fa61da9d5ap+23"),
    }

    def test_values_bit_identical(self):
        for name, (t1, t2) in self.pairs().items():
            got = tuple(subpath_kernel(t1, t2, KernelParams(lam=lam)).hex() for lam in (0.5, 1e-200, 0.7))
            assert got == self.PINNED[name], name


class TestDifferential:
    def test_against_enumeration_oracle(self):
        rng = random.Random(0)
        for i in range(200):
            sig = rng.choice([1, 2, 5, 26])
            t1 = random_tree(rng.randint(1, 64), sig, 2 * i)
            t2 = random_tree(rng.randint(1, 64), sig, 2 * i + 1)
            lam = rng.choice([0.25, 0.5, 1.0])
            k = subpath_kernel(t1, t2, KernelParams(lam=lam))
            assert rel_close(k, subpath_kernel_oracle(t1, t2, lam), 1e-9)

    def test_against_pairwise_weight_oracle(self):
        rng = random.Random(1)
        for i in range(40):
            t1 = random_tree(rng.randint(1, 40), rng.choice([1, 3]), 31 * i)
            t2 = random_tree(rng.randint(1, 40), rng.choice([1, 3]), 31 * i + 5)
            lam = rng.choice([0.5, 1.0])
            k = subpath_kernel(t1, t2, KernelParams(lam=lam))
            assert rel_close(k, pairwise_weight_kernel(t1, t2, lam), 1e-9)

    def test_builders_agree(self):
        rng = random.Random(2)
        for i in range(30):
            t1 = random_tree(rng.randint(1, 80), 4, 7 * i)
            t2 = random_tree(rng.randint(1, 80), 4, 7 * i + 3)
            a = subpath_kernel(t1, t2, KernelParams(lam=0.5), builder="linear")
            b = subpath_kernel(t1, t2, KernelParams(lam=0.5), builder="reference")
            assert a == b

    def test_self_kernel_positive(self):
        for i in range(10):
            t = random_tree(random.Random(i).randint(1, 30), 3, i)
            assert subpath_kernel(t, t, KernelParams(lam=0.5)) > 0


class TestAlgebraicInvariants:
    def test_symmetry(self):
        rng = random.Random(3)
        for i in range(50):
            t1 = random_tree(rng.randint(1, 50), 3, 11 * i)
            t2 = random_tree(rng.randint(1, 50), 3, 11 * i + 1)
            p = KernelParams(lam=0.5)
            assert rel_close(subpath_kernel(t1, t2, p), subpath_kernel(t2, t1, p), 1e-12)

    def test_unordered_invariance(self):
        rng = random.Random(4)
        for i in range(40):
            t1 = random_tree(rng.randint(2, 50), 3, 13 * i)
            t2 = random_tree(rng.randint(2, 50), 3, 13 * i + 1)
            p = KernelParams(lam=0.5)
            base = subpath_kernel(t1, t2, p)
            shuffled = subpath_kernel(shuffle_children(t1, i), shuffle_children(t2, i + 99), p)
            assert rel_close(base, shuffled, 1e-12)

    def test_tie_break_invariance(self):
        # same-label siblings reorder SA ties; kernel must not move
        table = LabelTable()
        t1 = parse_tree("a(b(c),b(c),b)", table)
        t2 = parse_tree("a(b,b(c))", table)
        p = KernelParams(lam=0.5)
        base = subpath_kernel(t1, t2, p)
        for s in range(5):
            assert rel_close(base, subpath_kernel(shuffle_children(t1, s), t2, p), 1e-12)

    def test_decay_polynomial_coefficients(self):
        # K as a polynomial in lam: coefficients are integer pair counts by
        # shared-prefix length; evaluate at several lam against the sweep
        rng = random.Random(6)
        for i in range(20):
            t1 = random_tree(rng.randint(1, 15), 2, 23 * i)
            t2 = random_tree(rng.randint(1, 15), 2, 23 * i + 1)
            c1 = _prefix_counts(t1)
            c2 = _prefix_counts(t2)
            coeff: dict[int, int] = {}
            for s, a in c1.items():
                b = c2.get(s)
                if b:
                    coeff[len(s)] = coeff.get(len(s), 0) + a * b
            for lam in (0.25, 0.5, 1.0):
                want = sum(cnt * lam**k for k, cnt in coeff.items())
                got = subpath_kernel(t1, t2, KernelParams(lam=lam))
                assert rel_close(got, want, 1e-12)

    def test_single_symbol_singletons_scale_linearly(self):
        table = LabelTable()
        t1 = parse_tree("a", table)
        t2 = parse_tree("a", table)
        for lam in (0.25, 0.5, 1.0):
            assert subpath_kernel(t1, t2, KernelParams(lam=lam)) == pytest.approx(lam)


class TestGram:
    def test_single_tree(self):
        t = parse_tree("a(b)")
        p = KernelParams(lam=0.5)
        g = gram_matrix([t], p)
        assert g == [[subpath_kernel(t, t, p)]]
        gn = gram_matrix([t], p, normalize=True)
        assert gn[0][0] == pytest.approx(1.0)

    def test_symmetric_exactly(self):
        trees = [random_tree(random.Random(i).randint(1, 30), 3, i) for i in range(8)]
        g = gram_matrix(trees, KernelParams(lam=0.5))
        for i in range(8):
            for j in range(8):
                assert g[i][j] == g[j][i]

    def test_normalized_diagonal(self):
        trees = [random_tree(10 + i, 3, i) for i in range(5)]
        g = gram_matrix(trees, KernelParams(lam=0.5), normalize=True)
        for i in range(5):
            assert g[i][i] == pytest.approx(1.0)
            for j in range(5):
                assert -1.0 - 1e-9 <= g[i][j] <= 1.0 + 1e-9

    def test_duplicate_trees_against_oracle(self):
        # identical trees tie on every suffix across the pair, diagonal
        # entries on every suffix of the tree with itself
        a, b = random_tree(12, 2, 400), random_tree(9, 2, 401)
        trees = [a, b, a, parse_tree("a"), b, a, parse_tree("a")]
        lam = 0.5
        g = gram_matrix(trees, KernelParams(lam=lam))
        for i, ti in enumerate(trees):
            for j, tj in enumerate(trees):
                assert rel_close(g[i][j], subpath_kernel_oracle(ti, tj, lam), 1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1e-200])
    def test_normalize_bit_identical_to_elementwise_formula(self, lam):
        # lam = 1e-200 underflows every diag[i] * diag[j] to 0: the d > 0 guard
        trees = [random_tree(random.Random(i).randint(1, 40), 3, i) for i in range(9)]
        g = gram_matrix(trees, KernelParams(lam=lam))
        gn = gram_matrix(trees, KernelParams(lam=lam), normalize=True)
        for i in range(9):
            for j in range(9):
                d = math.sqrt(g[i][i] * g[j][j])
                want = g[i][j] / d if d > 0 else 0.0
                assert type(gn[i][j]) is float and gn[i][j].hex() == want.hex()

    def test_positive_semidefinite(self):
        trees = [random_tree(random.Random(100 + i).randint(1, 40), 4, 100 + i)
                 for i in range(30)]
        g = np.array(gram_matrix(trees, KernelParams(lam=0.5)))
        eig = np.linalg.eigvalsh(g)
        assert eig.min() >= -1e-8 * np.trace(g)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("size", [0, 1, 2, 10])
    def test_parallel_matches_serial(self, size, normalize):
        # 0 and 1 trees leave fewer entries than workers: jobs=2 runs serially
        trees = [random_tree(random.Random(200 + i).randint(1, 25), 3, 200 + i)
                 for i in range(size)]
        p = KernelParams(lam=0.5)
        serial = gram_matrix(trees, p, normalize=normalize, jobs=1)
        parallel = gram_matrix(trees, p, normalize=normalize, jobs=2)
        assert len(serial) == len(parallel) == size
        for row_s, row_p in zip(serial, parallel):
            assert len(row_s) == len(row_p) == size
            for a, b in zip(row_s, row_p):
                assert type(a) is float and type(b) is float
                assert a.hex() == b.hex()

    def test_jobs_below_one_rejected(self):
        t = parse_tree("a(b)")
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                gram_matrix([t, t], KernelParams(lam=0.5), jobs=jobs)

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(kernel_module.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(kernel_module, "ProcessPoolExecutor", no_pool)
        trees = [random_tree(8 + i, 3, 300 + i) for i in range(4)]
        p = KernelParams(lam=0.5)
        assert gram_matrix(trees, p, jobs=8) == gram_matrix(trees, p, jobs=1)
