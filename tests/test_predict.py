"""Master-index prediction: interval-tree annotations, suffix links,
matching statistics, and equivalence with the direct kernel sum."""

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_match_lengths, rel_close, shuffle_children
from oracles import children, scan_tree
from subpath_kernel.kernel import KernelParams, merged_esa, subpath_kernel
from subpath_kernel.predict import (
    MasterIndex,
    SupportSet,
    _intervals,
    build_master_index,
    load_model,
    matching_statistics,
    predict,
    predict_direct,
    save_model,
)
from subpath_kernel.trees import (
    LabelTable,
    Tree,
    TreeParseError,
    parse_tree,
    path_tree,
    random_tree,
    star_tree,
)


def make_sv(m, max_n, sigma, seed, lam=0.5, signed=False, bias=0.0):
    rng = random.Random(seed)
    trees = [random_tree(rng.randint(1, max_n), sigma, seed * 1000 + j) for j in range(m)]
    alphas = [rng.uniform(-2, 2) if signed else 1.0 for _ in range(m)]
    return SupportSet(trees=trees, alphas=alphas, bias=bias, params=KernelParams(lam=lam))


def caterpillar(spine: int, sigma: int, seed: int) -> Tree:
    """A spine of ``spine`` nodes, each carrying 0-2 legs of 1-3 nodes.

    Children are shuffled, so in descending id order the matching sweep
    jumps between legs hanging at every depth of the spine.
    """
    rng = random.Random(seed)
    parent = [-1]
    top = 0
    for _ in range(spine - 1):
        for _ in range(rng.randint(0, 2)):
            leg = rng.randint(1, 3)
            parent += [top] + list(range(len(parent), len(parent) + leg - 1))
        parent.append(top)
        top = len(parent) - 1
    labels = [rng.randrange(sigma) for _ in parent]
    return shuffle_children(Tree.from_parents(labels, parent), seed)


def interval_ranges(idx: MasterIndex) -> tuple[list[int], list[int]]:
    """Each interval's rank range [lb, rb), recomputed from the suffix array.

    The intervals of ``_intervals`` are put in the documented id order,
    (depth, lb), and their depths must be the index's.
    """
    arr = merged_esa(idx.merged)
    depth, lb, rb, _ = _intervals(arr.lcp, idx.merged.depth[arr.sa] + 1)
    order = np.lexsort((lb, depth))
    assert depth[order].tolist() == idx.iv_depth
    return lb[order].tolist(), rb[order].tolist()


def interval_string(idx: MasterIndex, sa: np.ndarray, lbs: list[int], c: int) -> list[int]:
    v = sa[lbs[c]]
    out = []
    while v != -1 and len(out) < idx.iv_depth[c]:
        out.append(idx.merged.labels[v])
        v = idx.merged.parent[v]
    return out


def check_locus(idx: MasterIndex, t: Tree, st) -> None:
    """Each locus is the one interval whose edge holds the match's end.

    For a match of length q > 0 the locus x must satisfy depth(parent(x))
    < q <= depth(x) and spell the first q labels of the node's suffix;
    given the length, that fixes x.  A node that matches nothing has the
    root as its locus.
    """
    def spell(labels, parent, v, q):
        out = []
        while v != -1 and len(out) < q:
            out.append(labels[v])
            v = parent[v]
        return out

    sa = merged_esa(idx.merged).sa.tolist()
    iv_lb, _ = interval_ranges(idx)
    master = idx.merged.labels.tolist(), idx.merged.parent.tolist()
    tree = t.labels.tolist(), t.parent.tolist()
    for v, (x, q) in enumerate(zip(st.locus, st.lengths)):
        if q == 0:
            assert x == 0
        else:
            assert idx.iv_depth[idx.iv_parent[x]] < q <= idx.iv_depth[x]
            assert spell(*master, sa[iv_lb[x]], q) == spell(*tree, v, q)


def check_interval_structure(idx: MasterIndex) -> None:
    """The index intervals are exactly the lcp intervals, parents nested.

    An interval of depth d must be a maximal rank range whose suffixes all
    share a prefix of length d: every suffix is at least d long, every
    inner boundary lcp is >= d, and the boundaries just outside are < d.
    Every positive boundary lcp and every full suffix must lie inside an
    interval of its depth, and each parent must be the smallest enclosing
    interval, found here by a containment stack over the intervals.  Each
    non-root interval's edge node lies on the suffix at its first rank, at
    the parent's depth, and its label leads from the parent to it.
    """
    arr = merged_esa(idx.merged)
    n = arr.sa.size
    lcp = arr.lcp[:-1]
    hs = idx.merged.depth[arr.sa] + 1
    m = idx.n_intervals
    iv_lb, iv_rb = interval_ranges(idx)
    assert (idx.iv_depth[0], iv_lb[0], iv_rb[0], idx.iv_parent[0]) == (0, 0, n, -1)
    covered = np.zeros(lcp.size, bool)
    located = np.zeros(n, bool)
    for c in range(1, m):
        d, lb, rb = idx.iv_depth[c], iv_lb[c], iv_rb[c]
        assert 0 <= lb < rb <= n and d > 0
        assert hs[lb:rb].min() >= d
        assert lcp[lb:rb - 1].min(initial=d) >= d
        assert lb == 0 or lcp[lb - 1] < d
        assert rb == n or lcp[rb - 1] < d
        covered[lb:rb - 1] |= lcp[lb:rb - 1] == d
        located[lb:rb] |= hs[lb:rb] == d
    assert covered[lcp > 0].all() and located.all()
    assert len({(idx.iv_depth[c], iv_lb[c]) for c in range(m)}) == m
    stack: list[int] = []
    for c in sorted(range(m), key=lambda c: (iv_lb[c], -iv_rb[c], idx.iv_depth[c])):
        while stack and iv_rb[stack[-1]] < iv_rb[c]:
            stack.pop()
        assert idx.iv_parent[c] == (stack[-1] if stack else -1)
        stack.append(c)
    labels, up = idx.merged.labels.tolist(), idx.merged.parent.tolist()
    assert idx.iv_edge[0] == -1
    for c in range(1, m):
        p = idx.iv_parent[c]
        v = int(arr.sa[iv_lb[c]])
        for _ in range(idx.iv_depth[p]):
            v = up[v]
        assert idx.iv_edge[c] == v
        assert idx.iv_children[p][labels[v]] == c


class TestIndexStructure:
    def test_intervals_are_maximal_and_nested(self):
        for seed in range(30):
            rng = random.Random(seed)
            sv = make_sv(rng.randint(1, 12), 40, rng.choice([1, 2, 3, 5]), 3000 + seed)
            check_interval_structure(build_master_index(sv))

    @pytest.mark.parametrize("trees", [
        [path_tree(30), path_tree(17)],
        [star_tree(25), star_tree(4)],
        [path_tree(12), star_tree(10), path_tree(1)],
        [path_tree(4097)],
    ], ids=["paths", "stars", "mixed", "path-4097"])
    def test_degenerate_shapes(self, trees):
        sv = SupportSet(trees=trees, alphas=[1.0] * len(trees), bias=0.0,
                        params=KernelParams(lam=0.5))
        idx = build_master_index(sv)
        check_interval_structure(idx)
        assert all(p < c for c, p in enumerate(idx.iv_parent))

    def test_empty_support_set_predicts_bias(self):
        sv = SupportSet(trees=[], alphas=[], bias=-0.75, params=KernelParams(lam=0.5))
        idx = build_master_index(sv)
        assert idx.n_intervals == 1
        check_interval_structure(idx)
        for t in (parse_tree("a"), random_tree(20, 3, 1)):
            assert predict(idx, t) == -0.75
            assert matching_statistics(idx, t).lengths == [0] * t.n

    def test_single_node_support(self):
        table = LabelTable()
        sv = SupportSet(trees=[parse_tree("a", table)], alphas=[1.0], bias=0.0,
                        params=KernelParams(lam=1.0))
        idx = build_master_index(sv)
        # root plus the one suffix [a] as a depth-1 leaf interval
        assert idx.n_intervals == 2
        assert idx.iv_depth == [0, 1]
        assert idx.iv_wv[1] == 1.0

    def test_duplicate_tree_adds_no_interval(self):
        # a second copy of a tree ties with the first on every suffix, so
        # the interval set stays that of the tree alone
        for seed in range(10):
            t = random_tree(random.Random(seed).randint(1, 40), 1 + seed % 3, 4000 + seed)
            one = build_master_index(SupportSet(trees=[t], alphas=[1.0], bias=0.0,
                                                params=KernelParams(lam=0.5)))
            two = build_master_index(SupportSet(trees=[t, t], alphas=[1.0, -1.0], bias=0.0,
                                                params=KernelParams(lam=0.5)))
            assert two.n_intervals == one.n_intervals
            check_interval_structure(two)

    def test_interval_count_bound(self):
        for seed in range(20):
            sv = make_sv(random.Random(seed).randint(1, 10), 30, 2, seed)
            idx = build_master_index(sv)
            n_ranks = idx.merged.labels.size
            assert idx.n_intervals <= 2 * n_ranks - 1

    def test_children_partition_parent(self):
        sv = make_sv(5, 25, 2, 3)
        idx = build_master_index(sv)
        iv_lb, iv_rb = interval_ranges(idx)
        for c in range(idx.n_intervals):
            kids = sorted(idx.iv_children[c].values(), key=iv_lb.__getitem__)
            for k in kids:
                assert idx.iv_parent[k] == c
                assert idx.iv_depth[k] > idx.iv_depth[c]
                assert iv_lb[c] <= iv_lb[k] < iv_rb[k] <= iv_rb[c]
            for a, b in zip(kids, kids[1:]):
                assert iv_rb[a] <= iv_lb[b]

    def test_leaves_share_one_empty_children_dict(self):
        sv = make_sv(6, 30, 2, 8)
        idx = build_master_index(sv)
        has_children = set(idx.iv_parent[1:])
        leaves = [c for c in range(idx.n_intervals) if c not in has_children]
        assert leaves and all(idx.iv_children[c] is idx.iv_children[leaves[0]] for c in leaves)
        assert all(idx.iv_children[c] for c in has_children)
        for t in (random_tree(40, 2, s) for s in range(10)):
            predict(idx, t)
        assert idx.iv_children[leaves[0]] == {}

    def test_wv_root_counts_alpha_mass(self):
        sv = make_sv(8, 40, 3, 5, signed=True)
        idx = build_master_index(sv)
        want = sum(a * t.n for a, t in zip(sv.alphas, sv.trees))
        assert rel_close(idx.iv_wv[0], want, 1e-12)

    def test_wv_against_direct_rank_scan(self):
        sv = make_sv(6, 30, 2, 7, signed=True)
        idx = build_master_index(sv)
        sa = merged_esa(idx.merged).sa
        iv_lb, iv_rb = interval_ranges(idx)
        for c in range(idx.n_intervals):
            direct = sum(
                sv.alphas[idx.merged.source[sa[r]]]
                for r in range(iv_lb[c], iv_rb[c])
            )
            assert rel_close(idx.iv_wv[c], direct, 1e-12)

    def test_zero_alphas_zero_annotations(self):
        sv = make_sv(4, 20, 2, 9)
        sv = SupportSet(trees=sv.trees, alphas=[0.0] * 4, bias=0.25, params=sv.params)
        idx = build_master_index(sv)
        assert all(w == 0.0 for w in idx.iv_wv)
        assert all(v == 0.0 for v in idx.iv_val)
        t = random_tree(15, 2, 77)
        assert predict(idx, t) == 0.25

    def test_val_recurrence(self):
        sv = make_sv(6, 25, 3, 11, signed=True)
        idx = build_master_index(sv)
        w = idx.weights
        for c in range(1, idx.n_intervals):
            p = idx.iv_parent[c]
            want = idx.iv_val[p] + (idx.iv_wv[p] - idx.iv_wv[c]) * w[idx.iv_depth[p]]
            assert rel_close(idx.iv_val[c], want, 1e-12)


class TestSuffixLinks:
    def test_depth_drops_by_one_and_string_is_shifted(self):
        checked = 0
        for seed in range(25):
            sv = make_sv(random.Random(seed).randint(1, 6), 12,
                         random.Random(seed + 1).randint(1, 3), seed)
            idx = build_master_index(sv)
            sa = merged_esa(idx.merged).sa
            iv_lb, _ = interval_ranges(idx)
            for c in range(1, idx.n_intervals):
                s = interval_string(idx, sa, iv_lb, c)
                tgt = idx.iv_slink[c]
                assert idx.iv_depth[tgt] == idx.iv_depth[c] - 1
                assert interval_string(idx, sa, iv_lb, tgt) == s[1:]
                checked += 1
        assert checked > 200


class TestMatchingStatistics:
    def test_identical_tree_matches_fully(self):
        t = random_tree(30, 3, 21)
        sv = SupportSet(trees=[t], alphas=[1.0], bias=0.0, params=KernelParams(lam=0.5))
        idx = build_master_index(sv)
        st = matching_statistics(idx, t)
        assert st.lengths == [d + 1 for d in t.depth]

    def test_disjoint_labels_match_nothing(self):
        table = LabelTable()
        sv = SupportSet(trees=[parse_tree("a(b,c)", table)], alphas=[1.0], bias=0.0,
                        params=KernelParams(lam=1.0))
        idx = build_master_index(sv)
        t = parse_tree("x(y,z)", table)
        st = matching_statistics(idx, t)
        assert st.lengths == [0, 0, 0]
        assert st.locus == [0, 0, 0]

    def test_against_naive_oracle(self):
        cases = []
        for i in range(60):
            rng = random.Random(400 + i)
            sv = make_sv(rng.randint(1, 8), 25, rng.choice([1, 2, 5]), 500 + i)
            cases.append((sv, random_tree(rng.randint(1, 30), rng.choice([1, 2, 5]), 900 + i)))
        for sv, t in cases:
            idx = build_master_index(sv)
            st = matching_statistics(idx, t)
            assert st.lengths == naive_match_lengths(sv.trees, t)
            check_locus(idx, t, st)

    def test_no_skip_fallback_agrees(self):
        # Sigma-2 sweeps, where skips fire often. There is no skip-less
        # sweep left to compare with, so the result of the sweep with skips
        # is checked against the naive matcher and the locus oracle.
        for i in range(40):
            rng = random.Random(600 + i)
            sv = make_sv(rng.randint(1, 8), 25, 2, 700 + i)
            idx = build_master_index(sv)
            t = random_tree(rng.randint(1, 30), 2, 800 + i)
            st = matching_statistics(idx, t)
            assert st.lengths == naive_match_lengths(sv.trees, t)
            check_locus(idx, t, st)

    def test_root_path_inputs_against_naive_oracle(self):
        # inputs deeper than the support, and inputs whose descending ids
        # jump between deep branches
        alternating = [k % 2 for k in range(2000)]
        cases = [([path_tree(500, alternating[:500])], path_tree(2000, alternating))]
        for seed in range(3):
            rng = random.Random(seed)
            support = [caterpillar(rng.randint(10, 60), 2, 10 * seed + k) for k in range(3)]
            cases.append((support, caterpillar(rng.randint(200, 330), 2, 10 * seed + 9)))
        cases.append(([random_tree(300, 1, 31), random_tree(100, 1, 32)], random_tree(1000, 1, 33)))
        for support, t in cases:
            sv = SupportSet(trees=support, alphas=[1.0] * len(support), bias=0.0,
                            params=KernelParams(lam=0.5))
            idx = build_master_index(sv)
            st = matching_statistics(idx, t)
            assert st.lengths == naive_match_lengths(support, t)
            check_locus(idx, t, st)

    @pytest.mark.parametrize("sigma", [1, 2])
    def test_long_edge_masters(self, sigma):
        # Path support trees leave intervals with long edges, so matches
        # compare master labels mid-edge: right after a descent, and right
        # after a resume that lands mid-edge, where the cursor comes from
        # the best child.
        rng = random.Random(70 + sigma)
        for i in range(25):
            support = []
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(5, 60)
                support.append(path_tree(k, [rng.randrange(sigma) for _ in range(k)]))
            sv = SupportSet(trees=support, alphas=[rng.uniform(-2, 2) for _ in support],
                            bias=0.25, params=KernelParams(lam=0.7))
            idx = build_master_index(sv)
            k = rng.randint(1, 90)
            inputs = [path_tree(k, [rng.randrange(sigma) for _ in range(k)]),
                      random_tree(rng.randint(1, 60), sigma, 7000 + i),
                      caterpillar(rng.randint(5, 40), sigma, 7100 + i)]
            for t in inputs:
                st = matching_statistics(idx, t)
                assert st.lengths == naive_match_lengths(support, t)
                check_locus(idx, t, st)
                assert rel_close(predict(idx, t), predict_direct(sv, t), 1e-9)

    @pytest.mark.parametrize("sigma, make_input, counters", [
        (2, lambda: random_tree(300, 2, 1301), (57, 973, 157, 180)),
        (5, lambda: caterpillar(200, 5, 1302), (232, 1258, 367, 396)),
        (1, lambda: random_tree(400, 1, 1303), (0, 1398, 191, 191)),
    ], ids=["sigma2-random", "sigma5-caterpillar", "sigma1-random"])
    def test_operation_counters_pinned(self, sigma, make_input, counters):
        # (comparisons, descents, slinks, skips) of fixed sweeps: how the
        # sweep reads labels must not change the steps it takes
        idx = build_master_index(make_sv(12, 60, sigma, 1200 + sigma, signed=True))
        st = matching_statistics(idx, make_input())
        assert (st.comparisons, st.descents, st.slinks, st.skips) == counters

    def test_child_lower_bound(self):
        for i in range(40):
            rng = random.Random(50 + i)
            sv = make_sv(rng.randint(1, 10), 30, rng.choice([1, 3]), 60 + i)
            idx = build_master_index(sv)
            t = random_tree(rng.randint(2, 40), rng.choice([1, 3]), 70 + i)
            st = matching_statistics(idx, t)
            for v, kids in enumerate(children(t)):
                for c in kids:
                    assert st.lengths[v] >= st.lengths[c] - 1

    def test_locus_invariant(self):
        for i in range(20):
            sv = make_sv(4, 20, 2, 90 + i)
            idx = build_master_index(sv)
            t = random_tree(25, 2, 95 + i)
            check_locus(idx, t, matching_statistics(idx, t))

    def test_pure_read_repeatable(self):
        sv = make_sv(5, 20, 2, 33)
        idx = build_master_index(sv)
        t = random_tree(20, 2, 44)
        a = matching_statistics(idx, t)
        b = matching_statistics(idx, t)
        assert a.lengths == b.lengths and a.locus == b.locus


class TestPredict:
    def test_two_support_trees_unit_decay(self):
        table = LabelTable()
        sv = SupportSet(trees=[parse_tree("a(b)", table), parse_tree("a", table)],
                        alphas=[1.0, 2.0], bias=0.0, params=KernelParams(lam=1.0))
        idx = build_master_index(sv)
        assert predict(idx, parse_tree("a(b)", table)) == pytest.approx(5.0, abs=1e-12)

    def test_single_support_equals_kernel(self):
        t1 = random_tree(20, 3, 1)
        t2 = random_tree(25, 3, 2)
        p = KernelParams(lam=0.5)
        sv = SupportSet(trees=[t1], alphas=[1.0], bias=0.0, params=p)
        idx = build_master_index(sv)
        assert rel_close(predict(idx, t2), subpath_kernel(t1, t2, p), 1e-12)

    def test_equals_direct_randomized(self):
        for i in range(80):
            rng = random.Random(7000 + i)
            sv = make_sv(rng.randint(1, 20), 40, rng.choice([1, 2, 5]), 7100 + i,
                         lam=rng.choice([0.25, 0.5, 1.0]), signed=True,
                         bias=rng.uniform(-1, 1))
            idx = build_master_index(sv)
            t = random_tree(rng.randint(1, 50), rng.choice([1, 2, 5]), 7200 + i)
            f1 = predict(idx, t)
            f2 = predict_direct(sv, t)
            assert rel_close(f1, f2, 1e-9)

    def test_cancelling_duplicate_trees_score_bias(self):
        # alphas 1 and -1 are exact, so every interval's alpha mass is an
        # exact 0 and the score must be exactly the bias
        for seed in range(20):
            rng = random.Random(8000 + seed)
            sigma = rng.choice([1, 2, 3])
            t = random_tree(rng.randint(1, 40), sigma, 8100 + seed)
            sv = SupportSet(trees=[t, t], alphas=[1.0, -1.0], bias=0.375,
                            params=KernelParams(lam=rng.choice([0.5, 0.7, 1.0])))
            idx = build_master_index(sv)
            for u in (t, random_tree(rng.randint(1, 40), sigma, 8200 + seed)):
                assert predict(idx, u) == 0.375

    def test_shaped_inputs(self):
        sv = SupportSet(trees=[path_tree(50), star_tree(40)], alphas=[1.0, -1.5],
                        bias=0.5, params=KernelParams(lam=0.5))
        idx = build_master_index(sv)
        for t in (path_tree(30), star_tree(30), path_tree(30, labels=2)):
            assert rel_close(predict(idx, t), predict_direct(sv, t), 1e-9)

    def test_deep_master_short_input(self):
        # master: tall single-label chain with an off-label node at the
        # bottom; input: short chain ending in that label — exercises the
        # resume-from-link path after a mid-edge partial match
        h, j = 120, 5
        master = Tree.from_parents([0] * h + [1], [-1] + list(range(h)))
        tin = Tree.from_parents([0] * j + [1], [-1] + list(range(j)))
        sv = SupportSet(trees=[master], alphas=[1.0], bias=0.0,
                        params=KernelParams(lam=0.5))
        idx = build_master_index(sv)
        st = matching_statistics(idx, tin)
        assert st.lengths == naive_match_lengths([master], tin)
        assert rel_close(predict(idx, tin), predict_direct(sv, tin), 1e-9)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        table = LabelTable()
        sv = SupportSet(trees=[parse_tree("a(b)", table), parse_tree("c", table)],
                        alphas=[0.5, -1.25], bias=0.75, params=KernelParams(lam=0.5))
        path = tmp_path / "model.txt"
        save_model(str(path), sv, table)
        table2 = LabelTable()
        loaded = load_model(str(path), table2)
        assert loaded.params.lam == 0.5
        assert loaded.bias == 0.75
        assert loaded.alphas == [0.5, -1.25]
        t = random_tree(20, 3, 5)
        assert rel_close(predict_direct(sv, t), predict_direct(loaded, t), 1e-12)

    def test_bias_line_optional(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("lambda 1\n1\ta(b)\n")
        sv = load_model(str(path))
        assert sv.bias == 0.0
        assert sv.params.lam == 1.0
        assert len(sv.trees) == 1

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("1\ta\n")
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("lambda 1\nno-tab-here\n")
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_errors_name_the_file_line(self, tmp_path):
        head = "# model\nlambda 0.5\n\nbias 0.25\n# rows\n1\ta\n\n"
        cases = [
            (head + "no-tab-here\n", ValueError, "model line 8:"),
            (head + "0.5x\ta\n", ValueError, "model line 8: alpha"),
            (head + "1\ta(b\n", TreeParseError, "model line 8: unbalanced brackets (byte 3)"),
            ("\nlambda x\n", ValueError, "model line 2: lambda"),
            ("lambda 2\n", ValueError, "model line 1: lam"),
            ("lambda 1\n#\nbias 1e999x\n", ValueError, "model line 3: bias"),
            ("\nbias 1\n", ValueError, "model line 2:"),
        ]
        path = tmp_path / "model.txt"
        for text, error, message in cases:
            path.write_text(text)
            with pytest.raises(error) as exc:
                load_model(str(path))
            assert str(exc.value).startswith(message)

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"lambda 0.5\nbias 0\n1\ta\n1\tb(\xff)\n")
        table = LabelTable()
        with pytest.raises(ValueError, match="^model line 4: not valid UTF-8$"):
            load_model(str(path), table)
        assert len(table) == 0

    @pytest.mark.parametrize("rows,error,message", [
        ("1\ta(b\nx\tb\n", TreeParseError, "model line 3: unbalanced brackets (byte 3)"),
        ("x\ta(b)\n1\tb(\n", ValueError, "model line 3: alpha is not a number: 'x'"),
        ("1\ta\nno-tab\n1\tb(\n", ValueError, "model line 4: expected"),
        ("1\ta\n\n1\tb((\nnan\tc\n", TreeParseError, "model line 5: expected a label (byte 2)"),
        ("1\tb(\nno-tab\n", TreeParseError, "model line 3: missing subtree (byte 2)"),
        ("1\ta\nx\tb(\n", ValueError, "model line 4: alpha is not a number: 'x'"),
    ])
    def test_first_of_two_bad_rows_is_named(self, tmp_path, rows, error, message):
        path = tmp_path / "model.txt"
        path.write_text("lambda 0.5\nbias 0.1\n" + rows)
        with pytest.raises(error) as exc:
            load_model(str(path))
        assert str(exc.value).startswith(message)

    @given(st.lists(st.tuples(st.sampled_from(["1", "1", "1", "x", None]),
                              st.one_of(st.sampled_from(["a", "b(a)", "a(b,é)"]),
                                        st.text(alphabet="ab(), é", max_size=8))),
                    max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_first_bad_row_as_read_row_by_row(self, rows):
        # The oracle reads row by row: columns, then alpha, then the tree.
        lines = ["lambda 1"] + [text if alpha is None else f"{alpha}\t{text}" for alpha, text in rows]
        want, trees = None, []
        oracle_table = LabelTable()
        oracle_table.intern("é")
        for k, ln in enumerate(lines[1:], start=2):
            parts = ln.strip().split("\t", 1)
            if parts == [""]:
                continue
            if len(parts) != 2:
                want = f"model line {k}: expected '<alpha>\\t<tree>'"
            elif parts[0] != "1":
                want = f"model line {k}: alpha is not a number: {parts[0]!r}"
            else:
                try:
                    trees.append(scan_tree(parts[1], oracle_table))
                    continue
                except TreeParseError as exc:
                    want = str(exc.located(f"model line {k}"))
            break
        table = LabelTable()
        table.intern("é")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            if want is None:
                assert load_model(str(path), table).trees == trees
            else:
                with pytest.raises(ValueError) as exc:
                    load_model(str(path), table)
                assert str(exc.value) == want
                assert table._names == ["é"]

    def test_rows_share_one_label_table(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("lambda 1\n1\ta(b)\n2\tb(a)\n")
        sv = load_model(str(path))
        assert sv.trees[0].labels.tolist() == sv.trees[1].labels.tolist()[::-1] == [0, 1]

    @pytest.mark.parametrize("text", ["lambda 1\nbias nan\n", "lambda 1\ninf\ta\n",
                                      "lambda 1\n1\ta\n-inf\tb\n", "lambda nan\n"])
    def test_non_finite_values_rejected(self, tmp_path, text):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="finite"):
            load_model(str(path))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficients_rejected(self, bad):
        t = parse_tree("a")
        with pytest.raises(ValueError, match="finite"):
            SupportSet(trees=[t], alphas=[bad], bias=0.0, params=KernelParams(lam=1.0))
        with pytest.raises(ValueError, match="finite"):
            SupportSet(trees=[t], alphas=[1.0], bias=bad, params=KernelParams(lam=1.0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SupportSet(trees=[parse_tree("a")], alphas=[1.0, 2.0], bias=0.0,
                       params=KernelParams(lam=1.0))
