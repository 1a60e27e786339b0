"""Acceptance gate for the shipping build.

Each test checks one release criterion end to end and prints a single
PASS/FAIL line with the measured margin, visible even under pytest's
output capture.  Failures are accumulated first so the line always
prints before the test goes red.

Heavy benchmark runs are shared across tests via module-scoped fixtures.
"""

import random
import time

import numpy as np
import pytest

from oracles import RmqIndex, children, leaf_count, naive_lcp
from subpath_kernel import (
    KernelParams,
    SupportSet,
    Tree,
    build_esa_linear,
    build_esa_reference,
    build_master_index,
    gram_matrix,
    matching_statistics,
    merge_forest,
    path_tree,
    predict,
    predict_direct,
    random_tree,
    star_tree,
    subpath_kernel,
    subpath_kernel_oracle,
)
from subpath_kernel import bench
from subpath_kernel.bench import bench_kernel, bench_predict

# Allowed constant for the matching-statistics work bound: measured worst
# case across adversarial shape corpora is ~2.0, so 4.0 gives 2x headroom
# without hiding a superlinear regression.
WORK_ALLOWANCE = 4.0


def report(capsys, ok: bool, name: str, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'}: {name} [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    return line


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def kernel_report():
    return bench_kernel(reps=5)


@pytest.fixture(scope="module")
def predict_report():
    return bench_predict(reps=7)


@pytest.fixture(scope="module")
def predict_corpus():
    """Randomized support sets with prebuilt indexes plus input trees.

    Every 10th case also gets path/star inputs so downstream checks see
    degenerate shapes, not just random ones.
    """
    rng = random.Random(20260804)
    cases = []
    for case in range(200):
        m = rng.randint(1, 50)
        sigma = rng.choice((2, 5, 26))
        lam = rng.choice((0.25, 0.5, 1.0))
        trees = [random_tree(rng.randint(1, 64), sigma, rng.randrange(2**32))
                 for _ in range(m)]
        alphas = [rng.uniform(-2.0, 2.0) for _ in range(m)]
        sv = SupportSet(trees=trees, alphas=alphas,
                        bias=rng.uniform(-1.0, 1.0),
                        params=KernelParams(lam=lam))
        idx = build_master_index(sv)
        inputs = [random_tree(rng.randint(1, 64), sigma, rng.randrange(2**32))
                  for _ in range(3)]
        if case % 10 == 0:
            inputs.append(path_tree(80, 0))
            inputs.append(star_tree(80, 0))
        cases.append((sv, idx, inputs))
    return cases


def test_01_kernel_matches_enumeration_oracle(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260801)
    worst = 0.0
    pairs = 0
    for sigma in (1, 2, 5, 26):
        for lam in (0.25, 0.5, 1.0):
            params = KernelParams(lam=lam)
            for _ in range(84):
                t1 = random_tree(rng.randint(1, 64), sigma, rng.randrange(2**32))
                t2 = random_tree(rng.randint(1, 64), sigma, rng.randrange(2**32))
                got = subpath_kernel(t1, t2, params)
                want = subpath_kernel_oracle(t1, t2, lam)
                worst = max(worst, rel_err(got, want))
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    line = report(capsys, ok, "kernel matches enumeration oracle",
                  f"{pairs} pairs, max rel err {worst:.2e}, {elapsed:.1f}s < 60s")
    assert ok, line


def test_02_linear_esa_equals_reference(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260802)
    mismatches = 0
    checked = 0

    def same(tree):
        nonlocal mismatches, checked
        a = build_esa_linear(tree)
        b = build_esa_reference(tree)
        if a != b:
            mismatches += 1
        checked += 1

    for _ in range(10_000):
        n = rng.randint(1, 256)
        sigma = rng.choice((1, 2, 3, 8, 26))
        same(random_tree(n, sigma, rng.randrange(2**32)))
    for n in (1, 2, 3, 17, 100, 500, 2000):
        same(path_tree(n))
        same(star_tree(n))
        same(random_tree(n, 1, n))
        if n > 2:
            same(path_tree(n, [i % 3 for i in range(n)]))
            same(star_tree(n, [i % 5 for i in range(n)]))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    line = report(capsys, ok, "linear suffix-array builder agrees with reference",
                  f"{checked} trees, {mismatches} mismatches, {elapsed:.1f}s < 120s")
    assert ok, line


def test_03_lcp_array_answers_pairwise_lcp_queries(capsys):
    rng = random.Random(20260803)
    bad = 0
    queries = 0

    def check(tree, pairs):
        nonlocal bad, queries
        esa = build_esa_linear(tree)
        rank = np.argsort(esa.sa)
        rmq = RmqIndex(esa.lcp)
        for u, v in pairs:
            p, q = rank[u], rank[v]
            if p > q:
                p, q = q, p
            got = tree.depth[u] + 1 if p == q else rmq.query(p, q - 1)
            if got != naive_lcp(tree, u, v):
                bad += 1
            queries += 1

    for _ in range(40):
        tree = random_tree(rng.randint(1, 32), rng.choice((1, 2, 4)),
                           rng.randrange(2**32))
        check(tree, [(u, v) for u in range(tree.n) for v in range(tree.n)])
    for _ in range(6):
        tree = random_tree(rng.randint(200, 400), rng.choice((2, 6)),
                           rng.randrange(2**32))
        check(tree, [(rng.randrange(tree.n), rng.randrange(tree.n))
                     for _ in range(300)])
    ok = bad == 0
    line = report(capsys, ok, "range-minimum over lcp equals direct suffix lcp",
                  f"{queries} queries, {bad} wrong")
    assert ok, line


def test_04_indexed_prediction_matches_direct_summation(capsys, predict_corpus):
    worst = 0.0
    evaluations = 0
    for sv, idx, inputs in predict_corpus:
        for t in inputs:
            worst = max(worst, rel_err(predict(idx, t), predict_direct(sv, t)))
            evaluations += 1
    ok = worst <= 1e-9
    line = report(capsys, ok, "indexed prediction matches direct kernel sum",
                  f"{evaluations} evaluations, max rel err {worst:.2e}")
    assert ok, line


def test_05_match_lengths_drop_by_at_most_one_toward_parent(capsys, predict_corpus):
    violations = 0
    nodes = 0
    for _, idx, inputs in predict_corpus:
        for t in inputs:
            lengths = matching_statistics(idx, t).lengths
            for v, kids in enumerate(children(t)):
                if kids and lengths[v] < max(lengths[c] for c in kids) - 1:
                    violations += 1
                nodes += 1
    ok = violations == 0
    line = report(capsys, ok, "match length at a node >= child match length - 1",
                  f"{nodes} nodes, {violations} violations")
    assert ok, line


def test_06_gram_matrices_are_positive_semidefinite(capsys):
    rng = random.Random(20260806)
    params = KernelParams(lam=0.5)
    worst = 0.0
    for _ in range(10):
        trees = [random_tree(rng.randint(1, 48), rng.choice((1, 3, 8)),
                             rng.randrange(2**32)) for _ in range(30)]
        g = np.array(gram_matrix(trees, params))
        trace = float(np.trace(g))
        worst = min(worst, float(np.linalg.eigvalsh(g)[0]) / trace)
    ok = worst >= -1e-8
    line = report(capsys, ok, "30-tree Gram matrices are positive semidefinite",
                  f"10 rounds, worst min-eig/trace {worst:.2e} >= -1e-8")
    assert ok, line


def test_07_kernel_runtime_scales_linearly(capsys, kernel_report):
    slope = kernel_report.slopes["linear"]
    ratio = kernel_report.ratios["linear_over_reference_at_max"]
    top = max(p.size for p in kernel_report.series["linear"])
    ok = slope <= 1.15 and ratio <= 1.0
    line = report(capsys, ok, "kernel time grows ~linearly and beats reference",
                  f"log-log slope {slope:.3f} <= 1.15, "
                  f"linear/reference at n={top} is {ratio:.3f} <= 1")
    assert ok, line


def test_07b_kernel_work_per_node_flat_in_size(capsys):
    # test_07's pairs without the clock: bench_kernel's default sizes
    # (2^12..2^17) and seeds.  Per node, the suffix-array build does one
    # pass per doubling round and the interval sweep one step per rank
    # where the lcp changes.  Seeds 7-11 read max/min 1.001-1.005; one
    # more doubling round at the larger sizes alone would read about 1.17.
    work = []
    for i, k in enumerate(range(12, 18)):
        n = 1 << k
        merged = merge_forest([random_tree(n, bench.SIGMA, 7 + 2 * i + j) for j in (0, 1)])
        stats = {}
        lcp = build_esa_linear(merged, stats).lcp
        work.append(stats["recursion_depth"] + np.count_nonzero(np.diff(lcp)) / lcp.size)
    flat = max(work) / min(work)
    ok = flat <= 1.1
    line = report(capsys, ok, "kernel work per node independent of tree size",
                  f"rounds + lcp-change share {min(work):.3f}-{max(work):.3f}, "
                  f"max/min over n {flat:.3f} <= 1.1")
    assert ok, line


def test_08_prediction_time_flat_in_support_set_count(capsys, predict_report):
    flat = predict_report.ratios["predict_flatness_vs_m"]
    direct = predict_report.slopes["direct_vs_m"]
    points = predict_report.series["predict_vs_m"]
    slowest = max(points, key=lambda p: p.seconds).size
    fastest = min(points, key=lambda p: p.seconds).size
    ok = flat <= 1.5 and 0.8 <= direct <= 1.2
    line = report(capsys, ok, "indexed prediction time independent of support count",
                  f"max/min over m is {flat:.2f} <= 1.5 (max at m={slowest}, min at m={fastest}); "
                  f"direct-sum slope {direct:.2f} in [0.8, 1.2]")
    assert ok, line


def test_08b_matching_work_flat_in_support_set_count(capsys):
    # test_08's series without the clock: bench_predict's default support
    # sets (m = 100..1000 trees of SV_N nodes, seed 11) against its fixed
    # input, each with an index of its own.
    fixed = random_tree(bench.INPUT_N, bench.SIGMA, 10)
    bound = 2 * fixed.n + (leaf_count(fixed) - 1) * fixed.height
    trees = [random_tree(bench.SV_N, bench.SIGMA, 11 + k) for k in range(1000)]
    work = []
    for m in range(100, 1001, 100):
        sv = SupportSet(trees=trees[:m], alphas=[1.0] * m, bias=0.0,
                        params=KernelParams(lam=bench.LAM))
        work.append(matching_statistics(build_master_index(sv), fixed).work)
    ok = max(work) <= WORK_ALLOWANCE * bound
    line = report(capsys, ok, "matching work on the fixed input bounded at every support count",
                  f"work {min(work)}-{max(work)} (max/min over m {max(work) / min(work):.2f}), "
                  f"max work/bound {max(work) / bound:.2f} <= {WORK_ALLOWANCE}")
    assert ok, line


def test_09_prediction_time_linear_in_input_size(capsys, predict_report):
    slope = predict_report.slopes["predict_vs_n"]
    ok = slope <= 1.3
    line = report(capsys, ok, "indexed prediction time ~linear in input size",
                  f"log-log slope {slope:.3f} <= 1.3")
    assert ok, line


def test_10_matching_work_bounded_by_size_and_shape(capsys, predict_corpus):
    def ratio(idx, t):
        stats = matching_statistics(idx, t)
        return stats.work / (2 * t.n + (leaf_count(t) - 1) * t.height)

    worst = 0.0
    runs = 0
    for _, idx, inputs in predict_corpus:
        for t in inputs:
            worst = max(worst, ratio(idx, t))
            runs += 1

    # Adversarial shapes: a single deep master chain with a distinct tail
    # label, probed by short inputs; plus star-vs-path in both directions.
    deep = Tree.from_parents([0] * 120 + [1], [-1] + list(range(120)))
    params = KernelParams(lam=0.5)
    extremes = [
        (deep, [Tree.from_parents([0] * j + [1], [-1] + list(range(j)))
                for j in (1, 2, 5, 10)]),
        (star_tree(400, 0), [path_tree(300, 0), star_tree(300, 0)]),
        (path_tree(400, 0), [star_tree(300, 0), path_tree(300, 0)]),
        (random_tree(400, 1, 9), [random_tree(300, 1, 10)]),
    ]
    for master, inputs in extremes:
        sv = SupportSet(trees=[master], alphas=[1.0], bias=0.0, params=params)
        idx = build_master_index(sv)
        for t in inputs:
            worst = max(worst, ratio(idx, t))
            runs += 1

    ok = worst <= WORK_ALLOWANCE
    line = report(capsys, ok, "matching work bounded by 2|T| + (leaves-1)*height",
                  f"{runs} runs, max work/bound {worst:.2f} <= {WORK_ALLOWANCE}")
    assert ok, line
