"""Scaling benchmarks: kernel builders and prediction.

Everything here reports orderings, ratios and log-log slopes — never
absolute expectations — because wall-clock values are hardware-bound.
Timing protocol: one discarded warm-up call per configuration, then the
median of >= 5 repetitions, each repetition averaging enough inner
iterations to clear a minimum measurable duration.  The configurations of
one series are timed in interleaved rounds, so a drift in machine speed
while the series runs scales every point alike and leaves its slopes and
ratios intact.  Tree generation is deterministic per seed so re-runs cover
identical inputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .esa import build_esa_linear
from .kernel import KernelParams, lcp_intervals, merge_forest, subpath_kernel
from .predict import SupportSet, build_master_index, predict, predict_direct
from .trees import path_tree, random_tree

# The model both reports time: trees over SIGMA labels, decay LAM (the
# acceptance gates' value), SV_N-node support trees, an INPUT_N-node input.
SIGMA = 5
LAM = 0.5
SV_N = 30
INPUT_N = 200
MIN_BATCH_S = 0.01


@dataclass(frozen=True)
class BenchPoint:
    """One timed configuration: problem size, per-call medians and raw runs."""

    size: int
    seconds: float
    runs: list[float]
    inner_iters: int


@dataclass
class BenchReport:
    """Series of timing points plus derived slopes and ratios."""

    name: str
    config: dict
    series: dict[str, list[BenchPoint]] = field(default_factory=dict)
    slopes: dict[str, float] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)

    def sizes(self, series: str) -> list[int]:
        return [p.size for p in self.series[series]]

    def times(self, series: str) -> list[float]:
        return [p.seconds for p in self.series[series]]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _batch(fn, iters: int) -> float:
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return time.perf_counter() - t0


def measure(fns, *, reps: int = 5) -> list[tuple[float, list[float], int]]:
    """Per-call (median seconds, runs, inner iterations) for each callable.

    Each callable gets a discarded warm-up call and an inner iteration
    count that makes one batch last at least ``MIN_BATCH_S``.  Then ``reps``
    rounds each time one batch of every callable, in forward order on even
    rounds and reverse order on odd ones.  A common speed factor per round
    passes through the median unchanged, so the ratio of two medians is
    the ratio of the code's costs; alternating the order cancels a steady
    drift within a round.
    """
    iters = []
    for fn in fns:
        k = 1
        dt = _batch(fn, 1)
        while dt < MIN_BATCH_S:
            k *= 2
            dt = _batch(fn, k)
        iters.append(k)
    runs: list[list[float]] = [[] for _ in fns]
    for r in range(reps):
        order = range(len(fns)) if r % 2 == 0 else range(len(fns) - 1, -1, -1)
        for i in order:
            runs[i].append(_batch(fns[i], iters[i]) / iters[i])
    return [(float(np.median(rs)), rs, k) for rs, k in zip(runs, iters)]


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = np.log(np.asarray(sizes, float))
    ys = np.log(np.asarray(times, float))
    return float(np.polyfit(xs, ys, 1)[0])


def _check_reps(reps: int) -> None:
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")


def _check_fitted(name: str, sizes: list[int]) -> None:
    """A log-log slope needs at least two distinct positive sizes."""
    if len(set(sizes)) < 2 or min(sizes) < 1:
        raise ValueError(f"{name}: a fitted series needs at least two distinct positive sizes, got {sizes}")


def bench_kernel(sizes: list[int] | None = None, *, seed: int = 7, reps: int = 5) -> BenchReport:
    """Time random-pair kernels with the linear and the reference builder.

    The ``merge``, ``build`` and ``intervals`` series time the kernel's
    stages alone, in the same interleaved rounds: ``merge_forest`` on each
    pair, ``build_esa_linear`` on the merged forest and ``lcp_intervals``
    on its lcp array.  ``path_build`` times ``build_esa_linear`` on a
    single-label path of the pair's 2n nodes, the builder's worst case
    (every doubling round refines), in interleaved rounds of its own after
    those; its slope is reported, not gated.
    """
    if sizes is None:
        sizes = [1 << k for k in range(12, 18)]
    _check_reps(reps)
    _check_fitted("kernel sizes", sizes)
    params = KernelParams(lam=LAM)
    report = BenchReport(
        name="kernel-builders",
        config={"sizes": sizes, "sigma": SIGMA, "lam": LAM, "seed": seed, "reps": reps},
        series={"linear": [], "reference": [], "merge": [], "build": [], "intervals": [],
                "path_build": []},
    )
    configs, fns = [], []
    for i, n in enumerate(sizes):
        t1 = random_tree(n, SIGMA, seed + 2 * i)
        t2 = random_tree(n, SIGMA, seed + 2 * i + 1)
        for builder in ("linear", "reference"):
            configs.append((builder, n))
            fns.append(partial(subpath_kernel, t1, t2, params, builder=builder))
        merged = merge_forest([t1, t2])
        configs += [("merge", n), ("build", n), ("intervals", n)]
        fns += [partial(merge_forest, [t1, t2]), partial(build_esa_linear, merged),
                partial(lcp_intervals, build_esa_linear(merged).lcp)]
    for (name, n), (med, runs, iters) in zip(configs, measure(fns, reps=reps)):
        report.series[name].append(
            BenchPoint(size=n, seconds=med, runs=runs, inner_iters=iters)
        )
    # Made after the rounds above: the paths' 2n-node arrays, allocated
    # beside the pairs, changed the heap those rounds run in and raised the
    # minor page faults of the linear kernel at 2^16 from 0 to about 1,400
    # per call, and so the slope acceptance test_07 gates.
    paths = [partial(build_esa_linear, path_tree(2 * n)) for n in sizes]
    for n, (med, runs, iters) in zip(sizes, measure(paths, reps=reps)):
        report.series["path_build"].append(
            BenchPoint(size=n, seconds=med, runs=runs, inner_iters=iters)
        )
    # The merge and build stages report their times only, without a slope.
    for name in ("linear", "reference", "intervals", "path_build"):
        report.slopes[name] = loglog_slope(report.sizes(name), report.times(name))
    report.ratios["linear_over_reference_at_max"] = (
        report.series["linear"][-1].seconds / report.series["reference"][-1].seconds
    )
    return report


def bench_predict(m_values: list[int] | None = None, input_sizes: list[int] | None = None,
                  *, seed: int = 11, reps: int = 5) -> BenchReport:
    """Prediction cost against support count m and against input size.

    Series: ``predict_vs_m`` and ``direct_vs_m`` at a fixed input tree, and
    ``predict_vs_n`` against the index of the first m.  Derived figures:
    max/min ratio of predict across m (flatness), slope of direct against
    m, slope of predict against input size.  The direct path uses the
    default builder, the faster one at these per-pair sizes too.
    """
    if m_values is None:
        m_values = list(range(100, 1001, 100))
    if input_sizes is None:
        input_sizes = [1 << k for k in range(10, 15)]
    _check_reps(reps)
    _check_fitted("support counts", m_values)
    _check_fitted("input sizes", input_sizes)
    report = BenchReport(
        name="prediction",
        config={
            "m_values": m_values,
            "input_sizes": input_sizes,
            "sv_n": SV_N,
            "input_n": INPUT_N,
            "m_fixed": m_values[0],
            "sigma": SIGMA,
            "lam": LAM,
            "seed": seed,
            "reps": reps,
        },
        series={"predict_vs_m": [], "direct_vs_m": [], "predict_vs_n": []},
    )
    fixed_input = random_tree(INPUT_N, SIGMA, seed - 1)
    params = KernelParams(lam=LAM)
    trees = [random_tree(SV_N, SIGMA, seed + k) for k in range(max(m_values))]
    indexes, indexed, direct = [], [], []
    for m in m_values:
        sv = SupportSet(trees=trees[:m], alphas=[1.0] * m, bias=0.0, params=params)
        indexes.append(build_master_index(sv))
        indexed.append(partial(predict, indexes[-1], fixed_input))
        direct.append(partial(predict_direct, sv, fixed_input))
    by_n = [partial(predict, indexes[0], random_tree(n, SIGMA, seed + 10_000 + k))
            for k, n in enumerate(input_sizes)]
    for name, sizes, fns in (("predict_vs_m", m_values, indexed),
                             ("direct_vs_m", m_values, direct),
                             ("predict_vs_n", input_sizes, by_n)):
        for size, (med, runs, iters) in zip(sizes, measure(fns, reps=reps)):
            report.series[name].append(
                BenchPoint(size=size, seconds=med, runs=runs, inner_iters=iters)
            )
    times_m = report.times("predict_vs_m")
    report.ratios["predict_flatness_vs_m"] = max(times_m) / min(times_m)
    report.slopes["direct_vs_m"] = loglog_slope(report.sizes("direct_vs_m"), report.times("direct_vs_m"))
    report.slopes["predict_vs_n"] = loglog_slope(report.sizes("predict_vs_n"), report.times("predict_vs_n"))
    return report
