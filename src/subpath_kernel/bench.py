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
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .kernel import KernelParams, subpath_kernel
from .predict import SupportSet, build_master_index, predict, predict_direct
from .trees import random_tree


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


def measure(fns, *, reps: int = 5, min_time: float = 0.01) -> list[tuple[float, list[float], int]]:
    """Per-call (median seconds, runs, inner iterations) for each callable.

    Each callable gets a discarded warm-up call and an inner iteration
    count that makes one batch last at least ``min_time``.  Then ``reps``
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
        while dt < min_time:
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


def bench_kernel(
    sizes: list[int] | None = None,
    *,
    sigma: int = 5,
    lam: float = 0.5,
    seed: int = 7,
    reps: int = 5,
) -> BenchReport:
    """Time random-pair kernels with the linear and the reference builder."""
    if sizes is None:
        sizes = [1 << k for k in range(12, 18)]
    _check_reps(reps)
    _check_fitted("kernel sizes", sizes)
    params = KernelParams(lam=lam)
    report = BenchReport(
        name="kernel-builders",
        config={"sizes": sizes, "sigma": sigma, "lam": lam, "seed": seed, "reps": reps},
        series={"linear": [], "reference": []},
    )
    configs, fns = [], []
    for i, n in enumerate(sizes):
        t1 = random_tree(n, sigma, seed + 2 * i)
        t2 = random_tree(n, sigma, seed + 2 * i + 1)
        for builder in ("linear", "reference"):
            configs.append((builder, n))
            fns.append(partial(subpath_kernel, t1, t2, params, builder=builder))
    for (builder, n), (med, runs, iters) in zip(configs, measure(fns, reps=reps)):
        report.series[builder].append(
            BenchPoint(size=n, seconds=med, runs=runs, inner_iters=iters)
        )
    for builder in ("linear", "reference"):
        report.slopes[builder] = loglog_slope(report.sizes(builder), report.times(builder))
    report.ratios["linear_over_reference_at_max"] = (
        report.series["linear"][-1].seconds / report.series["reference"][-1].seconds
    )
    return report


def _support_set(m: int, sv_n: int, sigma: int, lam: float, seed: int) -> SupportSet:
    trees = [random_tree(sv_n, sigma, seed + k) for k in range(m)]
    return SupportSet(trees=trees, alphas=[1.0] * m, bias=0.0, params=KernelParams(lam=lam))


def bench_predict(
    m_values: list[int] | None = None,
    input_sizes: list[int] | None = None,
    *,
    sv_n: int = 30,
    input_n: int = 200,
    m_fixed: int = 100,
    sigma: int = 5,
    lam: float = 0.5,
    seed: int = 11,
    reps: int = 5,
) -> BenchReport:
    """Prediction cost against support count m and against input size.

    Series: ``predict_vs_m`` and ``direct_vs_m`` at a fixed input tree, and
    ``predict_vs_n`` at fixed m.  Derived figures: max/min ratio of predict
    across m (flatness), slope of direct against m, slope of predict
    against input size.  The direct path uses the reference builder: faster
    at these per-pair sizes, and the m-scaling is builder-independent.
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
            "sv_n": sv_n,
            "input_n": input_n,
            "m_fixed": m_fixed,
            "sigma": sigma,
            "lam": lam,
            "seed": seed,
            "reps": reps,
        },
        series={"predict_vs_m": [], "direct_vs_m": [], "predict_vs_n": []},
    )
    fixed_input = random_tree(input_n, sigma, seed - 1)
    biggest = _support_set(max(m_values), sv_n, sigma, lam, seed)
    indexed, direct = [], []
    for m in m_values:
        sv = SupportSet(
            trees=biggest.trees[:m],
            alphas=biggest.alphas[:m],
            bias=0.0,
            params=biggest.params,
        )
        indexed.append(partial(predict, build_master_index(sv), fixed_input))
        direct.append(partial(predict_direct, sv, fixed_input, builder="reference"))
    sv = SupportSet(
        trees=biggest.trees[:m_fixed],
        alphas=biggest.alphas[:m_fixed],
        bias=0.0,
        params=biggest.params,
    )
    idx = build_master_index(sv)
    by_n = [partial(predict, idx, random_tree(n, sigma, seed + 10_000 + k))
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
