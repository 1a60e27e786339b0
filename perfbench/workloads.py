"""Seeded inputs and output checks for the three benchmark workloads.

Every input is bracket text (one tree per line) or model-file text made
from the seed alone; the library under test only ever receives that text.
Tree sizes are spread evenly over each workload's range (and shuffled), so
seeds change shapes and labels but not the size mix that timings follow.

The checks compare outputs against the library's slow routes: the
``reference`` suffix-array builder, ``subpath_kernel_oracle`` and
``predict_direct``.  They run outside the timed region, in the parent
process, and their results are cached per seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from subpath_kernel import (
    KernelParams,
    LabelTable,
    load_model,
    parse_corpus,
    path_tree,
    predict_direct,
    random_tree,
    serialize_tree,
    subpath_kernel,
    subpath_kernel_oracle,
)

LAM = 0.5
SIGMA = 5
REL_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    pair_nodes: int = 1 << 14
    # 30 trees: 465 kernel calls, ~0.9 s per Gram (see gen_gram_corpus).
    corpus_trees: int = 30
    corpus_nodes: tuple[int, int] = (50, 200)
    support_trees: int = 2000
    support_nodes: int = 50
    stream_inputs: int = 100
    stream_nodes: tuple[int, int] = (50, 1000)
    # predict_direct costs about 6 s per input at 2,000 support trees.
    direct_checks: int = 3


FULL = Sizes()
TINY = Sizes(
    pair_nodes=300,
    corpus_trees=6,
    corpus_nodes=(5, 20),
    support_trees=20,
    support_nodes=10,
    stream_inputs=12,
    stream_nodes=(5, 60),
    direct_checks=2,
)


def tree_lines(text: str) -> list[str]:
    """Non-blank, non-comment lines: the trees of a bracket-text file."""
    return [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]


def _spread(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """``count`` sizes evenly spaced over [lo, hi], in shuffled order."""
    sizes = [lo + round(k * (hi - lo) / max(count - 1, 1)) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def _random_text(n: int, sigma: int, rng: random.Random) -> str:
    return serialize_tree(random_tree(n, sigma, rng.randrange(1 << 32)))


# pair-large: the asymptotic regime of the pair kernel, 2^14 nodes per tree,
# far above the per-call costs that dominate gram-corpus.  The suffix-array
# build takes most of each call and the sweep most of the rest.  The three
# shapes vary what the builder's recursion and the lcp values see: a mixed
# alphabet, one label everywhere (all labels tie), and paths of height 2^14
# with random binary labels.  Consecutive trees pair up.  Larger trees made
# the benchmark unsteady on a shared 2-core machine: at 2^17 nodes a call
# takes 1-2 s and a run repeats it four times, and the ten-run spread of the
# median latency reached 0.28; at 2^15 five runs still spread by 0.2.
def gen_pair_large(seed: int, sizes: Sizes) -> dict[str, str]:
    rng = random.Random(f"pair-large:{seed}")
    n = sizes.pair_nodes

    def path() -> str:
        return serialize_tree(path_tree(n, [rng.randrange(2) for _ in range(n)]))

    lines = [
        "# random recursive trees, sigma=5",
        _random_text(n, 5, rng),
        _random_text(n, 5, rng),
        "# random recursive trees, sigma=1",
        _random_text(n, 1, rng),
        _random_text(n, 1, rng),
        "# paths with random sigma=2 labels",
        path(),
        path(),
    ]
    return {"pairs.txt": "\n".join(lines) + "\n"}


# gram-corpus: a normalized Gram matrix over small trees, so fixed costs per
# kernel call (merge, numpy set-up, the Python sweep) dominate rather than
# asymptotics.  This N^2 structure is what a corpus-wide Gram would remove;
# pair-large is its N=2 control.  The corpus is kept to 30 trees so that one
# Gram takes ~0.9 s and a run repeats it about 25 times: the median
# repetition is steady, where 60-tree Grams (~3 s each) leave too few
# repetitions in a run.
def gen_gram_corpus(seed: int, sizes: Sizes) -> dict[str, str]:
    rng = random.Random(f"gram-corpus:{seed}")
    ns = _spread(*sizes.corpus_nodes, sizes.corpus_trees, rng)
    return {"corpus.txt": "\n".join(_random_text(k, SIGMA, rng) for k in ns) + "\n"}


# predict-stream: the only workload where matching statistics and
# level-ancestor queries run.  It pairs a write phase (the master-index
# build, paid on every CLI `predict`) with a read phase (scoring a stream of
# inputs), so a change that moves work between the two shows.
def gen_predict_stream(seed: int, sizes: Sizes) -> dict[str, str]:
    rng = random.Random(f"predict-stream:{seed}")
    support = [_random_text(sizes.support_nodes, SIGMA, rng) for _ in range(sizes.support_trees)]
    alphas = [rng.uniform(-1.0, 1.0) for _ in support]
    bias = rng.uniform(-1.0, 1.0)
    model = [f"lambda {LAM!r}", f"bias {bias!r}"]
    model += [f"{a!r}\t{s}" for a, s in zip(alphas, support)]
    ns = _spread(*sizes.stream_nodes, sizes.stream_inputs, rng)
    stream = [_random_text(k, SIGMA, rng) for k in ns]
    return {"model.txt": "\n".join(model) + "\n", "stream.txt": "\n".join(stream) + "\n"}


GENERATORS = {
    "pair-large": gen_pair_large,
    "gram-corpus": gen_gram_corpus,
    "predict-stream": gen_predict_stream,
}


def direct_check_inputs(stream_sizes: list[int], count: int) -> list[int]:
    """Stream positions checked by predict_direct: spread over the smaller half."""
    order = sorted(range(len(stream_sizes)), key=stream_sizes.__getitem__)
    half = max(len(order) // 2, 1)
    return sorted({order[(k * half) // count] for k in range(count)})


def reference(workload: str, inputs: dict[str, str], input_dir: str, sizes: Sizes) -> dict:
    """Expected outputs from the slow routes; JSON-serializable."""
    params = KernelParams(lam=LAM)
    if workload == "pair-large":
        lines = tree_lines(inputs["pairs.txt"])
        values = []
        for a, b in zip(lines[0::2], lines[1::2]):
            table = LabelTable()
            t1, t2 = parse_corpus([a, b], table)
            values.append(subpath_kernel(t1, t2, params, builder="reference").hex())
        return {"values": values}
    if workload == "gram-corpus":
        trees = parse_corpus(tree_lines(inputs["corpus.txt"]), LabelTable())
        k = [[subpath_kernel_oracle(trees[i], trees[j], LAM) for j in range(i + 1)] for i in range(len(trees))]
        gram = [[k[i][j] / math.sqrt(k[i][i] * k[j][j]) for j in range(i + 1)] for i in range(len(trees))]
        return {"gram": gram}
    table = LabelTable()
    sv = load_model(f"{input_dir}/model.txt", table)
    stream = parse_corpus(tree_lines(inputs["stream.txt"]), table)
    picked = direct_check_inputs([t.n for t in stream], sizes.direct_checks)
    return {"direct": {str(k): predict_direct(sv, stream[k]) for k in picked}}


def _close(x: float, y: float) -> bool:
    return math.isfinite(x) and math.isclose(x, y, rel_tol=REL_TOL)


def check(workload: str, rounds: list[list], ref: dict) -> tuple[int, int]:
    """(attempted, failed) over every output of every round.

    ``rounds[r][k]`` is request k of round r: a float in hex (a Gram matrix
    of hex rows on gram-corpus), or None where the request raised.  Every
    output must also equal the same request's output in round 0 bit for bit.
    """
    attempted = failed = 0
    first = rounds[0] if rounds else []
    if workload == "pair-large":
        for outs in rounds:
            for k, out in enumerate(outs):
                attempted += 1
                failed += out is None or out != ref["values"][k]
    elif workload == "gram-corpus":
        expect = ref["gram"]
        n = len(expect)
        for outs in rounds:
            g = outs[0]
            g0 = first[0]
            for i in range(n):
                for j in range(i + 1):
                    attempted += 1
                    if g is None or g0 is None:
                        failed += 1
                        continue
                    x = float.fromhex(g[i][j])
                    ok = (
                        _close(x, expect[i][j])
                        and g[i][j] == g[j][i]
                        and g[i][j] == g0[i][j]
                        and (i != j or _close(x, 1.0))
                    )
                    failed += not ok
    else:
        direct = {int(k): v for k, v in ref["direct"].items()}
        for outs in rounds:
            for k, out in enumerate(outs):
                attempted += 1
                if out is None or out != first[k]:
                    failed += 1
                    continue
                x = float.fromhex(out)
                failed += not (math.isfinite(x) and (k not in direct or _close(x, direct[k])))
    return attempted, failed
