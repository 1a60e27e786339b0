"""One workload's measurement, run by run.py in a fresh process.

Sets the workload up from its input text several times, timing each
set-up, then runs whole rounds of requests in a closed loop with one client
until --seconds have passed.  Prints one JSON object with the timings, the
outputs (floats in hex, checked by the parent), peak RSS and, when traced,
the per-layer metrics.

Usage: worker.py --workload W --inputs DIR --seconds S [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from subpath_kernel import KernelParams, LabelTable

import spans
from workloads import LAM, tree_lines

kernel, predict, trees = (importlib.import_module(f"subpath_kernel.{m}") for m in ("kernel", "predict", "trees"))

PARAMS = KernelParams(lam=LAM)
# A run sets up at least SETUP_MIN_REPS times, and more (up to
# SETUP_MAX_REPS) until set-ups took SETUP_MIN_S in all: gram-corpus sets up
# in ~5 ms, pair-large in ~0.3 s, predict-stream in ~1.4 s.  run.setup_time
# turns the times into setup_s.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 1000
SETUP_MIN_S = 5.0


class Untraced:
    """Stands in for spans.Tracer: records nothing."""

    def span(self, name: str, **attrs):
        return nullcontext(attrs)

    def phase(self, name: str):
        return nullcontext()


# Each set-up returns (requests, input nodes per round, outputs per round).
# Library entry points are looked up on their modules at call time, so the
# traced run's wrappers see every call.
def _pair_kernel(t1, t2) -> float:
    return kernel.subpath_kernel(t1, t2, PARAMS)


def setup_pair_large(inputs: dict[str, str], input_dir: Path, tr):
    lines = tree_lines(inputs["pairs.txt"])
    pairs = []
    for texts in zip(lines[0::2], lines[1::2]):
        table = LabelTable()
        pair = []
        for text in texts:
            with tr.span("trees.parse") as attrs:
                t = trees.parse_tree(text, table)
            attrs["nodes"] = t.n
            pair.append(t)
        pairs.append(pair)
    requests = [partial(_pair_kernel, t1, t2) for t1, t2 in pairs]
    return requests, sum(t1.n + t2.n for t1, t2 in pairs), len(pairs)


def setup_gram_corpus(inputs: dict[str, str], input_dir: Path, tr):
    with tr.span("trees.parse") as attrs:
        corpus = trees.parse_corpus(inputs["corpus.txt"].splitlines(), LabelTable())
    attrs["nodes"] = sum(t.n for t in corpus)

    def gram():
        with tr.span("kernel.gram"):
            return kernel.gram_matrix(corpus, PARAMS, normalize=True, jobs=1)

    n = len(corpus)
    nodes = sum(corpus[i].n + corpus[j].n for i in range(n) for j in range(i + 1))
    return [gram], nodes, n * (n + 1) // 2


def setup_predict_stream(inputs: dict[str, str], input_dir: Path, tr):
    # The same calls, in the same order, as the CLI `predict` command.
    table = LabelTable()
    with tr.span("predict.load_model"):
        sv = predict.load_model(str(input_dir / "model.txt"), table)
    with tr.span("trees.parse") as attrs:
        stream = trees.parse_corpus(inputs["stream.txt"].splitlines(), table)
    attrs["nodes"] = sum(t.n for t in stream)
    with tr.span("predict.index_build") as attrs:
        idx = predict.build_master_index(sv)
    attrs["n_intervals"] = idx.n_intervals

    def score(t):
        with tr.span("predict.predict"):
            return predict.predict(idx, t)

    return [partial(score, t) for t in stream], sum(t.n for t in stream), len(stream)


SETUPS = {
    "pair-large": setup_pair_large,
    "gram-corpus": setup_gram_corpus,
    "predict-stream": setup_predict_stream,
}


def _encode(out):
    if out is None:
        return None
    if isinstance(out, float):
        return out.hex()
    return [[x.hex() for x in row] for row in out]


def _call(request):
    try:
        return request()
    except Exception:
        # A failed request is reported as a None output and counted by the
        # parent's check; the loop goes on.
        traceback.print_exc()
        return None


def measure(workload: str, input_dir: Path, seconds: float, tr) -> dict:
    inputs = {p.name: p.read_text(encoding="utf-8") for p in input_dir.glob("*.txt")}
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPS or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
        state = None
        with tr.phase(f"setup{len(setup_s)}"):
            t0 = time.perf_counter()
            state = SETUPS[workload](inputs, input_dir, tr)
            setup_s.append(time.perf_counter() - t0)
    requests, nodes_per_round, outputs_per_round = state

    # One untimed warm-up round: the first calls after set-up run about 10%
    # slower while the heap grows.  Its outputs are checked like the rest.
    rounds = [[_call(request) for request in requests]]
    latency_s: list[float] = []
    round_s: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not round_s:
        outs = []
        with tr.phase(f"round{len(round_s)}"):
            r0 = time.perf_counter()
            for request in requests:
                t0 = time.perf_counter()
                outs.append(_call(request))
                latency_s.append(time.perf_counter() - t0)
            round_s.append(time.perf_counter() - r0)
        rounds.append(outs)
    return {
        "setup_s": setup_s,
        "latency_s": latency_s,
        "round_s": round_s,
        "nodes_per_round": nodes_per_round,
        "outputs_per_round": outputs_per_round,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "outputs": [[_encode(o) for o in outs] for outs in rounds],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)
    if args.trace_out is None:
        result = measure(args.workload, args.inputs, args.seconds, Untraced())
        result["layers"] = None
    else:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            result = measure(args.workload, args.inputs, args.seconds, tracer)
        result["layers"] = tracer.layer_metrics()
        root = Path(__file__).resolve().parent.parent
        tracer.write(args.trace_out, {"workload": args.workload, "env": spans.environment(root)})
    result["wrapped_after"] = spans.wrapped_targets()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
