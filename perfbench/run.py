"""Benchmark of the subpath-kernel library: one command, three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (why each was chosen is written
next to its generator in workloads.py):

  pair-large      3 tree pairs of 2^14 nodes each: random sigma=5,
                  random sigma=1 and random-label sigma=2 paths
  gram-corpus     normalized Gram matrix (jobs=1) of 30 trees, 50-200 nodes
  predict-stream  2,000 x 50-node support trees as model-file text, then a
                  stream of 100 inputs of 50-1,000 nodes scored in turn

A run makes its inputs from --seed as text (cached in .bench_cache/), then
measures in a fresh, single-threaded child process (worker.py): one client
in a closed loop runs whole rounds of requests for --seconds.  Afterwards
every output is checked against the library's slow routes (cached per
seed).  The report goes to stdout; its last line is one JSON object with
the keys correct, attempted, failed and metrics.

End-to-end metrics (--trace 0) carry the same names on every workload:

  setup_s          time from input text to ready-to-compute objects
                   (parsing; on predict-stream also load_model and
                   build_master_index): the median over several set-ups,
                   or over batches of set-ups when one takes under 0.5 s
  nodes_per_s      input nodes through requests per second of a round (a
                   pass over all requests); on pair-large this is
                   kernel_nodes_per_s
  outputs_per_s    kernel values, Gram entries (gram_pairs_per_s) or scores
                   (predict_trees_per_s) per second of a round
  latency_p50_ms   per request: one kernel call, one whole Gram matrix or
  latency_p90_ms   one predict call (predict_p50_ms and predict_p90_ms)
  peak_rss_mb      peak resident memory of the measuring process

Throughput and latency use each request's median repetition over the
timed rounds (see request_latencies).

error_rate, failed over attempted outputs, is printed in the report and
carried by the JSON's attempted and failed fields; it is not a metric
because its healthy value is 0.

--trace 1 measures the workload twice in two child processes, untraced and
then with the spans.py wrappers installed, and reports the per-layer
metrics plus the tracing overhead (trace.overhead_setup and
trace.overhead_round: traced over untraced set-up median or median round, minus 1).
The spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"
WORKLOADS = ("pair-large", "gram-corpus", "predict-stream")
E2E_UNITS = {
    "setup_s": "s",
    "nodes_per_s": "1/s",
    "outputs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Workload-specific names for the neutral metrics, printed beside them in the report.
ALIASES = {
    "pair-large": {"kernel_nodes_per_s": "nodes_per_s"},
    "gram-corpus": {"gram_pairs_per_s": "outputs_per_s"},
    "predict-stream": {
        "predict_trees_per_s": "outputs_per_s",
        "predict_p50_ms": "latency_p50_ms",
        "predict_p90_ms": "latency_p90_ms",
    },
}
RUN_DEADLINE_S = 170.0
SETUP_BATCH_S = 0.5


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ns_per_node"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_node") or name.startswith("trace."):
        return "ratio"
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _digest(sizes) -> str:
    h = hashlib.sha256(repr(sizes).encode())
    for path in sorted([HERE / "workloads.py", *(SRC / "subpath_kernel").glob("*.py")]):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def prepare_inputs(workload: str, seed: int, sizes) -> Path:
    """Input text for (workload, seed, sizes), generated once and cached."""
    from workloads import GENERATORS

    d = CACHE / f"{workload}-seed{seed}-{_digest(sizes)}"
    if not (d / "inputs.done").exists():
        d.mkdir(parents=True, exist_ok=True)
        for name, text in GENERATORS[workload](seed, sizes).items():
            (d / name).write_text(text, encoding="utf-8")
        (d / "inputs.done").write_text("")
    return d


def load_reference(workload: str, input_dir: Path, sizes) -> dict:
    """Slow-route outputs for the inputs in ``input_dir``, cached beside them."""
    from workloads import reference

    path = input_dir / "reference.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    inputs = {p.name: p.read_text(encoding="utf-8") for p in input_dir.glob("*.txt")}
    ref = reference(workload, inputs, str(input_dir), sizes)
    path.write_text(json.dumps(ref), encoding="utf-8")
    return ref


def run_worker(workload: str, input_dir: Path, seconds: float, deadline: float,
               trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(input_dir), "--seconds", repr(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    # One thread: numpy's BLAS pools must not use the second core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(setup_s: list[float]) -> float:
    """Median over batches of consecutive set-ups, each batch at least SETUP_BATCH_S.

    A batch counts as its mean set-up.  Short set-ups (gram-corpus parses in
    ~3 ms) flip between two speeds within tens of milliseconds on a shared
    machine, so the median of single ones lands on either mode; batch means
    do not.  Set-ups longer than SETUP_BATCH_S are batches of one.
    """
    batches: list[float] = []
    cur: list[float] = []
    for x in setup_s:
        cur.append(x)
        if sum(cur) >= SETUP_BATCH_S:
            batches.append(sum(cur) / len(cur))
            cur = []
    if not batches:
        batches.append(sum(cur) / len(cur))
    return statistics.median(batches)


def request_latencies(res: dict) -> list[float]:
    """Each request's median time over the timed rounds, in seconds.

    On a shared machine single repetitions swing both ways: some run up to
    twice as slow while other tenants hold the cores (CPU steal), and some
    run a third faster than usual while they are idle.  The fastest
    repetition therefore varies by a third between runs of the same inputs;
    the median repetition varies by a few percent.
    """
    per_round = len(res["latency_s"]) // len(res["round_s"])
    return [statistics.median(res["latency_s"][k::per_round]) for k in range(per_round)]


def end_to_end(res: dict) -> dict[str, float]:
    lat = request_latencies(res)
    ms = [x * 1e3 for x in lat]
    round_s = sum(lat)
    return {
        "setup_s": setup_time(res["setup_s"]),
        "nodes_per_s": res["nodes_per_round"] / round_s,
        "outputs_per_s": res["outputs_per_round"] / round_s,
        "latency_p50_ms": percentile(ms, 0.5),
        "latency_p90_ms": percentile(ms, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Measure, check and report one workload; prints and returns the result object."""
    from spans import environment
    from workloads import FULL, check

    sizes = FULL if sizes is None else sizes
    deadline = time.monotonic() + RUN_DEADLINE_S
    input_dir = prepare_inputs(workload, seed, sizes)
    results = [run_worker(workload, input_dir, seconds, deadline)]
    trace_out = OUT / f"trace-{workload}-seed{seed}.jsonl"
    if trace:
        results.append(run_worker(workload, input_dir, seconds, deadline, trace_out))
    ref = load_reference(workload, input_dir, sizes)

    attempted = failed = 0
    for res in results:
        a, f = check(workload, res["outputs"], ref)
        attempted += a
        failed += f
    leftover = sorted({w for res in results for w in res["wrapped_after"]})

    env = environment(ROOT)
    first = results[0]
    e2e = end_to_end(first)
    print(f"# perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"# closed loop, 1 client, 1 single-threaded process; {len(first['setup_s'])} set-ups; "
          f"1 warm-up and {len(first['round_s'])} timed rounds of {len(first['outputs'][0])} "
          f"requests; {len(first['latency_s'])} latency samples")
    for name, value in e2e.items():
        print(f"{name:<24} {value:>16.6g} {E2E_UNITS[name]}")
    for alias, name in ALIASES[workload].items():
        print(f"{alias:<24} {e2e[name]:>16.6g} {E2E_UNITS[name]}  (= {name})")
    print(f"{'error_rate':<24} {failed / attempted:>16.6g} ratio  ({failed} of {attempted} outputs)")
    if leftover:
        print(f"# wrappers left installed: {', '.join(leftover)}")

    if trace:
        traced = results[1]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_setup"] = setup_time(traced["setup_s"]) / setup_time(first["setup_s"]) - 1.0
        metrics["trace.overhead_round"] = sum(request_latencies(traced)) / sum(request_latencies(first)) - 1.0
        print("# traced run, end to end: " + " ".join(
            f"{k}={v:.6g}" for k, v in end_to_end(traced).items()))
        for name, value in metrics.items():
            print(f"{name:<28} {value:>16.6g} {layer_unit(name)}")
        print(f"# spans written to {trace_out.relative_to(ROOT)}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = e2e
        units = E2E_UNITS
    result = {
        "correct": failed == 0 and not leftover,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "subpath_kernel" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
