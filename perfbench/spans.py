"""Spans around library calls, for the traced run only.

``installed(tracer)`` temporarily replaces the public functions the library
calls through module attributes with wrappers that record a span (name,
phase, parent span, start, end, attributes) and restores them on exit.
Nothing here edits library code, and the untraced run never installs it.
Spans stay in memory and are written out once, at the end of the run.

A phase is one set-up or one round of requests.  Per-layer metrics are
"one set-up plus one round": the median over set-ups of the per-set-up sum,
plus the median over rounds of the per-round sum.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# The package re-exports a function named ``predict``, so modules are
# looked up by their full names.
esa, kernel, predict = (importlib.import_module(f"subpath_kernel.{m}") for m in ("esa", "kernel", "predict"))


class Tracer:
    def __init__(self) -> None:
        # [name, phase, parent index, start, end, attributes]
        self.spans: list[list] = []
        self.phases: list[str] = []
        self.la_queries = 0
        self.phase_queries: dict[str, int] = {}
        self._open: list[int] = []
        self._phase = ""

    @contextmanager
    def phase(self, name: str):
        self._phase = name
        self.phases.append(name)
        q0 = self.la_queries
        try:
            yield
        finally:
            self.phase_queries[name] = self.la_queries - q0
            self._phase = ""

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [name, self._phase, self._open[-1] if self._open else -1, time.perf_counter(), 0.0, attrs]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[4] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, phase, parent, t0, t1, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "phase": phase,
                                     "start": t0, "end": t1, **attrs}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        dur: dict[tuple[str, str], float] = {}
        own: dict[tuple[str, str], float] = {}
        attr: dict[tuple[str, str, str], float] = {}
        count: dict[tuple[str, str], int] = {}
        total: dict[str, float] = {}
        depth_max = 0
        for name, phase, parent, t0, t1, attrs in self.spans:
            d = t1 - t0
            dur[name, phase] = dur.get((name, phase), 0.0) + d
            own[name, phase] = own.get((name, phase), 0.0) + d
            count[name, phase] = count.get((name, phase), 0) + 1
            total[name] = total.get(name, 0.0) + d
            if parent >= 0:
                pname, pphase = self.spans[parent][:2]
                own[pname, pphase] = own.get((pname, pphase), 0.0) - d
            for key, v in attrs.items():
                if key == "depth":
                    depth_max = max(depth_max, v)
                else:
                    attr[name, key, phase] = attr.get((name, key, phase), 0) + v
                    attr[name, key, "*"] = attr.get((name, key, "*"), 0) + v

        def per_pass(get) -> float:
            out = 0.0
            for kind in ("setup", "round"):
                vals = [get(p) for p in self.phases if p.startswith(kind)]
                if vals:
                    out += statistics.median(vals)
            return out

        def d(name):
            return per_pass(lambda p: dur.get((name, p), 0.0))

        def s(name):
            return per_pass(lambda p: own.get((name, p), 0.0))

        def c(name):
            return per_pass(lambda p: count.get((name, p), 0))

        def a(name, key):
            return per_pass(lambda p: attr.get((name, key, p), 0))

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        ops = ("comparisons", "descents", "slinks", "skips")
        match_ops_total = sum(attr.get(("predict.match", k, "*"), 0) for k in ops)
        m = {
            "trees.parse_s": d("trees.parse"),
            "trees.parse_nodes_per_s": ratio(attr.get(("trees.parse", "nodes", "*"), 0), total.get("trees.parse", 0.0)),
            "kernel.merge_s": d("kernel.merge"),
            "kernel.merged_esa_self_s": s("kernel.merged_esa"),
            "kernel.sweep_s": s("kernel.subpath_kernel"),
            "kernel.calls": c("kernel.subpath_kernel"),
            "kernel.gram_self_s": s("kernel.gram"),
            "esa.build_s": d("esa.build"),
            "esa.calls": c("esa.build"),
            "esa.nodes": a("esa.build", "nodes"),
            "esa.ns_per_node": ratio(total.get("esa.build", 0.0), attr.get(("esa.build", "nodes", "*"), 0), 1e9),
            "esa.recursion_depth_max": depth_max,
            "predict.index_build_s": d("predict.index_build"),
            "predict.index_self_s": s("predict.index_build"),
            "predict.n_intervals": a("predict.index_build", "n_intervals"),
            "predict.match_s": d("predict.match"),
            "predict.match_self_s": s("predict.match"),
            "predict.match_ops": sum(a("predict.match", k) for k in ops),
            **{f"predict.match_{k}": a("predict.match", k) for k in ops},
            "predict.match_ops_per_node": ratio(match_ops_total, attr.get(("predict.match", "nodes", "*"), 0)),
            "predict.score_self_s": s("predict.predict"),
            "level_ancestor.build_s": d("level_ancestor.build"),
            "level_ancestor.queries": per_pass(lambda p: self.phase_queries.get(p, 0)),
        }
        return m


def _traced(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            out = fn(*args, **kwargs)
        if after is not None:
            after(attrs, out)
        return out

    wrapper.perfbench_original = fn
    return wrapper


def _traced_esa(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(tree, stats=None):
        stats = {} if stats is None else stats
        with tracer.span("esa.build", nodes=len(tree.labels)) as attrs:
            out = fn(tree, stats=stats)
        attrs["depth"] = stats.get("recursion_depth", 0)
        return out

    wrapper.perfbench_original = fn
    return wrapper


def _match_counts(attrs: dict, st) -> None:
    attrs.update(nodes=len(st.lengths), comparisons=st.comparisons, descents=st.descents,
                 slinks=st.slinks, skips=st.skips)


def _traced_la(tracer: Tracer, base):
    class TracedLevelAncestorIndex(base):
        perfbench_original = base

        def __init__(self, parent, depth) -> None:
            with tracer.span("level_ancestor.build", nodes=len(parent)):
                super().__init__(parent, depth)

        def query(self, v: int, j: int) -> int:
            tracer.la_queries += 1
            return base.query(self, v, j)

    return TracedLevelAncestorIndex


def _span_as(name: str, after=None):
    return lambda tracer, fn: _traced(tracer, fn, name, after)


# (module, attribute, wrapper factory): every library entry point the
# benchmark's calls reach through a module attribute.
TARGETS = [
    (kernel, "merge_trees", _span_as("kernel.merge")),
    (kernel, "merged_esa", _span_as("kernel.merged_esa")),
    (kernel, "subpath_kernel", _span_as("kernel.subpath_kernel")),
    (esa, "build_esa_linear", _traced_esa),
    (predict, "merge_forest", _span_as("kernel.merge")),
    (predict, "merged_esa", _span_as("kernel.merged_esa")),
    (predict, "LevelAncestorIndex", _traced_la),
    (predict, "matching_statistics", _span_as("predict.match", _match_counts)),
    (predict, "parse_tree", _span_as("trees.parse", lambda attrs, t: attrs.update(nodes=t.n))),
]


def wrapped_targets() -> list[str]:
    """Targets that currently hold a wrapper; empty outside ``installed``."""
    return [f"{mod.__name__}.{attr}" for mod, attr, _ in TARGETS
            if hasattr(getattr(mod, attr), "perfbench_original")]


@contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for mod, attr, wrap in TARGETS:
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, wrap(tracer, fn))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def _git_commit(root: Path) -> str:
    """HEAD of ``root``'s repository, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict[str, str | int]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(root),
    }
