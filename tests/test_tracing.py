"""The benchmark's traced run still finds every library name it wraps.

``perfbench/spans.py`` replaces library entry points by module attribute
(``predict.LevelAncestorIndex(parent, depth)``, ``predict.merge_forest``,
``predict.merged_esa``, ``predict.matching_statistics``,
``predict.parse_tree``, ``kernel.merge_trees``, ``kernel.merged_esa``,
``kernel.subpath_kernel`` and the esa builder).  Renaming one of them
breaks the traced benchmark run; this test makes that a unit-test failure.
The module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from conftest import rel_close
from subpath_kernel.kernel import KernelParams, subpath_kernel_oracle
from subpath_kernel.predict import SupportSet, predict_direct
from subpath_kernel.trees import LabelTable

# The package re-exports a function named ``predict``; fetch the modules.
kernel_module = importlib.import_module("subpath_kernel.kernel")
predict_module = importlib.import_module("subpath_kernel.predict")
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_index_build_and_score(monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    table = LabelTable()
    with spans.installed(tracer):
        assert len(spans.wrapped_targets()) == len(spans.TARGETS)
        with tracer.phase("setup"):
            trees = [predict_module.parse_tree(s, table) for s in ("a(b,c(a))", "c(a,b)", "a(b(c))")]
            sv = SupportSet(trees=trees, alphas=[1.0, -0.5, 0.75], bias=0.25,
                            params=KernelParams(lam=0.5))
            idx = predict_module.build_master_index(sv)
        with tracer.phase("round0"):
            # The input's leaf c under b reads c, b, a; in the master c, b
            # continues only as the leaf c, b, a, so the a is compared inside
            # an interval edge, read through the match's master cursor: the
            # library makes no scalar level-ancestor query.
            t = predict_module.parse_tree("a(c(a),b(c))", table)
            score = predict_module.predict(idx, t)
    assert spans.wrapped_targets() == []
    names = {rec[0] for rec in tracer.spans}
    assert {"trees.parse", "kernel.merge", "kernel.merged_esa", "esa.build",
            "level_ancestor.build", "predict.match"} <= names
    assert tracer.la_queries == 0
    metrics = tracer.layer_metrics()
    assert metrics["predict.match_comparisons"] > 0 and metrics["level_ancestor.queries"] == 0
    assert rel_close(score, predict_direct(sv, t), 1e-12)


def test_traced_pair_kernel_and_gram(monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    table = LabelTable()
    corpus = [predict_module.parse_tree(s, table) for s in ("a(b,c(a))", "c(a,b)", "a(b)")]
    params = KernelParams(lam=0.5)
    with spans.installed(tracer):
        with tracer.phase("round0"):
            pair = kernel_module.subpath_kernel(corpus[0], corpus[1], params)
            gram = kernel_module.gram_matrix(corpus, params, normalize=True, jobs=1)
    assert spans.wrapped_targets() == []
    names = {rec[0] for rec in tracer.spans}
    assert {"kernel.merge", "kernel.merged_esa", "kernel.subpath_kernel", "esa.build"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["kernel.calls"] == 1 + 6 and metrics["esa.calls"] == 1 + 6
    assert rel_close(pair, subpath_kernel_oracle(corpus[0], corpus[1], 0.5), 1e-12)
    assert all(rel_close(gram[i][i], 1.0, 1e-12) for i in range(3))
