"""Smoke test of the benchmark on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a clean run reports no errors, and that a wrong output is counted.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(capsys) -> tuple[str, dict]:
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace, capsys):
    result = run.run(workload, 1, 0.2, bool(trace), workloads.TINY)
    out, printed = _last_json(capsys)
    assert printed == json.loads(json.dumps(result))
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0 and printed["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(printed["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert printed["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in out.splitlines())
    assert "error_rate" in out
    for alias in run.ALIASES[workload]:
        assert alias in out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_output_counts_as_failed(workload):
    input_dir = run.prepare_inputs(workload, 2, workloads.TINY)
    res = run.run_worker(workload, input_dir, 0.0, deadline=time.monotonic() + 60)
    ref = run.load_reference(workload, input_dir, workloads.TINY)
    attempted, failed = workloads.check(workload, res["outputs"], ref)
    assert attempted >= 1 and failed == 0

    outputs = res["outputs"]
    if workload == "gram-corpus":
        row = outputs[0][0][-1]
        row[0] = (float.fromhex(row[0]) * (1 + 1e-6)).hex()
    else:
        outputs[0][0] = (float.fromhex(outputs[0][0]) + 1.0).hex()
    attempted2, failed2 = workloads.check(workload, outputs, ref)
    assert attempted2 == attempted and failed2 >= 1


def test_raised_request_counts_as_failed():
    input_dir = run.prepare_inputs("pair-large", 2, workloads.TINY)
    ref = run.load_reference("pair-large", input_dir, workloads.TINY)
    assert workloads.check("pair-large", [[None] + ref["values"][1:]], ref) == (3, 1)


def test_wrappers_installed_only_inside_traced_block():
    originals = [getattr(mod, attr) for mod, attr, _ in spans.TARGETS]
    assert spans.wrapped_targets() == []
    with spans.installed(spans.Tracer()):
        assert len(spans.wrapped_targets()) == len(spans.TARGETS)
    assert spans.wrapped_targets() == []
    assert all(getattr(mod, attr) is fn for (mod, attr, _), fn in zip(spans.TARGETS, originals))
