"""Tests of the benchmark itself: every workload at tiny size.

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the stage metrics each workload applies to are reported, that
traced spans nest, and that self times are >= 0 and sum to no more than
the traced pass time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

STAGES = {
    "desk-pipeline": {"collect_gen_per_s", "train_step_per_s",
                      "eval_gen_per_s", "model_perf", "random_perf"},
    "engine-alg2": {"collect_gen_per_s", "eval_gen_per_s", "random_perf"},
    "train-paper": {"train_step_per_s"},
}
TRACE_EXTRAS = {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s"}


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(next(l for l in lines if l.startswith("report "))
                        [len("report "):])
    return result, report


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(STAGES)


@pytest.mark.parametrize("workload", list(STAGES))
def test_end_to_end_metrics(workload):
    result, report = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["failed_ratio"] == 0.0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(expected)
    for name, unit in expected.items():
        assert got[name]["unit"] == unit
        assert got[name]["value"] > 0
    stages = report["stage_metrics"]
    assert set(stages) == STAGES[workload]
    for name, m in stages.items():
        assert m["unit"] and m["value"] >= 0
    for name in ("model_perf", "random_perf"):
        if name in stages:
            assert 0.0 <= stages[name]["value"] <= 1.0


@pytest.mark.parametrize("workload", list(STAGES))
def test_traced_run(workload):
    result, _ = run_bench(workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = result["metrics"]
    assert set(got) == set(expected)
    assert TRACE_EXTRAS <= set(expected)
    for name, unit in expected.items():
        assert got[name]["unit"] == unit, name

    trace = json.loads((ROOT / ".perfbench_out"
                        / f"trace-{workload}-s7.json").read_text())
    spans = trace["spans"]
    assert spans
    for i, (name, start, end, parent, _) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i
            _, p_start, p_end, _, _ = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])

    sys.path.insert(0, str(HERE))
    try:
        import tracing
    finally:
        sys.path.remove(str(HERE))
    own = tracing.self_times(spans)
    assert min(own) >= -1e-9
    for first, stop, pass_s in trace["passes"]:
        assert sum(own[first:stop]) <= pass_s
        assert all(spans[i][3] == -1 or first <= spans[i][3] < stop
                   for i in range(first, stop))
