"""Smoke test of the benchmark: every workload at tiny size, plain and
traced.  Asserts that every metric BENCHMARK.json names is printed with
its unit and that every output check passes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# spans each workload's traced run must record
LAYER_SPANS = {
    "docs-heavy": set(run.LAYER_TIME) - {"sources.tpch_kg", "ops.bgp",
                                         "stages.wl"},
    "kg-query": {"sources.tpch_kg", "ops.bgp", "stages.wl"},
}
LAYER_SPANS["walk-heavy"] = LAYER_SPANS["docs-heavy"]


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    runs = [json.loads(line) for line in lines[:-1]]
    assert len(runs) >= 2
    assert all({"host_canary_ms", "host_fault_ms_per_64mb"} <= set(r)
               for r in runs if r["ok"])
    return json.loads(lines[-1])


def test_benchmark_json_names_what_run_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    spans_before = set(os.listdir(os.path.join(run.WORK, "traces"))) \
        if os.path.isdir(os.path.join(run.WORK, "traces")) else set()
    res = bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
        return
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["trace.base_run_s"] > 0 and m["trace.run_s"] > 0
    assert 0.9 < m["trace.self_coverage"] <= 1.0
    for span, metric in run.LAYER_TIME.items():
        assert (m[metric] > 0) == (span in LAYER_SPANS[workload]), metric
    new = set(os.listdir(os.path.join(run.WORK, "traces"))) - spans_before
    spans = [json.loads(line) for name in new
             for line in open(os.path.join(run.WORK, "traces", name))]
    assert {"run_id", "id", "name", "parent", "start", "end"} <= set(spans[0])
    assert LAYER_SPANS[workload] <= {s["name"] for s in spans}
