"""Harness smoke test at the smallest input shape.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced through the command line, and
checks that each run prints every metric that BENCHMARK.json declares, with
its unit, and that a corrupted engine output is counted as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(env.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=env.ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == layers.METRICS
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert report["metrics"]["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert report["host"]["ray_num_cpus"] == env.schedulable_cpus()
    if trace:
        path = os.path.join(env.WORK, "traces", f"{workload}-seed3.jsonl")
        assert spans.self_times(spans.read(path))


def test_corrupted_output_raises_failed_frac():
    run_dir = os.path.join(env.WORK, f"test-{os.getpid()}")
    ctx = workloads.Ctx(run_dir=run_dir, seed=4, seconds=1, scale=workloads.SMOKE,
                        tracer=spans.Tracer(enabled=False), corrupt=True)
    try:
        record = run.run(ctx, "serve")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    assert record["result"]["failed"] > 0 and not record["result"]["correct"]
    assert record["report"]["metrics"]["failed_frac"]["value"] > 0


def test_self_time_subtracts_children():
    tr = spans.Tracer(enabled=True)
    tr.spans = [{"id": 1, "name": "a", "parent": None, "request_id": 0, "start": 0.0, "end": 10.0},
                {"id": 2, "name": "b", "parent": 1, "request_id": 0, "start": 2.0, "end": 5.0},
                {"id": 3, "name": "b", "parent": 1, "request_id": 0, "start": 4.0, "end": 6.0}]
    assert spans.self_times(tr.spans) == {"a": 6.0, "b": 5.0}
