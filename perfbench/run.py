"""The repository benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload {build,serve,batch,mutate} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout. It starts a local Ray cluster
sized to the schedulable CPUs, sets the workload up, runs its operation in a
closed loop for ``--seconds``, checks every output against the exhaustive
oracle, and prints:

- with ``--trace 1``, the span summary (self time per layer);
- a ``{"report": ...}`` line: host fingerprint, steal, working-set facts,
  ``failed_frac`` and the workload's own metrics by name and unit;
- last, the result object ``{"correct", "attempted", "failed", "metrics"}``.
  Untraced runs give the end-to-end metrics, the same names on every
  workload, each over that workload's operation (one build, one request,
  one batch job, one mutate cycle): ``op_p50_ms`` is ``build_s``,
  ``search_p50_ms`` or ``batch_s``, taken over every untraced op of the
  window. Traced runs give the per-layer metrics.

Set-up runs ``setup_reps`` times in a run and ``setup_s`` is the median.

BENCHMARK.json lists build and batch. ``serve`` and ``mutate`` run the same
way but are left out of the repeated runs. On a shared 4-vCPU VM the serve
median follows the hypervisor's steal, not the program: over forty 25 s
serve runs it went from 11.6 ms at 0.8% steal to 27 ms at 14%, and its
spread across ten seeds was 0.11-0.57 of the median. Longer windows,
pinning the serving processes to one CPU, CPU time per request and keeping
the window's least-stolen half did not narrow it. Build and batch jobs
spread 0.05-0.18 on the same host. ``mutate`` does not fit the repeated-run
time budget beside them. Every traced run still measures the layers serve
and mutate exercise (``layers.py``).

The tail latency and the throughput (``search_p99_ms``, ``search_qps``,
``build_turns_per_s`` ...) are in the report line but not in the result:
they follow the steal even more than the median does.

Files go under ``<checkout>/.perfbench/``: the run's inputs and indexes
(removed at exit), traces (``traces/``) and one record per run
(``results.jsonl``, which ``perfbench/compare.py`` reads).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import env

sys.path.insert(0, env.ROOT)

# the engine must import from the checkout before any Ray work starts
import remote_vector_index_builder_ray  # noqa: E402,F401

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170

# name -> unit of the end-to-end metrics every untraced run reports
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "index_bytes_per_input_byte": "ratio",
}


def end_to_end(res: workloads.Result, peak_mb: float) -> dict:
    values = {
        "setup_s": res.setup_s,
        "op_p50_ms": statistics.median(res.op_ms),
        "peak_rss_mb": peak_mb,
        "index_bytes_per_input_byte": res.index_bytes / res.input_bytes,
    }
    return {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="input sizes; smoke is the smallest shape, for the harness test")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    run_dir = os.path.join(env.WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    tracer = spans.Tracer(enabled=bool(args.trace))
    ctx = workloads.Ctx(run_dir=run_dir, seed=args.seed, seconds=args.seconds,
                        scale=workloads.SMOKE if args.scale == "smoke" else workloads.FULL,
                        tracer=tracer)
    try:
        record = run(ctx, args.workload)
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        path = os.path.join(env.WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tracer.write(path)
        print(spans.summary(tracer.spans))
        overhead = record["result"]["metrics"]["trace.overhead_ms"]["value"]
        print(f"tracing overhead: {overhead:.3f} ms per operation (traced minus untraced median)")
        print(f"trace: {path}")
    with open(os.path.join(env.WORK, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"report": record["report"]}))
    print(json.dumps(record["result"]))
    return 0


def run(ctx: workloads.Ctx, workload: str) -> dict:
    steal = env.StealMeter()
    with env.RaySession(ctx.run_dir) as ray_session, env.TreeMemory() as mem:
        ctx.mem = mem
        res = workloads.WORKLOADS[workload](ctx)
        per_layer = layers.ledger(ctx, res) if ctx.tracer.enabled else {}
    if ctx.tracer.enabled:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = end_to_end(res, mem.peak_mb)
    failed_frac = res.failed / max(1, res.attempted)
    report = {
        "workload": workload, "seed": ctx.seed, "seconds": ctx.seconds,
        "trace": int(ctx.tracer.enabled), "time": time.time(),
        "host": env.fingerprint(ray_session.num_cpus), "source": env.source_id(),
        "steal_pct": steal.pct(), "facts": res.facts,
        "metrics": {
            "setup_s": {"value": res.setup_s, "unit": "s"},
            "peak_rss_mb": {"value": mem.peak_mb, "unit": "MB"},
            "failed_frac": {"value": failed_frac, "unit": "ratio"},
            **{k: {"value": float(v), "unit": u} for k, (v, u) in res.report.items()},
        },
    }
    result = {"correct": res.failed == 0, "attempted": res.attempted,
              "failed": res.failed, "metrics": metrics}
    return {"report": report, "result": result}


if __name__ == "__main__":
    sys.exit(main())
