"""The batch job's layer split over the full 200-query reference frame.

    python scripts/batch_split.py [--seed 1111]

Builds the benchmark-shaped index (20k turns in 2 parquet files, from
``--seed``), then prints one JSON object:

- ``calls_ms``: the median wall ms of each call of one batch job: ``search()``
  in bmw and exhaustive mode, then ``match_count``, ``terms_agg``,
  ``date_histogram`` and ``stats_agg``;
- ``lookups_ms``: the median wall ms of each query-side docmeta lookup,
  on warm pins: ``match_count`` with ``where=[("role", "=", "user")]``,
  ``resolve_filter_docids`` of that ``where``, ``hydrate`` of the bmw
  results with ``columns=["doc_len"]`` and with every column (text
  included), and ``global_terms_agg``;
- ``agg_split_ms``: per aggregation, the median ms of the whole call and
  of its two remote parts in the same runs: the match-set run
  (``aggs._match_run``: the searcher actors score and pack the match sets,
  the work of ``_sharded_matches``) and the docmeta probe
  (``aggs._probe_refs``, timed until its partials are ready);
- ``split_ms``: per searcher mode, an in-process ``BM25Searcher`` over the
  same frame, on warm term caches: the median ms of its parse, score and
  assemble steps (``BM25Searcher._assemble``) and of their sum, each step
  timed in the same ``REPS`` runs, and the rows it emits. ``constant`` and
  ``exhaustive`` at k=2**31-1 are the match-set searches the aggregations
  run.

Ray starts locally with 4 CPUs and a 768 MB object store; the corpus and
index go to a temporary directory, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
sys.path.insert(0, os.path.join(REPO, "perfbench"))

REPS = 5  # timed runs per median


def _median_ms(fn) -> float:
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t) * 1e3)
    return round(statistics.median(times), 1)


def _medians(runs: list[dict]) -> dict:
    """The median of each named part over ``runs`` of {part: ms}."""
    return {k: round(statistics.median(r[k] for r in runs), 1) for k in runs[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1111)
    args = ap.parse_args(argv)

    import numpy as np
    import pyarrow as pa
    import ray
    from ray.data import DataContext

    import inputs
    from remote_vector_index_builder_ray import (
        BuildConfig,
        build_index,
        global_terms_agg,
        hydrate,
        search,
    )
    from remote_vector_index_builder_ray.fixtures import generate_queries
    from remote_vector_index_builder_ray.pipelines import aggs
    from remote_vector_index_builder_ray.pipelines.aggs import (
        date_histogram,
        match_count,
        stats_agg,
        terms_agg,
    )
    from remote_vector_index_builder_ray.pipelines.query import resolve_filter_docids
    from remote_vector_index_builder_ray.stages.search import (
        K_MAX,
        BM25Searcher,
        validate,
    )

    work = tempfile.mkdtemp(prefix="batch_split-")
    ray.init(address="local", num_cpus=4, object_store_memory=768 << 20,
             include_dashboard=False, logging_level="ERROR", log_to_driver=False)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    try:
        # the benchmark's batch workload: index and query frame from the seed
        df = inputs.corpus(20_000, args.seed)
        paths = inputs.write_parquet(df, os.path.join(work, "in"), 2)
        index_dir = os.path.join(work, "index")
        shutil.rmtree(index_dir, ignore_errors=True)
        build_index(BuildConfig(input_paths=paths, index_dir=index_dir))
        q = generate_queries(200, seed=args.seed + 4)

        calls = {
            "bmw": lambda: search(index_dir, q, mode="bmw").to_pandas(),
            "exhaustive": lambda: search(index_dir, q, mode="exhaustive").to_pandas(),
            "match_count": lambda: match_count(index_dir, q),
            "terms_agg": lambda: terms_agg(index_dir, q),
            "date_histogram": lambda: date_histogram(index_dir, q),
            "stats_agg": lambda: stats_agg(index_dir, q),
        }
        for fn in calls.values():  # warm the pool and the docmeta pins
            fn()
        calls_ms = {name: _median_ms(fn) for name, fn in calls.items()}

        res = search(index_dir, q, mode="bmw")
        where = [("role", "=", "user")]
        lookups = {
            "match_count_where": lambda: match_count(index_dir, q, where=where),
            "resolve_filter_docids": lambda: ray.get(
                resolve_filter_docids(index_dir, where)),
            "hydrate_doc_len": lambda: hydrate(index_dir, res, columns=["doc_len"]),
            "hydrate": lambda: hydrate(index_dir, res),
            "global_terms_agg": lambda: global_terms_agg(index_dir),
        }
        for fn in lookups.values():  # warm the pins the lookups read
            fn()
        lookups_ms = {name: _median_ms(fn) for name, fn in lookups.items()}

        # the aggregations' two remote parts, timed inside the same calls
        part = {}
        match_run, probe_refs = aggs._match_run, aggs._probe_refs

        def timed(name, fn, wait):
            def run(*a, **kw):
                t = time.perf_counter()
                out = fn(*a, **kw)
                if wait:
                    ray.wait(out, num_returns=len(out), fetch_local=False)
                part[name] += (time.perf_counter() - t) * 1e3
                return out
            return run

        aggs._match_run = timed("match_sets_ms", match_run, False)
        aggs._probe_refs = timed("probe_ms", probe_refs, True)
        agg_split = {}
        try:
            for name in ("match_count", "terms_agg", "date_histogram", "stats_agg"):
                runs = []
                for _ in range(REPS):
                    part.update(match_sets_ms=0.0, probe_ms=0.0)
                    t = time.perf_counter()
                    calls[name]()
                    runs.append({"call_ms": (time.perf_counter() - t) * 1e3, **part})
                agg_split[name] = _medians(runs)
        finally:
            aggs._match_run, aggs._probe_refs = match_run, probe_refs

        split = {}
        for mode, k in (("bmw", 10), ("exhaustive", 10),
                        ("constant", K_MAX), ("exhaustive", K_MAX)):
            batch = pa.Table.from_pandas(q.assign(k=np.int32(k)),
                                         preserve_index=False)
            s = BM25Searcher(index_dir, mode)
            row = validate(mode, batch.column_names)
            score = getattr(s, row.scorer)
            rows = s(batch).num_rows  # warms the term cache
            runs = []
            for _ in range(REPS):
                t0 = time.perf_counter()
                qs = [x for x in s._parse(batch, row) if x.k]
                t1 = time.perf_counter()
                hits = [score(x) for x in qs]
                t2 = time.perf_counter()
                s._assemble(qs, hits, row)
                t3 = time.perf_counter()
                runs.append({"call_ms": (t3 - t0) * 1e3, "parse_ms": (t1 - t0) * 1e3,
                             "score_ms": (t2 - t1) * 1e3,
                             "assemble_ms": (t3 - t2) * 1e3})
            split[f"{mode}@k={k}"] = {**_medians(runs), "rows": rows}
        print(json.dumps({"seed": args.seed, "reps": REPS,
                          "turns": len(df), "queries": len(q),
                          "calls_ms": calls_ms, "lookups_ms": lookups_ms,
                          "agg_split_ms": agg_split,
                          "split_ms": split}, indent=1))
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
