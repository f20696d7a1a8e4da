"""Per-layer metrics of a traced run, measured from outside the engine: each
probe times calls into one module's public functions, and the rest are read
from the artifacts a build writes (manifest timings, parquet footers and
directory sizes). Every probe runs inside a span named after its layer.

Which end-to-end figure each layer metric should move, and on which
workload:

- build phases, unattributed build time, segment bytes, tokenizer and codec
  encode rates -> ``build_s`` on build; the phases also -> ``write_s`` on
  mutate (append runs ``build_index``, compact runs ``run_merge``)
- merged terms, postings row groups, decode rate, miss latency and bytes
  read per query -> the search tail on serve
- hit latency, query-service and HTTP overheads, fingerprint cost -> the
  search median on serve; hit latency also -> ``batch_s`` on batch
- searcher init and pool warm -> ``reopen_ms`` on mutate
- ``search()`` pool spin-up and the four aggregations -> ``batch_s`` on batch
- append, delete, compact and bytes written -> ``write_s`` on mutate
"""

from __future__ import annotations

import os
import statistics

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from remote_vector_index_builder_ray import (
    append_index,
    compact_index,
    date_histogram,
    delete_docs,
    match_count,
    search,
    stats_agg,
    terms_agg,
)
from remote_vector_index_builder_ray.functions.codec import (
    decode_posting_run,
    encode_posting_blocks,
)
from remote_vector_index_builder_ray.functions.tokenizer import analyze_column
from remote_vector_index_builder_ray.query_service import QueryService, manifest_fingerprint
from remote_vector_index_builder_ray.stages.search import BM25Searcher

import inputs
import spans
from workloads import Ctx, Result, Server, timed

# layers whose self time a traced run reports
LAYERS = ("pipelines.build", "pipelines.query", "pipelines.aggs", "pipelines.incremental",
          "pipelines.delete", "http_api", "query_service", "query_service.fingerprint",
          "stages.search", "functions.tokenizer", "functions.codec")

# name -> (unit, better), the per-layer metrics of every traced run
METRICS = {
    "pipelines.build.unattributed_s": ("s", "lower"),
    "stages.docids.conv_offsets_s": ("s", "lower"),
    "stages.postings.docmeta_s": ("s", "lower"),
    "stages.postings.partials_s": ("s", "lower"),
    "stages.merge.merge_s": ("s", "lower"),
    "stages.postings.segment_bytes_per_input_byte": ("ratio", "lower"),
    "stages.merge.terms": ("count", "lower"),
    "stages.merge.postings_row_groups": ("count", "lower"),
    "functions.tokenizer.analyze_mb_per_s": ("MB/s", "higher"),
    "functions.codec.encode_mpostings_per_s": ("Mpostings/s", "higher"),
    "functions.codec.decode_mpostings_per_s": ("Mpostings/s", "higher"),
    "stages.search.bmw.miss_query_ms": ("ms", "lower"),
    "stages.search.exhaustive.miss_query_ms": ("ms", "lower"),
    "stages.search.bmw.hit_query_ms": ("ms", "lower"),
    "stages.search.exhaustive.hit_query_ms": ("ms", "lower"),
    "stages.search.read_bytes_per_query": ("bytes", "lower"),
    "stages.search.init_s": ("s", "lower"),
    "query_service.pool_warm_s": ("s", "lower"),
    "query_service.overhead_ms": ("ms", "lower"),
    "query_service.fingerprint_ms": ("ms", "lower"),
    "http_api.overhead_ms": ("ms", "lower"),
    "pipelines.query.search_s": ("s", "lower"),
    "pipelines.query.pool_spinup_s": ("s", "lower"),
    "pipelines.aggs.match_count_s": ("s", "lower"),
    "pipelines.aggs.terms_agg_s": ("s", "lower"),
    "pipelines.aggs.date_histogram_s": ("s", "lower"),
    "pipelines.aggs.stats_agg_s": ("s", "lower"),
    "pipelines.incremental.append_s": ("s", "lower"),
    "pipelines.incremental.compact_s": ("s", "lower"),
    "pipelines.delete.delete_s": ("s", "lower"),
    "pipelines.incremental.bytes_written_per_input_byte": ("ratio", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    **{f"self_s.{name}": ("s", "lower") for name in LAYERS},
}


def _rchar() -> int:
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    return 0


def _median_s(fn, reps: int) -> float:
    return statistics.median(timed(fn)[1] for _ in range(reps))


def build_phases(res: Result) -> dict:
    man = res.manifest
    parts = man["partitions"].values()
    phases = {
        "stages.docids.conv_offsets_s": man["stages"]["conv_offsets"]["sec"],
        "stages.postings.docmeta_s": sum(p["sec_docmeta"] for p in parts),
        "stages.postings.partials_s": sum(p["sec_partials"] for p in parts),
        "stages.merge.merge_s": man["stages"]["merge"]["sec"],
    }
    phases["pipelines.build.unattributed_s"] = res.build_wall_s - sum(phases.values())
    base_bytes = sum(os.path.getsize(p) for p in man["config"]["input_paths"])
    seg = inputs.dir_bytes(os.path.join(res.index_dir, "segments"))
    phases["stages.postings.segment_bytes_per_input_byte"] = seg / base_bytes
    phases["stages.merge.terms"] = man["stages"]["merge"]["terms"]
    return phases


def codec_rates(ctx: Ctx, index_dir: str) -> dict:
    pdir = os.path.join(index_dir, "postings")
    files = sorted(f for f in os.listdir(pdir) if f.endswith(".parquet"))
    row_groups = sum(pq.ParquetFile(os.path.join(pdir, f)).metadata.num_row_groups
                     for f in files)
    # one bucket file: every term of one hash slice of the vocabulary
    tbl = pq.read_table(os.path.join(pdir, files[0]))
    cols = {c: tbl[c].to_pylist() for c in ("first_docids", "last_docids", "counts",
                                           "docid_bytes", "tf_bytes", "dl_bytes")}
    rows = list(zip(*(cols[c] for c in ("first_docids", "counts", "docid_bytes",
                                        "tf_bytes", "dl_bytes", "last_docids"))))
    n = sum(sum(r[1]) for r in rows)
    with ctx.tracer.span("functions.codec"):
        runs = [decode_posting_run(*r) for r in rows]
        dec = _median_s(lambda: [decode_posting_run(*r) for r in rows], ctx.scale.ledger_reps)
        enc = _median_s(lambda: [encode_posting_blocks(d, t, l, 128) for d, t, l in runs],
                        ctx.scale.ledger_reps)
    return {"stages.merge.postings_row_groups": row_groups,
            "functions.codec.decode_mpostings_per_s": n / dec / 1e6,
            "functions.codec.encode_mpostings_per_s": n / enc / 1e6}


def tokenizer_rate(ctx: Ctx, res: Result) -> dict:
    text = pa.array(res.docs["text"].tolist(), type=pa.string())
    mb = text.nbytes / 1e6
    with ctx.tracer.span("functions.tokenizer"):
        t = _median_s(lambda: analyze_column(text), ctx.scale.ledger_reps)
    return {"functions.tokenizer.analyze_mb_per_s": mb / t}


def searcher_probes(ctx: Ctx, index_dir: str, queries) -> dict:
    """Per query: a fresh in-process searcher (init), its first call (every
    term loaded from parquet) and the same call again (every term cached)."""
    out = {}
    init, io = [], []
    for mode in ("bmw", "exhaustive"):
        miss, hit = [], []
        for q in queries:
            tbl = pa.Table.from_pandas(q, preserve_index=False)
            with ctx.tracer.span("stages.search"):
                s, dt = timed(BM25Searcher, index_dir, mode)
                init.append(dt)
                r0 = _rchar()
                miss.append(timed(s, tbl)[1])
                io.append(_rchar() - r0)
                hit.append(timed(s, tbl)[1])
        out[f"stages.search.{mode}.miss_query_ms"] = 1e3 * statistics.median(miss)
        out[f"stages.search.{mode}.hit_query_ms"] = 1e3 * statistics.median(hit)
    out["stages.search.init_s"] = statistics.median(init)
    out["stages.search.read_bytes_per_query"] = statistics.median(io)
    return out


def inline_ms(ctx: Ctx, index_dir: str, q) -> tuple[float, float]:
    """(first call, median repeated call) of ``q`` on a fresh in-process
    bmw searcher: the query's cost without any serving or pool layer."""
    tbl = pa.Table.from_pandas(q, preserve_index=False)
    with ctx.tracer.span("stages.search"):
        s = BM25Searcher(index_dir, "bmw")
        first = timed(s, tbl)[1]
        return 1e3 * first, 1e3 * _median_s(lambda: s(tbl), ctx.scale.ledger_reps)


def serving_probes(ctx: Ctx, index_dir: str, q) -> dict:
    reps = ctx.scale.ledger_reps
    tr = ctx.tracer
    _, inline_hit_ms = inline_ms(ctx, index_dir, q)
    srv = Server(ctx, QueryService())
    try:
        srv.trace()
        _, warm = timed(srv.qs.search, index_dir, q)
        qs_ms = 1e3 * _median_s(lambda: srv.qs.search(index_dir, q), reps)
        text = q["text"].iloc[0]
        with tr.span("http_api"):
            http_ms = 1e3 * _median_s(lambda: srv.search(index_dir, 0, text), reps)
    finally:
        srv.close()
    with tr.span("query_service.fingerprint"):
        fp_ms = 1e3 * _median_s(lambda: manifest_fingerprint(index_dir), 10 * reps)
    return {"query_service.pool_warm_s": warm,
            "query_service.overhead_ms": qs_ms - inline_hit_ms,
            "query_service.fingerprint_ms": fp_ms,
            "http_api.overhead_ms": http_ms - qs_ms}


def batch_probes(ctx: Ctx, index_dir: str, q) -> dict:
    tr = ctx.tracer
    inline_miss_ms, _ = inline_ms(ctx, index_dir, q)
    with tr.span("pipelines.query"):
        _, search_s = timed(lambda: search(index_dir, q, mode="bmw").to_pandas())
    out = {"pipelines.query.search_s": search_s,
           "pipelines.query.pool_spinup_s": search_s - inline_miss_ms / 1e3}
    for name, fn in (("match_count", match_count), ("terms_agg", terms_agg),
                     ("date_histogram", date_histogram), ("stats_agg", stats_agg)):
        with tr.span("pipelines.aggs"):
            out[f"pipelines.aggs.{name}_s"] = timed(fn, index_dir, q)[1]
    return out


def write_probes(ctx: Ctx, index_dir: str, n_base: int) -> dict:
    """Runs last: it changes the index. ``n_base``: docs of the base build."""
    S = ctx.scale
    tr = ctx.tracer
    gen = inputs.corpus(S.gen_turns, ctx.seed + 9, conv_prefix="ledger-")
    paths = inputs.write_parquet(gen, os.path.join(ctx.run_dir, "ledger-gen"), 1)
    before = inputs.dir_bytes(index_dir)
    with tr.span("pipelines.incremental"):
        _, append_s = timed(append_index, index_dir, paths)
    written = inputs.dir_bytes(index_dir) - before
    rng = np.random.default_rng(ctx.seed + 10)
    victims = rng.choice(n_base, size=S.delete_docs, replace=False).tolist()
    with tr.span("pipelines.delete"):
        _, delete_s = timed(delete_docs, index_dir, docids=victims)
    with tr.span("pipelines.incremental"):
        _, compact_s = timed(compact_index, index_dir)
    return {"pipelines.incremental.append_s": append_s,
            "pipelines.incremental.compact_s": compact_s,
            "pipelines.delete.delete_s": delete_s,
            "pipelines.incremental.bytes_written_per_input_byte":
                written / sum(os.path.getsize(p) for p in paths)}


def ledger(ctx: Ctx, res: Result) -> dict:
    """Every per-layer metric for this workload's index, plus the trace's
    overhead and self time per layer."""
    tr = ctx.tracer
    stream = inputs.QueryStream(ctx.seed + 8)
    # mixed queries: a stopword plus Zipf-popular terms, never empty
    queries = []
    while len(queries) < ctx.scale.ledger_reps:
        f = stream.frame(1, first_id=len(queries))
        if len(f["text"].iloc[0].split()) > 1 and not f["text"].iloc[0].startswith("zzz"):
            queries.append(f)
    out = {}
    with tr.request(-1, "ledger"):
        out.update(build_phases(res))
        out.update(tokenizer_rate(ctx, res))
        out.update(codec_rates(ctx, res.index_dir))
        out.update(searcher_probes(ctx, res.index_dir, queries))
        out.update(serving_probes(ctx, res.index_dir, queries[0]))
        out.update(batch_probes(ctx, res.index_dir, queries[0]))
        out.update(write_probes(ctx, res.index_dir, len(res.docs)))
    out["trace.overhead_ms"] = statistics.median(res.traced_ms) - statistics.median(res.op_ms)
    out["trace.spans"] = len(tr.spans)
    self_s = spans.self_times(tr.spans)
    for name in LAYERS:
        out[f"self_s.{name}"] = self_s.get(name, 0.0)
    return {k: (float(v), METRICS[k][0]) for k, v in out.items()}
