"""The four workloads. Each sets up, runs its operation in a closed loop for
the run's window, then checks every output against the oracle.

- ``build``:  one ``build_index`` of a seeded corpus into a fresh directory,
  on a warm Ray worker pool (sources, docids, postings, tokenizer, merge,
  codec, state). No search layer runs.
- ``serve``:  one client, one query per ``POST /_search``, waiting for each
  reply (http_api, query_service, stages.search on a pool warmed in set-up).
  The searcher's term cache is sized below the run's distinct query terms,
  so cache hits and postings loads both occur.
- ``batch``:  one library job: ``search()`` in bmw and exhaustive mode, then
  ``match_count``, ``terms_agg``, ``date_histogram`` and ``stats_agg`` on
  the same query frame. Every call builds its own Ray Data pool, so this
  isolates the batch orchestration that ``serve`` never runs.
- ``mutate``: writes beside reads. A cycle appends a seeded generation,
  deletes a seeded docid set and compacts, reading after each commit (the
  pool reopen), then sends a burst of the serve stream.
"""

from __future__ import annotations

import contextlib
import http.client
import inspect
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa

from remote_vector_index_builder_ray import (
    BuildConfig,
    append_index,
    build_index,
    compact_index,
    date_histogram,
    delete_docs,
    match_count,
    search,
    stats_agg,
    terms_agg,
)
from remote_vector_index_builder_ray import query_service as qs_mod
from remote_vector_index_builder_ray.fixtures import generate_queries
from remote_vector_index_builder_ray.http_api import make_server
from remote_vector_index_builder_ray.query_service import QueryService
from remote_vector_index_builder_ray.service import BuildService
from remote_vector_index_builder_ray.stages.search import BM25Searcher

import gate
import inputs
from env import TreeMemory
from spans import Tracer


@dataclass(frozen=True)
class Scale:
    build_turns: int = 40_000     # corpus of the build workload
    build_files: int = 4
    warm_turns: int = 2_000       # set-up build that warms the worker pool
    index_turns: int = 20_000     # index served by serve, batch and mutate
    index_files: int = 2
    batch_queries: int = 200      # query frame of one batch job (the reference set's size)
    check_queries: int = 24       # queries checked against each build
    cache_terms: int = 256        # serve pool's per-actor term cache
    gen_turns: int = 2_000        # one appended generation
    delete_docs: int = 200        # docids deleted per mutate cycle
    burst: int = 20               # reads after each mutate cycle
    ledger_reps: int = 5          # repetitions of each per-layer probe
    setup_reps: int = 3           # set-ups per run; setup_s is their median


FULL = Scale()
SMOKE = Scale(build_turns=2_000, build_files=1, warm_turns=500, index_turns=2_000,
              index_files=1, batch_queries=8, check_queries=8, cache_terms=16,
              gen_turns=200, delete_docs=20, burst=4, ledger_reps=2,
              setup_reps=1)


@dataclass
class Ctx:
    run_dir: str
    seed: int
    seconds: float
    scale: Scale
    tracer: Tracer
    # samples memory from the start of set-up until the window ends
    mem: TreeMemory | None = None
    # test hook: every engine output is corrupted before the gate sees it
    corrupt: bool = False

    def path(self, *parts) -> str:
        return os.path.join(self.run_dir, *parts)

    def out(self, x):
        return gate.corrupt(x) if self.corrupt else x


@dataclass
class Result:
    setup_s: float
    op_ms: list                   # latency of every untraced op
    attempted: int
    failed: int
    index_bytes: int
    input_bytes: int
    report: dict                  # workload metrics by name: (value, unit)
    facts: dict
    traced_ms: list = field(default_factory=list)   # ops run with tracing on
    index_dir: str = ""
    docs: pd.DataFrame | None = None
    manifest: dict | None = None
    build_wall_s: float = 0.0


class Window:
    """Closed loop over the run's window: ops run back to back until the
    window has elapsed. A traced run alternates untraced and traced ops so
    the trace reports its own overhead. Memory sampling stops when the
    window closes, so checks that run afterwards do not count toward it."""

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.traced_run = ctx.tracer.enabled
        self.min_ops = 2 if self.traced_run else 1
        self.ms: list[float] = []
        self.traced_ms: list[float] = []
        self.t0 = time.perf_counter()

    def more(self) -> bool:
        n = len(self.ms) + len(self.traced_ms)
        if n < self.min_ops or time.perf_counter() - self.t0 < self.ctx.seconds:
            return True
        if self.ctx.mem is not None:
            self.ctx.mem.stop()
        return False

    @contextlib.contextmanager
    def op(self, name: str):
        tr = self.ctx.tracer
        n = len(self.ms) + len(self.traced_ms)
        tr.enabled = self.traced_run and n % 2 == 1
        t = time.perf_counter()
        with tr.request(n, name):
            yield
        ms = 1e3 * (time.perf_counter() - t)
        if tr.enabled:
            self.traced_ms.append(ms)
        else:
            self.ms.append(ms)
        tr.enabled = self.traced_run


def tail(ms: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it (the
    maximum below 20 samples) and its label."""
    n = len(ms)
    for p in (99, 95, 90):
        if n * (1 - p / 100) >= 10:
            return float(np.percentile(ms, p)), f"p{p:g}"
    return float(max(ms)), "max"


def timed(fn, *a, **kw):
    t = time.perf_counter()
    out = fn(*a, **kw)
    return out, time.perf_counter() - t


def traced_build(ctx: Ctx, paths: list[str], index_dir: str) -> tuple[dict, float]:
    with ctx.tracer.span("pipelines.build"):
        return timed(build_index, BuildConfig(input_paths=paths, index_dir=index_dir))


def repeat_setup(ctx: Ctx, index_dir: str, paths: list[str], warm=None, reset=None):
    """Set-up, ``setup_reps`` times over: a fresh build of ``paths`` into
    ``index_dir``, then ``warm()``; ``reset()`` undoes ``warm`` before each
    repetition. Returns the median set-up time and the last build's manifest
    and wall time."""
    times = []
    for rep in range(ctx.scale.setup_reps):
        if rep and reset is not None:
            reset()
        shutil.rmtree(index_dir, ignore_errors=True)
        t = time.perf_counter()
        man, wall = traced_build(ctx, paths, index_dir)
        if warm is not None:
            warm()
        times.append(time.perf_counter() - t)
    return statistics.median(times), man, wall


def seeded_index(ctx: Ctx, warm=None, reset=None):
    """The run's corpus, its parquet inputs, and the set-up of the index
    built from them: (df, paths, manifest, build wall, setup_s)."""
    S = ctx.scale
    df = inputs.corpus(S.index_turns, ctx.seed)
    paths = inputs.write_parquet(df, ctx.path("in"), S.index_files)
    setup_s, man, wall = repeat_setup(ctx, ctx.path("index"), paths, warm, reset)
    return df, paths, man, wall, setup_s


class Server:
    """The HTTP facade over one QueryService, plus a single client."""

    def __init__(self, ctx: Ctx, qs: QueryService):
        self.ctx = ctx
        self.qs = qs
        self.httpd = make_server(BuildService(), query_service=qs)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.httpd.server_address[1],
                                               timeout=120)
        self._undo = []

    def trace(self) -> None:
        tr = self.ctx.tracer
        self._undo = [tr.wrap(self.qs, "search", "query_service"),
                      tr.wrap(qs_mod, "manifest_fingerprint", "query_service.fingerprint")]

    def post(self, body: dict) -> tuple[int, dict]:
        self.conn.request("POST", "/_search", body=json.dumps(body),
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read())

    def search(self, index_dir: str, qid: int, text: str, k: int = 10):
        return self.post({"index_dir": index_dir,
                          "queries": [{"query_id": qid, "text": text, "k": k}]})

    def close(self) -> None:
        for undo in self._undo:
            undo()
        self.conn.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()
        self.qs.shutdown()


def rows_of(payload: dict) -> list[tuple[int, float]]:
    return [(r["docid"], r["score"]) for r in sorted(payload.get("rows", []),
                                                     key=lambda r: r["rank"])]


# ---------------------------------------------------------------------------
def run_build(ctx: Ctx) -> Result:
    S = ctx.scale
    df = inputs.corpus(S.build_turns, ctx.seed)
    paths = inputs.write_parquet(df, ctx.path("in"), S.build_files)
    in_bytes = sum(os.path.getsize(p) for p in paths)
    warm = inputs.write_parquet(inputs.corpus(S.warm_turns, ctx.seed + 1), ctx.path("warm"), 1)
    checks = inputs.QueryStream(ctx.seed + 2).frame(S.check_queries)

    # set-up: a small build; the first of a session spawns and warms the Ray workers
    setup_s, _, _ = repeat_setup(ctx, ctx.path("warm-index"), warm)

    built = []                       # (index_dir, manifest, wall) of every build
    w = Window(ctx)
    while w.more():
        index_dir = ctx.path(f"build-{len(built)}")
        with w.op("build"):
            man, wall = traced_build(ctx, paths, index_dir)
        built.append((index_dir, man, wall))

    # every build is checked after the window, so neither the oracle nor the
    # checking searcher counts toward the window's time or memory
    oracle = gate.LiveOracle(inputs.dense_order(df))
    tbl = pa.Table.from_pandas(checks, preserve_index=False)
    failed = 0
    for index_dir, man, _ in built:
        res = ctx.out(BM25Searcher(index_dir, "bmw")(tbl).to_pandas())
        failed += int(man["stats"]["N"]) != len(df) or gate.check_topk(oracle, checks, res) > 0
    for index_dir, _, _ in built[:-1]:
        shutil.rmtree(index_dir)

    index_dir, man, wall = built[-1]
    attempted = len(built)
    ms = w.ms or w.traced_ms
    build_s = statistics.median(ms) / 1e3
    idx_bytes = inputs.dir_bytes(index_dir)
    return Result(
        setup_s=setup_s, op_ms=w.ms, attempted=attempted,
        failed=failed, index_bytes=idx_bytes, input_bytes=in_bytes, traced_ms=w.traced_ms,
        report={"build_s": (build_s, "s"),
                "build_turns_per_s": (len(df) / build_s, "turns/s"),
                "index_bytes_per_input_byte": (idx_bytes / in_bytes, "ratio")},
        facts={"turns": len(df), "input_bytes": in_bytes, "index_bytes": idx_bytes,
               "builds": attempted},
        index_dir=index_dir, docs=df, manifest=man, build_wall_s=wall)


def run_serve(ctx: Ctx) -> Result:
    S = ctx.scale
    index_dir = ctx.path("index")
    srv = Server(ctx, QueryService(cache_terms=S.cache_terms))
    try:
        if ctx.tracer.enabled:
            srv.trace()
        # set-up ends once the pool is warm: the first request opens it
        df, paths, man, build_s, setup_s = seeded_index(
            ctx, warm=lambda: srv.search(index_dir, -1, "the"), reset=srv.qs.shutdown)
        stream = inputs.QueryStream(ctx.seed + 3)
        sent = []
        w = Window(ctx)
        while w.more():
            text = stream.next_text()
            with w.op("http_api"):
                status, payload = srv.search(index_dir, len(sent), text)
            sent.append((text, status, rows_of(payload)))
    finally:
        srv.close()

    oracle = gate.LiveOracle(inputs.dense_order(df))
    failed = sum(st != 200 or not gate.topk_matches(oracle, text, 10, ctx.out(rows))
                 for text, st, rows in sent)
    ms = w.ms or w.traced_ms
    t_ms, t_label = tail(ms)
    in_bytes = sum(os.path.getsize(p) for p in paths)
    distinct = inputs.distinct_terms(t for t, _, _ in sent)
    idx_bytes = inputs.dir_bytes(index_dir)
    return Result(
        setup_s=setup_s, op_ms=w.ms, attempted=len(sent),
        failed=failed, index_bytes=idx_bytes, input_bytes=in_bytes,
        traced_ms=w.traced_ms,
        report={"search_p50_ms": (statistics.median(ms), "ms"),
                f"search_{t_label}_ms": (t_ms, "ms"),
                "search_qps": (1e3 * len(ms) / sum(ms), "req/s")},
        facts={"turns": len(df), "input_bytes": in_bytes, "index_bytes": idx_bytes,
               "requests": len(sent),
               "distinct_query_terms": distinct, "cache_terms": S.cache_terms,
               "working_set_exceeds_cache": distinct > S.cache_terms},
        index_dir=index_dir, docs=df, manifest=man, build_wall_s=build_s)


def batch_job(ctx: Ctx, index_dir: str, q: pd.DataFrame) -> dict:
    tr = ctx.tracer
    out = {}
    for mode in ("bmw", "exhaustive"):
        with tr.span("pipelines.query"):
            out[mode] = search(index_dir, q, mode=mode).to_pandas()
    for name, fn in (("match_count", match_count), ("terms_agg", terms_agg),
                     ("date_histogram", date_histogram), ("stats_agg", stats_agg)):
        with tr.span("pipelines.aggs"):
            out[name] = fn(index_dir, q)
    return out


def batch_mismatches(oracle: gate.LiveOracle, q: pd.DataFrame, out: dict) -> int:
    return (gate.check_topk(oracle, q, out["bmw"])
            + gate.check_topk(oracle, q, out["exhaustive"])
            + gate.check_match_count(oracle, q, out["match_count"])
            + gate.check_terms_agg(oracle, q, out["terms_agg"])
            + gate.check_date_histogram(oracle, q, out["date_histogram"])
            + gate.check_stats_agg(oracle, q, out["stats_agg"]))


def run_batch(ctx: Ctx) -> Result:
    S = ctx.scale
    df, paths, man, build_s, setup_s = seeded_index(ctx)
    index_dir = ctx.path("index")
    # the reference query kinds (rare, stopword, mixed, absent, repeated, empty)
    q = generate_queries(S.batch_queries, seed=ctx.seed + 4)
    outs = []
    w = Window(ctx)
    while w.more():
        with w.op("batch"):
            outs.append(batch_job(ctx, index_dir, q))
    oracle = gate.LiveOracle(inputs.dense_order(df))
    failed = sum(batch_mismatches(oracle, q, ctx.out(o)) > 0 for o in outs)
    ms = w.ms or w.traced_ms
    in_bytes = sum(os.path.getsize(p) for p in paths)
    distinct = inputs.distinct_terms(q["text"])
    idx_bytes = inputs.dir_bytes(index_dir)
    # search() opens its searchers with the engine's default term cache
    cache = inspect.signature(BM25Searcher).parameters["cache_terms"].default
    return Result(
        setup_s=setup_s, op_ms=w.ms, attempted=len(outs),
        failed=failed, index_bytes=idx_bytes, input_bytes=in_bytes,
        traced_ms=w.traced_ms,
        report={"batch_s": (statistics.median(ms) / 1e3, "s")},
        facts={"turns": len(df), "input_bytes": in_bytes, "index_bytes": idx_bytes,
               "queries": len(q), "jobs": len(outs), "distinct_query_terms": distinct,
               "cache_terms": cache, "working_set_exceeds_cache": distinct > cache},
        index_dir=index_dir, docs=df, manifest=man, build_wall_s=build_s)


class IndexModel:
    """What the index should hold after each committed write: the documents
    its statistics count and the tombstoned docids its results hide."""

    def __init__(self, docs: pd.DataFrame):
        self.docs = docs
        self.expunged: set[int] = set()
        self.tombs: set[int] = set()
        self.states: list[tuple] = []

    def commit(self) -> int:
        self.states.append((len(self.docs), frozenset(self.expunged),
                            frozenset(self.tombs - self.expunged)))
        return len(self.states) - 1

    def append(self, gen: pd.DataFrame) -> None:
        # a generation's docids continue after every docid ever assigned
        self.docs = pd.concat([self.docs, inputs.dense_order(gen, base=len(self.docs))],
                              ignore_index=True)

    def delete(self, docids) -> None:
        self.tombs.update(int(d) for d in docids)

    def compact(self) -> None:
        self.expunged |= self.tombs

    def live_docids(self) -> np.ndarray:
        return np.setdiff1d(self.docs["docid"].to_numpy(),
                            np.fromiter(self.tombs, np.int64, len(self.tombs)))

    def oracle(self, state: int) -> gate.LiveOracle:
        n, gone, hidden = self.states[state]
        docs = self.docs.iloc[:n]
        return gate.LiveOracle(docs[~docs["docid"].isin(gone)], hidden=hidden)


def run_mutate(ctx: Ctx) -> Result:
    S = ctx.scale
    index_dir = ctx.path("index")
    reads = []                       # (state, text, status, rows)
    writes_ms, reopen_ms, read_ms = [], [], []
    rng = np.random.default_rng(ctx.seed + 5)
    stream = inputs.QueryStream(ctx.seed + 6)
    srv = Server(ctx, QueryService(cache_terms=S.cache_terms))

    def read(state: int, first: bool) -> None:
        text = stream.next_text()
        (st, payload), dt = timed(srv.search, index_dir, len(reads), text)
        reads.append((state, text, st, rows_of(payload)))
        (reopen_ms if first else read_ms).append(1e3 * dt)

    def write(layer: str, fn, *args, then, **kw) -> int:
        with ctx.tracer.span(layer):
            _, dt = timed(fn, index_dir, *args, **kw)
        writes_ms.append(1e3 * dt)
        then()
        state = model.commit()
        read(state, first=True)
        return state

    try:
        if ctx.tracer.enabled:
            srv.trace()
        df, paths, man, build_s, setup_s = seeded_index(
            ctx, warm=lambda: srv.search(index_dir, -1, "the"), reset=srv.qs.shutdown)
        in_bytes = sum(os.path.getsize(p) for p in paths)
        model = IndexModel(inputs.dense_order(df))
        model.commit()
        cycles = 0
        w = Window(ctx)
        while w.more():
            gen = inputs.corpus(S.gen_turns, ctx.seed * 1009 + cycles,
                                conv_prefix=f"g{cycles:04d}-")
            gpaths = inputs.write_parquet(gen, ctx.path("gen", str(cycles)), 1)
            in_bytes += sum(os.path.getsize(p) for p in gpaths)
            victims = rng.choice(model.live_docids(), size=S.delete_docs, replace=False)
            with w.op("mutate"):
                write("pipelines.incremental", append_index, gpaths,
                      then=lambda: model.append(gen))
                write("pipelines.delete", delete_docs, docids=victims.tolist(),
                      then=lambda: model.delete(victims))
                state = write("pipelines.incremental", compact_index, then=model.compact)
                for _ in range(S.burst):
                    read(state, first=False)
            cycles += 1
    finally:
        srv.close()

    failed = 0
    for state in sorted({r[0] for r in reads}):
        oracle = model.oracle(state)
        failed += sum(st != 200 or not gate.topk_matches(oracle, text, 10, ctx.out(rows))
                      for s, text, st, rows in reads if s == state)
    ms = w.ms or w.traced_ms
    all_reads = reopen_ms + read_ms
    t_ms, t_label = tail(all_reads)
    idx_bytes = inputs.dir_bytes(index_dir)
    return Result(
        setup_s=setup_s, op_ms=w.ms,
        attempted=len(reads),
        failed=failed, index_bytes=idx_bytes, input_bytes=in_bytes, traced_ms=w.traced_ms,
        report={"write_s": (statistics.median(writes_ms) / 1e3, "s"),
                "reopen_ms": (statistics.median(reopen_ms), "ms"),
                "search_p50_ms": (statistics.median(all_reads), "ms"),
                f"search_{t_label}_ms": (t_ms, "ms"),
                "cycle_s": (statistics.median(ms) / 1e3, "s")},
        facts={"turns": int(len(model.docs)), "input_bytes": in_bytes, "cycles": cycles,
               "writes": len(writes_ms), "reads": len(reads),
               "deleted": len(model.tombs), "index_bytes": idx_bytes},
        index_dir=index_dir, docs=df, manifest=man, build_wall_s=build_s)


WORKLOADS = {"build": run_build, "serve": run_serve, "batch": run_batch, "mutate": run_mutate}
