"""QueryService — the single owner of warm searcher pools.

Every search runs here: ``QueryService.search`` (the serving path behind
``POST /_search``), ``pipelines/query.search`` and ``explain`` on any query
input, and through them every library feature that searches (the aggs'
match sets, ``/_count`` via ``match_count``, rescore, federation, ...).
This reproduces the way a search engine serves queries (an OpenSearch index
stays OPEN: segment readers, dictionaries and caches persist across
requests; the reference keeps its FAISS index loaded in the serving process
for the same reason):

* One pool of ``_SearcherHost`` actors per (index_dir, manifest fingerprint)
  is created ONCE and reused across calls — a call costs one round of actor
  method calls. Each actor builds ``BM25Searcher`` instances lazily, one per
  distinct (mode, constructor options), and keeps them in a small LRU, so
  per-searcher term/dictionary caches stay warm. A call that carries its own
  allow-list (``where``/``allow_docids``) or a ``df_override`` gets a
  one-shot searcher that is not kept. Results are never cached: every call
  re-scores.
* The **manifest fingerprint** is the SHA-256 of the index's
  ``manifest.json`` bytes. Every committed mutation — append, delete,
  update_by_query, compact, rebucket — rewrites the manifest, so a stale
  pool retires ATOMICALLY on the next call and a fresh one warms against the
  new index state (the Lucene reader-reopen model; no TTLs, no manual
  invalidation). Pools of indexes whose manifest is gone retire when a new
  pool is created.
* The owner also keeps the index's docmeta resident next to the pool
  (``docmeta``): one object ref per (docmeta file, column), read by one
  plain task per file the first time a caller asks for the column and
  returned as that task's value, so the owner owns every pin. The pins
  belong to the pool's (index_dir, manifest fingerprint) and retire with
  it; ``docmeta_stats`` reports them per live pool. ``map_docmeta``, one
  plain task per pinned file, is the one query-side read of docmeta.
* Least-recently-used pools retire beyond ``max_pools`` and beyond the
  ``max_cpu_fraction`` CPU-reservation budget. Retirement drops the pool's
  pins and drains: a pool's actors die when the last in-flight call
  releases it.
* ``default_service()`` is the process-default owner, created lazily and
  re-created when the Ray session changes; the library paths and the HTTP
  facade share it. It keeps one warm pool at a time, one actor per CPU of
  a quarter of the cluster, and its actors reserve no CPU: Ray Data
  pipelines in the same process plan their tasks and actor pools against
  the whole cluster, and a CPU held outside them stalls or deadlocks them.

Scale note (multi-node): the actors carry no affinity constraints, so Ray
spreads a pool across the cluster; ``pool_size`` defaults to half the
cluster CPU count capped at 16 per index. A call cuts its queries into
batches of 16 (64 for a positional mode) and gives each actor one
contiguous run of batches; each actor returns one block (``run``), so a
call costs no pool construction and yields at most ``pool_size`` blocks, in
the frame's row order. For the aggregations' match sets the actors pack
their block into docid-range shard pieces themselves
(``pipelines/aggs._pack``), and only counts and piece refs come back.
"""

from __future__ import annotations

import hashlib
import threading
import time
import zlib
from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from remote_vector_index_builder_ray.config import EngineError
from remote_vector_index_builder_ray.stages.search import (
    MODES,
    BM25Searcher,
    check_k,
    searcher_defaults,
    validate,
)
from remote_vector_index_builder_ray.state import fs


def manifest_fingerprint(index_dir: str) -> str:
    """SHA-256 of the committed manifest bytes: cheap (one small read), and
    changes on every committed index mutation."""
    with fs.open_input(fs.join(index_dir, "manifest.json")) as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def require_positions(index_dir: str, man: dict | None = None) -> None:
    """Fail fast on the DRIVER (an actor-side raise surfaces as an opaque
    actor error) when a positional mode meets an index without positions."""
    if man is None:
        man = fs.read_json(fs.join(index_dir, "manifest.json"))
    pos_dirs = [fs.join(index_dir, "positions")] + [
        fs.join(index_dir, g["dir"], "positions")
        for g in man.get("generations", [])
        if not g.get("compacted")
    ]
    if not any(fs.exists(d) for d in pos_dirs):
        raise EngineError(
            f"index at {index_dir} has no positional data; "
            "build with BuildConfig(positions=True) to enable phrase search"
        )


def bucket_affine(queries: pd.DataFrame, num_buckets: int) -> pd.DataFrame:
    """Order queries by their first term's positions-bucket so each batch's
    positional postings loads cluster into few bucket files instead of
    fanning across all of them. Results are per-query, so query order never
    changes them."""
    first_tok = (
        queries["text"].fillna("").str.lower()
        .str.extract(r"([a-z0-9_]+)", expand=False).fillna("")
    )
    bkt = first_tok.map(lambda t: zlib.crc32(t.encode()) % num_buckets)
    return (queries.assign(_bkt=bkt.to_numpy())
            .sort_values(["_bkt"], kind="mergesort")
            .drop(columns=["_bkt"]).reset_index(drop=True))


class _SearcherHost:
    """One pool actor for one index state: hosts ``BM25Searcher`` instances,
    built lazily per (mode, constructor options) and kept in a small LRU, over
    one shared term-postings cache."""

    _MAX_SEARCHERS = 4

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self._searchers: OrderedDict = OrderedDict()
        self._postings: dict = {}

    def _searcher(self, mode: str, options: dict, allow_ref):
        if allow_ref is not None or options.get("df_override") is not None:
            # per-call allow-list / df table: a one-shot searcher
            s = BM25Searcher(self.index_dir, mode, allow_ref, **options)
        else:
            key = (mode, tuple(sorted(options.items())))
            s = self._searchers.pop(key, None)
            if s is None:
                s = BM25Searcher(self.index_dir, mode, None, **options)
            self._searchers[key] = s
            while len(self._searchers) > self._MAX_SEARCHERS:
                self._searchers.popitem(last=False)
        if options.get("pit_gens") is None and options.get("stats_override") is None:
            # a term's postings (and their tf-norms) depend only on the index
            # state, which every such searcher of this actor sees the same:
            # one copy per actor instead of one per mode/options
            s._cache = self._postings
        return s

    def run(self, mode: str, options: dict, allow_box: list,
            slices: list[pa.Table], pack: tuple | None = None):
        """Score the slices into one table, in slice order. ``allow_box``
        wraps the allow-list ref so Ray hands it over unresolved. With
        ``pack=(stride, n_shards, scored)`` the table is packed into match
        sets here (``aggs._pack``): [counts, piece_0, ...], or the counts
        alone when ``n_shards`` is 0."""
        s = self._searcher(mode, options, allow_box[0])
        t = pa.concat_tables([s(x) for x in slices])
        if pack is None:
            return t
        from remote_vector_index_builder_ray.pipelines.aggs import _pack_table

        out = _pack_table(t, *pack)
        return out if pack[1] else out[0]


@ray.remote
def _read_columns(path: str, columns: list[str]):
    """One docmeta file's ``columns``, each its own task return value, then
    their byte sizes. A return value is owned by the caller, so the pins
    survive the exit of the worker that read them (a ``ray.put`` here would
    be owned by the worker and die with it)."""
    t = fs.read_table(path, columns=columns)
    cols = [t.column(c).combine_chunks() for c in columns]
    return (*cols, [c.nbytes for c in cols])


@ray.remote
def _map_file(fn, names: list[str], *values):
    """``fn`` over one docmeta file's ``names`` columns, then ``fn``'s args:
    all top-level ``values``, so Ray resolves every ref among them."""
    n = len(names)
    return fn(pa.table(dict(zip(names, values[:n]))), *values[n:])


class _Pool:
    def __init__(self, actors: list, created_at: float):
        self.actors = actors
        self.created_at = created_at
        self.last_used = created_at
        self.inflight = 0      # requests currently holding this pool
        self.retired = False   # removed from the table; kill when drained
        # docmeta pinned for this index state: its files (listed on the
        # first pin) and one column ref per (file, column), read once
        self.files: list[str] | None = None
        self.pins: dict[tuple, ray.ObjectRef] = {}
        self.pin_bytes = 0
        self.pin_reads = 0     # (file, column) pins read
        self.pin_hits = 0      # (file, column) lookups served from the pins


class QueryService:
    """Serve searches from warm per-index searcher pools (module docstring).

    ``search`` is the serving entry point. Supported per-request arguments:
    ``mode`` (the served rows of ``stages.search.MODES``), ``similarity``
    (the nine similarity modules plus ``scripted:<expr>``) and ``k`` (via
    the queries frame). Other searcher options (operator, min_should_match,
    span windows, ...) are set per service through ``__init__``'s
    ``searcher_kwargs``; the library path (``pipelines/query.search``)
    validates the full option surface and runs it through ``run``."""

    def __init__(self, pool_size: int | None = None, max_pools: int = 8,
                 actor_num_cpus: float = 0.5, max_cpu_fraction: float = 0.5,
                 **searcher_kwargs):
        if pool_size is None:
            cpus = int(ray.cluster_resources().get("CPU", 8))
            pool_size = max(2, min(16, cpus // 2))
        self.pool_size = int(pool_size)
        self.max_pools = int(max_pools)
        # persistent actors RESERVE their CPUs for their whole lifetime —
        # unlike a per-call pipeline pool that releases them at the end. The
        # 0.5 default lets idle serving pools coexist with batch pipelines on
        # the same cluster (an idle reservation of pool_size full cores can
        # starve a concurrent build/search pipeline into deadlock); a
        # latency-dedicated deployment should set 1.0 and size
        # max_pools * pool_size to the cluster share it owns.
        self.actor_num_cpus = float(actor_num_cpus)
        # hard CPU-reservation ceiling across ALL warm pools, as a fraction
        # of cluster CPUs: max_pools alone bounds the POOL COUNT, but
        # max_pools * pool_size * actor_num_cpus can exceed the cluster on
        # a small one (8 * 2 * 0.5 = 8 CPUs on a 4-CPU node) — persistent
        # reservations then starve every batch pipeline sharing the cluster
        # into deadlock. Beyond the budget, least-recently-used pools
        # retire (drain-then-kill, same as LRU-count eviction); a
        # latency-dedicated deployment sets 1.0.
        self.max_cpu_fraction = float(max_cpu_fraction)
        self.searcher_kwargs = searcher_kwargs
        self._defaults = searcher_defaults()
        self._pools: dict[tuple, _Pool] = {}
        self._draining: set = set()  # retired pools with in-flight requests
        # the HTTP facade serves requests from a ThreadingHTTPServer —
        # pool lifecycle (check-create-evict) must be atomic or two
        # concurrent first-requests double-create a pool and leak the
        # loser's actors
        self._lock = threading.Lock()

    # -- pool lifecycle -------------------------------------------------------
    def _acquire_pool(self, index_dir: str) -> _Pool:
        """Atomically look up / create the pool AND register this request as
        in-flight — retirement (fingerprint change, LRU eviction, shutdown)
        only marks a pool retired; its actors die when the LAST in-flight
        request releases it, so a concurrent request never sees its actors
        ray.kill()ed mid-batch."""
        fp = manifest_fingerprint(index_dir)
        key = (index_dir, fp)
        with self._lock:
            pool = self._pools.get(key)
            if pool is None:
                # a changed fingerprint means the index mutated; a missing
                # manifest means the index is gone: retire those pools
                # before warming the new one
                for k in list(self._pools):
                    if k[0] == index_dir or not fs.exists(
                            fs.join(k[0], "manifest.json")):
                        self._retire_locked(k)
                act = ray.remote(num_cpus=self.actor_num_cpus)(_SearcherHost)
                actors = [act.remote(index_dir) for _ in range(self.pool_size)]
                pool = self._pools[key] = _Pool(actors, time.time())
                self._evict_lru_locked(keep=key)
            pool.last_used = time.time()
            pool.inflight += 1
        return pool

    def _release_pool(self, pool: _Pool) -> None:
        with self._lock:
            pool.inflight -= 1
            if pool.retired and pool.inflight == 0:
                for a in pool.actors:
                    ray.kill(a)
                self._draining.discard(pool)

    def _retire_locked(self, key: tuple) -> None:
        pool = self._pools.pop(key, None)
        if pool is not None:
            pool.retired = True
            # in-flight probes hold their own refs to the columns they read
            pool.pins.clear()
            if pool.inflight == 0:
                for a in pool.actors:
                    ray.kill(a)
            else:
                # actors stay alive (and keep their CPU reservation) until
                # the last in-flight request releases; the budget sum must
                # keep seeing them or a retire-then-create race oversubscribes
                self._draining.add(pool)

    def _evict_lru_locked(self, keep: tuple | None = None) -> None:
        """Retire least-recently-used pools beyond the count bound
        (max_pools) AND the CPU-reservation bound (max_cpu_fraction of
        cluster CPUs). ``keep`` (the pool just acquired) is never evicted —
        even a pool that alone exceeds the budget must serve its in-flight
        request; the bound then applies to everything else."""
        def _lru():
            cands = [k for k in self._pools if k != keep]
            return min(cands, key=lambda k: self._pools[k].last_used) \
                if cands else None

        while len(self._pools) > self.max_pools:
            key = _lru()
            if key is None:
                return
            self._retire_locked(key)
        budget = float(ray.cluster_resources().get("CPU", 8)) \
            * self.max_cpu_fraction
        # retired-but-draining pools still hold their reservations until the
        # last in-flight request releases them — count them, so back-to-back
        # retire-then-create cannot silently stack reservations past the
        # budget. The bound is still best-effort DURING a drain window (the
        # drainers cannot be killed early), but the evictor sees the truth.
        while (sum(len(p.actors) * self.actor_num_cpus
                   for p in self._pools.values())
               + sum(len(p.actors) * self.actor_num_cpus
                     for p in self._draining)) > budget:
            key = _lru()
            if key is None:
                return
            self._retire_locked(key)

    def shutdown(self) -> None:
        with self._lock:
            for key in list(self._pools):
                self._retire_locked(key)

    # -- docmeta residency ------------------------------------------------------
    def docmeta(self, index_dir: str, columns: list[str]) -> list[list]:
        """The index's docmeta ``columns`` pinned on this owner: one row of
        column refs per docmeta file, in ``docmeta_files`` order. A
        (file, column) not pinned yet for the index state is read by one
        plain task per file; the pins live as long as the index's pool."""
        from remote_vector_index_builder_ray.pipelines.incremental import docmeta_files

        pool = self._acquire_pool(index_dir)
        try:
            files = pool.files or docmeta_files(index_dir)
            reads = {}  # sizes ref -> the (file, column) pins it reads
            with self._lock:
                pool.files = files
                for path in files:
                    missing = [c for c in columns if (path, c) not in pool.pins]
                    pool.pin_hits += len(columns) - len(missing)
                    if missing:
                        *refs, sizes = _read_columns.options(
                            num_returns=len(missing) + 1).remote(path, missing)
                        keys = [(path, c) for c in missing]
                        pool.pins.update(zip(keys, refs))
                        pool.pin_reads += len(keys)
                        reads[sizes] = keys
                rows = [[pool.pins[(p, c)] for c in columns] for p in files]
            try:
                nbytes = sum(map(sum, ray.get(list(reads))))
            except Exception:
                with self._lock:  # a failed read pins nothing
                    for keys in reads.values():
                        for k in keys:
                            pool.pins.pop(k, None)
                raise
            with self._lock:
                pool.pin_bytes += nbytes
        finally:
            self._release_pool(pool)
        return rows

    def map_docmeta(self, index_dir: str, columns: list[str], fn,
                    *args) -> list:
        """``fn(table, *args) -> pa.Table`` over each docmeta file's pinned
        ``columns``, one plain task per file; the result refs, in
        ``docmeta_files`` order. A ref in ``args`` arrives resolved, one
        nested in a container stays a ref."""
        columns = list(dict.fromkeys(columns))
        return [_map_file.remote(fn, columns, *refs, *args)
                for refs in self.docmeta(index_dir, columns)]

    def docmeta_stats(self) -> dict:
        """Per live pool, keyed (index_dir, manifest fingerprint): the pinned
        docmeta bytes, the pinned (file, column) count, and the (file,
        column) pin reads and hits so far."""
        with self._lock:
            return {k: {"pinned_bytes": p.pin_bytes, "pinned": len(p.pins),
                        "reads": p.pin_reads, "hits": p.pin_hits}
                    for k, p in self._pools.items()}

    # -- execution --------------------------------------------------------------
    def run(self, index_dir: str, queries: pd.DataFrame, mode: str,
            options: dict | None = None, allow_ref=None,
            pack: tuple | None = None) -> list:
        """Score ``queries`` (one query per row, checked by ``validate``,
        its ``k`` by ``check_k``) on the index's warm pool with
        ``BM25Searcher(index_dir, mode, allow_ref, **options)``. Each actor
        scores one contiguous run of batches and returns one block, so the
        blocks in actor order keep the frame's row order. Returns one
        ObjectRef per actor used, in actor order; every ref has finished
        (results stay in the object store) before the pool is released, so
        a retiring pool never loses a block.

        ``pack=(stride, n_shards, scored)`` asks for match sets instead:
        each actor packs its block (``_SearcherHost.run``) and its entry is
        a ref list [counts, piece_0, ..., piece_{n_shards - 1}]. The pieces
        are return values owned by this process, so they outlive a
        retired pool."""
        row = MODES[mode]
        if row.positions:
            man = fs.read_json(fs.join(index_dir, "manifest.json"))
            require_positions(index_dir, man)
            if "text" in queries.columns:
                # bucket-affine batching (the positional load dominates
                # phrase batches)
                queries = bucket_affine(queries, int(man["num_buckets"]))
        if queries.empty:
            # nothing to score; an empty Dataset input arrives without columns
            return [] if pack else [ray.put(row.schema.empty_table())]
        table = pa.Table.from_pandas(queries, preserve_index=False)
        if "k" in table.column_names:
            check_k(table["k"].to_pylist())
        # positional batches are 4x larger: per-actor cost is dominated by
        # positional-postings loads, which duplicate across the pool — fewer,
        # bigger batches amortize the same term loads over more queries
        # (profiled at sf0.1: load 4.2 s vs score 0.26 s per batch)
        bs = 64 if row.positions else 16
        # options equal to the searcher's defaults are dropped, so equivalent
        # calls share one cached searcher per actor
        opts = {k: v for k, v in (options or {}).items()
                if k not in self._defaults or v != self._defaults[k]}
        slices = [table.slice(o, bs) for o in range(0, table.num_rows, bs)]
        pool = self._acquire_pool(index_dir)
        try:
            runs = np.array_split(np.arange(len(slices)),
                                  min(len(pool.actors), len(slices)))
            refs = []
            for actor, run in zip(pool.actors, runs):
                method = actor.run
                if pack:
                    method = method.options(num_returns=pack[1] + 1)
                out = method.remote(mode, opts, [allow_ref],
                                    [slices[j] for j in run], pack)
                refs.append([out] if pack and not pack[1] else out)
            ray.wait([r[0] for r in refs] if pack else refs,
                     num_returns=len(refs), fetch_local=False)
        finally:
            self._release_pool(pool)
        return refs

    # -- serving ---------------------------------------------------------------
    def search(self, index_dir: str, queries: pd.DataFrame,
               mode: str = "bmw", similarity: str = "bm25") -> pd.DataFrame:
        """Top-k over a warm pool. ``queries``: (query_id:int64, text:string,
        k:int32) — the pipeline contract — plus the optional positional-mode
        columns (slop:int, span_exclude:string for span_not,
        span_little:string for span_containing/span_within). Returns
        (query_id, rank, docid, score) sorted (query_id, rank); results are
        identical to ``pipelines/query.search``: both score through ``run``."""
        if not isinstance(queries, pd.DataFrame):
            raise TypeError("QueryService.search expects a pandas DataFrame")
        options = dict(self.searcher_kwargs)
        if similarity != "bm25":
            # per-request similarity module; validate() below checks it
            # here, not inside the actor, so a typo'd request is a clear 400
            if "similarity" in options:
                raise ValueError(
                    "per-request similarity conflicts with the "
                    "service-level searcher_kwargs similarity")
            options["similarity"] = similarity
        # fail fast: an unknown mode, or a column or option the mode does not
        # read, is a clear 400 for an HTTP request
        row = validate(mode, queries.columns, options, served=True)
        if "span_little" in row.requires:
            # a per-ROW null/empty little span returns zero rows for that
            # query — a silent-success hole over HTTP (200 + empty), so the
            # serving path rejects it (the batch path keeps its documented
            # None-little == no-match semantics); span_not without
            # span_exclude is different: it degenerates to the inner span
            # by documented Lucene semantics, so it stays allowed
            bad = queries["span_little"].isna() | (
                queries["span_little"].astype(str).str.strip() == "")
            if bad.any():
                raise ValueError(
                    f"{mode}: span_little is null/empty for query_id(s) "
                    f"{queries.loc[bad, 'query_id'].tolist()} — each query "
                    "needs an inner span (a null little matches nothing)"
                )
        refs = self.run(index_dir, queries, mode, options)
        parts = [p for p in ray.get(refs) if p.num_rows]
        if not parts:
            return pd.DataFrame({
                "query_id": pd.Series(dtype=np.int64),
                "rank": pd.Series(dtype=np.int32),
                "docid": pd.Series(dtype=np.int64),
                "score": pd.Series(dtype=np.float64),
            })
        out = pa.concat_tables(parts).to_pandas()
        return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


# Share of the cluster's CPUs the process-default owner's pool is sized to.
_DEFAULT_CPU_FRACTION = 0.25

_default: dict = {"svc": None, "session": None}
_default_lock = threading.Lock()


def default_service() -> QueryService:
    """The process-default owner shared by the library paths and the HTTP
    facade: created on first use, re-created when the Ray session changed
    (the old session's actors died with it). It keeps one pool, one actor
    per CPU of its share of the cluster, and its actors reserve no CPU.

    The owner's pools stay warm while the same process runs Ray Data
    pipelines (builds and the index writers). Ray Data sizes their
    tasks and actor pools against the cluster's total CPUs, so a CPU held
    by an idle searcher actor is one the pipelines count on but cannot
    get: on 4 CPUs, an actor-pool search plus ``hydrate`` stalled for 25 s
    with 2 CPUs held elsewhere and did not finish in 120 s with 3. The actors
    compute only while a caller waits on them, so reserving nothing does
    not oversubscribe the library path."""
    ctx = ray.get_runtime_context()
    session = (ctx.get_job_id(), ctx.get_node_id())
    with _default_lock:
        if _default["svc"] is None or _default["session"] != session:
            share = float(ray.cluster_resources().get("CPU", 8)) \
                * _DEFAULT_CPU_FRACTION
            pool_size = max(1, int(share))
            _default["svc"] = QueryService(
                pool_size=pool_size, max_pools=1, actor_num_cpus=0.0)
            _default["session"] = session
        return _default["svc"]
