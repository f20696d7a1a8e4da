"""Search aggregations: bucket counts over ALL matching docs (the OpenSearch
aggregations analog — `terms` and `date_histogram` aggs run on the full match
set of a query, not its top-k page).

Reference analog: the reference exposes only search hits
(``benchmarking/search/search_indices.py:23-40``); OpenSearch itself computes
aggs per shard and reduces — this engine does the same with Ray Data:

1. The match set per query (OR over query terms; tombstones and ``where``
   filters respected) is produced by the constant-score scorer — docids only,
   no scoring work — on the index's warm searcher pool
   (``query_service.default_service``), so an agg spawns no searcher actors.
   Each actor scores one contiguous run of the queries and packs its own
   result (``_pack``): one counts object plus one piece per docid-range
   shard, flat (query_id, docid[, score]) arrays in (query, docid) order.
2. The match sets — the SMALL side (a query's matches, not the corpus) — stay
   in the object store as those pieces, the actors' return values, owned by
   the driver process (below).
3. The docmeta table — the BIG side — stays resident: the index's
   ``QueryService`` owner pins the docmeta columns a probe reads as one
   object ref per (file, column), read once per index state
   (``QueryService.docmeta``). A probe runs one stateless task per docmeta
   file over those refs (``_probe_refs``, one ``QueryService.map_docmeta``
   call), with no read planning. The task
   fetches the shards its docid range touches, runs ONE vectorized
   semi-join for all queries at once (``_pairs``: every matching (query,
   row) pair, with its score when the match sets are scored) and hands the
   pairs to the agg's update function, ``fn(batch, qids, rows, scores,
   *params)``. Bucket and metric updates pre-aggregate (combiner) the pairs
   with one grouped reduction keyed by (query_id[, bucket key]) — the
   bucket update on one int64 code per pair over the file's factorized
   keys (``_probe_agg``); top-k
   updates keep each query's (or bucket's) first n pairs with ``_top_n``.
   Either way only tiny per-file partials leave the task, and no actor
   pool is spawned.
4. The partials (queries x buckets rows) reduce driver-side, concatenated
   in docmeta file order (``_probe_partials``); the top-k partials reduce
   with the same ``_top_n``.

Scale note (100 TB): this is the broadcast-semi-join pattern, made
range-local — each query's sorted match set is SHARDED by docid range
(``_MATCH_SHARD_STRIDE`` docids per shard) and a probe task fetches only the
shards overlapping its file's docid range. Were the docmeta files
docid-ordered, a task would touch O(its slice) of the match set rather than
Σ|matches| — a stopword matching half the corpus would cost each probe task
only its own range's members. The build does not write docid-ordered
docmeta today: both docmeta files of a 20k-turn, 2-input-file index span
nearly all of docids 0-19,999, out of order (so do both files of the
2k-turn sf0.001 index, over 0-1,999), so every probe task fetches every
shard, and each file's lookup table spans the whole docid range (at most
one stride per shard). The tiny shard directory
({shard_id: [ObjectRef]}) is the only thing every task receives. Pinned
docmeta columns spill to disk under object-store pressure like any other
object.

Shard PRODUCTION is distributed too (``_sharded_matches``): the driver makes
the checks a search call makes (``validate``, ``where`` -> allow-list) and
asks ``QueryService.run`` for packed match sets; each searcher actor returns
its per-query counts, the ids of its non-empty shards and one piece per
shard (``ceil(maxdoc / _MATCH_SHARD_STRIDE)`` shards). The driver keeps the
refs of the non-empty pieces and sums the COUNTS — it never holds a docid,
and no Dataset or pack task sits between the scorer and the probe. A
stopword query over a 100 TB corpus therefore costs the driver O(shards)
refs, not a corpus-sized docid list. ``match_count`` asks for zero shards
and gets the counts alone.
"""

from __future__ import annotations

import operator

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from remote_vector_index_builder_ray.pipelines.incremental import (
    _load_completed_manifest,
    _maxdoc,
)
from remote_vector_index_builder_ray.pipelines.query import (
    query_frame,
    resolve_filter_docids,
    search,
)
from remote_vector_index_builder_ray.stages.search import K_MAX, validate

# docids per match-set shard: one shard's members for one query are at most
# STRIDE * 8 bytes; with dense docids a 4M stride bounds a worst-case
# (match-everything) query at 32 MB per shard per query
_MATCH_SHARD_STRIDE = 1 << 22


def _match_sets(index_dir: str, queries, where=None) -> dict[int, np.ndarray]:
    """All matching docids per query (sorted int64), via the constant-score
    scorer at k=INT32_MAX — docid streams only, no tf/score work —
    materialized on the driver. No agg calls it: it is the reference the
    sharded production (``_sharded_matches``) is tested against."""
    q = query_frame(queries)
    q["k"] = np.int32(K_MAX)
    res = search(index_dir, q, mode="constant", where=where).to_pandas()
    if "query_id" not in res.columns:  # zero matches: column-less empty frame
        return {}
    return {
        int(qid): np.sort(g["docid"].to_numpy(np.int64))
        for qid, g in res.groupby("query_id")
    }


def _shard_match_sets(matches: dict[int, np.ndarray], stride: int | None = None):
    """Pack driver-held match sets ({qid: sorted docids}) into docid-range
    shards with ``_pack`` and ``ray.put`` each piece. Returns (shard_refs,
    qids): a small {shard_id: [ObjectRef]} directory plus the full query-id
    list (a query with zero matches still needs empty output semantics).
    This is the SMALL-match-set path (e.g. the sig_terms sampler's
    k-bounded foreground); unbounded match sets go through
    ``_sharded_matches``, which never lands docids on the driver."""
    if stride is None:
        stride = _MATCH_SHARD_STRIDE  # resolved at call time (testable)
    lens = [len(a) for a in matches.values()]
    qids = np.repeat(np.fromiter(matches, np.int64, len(matches)), lens)
    docs = np.concatenate([np.empty(0, np.int64), *matches.values()])
    n = int(docs.max()) // stride + 1 if len(docs) else 1
    (_, sids), *pieces = _pack(qids, docs, None, stride, n)
    return {sid: [ray.put(pieces[sid])] for sid in sids}, sorted(matches)


def _pack(qids, docids, scores, stride: int, n_shards: int) -> list:
    """The one match-set packer: flat (query_id, docid[, score]) rows as
    ``[counts, piece_0, ..., piece_{n_shards - 1}]``.

    ``counts`` is ({qid: matches}, [ids of the non-empty shards]). Piece
    ``s`` holds the rows with ``docid // stride == s`` as a tuple of flat
    arrays (qids, docids[, scores]) in (query, docid) order; an empty
    shard's piece is None. Rows may arrive in any order: rows already in
    (query, docid) order, as the constant scorer emits them for an
    ascending query frame, are not re-sorted. ``n_shards=0`` builds the
    counts only."""
    qids = np.asarray(qids, np.int64)
    docids = np.asarray(docids, np.int64)
    dq = np.diff(qids)
    if n_shards and ((dq < 0).any() or (np.diff(docids)[dq == 0] < 0).any()):
        order = np.lexsort((docids, qids))
        qids, docids = qids[order], docids[order]
        scores = None if scores is None else np.asarray(scores)[order]
        dq = np.diff(qids)
    starts = np.flatnonzero(np.concatenate([[True], dq != 0]))[:len(qids)]
    counts: dict[int, int] = {}
    for qid, n in zip(qids[starts].tolist(),
                      np.diff(np.append(starts, len(qids))).tolist()):
        counts[qid] = counts.get(qid, 0) + n
    if not n_shards:
        return [(counts, [])]
    cols = (qids, docids) if scores is None else (
        qids, docids, np.asarray(scores, np.float64))
    sid = docids // stride
    per = np.bincount(sid, minlength=n_shards)
    if len(per) > n_shards:
        raise ValueError(f"docid {int(docids.max())} lies beyond the "
                         f"{n_shards} shards of stride {stride}")
    sids = np.flatnonzero(per).tolist()
    pieces = [None] * n_shards
    if len(sids) == 1:
        pieces[sids[0]] = cols
    elif sids:
        order = np.argsort(sid, kind="stable")
        bounds = np.cumsum(per)[:-1]
        for s, part in enumerate(zip(*(np.split(c[order], bounds) for c in cols))):
            if per[s]:
                pieces[s] = part
    return [(counts, sids), *pieces]


def _pack_table(block: pa.Table, stride: int, n_shards: int,
                scored: bool = False) -> list:
    """``_pack`` over a result table's columns."""
    return _pack(_np(block, "query_id"), _np(block, "docid"),
                 _np(block, "score") if scored else None, stride, n_shards)


def _n_shards(index_dir: str, stride: int) -> int:
    """Shards of ``stride`` docids covering the index's docid range
    (its maxdoc); at least one."""
    return max(1, -(-_maxdoc(_load_completed_manifest(index_dir)) // stride))


def _match_run(index_dir: str, queries, where, scored: bool, stride: int,
               n_shards: int) -> list:
    """Run the match-set scorer at k=INT32_MAX on the index's warm pool,
    packed inside the actors: the constant-score scorer, or the exhaustive
    one when ``scored``. Returns one ref list [counts, piece_0, ...] per
    actor (``QueryService.run``). The driver checks are the ones a search
    call makes: ``validate`` and the ``where`` allow-list."""
    from remote_vector_index_builder_ray.query_service import default_service

    q = query_frame(queries)
    q["k"] = np.int32(K_MAX)
    mode = "exhaustive" if scored else "constant"
    validate(mode, q.columns, {"where": where})
    allow_ref = None if where is None else resolve_filter_docids(index_dir, where)
    return default_service().run(index_dir, q, mode, None, allow_ref,
                                 pack=(stride, n_shards, scored))


def _directory(packed: list):
    """(shard_refs, qid_list, counts) of packed match sets, each a ref list
    [counts, piece_0, ...]: only the non-empty pieces enter the directory,
    in ``packed`` order; the counts add up per query."""
    shard_refs: dict[int, list] = {}
    counts: dict[int, int] = {}
    for (cnt, sids), refs in zip(ray.get([p[0] for p in packed]), packed):
        for sid in sids:
            shard_refs.setdefault(sid, []).append(refs[1 + sid])
        for qid, c in cnt.items():
            counts[qid] = counts.get(qid, 0) + c
    return shard_refs, sorted(counts), counts


def _sharded_matches(index_dir: str, queries, where=None, scored: bool = False,
                     stride: int | None = None):
    """Distributed match-set shard production: each searcher actor runs
    the constant-score scorer (or, with ``scored=True``, the exhaustive
    scorer) at k=INT32_MAX over its run of queries and packs the result
    itself (``_pack``), one piece per docid-range shard. Returns
    (shard_refs, qid_list, counts):

    - shard_refs: {shard_id: [piece ObjectRef, ...]}, one piece per actor
      whose queries match in that range; a piece holds flat (qids,
      docids[, scores]) arrays in (query, docid) order. The pieces are the
      actors' return values, owned by this process, so they outlive the
      pool that made them.
    - qid_list: sorted qids with >= 1 match (zero-match semantics unchanged).
    - counts: {qid: total matches} — the only per-query aggregate some aggs
      need driver-side (e.g. significant_terms' fg_total).
    """
    if stride is None:
        stride = _MATCH_SHARD_STRIDE
    return _directory(_match_run(index_dir, queries, where, scored, stride,
                                 _n_shards(index_dir, stride)))


def _pairs(shard_refs: dict, stride: int, ids: np.ndarray):
    """The batch's semi-join against every query's match set: (qids, rows,
    scores), flat arrays holding each (query, batch row) pair whose docid
    ``ids[row]`` is in that query's match set, in no particular order, and
    the pair's score when the shards are scored (None when they are not;
    an empty array when no pair exists).

    One pass for all queries, one shard at a time: fetch only the shards
    the batch's docid range touches, trim their pieces to the range with
    one mask, and place every member through a lookup table over the
    range: ``first[d - lo]`` is the position of docid ``d`` in the sorted
    batch and ``first[d - lo + 1] - first[d - lo]`` its row count. The
    table costs the docid range (at most one stride per shard), not the
    member count. ``ids`` may be unsorted and may repeat a docid: a
    repeated docid yields one pair per row carrying it, exactly like
    per-row membership."""
    order = np.argsort(ids, kind="stable")
    srt = np.asarray(ids, dtype=np.int64)[order]
    owners, rows, scores = [], [], []
    if len(srt):
        lo, hi = int(srt[0]), int(srt[-1])
        for sid in sorted(s for s in shard_refs if lo // stride <= s <= hi // stride):
            pieces = ray.get(list(shard_refs[sid]))
            q, m, *s = (pieces[0] if len(pieces) == 1
                        else map(np.concatenate, zip(*pieces)))
            a, b = max(lo, sid * stride), min(hi, sid * stride + stride - 1)
            keep = (m >= a) & (m <= b)
            m = m[keep] - a
            first = srt.searchsorted(np.arange(a, b + 2))
            left = first[m]
            hit, pos = _expand(left, first[m + 1] - left)
            owners.append(q[keep][hit])
            rows.append(order[pos])
            if s:
                scores.append(s[0][keep][hit])
    if not owners:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
    return (np.concatenate(owners), np.concatenate(rows),
            np.concatenate(scores) if scores else None)


def _expand(starts: np.ndarray, counts: np.ndarray):
    """Flatten the ranges [starts[i], starts[i] + counts[i]): (owner, pos)
    with one entry per range member, ``owner`` the range's index."""
    if not len(counts) or counts.max() <= 1:
        owner = np.flatnonzero(counts)
        return owner, np.asarray(starts)[owner]
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return owner, np.asarray(starts)[owner] + (np.arange(len(owner)) - first)


def _np(batch: pa.Table, field: str) -> np.ndarray:
    return batch[field].combine_chunks().to_numpy(zero_copy_only=False)


def _grouped(keys: dict, aggs: dict, cols: dict | None = None) -> pd.DataFrame:
    """The per-batch combiner over the semi-join pairs: ONE grouped
    reduction of the pair columns ``cols`` keyed by ``keys`` (query_id
    first). Null keys form no group (pandas dropna)."""
    g = pd.DataFrame({**keys, **(cols or {})}).groupby(list(keys), sort=False)
    if not aggs:
        return g.size().reset_index(name="n")
    # one SeriesGroupBy call per output: pandas' named .agg(**aggs) costs
    # several ms of fixed overhead per call, more than the reduction itself
    return pd.DataFrame({out: getattr(g[col], how)()
                         for out, (col, how) in aggs.items()}).reset_index()


def _table(df: pd.DataFrame, schema: dict) -> pa.Table:
    """A partial frame as an Arrow table with a fixed schema, so every
    block (empty ones too) carries the same column types."""
    return pa.Table.from_pandas(df, pa.schema(schema.items()),
                                preserve_index=False).replace_schema_metadata()


def _top_n(df: pd.DataFrame, group: list, by: list, n, ascending=False,
           tie: str = "docid") -> pd.DataFrame:
    """The first ``n`` rows of each ``group`` under the order (group, by...,
    tie), with their 1-based ``rank``: ``by`` descending unless
    ``ascending`` says otherwise (one bool, or one per key), ``tie``
    (docid) ascending. ``n`` is an int or a {query_id: n} map (per-query
    k). A row with a null group key forms no group. It is both the
    per-block combiner of every top-k probe and their driver-side reduce."""
    asc = [ascending] * len(by) if isinstance(ascending, bool) else list(ascending)
    df = df.sort_values([*group, *by, tie],
                        ascending=[True] * len(group) + asc + [True])
    rank = df.groupby(group, sort=False).cumcount() + 1
    cap = df["query_id"].map(n) if isinstance(n, dict) else n
    return df.assign(rank=rank)[rank <= cap]


def _probe_batch(batch: pa.Table, fn, shard_refs, stride, params) -> pa.Table:
    """One docmeta block through a probe: the semi-join, then the update."""
    qids, rows, scores = _pairs(shard_refs, stride, _np(batch, "docid"))
    return fn(batch, qids, rows, scores, *params)


def _probe_refs(index_dir, columns, fn, shard_refs, params) -> list:
    """The partial refs of one probe, in ``docmeta_files`` order: one
    ``_probe_batch`` task per pinned docmeta file
    (``QueryService.map_docmeta``). The shard directory is a dict, so its
    refs reach ``_pairs`` unresolved."""
    from remote_vector_index_builder_ray.query_service import default_service

    return default_service().map_docmeta(
        index_dir, columns, _probe_batch, fn, shard_refs, _MATCH_SHARD_STRIDE,
        tuple(params))


def _probe_ds(index_dir, columns, fn, shard_refs, params=()):
    """The probe's partials as a Dataset, for callers that reduce them with
    Ray Data (has_child's scale path, significant_text's dedup groupby).
    Each docmeta file runs as one stateless task that semi-joins the file
    against the match-set shards its docid range touches (``_pairs``) and
    hands the pairs to the probe's update function ``fn(batch, qids, rows,
    scores, *params)``, which emits the file's partial rows."""
    return ray.data.from_arrow_refs(
        _probe_refs(index_dir, columns, fn, shard_refs, params))


def _probe_partials(index_dir, queries, where, fn, params, columns,
                    scored: bool = False, shard_refs=None) -> pd.DataFrame:
    """Shared scaffold for every probe-style agg: sharded match-set
    production (skipped when the caller passes ``shard_refs``), one probe
    task per pinned docmeta file, and the driver-small partial rows
    concatenated in file order, so a float reduction over them sees one
    fixed order."""
    if shard_refs is None:
        shard_refs, _, _ = _sharded_matches(index_dir, queries, where=where,
                                            scored=scored)
    parts = ray.get(_probe_refs(index_dir, columns, fn, shard_refs, params))
    return pa.concat_tables(parts, promote_options="default").to_pandas()


def _range_key(lo, hi) -> str:
    # OpenSearch range-agg bucket key: "lo-hi" with * for an open end
    return f"{'*' if lo is None else lo}-{'*' if hi is None else hi}"


def _probe_agg(batch: pa.Table, qids, rows, scores, field: str, interval,
               metric_field: str | None, ranges=None) -> pa.Table:
    """Bucket-agg update: pre-aggregate the pairs' (query, bucket key) ->
    (count, metric sum) in one grouped reduction, so only queries x buckets
    rows leave the task. The bucket keys are factorized once over the
    file's rows (a null key is -1 and forms no bucket, as pandas dropna
    does), so the reduction groups on one int64 code per pair,
    ``query_id * n_keys + key code``, instead of hashing a key per pair."""
    keys = _np(batch, field)
    if interval == "day":
        keys = keys.astype("datetime64[D]").astype("datetime64[us]")
    elif interval == "month":
        # OpenSearch calendar_interval=month: truncate to month start
        keys = keys.astype("datetime64[M]").astype("datetime64[us]")
    elif interval == "7d":
        # OpenSearch fixed_interval=7d: epoch-anchored 7-day windows
        # (1970-01-01 is day 0, so day - day mod 7 == the bucket start;
        # NaT stays NaT, so a null ts makes no bucket)
        days = keys.astype("datetime64[D]")
        keys = (days - (days.astype(np.int64) % 7).astype("timedelta64[D]")
                ).astype("datetime64[us]")
    elif interval == "histogram":
        # value-count histogram partials (percentiles_agg): the raw
        # integer value IS the bucket key
        keys = keys.astype(np.int64)
    elif isinstance(interval, tuple):
        # OpenSearch `histogram` agg with `offset`: key =
        # floor((v - offset) / interval) * interval + offset. Python //
        # floors (v - offset may be negative below the first bucket
        # boundary); the SQL twin floors on DOUBLE for the same result
        iv, off = interval
        keys = ((keys.astype(np.int64) - off) // iv) * iv + off
    elif isinstance(interval, int):
        # OpenSearch `histogram` agg: fixed numeric interval, key =
        # floor(v / interval) * interval (non-negative int fields here,
        # so // IS the floor)
        keys = (keys.astype(np.int64) // interval) * interval
    elif interval is not None:
        raise ValueError(f"unsupported interval {interval!r}")
    if ranges is not None:
        # numeric range buckets, [lo, hi) per OpenSearch range agg;
        # values outside every range keep a null label (no bucket).
        # Timestamp fields (date_range agg) compare on epoch-us; a
        # range entry may carry an explicit label as its 3rd element.
        # A null value (NaN / NaT) falls in no range.
        if keys.dtype.kind == "M":
            us = keys.astype("datetime64[us]")
            vals = np.where(np.isnat(us), np.nan, us.astype(np.int64))
        else:
            vals = keys.astype(np.float64)
        labels = np.full(len(vals), None, dtype=object)
        for rng in ranges:
            lo, hi = rng[0], rng[1]
            label = rng[2] if len(rng) > 2 else _range_key(lo, hi)
            m = np.ones(len(vals), dtype=bool)
            if lo is not None:
                m &= vals >= lo
            if hi is not None:
                m &= vals < hi
            labels[m] = label
        keys = labels
    codes, uniques = pd.factorize(keys)
    n_keys = max(len(uniques), 1)
    code = codes[rows]
    keep = code >= 0
    metric = (
        _np(batch, metric_field).astype(np.int64)[rows][keep]
        if metric_field
        else np.zeros(int(keep.sum()), dtype=np.int64)
    )
    g = _grouped({"code": qids[keep] * n_keys + code[keep]},
                 {"n": ("s", "size"), "s": ("s", "sum")}, {"s": metric})
    code = g.pop("code").to_numpy()
    g.insert(0, "key", uniques[code % n_keys])
    g.insert(0, "query_id", code // n_keys)
    if interval == "histogram" or isinstance(interval, (int, tuple)):
        key_type = pa.int64()
    elif interval:
        key_type = pa.timestamp("us")
    else:
        key_type = pa.string()
    return _table(g, {"query_id": pa.int64(), "key": key_type,
                      "n": pa.int64(), "s": pa.int64()})


def _run_agg_partials(
    index_dir: str,
    queries,
    field: str,
    interval,
    metric_field: str | None,
    where,
    ranges=None,
) -> pd.DataFrame:
    """The bucket-agg probe run, un-reduced: per-task (query_id, key, n, s)
    partials as a driver-small pandas frame (queries × buckets ×
    read-tasks rows). `_run_agg` reduces these to counts/avg; rate_agg and
    other bucket-metric shapes reduce them differently."""
    cols = ["docid", field] + ([metric_field] if metric_field else [])
    return _probe_partials(index_dir, queries, where, _probe_agg,
                           (field, interval, metric_field, ranges), cols)


def _run_agg(
    index_dir: str,
    queries,
    field: str,
    interval: str | None,
    metric_field: str | None,
    where,
    ranges=None,
) -> pd.DataFrame:
    partials = _run_agg_partials(index_dir, queries, field, interval,
                                 metric_field, where, ranges)
    if partials.empty:
        out = pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                            "key": pd.Series(dtype=object),
                            "n_docs": pd.Series(dtype=np.int64)})
        if metric_field:
            out[f"avg_{metric_field}"] = pd.Series(dtype=np.float64)
        return out
    g = (
        partials.groupby(["query_id", "key"], sort=True)
        .agg(n_docs=("n", "sum"), s=("s", "sum"))
        .reset_index()
    )
    if metric_field:
        # integer sum, one float64 division: bit-reproducible by SQL; round
        # half-UP explicitly (numpy .round is half-even, DuckDB half-away —
        # floor(x*1e6+0.5)/1e6 agrees on both engines)
        avg = g["s"].astype(np.float64) / g["n_docs"]
        g[f"avg_{metric_field}"] = np.floor(avg * 1e6 + 0.5) / 1e6
    return g.drop(columns=["s"])


def terms_agg(
    index_dir: str,
    queries,
    field: str = "role",
    metric_field: str | None = None,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `terms` aggregation over each query's full match set:
    (query_id, key, n_docs[, avg_<metric_field>]) per distinct value of the
    docmeta ``field``, sorted by (query_id, key)."""
    return _run_agg(index_dir, queries, field, None, metric_field, where)


def terms_agg_ordered(
    index_dir: str,
    queries,
    field: str = "role",
    metric_field: str = "doc_len",
    size: int = 5,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `terms` aggregation ORDERED BY A SUB-AGGREGATION
    (``order: {"avg_<metric>": "desc"}``): the top ``size`` buckets per query
    by the bucket's avg metric (desc; ties by key asc), with an explicit
    bucket rank. Same single streaming probe as :func:`terms_agg` — ordering
    is a driver-side permutation of the (queries x buckets) reduce."""
    base = _run_agg(index_dir, queries, field, None, metric_field, where)
    mcol = f"avg_{metric_field}"
    if base.empty:
        out = base.copy()
        out["rank"] = pd.Series(dtype=np.int32)
        return out[["query_id", "rank", "key", "n_docs", mcol]]
    base = base.sort_values(["query_id", mcol, "key"],
                            ascending=[True, False, True])
    base["rank"] = (base.groupby("query_id").cumcount() + 1).astype(np.int32)
    out = base[base["rank"] <= size].reset_index(drop=True)
    return out[["query_id", "rank", "key", "n_docs", mcol]]


def date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    interval: str = "day",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `date_histogram` aggregation over each query's full match
    set: (query_id, key:timestamp[us] bucket floor, n_docs), sorted by
    (query_id, key). ``interval``: "day" / "month" (calendar_interval) or
    "7d" (epoch-anchored fixed_interval). Empty buckets are omitted
    (min_doc_count=1 semantics)."""
    return _run_agg(index_dir, queries, field, interval, None, where)


def bucket_correlation_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch ``bucket_correlation`` pipeline aggregation
    (function=count_correlation) over the day histogram: per query, the
    Pearson correlation of the parent buckets' doc counts (key-ascending)
    against the request's indicator series — here the canonical 0..n-1 ramp,
    i.e. "is this query's match activity trending across days". The parent
    histogram is the same driver-small distributed bucket stream every
    pipeline agg reduces over (min_doc_count=1 buckets); the correlation is
    a driver-side scalar per query. Queries with fewer than 2 buckets or
    zero count variance are omitted (the correlation is undefined —
    OpenSearch raises for a constant indicator; we mirror on the count
    side). Returns (query_id, n_buckets, correlation), correlation rounded
    half-up to 6 decimals.

    Reference analog: OpenSearch BucketCorrelationAggregationBuilder
    (`bucket_correlation` with `count_correlation`)."""
    import math

    base = date_histogram(index_dir, queries, field=field, where=where)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "n_buckets": pd.Series(dtype=np.int64),
        "correlation": pd.Series(dtype=np.float64),
    }
    if base.empty:
        return pd.DataFrame(cols)
    rows = []
    for qid, g in base.groupby("query_id", sort=True):
        c = g.sort_values("key")["n_docs"].to_numpy(np.float64)
        n = len(c)
        if n < 2 or c.min() == c.max():
            continue
        x = np.arange(n, dtype=np.float64)
        cx = c - c.mean()
        xx = x - x.mean()
        denom = math.sqrt(float((cx * cx).sum())) * math.sqrt(float((xx * xx).sum()))
        r = float((cx * xx).sum()) / denom
        rows.append((int(qid), n, math.floor(r * 1e6 + 0.5) / 1e6))
    if not rows:
        return pd.DataFrame(cols)
    return pd.DataFrame(rows, columns=["query_id", "n_buckets", "correlation"]).astype(
        {"query_id": np.int64, "n_buckets": np.int64, "correlation": np.float64}
    )


def bucket_count_ks_test_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch ``bucket_count_ks_test`` pipeline aggregation over the day
    histogram: per query, the two-sided Kolmogorov-Smirnov STATISTIC
    D = max_i |ECDF_counts(i) - ECDF_uniform(i)| comparing the cumulative
    doc-count fraction (key-ascending) against the uniform null fractions
    (OpenSearch's default when ``fractions`` is omitted). OpenSearch wraps D
    in a Monte-Carlo p-value; we return the deterministic statistic itself
    (documented divergence — a sampled p-value can't be SQL-checked or
    reproduced bit-equal). Driver-side over the same driver-small bucket
    stream as every pipeline agg. Returns (query_id, n_buckets,
    ks_statistic), rounded half-up to 6 decimals.

    Reference analog: OpenSearch BucketCountKSTestAggregationBuilder."""
    import math

    base = date_histogram(index_dir, queries, field=field, where=where)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "n_buckets": pd.Series(dtype=np.int64),
        "ks_statistic": pd.Series(dtype=np.float64),
    }
    if base.empty:
        return pd.DataFrame(cols)
    rows = []
    for qid, g in base.groupby("query_id", sort=True):
        c = g.sort_values("key")["n_docs"].to_numpy(np.int64)
        n = len(c)
        tot = float(c.sum())
        cum = np.cumsum(c).astype(np.float64) / tot
        uni = np.arange(1, n + 1, dtype=np.float64) / float(n)
        d = float(np.abs(cum - uni).max())
        rows.append((int(qid), n, math.floor(d * 1e6 + 0.5) / 1e6))
    return pd.DataFrame(rows, columns=["query_id", "n_buckets", "ks_statistic"]).astype(
        {"query_id": np.int64, "n_buckets": np.int64, "ks_statistic": np.float64}
    )


def histogram_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    interval: int = 8,
    where=None,
    offset: int = 0,
) -> pd.DataFrame:
    """OpenSearch `histogram` aggregation (fixed numeric interval) over each
    query's full match set: (query_id, key:int64 = floor(v/interval)*interval,
    n_docs), sorted by (query_id, key). Empty buckets omitted
    (min_doc_count=1 semantics). ``offset`` shifts every bucket boundary
    (OpenSearch histogram `offset`, 0 <= offset < interval): key =
    floor((v - offset)/interval)*interval + offset — values below the first
    shifted boundary land in a negative-start bucket, as in OpenSearch."""
    if not isinstance(interval, int) or interval <= 0:
        raise ValueError("interval must be a positive integer")
    if not isinstance(offset, int) or not (0 <= offset < interval):
        raise ValueError("offset must be an integer in [0, interval)")
    iv = (interval, offset) if offset else interval
    return _run_agg(index_dir, queries, field, iv, None, where)


def terms_agg_sized(
    index_dir: str,
    queries,
    field: str = "role",
    size: int = 2,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `terms` aggregation with ``size`` + `sum_other_doc_count`:
    per query the top ``size`` buckets by (doc count desc, key asc — the
    OpenSearch tie order) with an explicit rank, plus the total doc count of
    every truncated bucket riding each row as ``sum_other_doc_count``
    (OpenSearch reports it as a sibling scalar; a flat frame repeats it).
    The reduce is driver-side over the same driver-small (query × bucket)
    stream as terms_agg — doc_count_error_upper_bound is identically 0 here
    because the probe sees exact global counts, not per-shard top lists."""
    base = terms_agg(index_dir, queries, field=field, where=where)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "rank": pd.Series(dtype=np.int32),
        "key": pd.Series(dtype=object),
        "n_docs": pd.Series(dtype=np.int64),
        "sum_other_doc_count": pd.Series(dtype=np.int64),
    }
    if base.empty:
        return pd.DataFrame(cols)
    out = base.sort_values(["query_id", "n_docs", "key"],
                           ascending=[True, False, True]).copy()
    out["rank"] = (out.groupby("query_id").cumcount() + 1).astype(np.int32)
    tot = out.groupby("query_id")["n_docs"].transform("sum")
    kept = out["n_docs"].where(out["rank"] <= size, 0)
    kept_tot = kept.groupby(out["query_id"]).transform("sum")
    out["sum_other_doc_count"] = (tot - kept_tot).astype(np.int64)
    out = out[out["rank"] <= size]
    return out[["query_id", "rank", "key", "n_docs",
                "sum_other_doc_count"]].reset_index(drop=True).astype(
        {"query_id": np.int64, "n_docs": np.int64})


def range_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    ranges: list[tuple] = ((None, 16), (16, 64), (64, None)),
    metric_field: str | None = None,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `range` aggregation: [lo, hi) numeric buckets over the
    docmeta ``field`` (keys "lo-hi", "*" for an open end; ranges must not
    overlap — unlike OpenSearch, a doc lands in at most one bucket). Empty
    buckets omitted."""
    return _run_agg(
        index_dir, queries, field, None, metric_field, where, ranges=list(ranges)
    )


def date_range_agg(
    index_dir: str,
    queries,
    field: str = "ts",
    ranges: list[tuple] = (),
    where=None,
) -> pd.DataFrame:
    """OpenSearch `date_range` aggregation: [lo, hi) timestamp buckets over
    a date docmeta field. ``ranges`` entries are (lo_iso|None, hi_iso|None)
    ISO-8601 strings; bucket keys are "lo-hi" with '*' for an open end
    (OpenSearch's key format). Non-overlapping ranges; empty buckets
    omitted."""
    import numpy as np

    def _us(s):
        return None if s is None else int(np.datetime64(s, "us").astype(np.int64))

    resolved = [
        (_us(lo), _us(hi), f"{'*' if lo is None else lo}-{'*' if hi is None else hi}")
        for lo, hi in ranges
    ]
    return _run_agg(index_dir, queries, field, None, None, where,
                    ranges=resolved)


def _probe_stats(batch: pa.Table, qids, rows, scores, field: str) -> pa.Table:
    """Stats update: (query_id, n, sum, sum-of-squares, min, max) of a
    numeric docmeta field over the pairs — merged associatively
    driver-side. The squares stay exact int64: a doc_len is < 2^21
    (`stages/search._POS_PACK` invariant), so even 10^12 matched docs keep
    the global ss2 below 2^62."""
    v = _np(batch, field).astype(np.int64)[rows]
    g = _grouped({"query_id": qids},
                 {"n": ("v", "size"), "s": ("v", "sum"), "s2": ("v2", "sum"),
                  "mn": ("v", "min"), "mx": ("v", "max")},
                 {"v": v, "v2": v * v})
    return _table(g, dict.fromkeys(["query_id", "n", "s", "s2", "mn", "mx"],
                                   pa.int64()))


def _stats_reduced(index_dir: str, queries, field: str, where) -> pd.DataFrame:
    """Shared probe run for stats/extended_stats: per-query associative
    reduction of the per-batch (n, sum, sum2, min, max) partials."""
    partials = _probe_partials(index_dir, queries, where, _probe_stats,
                               (field,), ["docid", field])
    if partials.empty:
        return partials
    return (
        partials.groupby("query_id", sort=True)
        .agg(n_docs=("n", "sum"), s=("s", "sum"), s2=("s2", "sum"),
             mn=("mn", "min"), mx=("mx", "max"))
        .reset_index()
    )


def stats_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `stats` aggregation over each query's full match set:
    (query_id, n_docs, sum_<f>, min_<f>, max_<f>, avg_<f>). Integer
    sum/min/max merge associatively; avg is one float64 division rounded
    half-up to 6 decimals (bit-reproducible by SQL)."""
    g = _stats_reduced(index_dir, queries, field, where)
    if g.empty:
        return pd.DataFrame({
            "query_id": pd.Series(dtype=np.int64),
            "n_docs": pd.Series(dtype=np.int64),
            f"sum_{field}": pd.Series(dtype=np.int64),
            f"min_{field}": pd.Series(dtype=np.int64),
            f"max_{field}": pd.Series(dtype=np.int64),
            f"avg_{field}": pd.Series(dtype=np.float64),
        })
    avg = g["s"].astype(np.float64) / g["n_docs"]
    return pd.DataFrame(
        {
            "query_id": g["query_id"].astype(np.int64),
            "n_docs": g["n_docs"].astype(np.int64),
            f"sum_{field}": g["s"].astype(np.int64),
            f"min_{field}": g["mn"].astype(np.int64),
            f"max_{field}": g["mx"].astype(np.int64),
            f"avg_{field}": np.floor(avg * 1e6 + 0.5) / 1e6,
        }
    )


def extended_stats_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `extended_stats` aggregation: stats plus sum_of_squares,
    population variance and std deviation (OpenSearch's default variance is
    the population variance computed from the streamed (n, Σv, Σv²) triple —
    exactly this engine's associative reduction). Float derivation order is
    frozen (m = s/n; var = s2/n - m*m; std = sqrt(var)) so a SQL oracle
    writing the same expressions reproduces the values bit-for-bit before
    the half-up 6-decimal rounding."""
    g = _stats_reduced(index_dir, queries, field, where)
    if g.empty:
        return pd.DataFrame({
            "query_id": pd.Series(dtype=np.int64),
            "n_docs": pd.Series(dtype=np.int64),
            f"sum_{field}": pd.Series(dtype=np.int64),
            f"sumsq_{field}": pd.Series(dtype=np.int64),
            f"avg_{field}": pd.Series(dtype=np.float64),
            f"var_{field}": pd.Series(dtype=np.float64),
            f"std_{field}": pd.Series(dtype=np.float64),
        })
    n = g["n_docs"].astype(np.float64)
    m = g["s"].astype(np.float64) / n
    var = g["s2"].astype(np.float64) / n - m * m
    var = np.maximum(var, 0.0)  # FP cancellation guard on constant fields
    r6 = lambda x: np.floor(x * 1e6 + 0.5) / 1e6  # noqa: E731
    return pd.DataFrame(
        {
            "query_id": g["query_id"].astype(np.int64),
            "n_docs": g["n_docs"].astype(np.int64),
            f"sum_{field}": g["s"].astype(np.int64),
            f"sumsq_{field}": g["s2"].astype(np.int64),
            f"avg_{field}": r6(m),
            f"var_{field}": r6(var),
            f"std_{field}": r6(np.sqrt(var)),
        }
    )


_PRED_OPS = {
    "=": operator.eq, "!=": operator.ne, ">": operator.gt,
    ">=": operator.ge, "<": operator.lt, "<=": operator.le,
    "in": lambda col, value: np.isin(col, np.asarray(list(value))),
}


def _check_predicates(*preds) -> None:
    """Driver-side check of predicate ops, before any search runs."""
    for pred in preds:
        for _field, op, _value in pred:
            if op not in _PRED_OPS:
                raise ValueError(f"unsupported predicate op {op!r}")


def _eval_predicate(batch: pa.Table, pred) -> np.ndarray:
    """Vectorized docmeta predicate: list of (field, op, value) ANDed.
    Ops: = != > >= < <= in. Mirrors the filter-context predicate shape
    ``pipelines/query.resolve_filter_docids`` pushes into the scan."""
    mask = np.ones(batch.num_rows, dtype=bool)
    for field, op, value in pred:
        mask &= np.asarray(_PRED_OPS[op](_np(batch, field), value), dtype=bool)
    return mask


def _probe_filters(batch: pa.Table, qids, rows, scores, filters: dict,
                   adjacency: bool, other_bucket: bool = False) -> pa.Table:
    """`filters` / `adjacency_matrix` update: named (possibly overlapping)
    predicate buckets over the pairs. Emits (query_id, key, n) with key =
    filter name — plus, in adjacency mode, 'a&b' intersection keys for
    every name pair (OpenSearch adjacency_matrix bucket naming, pair names
    sorted)."""
    names = sorted(filters)
    fmasks = {n: _eval_predicate(batch, filters[n]) for n in names}
    keys = list(names)
    masks = [fmasks[n] for n in names]
    if adjacency:
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                keys.append(f"{a}&{b}")
                masks.append(fmasks[a] & fmasks[b])
    if other_bucket:
        # OpenSearch other_bucket: matched docs satisfying NO named filter
        none = np.ones(batch.num_rows, dtype=bool)
        for n in names:
            none &= ~fmasks[n]
        keys.append("_other_")
        masks.append(none)
    hits = [qids[m[rows]] for m in masks]  # per bucket: its matching pairs
    g = _grouped({"query_id": np.concatenate([np.empty(0, np.int64), *hits]),
                  "key": np.repeat(np.asarray(keys, dtype=object),
                                   [len(h) for h in hits])}, {})
    return _table(g, {"query_id": pa.int64(), "key": pa.string(), "n": pa.int64()})


def filters_agg(
    index_dir: str,
    queries,
    filters: dict,
    adjacency: bool = False,
    where=None,
    other_bucket: bool = False,
) -> pd.DataFrame:
    """OpenSearch `filters` aggregation (and, with ``adjacency=True``, the
    `adjacency_matrix` aggregation) over each query's full match set:
    (query_id, key, n_docs) per named predicate bucket — buckets may
    overlap, a doc counts in every bucket it satisfies; adjacency mode adds
    'a&b' pairwise-intersection buckets. ``other_bucket=True`` adds the
    OpenSearch `_other_` bucket (matched docs satisfying NO named filter).
    Empty buckets omitted."""
    _check_predicates(*filters.values())
    fields = sorted({f for pred in filters.values() for f, _, _ in pred})
    partials = _probe_partials(index_dir, queries, where, _probe_filters,
                               (filters, adjacency, other_bucket),
                               ["docid"] + fields)
    if partials.empty:
        return pd.DataFrame({
            "query_id": pd.Series(dtype=np.int64),
            "key": pd.Series(dtype=object),
            "n_docs": pd.Series(dtype=np.int64),
        })
    return (
        partials.groupby(["query_id", "key"], sort=True)
        .agg(n_docs=("n", "sum"))
        .reset_index()
        .astype({"query_id": np.int64, "n_docs": np.int64})
    )


def adjacency_matrix_agg(index_dir: str, queries, filters: dict, where=None):
    """OpenSearch `adjacency_matrix` aggregation: filters_agg with pairwise
    intersection buckets."""
    return filters_agg(index_dir, queries, filters, adjacency=True, where=where)


def _probe_missing(batch: pa.Table, qids, rows, scores, field: str,
                   missing: str) -> pa.Table:
    """value_count/missing update: (query_id, n_value, n_missing) of a
    keyword docmeta field over the pairs. A field is "missing" when it is
    null or the sentinel empty string (transcript docmeta stores '' for a
    turn with no tool call — the OpenSearch analog of an absent field)."""
    import pyarrow.compute as pc

    col = batch[field].combine_chunks()
    absent = pc.or_kleene(
        pc.is_null(col), pc.equal(col, missing)
    ).to_numpy(zero_copy_only=False)
    g = _grouped({"query_id": qids}, {"n": ("a", "size"), "nm": ("a", "sum")},
                 {"a": np.asarray(absent, dtype=np.int64)[rows]})
    g["nv"] = g["n"] - g["nm"]
    return _table(g, dict.fromkeys(["query_id", "nv", "nm"], pa.int64()))


def missing_agg(
    index_dir: str,
    queries,
    field: str = "tool",
    missing: str = "",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `missing` + `value_count` aggregations in one probe pass
    over each query's full match set: (query_id, n_value, n_missing) where
    n_missing counts docs whose ``field`` is null/sentinel-empty and
    n_value counts the rest (single-valued fields: value_count == doc
    count with a value)."""
    partials = _probe_partials(index_dir, queries, where, _probe_missing,
                               (field, missing), ["docid", field])
    if partials.empty:
        return pd.DataFrame({
            "query_id": pd.Series(dtype=np.int64),
            "n_value": pd.Series(dtype=np.int64),
            "n_missing": pd.Series(dtype=np.int64),
        })
    g = (
        partials.groupby("query_id", sort=True)
        .agg(n_value=("nv", "sum"), n_missing=("nm", "sum"))
        .reset_index()
    )
    return g.astype({"query_id": np.int64, "n_value": np.int64,
                     "n_missing": np.int64})


# ---------------------------------------------------------------------------
# cardinality aggregation
# ---------------------------------------------------------------------------


def _probe_distinct(batch: pa.Table, qids, rows, scores, field: str) -> pa.Table:
    """Exact-cardinality update: the DISTINCT matched values per query
    leave each task (the per-batch dedup is the combiner; the final dedup
    is driver-side). Exact distinct-count is inherently a shuffle of the
    distinct values — the approximate path below is the one whose partials
    stay O(registers)."""
    return pa.table(
        {"query_id": qids, "value": batch[field].take(rows)}
    ).group_by(["query_id", "value"]).aggregate([])


# HyperLogLog with 2^P registers; the standard bias-corrected estimator
# (Flajolet et al.) with the small-range linear-counting correction.
_HLL_P = 14


def _hll_rho(hashes: np.ndarray, p: int):
    """(register index, rank) per hash: index = top p bits, rank = leading
    zeros of the remaining 64-p bits + 1 — all vectorized."""
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = hashes << np.uint64(p)  # remaining bits, MSB-aligned
    # leading zero count via float64 exponent is unsafe at 64-bit; do it with
    # a descending bit test accumulation (6 passes)
    rho = np.ones(len(hashes), dtype=np.int64)
    cur = rest
    for shift in (32, 16, 8, 4, 2, 1):
        high = cur >> np.uint64(64 - shift)
        zero_high = high == 0
        rho = np.where(zero_high, rho + shift, rho)
        cur = np.where(zero_high, cur << np.uint64(shift), cur)
    rho = np.minimum(rho, 64 - p + 1)
    return idx, rho


def _probe_hll(batch: pa.Table, qids, rows, scores, field: str) -> pa.Table:
    """HLL update: (query_id, register, max rank) rows — at most queries x
    2^P tiny rows per task regardless of match-set size. Register maxima
    merge associatively driver-side."""
    # deterministic 64-bit value hash (shared across tasks/processes)
    hashed = pd.util.hash_array(_np(batch, field)).astype(np.uint64)
    idx, rho = _hll_rho(hashed, _HLL_P)
    g = _grouped({"query_id": qids, "register": idx[rows]},
                 {"rho": ("rho", "max")}, {"rho": rho[rows]})
    return _table(g, dict.fromkeys(["query_id", "register", "rho"], pa.int64()))


def _hll_estimate(reg: np.ndarray) -> float:
    m = float(len(reg))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -reg.astype(np.float64)))
    zeros = int((reg == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting, small range
    return float(est)


def cardinality_agg(
    index_dir: str,
    queries,
    field: str = "conv_id",
    exact: bool = True,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `cardinality` aggregation over each query's full match
    set: distinct values of the docmeta ``field``. ``exact=True`` (default,
    the SQL-checkable mode) ships per-batch DISTINCT values and dedups
    driver-side; ``exact=False`` runs HyperLogLog (2^14 registers, the
    OpenSearch default precision) whose partials are O(registers) per task —
    the 100 TB path, accuracy ~0.8%. Returns (query_id, n_distinct)."""
    shard_refs, qid_list, counts = _sharded_matches(index_dir, queries, where=where)
    partials = _probe_partials(index_dir, queries, where,
                               _probe_distinct if exact else _probe_hll,
                               (field,), ["docid", field],
                               shard_refs=shard_refs)
    rows = []
    for qid in qid_list:
        part = partials[partials["query_id"] == qid] if len(partials) else partials
        if counts.get(qid, 0) == 0 or part.empty:
            continue
        if exact:
            n = int(part["value"].nunique())
        else:
            reg = np.zeros(1 << _HLL_P, dtype=np.int64)
            np.maximum.at(
                reg,
                part["register"].to_numpy(np.int64),
                part["rho"].to_numpy(np.int64),
            )
            n = int(np.floor(_hll_estimate(reg) + 0.5))
        rows.append((qid, n))
    return pd.DataFrame(rows, columns=["query_id", "n_distinct"]).astype(
        {"query_id": np.int64, "n_distinct": np.int64}
    )


# ---------------------------------------------------------------------------
# percentiles aggregation
# ---------------------------------------------------------------------------


def _value_histograms(index_dir: str, queries, field: str, where) -> pd.DataFrame:
    """Exact per-query (value -> count) histogram of an integer docmeta
    field over the match set: per-batch histogram partials (``_probe_agg``
    interval "histogram") merged driver-side. The driver holds queries × distinct
    values rows — tiny for bounded integer fields like doc_len, independent
    of corpus size. Shared by percentiles / boxplot / MAD, which are all
    pure functions of this histogram."""
    partials = _probe_partials(index_dir, queries, where, _probe_agg,
                               (field, "histogram", None, None),
                               ["docid", field])
    if partials.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "key": pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64)})
    return (
        partials.groupby(["query_id", "key"], sort=True)["n"].sum().reset_index()
    )


def _nearest_rank(v: np.ndarray, cum: np.ndarray, p: int) -> int:
    """Nearest-rank percentile from a sorted value histogram: the value at
    1-based index ceil(n * p / 100) of the expanded sorted list — pure
    integer math, bit-stable across engines."""
    n = int(cum[-1])
    target = -(-n * int(p) // 100)  # ceil(n*p/100)
    return int(v[int(np.searchsorted(cum, target, side="left"))])


def percentiles_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    percents: tuple = (25, 50, 75, 95, 99),
    where=None,
) -> pd.DataFrame:
    """OpenSearch `percentiles` aggregation over each query's full match
    set, with NEAREST-RANK semantics (the value at index ceil(p/100 * n) of
    the sorted values — discrete, no interpolation, so the result is
    bit-stable and SQL-checkable; OpenSearch's t-digest is approximate).
    Partials are per-batch (value -> count) histograms — tiny for bounded
    integer fields like doc_len — merged driver-side. Returns
    (query_id, percent, value)."""
    hist = _value_histograms(index_dir, queries, field, where)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "percent": pd.Series(dtype=np.int64),
        "value": pd.Series(dtype=np.int64),
    }
    if hist.empty:
        return pd.DataFrame(cols)
    rows = []
    for qid, g in hist.groupby("query_id", sort=True):
        v = g["key"].to_numpy(np.int64)      # sorted by the groupby
        cum = np.cumsum(g["n"].to_numpy(np.int64))
        for p in percents:
            rows.append((int(qid), int(p), _nearest_rank(v, cum, p)))
    return pd.DataFrame(rows, columns=["query_id", "percent", "value"]).astype(
        {"query_id": np.int64, "percent": np.int64, "value": np.int64}
    )


def boxplot_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `boxplot` aggregation over each query's full match set:
    (query_id, min, q1, q2, q3, max) of an integer docmeta field. Quartiles
    use NEAREST-RANK semantics (value at 1-based index ceil(n*p/100) —
    discrete and bit-stable; OpenSearch's TDigest quartiles are
    approximate, documented divergence). Rides the same exact
    (value -> count) histogram partials as :func:`percentiles_agg`, so the
    driver never sees per-doc rows."""
    hist = _value_histograms(index_dir, queries, field, where)
    cols = ["query_id", "min", "q1", "q2", "q3", "max"]
    if hist.empty:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    rows = []
    for qid, g in hist.groupby("query_id", sort=True):
        v = g["key"].to_numpy(np.int64)
        cum = np.cumsum(g["n"].to_numpy(np.int64))
        rows.append((int(qid), int(v[0]),
                     _nearest_rank(v, cum, 25), _nearest_rank(v, cum, 50),
                     _nearest_rank(v, cum, 75), int(v[-1])))
    return pd.DataFrame(rows, columns=cols).astype(
        {c: np.int64 for c in cols}
    )


def mad_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `median_absolute_deviation` aggregation over each query's
    full match set: median(|v - median(v)|) of an integer docmeta field,
    both medians NEAREST-RANK (OpenSearch's TDigest MAD is approximate;
    this is the exact discrete analog). Computed entirely from the
    per-query (value -> count) histogram: the deviation histogram folds
    |v - med| driver-side, so one distributed pass serves both medians.
    Returns (query_id, median, mad), both int64."""
    hist = _value_histograms(index_dir, queries, field, where)
    cols = {"query_id": pd.Series(dtype=np.int64),
            "median": pd.Series(dtype=np.int64),
            "mad": pd.Series(dtype=np.int64)}
    if hist.empty:
        return pd.DataFrame(cols)
    rows = []
    for qid, g in hist.groupby("query_id", sort=True):
        v = g["key"].to_numpy(np.int64)
        c = g["n"].to_numpy(np.int64)
        med = _nearest_rank(v, np.cumsum(c), 50)
        dev = pd.DataFrame({"d": np.abs(v - med), "n": c})
        dg = dev.groupby("d", sort=True)["n"].sum()
        dv = dg.index.to_numpy(np.int64)
        mad = _nearest_rank(dv, np.cumsum(dg.to_numpy(np.int64)), 50)
        rows.append((int(qid), med, mad))
    return pd.DataFrame(rows, columns=list(cols)).astype(
        {k: np.int64 for k in cols}
    )


def _probe_t_test(batch: pa.Table, qids, rows, scores, field: str, pred_a,
                  pred_b) -> pa.Table:
    """t_test update: (query_id, grp, n, s, s2) of the metric field under
    each of the two population predicates, over the pairs — the same
    exact-integer moment contract as `_probe_stats` (doc_len < 2^21 keeps
    s2 in int64)."""
    v = _np(batch, field).astype(np.int64)[rows]
    sel = [_eval_predicate(batch, p)[rows] for p in (pred_a, pred_b)]
    grp = np.repeat(np.arange(len(sel), dtype=np.int64), [int(m.sum()) for m in sel])
    v = np.concatenate([v[m] for m in sel])
    g = _grouped({"query_id": np.concatenate([qids[m] for m in sel]), "grp": grp},
                 {"n": ("v", "size"), "s": ("v", "sum"), "s2": ("v2", "sum")},
                 {"v": v, "v2": v * v})
    return _table(g, dict.fromkeys(["query_id", "grp", "n", "s", "s2"], pa.int64()))


def t_test_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    pred_a=(("role", "=", "user"),),
    pred_b=(("role", "=", "assistant"),),
    where=None,
) -> pd.DataFrame:
    """OpenSearch `t_test` aggregation (type=heteroscedastic, Welch's
    unpaired t) between two filter-defined populations of each query's
    match set, over an integer docmeta field. Per-batch partials carry
    exact integer (n, sum, sum-of-squares) per population; the t statistic
    is computed driver-side with every float op written out explicitly —
    m = s/n; var = (s2 - n*m*m)/(n-1); t = (m_a - m_b)/sqrt(var_a/n_a +
    var_b/n_b) — so a SQL oracle reproduces it bit-for-bit. Populations
    with n < 2 are skipped (variance undefined). Returns
    (query_id, n_a, n_b, t), t rounded half-up to 6 decimals."""
    _check_predicates(pred_a, pred_b)
    pred_fields = sorted({f for f, _, _ in tuple(pred_a) + tuple(pred_b)})
    partials = _probe_partials(index_dir, queries, where, _probe_t_test,
                               (field, tuple(pred_a), tuple(pred_b)),
                               ["docid", field] + pred_fields)
    cols = {"query_id": pd.Series(dtype=np.int64),
            "n_a": pd.Series(dtype=np.int64),
            "n_b": pd.Series(dtype=np.int64),
            "t": pd.Series(dtype=np.float64)}
    if partials.empty:
        return pd.DataFrame(cols)
    g = (
        partials.groupby(["query_id", "grp"], sort=True)
        .agg(n=("n", "sum"), s=("s", "sum"), s2=("s2", "sum"))
        .reset_index()
        .pivot(index="query_id", columns="grp", values=["n", "s", "s2"])
    )
    rows = []
    for qid in g.index:
        try:
            # pivot leaves NaN (not a KeyError) when one population has no
            # partials at all for this query — treat either as "population
            # empty" and skip.
            raw_na = g.loc[qid, ("n", 0)]
            raw_nb = g.loc[qid, ("n", 1)]
            if pd.isna(raw_na) or pd.isna(raw_nb):
                continue
            na, nb = int(raw_na), int(raw_nb)
        except KeyError:
            continue
        if not (na >= 2 and nb >= 2):
            continue
        sa, sb = float(g.loc[qid, ("s", 0)]), float(g.loc[qid, ("s", 1)])
        s2a, s2b = float(g.loc[qid, ("s2", 0)]), float(g.loc[qid, ("s2", 1)])
        ma = sa / na
        mb = sb / nb
        va = (s2a - na * ma * ma) / (na - 1)
        vb = (s2b - nb * mb * mb) / (nb - 1)
        denom = np.sqrt(va / na + vb / nb)
        if denom == 0.0:
            continue
        t = (ma - mb) / denom
        rows.append((int(qid), na, nb, float(np.floor(t * 1e6 + 0.5) / 1e6)))
    return pd.DataFrame(rows, columns=list(cols)) if rows else pd.DataFrame(cols)


def rate_agg(
    index_dir: str,
    queries,
    field: str = "ts",
    metric_field: str = "doc_len",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `rate` aggregation (unit=day) nested in a
    fixed_interval=7d date_histogram over each query's match set: per
    epoch-anchored 7-day bucket, the per-day rate of matching docs
    (n_docs / 7) and of the summed metric field (sum / 7) — OpenSearch's
    fixed-interval rate scaling (interval_in_units division; calendar
    intervals would divide by the actual bucket length). Buckets anchor at
    the unix epoch exactly like OpenSearch fixed_interval. Returns
    (query_id, key, rate_docs, rate_sum), rates rounded half-up to 6
    decimals, ordered by (query_id, key)."""
    partials = _run_agg_partials(index_dir, queries, field, "7d",
                                 metric_field, where)
    cols = {"query_id": pd.Series(dtype=np.int64),
            "key": pd.Series(dtype="datetime64[us]"),
            "rate_docs": pd.Series(dtype=np.float64),
            "rate_sum": pd.Series(dtype=np.float64)}
    if partials.empty:
        return pd.DataFrame(cols)
    g = (
        partials.groupby(["query_id", "key"], sort=True)
        .agg(n=("n", "sum"), s=("s", "sum"))
        .reset_index()
    )
    rd = g["n"].astype(np.float64) / 7.0
    rs = g["s"].astype(np.float64) / 7.0
    return pd.DataFrame({
        "query_id": g["query_id"].astype(np.int64),
        "key": g["key"].astype("datetime64[us]"),
        "rate_docs": np.floor(rd * 1e6 + 0.5) / 1e6,
        "rate_sum": np.floor(rs * 1e6 + 0.5) / 1e6,
    })


# ---------------------------------------------------------------------------
# top_hits aggregation (per-bucket best hits)
# ---------------------------------------------------------------------------


def _match_sets_scored(index_dir: str, queries, where=None):
    """{qid: (sorted docids, aligned BM25 scores)} — the exhaustive scorer at
    k=INT32_MAX, materialized on the driver. No agg calls it: it is the
    scored twin of ``_match_sets``, the reference the sharded production
    (``_sharded_matches(scored=True)``) is tested against."""
    q = query_frame(queries)
    q["k"] = np.int32(K_MAX)
    res = search(index_dir, q, mode="exhaustive", where=where).to_pandas()
    out = {}
    for qid, g in res.groupby("query_id"):
        d = g["docid"].to_numpy(np.int64)
        s = g["score"].to_numpy(np.float64)
        o = np.argsort(d)
        out[int(qid)] = (d[o], s[o])
    return out


def _probe_top_hits(batch: pa.Table, qids, rows, scores, field: str,
                    size: int) -> pa.Table:
    """top_hits update: per (query, bucket key) the block's top-``size``
    pairs by (rounded score desc, docid asc), carrying the raw score — only
    queries x buckets x size rows leave each task."""
    top = _top_n(pd.DataFrame({
        "query_id": qids, "key": _np(batch, field)[rows],
        "docid": _np(batch, "docid")[rows], "score": scores,
        "sr": np.floor(scores * 1e6 + 0.5) / 1e6,  # same half-up as the reduce
    }), ["query_id", "key"], ["sr"], size)
    return _table(top, {"query_id": pa.int64(), "key": pa.string(),
                        "docid": pa.int64(), "score": pa.float64()})


def top_hits_agg(
    index_dir: str,
    queries,
    field: str = "role",
    size: int = 2,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `top_hits` sub-aggregation under a `terms` bucket: for each
    query and each distinct value of the docmeta ``field``, the ``size``
    best hits by BM25 (rounded-score desc, docid asc — the engine's
    deterministic order). Scored match sets shard by docid range; docmeta
    streams once through a per-batch top-``size`` combiner; partials reduce
    driver-side. Returns (query_id, key, rank, docid, score) with score
    rounded half-up to 6 decimals."""
    partials = _probe_partials(index_dir, queries, where, _probe_top_hits,
                               (field, size), ["docid", field], scored=True)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "key": pd.Series(dtype=object),
        "rank": pd.Series(dtype=np.int32),
        "docid": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    # half-up 6-decimal rounding on BOTH engines (numpy round is half-even)
    partials["score"] = np.floor(partials["score"] * 1e6 + 0.5) / 1e6
    out = _top_n(partials, ["query_id", "key"], ["score"], size).reset_index(drop=True)
    return out[["query_id", "key", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    )


# ---------------------------------------------------------------------------
# significant_terms aggregation
# ---------------------------------------------------------------------------


# (query, term) entries one significant_terms slice expands at most
_EXPAND_MAX = 1 << 22


def _probe_sig_terms(batch: pa.Table, qids, rows, scores, analyzer) -> pa.Table:
    """significant_terms update: per query, the number of MATCHED docs in
    this batch containing each term — (query_id, term, fg) rows. The batch
    tokenizes ONCE; counting is one grouped reduction over (query,
    dictionary code)."""
    from remote_vector_index_builder_ray.functions.tokenizer import analyze_column

    schema = {"query_id": pa.int64(), "term": pa.string(), "fg": pa.int64()}
    if len(rows) == 0:
        return _table(pd.DataFrame(columns=list(schema)), schema)
    tokens, doc_index, _dl = analyze_column(batch["text"], analyzer)
    dicted = tokens.dictionary_encode()
    if isinstance(dicted, pa.ChunkedArray):
        dicted = dicted.combine_chunks()
    codes = dicted.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # distinct (row, term) pairs, row-major: a term counts once per
    # containing doc; each (query, row) pair then takes its row's terms.
    # That expansion is Σ terms over the matched rows, so it runs in
    # slices of at most _EXPAND_MAX entries (partial rows may repeat a
    # (query, term); the reduce sums them)
    pair = np.unique((np.asarray(doc_index, np.int64) << np.int64(32)) | codes)
    p_row = pair >> np.int64(32)
    first = np.searchsorted(p_row, np.arange(batch.num_rows))
    n_terms = np.bincount(p_row, minlength=batch.num_rows)
    step = max(1, _EXPAND_MAX // max(1, int(n_terms.max())))
    parts = []
    for s0 in range(0, len(rows), step):
        sl = slice(s0, s0 + step)
        hit, pos = _expand(first[rows[sl]], n_terms[rows[sl]])
        parts.append(_grouped({"query_id": qids[sl][hit],
                               "code": pair[pos] & np.int64(0xFFFFFFFF)}, {}))
    g = pd.concat(parts, ignore_index=True)
    g["term"] = dicted.dictionary.take(pa.array(g["code"].to_numpy())).to_numpy(
        zero_copy_only=False)
    return _table(g.rename(columns={"n": "fg"}), schema)


def significant_terms_agg(
    index_dir: str,
    queries,
    size: int = 10,
    where=None,
    sampler_size: int | None = None,
    heuristic: str = "jlh",
) -> pd.DataFrame:
    """OpenSearch `significant_terms` aggregation with the JLH score: terms
    whose frequency in a query's match set (foreground) is anomalously high
    vs the corpus (background). score = (fg_rate - bg_rate) * (fg_rate /
    bg_rate) with fg_rate = fg_docs/|matches|, bg_rate = df/N. Foreground
    counts stream from docmeta (one tokenize pass per batch, per-query
    numpy counting); background df comes from the cached term dictionary
    (pipelines/expand._get_dict). Top ``size`` terms per query by
    (score desc, term asc); score rounded half-up to 6 decimals. Returns
    (query_id, term, fg_docs, bg_docs, score).

    ``sampler_size`` (the OpenSearch `sampler` agg analog, its default is
    top-100 per shard): restrict each query's foreground to its
    ``sampler_size`` BEST-scoring matched docs (BM25 desc, docid asc —
    deterministic, so a SQL twin samples identically). This is the scale
    path: without it, an unselective (stopword) query's partial rows are
    (query x distinct matched term) per task, i.e. corpus-vocabulary-sized
    at the driver."""
    if sampler_size is not None:
        # "top sampler_size matches by (BM25 desc, docid asc)" IS search at
        # k=sampler_size — a k-bounded distributed reduce whose result is
        # queries x sampler_size rows, driver-small by construction (the
        # round-2 version ran k=INT32_MAX and took the top-N on the driver)
        qq = query_frame(queries)
        qq["k"] = np.int32(sampler_size)
        res = search(index_dir, qq, mode="exhaustive", where=where).to_pandas()
        matches = (
            {int(qid): np.sort(g["docid"].to_numpy(np.int64))
             for qid, g in res.groupby("query_id")}
            if "query_id" in res.columns
            else {}
        )
        shard_refs, qid_list = _shard_match_sets(matches)
        counts = {qid: len(a) for qid, a in matches.items()}
    else:
        shard_refs, qid_list, counts = _sharded_matches(index_dir, queries, where=where)
    return _sig_probe_reduce(index_dir, shard_refs, qid_list, counts, size,
                             heuristic=heuristic)


def _sig_probe_reduce(
    index_dir: str,
    shard_refs: dict,
    qid_list,
    counts: dict,
    size: int,
    heuristic: str = "jlh",
) -> pd.DataFrame:
    """Shared significant_terms/significant_text tail: stream docmeta once
    through the per-batch foreground term counter, reduce (query, term)
    partials, JLH-score vs the cached background dictionary, top ``size``."""
    from remote_vector_index_builder_ray.functions.tokenizer import load_analyzer
    from remote_vector_index_builder_ray.pipelines.expand import _get_dict

    partials = _probe_partials(index_dir, None, None, _probe_sig_terms,
                               (load_analyzer(index_dir),), ["docid", "text"],
                               shard_refs=shard_refs)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "term": pd.Series(dtype=object),
        "fg_docs": pd.Series(dtype=np.int64),
        "bg_docs": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    from remote_vector_index_builder_ray.state.manifest import load_base_stats

    st = load_base_stats(index_dir)
    N = float(st["N"])
    td = _get_dict(index_dir)
    fg = (
        partials.groupby(["query_id", "term"], sort=True)["fg"].sum().reset_index()
    )
    # background df lookup on the sorted dictionary
    pos = np.searchsorted(td.terms, fg["term"].to_numpy(np.str_))
    bg = td.df[pos].astype(np.float64)
    fg_total = fg["query_id"].map({q: float(counts[q]) for q in qid_list})
    fg_rate = fg["fg"].astype(np.float64) / fg_total
    bg_rate = bg / N
    if heuristic == "jlh":
        score = (fg_rate - bg_rate) * (fg_rate / bg_rate)
    elif heuristic == "chi_square":
        # OpenSearch chi_square (include_negatives=false semantics kept by
        # the same top-size cut): (fg_rate - bg_rate)^2 / bg_rate
        score = (fg_rate - bg_rate) * (fg_rate - bg_rate) / bg_rate
    elif heuristic == "mutual_information":
        # OpenSearch mutual_information heuristic (MutualInformation.java,
        # include_negatives=true, background_is_superset=true): the MI of
        # the 2x2 contingency table (term presence x subset membership),
        # Σ (Nxy/N)·ln(Nxy·N/(Nx_·N_y)) over the four cells, divided by
        # ln 2 (log2 MI). Cells with Nxy == 0 contribute 0. MI >= 0 always
        # (it is a KL divergence), so the (score desc, term asc) cut needs
        # no negative-score special case.
        import math as _math

        f = fg["fg"].to_numpy(np.float64)
        sub = fg_total.to_numpy(np.float64)
        n11 = f
        n01 = bg - f
        n10 = sub - f
        n00 = N - bg - (sub - f)
        n1_ = sub
        n0_ = N - sub
        n_1 = bg
        n_0 = N - bg

        def _mi_term(nxy, nx_, n_y):
            with np.errstate(divide="ignore", invalid="ignore"):
                v = (nxy / N) * np.log((nxy * N) / (nx_ * n_y))
            return np.where(nxy <= 0, 0.0, v)

        score = (
            _mi_term(n00, n0_, n_0)
            + _mi_term(n01, n0_, n_1)
            + _mi_term(n10, n1_, n_0)
            + _mi_term(n11, n1_, n_1)
        ) / _math.log(2.0)
    elif heuristic == "gnd":
        # OpenSearch gnd heuristic (GoogleNormalizedDistance.java): the
        # Google normalized distance of (term, subset) with fx = bg docs,
        # fy = subset size, fxy = fg docs over N background docs —
        # distance = (max(ln fx, ln fy) - ln fxy) / (ln N - min(ln fx,
        # ln fy)); score = exp(-distance) so distance 0 → 1 and larger
        # distances → 0. A zero denominator (fx == N or fy == N) scores 0.
        import math as _math

        f = fg["fg"].to_numpy(np.float64)
        sub = fg_total.to_numpy(np.float64)
        num = np.maximum(np.log(bg), np.log(sub)) - np.log(f)
        den = _math.log(N) - np.minimum(np.log(bg), np.log(sub))
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.exp(-(num / den))
        score = np.where(den == 0.0, 0.0, v)
    else:
        raise ValueError(f"unknown significance heuristic {heuristic!r}")
    out = pd.DataFrame(
        {
            "query_id": fg["query_id"].astype(np.int64),
            "term": fg["term"],
            "fg_docs": fg["fg"].astype(np.int64),
            "bg_docs": bg.astype(np.int64),
            "score": np.floor(score * 1e6 + 0.5) / 1e6,
        }
    )
    out = out.sort_values(["query_id", "score", "term"],
                          ascending=[True, False, True])
    out = out.groupby("query_id", sort=True).head(size).reset_index(drop=True)
    return out


def _probe_dedup_text(batch: pa.Table, qids, rows, scores) -> pa.Table:
    """filter_duplicate_text update: for each query's matched docs, the
    batch-local min docid per exact-text hash — (qt-key, docid) partials.
    Only matched rows leave the task, keyed by (query, text-hash) string so
    a single-column groupby can reduce them."""
    ids = _np(batch, "docid")
    # hash ONLY rows matched by >= 1 query (vectorized 64-bit content
    # hash; equal texts hash equal — the dedup key for this run)
    union = np.unique(rows)
    th = np.zeros(len(ids), dtype=np.uint64)
    th[union] = pd.util.hash_array(_np(batch, "text")[union].astype(object))
    g = _grouped({"q": qids, "h": th[rows]}, {"docid": ("docid", "min")},
                 {"docid": ids[rows]})
    g["qt"] = g["q"].astype(str) + "|" + g["h"].astype(str)
    return _table(g, {"qt": pa.string(), "docid": pa.int64()})


def significant_text_agg(
    index_dir: str,
    queries,
    size: int = 10,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `significant_text` aggregation with
    ``filter_duplicate_text=true``: significant_terms re-analyzed from the
    text field, counting each DISTINCT text once per query foreground (the
    canonical copy = min docid per (query, exact text)). Same JLH scoring,
    background and output shape as :func:`significant_terms_agg`.

    Scale shape: the duplicate filter is a (query, text-hash) -> min(docid)
    groupby over MATCHED rows only (16-byte hash + docid move, never text);
    the deduped match set is re-sharded by docid range by one ``_pack``
    task per dedup block, the packer the searcher actors run for
    ``_sharded_matches`` — the driver never holds a docid list."""
    from ray.data.aggregate import Min

    shard_refs0, _, _ = _sharded_matches(index_dir, queries, where=where)
    deduped = (
        _probe_ds(index_dir, ["docid", "text"], _probe_dedup_text, shard_refs0)
        .groupby("qt")
        .aggregate(Min("docid"))
    )

    def _unkey(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "docid": pa.array([], type=pa.int64())})
        qt = batch["qt"].to_pylist()
        qids = np.fromiter((int(s.split("|", 1)[0]) for s in qt),
                           dtype=np.int64, count=len(qt))
        d = batch["min(docid)"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({"query_id": pa.array(qids, type=pa.int64()),
                         "docid": pa.array(d.astype(np.int64), type=pa.int64())})

    blocks = deduped.map_batches(_unkey, batch_format="pyarrow").to_arrow_refs()
    n = _n_shards(index_dir, _MATCH_SHARD_STRIDE)
    pack = ray.remote(_pack_table).options(num_returns=n + 1)
    shard_refs, qid_list, counts = _directory(
        [pack.remote(b, _MATCH_SHARD_STRIDE, n) for b in blocks])
    return _sig_probe_reduce(index_dir, shard_refs, qid_list, counts, size)


def pipeline_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch pipeline aggregations over a date_histogram parent:
    `cumulative_sum` and `derivative` of the per-day doc counts.
    (query_id, key, n_docs, cum_docs, deriv) — deriv is the difference vs
    the previous PRESENT bucket (this engine's histogram omits empty
    buckets, min_doc_count=1; OpenSearch computes the derivative between
    consecutive response buckets the same way), NULL/NaN for each query's
    first bucket. Pipeline aggs reduce the parent's bucket stream — a
    (queries x buckets) frame, driver-small by construction."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        out = base.copy()
        out["cum_docs"] = pd.Series(dtype=np.int64)
        out["deriv"] = pd.Series(dtype=np.float64)
        return out
    base = base.sort_values(["query_id", "key"]).reset_index(drop=True)
    g = base.groupby("query_id", sort=False)["n_docs"]
    base["cum_docs"] = g.cumsum().astype(np.int64)
    base["deriv"] = g.diff().astype(np.float64)
    return base


def _group_sum(batch: pa.Table, field: str, metric_field: str) -> pa.Table:
    """global_terms_agg's per-file combiner: (field, s, n) per key."""
    t = batch.group_by(field).aggregate([(metric_field, "sum"), ([], "count_all")])
    return t.rename_columns([field, "s", "n"])


def global_terms_agg(
    index_dir: str,
    field: str = "role",
    metric_field: str = "doc_len",
) -> pd.DataFrame:
    """OpenSearch `global` bucket aggregation: terms buckets over the WHOLE
    index, ignoring any query — no match set and no probe: one grouped sum
    per pinned docmeta file (``QueryService.map_docmeta``), and a
    driver-small reduce of the per-file partials. Returns (key, n_docs,
    avg_<metric_field>), key-ascending."""
    from remote_vector_index_builder_ray.query_service import default_service

    refs = default_service().map_docmeta(index_dir, [field, metric_field],
                                         _group_sum, field, metric_field)
    partials = pa.concat_tables(ray.get(refs)).to_pandas()
    g = (partials.groupby(field, sort=True)
         .agg(n_docs=("n", "sum"), s=("s", "sum")).reset_index())
    avg = g["s"].astype(np.float64) / g["n_docs"]
    return pd.DataFrame({
        "key": g[field],
        "n_docs": g["n_docs"].astype(np.int64),
        f"avg_{metric_field}": np.floor(avg * 1e6 + 0.5) / 1e6,
    })


def moving_avg_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    window: int = 3,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `moving_fn`/`moving_avg` pipeline agg over a
    date_histogram parent: per bucket the mean of the trailing ``window``
    PRESENT buckets (ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW),
    computed as windowed-sum / windowed-count so the SQL twin reproduces
    the float division exactly; rounded half-up to 6 decimals."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        out = base.copy()
        out["moving_avg"] = pd.Series(dtype=np.float64)
        return out
    base = base.sort_values(["query_id", "key"]).reset_index(drop=True)
    outs = []
    for _, g in base.groupby("query_id", sort=False):
        v = g["n_docs"].to_numpy(np.int64)
        cum = np.concatenate([[0], np.cumsum(v)])
        idx = np.arange(len(v))
        lo = np.maximum(idx - (window - 1), 0)
        wsum = cum[idx + 1] - cum[lo]
        wcnt = (idx + 1 - lo).astype(np.float64)
        g = g.copy()
        g["moving_avg"] = np.floor(wsum.astype(np.float64) / wcnt * 1e6 + 0.5) / 1e6
        outs.append(g)
    return pd.concat(outs, ignore_index=True)


def auto_date_histogram(
    index_dir: str,
    queries,
    target_buckets: int = 20,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `auto_date_histogram`: per query, the COARSEST-needed
    calendar interval from (day, week, month) whose bucket count fits
    ``target_buckets`` (month kept even when it still exceeds). Weeks are
    Monday-floored (SQL date_trunc('week')), months calendar-floored.
    Returns (query_id, interval, key, n_docs). Derived from the day
    histogram — one probe pass, the re-bucketing is driver-small."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        out = base.copy()
        out["interval"] = pd.Series(dtype=object)
        return out[["query_id", "interval", "key", "n_docs"]]
    base = base.sort_values(["query_id", "key"]).reset_index(drop=True)
    outs = []
    for qid, g in base.groupby("query_id", sort=True):
        days = g["key"].to_numpy("datetime64[us]").astype("datetime64[D]")
        di = days.astype(np.int64)
        week = (di - (di + 3) % 7).astype("datetime64[D]")
        month = days.astype("datetime64[M]").astype("datetime64[D]")
        n = g["n_docs"].to_numpy(np.int64)
        if len(np.unique(days)) <= target_buckets:
            interval, keys = "day", days
        elif len(np.unique(week)) <= target_buckets:
            interval, keys = "week", week
        else:
            interval, keys = "month", month
        df = pd.DataFrame({"key": keys.astype("datetime64[us]"), "n": n})
        agg = df.groupby("key", sort=True)["n"].sum().reset_index()
        agg.insert(0, "interval", interval)
        agg.insert(0, "query_id", int(qid))
        outs.append(agg.rename(columns={"n": "n_docs"}))
    return pd.concat(outs, ignore_index=True).astype(
        {"query_id": np.int64, "n_docs": np.int64})


def serial_diff_date_histogram(
    index_dir: str,
    queries,
    lag: int = 7,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `serial_diff` pipeline agg over a date_histogram parent:
    per bucket the difference vs the bucket ``lag`` positions earlier in
    the query's PRESENT-bucket sequence (week-over-week with lag=7 daily
    buckets); NULL/NaN for each query's first ``lag`` buckets."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        out = base.copy()
        out["serial_diff"] = pd.Series(dtype=np.float64)
        return out
    base = base.sort_values(["query_id", "key"]).reset_index(drop=True)
    base["serial_diff"] = (
        base.groupby("query_id", sort=False)["n_docs"].diff(lag)
        .astype(np.float64)
    )
    return base


def bucket_sort_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    min_doc_count: int = 10,
    size: int = 5,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `bucket_selector` + `bucket_sort` pipeline aggs over a
    date_histogram parent: keep buckets with n_docs >= ``min_doc_count``
    (the selector's HAVING), order (n_docs desc, key asc) and truncate to
    ``size`` buckets per query — the "top busiest days" shape."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        return base
    base = base[base["n_docs"] >= min_doc_count]
    base = base.sort_values(["query_id", "n_docs", "key"],
                            ascending=[True, False, True])
    out = base.groupby("query_id", sort=True).head(size).reset_index(drop=True)
    out["bucket_rank"] = (out.groupby("query_id").cumcount() + 1).astype(np.int32)
    return out


_SELECTOR_CLAUSE = None  # compiled lazily below


def _parse_selector_script(script: str):
    """Parse the bucket_selector painless subset: comparisons
    ``params.<path> <op> <number>`` joined by ``&&`` (op in
    >=, <=, >, <, ==, !=). Returns [(path, op, value)]; anything outside
    the subset raises (a selector that silently no-ops would keep every
    bucket — the silent-success failure mode)."""
    import re

    global _SELECTOR_CLAUSE
    if _SELECTOR_CLAUSE is None:
        _SELECTOR_CLAUSE = re.compile(
            r"^\s*params\.([A-Za-z_][A-Za-z0-9_]*)\s*"
            r"(>=|<=|==|!=|>|<)\s*(-?\d+(?:\.\d+)?)\s*$"
        )
    clauses = []
    for part in script.split("&&"):
        m = _SELECTOR_CLAUSE.match(part)
        if m is None:
            raise ValueError(f"unsupported bucket_selector clause: {part!r}")
        clauses.append((m.group(1), m.group(2), float(m.group(3))))
    if not clauses:
        raise ValueError("empty bucket_selector script")
    return clauses


_SELECTOR_OPS = {
    ">=": lambda a, b: a >= b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, "<": lambda a, b: a < b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
}


def bucket_selector_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    metric_field: str = "doc_len",
    script: str = "params.total >= 800 && params.docs >= 2",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `bucket_selector` pipeline agg over a date_histogram
    parent with a metric sub-agg: buckets_path = {docs: _count,
    total: sum(metric_field)}, and a script over those paths decides
    whether each bucket STAYS in the response (failing buckets are
    removed, unlike bucket_sort which only orders/truncates). The script
    is the painless subset `params.<path> <cmp> <number>` clauses joined
    by `&&` (see _parse_selector_script). Returns (query_id, key, n_docs,
    total), (query_id, key)-ascending — the surviving bucket stream.

    The per-bucket counts AND the metric sums come out of one `_probe_agg`
    probe pass (per-batch combiner partials; only queries x buckets x
    read-tasks rows land on the driver), so the selector itself is a
    driver-side filter over a driver-small frame — the pipeline-agg
    contract (reduce the PARENT's bucket stream, never re-probe docs)."""
    clauses = _parse_selector_script(script)
    partials = _run_agg_partials(index_dir, queries, field, "day",
                                 metric_field, where)
    if partials.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "key": pd.Series(dtype="datetime64[us]"),
                             "n_docs": pd.Series(dtype=np.int64),
                             "total": pd.Series(dtype=np.int64)})
    g = (partials.groupby(["query_id", "key"], sort=True)
         .agg(n_docs=("n", "sum"), total=("s", "sum")).reset_index())
    paths = {"docs": g["n_docs"].to_numpy(np.int64),
             "total": g["total"].to_numpy(np.int64)}
    keep = np.ones(len(g), dtype=bool)
    for path, op, val in clauses:
        if path not in paths:
            raise ValueError(f"unknown buckets_path {path!r} "
                             f"(have {sorted(paths)})")
        keep &= _SELECTOR_OPS[op](paths[path].astype(np.float64), val)
    out = g[keep].reset_index(drop=True)
    return out.astype({"query_id": np.int64, "n_docs": np.int64,
                       "total": np.int64})


def _probe_string_stats(batch: pa.Table, qids, rows, scores, field: str) -> pa.Table:
    """string_stats update: per query (n, len-sum, len-min, len-max) plus a
    256-slot byte histogram of the matched values' characters (ASCII fields
    here) — entropy derives from the merged histogram driver-side, so the
    partial stays O(256) per query."""
    # each row's UTF-8 bytes, read straight off the Arrow buffers
    col = batch[field].combine_chunks().cast(pa.large_string())
    off = np.frombuffer(col.buffers()[1], np.int64)[col.offset:col.offset + len(col) + 1]
    data = np.frombuffer(col.buffers()[2] or b"", np.uint8)
    lens = np.diff(off)[rows]
    uq, q = np.unique(qids, return_inverse=True)
    g = _grouped({"q": q}, {"n": ("l", "size"), "ls": ("l", "sum"),
                            "mn": ("l", "min"), "mx": ("l", "max")}, {"l": lens})
    # one byte histogram per query: a bincount over (query, byte) cells
    hit, pos = _expand(off[:-1][rows], lens)
    hist = np.bincount(q[hit] * 256 + data[pos], minlength=len(uq) * 256)
    g["query_id"] = uq[g["q"]]
    hist = hist.reshape(-1, 256)[g["q"]].astype(np.int64).ravel()
    return _table(g, dict.fromkeys(["query_id", "n", "ls", "mn", "mx"], pa.int64())
                  ).append_column("hist", pa.FixedSizeListArray.from_arrays(
                      hist, 256).cast(pa.list_(pa.int64())))


def string_stats_agg(
    index_dir: str,
    queries,
    field: str = "tool",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `string_stats` aggregation (show_distribution-style
    entropy) over a keyword docmeta field of each query's full match set:
    (query_id, n_values, min_len, max_len, avg_len, entropy) where entropy
    = -Σ p ln p over the CHARACTER distribution of all matched values
    (OpenSearch's Shannon entropy). Partials carry a 256-slot byte
    histogram, so the reduce is associative and O(256) per query."""
    partials = _probe_partials(index_dir, queries, where, _probe_string_stats,
                               (field,), ["docid", field])
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "n_values": pd.Series(dtype=np.int64),
        "min_len": pd.Series(dtype=np.int64),
        "max_len": pd.Series(dtype=np.int64),
        "avg_len": pd.Series(dtype=np.float64),
        "entropy": pd.Series(dtype=np.float64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    r6 = lambda x: np.floor(x * 1e6 + 0.5) / 1e6  # noqa: E731
    rows = []
    for qid, g in partials.groupby("query_id", sort=True):
        n = int(g["n"].sum())
        ls = int(g["ls"].sum())
        hist = np.sum(np.stack([np.asarray(h, np.int64) for h in g["hist"]]),
                      axis=0)
        total = float(hist.sum())
        ent = 0.0
        if total > 0:
            # ascending byte order — the SQL twin groups by character and
            # sums in the same order after its ORDER BY
            nz = hist[hist > 0].astype(np.float64)
            p = nz / total
            ent = float(-(p * np.log(p)).sum())
        rows.append((int(qid), n, ls, int(g["mn"].min()), int(g["mx"].max()),
                     ent))
    out = pd.DataFrame(rows, columns=["query_id", "n_values", "ls",
                                      "min_len", "max_len", "entropy"])
    out["avg_len"] = r6(out["ls"].astype(np.float64) / out["n_values"])
    out["entropy"] = r6(out["entropy"].to_numpy())
    return out[["query_id", "n_values", "min_len", "max_len", "avg_len",
                "entropy"]].astype({"query_id": np.int64,
                                    "n_values": np.int64,
                                    "min_len": np.int64,
                                    "max_len": np.int64})


def rare_terms_agg(
    index_dir: str,
    queries,
    max_doc_count: int = 2,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `rare_terms` aggregation: terms of each query's match set
    whose CORPUS document frequency is <= ``max_doc_count`` — the long-tail
    complement of the terms agg. Same probe as significant_terms (one
    tokenize pass per docmeta batch → per-query foreground counts); the
    corpus df filter comes from the cached term dictionary. Returns
    (query_id, term, fg_docs, bg_docs), term-ascending per query."""
    from remote_vector_index_builder_ray.functions.tokenizer import load_analyzer
    from remote_vector_index_builder_ray.pipelines.expand import _get_dict

    partials = _probe_partials(index_dir, queries, where, _probe_sig_terms,
                               (load_analyzer(index_dir),), ["docid", "text"])
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "term": pd.Series(dtype=object),
        "fg_docs": pd.Series(dtype=np.int64),
        "bg_docs": pd.Series(dtype=np.int64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    td = _get_dict(index_dir)
    fg = partials.groupby(["query_id", "term"], sort=True)["fg"].sum().reset_index()
    pos = np.searchsorted(td.terms, fg["term"].to_numpy(np.str_))
    bg = td.df[pos].astype(np.int64)
    out = pd.DataFrame({
        "query_id": fg["query_id"].astype(np.int64),
        "term": fg["term"],
        "fg_docs": fg["fg"].astype(np.int64),
        "bg_docs": bg,
    })
    out = out[out["bg_docs"] <= max_doc_count]
    return out.sort_values(["query_id", "term"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# composite aggregation (multi-source buckets)
# ---------------------------------------------------------------------------


def _probe_composite(batch: pa.Table, qids, rows, scores, term_field: str,
                     date_field: str) -> pa.Table:
    """composite update: bucket key = (terms source, date_histogram source)
    pair; only queries x composite-buckets rows leave each task."""
    days = _np(batch, date_field).astype("datetime64[D]").astype("datetime64[us]")
    g = _grouped({"query_id": qids, "key_term": _np(batch, term_field)[rows],
                  "key_day": days[rows]}, {})
    return _table(g, {"query_id": pa.int64(), "key_term": pa.string(),
                      "key_day": pa.timestamp("us"), "n": pa.int64()})


def composite_agg(
    index_dir: str,
    queries,
    term_field: str = "role",
    date_field: str = "ts",
    where=None,
    size: int | None = None,
    after: tuple | None = None,
) -> pd.DataFrame:
    """OpenSearch `composite` aggregation with two sources — terms(field) x
    date_histogram(calendar day) — over each query's full match set:
    (query_id, key_term, key_day, n_docs) for every non-empty composite
    bucket, ordered by the composite key (OpenSearch's after-key paging
    order). Same sharded-broadcast probe as the single-source aggs."""
    partials = _probe_partials(index_dir, queries, where, _probe_composite,
                               (term_field, date_field),
                               ["docid", term_field, date_field])
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "key_term": pd.Series(dtype=object),
        "key_day": pd.Series(dtype="datetime64[us]"),
        "n_docs": pd.Series(dtype=np.int64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    out = (
        partials.groupby(["query_id", "key_term", "key_day"], sort=True)["n"]
        .sum().reset_index().rename(columns={"n": "n_docs"})
    )
    if after is not None:
        # OpenSearch composite `after` key: buckets STRICTLY after the
        # (term, day) composite key in key order, per query
        at, ad = after[0], np.datetime64(after[1], "us")
        keep = (out["key_term"] > at) | (
            (out["key_term"] == at) & (out["key_day"] > ad)
        )
        out = out[keep]
    if size is not None:
        # composite `size`: the next page of buckets per query
        out = out.groupby("query_id", sort=True).head(size)
    return out.reset_index(drop=True).astype({"query_id": np.int64, "n_docs": np.int64})


# ---------------------------------------------------------------------------
# weighted_avg / percentile_ranks / top_metrics / multi_terms / stats_bucket
# ---------------------------------------------------------------------------


def _probe_weighted(batch: pa.Table, qids, rows, scores, value_field: str,
                    weight_field: str) -> pa.Table:
    """`weighted_avg` update: exact int64 (sum(v*w), sum(w)) per query —
    the single float64 division happens at the driver so the result is
    bit-reproducible by a SQL oracle."""
    v = _np(batch, value_field).astype(np.int64)[rows]
    w = _np(batch, weight_field).astype(np.int64)[rows]
    g = _grouped({"query_id": qids}, {"svw": ("vw", "sum"), "sw": ("w", "sum")},
                 {"vw": v * w, "w": w})
    return _table(g, dict.fromkeys(["query_id", "svw", "sw"], pa.int64()))


def weighted_avg_agg(
    index_dir: str,
    queries,
    value_field: str = "doc_len",
    weight_field: str = "turn_idx",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `weighted_avg` aggregation over each query's full match
    set: sum(value*weight)/sum(weight) on integer docmeta fields —
    (query_id, weighted_avg) rounded half-up to 6dp. Queries whose matched
    weight sum is zero are omitted (OpenSearch would return null)."""
    partials = _probe_partials(
        index_dir, queries, where, _probe_weighted,
        (value_field, weight_field), ["docid", value_field, weight_field],
    )
    if partials.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "weighted_avg": pd.Series(dtype=np.float64)})
    g = (
        partials.groupby("query_id", sort=True)
        .agg(svw=("svw", "sum"), sw=("sw", "sum"))
        .reset_index()
    )
    g = g[g["sw"] > 0]
    avg = g["svw"].astype(np.float64) / g["sw"]
    return pd.DataFrame({
        "query_id": g["query_id"].astype(np.int64),
        "weighted_avg": np.floor(avg * 1e6 + 0.5) / 1e6,
    }).reset_index(drop=True)


def _probe_ranks(batch: pa.Table, qids, rows, scores, field: str,
                 values) -> pa.Table:
    """`percentile_ranks` update: per (query, probe value) the count of
    matched docs with field <= value, plus the query's match count in the
    batch — driver reduce sums and divides once."""
    values = [float(v) for v in values]
    f = _np(batch, field).astype(np.float64)[rows]
    le = {str(i): (f <= v).astype(np.int64) for i, v in enumerate(values)}
    g = _grouped({"query_id": qids},
                 {"n_tot": ("f", "size"), **{k: (k, "sum") for k in le}},
                 {"f": f, **le})
    g = g.melt(id_vars=["query_id", "n_tot"], var_name="value", value_name="n_le")
    g["value"] = np.asarray(values, dtype=np.float64)[g["value"].astype(np.int64)]
    return _table(g, {"query_id": pa.int64(), "value": pa.float64(),
                      "n_le": pa.int64(), "n_tot": pa.int64()})


def percentile_ranks_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    values=(8, 16, 32),
    where=None,
) -> pd.DataFrame:
    """OpenSearch `percentile_ranks` aggregation (exact CDF form) over each
    query's full match set: for each probe value v, the percentage of
    matched docs with field <= v — (query_id, value, percent) rounded
    half-up to 6dp, ordered by (query_id, value)."""
    partials = _probe_partials(
        index_dir, queries, where, _probe_ranks, (field, values),
        ["docid", field],
    )
    if partials.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "value": pd.Series(dtype=np.float64),
                             "percent": pd.Series(dtype=np.float64)})
    g = (
        partials.groupby(["query_id", "value"], sort=True)
        .agg(n_le=("n_le", "sum"), n_tot=("n_tot", "sum"))
        .reset_index()
    )
    pct = 100.0 * g["n_le"].astype(np.float64) / g["n_tot"]
    return pd.DataFrame({
        "query_id": g["query_id"].astype(np.int64),
        "value": g["value"].astype(np.float64),
        "percent": np.floor(pct * 1e6 + 0.5) / 1e6,
    }).reset_index(drop=True)


def _probe_top_metrics(batch: pa.Table, qids, rows, scores, sort_field: str,
                       metric_field: str, size: int) -> pa.Table:
    """`top_metrics` update: each block's per-query top-``size`` pairs by
    (sort_field DESC, docid ASC) with the metric value — size-bounded rows
    per (query, task); the driver reduce re-sorts and trims to size."""
    s = _np(batch, sort_field)
    s = (s.astype("datetime64[us]") if s.dtype.kind == "M" else s).astype(np.int64)
    top = _top_n(pd.DataFrame({
        "query_id": qids, "docid": _np(batch, "docid")[rows], "sort_us": s[rows],
        "metric": _np(batch, metric_field).astype(np.int64)[rows],
    }), ["query_id"], ["sort_us"], size)
    return _table(top, dict.fromkeys(["query_id", "docid", "sort_us", "metric"],
                                     pa.int64()))


def top_metrics_agg(
    index_dir: str,
    queries,
    sort_field: str = "ts",
    metric_field: str = "doc_len",
    size: int = 3,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `top_metrics` aggregation over each query's full match
    set: the ``metric_field`` values of the top-``size`` matched docs by
    (sort_field DESC, docid ASC) — (query_id, rank, docid, <sort_field>,
    <metric_field>). Unlike top_hits the sort key is a FIELD, not the
    relevance score; partials are size-bounded per task."""
    partials = _probe_partials(
        index_dir, queries, where, _probe_top_metrics,
        (sort_field, metric_field, size), ["docid", sort_field, metric_field],
    )
    is_ts = sort_field == "ts"
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "rank": pd.Series(dtype=np.int32),
        "docid": pd.Series(dtype=np.int64),
        sort_field: pd.Series(dtype="datetime64[us]" if is_ts else np.int64),
        metric_field: pd.Series(dtype=np.int64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    top = _top_n(partials, ["query_id"], ["sort_us"], size)
    sv = top["sort_us"].to_numpy(np.int64)
    out = pd.DataFrame({
        "query_id": top["query_id"].astype(np.int64).to_numpy(),
        "rank": top["rank"].to_numpy(np.int32),
        "docid": top["docid"].astype(np.int64).to_numpy(),
        sort_field: sv.astype("datetime64[us]") if is_ts else sv,
        metric_field: top["metric"].astype(np.int64).to_numpy(),
    })
    return out.reset_index(drop=True)


def _probe_multi_terms(batch: pa.Table, qids, rows, scores, fields,
                       missing: str = "") -> pa.Table:
    """`multi_terms` update: composite bucket over N term fields; rows
    where ANY key field is null or the empty-string sentinel are skipped
    (OpenSearch skips docs missing a source value)."""
    cols, valid = {}, np.ones(batch.num_rows, dtype=bool)
    for f in fields:
        arr = batch[f].combine_chunks()
        valid &= ~np.asarray(arr.is_null())
        cols[f] = arr.to_numpy(zero_copy_only=False)
        valid &= cols[f] != missing
    keep = valid[rows]
    g = _grouped({"query_id": qids[keep],
                  **{f: c[rows[keep]] for f, c in cols.items()}}, {})
    return _table(g, {"query_id": pa.int64(),
                      **dict.fromkeys(fields, pa.string()), "n": pa.int64()})


def multi_terms_agg(
    index_dir: str,
    queries,
    fields=("role", "tool"),
    missing: str = "",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `multi_terms` aggregation over each query's full match
    set: one bucket per distinct combination of the term ``fields``
    (query_id, <field...>, n_docs), ordered by (query_id, fields). Docs
    where any source field is null/sentinel-missing are skipped — the
    difference from composite_agg, which buckets terms x date."""
    fields = list(fields)
    partials = _probe_partials(
        index_dir, queries, where, _probe_multi_terms, (fields, missing),
        ["docid"] + fields,
    )
    cols = {"query_id": pd.Series(dtype=np.int64)}
    for f in fields:
        cols[f] = pd.Series(dtype=object)
    cols["n_docs"] = pd.Series(dtype=np.int64)
    if partials.empty:
        return pd.DataFrame(cols)
    out = (
        partials.groupby(["query_id"] + fields, sort=True)["n"]
        .sum().reset_index().rename(columns={"n": "n_docs"})
    )
    return out.astype({"query_id": np.int64, "n_docs": np.int64})


def stats_bucket_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `stats_bucket` (and by restriction avg/min/max/sum_bucket)
    sibling pipeline aggregation over the per-day date_histogram of each
    query's match set: (query_id, n_buckets, min_docs, max_docs, sum_docs,
    avg_docs[6dp]). Bucket rows are driver-small (queries x days) — the
    heavy probe work is the shared date_histogram pass."""
    h = date_histogram(index_dir, queries, field=field, where=where)
    if h.empty:
        return pd.DataFrame({
            "query_id": pd.Series(dtype=np.int64),
            "n_buckets": pd.Series(dtype=np.int64),
            "min_docs": pd.Series(dtype=np.int64),
            "max_docs": pd.Series(dtype=np.int64),
            "sum_docs": pd.Series(dtype=np.int64),
            "avg_docs": pd.Series(dtype=np.float64),
        })
    g = (
        h.groupby("query_id", sort=True)["n_docs"]
        .agg(n_buckets="size", min_docs="min", max_docs="max", sum_docs="sum")
        .reset_index()
    )
    avg = g["sum_docs"].astype(np.float64) / g["n_buckets"]
    g["avg_docs"] = np.floor(avg * 1e6 + 0.5) / 1e6
    return g.astype({"query_id": np.int64, "n_buckets": np.int64,
                     "min_docs": np.int64, "max_docs": np.int64,
                     "sum_docs": np.int64}).reset_index(drop=True)


def extended_stats_bucket_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `extended_stats_bucket` sibling pipeline aggregation over
    the per-day date_histogram of each query's match set: stats_bucket plus
    sum_of_squares, population variance (Σn²/B - avg², the OpenSearch
    running-moment formula, clamped at 0 against float cancellation) and
    std_deviation — every float op written once, driver-side, in an order a
    SQL oracle reproduces. Returns (query_id, n_buckets, min_docs,
    max_docs, sum_docs, sum_sq, avg_docs, variance, std_dev), floats
    rounded half-up to 6 decimals."""
    h = date_histogram(index_dir, queries, field=field, where=where)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "n_buckets": pd.Series(dtype=np.int64),
        "min_docs": pd.Series(dtype=np.int64),
        "max_docs": pd.Series(dtype=np.int64),
        "sum_docs": pd.Series(dtype=np.int64),
        "sum_sq": pd.Series(dtype=np.int64),
        "avg_docs": pd.Series(dtype=np.float64),
        "variance": pd.Series(dtype=np.float64),
        "std_dev": pd.Series(dtype=np.float64),
    }
    if h.empty:
        return pd.DataFrame(cols)
    h = h.assign(sq=h["n_docs"].astype(np.int64) ** 2)
    g = (
        h.groupby("query_id", sort=True)
        .agg(n_buckets=("n_docs", "size"), min_docs=("n_docs", "min"),
             max_docs=("n_docs", "max"), sum_docs=("n_docs", "sum"),
             sum_sq=("sq", "sum"))
        .reset_index()
    )
    b = g["n_buckets"].to_numpy(np.float64)
    avg = g["sum_docs"].to_numpy(np.float64) / b
    var = np.maximum(g["sum_sq"].to_numpy(np.float64) / b - avg * avg, 0.0)
    std = np.sqrt(var)
    g["avg_docs"] = np.floor(avg * 1e6 + 0.5) / 1e6
    g["variance"] = np.floor(var * 1e6 + 0.5) / 1e6
    g["std_dev"] = np.floor(std * 1e6 + 0.5) / 1e6
    return g.astype({k: v.dtype for k, v in cols.items()}).reset_index(drop=True)


def normalize_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `normalize` pipeline aggregation over a per-day
    date_histogram parent: per query, each bucket's doc count rescaled by
    `percent_of_sum` (n / Σn over the query's buckets) and by
    `rescale_0_1` ((n - min) / (max - min); a query whose buckets all hold
    the same count rescales to 0, matching OpenSearch's 0/0 → 0). Both
    methods reduce the parent's driver-small bucket stream — the heavy
    probe work is the shared date_histogram pass. Returns
    (query_id, key, n_docs, percent_of_sum, rescale_0_1), floats rounded
    half-up to 6 decimals, ordered (query_id, key)."""
    h = date_histogram(index_dir, queries, field=field, where=where)
    if h.empty:
        out = h.copy()
        out["percent_of_sum"] = pd.Series(dtype=np.float64)
        out["rescale_0_1"] = pd.Series(dtype=np.float64)
        return out
    h = h.sort_values(["query_id", "key"]).reset_index(drop=True)
    g = h.groupby("query_id", sort=False)["n_docs"]
    n = h["n_docs"].astype(np.float64)
    tot = g.transform("sum").astype(np.float64)
    lo = g.transform("min").astype(np.float64)
    hi = g.transform("max").astype(np.float64)
    pct = n / tot
    span = hi - lo
    resc = np.where(span > 0, (n - lo) / np.where(span > 0, span, 1.0), 0.0)
    h["percent_of_sum"] = np.floor(pct.to_numpy() * 1e6 + 0.5) / 1e6
    h["rescale_0_1"] = np.floor(resc * 1e6 + 0.5) / 1e6
    return h


def _probe_matrix(batch: pa.Table, qids, rows, scores, field_x: str,
                  field_y: str) -> pa.Table:
    """`matrix_stats` update: exact int64 moment sums per query — (n,
    sum_x, sum_y, sum_x2, sum_y2, sum_xy) — so every float operation
    happens ONCE at the driver in an order a SQL oracle reproduces
    bit-equal. int64 bound: sums of x*y over the match set must stay under
    2^63 (fields here are small ints; at larger corpora widen to per-shard
    float128 or split sums, as OpenSearch's double-based running moments
    would)."""
    x = _np(batch, field_x).astype(np.int64)[rows]
    y = _np(batch, field_y).astype(np.int64)[rows]
    sums = {"sx": x, "sy": y, "sxx": x * x, "syy": y * y, "sxy": x * y}
    g = _grouped({"query_id": qids},
                 {"n": ("sx", "size"), **{k: (k, "sum") for k in sums}}, sums)
    return _table(g, dict.fromkeys(["query_id", "n", *sums], pa.int64()))


def matrix_stats_agg(
    index_dir: str,
    queries,
    field_x: str = "doc_len",
    field_y: str = "turn_idx",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `matrix_stats` aggregation over each query's full match
    set, for the two-field case: count, per-field mean and population
    variance, covariance and Pearson correlation between ``field_x`` and
    ``field_y``. Exact int64 moment partials stream through the probe pool;
    the driver does each float op once in SQL-reproducible order
    (mean = s/n; var = s2/n - mean^2; cov = sxy/n - mx*my;
    corr = cov/sqrt(vx*vy), 0.0 when either variance is 0). All floats
    rounded half-up to 6 decimals. Queries with no matches are omitted."""
    partials = _probe_partials(
        index_dir, queries, where, _probe_matrix,
        (field_x, field_y), ["docid", field_x, field_y],
    )
    cols = ["n_docs", "mean_x", "mean_y", "var_x", "var_y",
            "covariance", "correlation"]
    if partials.empty:
        out = {"query_id": pd.Series(dtype=np.int64),
               "n_docs": pd.Series(dtype=np.int64)}
        out.update({c: pd.Series(dtype=np.float64) for c in cols[1:]})
        return pd.DataFrame(out)
    g = (
        partials.groupby("query_id", sort=True)
        .agg(n=("n", "sum"), sx=("sx", "sum"), sy=("sy", "sum"),
             sxx=("sxx", "sum"), syy=("syy", "sum"), sxy=("sxy", "sum"))
        .reset_index()
    )
    n = g["n"].astype(np.float64)
    mx = g["sx"].astype(np.float64) / n
    my = g["sy"].astype(np.float64) / n
    vx = g["sxx"].astype(np.float64) / n - mx * mx
    vy = g["syy"].astype(np.float64) / n - my * my
    cov = g["sxy"].astype(np.float64) / n - mx * my
    prod = vx * vy
    corr = np.where(prod > 0, cov / np.sqrt(prod), 0.0)
    r6 = lambda v: np.floor(v * 1e6 + 0.5) / 1e6  # noqa: E731
    return pd.DataFrame({
        "query_id": g["query_id"].astype(np.int64),
        "n_docs": g["n"].astype(np.int64),
        "mean_x": r6(mx), "mean_y": r6(my),
        "var_x": r6(vx), "var_y": r6(vy),
        "covariance": r6(cov), "correlation": r6(corr),
    }).reset_index(drop=True)


def bucket_script_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `bucket_script` sibling pipeline aggregation over a per-day
    date_histogram parent: script = each bucket's percent of the query's
    total matched docs (``_count / total * 100``). The parent's bucket frame
    is driver-small (queries x days); one float division + multiply per
    bucket in SQL-reproducible order, rounded half-up to 6 decimals."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        out = base.copy()
        out["pct_of_total"] = pd.Series(dtype=np.float64)
        return out
    base = base.sort_values(["query_id", "key"]).reset_index(drop=True)
    total = base.groupby("query_id", sort=False)["n_docs"].transform("sum")
    pct = base["n_docs"].astype(np.float64) / total.astype(np.float64) * 100.0
    base["pct_of_total"] = np.floor(pct * 1e6 + 0.5) / 1e6
    return base


def moving_fn_date_histogram(
    index_dir: str,
    queries,
    field: str = "ts",
    window: int = 3,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `moving_fn` pipeline aggregation (MovingFunctions.max /
    min / sum) over a per-day date_histogram parent: per bucket the max,
    min and sum of the trailing ``window`` PRESENT buckets (ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW — same window the engine's
    moving_avg uses). Integer in, integer out — no float policy needed.
    Returns (query_id, key, n_docs, mov_max, mov_min, mov_sum)."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        out = base.copy()
        for c in ("mov_max", "mov_min", "mov_sum"):
            out[c] = pd.Series(dtype=np.int64)
        return out
    base = base.sort_values(["query_id", "key"]).reset_index(drop=True)
    g = base.groupby("query_id", sort=False)["n_docs"]
    roll = g.rolling(window, min_periods=1)
    base["mov_max"] = roll.max().to_numpy(np.int64)
    base["mov_min"] = roll.min().to_numpy(np.int64)
    base["mov_sum"] = roll.sum().to_numpy(np.int64)
    return base


def match_count(index_dir: str, queries, where=None) -> pd.DataFrame:
    """OpenSearch `_count` API / `track_total_hits=true`: the exact match
    count of each query (docs containing >= 1 analyzed term, after filters
    and tombstones). Rides the match-set run with zero shards requested:
    each searcher actor returns its per-query counts only, so no piece is
    packed and no docid leaves an actor. Queries matching nothing report 0
    (as _count does). Returns (query_id, total_hits), query_id-ascending."""
    q = query_frame(queries)
    _, _, counts = _directory(_match_run(index_dir, q, where, False,
                                         _MATCH_SHARD_STRIDE, 0))
    qids = sorted(int(v) for v in q["query_id"])
    return pd.DataFrame({
        "query_id": pd.Series(qids, dtype=np.int64),
        "total_hits": pd.Series([counts.get(i, 0) for i in qids],
                                dtype=np.int64),
    })


def _probe_div_top(batch: pa.Table, qids, rows, scores, field: str,
                   max_per_value: int) -> pa.Table:
    """`diversified_sampler` update: per (query, de-dup key) the block's
    top ``max_per_value`` pairs by (round6 score desc, docid asc) — a
    superset of each key's global top; queries x keys x max_per_value rows
    leave each task."""
    top = _top_n(pd.DataFrame({
        "query_id": qids, "key": _np(batch, field)[rows],
        "docid": _np(batch, "docid")[rows],
        "score": np.floor(scores * 1e6 + 0.5) / 1e6,
    }), ["query_id", "key"], ["score"], max_per_value)
    return _table(top, {"query_id": pa.int64(), "key": pa.string(),
                        "docid": pa.int64(), "score": pa.float64()})


def diversified_sampler_agg(
    index_dir: str,
    queries,
    field: str = "role",
    shard_size: int = 20,
    max_docs_per_value: int = 3,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `diversified_sampler` aggregation: each query's top
    ``shard_size`` matched docs by relevance, with at most
    ``max_docs_per_value`` docs per distinct value of the de-dup ``field``.
    Greedy best-first selection under a per-key cap is equivalent to
    "keep docs whose within-key rank <= cap, then take the top shard_size
    overall" (a doc is skipped iff ``max_docs_per_value`` better same-key
    docs exist, and all of those are themselves taken or cap-limited) —
    which is exactly what the probe computes distributed: per-batch
    per-(query,key) top-cap partials (a superset of the global per-key
    top-cap), driver reduce re-applies the cap then ranks. Scores are
    exhaustive BM25 rounded half-up to 6 decimals; order (score desc,
    docid asc). Returns (query_id, rank, docid, key, score)."""
    q = query_frame(queries)
    partials = _probe_partials(index_dir, q, where, _probe_div_top,
                               (field, max_docs_per_value), ["docid", field],
                               scored=True)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "rank": pd.Series(dtype=np.int32),
        "docid": pd.Series(dtype=np.int64),
        "key": pd.Series(dtype=object),
        "score": pd.Series(dtype=np.float64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    capped = _top_n(partials, ["query_id", "key"], ["score"], max_docs_per_value)
    out = _top_n(capped, ["query_id"], ["score"], shard_size)
    return out[["query_id", "rank", "docid", "key", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def _probe_sample_top(batch: pa.Table, qids, rows, scores, field: str,
                      shard_size: int) -> pa.Table:
    """`sampler` update: per query the block's top ``shard_size`` pairs by
    (round6 score desc, docid asc) with their sub-agg field values — a
    superset of the global per-query top; queries x shard_size rows leave
    each task."""
    top = _top_n(pd.DataFrame({
        "query_id": qids, "key": _np(batch, field)[rows],
        "docid": _np(batch, "docid")[rows],
        "score": np.floor(scores * 1e6 + 0.5) / 1e6,
    }), ["query_id"], ["score"], shard_size)
    return _table(top, {"query_id": pa.int64(), "key": pa.string(),
                        "docid": pa.int64(), "score": pa.float64()})


def sampler_terms_agg(
    index_dir: str,
    queries,
    field: str = "role",
    shard_size: int = 20,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `sampler` aggregation with a `terms` sub-aggregation: the
    sub-agg sees only each query's top ``shard_size`` matched docs by
    relevance (Lucene BestDocsDeferringCollector), then counts the sample's
    distinct ``field`` values. The plain (non-diversified) sibling of
    ``diversified_sampler_agg`` — same distributed shape: scored match sets
    shard by docid range, each pinned docmeta file runs once through a
    top-``shard_size`` combiner (a superset of the global top), the
    queries x shard_size sample reduces driver-side. Sample membership is
    decided on 6-decimal-rounded scores (the engine's cross-oracle float
    policy). Returns (query_id, key, doc_count) ordered
    (doc_count desc, key asc) per query."""
    partials = _probe_partials(index_dir, queries, where, _probe_sample_top,
                               (field, shard_size), ["docid", field],
                               scored=True)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "key": pd.Series(dtype=object),
        "doc_count": pd.Series(dtype=np.int64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    sample = _top_n(partials, ["query_id"], ["score"], shard_size)
    out = (
        sample.groupby(["query_id", "key"], sort=False)
        .size()
        .reset_index(name="doc_count")
        .sort_values(["query_id", "doc_count", "key"],
                     ascending=[True, False, True])
    )
    return out[["query_id", "key", "doc_count"]].astype(
        {"query_id": np.int64, "doc_count": np.int64}
    ).reset_index(drop=True)


def percentiles_bucket_date_histogram(
    index_dir: str,
    queries,
    pcts=(25.0, 50.0, 75.0),
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `percentiles_bucket` sibling pipeline aggregation over a
    per-day date_histogram parent: linear-interpolated percentiles of the
    per-bucket doc counts. Interpolation is written out explicitly
    (h = (n-1) * p/100; v[floor(h)] + frac * (v[floor(h)+1] - v[floor(h)]))
    so a SQL oracle reproduces each float op in the same order — no reliance
    on np.percentile/quantile_cont internals. Returns
    (query_id, pct, value), value rounded half-up to 6 decimals."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "pct": pd.Series(dtype=np.float64),
                             "value": pd.Series(dtype=np.float64)})
    qids, out_p, out_v = [], [], []
    for qid, g in base.groupby("query_id", sort=True):
        v = np.sort(g["n_docs"].to_numpy(np.int64)).astype(np.float64)
        n = len(v)
        for p in pcts:
            h = (n - 1) * (float(p) / 100.0)
            lo = int(np.floor(h))
            hi = min(lo + 1, n - 1)
            val = v[lo] + (h - lo) * (v[hi] - v[lo])
            qids.append(int(qid))
            out_p.append(float(p))
            out_v.append(float(np.floor(val * 1e6 + 0.5) / 1e6))
    return pd.DataFrame({"query_id": pd.Series(qids, dtype=np.int64),
                         "pct": pd.Series(out_p, dtype=np.float64),
                         "value": pd.Series(out_v, dtype=np.float64)})


def date_histogram_empty_buckets(
    index_dir: str,
    queries,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch date_histogram with ``min_doc_count=0``: per query, EVERY
    day between its first and last matched day appears, gap days with
    n_docs = 0 (the engine's base histogram is min_doc_count=1; OpenSearch
    fills the response range — this is that fill, a driver-side reindex of
    the driver-small bucket stream). Returns (query_id, key, n_docs),
    ordered (query_id, key)."""
    h = date_histogram(index_dir, queries, field=field, where=where)
    if h.empty:
        return h
    out = []
    for qid, g in h.groupby("query_id", sort=True):
        g = g.set_index("key").sort_index()
        full = pd.date_range(g.index.min(), g.index.max(), freq="D")
        r = g["n_docs"].reindex(full, fill_value=0).rename_axis("key").reset_index()
        r.insert(0, "query_id", np.int64(qid))
        out.append(r)
    res = pd.concat(out, ignore_index=True)
    res["key"] = res["key"].astype("datetime64[us]")
    return res.astype({"query_id": np.int64, "n_docs": np.int64})


def variable_width_histogram_agg(
    index_dir: str,
    queries,
    field: str = "doc_len",
    buckets: int = 4,
    where=None,
) -> pd.DataFrame:
    """OpenSearch `variable_width_histogram` with DETERMINISTIC bucketing:
    the sorted distinct values of ``field`` over each query's match set are
    split at the ``buckets - 1`` widest value gaps (ties break toward the
    LOWER boundary value), so unlike OpenSearch's order-dependent streaming
    clustering the result is a pure function of the value histogram and a
    SQL oracle reproduces it. Per bucket: doc count, min, max and the
    OpenSearch centroid key (Σ value·count / count — exact int64 sums, one
    float division). Rides the shared `_value_histograms` probe (driver
    rows = queries × distinct values, corpus-size-independent). Returns
    (query_id, bucket, key, min_v, max_v, n_docs), bucket-ascending, key
    rounded half-up to 6 decimals."""
    hist = _value_histograms(index_dir, queries, field, where)
    cols = {"query_id": pd.Series(dtype=np.int64),
            "bucket": pd.Series(dtype=np.int64),
            "key": pd.Series(dtype=np.float64),
            "min_v": pd.Series(dtype=np.int64),
            "max_v": pd.Series(dtype=np.int64),
            "n_docs": pd.Series(dtype=np.int64)}
    if hist.empty:
        return pd.DataFrame(cols)
    rows = []
    for qid, g in hist.groupby("query_id", sort=True):
        v = g["key"].to_numpy(np.int64)   # sorted ascending by construction
        c = g["n"].to_numpy(np.int64)
        if len(v) <= 1:
            edges = np.empty(0, np.int64)
        else:
            gaps = v[1:] - v[:-1]
            # widest gaps first, ties toward the lower boundary value:
            # lexsort secondary key = position ascending
            order = np.lexsort((np.arange(len(gaps)), -gaps))
            cut = np.sort(order[: max(buckets - 1, 0)])
            edges = cut  # gap i separates v[i] from v[i+1]
        bounds = np.concatenate([[0], edges + 1, [len(v)]])
        for b in range(len(bounds) - 1):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            vv, cc = v[lo:hi], c[lo:hi]
            n = int(cc.sum())
            key = float((vv * cc).sum()) / float(n)
            rows.append((int(qid), b, float(np.floor(key * 1e6 + 0.5) / 1e6),
                         int(vv[0]), int(vv[-1]), n))
    return pd.DataFrame(rows, columns=list(cols)).astype(
        {k: s.dtype for k, s in cols.items()})


def moving_percentiles_date_histogram(
    index_dir: str,
    queries,
    window: int = 7,
    pct: float = 50.0,
    field: str = "ts",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `moving_percentiles` pipeline aggregation over a per-day
    date_histogram parent: for each bucket, the linear-interpolated
    ``pct`` percentile of the TRAILING ``window`` buckets' doc counts
    (window includes the current bucket; shorter at the head — OpenSearch's
    moving-window semantics over the response buckets). Interpolation is
    the explicit percentiles_bucket formula, never a library quantile.
    Returns (query_id, key, n_docs, moving_pct), value rounded half-up to
    6 decimals, ordered (query_id, key)."""
    base = date_histogram(index_dir, queries, field=field, where=where)
    if base.empty:
        out = base.copy()
        out["moving_pct"] = pd.Series(dtype=np.float64)
        return out
    base = base.sort_values(["query_id", "key"]).reset_index(drop=True)
    out_v = np.empty(len(base), dtype=np.float64)
    pos = 0
    for _, g in base.groupby("query_id", sort=False):
        counts = g["n_docs"].to_numpy(np.int64)
        for i in range(len(counts)):
            w = np.sort(counts[max(0, i - window + 1): i + 1]).astype(np.float64)
            n = len(w)
            h = (n - 1) * (float(pct) / 100.0)
            lo = int(np.floor(h))
            hi = min(lo + 1, n - 1)
            val = w[lo] + (h - lo) * (w[hi] - w[lo])
            out_v[pos] = np.floor(val * 1e6 + 0.5) / 1e6
            pos += 1
    base["moving_pct"] = out_v
    return base


def _probe_day_key(batch: pa.Table, qids, rows, scores, field: str,
                   key_field: str) -> pa.Table:
    """`cumulative_cardinality` update: the batch's DISTINCT (query, day,
    key_field) triplets — the same driver-size contract as
    `_probe_distinct` (cardinality_agg): rows bound by the match set's
    distinct (day, key) pairs, not by doc count."""
    days = _np(batch, field).astype("datetime64[D]").astype("datetime64[us]")
    df = pd.DataFrame({"query_id": qids, "key": days[rows],
                       "value": _np(batch, key_field)[rows]}).drop_duplicates()
    return _table(df, {"query_id": pa.int64(), "key": pa.timestamp("us"),
                       "value": pa.string()})


def cumulative_cardinality_agg(
    index_dir: str,
    queries,
    field: str = "ts",
    key_field: str = "conv_id",
    where=None,
) -> pd.DataFrame:
    """OpenSearch `cumulative_cardinality` pipeline aggregation over a
    per-day date_histogram parent with a `cardinality(key_field)` metric:
    per bucket, the number of DISTINCT key values seen in any bucket up to
    and including it (exact, not HLL — the exact twin of this engine's
    cardinality_agg). Only days present in the match set appear
    (min_doc_count=1 parent semantics). Returns
    (query_id, key, cum_cardinality)."""
    partials = _probe_partials(
        index_dir, queries, where, _probe_day_key,
        (field, key_field), ["docid", field, key_field],
    )
    if partials.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "key": pd.Series(dtype="datetime64[us]"),
                             "cum_cardinality": pd.Series(dtype=np.int64)})
    uniq = partials.drop_duplicates(["query_id", "key", "value"])
    firsts = (uniq.groupby(["query_id", "value"], sort=False)["key"]
              .min().reset_index(name="first_day"))
    days = uniq[["query_id", "key"]].drop_duplicates().sort_values(
        ["query_id", "key"])
    new = (firsts.groupby(["query_id", "first_day"], sort=False)
           .size().reset_index(name="n_new")
           .rename(columns={"first_day": "key"}))
    out = days.merge(new, on=["query_id", "key"], how="left")
    out["n_new"] = out["n_new"].fillna(0).astype(np.int64)
    out["cum_cardinality"] = out.groupby("query_id", sort=False)["n_new"].cumsum()
    return out[["query_id", "key", "cum_cardinality"]].astype(
        {"query_id": np.int64, "cum_cardinality": np.int64}
    ).reset_index(drop=True)


def _compile_script(expr: str, fields: tuple):
    """Compile the scripted_metric map script — a restricted painless
    analog: integer arithmetic (+ - *) over whitelisted docmeta fields and
    int literals. Validated via the Python AST (no names outside ``fields``,
    no calls/attributes/divisions — int64-exact, SQL-transcribable
    verbatim). Returns fn(cols: {field: int64 ndarray}) -> int64 ndarray."""
    import ast
    import operator as op

    ops = {ast.Add: op.add, ast.Sub: op.sub, ast.Mult: op.mul}
    tree = ast.parse(expr, mode="eval")

    def ev(node, cols):
        if isinstance(node, ast.Expression):
            return ev(node.body, cols)
        if isinstance(node, ast.BinOp) and type(node.op) in ops:
            return ops[type(node.op)](ev(node.left, cols), ev(node.right, cols))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand, cols)
        if isinstance(node, ast.Name) and node.id in fields:
            return cols[node.id]
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return np.int64(node.value)
        raise ValueError(f"scripted_metric: unsupported expression node "
                         f"{ast.dump(node)} in {expr!r}")

    ev(tree, {f: np.int64(0) for f in fields})  # validate eagerly
    return lambda cols: ev(tree, cols)


def _probe_scripted(batch: pa.Table, qids, rows, scores, script: str,
                    fields: tuple) -> pa.Table:
    """`scripted_metric` update: map_script evaluated vectorized over the
    pairs, combine_script = int64 sum — one row per query leaves each
    task; reduce_script (the driver) sums the partials."""
    fn = _compile_script(script, fields)
    v = fn({f: _np(batch, f).astype(np.int64)[rows] for f in fields})
    g = _grouped({"query_id": qids}, {"v": ("v", "sum"), "n": ("v", "size")},
                 {"v": np.broadcast_to(np.asarray(v, dtype=np.int64), len(rows))})
    return _table(g, dict.fromkeys(["query_id", "v", "n"], pa.int64()))


def scripted_metric_agg(
    index_dir: str,
    queries,
    script: str = "doc_len * 2 + turn_idx",
    fields: tuple = ("doc_len", "turn_idx"),
    where=None,
) -> pd.DataFrame:
    """OpenSearch `scripted_metric` aggregation (map -> combine -> reduce)
    with a restricted painless-analog map script: integer arithmetic over
    whitelisted docmeta fields, combine = per-task int64 sum, reduce =
    driver sum. The script string is SQL-transcribable verbatim, so the
    oracle runs the IDENTICAL expression. Returns
    (query_id, n_docs, value), query_id-ascending; no-match queries are
    omitted (their reduce state is empty)."""
    _compile_script(script, tuple(fields))  # a bad script fails here, not in a task
    partials = _probe_partials(
        index_dir, queries, where, _probe_scripted,
        (script, tuple(fields)), ["docid", *fields],
    )
    if partials.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "n_docs": pd.Series(dtype=np.int64),
                             "value": pd.Series(dtype=np.int64)})
    g = (partials.groupby("query_id", sort=True)
         .agg(n_docs=("n", "sum"), value=("v", "sum")).reset_index())
    return g.astype({"query_id": np.int64, "n_docs": np.int64,
                     "value": np.int64}).reset_index(drop=True)
