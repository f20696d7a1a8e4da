"""Query pipeline: top-k BM25 over a built index + result hydration.

Analog of the reference's search path (``benchmarking/search/search_indices.py:13-55``):
load the index once, answer many queries. Every query input — a pandas
frame, an Arrow Table, a parquet path or a Ray Dataset — is normalized to
one driver-small frame (``query_frame``) and runs on the index's warm
searcher pool owned by ``query_service.default_service()``: one pool per
live index state, shared by every call in the process. Nothing shuffles:
the index is term-sharded on disk and each searcher reads only the files
its terms touch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from remote_vector_index_builder_ray.stages.merge import isin_sorted, to_frame
from remote_vector_index_builder_ray.stages.search import K_MAX, capped_k, validate


def query_frame(queries) -> pd.DataFrame:
    """A query input as a pandas frame the caller owns: a DataFrame is
    copied, an Arrow Table or a Ray Dataset is materialized (query sets are
    driver-small by contract; a zero-row Dataset keeps its columns), anything
    else is read as a parquet path."""
    if isinstance(queries, pd.DataFrame):
        return queries.copy()
    if isinstance(queries, pa.Table):
        return queries.to_pandas()
    if isinstance(queries, ray.data.Dataset):
        return to_frame(queries)
    return pd.read_parquet(queries)


def _oversampled(q: pd.DataFrame) -> pd.DataFrame:
    """``q`` with every k doubled, capped at ``K_MAX`` (the engine-wide
    oversample-then-round policy: a 6-rounded re-rank of 2k hits cannot
    lose a page-boundary doc)."""
    return q.assign(k=(q["k"].astype(np.int64) * 2).clip(upper=K_MAX)
                    .astype(np.int32))


def _bind_error(schema: pa.Schema, expr):
    """The Arrow error of binding ``expr`` to ``schema``, or None."""
    import pyarrow.dataset as pads

    try:
        pads.dataset(schema.empty_table()).to_table(filter=expr)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError) as e:
        return e
    return None


def where_expression(index_dir: str, where):
    """``where`` — parquet-DNF (``[("role", "=", "user")]``-style tuples)
    or a ``pyarrow.dataset`` Expression — as (Expression, the docmeta
    columns it reads), bound to the docmeta schema on the driver: a missing
    column or a mistyped value is a ``ValueError`` naming the predicate."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.incremental import docmeta_schema

    expr = pq.filters_to_expression(where) if isinstance(where, list) else where
    schema = docmeta_schema(index_dir)
    err = _bind_error(schema, expr)
    if err is not None:
        cols = ", ".join(f"{f.name}: {f.type}" for f in schema)
        raise ValueError(f"where {expr} does not apply to docmeta ({cols}): "
                         f"{str(err).splitlines()[0]}")
    # the columns it reads: those without which it no longer binds
    return expr, [f.name for i, f in enumerate(schema)
                  if _bind_error(schema.remove(i), expr) is not None]


def _filter_docids(batch: pa.Table, expr) -> pa.Table:
    return batch.filter(expr).select(["docid"])


def _script_docids(batch: pa.Table, field: str, fn) -> pa.Table:
    vals = batch[field].to_numpy().astype(np.int64)
    return batch.filter(pa.array(fn(vals) != 0)).select(["docid"])


def _allow_list(index_dir: str, columns: list[str], keep, *args):
    """The sorted docids of the pinned docmeta rows ``keep(table, *args)``
    keeps, ``ray.put`` once for every searcher actor to fetch."""
    from remote_vector_index_builder_ray.query_service import default_service

    refs = default_service().map_docmeta(index_dir, ["docid", *columns],
                                         keep, *args)
    return ray.put(np.sort(pa.concat_tables(ray.get(refs))["docid"].to_numpy()))


def resolve_filter_docids(index_dir: str, where):
    """Resolve a docmeta predicate (``where_expression``) to a
    broadcast-ready sorted docid set. The predicate runs on the docmeta
    columns it reads, pinned by the index's ``QueryService`` owner: one
    task per docmeta file, and only matching docids leave a task.

    Scale note (100 TB): the allow-list is 8 bytes/matching doc, so this path
    is for SELECTIVE filters (the common case — tenant, time range, role).
    For an unselective predicate the engine-level answer is to flip polarity
    (resolve the complement as a deny-list) or to align per-bucket bitsets
    with the posting shards — the searcher's ``isin_sorted`` filter is
    representation-agnostic either way.
    """
    expr, columns = where_expression(index_dir, where)
    return _allow_list(index_dir, columns, _filter_docids, expr)


def search(
    index_dir: str,
    queries,
    mode: str = "bmw",
    where=None,
    operator: str = "or",
    min_should_match: int | None = None,
    tie_breaker: float = 0.0,
    collapse_round6: bool = False,
    collapse_inner: int = 0,
    negative_boost: float = 0.5,
    unit_idf: bool = False,
    allow_docids=None,
    span_pre: int = 1,
    span_post: int = 1,
    msm_script: str | None = None,
    similarity: str = "bm25",
    pit_gens: int | None = None,
    stats_override: tuple | None = None,
    df_override: dict | None = None,
) -> ray.data.Dataset:
    """Run top-k BM25. ``queries``: Dataset/DataFrame/Table/parquet path with
    columns (query_id:int64, text:string, k:int32). Returns a Dataset of
    (query_id, rank, docid, score) — rank-identical to the exhaustive oracle.

    Which optional per-query columns and keyword options each ``mode``
    accepts is the mode capability table ``stages.search.MODES``; anything
    else fails here with a ValueError, as does an unknown mode.

    ``where`` (optional) restricts results to docs matching a docmeta
    predicate (parquet-DNF tuples or a pyarrow Expression) with OpenSearch
    filter-context semantics: non-matching docs are dropped from the
    candidate set but corpus stats (N, avgdl, df) are unchanged, so matching
    docs score exactly as in an unfiltered search.

    ``operator="and"`` (OpenSearch match operator:and) requires every query
    term in a matching doc; qualifying docs' scores are unchanged.

    ``mode="collapse"`` (OpenSearch collapse on the conversation): the top-k
    CONVERSATIONS by their best-scoring turn, one hit per conversation
    (docid -> conversation via the dense conv_offsets artifact).
    ``collapse_round6`` orders by 6-decimal-rounded scores (the driver's
    cross-engine float policy).

    ``mode="dismax"`` (Lucene DisjunctionMaxQuery): a doc scores
    max(term contributions) + ``tie_breaker`` * (sum - max) — the best
    single term dominates instead of contributions adding up.

    bool.must_not: an optional per-query ``exclude_text`` column is analyzed
    with the index tokenizer and docs containing ANY excluded term drop from
    the candidate set; surviving docs score unchanged (exclusion is
    non-scoring in Lucene).

    bool.filter on the INDEXED field: an optional per-query ``filter_text``
    column is analyzed and only docs containing at least one of its terms
    stay candidates — OpenSearch filter-context semantics (non-matching
    docs drop, scores unchanged; a filter whose terms are all absent
    matches nothing).

    Pagination (Lucene searchAfter): optional per-query columns
    ``after_score``/``after_docid`` restrict results to docs STRICTLY after
    that (score, docid) cursor in the engine's (score desc, docid asc) total
    order — deep pages never re-ship earlier pages' hits. Null cursor = first
    page.

    ``min_should_match=n`` (OpenSearch match minimum_should_match) requires at
    least ``n`` of the query's distinct terms in a matching doc — the
    generalization between OR (n=1) and AND (n=n_terms). ``n`` above the
    query's term count matches nothing (Lucene BooleanQuery semantics; an
    absent term still counts as a clause).

    Execution: ``queries`` is normalized by ``query_frame`` and runs on
    the process-default warm searcher pool of the index
    (``query_service.default_service``), whatever its input type; the call
    returns once every batch has finished, and the returned Dataset wraps
    the result blocks in the object store (docids never visit the driver).
    """
    options = {
        "operator": operator,
        "min_should_match": min_should_match,
        "tie_breaker": tie_breaker,
        "collapse_round6": collapse_round6,
        "collapse_inner": collapse_inner,
        "negative_boost": negative_boost,
        "unit_idf": unit_idf,
        "span_pre": span_pre,
        "span_post": span_post,
        "msm_script": msm_script,
        "similarity": similarity,
        "pit_gens": pit_gens,
        "stats_override": stats_override,
        "df_override": df_override,
    }
    q = query_frame(queries)
    # validate on the driver: an actor-side raise is an opaque RayTaskError
    validate(mode, q.columns,
             {**options, "where": where, "allow_docids": allow_docids})
    # allow_docids: an EXPLICIT docid allow-list with the same filter-context
    # semantics as `where` (candidates restricted, scores unchanged) — used
    # by rescore_phrase to bound its phrase leg to the rescore windows
    if allow_docids is not None:
        allow_ref = ray.put(np.sort(np.asarray(allow_docids, dtype=np.int64)))
    else:
        allow_ref = None if where is None else resolve_filter_docids(index_dir, where)
    return _on_warm_pool(index_dir, q, mode, options, allow_ref)


def _on_warm_pool(index_dir: str, queries: pd.DataFrame, mode: str,
                  options: dict, allow_ref=None) -> ray.data.Dataset:
    """Run a query frame on the index's warm searcher pool; the result
    blocks stay in the object store behind the returned Dataset."""
    from remote_vector_index_builder_ray.query_service import default_service

    return ray.data.from_arrow_refs(
        default_service().run(index_dir, queries, mode, options, allow_ref))


def _probe_top_field(batch: pa.Table, qids, rows, scores, field: str,
                     ascending: bool, k: dict, after: dict) -> pa.Table:
    """Field-sorted search update: each block's top-k pairs per query in
    page order — (field, docid asc), nulls last, the reduce's own order —
    so only queries x k rows leave each task and the partials reduce
    associatively driver-side. ``after`` holds the strictly-after cursors,
    {query_id: (field value, docid)}: a query with one keeps only the pairs
    past its cursor in page order."""
    from remote_vector_index_builder_ray.pipelines.aggs import _np, _top_n

    v = _np(batch, field)[rows]
    d = _np(batch, "docid")[rows]
    if after:
        # sorted search_after — deep pages never re-ship earlier hits
        cq = np.array(sorted(after), dtype=np.int64)
        at = np.minimum(np.searchsorted(cq, qids), len(cq) - 1)
        av = np.array([after[q][0] for q in cq], dtype=v.dtype if v.dtype.kind in "MmO"
                      else None)[at]
        ad = np.array([after[q][1] for q in cq], dtype=np.int64)[at]
        # nulls sort last: compare values only where both sides have one
        vnull, anull = pd.isna(v), pd.isna(av)
        both = ~vnull & ~anull
        past, tie = np.zeros(len(v), bool), vnull & anull
        past[both] = (v[both] > av[both]) if ascending else (v[both] < av[both])
        tie[both] = v[both] == av[both]
        keep = (cq[at] != qids) | past | (vnull & ~anull) | (tie & (d > ad))
        qids, rows, d, v = qids[keep], rows[keep], d[keep], v[keep]
    top = _top_n(pd.DataFrame({"query_id": qids, "docid": d, "row": rows, "v": v}),
                 ["query_id"], ["v"], k, ascending)
    return pa.table({
        "query_id": pa.array(top["query_id"].to_numpy(np.int64)),
        "docid": pa.array(top["docid"].to_numpy(np.int64)),
        field: batch[field].take(pa.array(top["row"].to_numpy(np.int64))),
    })


def search_sorted(
    index_dir: str,
    queries,
    sort_field: str = "ts",
    ascending: bool = False,
    where=None,
    after: tuple | None = None,
) -> pd.DataFrame:
    """Field-sorted search (OpenSearch ``sort: [{field: order}]``): the
    top-k docs of each query's FULL match set ordered by a docmeta field
    (tie-break docid ascending), not by relevance. Matching uses the
    constant-score scorer (docid streams only); the field lookup runs each
    pinned docmeta file once through a top-k combiner (the agg probe
    pattern — only queries x k rows leave each task). ``after`` is a
    strictly-after cursor: one (field value, docid) tuple for every query,
    or {query_id: (value, docid)} per-query cursors. Returns
    (query_id, rank, docid, <sort_field>)."""
    from remote_vector_index_builder_ray.pipelines.aggs import _probe_partials, _top_n

    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)}
    if after is not None and not isinstance(after, dict):
        after = dict.fromkeys(k_by_query, after)
    cursors = {int(qid): c for qid, c in (after or {}).items() if c is not None}
    partials = _probe_partials(index_dir, q, where, _probe_top_field,
                               (sort_field, ascending, k_by_query, cursors),
                               ["docid", sort_field])
    if partials.empty:
        return pd.DataFrame(
            {"query_id": pd.Series(dtype=np.int64),
             "rank": pd.Series(dtype=np.int32),
             "docid": pd.Series(dtype=np.int64),
             sort_field: pd.Series(dtype=object)}
        )
    out = _top_n(partials, ["query_id"], [sort_field], k_by_query, ascending)
    return out[["query_id", "rank", "docid", sort_field]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64}
    ).reset_index(drop=True)


def _probe_top_multi(batch: pa.Table, qids, rows, scores, sort: list,
                     k: dict) -> pa.Table:
    """Multi-key field-sorted search update: each block's top-k pairs per
    query in page order — the lexicographic (key1, key2, ..., docid asc)
    order, nulls last, the reduce's own order."""
    from remote_vector_index_builder_ray.pipelines.aggs import _np, _top_n

    keys = {f"key{i}": _np(batch, f)[rows] for i, (f, _) in enumerate(sort)}
    top = _top_n(pd.DataFrame({"query_id": qids, "docid": _np(batch, "docid")[rows],
                               "row": rows, **keys}),
                 ["query_id"], list(keys), k, [a for _, a in sort])
    take = pa.array(top["row"].to_numpy(np.int64))
    return pa.table({
        "query_id": pa.array(top["query_id"].to_numpy(np.int64)),
        "docid": pa.array(top["docid"].to_numpy(np.int64)),
        **{f: batch[f].take(take) for f, _ in sort},
    })


def search_sorted_multi(
    index_dir: str,
    queries,
    sort: list[tuple[str, bool]] = (("role", True), ("ts", False)),
    where=None,
) -> pd.DataFrame:
    """Multi-key field-sorted search (OpenSearch ``sort: [{f1: o1},
    {f2: o2}]``): top-k of each query's full match set under the
    lexicographic (f1, f2, ..., docid asc) order — the same probe shape as
    the single-key ``search_sorted``, with a multi-key combiner. Any key
    may be descending, strings included; nulls sort last either way.
    Returns (query_id, rank, docid, f1, f2, ...)."""
    from remote_vector_index_builder_ray.pipelines.aggs import _probe_partials, _top_n

    sort = [(f, bool(a)) for f, a in sort]
    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)}
    fields = [f for f, _ in sort]
    partials = _probe_partials(index_dir, q, where, _probe_top_multi,
                               (sort, k_by_query), ["docid"] + fields)
    if partials.empty:
        cols = {"query_id": pd.Series(dtype=np.int64),
                "rank": pd.Series(dtype=np.int32),
                "docid": pd.Series(dtype=np.int64)}
        for f in fields:
            cols[f] = pd.Series(dtype=object)
        return pd.DataFrame(cols)
    out = _top_n(partials, ["query_id"], fields, k_by_query, [a for _, a in sort])
    return out[["query_id", "rank", "docid"] + fields].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64}
    ).reset_index(drop=True)


def explain(
    index_dir: str,
    queries,
    pairs: pd.DataFrame,
) -> pd.DataFrame:
    """Per-term score breakdown (the Lucene explain API analog): for each
    (query_id, docid) row of ``pairs``, one row per matching query term with
    (tf, df, contrib); contributions sum — in the engine's term-ascending
    accumulation order — exactly to the search score. ``queries`` supplies
    (query_id, text). Runs on the index's warm searcher pool (postings loads
    are shared with the term cache); output is pairs x terms rows,
    driver-small by construction."""
    sel = (
        pairs.groupby("query_id")["docid"]
        .apply(lambda s: sorted({int(d) for d in s}))
        .to_dict()
    )
    q = query_frame(queries)[["query_id", "text"]]
    q = q.assign(explain_docids=[sel.get(int(i), []) for i in q["query_id"]])
    q = q[[len(x) > 0 for x in q["explain_docids"]]]
    validate("explain", q.columns)
    out = _on_warm_pool(index_dir, q.reset_index(drop=True), "explain",
                        {}).to_pandas()
    return out.sort_values(["query_id", "docid", "term"]).reset_index(drop=True)


def highlight(
    index_dir: str,
    results,
    queries,
    window: int = 8,
    number_of_fragments: int = 1,
) -> pd.DataFrame:
    """Snippets for a result set (the Lucene highlighter analog,
    deterministic). Snippets are built from the analyzer's token stream
    (lowercased), so the DuckDB twin reproduces them byte-identically.

    ``number_of_fragments=1`` (default): for each hit, the ``window``-token
    span of the doc with the most query-term occurrences; ties break to the
    EARLIEST window; docs shorter than the window snippet whole. Returns the
    result rows with a ``snippet`` column.

    ``number_of_fragments=F > 1`` (the OpenSearch ``number_of_fragments`` /
    ``fragment_size`` analog): the token stream splits into consecutive
    non-overlapping ``window``-token tiles; the top F tiles by
    (query-term count desc, position asc) — tiles without a hit never
    qualify — return in POSITION order (OpenSearch's default fragment
    order), one row per fragment with a ``fragment_idx`` column. Docs
    shorter than one window return the whole doc as fragment 0.

    Text is fetched with ``hydrate(columns=["text"])`` and the per-doc work
    is a vectorized cumsum / tile reduce.
    """
    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text,
        load_analyzer,
    )

    an = load_analyzer(index_dir)  # snippets stream = the index's analyzer
    res = results.to_pandas() if not isinstance(results, pd.DataFrame) else results.copy()
    meta = hydrate(index_dir, res[["query_id", "docid"]], columns=["text"])
    terms_by_query = {
        int(q.query_id): frozenset(analyze_text(q.text or "", an))
        for q in query_frame(queries).itertuples(index=False)
    }

    def _snippet(qid: int, text: str) -> str:
        toks = analyze_text(text or "", an)
        if not toks:
            return ""
        qt = terms_by_query.get(int(qid), frozenset())
        n, w = len(toks), window
        if n <= w:
            return " ".join(toks)
        hits = np.fromiter((t in qt for t in toks), dtype=np.int64, count=n)
        c = np.concatenate([[0], np.cumsum(hits)])
        counts = c[w:] - c[:-w]          # count per window start 0..n-w
        s = int(np.argmax(counts))       # first max = earliest window
        return " ".join(toks[s:s + w])

    if number_of_fragments <= 1:
        meta["snippet"] = [
            _snippet(q, t) for q, t in zip(meta["query_id"], meta["text"])
        ]
        out = res.merge(meta[["query_id", "docid", "snippet"]], on=["query_id", "docid"])
        return out

    def _fragments(qid: int, text: str) -> list[str]:
        toks = analyze_text(text or "", an)
        if not toks:
            return []
        qt = terms_by_query.get(int(qid), frozenset())
        n, w = len(toks), window
        if n <= w:
            return [" ".join(toks)]
        tiles = [toks[i:i + w] for i in range(0, n, w)]
        scored = [
            (sum(t in qt for t in tile), ti)
            for ti, tile in enumerate(tiles)
        ]
        chosen = sorted(
            ((c, ti) for c, ti in scored if c > 0),
            key=lambda x: (-x[0], x[1]),
        )[:number_of_fragments]
        return [" ".join(tiles[ti]) for ti in sorted(ti for _, ti in chosen)]

    rows = []
    for q, d, t in zip(meta["query_id"], meta["docid"], meta["text"]):
        for fi, frag in enumerate(_fragments(q, t)):
            rows.append((int(q), int(d), fi, frag))
    frags = pd.DataFrame(
        rows, columns=["query_id", "docid", "fragment_idx", "snippet"]
    ).astype({"query_id": np.int64, "docid": np.int64, "fragment_idx": np.int32})
    out = res.merge(frags, on=["query_id", "docid"])
    return out


def _isin(batch: pa.Table, key: str, keys: np.ndarray) -> pa.Table:
    return batch.filter(pa.array(isin_sorted(
        batch[key].to_numpy(zero_copy_only=False), keys)))


def docmeta_lookup(index_dir: str, key: str, keys: np.ndarray,
                   columns: list[str]) -> pd.DataFrame:
    """The docmeta rows whose ``key`` is in the SORTED ``keys``, with ``key``
    and ``columns``: ``keys`` is ``ray.put`` once, then one ``isin_sorted``
    task per pinned docmeta file (``QueryService.map_docmeta``)."""
    from remote_vector_index_builder_ray.query_service import default_service

    refs = default_service().map_docmeta(index_dir, [key, *columns], _isin,
                                         key, ray.put(keys))
    return pa.concat_tables(ray.get(refs)).to_pandas()


def hydrate(index_dir: str, results, columns: list[str] | None = None) -> pd.DataFrame:
    """Attach stored fields to a (small) result set, any ``query_frame``
    input carrying ``docid``: its unique docids semi-join the pinned docmeta
    (``docmeta_lookup``). ``columns`` names the fields; the default, every
    docmeta column, keeps ``text`` pinned for the life of the index state
    too (it spills to disk like any object). Returns a pandas DataFrame in
    ``results`` order (queries x k rows — driver-small by construction); a
    zero-row ``results`` returns its own columns plus the fields."""
    from remote_vector_index_builder_ray.pipelines.incremental import docmeta_schema

    res = query_frame(results)
    if columns is None:
        columns = docmeta_schema(index_dir).names
    meta = docmeta_lookup(index_dir, "docid",
                          np.unique(res["docid"].to_numpy(np.int64)), columns)
    return res.merge(meta, on="docid", how="left")


def _round6_page(res: pd.DataFrame, k_by_query: dict) -> pd.DataFrame:
    """The engine-wide cross-engine float policy in ONE place (used by
    search_min_score and search_with_pipeline's round6): 6dp half-up
    rounding, (score desc, docid asc) re-rank, cut to each query's ORIGINAL
    k — callers searched with a 2k oversample so the rounded page boundary
    cannot lose a doc."""
    res = res.copy()
    res["score"] = np.floor(res["score"].to_numpy() * 1e6 + 0.5) / 1e6
    res = res.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    res["rank"] = (res.groupby("query_id").cumcount() + 1).astype(np.int32)
    return (res[res["rank"] <= res["query_id"].map(k_by_query)]
            .reset_index(drop=True))


def search_min_score(
    index_dir: str,
    queries,
    min_score: float,
    mode: str = "bmw",
    **search_kw,
) -> pd.DataFrame:
    """OpenSearch request-level ``min_score``: hits scoring below the
    threshold drop from the response. Exact as a post-filter on the top-k
    page: scores descend within a page, so every doc below the threshold
    sits at the page's tail — dropping it cannot admit a doc outside the
    page. Compared on 6dp-rounded scores (the engine's cross-engine float
    policy). Returns (query_id, rank, docid, score) re-ranked over the
    surviving hits. Fetches 2k per query so the rounded re-rank can't lose a
    page-boundary doc (the engine-wide oversample-then-round policy)."""
    q = query_frame(queries)
    k_by_query = dict(zip(q["query_id"], q["k"]))
    res = search(index_dir, _oversampled(q), mode=mode, **search_kw).to_pandas()
    cols = {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
            "score": np.float64}
    if res.empty or "docid" not in res.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    res = _round6_page(res, k_by_query)
    res = res[res["score"] >= float(min_score)].reset_index(drop=True)
    res["rank"] = (res.groupby("query_id").cumcount() + 1).astype(np.int32)
    return res[list(cols)].astype(cols)


def search_with_pipeline(
    index_dir: str,
    queries,
    processors: list[dict],
    mode: str = "bmw",
    round6: bool = False,
    **search_kw,
) -> pd.DataFrame:
    """OpenSearch search pipelines (`PUT /_search_pipeline` + `?search_pipeline=`,
    public docs): an ORDERED processor chain around one search. Supported
    processors, each a single-key dict:

      request:  {"filter_query": {"where": [...]}}   — AND-merges a
                filter-context predicate into the search (parquet-DNF
                tuples, same contract as ``search(where=...)``)
      response: {"collapse": {"field": f}}           — keep the highest-
                ranked hit per (query, field value) on the FETCHED page
                (OpenSearch's collapse response processor operates on the
                returned hits, it does not refill to k), field values via
                one ``hydrate``
                {"truncate_hits": {"target_size": n}} — keep the first n
                hits per query
                {"rename_field": {"field": a, "target_field": b}} — rename
                a result column

    Response processors apply in list order to the k-bounded hit page
    (queries x k rows — driver-small by construction); ``rank`` is
    renumbered 1..n per query after each hit-dropping processor so the
    output stays a dense page. ``round6=True`` applies the engine-wide
    cross-engine float policy BEFORE the response processors (2k
    oversample, 6dp-rounded (score desc, docid asc) re-rank, cut to k —
    the ``search_min_score`` pattern) so which hit survives a collapse is
    stable across engines. Returns a pandas DataFrame."""
    from remote_vector_index_builder_ray.config import EngineError

    _REQUEST = {"filter_query"}
    _RESPONSE = {"collapse", "truncate_hits", "rename_field"}
    chain: list[tuple[str, dict]] = []
    for p in processors:
        if not isinstance(p, dict) or len(p) != 1:
            raise EngineError(
                f"processor must be a single-key dict, got {p!r}")
        (name, conf), = p.items()
        if name not in _REQUEST | _RESPONSE:
            raise EngineError(
                f"unknown processor {name!r}; supported: "
                f"{sorted(_REQUEST | _RESPONSE)}")
        chain.append((name, conf or {}))

    # -- request phase: rewrite the search ------------------------------------
    where = list(search_kw.pop("where", None) or [])
    for name, conf in chain:
        if name == "filter_query":
            clauses = conf.get("where")
            if not clauses:
                raise EngineError("filter_query requires a 'where' clause")
            where.extend(tuple(c) for c in clauses)  # DNF tuple list = AND

    q = query_frame(queries)
    if round6:
        k_by_query = dict(zip(q["query_id"], q["k"]))
        q = _oversampled(q)
    res = search(index_dir, q, mode=mode,
                 where=where or None, **search_kw).to_pandas()
    cols = {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
            "score": np.float64}
    if res.empty or "docid" not in res.columns:
        res = pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    if round6 and len(res):
        res = _round6_page(res, k_by_query)
    res = (res.sort_values(["query_id", "rank"]).reset_index(drop=True)
           .astype(cols))

    def _renumber(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        df["rank"] = (df.groupby("query_id").cumcount() + 1).astype(np.int32)
        return df

    # -- response phase: transform the page, in order -------------------------
    for name, conf in chain:
        if name == "collapse":
            field = conf.get("field")
            if not field:
                raise EngineError("collapse requires a 'field'")
            if len(res):
                meta = hydrate(index_dir, res[["docid"]].drop_duplicates(),
                               columns=[field])
                res = res.merge(meta, on="docid", how="left")
                # a hit with NO field value is KEPT, not deduped: pandas
                # drop_duplicates treats NaN==NaN, which would collapse all
                # missing-field hits into one pseudo-group and silently drop
                # the rest (OpenSearch keeps hits missing the collapse field)
                null = res[field].isna()
                dup = res.sort_values(["query_id", "rank"]).loc[~null]
                dup = dup.drop_duplicates(["query_id", field])
                res = (pd.concat([dup, res.loc[null]])
                       .sort_values(["query_id", "rank"])
                       .drop(columns=[field]))
                res = _renumber(res)
        elif name == "truncate_hits":
            n = int(conf.get("target_size", 10))
            res = _renumber(res[res["rank"] <= n]) if len(res) else res
        elif name == "rename_field":
            src, dst = conf.get("field"), conf.get("target_field")
            if not src or not dst:
                raise EngineError(
                    "rename_field requires 'field' and 'target_field'")
            if src not in res.columns:
                raise EngineError(f"rename_field: no column {src!r}")
            res = res.rename(columns={src: dst})
    return res.reset_index(drop=True)


def multi_index_search(
    index_dirs: list[str],
    queries,
    k: int = 10,
    boosts: list[float] | None = None,
    labels: list[str] | None = None,
    mode: str = "bmw",
    dfs: bool = False,
    **search_kw,
) -> pd.DataFrame:
    """Federated search across several indexes (OpenSearch
    ``GET idx_a,idx_b/_search`` + ``indices_boost``): each index scores its
    own hits with ITS OWN corpus stats (query_then_fetch semantics — exactly
    what cross-index scoring does), per-index scores multiply by that
    index's boost, and the per-index top-k pages merge to a global top-k by
    (6dp-rounded boosted score desc, index label asc, docid asc).

    ``dfs=True`` is OpenSearch ``search_type=dfs_query_then_fetch``: a
    pre-query stats round blends (N, total_len) and the QUERY TERMS' df
    across all legs, and every leg scores with the blended stats — scores
    become globally comparable, as if the legs were one index. The df round
    costs one cached-dictionary lookup per leg (query terms only, driver
    side); legs then run exhaustive (local block maxes don't bound the
    blended idf/avgdl).

    Each leg is the normal k-bounded distributed search; the merge is a
    queries x k x n_indexes driver reduce. Returns
    (query_id, rank, index, docid, score)."""
    if boosts is None:
        boosts = [1.0] * len(index_dirs)
    if labels is None:
        labels = [f"idx{i}" for i in range(len(index_dirs))]
    if not (len(index_dirs) == len(boosts) == len(labels)):
        raise ValueError("index_dirs / boosts / labels length mismatch")
    q = query_frame(queries)
    overrides: dict = {}
    if dfs:
        from remote_vector_index_builder_ray.functions.tokenizer import (
            analyze_text,
            load_analyzer,
        )
        from remote_vector_index_builder_ray.pipelines.expand import _get_dict
        from remote_vector_index_builder_ray.state import fs as _fs
        from remote_vector_index_builder_ray.state.manifest import load_base_stats

        mode = "exhaustive"
        n_g, tl_g = 0, 0
        qterms: set[str] = set()
        for d in index_dirs:
            st = load_base_stats(d)
            man = _fs.read_json(_fs.join(d, "manifest.json"))
            n_i, tl_i = int(st["N"]), int(st["total_len"])
            for g in man.get("generations", []):
                if not g.get("compacted"):
                    n_i += int(g["n_docs"])
                    tl_i += int(g["total_len"])
            n_g += n_i
            tl_g += tl_i
            an = load_analyzer(d)
            for t in q["text"]:
                qterms.update(analyze_text(str(t or ""), an))
        df_g = {t: 0 for t in qterms}
        for d in index_dirs:
            td = _get_dict(d)
            if not len(td.terms):
                continue
            terms = np.array(sorted(qterms), dtype=np.str_)
            pos = np.searchsorted(td.terms, terms)
            pos = np.clip(pos, 0, len(td.terms) - 1)
            hit = td.terms[pos] == terms
            for t, p, h in zip(terms, pos, hit):
                if h:
                    df_g[str(t)] += int(td.df[p])
        overrides = {"stats_override": (n_g, tl_g),
                     "df_override": {t: v for t, v in df_g.items() if v > 0}}
    # oversample 2k per leg so the rounded merge can't lose a boundary doc
    q2 = q.assign(k=capped_k(2 * k))
    legs = []
    for d, b, lab in zip(index_dirs, boosts, labels):
        r = search(d, q2, mode=mode, **search_kw, **overrides).to_pandas()
        if r.empty or "docid" not in r.columns:
            continue
        r["score"] = np.floor(r["score"] * float(b) * 1e6 + 0.5) / 1e6
        r["index"] = lab
        legs.append(r[["query_id", "docid", "score", "index"]])
    cols = {"query_id": np.int64, "rank": np.int32, "index": object,
            "docid": np.int64, "score": np.float64}
    if not legs:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    out = pd.concat(legs, ignore_index=True)
    out = out.sort_values(["query_id", "score", "index", "docid"],
                          ascending=[True, False, True, True])
    out["rank"] = out.groupby("query_id").cumcount() + 1
    out = out[out["rank"] <= k].reset_index(drop=True)
    return out[["query_id", "rank", "index", "docid", "score"]].astype(cols)


def search_script_fields(
    index_dir: str,
    queries,
    script: str,
    fields: tuple = ("turn_idx", "doc_len"),
    name: str = "script_val",
    mode: str = "bmw",
    **search_kw,
) -> pd.DataFrame:
    """OpenSearch ``script_fields``: each hit carries a computed response
    field evaluated from docmeta doc-values by the sandboxed painless-analog
    int-script compiler (pipelines/aggs._compile_script — int +,-,* over
    whitelisted fields, AST-validated, SQL-transcribable verbatim). Hits are
    queries x k and doc-values arrive via ``hydrate`` —
    the computation never rescans the corpus. Returns
    (query_id, rank, docid, score, <name>)."""
    from remote_vector_index_builder_ray.pipelines.aggs import _compile_script

    fn = _compile_script(script, fields)  # validates eagerly on the driver
    res = search(index_dir, queries, mode=mode, **search_kw).to_pandas()
    cols = {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
            "score": np.float64, name: np.int64}
    if res.empty or "docid" not in res.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    hyd = hydrate(index_dir, res.reset_index(drop=True), columns=list(fields))
    vals = fn({f: hyd[f].to_numpy(np.int64) for f in fields})
    hyd[name] = np.asarray(vals, dtype=np.int64)
    hyd = hyd.sort_values(["query_id", "rank"]).reset_index(drop=True)
    return hyd[list(cols)].astype(cols)


def search_named(
    index_dir: str,
    queries,
    named: dict[str, str],
    mode: str = "bmw",
    **search_kw,
) -> pd.DataFrame:
    """Named queries (OpenSearch ``_name`` / ``matched_queries``): the normal
    top-k on the ``text`` column, each hit annotated with which named clauses
    it also matches. ``named`` maps clause name -> queries column holding
    that clause's text (a clause matches a doc containing >= 1 of its
    analyzed terms, the bool-should shape).

    Membership is resolved by ONE constant-score pass per clause restricted
    to the hit set (``allow_docids`` — queries x k docids, broadcast once):
    no rescoring, no extra postings decode beyond the clause terms. Returns
    (query_id, rank, docid, score, matched_queries) with matched_queries a
    comma-joined sorted name list ('' = main query only)."""
    import numpy as _np

    q = query_frame(queries)
    res = search(index_dir, q, mode=mode, **search_kw).to_pandas()
    cols = {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
            "score": np.float64, "matched_queries": object}
    if res.empty or "docid" not in res.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    allow = _np.unique(res["docid"].to_numpy(_np.int64))
    matched: dict[tuple[int, int], list[str]] = {}
    for name in sorted(named):
        col = named[name]
        qq = q[["query_id"]].assign(
            # fillna first: a missing clause cell must match NOTHING, not
            # analyze to the literal term "nan"
            text=q[col].fillna("").astype(str), k=_np.int32(K_MAX)
        )
        m = search(index_dir, qq, mode="constant", allow_docids=allow).to_pandas()
        if m.empty or "docid" not in m.columns:
            continue
        for qid, docid in zip(m["query_id"].to_numpy(), m["docid"].to_numpy()):
            matched.setdefault((int(qid), int(docid)), []).append(name)
    res["matched_queries"] = [
        ",".join(matched.get((int(r.query_id), int(r.docid)), []))
        for r in res.itertuples(index=False)
    ]
    return res[list(cols)].astype(cols)


def scroll(
    index_dir: str,
    queries,
    page_size: int = 10,
    n_pages: int = 3,
    mode: str = "bmw",
    **search_kw,
) -> pd.DataFrame:
    """OpenSearch scroll / point-in-time pagination: page 1 at k=page_size,
    then repeated STRICTLY-AFTER cursor fetches (the search_after machinery).
    Each round ships only its own page's rows — deep pages never re-fetch or
    re-rank earlier hits, which is the scale property scroll exists for (a
    from=9990&size=10 offset search re-ships 10k rows per shard; this ships
    10). A query whose page comes back short is exhausted and drops out of
    later rounds. Returns (query_id, page, rank, docid, score) with rank
    global across pages and raw float64 scores (callers round for display).
    """
    q = query_frame(queries)
    q = q.assign(k=np.int32(page_size))
    if "after_score" in q.columns or "after_docid" in q.columns:
        raise ValueError("scroll manages its own cursors; drop after_* columns")
    pages = []
    cur = q
    for page in range(1, n_pages + 1):
        res = search(index_dir, cur, mode=mode, **search_kw).to_pandas()
        if res.empty or "query_id" not in res.columns:
            break
        res = res.sort_values(["query_id", "rank"]).reset_index(drop=True)
        res["page"] = np.int32(page)
        res["rank"] = (res["rank"].astype(np.int64)
                       + (page - 1) * page_size).astype(np.int32)
        pages.append(res)
        if page == n_pages:
            break
        sizes = res.groupby("query_id").size()
        alive = sizes[sizes == page_size].index
        if len(alive) == 0:
            break
        last = res.groupby("query_id").tail(1)
        cur = (
            q[q["query_id"].isin(alive)]
            .drop(columns=[c for c in ("after_score", "after_docid") if c in q.columns])
            .merge(
                last[["query_id", "score", "docid"]].rename(
                    columns={"score": "after_score", "docid": "after_docid"}
                ),
                on="query_id",
                how="inner",
            )
        )
    cols = {"query_id": np.int64, "page": np.int32, "rank": np.int32,
            "docid": np.int64, "score": np.float64}
    if not pages:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    out = pd.concat(pages, ignore_index=True)
    out = out.sort_values(["query_id", "rank"]).reset_index(drop=True)
    return out[["query_id", "page", "rank", "docid", "score"]].astype(cols)


def mget(index_dir: str, requests) -> pd.DataFrame:
    """OpenSearch ``_mget``: fetch stored fields for explicit
    (query_id, docid) requests — no scoring, no analysis. The request
    frame is driver-small by contract (an id-lookup API); the docid set is
    ``ray.put`` once into the same pinned-docmeta semi-join as
    :func:`hydrate`.
    Requested docids absent from the index return ``found=false`` with
    null fields, as _mget does. Returns (query_id, docid, conv_id,
    turn_idx, role, found), ordered by (query_id, docid)."""
    req = requests.copy() if isinstance(requests, pd.DataFrame) else pd.read_parquet(requests)
    meta = hydrate(index_dir, req[["docid"]].drop_duplicates(),
                   columns=["conv_id", "turn_idx", "role"])
    out = req[["query_id", "docid"]].merge(
        meta[["docid", "conv_id", "turn_idx", "role"]], on="docid", how="left"
    )
    out["found"] = out["conv_id"].notna()
    # nullable Int64 so a miss is a NULL (as SQL's left join yields), not NaN
    out["turn_idx"] = out["turn_idx"].astype("Int64")
    out = out.sort_values(["query_id", "docid"]).reset_index(drop=True)
    return out.astype({"query_id": np.int64, "docid": np.int64,
                       "found": bool})


def search_constant_score(
    index_dir: str,
    queries,
    boost: float = 1.0,
) -> pd.DataFrame:
    """OpenSearch ``constant_score`` query: wraps a filter-context inner
    query — here the bool filter over the indexed field (match ANY of
    ``text``'s analyzed terms, minus ``exclude_text``'s must_not terms) —
    and every surviving doc scores exactly ``boost``, ignoring tf/idf
    entirely (Lucene ConstantScoreQuery; the reference's FAISS service has
    no unscored-filter path — this is the fulltext engine's). Under the
    engine's (score desc, docid asc) total order the top-k is therefore
    the k smallest matching docids. One constant-mode pass; the boost is a
    driver-side scalar multiply on the queries x k result."""
    res = search(index_dir, queries, mode="constant").to_pandas()
    if len(res):
        res["score"] = res["score"].to_numpy(np.float64) * float(boost)
    return res.reset_index(drop=True)


def search_terminate_after(
    index_dir: str,
    queries,
    terminate_after: int,
    where=None,
) -> pd.DataFrame:
    """OpenSearch ``terminate_after``: per query, hit COLLECTION stops after
    ``terminate_after`` matching docs; collected docs score normally and the
    response flags ``terminated_early``. This engine's single logical shard
    collects in docid order, so the collected set is exactly the
    ``terminate_after`` SMALLEST matching docids — deterministic where
    OpenSearch's per-shard cut is arrival-order-dependent.

    Two k-bounded distributed passes plus one counts-only reduce:
    (1) constant mode with k=terminate_after — the constant scorer's
    (score desc == const, docid asc) top-k IS the first-collected set;
    (2) the same text re-scored under the per-query ``allow_docids``
    candidate mask (filter-context: scores unchanged); (3)
    ``terminated_early`` from :func:`aggs.match_count`'s distributed
    per-block count reduce — one int per query, docids never land on the
    driver beyond the queries x terminate_after collected sets. Returns
    (query_id, rank, docid, score, terminated_early), scores 6-rounded and
    re-ranked (score desc, docid asc)."""
    from remote_vector_index_builder_ray.pipelines.aggs import match_count

    if int(terminate_after) < 1:
        raise ValueError("terminate_after must be >= 1")
    q = query_frame(queries)
    first = search(
        index_dir, q.assign(k=np.int32(terminate_after)), mode="constant",
        where=where,
    ).to_pandas()
    allow_by_qid: dict[int, list[int]] = {
        int(qid): g["docid"].tolist() for qid, g in first.groupby("query_id")
    } if len(first) else {}
    # pass 2 skips `where`: the allow set is already the where-filtered
    # first-T cut, and re-pushing the predicate would re-scan docmeta.
    # 2x k-oversample so the 6-rounded re-rank can't lose a boundary doc.
    q2 = q.assign(allow_docids=[
        allow_by_qid.get(int(qid), []) for qid in q["query_id"]
    ])
    if "k" in q2.columns:
        q2 = _oversampled(q2)
    res = search(index_dir, q2, mode="exhaustive").to_pandas()
    counts = match_count(index_dir, q, where=where)
    term_by_qid = dict(zip(
        counts["query_id"],
        counts["total_hits"].to_numpy(np.int64) > int(terminate_after),
    ))
    cols = {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
            "score": np.float64, "terminated_early": bool}
    if res.empty or "docid" not in res.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    res["score"] = np.floor(res["score"].to_numpy(np.float64) * 1e6 + 0.5) / 1e6
    res = res.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    res["rank"] = (res.groupby("query_id").cumcount() + 1).astype(np.int32)
    k_by_qid = dict(zip(q["query_id"], q["k"])) if "k" in q.columns else {}
    res["k"] = res["query_id"].map(k_by_qid).fillna(10).astype(np.int64)
    res = res[res["rank"] <= res["k"]]
    res["terminated_early"] = res["query_id"].map(term_by_qid).fillna(False)
    return (res[list(cols)].astype(cols).reset_index(drop=True))


def search_terms_lookup(
    index_dir: str,
    requests,
    max_terms: int = 8,
) -> pd.DataFrame:
    """OpenSearch ``terms`` query with terms LOOKUP: the term set is not
    inline in the request but FETCHED from an indexed document
    (``terms: {field: {index, id, path}}``). ``requests`` carries
    (query_id:int64, lookup_docid:int64, k:int32).

    The lookup docs hydrate through :func:`hydrate` with
    ``columns=['text']`` — ONE lookup fetches every request's seed doc (an id-lookup is a small-side
    fetch, never a shuffle). Each seed's term set is its first
    ``max_terms`` DISTINCT analyzer tokens in lexicographic order (a
    deterministic stand-in for the lookup doc's stored terms array); the
    match then runs as the terms query's constant-score ANY-of-terms
    rewrite. A missing seed doc matches nothing, as a terms lookup against
    an absent id does."""
    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text,
        load_analyzer,
    )

    req = requests.copy() if isinstance(requests, pd.DataFrame) else pd.read_parquet(requests)
    seeds = req[["lookup_docid"]].drop_duplicates().rename(
        columns={"lookup_docid": "docid"})
    meta = hydrate(index_dir, seeds, columns=["text"])
    an = load_analyzer(index_dir)
    text_by_doc = dict(zip(meta["docid"], meta["text"]))

    def lookup_terms(docid: int) -> str:
        txt = text_by_doc.get(docid)
        if not isinstance(txt, str):
            return ""  # absent seed doc: the lookup yields no terms
        return " ".join(sorted(set(analyze_text(txt, an)))[:max_terms])

    q = pd.DataFrame({
        "query_id": req["query_id"].astype(np.int64),
        "text": [lookup_terms(int(d)) for d in req["lookup_docid"]],
        "k": req["k"].astype(np.int32),
    })
    return search(index_dir, q, mode="constant").to_pandas().reset_index(drop=True)


_TEMPLATE_VAR = None  # compiled lazily (keep import time flat)


def render_search_template(templates: pd.DataFrame) -> pd.DataFrame:
    """OpenSearch ``_render/template``: mustache ``{{name}}`` substitution
    over per-request (template, params) pairs — the variable-substitution
    subset (no sections/partials), which is what search templates use for
    parameterized queries. ``templates`` carries (query_id, template,
    params) with ``params`` a JSON object string. Returns the frame with a
    rendered ``text`` column. An unresolved placeholder raises: a literal
    ``{{a}}`` surviving into the query would analyze to nothing and
    silently match nothing."""
    import json
    import re

    global _TEMPLATE_VAR
    if _TEMPLATE_VAR is None:
        _TEMPLATE_VAR = re.compile(r"\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*\}\}")
    out = templates.copy()

    def render(row) -> str:
        params = json.loads(row.params) if row.params else {}
        if not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object: {row.params!r}")

        def sub(m):
            name = m.group(1)
            if name not in params:
                raise KeyError(
                    f"unresolved template param {{{{{name}}}}} "
                    f"(query_id={row.query_id})")
            return str(params[name])

        return _TEMPLATE_VAR.sub(sub, row.template)

    out["text"] = [render(r) for r in out.itertuples(index=False)]
    return out


def search_template(
    index_dir: str,
    templates: pd.DataFrame,
    mode: str = "bmw",
) -> ray.data.Dataset:
    """OpenSearch ``_search/template``: render each request's mustache
    template against its params (:func:`render_search_template`), then run
    the standard search over the rendered text. Rendering is driver-side
    string work on the (driver-small) request frame; the search itself is
    the usual distributed pass."""
    rendered = render_search_template(templates)
    cols = ["query_id", "text", "k"]
    return search(index_dir, rendered[cols], mode=mode)


def rescore_phrase(
    index_dir: str,
    queries,
    window_size: int = 30,
    k: int = 10,
    query_weight: float = 1.0,
    rescore_weight: float = 1.0,
) -> pd.DataFrame:
    """OpenSearch query rescorer (score_mode=total): the per-query BM25
    top-``window_size`` window is re-scored by running the SAME query text
    as an exact phrase; final = query_weight * bm25 + rescore_weight *
    phrase, docs without the phrase keep their bm25 score. Docs outside the
    window are untouched (the point of a rescorer: the expensive positional
    query runs on window_size docs per query, not the corpus).

    Cross-engine determinism: window membership and the final order are
    decided on 6-decimal-rounded components (the driver float policy), so
    a SQL oracle ranks identically. The phrase leg runs RESTRICTED to the
    union of the rescore windows (the searcher's allow-list filter context:
    candidates outside the windows drop, phrase scores are unchanged), so
    what reaches the driver is bounded by queries x window_size even for a
    stopword phrase — exactly Lucene's rescorer contract (the positional
    query only ever evaluates window docs)."""
    import numpy as np

    q = query_frame(queries)
    r6 = lambda x: np.floor(x * 1e6 + 0.5) / 1e6  # noqa: E731

    base = search(
        index_dir, q.assign(k=capped_k(2 * window_size)), mode="bmw"
    ).to_pandas()
    if "query_id" not in base.columns:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.int32),
                             "docid": pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.float64)})
    base["score"] = base["score"].round(6)
    base = base.sort_values(["query_id", "score", "docid"],
                            ascending=[True, False, True])
    base["rank"] = base.groupby("query_id").cumcount() + 1
    win = base[base["rank"] <= window_size][["query_id", "docid", "score"]]

    ph = search(
        index_dir, q.assign(k=np.int32(K_MAX)), mode="phrase",
        allow_docids=np.unique(win["docid"].to_numpy(np.int64)),
    ).to_pandas()
    if "query_id" in ph.columns and len(ph):
        ph = ph[["query_id", "docid", "score"]].rename(columns={"score": "p"})
        ph["p"] = ph["p"].round(6)
        win = win.merge(ph, on=["query_id", "docid"], how="left")
        win["p"] = win["p"].fillna(0.0)
    else:
        win = win.assign(p=0.0)
    win["score"] = r6(query_weight * win["score"] + rescore_weight * win["p"])
    win = win.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    win["rank"] = (win.groupby("query_id").cumcount() + 1).astype(np.int32)
    out = win[win["rank"] <= k]
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def parse_simple_query_string(qs: str) -> dict:
    """Parse the frozen simple_query_string subset: ``"a b"`` quoted phrase
    clauses, ``-term`` negations, bare terms as should clauses (default
    operator OR). Tokens are the engine's [a-z0-9_]+ after lowercasing —
    the same frozen grammar a SQL oracle re-parses with regexes.
    Reference analog: OpenSearch simple_query_string supports exactly these
    operators (plus | and prefix-*, covered by search_bool/search_prefix)."""
    import re

    qs = (qs or "").lower()
    phrases = re.findall(r'"([^"]*)"', qs)
    rest = re.sub(r'"[^"]*"', " ", qs)
    negs = re.findall(r"-([a-z0-9_]+)", rest)
    rest = re.sub(r"-[a-z0-9_]+", " ", rest)
    should = re.findall(r"[a-z0-9_]+", rest)
    return {"should": should, "phrases": phrases, "negs": negs}


def search_query_string(
    index_dir: str,
    queries,
) -> pd.DataFrame:
    """OpenSearch ``simple_query_string``: per query a raw string with
    quoted-phrase clauses, ``-`` negations and bare OR terms. A doc
    qualifies when it matches ANY positive clause (default operator OR) and
    no negated term; its score is the SUM of its clause scores — the term
    disjunction's BM25 sum plus each phrase clause's PhraseQuery score —
    with each leg rounded to 6 decimals before the sum (the cross-engine
    float policy; legs accumulate in different orders in SQL).

    Composition: one exhaustive scoring pass for all term legs (must_not
    inside the actors), one phrase-mode pass for all phrase clauses, one
    constant pass producing the negation match sets applied to the phrase
    leg driver-side; legs outer-merge on (query_id, docid) — each leg's
    result is queries x matches rows, driver-small for content queries."""
    import numpy as np

    q = query_frame(queries)
    parsed = {int(r.query_id): parse_simple_query_string(r.text)
              for r in q.itertuples(index=False)}
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)}
    r6 = lambda x: np.floor(x * 1e6 + 0.5) / 1e6  # noqa: E731
    kmax = np.int32(K_MAX)

    legs: list[pd.DataFrame] = []
    term_rows = [(qid, p) for qid, p in parsed.items() if p["should"]]
    if term_rows:
        tq = pd.DataFrame({
            "query_id": pd.Series([qid for qid, _ in term_rows], dtype=np.int64),
            "text": [" ".join(p["should"]) for _, p in term_rows],
            "exclude_text": [" ".join(p["negs"]) for _, p in term_rows],
            "k": kmax,
        })
        st = search(index_dir, tq, mode="exhaustive").to_pandas()
        if "docid" in st.columns and len(st):
            st["score"] = r6(st["score"].to_numpy())
            legs.append(st[["query_id", "docid", "score"]])
    ph_rows = [(qid, p) for qid, p in parsed.items() if p["phrases"]]
    if ph_rows:
        # one phrase-mode row per (query, phrase clause); clause scores of
        # the same query sum after the merge
        pq_ = pd.DataFrame({
            "query_id": pd.Series(
                [qid for qid, p in ph_rows for _ in p["phrases"]], dtype=np.int64),
            "text": [ph for _, p in ph_rows for ph in p["phrases"]],
            "k": kmax,
        })
        sp = search(index_dir, pq_, mode="phrase").to_pandas()
        if "docid" in sp.columns and len(sp):
            sp["score"] = r6(sp["score"].to_numpy())
            # negations apply to phrase legs too (the scoring pass handles
            # them actor-side only for the term leg)
            neg_rows = [(qid, p["negs"]) for qid, p in ph_rows if p["negs"]]
            if neg_rows:
                nq = pd.DataFrame({
                    "query_id": pd.Series([qid for qid, _ in neg_rows],
                                          dtype=np.int64),
                    "text": [" ".join(negs) for _, negs in neg_rows],
                    "k": kmax,
                })
                nm = search(index_dir, nq, mode="constant").to_pandas()
                if "docid" in nm.columns and len(nm):
                    dead = nm[["query_id", "docid"]].assign(_dead=True)
                    sp = sp.merge(dead, on=["query_id", "docid"], how="left")
                    sp = sp[sp["_dead"].isna()]
            sp = (sp.groupby(["query_id", "docid"], sort=False)["score"]
                  .sum().reset_index())
            legs.append(sp[["query_id", "docid", "score"]])
    out_cols = {
        "query_id": pd.Series(dtype=np.int64),
        "rank": pd.Series(dtype=np.int32),
        "docid": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    }
    if not legs:
        return pd.DataFrame(out_cols)
    allm = pd.concat(legs, ignore_index=True)
    tot = allm.groupby(["query_id", "docid"], sort=False)["score"].sum().reset_index()
    tot["score"] = r6(tot["score"].to_numpy())
    tot = tot.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    tot["rank"] = (tot.groupby("query_id").cumcount() + 1).astype(np.int32)
    tot["k"] = tot["query_id"].map(k_by_query)
    tot = tot[tot["rank"] <= tot["k"]]
    return tot[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def rrf_fuse(rankings: list[pd.DataFrame], k: int = 10, c: int = 60,
             k_by_query: dict | None = None) -> pd.DataFrame:
    """Reciprocal-rank fusion (the OpenSearch hybrid-search RRF processor):
    fused score = Σ_legs 1 / (c + rank_leg) over each leg's (query_id,
    rank, docid) ranking; docs absent from a leg contribute nothing. The
    fused order is (score desc, docid asc), 6-decimal-rounded — rank
    reciprocals are exact small rationals, so both engines sum
    identically."""
    import numpy as np

    legs = []
    for r in rankings:
        if r is None or r.empty or "docid" not in r.columns:
            continue
        g = r[["query_id", "docid", "rank"]].copy()
        g["s"] = 1.0 / (c + g["rank"].astype(np.float64))
        legs.append(g[["query_id", "docid", "s"]])
    if not legs:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.int32),
                             "docid": pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.float64)})
    allm = pd.concat(legs, ignore_index=True)
    tot = allm.groupby(["query_id", "docid"], sort=False)["s"].sum().reset_index()
    tot["score"] = np.floor(tot["s"].to_numpy() * 1e6 + 0.5) / 1e6
    tot = tot.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    tot["rank"] = (tot.groupby("query_id").cumcount() + 1).astype(np.int32)
    if k_by_query:
        tot["k"] = tot["query_id"].map(k_by_query).fillna(k)
    else:
        tot["k"] = k
    tot = tot[tot["rank"] <= tot["k"]]
    return tot[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def search_hybrid(
    index_dir: str,
    queries,
    modes: tuple = ("bmw", "phrase"),
    k: int = 10,
    c: int = 60,
) -> pd.DataFrame:
    """Hybrid search via RRF: run the query text through each mode (e.g.
    the BM25 disjunction AND the exact phrase), rank each leg over its
    FULL match set by (round6(score) desc, docid asc), and fuse with
    reciprocal ranks — the OpenSearch hybrid query + rrf processor shape.
    Each leg is the engine's normal streaming search; fusion is
    queries x matches driver-side."""
    import numpy as np

    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)} \
        if "k" in q.columns else None
    legs = []
    for mode in modes:
        res = search(index_dir, q.assign(k=np.int32(K_MAX)),
                     mode=mode).to_pandas()
        if "docid" not in res.columns or res.empty:
            continue
        res["score"] = res["score"].round(6)
        res = res.sort_values(["query_id", "score", "docid"],
                              ascending=[True, False, True])
        res["rank"] = res.groupby("query_id").cumcount() + 1
        legs.append(res[["query_id", "docid", "rank"]])
    return rrf_fuse(legs, k=k, c=c, k_by_query=k_by_query)


def minmax_fuse(
    legs: list[pd.DataFrame],
    weights: tuple,
    k: int = 10,
    k_by_query: dict | None = None,
    technique: str = "min_max",
) -> pd.DataFrame:
    """Score-normalization fusion (the OpenSearch hybrid-search
    normalization processor, combination=weighted arithmetic mean).
    ``technique``:

    - ``min_max``: per leg and per query, scores rescale to
      (s - min) / (max - min) over that query's retrieved set — a
      single-score leg (max == min) normalizes to 1.0, OpenSearch's
      single-result convention.
    - ``l2``: s / sqrt(Σ s²) over that query's retrieved set in the leg
      (OpenSearch technique=l2); an all-zero leg normalizes to 0.

    Then fuse as Σ w_i * norm_i; docs absent from a leg contribute 0 for
    it. Inputs are each leg's (query_id, docid, score) over its FULL match
    set with 6-decimal-rounded scores (the cross-engine float policy), so
    both engines normalize identical rationals. Returns (query_id, rank,
    docid, score), fused score rounded half-up to 6 decimals,
    (score desc, docid asc)."""
    if technique not in ("min_max", "l2"):
        raise ValueError(f"unknown normalization technique {technique!r}")
    parts = []
    for w, r in zip(weights, legs):
        if r is None or r.empty or "docid" not in r.columns:
            continue
        g = r[["query_id", "docid", "score"]].copy()
        grp = g.groupby("query_id", sort=False)["score"]
        s = g["score"].to_numpy(dtype=np.float64)
        if technique == "l2":
            denom = np.sqrt(
                g.assign(s2=s * s).groupby("query_id", sort=False)["s2"]
                .transform("sum").to_numpy()
            )
            norm = np.where(denom > 0, s / np.where(denom > 0, denom, 1.0), 0.0)
        else:
            lo = grp.transform("min").astype(np.float64)
            hi = grp.transform("max").astype(np.float64)
            span = (hi - lo).to_numpy()
            norm = np.where(span > 0, (s - lo.to_numpy()) / np.where(span > 0, span, 1.0), 1.0)
        g["s"] = float(w) * norm
        parts.append(g[["query_id", "docid", "s"]])
    if not parts:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "rank": pd.Series(dtype=np.int32),
                             "docid": pd.Series(dtype=np.int64),
                             "score": pd.Series(dtype=np.float64)})
    allm = pd.concat(parts, ignore_index=True)
    tot = allm.groupby(["query_id", "docid"], sort=False)["s"].sum().reset_index()
    tot["score"] = np.floor(tot["s"].to_numpy() * 1e6 + 0.5) / 1e6
    tot = tot.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    tot["rank"] = (tot.groupby("query_id").cumcount() + 1).astype(np.int32)
    tot["k"] = tot["query_id"].map(k_by_query).fillna(k) if k_by_query else k
    tot = tot[tot["rank"] <= tot["k"]]
    return tot[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def search_hybrid_norm(
    index_dir: str,
    queries,
    modes: tuple = ("bmw", "phrase"),
    weights: tuple = (0.7, 0.3),
    k: int = 10,
    technique: str = "min_max",
) -> pd.DataFrame:
    """Hybrid search via score normalization (the OpenSearch
    normalization-processor alternative to :func:`search_hybrid`'s RRF):
    each mode's leg runs as a normal streaming search over its full match
    set, per-query normalizes under ``technique`` (min_max or l2), and
    fuses as a weighted arithmetic mean (:func:`minmax_fuse`). Fusion is
    queries x matches driver-side; the heavy scoring stays in the actor
    pools."""
    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)} \
        if "k" in q.columns else None
    legs = []
    for mode in modes:
        res = search(index_dir, q.assign(k=np.int32(K_MAX)),
                     mode=mode).to_pandas()
        if "docid" not in res.columns or res.empty:
            legs.append(None)
            continue
        res["score"] = res["score"].round(6)
        legs.append(res[["query_id", "docid", "score"]])
    return minmax_fuse(legs, weights, k=k, k_by_query=k_by_query,
                       technique=technique)


def search_term_boosts(
    index_dir: str,
    queries,
    where=None,
) -> pd.DataFrame:
    """Per-term query boosts — OpenSearch ``query_string`` caret syntax
    (``error^2.5 handler^0.5 plain``): each whitespace chunk may carry a
    trailing ``^float`` boost that multiplies that term's BM25 contribution
    (Lucene BoostQuery around the term query; unboosted terms weigh 1.0).
    The caret markup is parsed on the driver, each chunk analyzed with the
    INDEX analyzer, and the searcher receives pre-analyzed ``terms`` +
    aligned ``weights`` list columns — scoring stays in the exhaustive
    actor pool, contribution order term-ascending as everywhere. A chunk
    analyzing to several tokens gives each its boost; a repeated term's
    last boost wins. Returns a Dataset of (query_id, rank, docid, score)."""
    import re

    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text,
        load_analyzer,
    )

    q = query_frame(queries)
    an = load_analyzer(index_dir)
    caret = re.compile(r"^(.*?)\^(\d+(?:\.\d+)?)$")
    terms_col, weights_col = [], []
    for text in q["text"].fillna(""):
        terms, weights = [], []
        for chunk in str(text).split():
            m = caret.match(chunk)
            body, w = (m.group(1), float(m.group(2))) if m else (chunk, 1.0)
            for tok in analyze_text(body, an):
                terms.append(tok)
                weights.append(w)
        terms_col.append(terms)
        weights_col.append(weights)
    q2 = q.assign(terms=terms_col, weights=weights_col).drop(columns=["text"])
    return search(index_dir, q2, mode="exhaustive", where=where)


def search_multi_match(
    index_dirs: dict[str, str],
    queries,
    tie_breaker: float = 0.0,
    round6: bool = True,
    match_type: str = "best_fields",
) -> pd.DataFrame:
    """OpenSearch ``multi_match`` across per-field indexes: each field of a
    document is indexed as its own corpus (same docid space — both builds
    read the same transcripts under the same (conv_id, turn_idx) order) and
    the query scores against every field index. ``match_type``:

    - ``best_fields`` (default): per doc ``score = max(field scores) +
      tie_breaker * (sum - max)`` — Lucene's DisjunctionMaxQuery over
      per-field BM25, exactly what best_fields compiles to.
    - ``most_fields``: per doc ``score = sum(field scores)`` — every
      matching field adds up (the Lucene BooleanQuery SHOULD-over-fields
      rewrite).

    Returns (query_id, rank, docid, score), top-k per the queries' ``k``
    column.

    Scale note: each field search is the engine's normal streaming search;
    the combine is driver-side over the union of full match sets (the same
    Σ|matches| envelope as the aggregation match-set step, documented
    there). ``round6`` applies the engine's half-up 6-decimal policy before
    ranking so the order is cross-engine reproducible."""
    import numpy as np

    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)}
    qfull = q.copy()
    qfull["k"] = np.int32(K_MAX)
    parts = []
    for field, idx in sorted(index_dirs.items()):
        r = search(idx, qfull, mode="exhaustive").to_pandas()
        if "docid" in r.columns:  # zero matches: Ray yields a column-less frame
            parts.append(r[["query_id", "docid", "score"]])
    allp = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame()
    if allp.empty:
        return pd.DataFrame(
            {"query_id": pd.Series(dtype=np.int64),
             "rank": pd.Series(dtype=np.int32),
             "docid": pd.Series(dtype=np.int64),
             "score": pd.Series(dtype=np.float64)}
        )
    if match_type not in ("best_fields", "most_fields"):
        raise ValueError(f"unsupported multi_match type {match_type!r}")
    g = allp.groupby(["query_id", "docid"], sort=False)["score"]
    comb = g.agg(mx="max", sm="sum").reset_index()
    if match_type == "most_fields":
        comb["score"] = comb["sm"]
    else:
        comb["score"] = comb["mx"] + tie_breaker * (comb["sm"] - comb["mx"])
    if round6:
        comb["score"] = np.floor(comb["score"] * 1e6 + 0.5) / 1e6
    comb = comb.sort_values(["query_id", "score", "docid"],
                            ascending=[True, False, True])
    comb["rank"] = comb.groupby("query_id").cumcount() + 1
    comb["k"] = comb["query_id"].map(k_by_query)
    out = comb[comb["rank"] <= comb["k"]]
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def search_cross_fields(
    index_dirs: dict[str, str],
    queries,
    tie_breaker: float = 0.0,
    round6: bool = True,
) -> pd.DataFrame:
    """OpenSearch ``multi_match`` type=``cross_fields`` (Lucene
    ``BlendedTermQuery.dismaxBlendedQuery``): the fields are treated as ONE
    blended field — term-centric, unlike best/most_fields' field-centric
    combine. Per query TERM:

    - document frequency is BLENDED across fields: df = max over the
      fields' dfs (Lucene's blend), so a term common in one field is not
      over-rewarded for being rare in another;
    - each field contributes the term's raw tf saturation under that
      FIELD's own length norms (dl/avgdl — Lucene keeps per-field norms);
    - the per-field contributions combine as
      ``max + tie_breaker * (sum - max)`` and the blended idf multiplies
      the result; terms then SUM (term-ascending float order).

    Mechanics: one unit-idf single-term exhaustive search per (term, field)
    — ``search(..., unit_idf=True)`` returns exactly the tf saturation —
    and the blended dfs come from the per-field term dictionaries. Fields
    must share the analyzer (Lucene groups cross_fields by analyzer; the
    first index's analyzer tokenizes the query). The combine is driver-side
    over the union of full match sets — the same envelope as
    ``search_multi_match`` above. Returns (query_id, rank, docid, score)."""
    import numpy as np

    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text,
        load_analyzer,
    )
    from remote_vector_index_builder_ray.pipelines.expand import _get_dict
    from remote_vector_index_builder_ray.pipelines.incremental import global_stats

    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)}
    fields = sorted(index_dirs)
    an = load_analyzer(index_dirs[fields[0]])
    N = float(global_stats(index_dirs[fields[0]])["N"])

    # one expanded row per (query, DISTINCT term), term-ascending (the float
    # summation order of the final per-doc term sum)
    eq_qid, eq_term = [], []
    for r in q.itertuples(index=False):
        toks = analyze_text(str(r.text or ""), an)
        for t in sorted(set(toks)):
            eq_qid.append(int(r.query_id))
            eq_term.append(t)
    empty = pd.DataFrame(
        {"query_id": pd.Series(dtype=np.int64),
         "rank": pd.Series(dtype=np.int32),
         "docid": pd.Series(dtype=np.int64),
         "score": pd.Series(dtype=np.float64)}
    )
    if not eq_qid:
        return empty
    expq = pd.DataFrame({
        "query_id": np.arange(len(eq_qid), dtype=np.int64),
        "text": eq_term,
        "k": np.full(len(eq_qid), K_MAX, dtype=np.int32),
    })

    parts = []
    for f in fields:
        r = search(index_dirs[f], expq, mode="exhaustive", unit_idf=True).to_pandas()
        if "docid" in r.columns:
            parts.append(r[["query_id", "docid", "score"]])
    allp = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame()
    if allp.empty:
        return empty

    # blended idf per expanded term: df = max over fields (0 when absent)
    dicts = {f: _get_dict(index_dirs[f]) for f in fields}
    uterms = np.asarray(sorted(set(eq_term)), dtype=np.str_)
    df_b = np.zeros(len(uterms), dtype=np.int64)
    for f in fields:
        td = dicts[f]
        pos = np.searchsorted(td.terms, uterms)
        ok = (pos < len(td.terms)) & (td.terms[np.minimum(pos, max(len(td.terms) - 1, 0))] == uterms) if len(td.terms) else np.zeros(len(uterms), bool)
        dfv = np.where(ok, td.df[np.minimum(pos, max(len(td.terms) - 1, 0))], 0)
        df_b = np.maximum(df_b, dfv)
    # textual mirror of the SQL twin: ln(1 + (N - df + 0.5) / (df + 0.5))
    idf_b = np.log(1.0 + (N - df_b + 0.5) / (df_b + 0.5))
    idf_by_term = dict(zip(uterms.tolist(), idf_b.tolist()))

    # dismax across fields per (expanded term, doc), blended idf, sum terms
    g = allp.groupby(["query_id", "docid"], sort=True)["score"]
    comb = g.agg(mx="max", sm="sum").reset_index()
    comb["qid"] = comb["query_id"].map(dict(enumerate(eq_qid)))
    comb["term"] = comb["query_id"].map(dict(enumerate(eq_term)))
    comb["idf"] = comb["term"].map(idf_by_term)
    comb["contrib"] = comb["idf"] * (
        comb["mx"] + tie_breaker * (comb["sm"] - comb["mx"])
    )
    # groupby(sort=True) on (query_id, docid) left rows expanded-qid-major ==
    # term-ascending within each original query: the deterministic sum order
    out = comb.groupby(["qid", "docid"], sort=True)["contrib"].sum().reset_index()
    out = out.rename(columns={"qid": "query_id", "contrib": "score"})
    if round6:
        out["score"] = np.floor(out["score"] * 1e6 + 0.5) / 1e6
    out = out.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    out["rank"] = out.groupby("query_id").cumcount() + 1
    out["k"] = out["query_id"].map(k_by_query)
    out = out[out["rank"] <= out["k"]]
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def search_combined_fields(
    index_dirs: dict[str, str],
    queries,
    weights: dict[str, float] | None = None,
    round6: bool = True,
) -> pd.DataFrame:
    """OpenSearch ``combined_fields`` (Lucene ``CombinedFieldQuery`` /
    Robertson's BM25F with field boosts): the fields are scored as ONE
    synthetic combined field. Per query term and doc:

    - ``tf_c = Σ_f weight_f · tf_f`` — term frequencies combine FIRST
      (unlike cross_fields, which saturates per field and then blends);
    - ``dl_c = Σ_f weight_f · dl_f`` and
      ``avgdl_c = Σ_f weight_f · total_len_f / N`` — the combined field's
      length norms (integer weights make this exactly the index you would
      get by concatenating each field ``weight`` times);
    - ``df_c = |union of the fields' postings|`` — the EXACT pseudo-field
      document frequency. (Lucene approximates this as ``max`` over the
      fields' dfs because it cannot afford the union; this engine has the
      full per-term match sets in hand, so it computes the union exactly —
      the one documented divergence.)
    - score = Σ_t idf(df_c) · tf_c·(k1+1)/(tf_c + k1·(1−b+b·dl_c/avgdl_c)),
      terms summed ascending (the engine's deterministic float order).

    Mechanics: one ``similarity="rawtf"`` single-term exhaustive search per
    (term, field) returns the raw per-doc tf (functions/bm25.sim_contrib);
    per-field doc lengths come from one ``docmeta_lookup`` of the union
    docids per field; the combine is driver-side over the union of full
    match sets — the same envelope as ``search_cross_fields``. Fields must
    share the analyzer and docid space. Returns (query_id, rank, docid,
    score)."""
    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text,
        load_analyzer,
    )
    from remote_vector_index_builder_ray.pipelines.incremental import global_stats

    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)}
    fields = sorted(index_dirs)
    w = {f: float((weights or {}).get(f, 1.0)) for f in fields}
    an = load_analyzer(index_dirs[fields[0]])
    st0 = global_stats(index_dirs[fields[0]])
    N = float(st0["N"])
    k1, b = float(st0["k1"]), float(st0["b"])
    avgdl_c = sum(
        w[f] * float(global_stats(index_dirs[f])["total_len"]) for f in fields
    ) / N

    eq_qid, eq_term = [], []
    for r in q.itertuples(index=False):
        toks = analyze_text(str(r.text or ""), an)
        for t in sorted(set(toks)):
            eq_qid.append(int(r.query_id))
            eq_term.append(t)
    empty = pd.DataFrame(
        {"query_id": pd.Series(dtype=np.int64),
         "rank": pd.Series(dtype=np.int32),
         "docid": pd.Series(dtype=np.int64),
         "score": pd.Series(dtype=np.float64)}
    )
    if not eq_qid:
        return empty
    expq = pd.DataFrame({
        "query_id": np.arange(len(eq_qid), dtype=np.int64),
        "text": eq_term,
        "k": np.full(len(eq_qid), K_MAX, dtype=np.int32),
    })

    parts = []
    for f in fields:
        r = search(index_dirs[f], expq, mode="exhaustive",
                   similarity="rawtf").to_pandas()
        if "docid" in r.columns and len(r):
            parts.append(r[["query_id", "docid", "score"]].assign(
                tfw=r["score"] * w[f]))
    allp = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame()
    if allp.empty:
        return empty

    # combined tf per (expanded term, doc); exact union df per expanded term
    comb = (allp.groupby(["query_id", "docid"], sort=True)["tfw"]
            .sum().reset_index().rename(columns={"tfw": "tf_c"}))
    df_union = comb.groupby("query_id")["docid"].nunique()
    idf_by_eq = np.log(1.0 + (N - df_union + 0.5) / (df_union + 0.5))

    # combined per-doc length over the union docids (per-field docmeta fetch)
    union_docs = np.unique(comb["docid"].to_numpy(np.int64))
    dl_c = None
    for f in fields:
        dm = docmeta_lookup(index_dirs[f], "docid", union_docs, ["doc_len"])
        s = dm.set_index("docid")["doc_len"].astype(np.float64) * w[f]
        dl_c = s if dl_c is None else dl_c.add(s, fill_value=0.0)
    comb["dl_c"] = comb["docid"].map(dl_c).astype(np.float64)

    comb["idf"] = comb["query_id"].map(idf_by_eq)
    comb["contrib"] = comb["idf"] * (
        comb["tf_c"] * (k1 + 1.0)
        / (comb["tf_c"] + k1 * (1.0 - b + b * comb["dl_c"] / avgdl_c))
    )
    comb["qid"] = comb["query_id"].map(dict(enumerate(eq_qid)))
    # groupby(sort=True) on (query_id, docid) left rows expanded-qid-major ==
    # term-ascending within each original query: the deterministic sum order
    out = comb.groupby(["qid", "docid"], sort=True)["contrib"].sum().reset_index()
    out = out.rename(columns={"qid": "query_id", "contrib": "score"})
    if round6:
        out["score"] = np.floor(out["score"] * 1e6 + 0.5) / 1e6
    out = out.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    out["rank"] = out.groupby("query_id").cumcount() + 1
    out["k"] = out["query_id"].map(k_by_query)
    out = out[out["rank"] <= out["k"]]
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def _compile_score_script(expr: str):
    """Compile a script_score expression — a restricted painless analog:
    float arithmetic (+ - * /), ``sqrt``/``log``/``min``/``max`` calls, and
    the names ``_score`` (the BM25 score) and ``v`` (the doc's field
    value). Validated via the Python AST (no other names, calls or
    attributes), so the expression is SQL-transcribable verbatim and never
    evaluates user strings at batch time. Returns
    fn(score: float64 ndarray, v: float64 ndarray) -> float64 ndarray."""
    import ast
    import operator as op

    ops = {ast.Add: op.add, ast.Sub: op.sub, ast.Mult: op.mul,
           ast.Div: op.truediv}
    fns = {"sqrt": np.sqrt, "log": np.log, "min": np.minimum,
           "max": np.maximum}
    tree = ast.parse(expr, mode="eval")

    def ev(node, env):
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.BinOp) and type(node.op) in ops:
            return ops[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand, env)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in fns and not node.keywords):
            return fns[node.func.id](*(ev(a, env) for a in node.args))
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return np.float64(node.value)
        raise ValueError(f"script_score: unsupported expression node "
                         f"{ast.dump(node)} in {expr!r}")

    zero = np.float64(0.0)
    ev(tree, {"_score": zero, "v": zero})  # validate eagerly
    return lambda score, v: ev(tree, {"_score": score, "v": v})


def _func_score(score, vals, modifier: str, params: dict):
    """The function_score family's score function: the pairs' BM25
    ``score`` combined with their docmeta values ``vals`` by ``modifier``.
    Elementwise, so a call on empty arrays checks the modifier, the script
    and the rank_feature function without touching any data."""
    if modifier == "random_score":
        # OpenSearch function_score random_score(seed, field): a
        # deterministic per-doc hash mapped to [0, 1), multiplied into
        # the score (boost_mode=multiply). The hash is an explicit LCG
        # over the docid so a SQL oracle reproduces it exactly:
        # ((docid % 2^31) * 1103515245 + seed) % 2^31 / 2^31.
        seed = int(params.get("seed", 0))
        h = ((vals.astype(np.int64) % 2147483648) * 1103515245 + seed) % 2147483648
        return score * (h.astype(np.float64) / 2147483648.0)
    if modifier == "script":
        # OpenSearch script_score: a sandboxed arithmetic expression
        # over _score and the doc value (compiled per block by
        # _compile_score_script — no eval of user strings)
        return _compile_score_script(params["expr"])(score, vals.astype(np.float64))
    if modifier == "log1p":
        # field_value_factor(modifier=log1p, boost_mode=multiply).
        # Computed as log(1 + v) — textually the same expression the SQL
        # oracle runs (ln(1 + dl)); np.log1p may differ in the last ulp
        # for v >= 1 and the cross-engine check hashes rounded values.
        return score * np.log(1.0 + vals.astype(np.float64))
    if modifier == "linear_decay":
        # linear decay on an int64 field (e.g. ts as epoch-us):
        # multiplier = max(0, 1 - |v - origin| / scale)
        origin = float(params["origin"])
        scale = float(params["scale"])
        mult = 1.0 - np.abs(vals.astype(np.float64) - origin) / scale
        return score * np.maximum(mult, 0.0)
    if modifier == "gauss_decay":
        # OpenSearch gauss decay on an int64 field: multiplier =
        # exp(-(max(0, |v - origin| - offset))^2 / (2*sigma^2)) with
        # sigma^2 = -scale^2 / (2*ln(decay)) — the multiplier is
        # exactly `decay` at distance offset+scale (the OpenSearch
        # contract). Spelled so every float op is SQL-transcribable.
        import math as _math

        origin = float(params["origin"])
        scale = float(params["scale"])
        offset = float(params.get("offset", 0.0))
        decay = float(params.get("decay", 0.5))
        sigma2 = -(scale * scale) / (2.0 * _math.log(decay))
        d = np.maximum(
            np.abs(vals.astype(np.float64) - origin) - offset, 0.0)
        return score * np.exp(-(d * d) / (2.0 * sigma2))
    if modifier == "exp_decay":
        # OpenSearch exp decay: multiplier =
        # exp(ln(decay) / scale * max(0, |v - origin| - offset))
        import math as _math

        origin = float(params["origin"])
        scale = float(params["scale"])
        offset = float(params.get("offset", 0.0))
        decay = float(params.get("decay", 0.5))
        lam = _math.log(decay) / scale
        d = np.maximum(
            np.abs(vals.astype(np.float64) - origin) - offset, 0.0)
        return score * np.exp(lam * d)
    if modifier == "rank_feature":
        # OpenSearch rank_feature query in a bool SHOULD: the feature
        # contribution ADDS to the match score. Three Lucene
        # FeatureQuery shapes over a non-negative numeric field v:
        #   saturation: boost * v / (v + pivot)
        #   log:        boost * log(1 + v / scaling)   (written as
        #               log(1 + x) — the SQL twin runs ln(1 + x))
        #   sigmoid:    boost * v^2 / (v^2 + pivot^2)  (exponent fixed
        #               at 2, spelled v*v so every float op is explicit)
        fn = params.get("function", "saturation")
        boost = float(params.get("boost", 1.0))
        v = vals.astype(np.float64)
        if fn == "saturation":
            pivot = float(params["pivot"])
            return score + boost * (v / (v + pivot))
        if fn == "log":
            scaling = float(params["scaling"])
            return score + boost * np.log(1.0 + v / scaling)
        if fn == "sigmoid":
            pivot = float(params["pivot"])
            return score + boost * ((v * v) / (v * v + pivot * pivot))
        raise ValueError(f"unknown rank_feature function {fn!r}")
    if modifier == "distance_feature":
        # Lucene LongDistanceFeatureQuery in a bool SHOULD: the feature
        # contribution ADDS to the match score —
        # boost * pivot / (pivot + |v - origin|); v is the int64 field
        # (timestamps as epoch-us), origin/pivot in the same unit
        origin = float(params["origin"])
        pivot = float(params["pivot"])
        boost = float(params.get("boost", 1.0))
        dist = np.abs(vals.astype(np.float64) - origin)
        return score + boost * (pivot / (pivot + dist))
    raise ValueError(f"unknown modifier {modifier!r}")


def _probe_func_score(batch: pa.Table, qids, rows, scores, field: str,
                      modifier: str, params: dict, k: dict) -> pa.Table:
    """function_score update: apply the score function to the scored
    pairs with their field values and keep each query's block-local top-k
    by (rounded score desc, docid asc), carrying the raw score — only
    queries x k rows leave each task."""
    from remote_vector_index_builder_ray.pipelines.aggs import _np, _table, _top_n

    ids = _np(batch, "docid")
    vals = ids if field == "docid" else _np(batch, field)  # random_score hashes the docid
    if vals.dtype.kind == "M":  # timestamps: epoch microseconds
        vals = vals.astype("datetime64[us]").astype(np.int64)
    out = _func_score(scores, vals[rows], modifier, params)
    top = _top_n(pd.DataFrame({"query_id": qids, "docid": ids[rows], "score": out,
                               "sr": np.floor(out * 1e6 + 0.5) / 1e6}),
                 ["query_id"], ["sr"], k)
    return _table(top, {"query_id": pa.int64(), "docid": pa.int64(),
                        "score": pa.float64()})


def function_score(
    index_dir: str,
    queries,
    field: str = "doc_len",
    modifier: str = "log1p",
    params: dict | None = None,
    where=None,
) -> pd.DataFrame:
    """OpenSearch ``function_score`` (boost_mode=multiply): the BM25 score of
    every matching doc is multiplied by a function of a docmeta field —
    ``modifier="log1p"`` is field_value_factor(log1p) and
    ``modifier="linear_decay"`` is the linear decay function on an int64 /
    timestamp field (``params={"origin": .., "scale": ..}``; multiplier
    clamps at 0, as in OpenSearch).

    Scored match sets shard by docid range; each pinned docmeta file runs
    once through a top-k combiner (the function needs the field value, which
    lives in docmeta — exactly Lucene's doc-values read at score time).
    Returns (query_id, rank, docid, score), score rounded half-up to 6
    decimals, ranked (score desc, docid asc), top-k per the queries' k."""
    from remote_vector_index_builder_ray.pipelines.aggs import _probe_partials, _top_n

    params = params or {}
    if modifier in ("gauss_decay", "exp_decay"):
        # validate on the driver: ln(decay) must be negative and finite, and
        # scale divides — a bad value would otherwise surface per batch as
        # NaN scores or an opaque worker error
        decay = float(params.get("decay", 0.5))
        if not 0.0 < decay < 1.0:
            raise ValueError(f"{modifier}: decay must be in (0, 1), got {decay}")
        if not float(params["scale"]) > 0.0:
            raise ValueError(
                f"{modifier}: scale must be > 0, got {params['scale']}")
    # an unknown modifier or rank_feature function, or a bad script, fails
    # here on the driver rather than in a probe task
    _func_score(np.zeros(0), np.zeros(0), modifier, params)
    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)}
    partials = _probe_partials(
        index_dir, q, where, _probe_func_score, (field, modifier, params, k_by_query),
        ["docid"] if field == "docid" else ["docid", field], scored=True)
    cols = {
        "query_id": pd.Series(dtype=np.int64),
        "rank": pd.Series(dtype=np.int32),
        "docid": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    }
    if partials.empty:
        return pd.DataFrame(cols)
    partials["score"] = np.floor(partials["score"] * 1e6 + 0.5) / 1e6
    out = _top_n(partials, ["query_id"], ["score"], k_by_query)
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)


def distance_feature(
    index_dir: str,
    queries,
    field: str = "ts",
    origin: float = 0.0,
    pivot: float = 1.0,
    boost: float = 1.0,
    where=None,
) -> pd.DataFrame:
    """OpenSearch ``distance_feature`` query in a bool SHOULD next to the
    match clause: every matching doc's BM25 score gains
    ``boost * pivot / (pivot + |field - origin|)`` — recency/proximity
    boosting on a numeric or timestamp field (timestamps compare as epoch
    microseconds; pass origin/pivot in us). Exact: rides the scored
    match-set shards + docmeta probe of :func:`function_score` (the feature
    value is a doc value read at score time, as in Lucene), so the additive
    re-ranking sees every matching doc, not a top-k oversample. Returns
    (query_id, rank, docid, score), score rounded half-up to 6 decimals.

    Reference analog: OpenSearch `distance_feature` (Lucene
    LongPoint.newDistanceFeatureQuery); parity target per SURVEY.md §2."""
    return function_score(
        index_dir, queries, field=field, modifier="distance_feature",
        params={"origin": origin, "pivot": pivot, "boost": boost},
        where=where,
    )


def rank_feature(
    index_dir: str,
    queries,
    field: str = "doc_len",
    function: str = "saturation",
    pivot: float = 1.0,
    scaling: float = 1.0,
    boost: float = 1.0,
    where=None,
) -> pd.DataFrame:
    """OpenSearch ``rank_feature`` query in a bool SHOULD next to the match
    clause: every matching doc's BM25 score gains a bounded contribution
    from a non-negative numeric field — ``saturation`` (the OpenSearch
    default, ``boost * v / (v + pivot)``), ``log``
    (``boost * log(1 + v / scaling)``) or ``sigmoid``
    (``boost * v^2 / (v^2 + pivot^2)``, exponent fixed at 2 so the float
    math is explicit both sides). Exact over the full match set — rides
    :func:`function_score`'s scored match-set shards + docmeta probe, the
    doc-values-at-score-time shape. Returns (query_id, rank, docid, score),
    score rounded half-up to 6 decimals.

    Reference analog: OpenSearch `rank_feature` (Lucene FeatureQuery);
    parity target per SURVEY.md §2 — OpenSearch stores the feature in a
    dedicated rank_feature field type, this engine reads it from docmeta."""
    return function_score(
        index_dir, queries, field=field, modifier="rank_feature",
        params={"function": function, "pivot": pivot, "scaling": scaling,
                "boost": boost},
        where=where,
    )


def random_score(index_dir: str, queries, seed: int = 0, where=None) -> pd.DataFrame:
    """OpenSearch ``function_score`` with ``random_score(seed)``
    (boost_mode=multiply): every matching doc's BM25 score is multiplied by
    a deterministic per-doc pseudo-random multiplier in [0, 1) — the
    reproducible-shuffle idiom for sampling search results. The multiplier
    is an explicit LCG over the docid (see ``_func_score``) so
    any engine reproduces it; OpenSearch's seeded mode is equally
    deterministic but uses a different internal hash (documented
    divergence). Returns (query_id, rank, docid, score)."""
    return function_score(index_dir, queries, field="docid",
                          modifier="random_score", params={"seed": seed},
                          where=where)


def script_score(
    index_dir: str,
    queries,
    expr: str = "_score * (1.0 + v / 256.0)",
    field: str = "doc_len",
    where=None,
) -> pd.DataFrame:
    """OpenSearch ``script_score`` query: every matching doc is re-scored by
    a script over ``_score`` (the BM25 score) and ``v`` (the doc's
    ``field`` value — Lucene's doc-values read at score time). The script
    is a restricted painless analog, checked on the driver and compiled
    once per probe block (:func:`_compile_score_script`): float + - * /, sqrt/log/min/max, no
    other names — so the same expression runs verbatim in a SQL oracle.
    Exact over the full match set (scored match-set shards + docmeta
    probe, as :func:`function_score`). Returns
    (query_id, rank, docid, score), score rounded half-up to 6 decimals."""
    return function_score(index_dir, queries, field=field, modifier="script",
                          params={"expr": expr}, where=where)


def resolve_script_docids(index_dir: str, expr: str, field: str = "doc_len"):
    """OpenSearch ``script`` query (filter context): the allow-set of docids
    whose ``field`` value makes the sandboxed integer script non-zero. The
    script compiles once on the driver and runs vectorized (numpy) on the
    pinned ``field`` column of each docmeta file; only matching docids leave
    a task, and the sorted set broadcasts once via ``ray.put`` — the same
    selective-filter contract as ``where``."""
    from remote_vector_index_builder_ray.stages.search import _compile_int_script

    return _allow_list(index_dir, [field], _script_docids, field,
                       _compile_int_script(expr))


def search_script_filter(
    index_dir: str,
    queries,
    expr: str = "v % 7",
    field: str = "doc_len",
    mode: str = "bmw",
) -> ray.data.Dataset:
    """OpenSearch bool.filter with a ``script`` query: candidates restricted
    to docs whose ``field`` makes ``expr`` non-zero; scores unchanged
    (filter context). The script evaluates once over the pinned docmeta
    column (:func:`resolve_script_docids`); the search then runs normally
    with the broadcast allow-list."""
    allow = ray.get(resolve_script_docids(index_dir, expr, field))
    return search(index_dir, queries, mode=mode, allow_docids=allow)


def search_pinned(
    index_dir: str,
    queries,
    mode: str = "exhaustive",
) -> pd.DataFrame:
    """OpenSearch ``pinned`` query: each query's ``pinned_ids`` (a
    list<int64> column) rank FIRST, in the given order, above every organic
    hit; organic results (the normal BM25 search on ``text``) follow with
    pinned docs deduplicated out. Pinned rows carry the synthetic
    descending score 1e6 - position (OpenSearch pins with a huge constant
    score the same way); organic rows keep their 6dp-rounded BM25 scores.
    Total rows per query capped at k. Pinned ids need not match the query
    text — a pin is unconditional, as in OpenSearch."""
    q = query_frame(queries)
    organic = search(index_dir, q[["query_id", "text", "k"]].assign(
        k=(q["k"] * 2).astype(np.int32)), mode=mode).to_pandas()
    organic["score"] = organic["score"].round(6)
    rows = []
    for r in q.itertuples(index=False):
        pins = [int(x) for x in (r.pinned_ids or [])]
        seen = set()
        pins = [p for p in pins if not (p in seen or seen.add(p))]
        k = int(r.k)
        for pos, p in enumerate(pins[:k]):
            rows.append((int(r.query_id), pos + 1, p, float(1e6 - pos)))
        org = organic[organic["query_id"] == r.query_id]
        org = org[~org["docid"].isin(pins)].sort_values(
            ["score", "docid"], ascending=[False, True])
        n_pin = min(len(pins), k)
        for j, (d, s) in enumerate(zip(org["docid"], org["score"])):
            if n_pin + j + 1 > k:
                break
            rows.append((int(r.query_id), n_pin + j + 1, int(d), float(s)))
    return pd.DataFrame(rows, columns=["query_id", "rank", "docid", "score"]).astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64})


def search_bool(
    index_dir: str,
    queries,
    where=None,
) -> pd.DataFrame:
    """Full OpenSearch ``bool`` query: per-query columns ``must_text``
    (every term required), ``text`` (should — optional, scoring),
    ``exclude_text`` (must_not), plus an optional global ``where`` filter
    context. Lucene BooleanQuery semantics with BM25 sum scoring: a doc
    qualifies when it contains ALL must terms, none of the excluded terms,
    and passes the filter; its score sums the BM25 contributions of every
    matching must-or-should term (both are scoring contexts in Lucene).

    Two streaming searches compose it: the scoring pass (union of must +
    should terms, exhaustive scorer — bit-equal float accumulation — with
    must_not/filter applied inside the actors) and a constant-score
    operator=and pass producing each query's must set; the driver-side
    intersect is per-query small. Returns (query_id, rank, docid, score),
    top-k, score desc / docid asc."""
    import numpy as np

    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text,
        load_analyzer,
    )

    q = query_frame(queries)
    k_by_query = {int(r.query_id): int(r.k) for r in q.itertuples(index=False)}
    an = load_analyzer(index_dir)

    # scoring pass: union of must + should terms, must_not inside the actors.
    # Both clause columns are optional (df.get returns a scalar "" for a
    # missing column, which has no .fillna — build a Series explicitly).
    def _col(name: str) -> pd.Series:
        if name in q.columns:
            return q[name].fillna("").astype(str)
        return pd.Series("", index=q.index)

    sq = pd.DataFrame({
        "query_id": q["query_id"].astype(np.int64),
        "text": _col("must_text") + " " + _col("text"),
        "k": np.full(len(q), K_MAX, dtype=np.int32),
    })
    if "exclude_text" in q.columns:
        sq["exclude_text"] = q["exclude_text"].fillna("")
    scored = search(index_dir, sq, mode="exhaustive", where=where).to_pandas()
    out_cols = {
        "query_id": pd.Series(dtype=np.int64),
        "rank": pd.Series(dtype=np.int32),
        "docid": pd.Series(dtype=np.int64),
        "score": pd.Series(dtype=np.float64),
    }
    if "docid" not in scored.columns or scored.empty:
        return pd.DataFrame(out_cols)

    # must pass: docs containing EVERY must term (constant-score AND);
    # queries without must terms impose no restriction
    musts = {
        int(r.query_id): analyze_text(str(r.must_text or ""), an)
        for r in q.itertuples(index=False)
    } if "must_text" in q.columns else {}
    restricted = [int(qid) for qid, toks in musts.items() if toks]
    must_sets: dict[int, np.ndarray] = {}
    if restricted:
        # the scorer's own AND semantics produce each must set exactly
        # (docids only needed; scores discarded)
        mq2 = pd.DataFrame({
            "query_id": pd.Series(restricted, dtype=np.int64),
            "text": [" ".join(musts[qid]) for qid in restricted],
            "k": np.full(len(restricted), K_MAX, dtype=np.int32),
        })
        mres = search(index_dir, mq2, mode="exhaustive", operator="and",
                      where=where).to_pandas()
        if "docid" in mres.columns:
            for qid, g in mres.groupby("query_id"):
                must_sets[int(qid)] = np.sort(g["docid"].to_numpy(np.int64))

    from remote_vector_index_builder_ray.stages.merge import isin_sorted

    parts = []
    for qid, g in scored.groupby("query_id"):
        qid = int(qid)
        if qid in set(restricted):
            allow = must_sets.get(qid)
            if allow is None or len(allow) == 0:
                continue  # a must term matched nothing: no hits
            g = g[isin_sorted(g["docid"].to_numpy(np.int64), allow)]
        parts.append(g)
    if not parts:
        return pd.DataFrame(out_cols)
    out = pd.concat(parts, ignore_index=True)
    out = out.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    out["rank"] = out.groupby("query_id").cumcount() + 1
    out["k"] = out["query_id"].map(k_by_query)
    out = out[out["rank"] <= out["k"]]
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64,
         "score": np.float64}
    ).reset_index(drop=True)
