"""Parent/child join queries over the conversation hierarchy (the OpenSearch
``join`` field's ``has_child`` / ``has_parent`` queries).

The transcript corpus IS a parent/child dataset: a conversation (parent) owns
its turns (children) via ``conv_id``, and docids are dense in (conv_id,
turn_idx) order (stages/docids.py invariant) — so the join never needs a
shuffle:

- ``has_child``: score every turn (the child query), group scores by
  conversation, rank conversations by a ``score_mode`` combination of their
  children's scores (OpenSearch has_child score_mode max/sum/avg/min/none).
  Distribution: the scored match sets shard by docid range off the driver
  (``aggs._sharded_matches(scored=True)``); the docmeta table streams once
  through a per-batch combiner that pre-aggregates per (query, conv) — a
  conversation's turns are docid-contiguous, so per-batch partials stay
  small and at most two batches share one conversation. The (query, conv)
  partial reduce runs driver-side below ``distributed_threshold`` total
  matches and as a Ray Data groupby + per-block top-k combine above it —
  a stopword child query over 100 TB never lands a corpus-sized partial
  list on the driver.

- ``has_parent``: the parent document is the conversation's opening turn
  (turn_idx == 0). Parents are scored by the normal top-k engine under a
  filter-context restriction to turn_idx == 0 (``search(where=...)``:
  corpus stats unchanged — Lucene scores parent docs against the whole
  index, the join field only partitions doc types). Each child of a top-k
  parent inherits the parent's score (OpenSearch has_parent score=true).
  Children come from the broadcast semi-join over the pinned docmeta
  (``pipelines.query.docmeta_lookup``): the top parents' conv_id set ships
  once via ``ray.put``, one task per docmeta file keeps those
  conversations' turns, and the driver-small child rows take their
  parent's score on the driver — no shuffle.

Reference analog: the reference's workflow has no query engine at all
(``remote_vector_index_builder/app/...`` builds one index per request);
OpenSearch's join field is the parity target here.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from remote_vector_index_builder_ray.pipelines.aggs import (
    _np,
    _probe_ds,
    _sharded_matches,
    _top_n,
)
from remote_vector_index_builder_ray.pipelines.query import (
    docmeta_lookup,
    hydrate,
    query_frame,
    search,
)
from remote_vector_index_builder_ray.stages.search import capped_k

_CHILD_COLS = {
    "query_id": np.int64,
    "rank": np.int32,
    "conv_id": object,
    "score": np.float64,
    "n_matching": np.int64,
}


def _round6(a):
    # half-up 6-decimal rounding, bit-agreeing with DuckDB round(x, 6)
    return np.floor(np.asarray(a, dtype=np.float64) * 1e6 + 0.5) / 1e6


def _probe_child_agg(batch: pa.Table, qids, rows, scores) -> pa.Table:
    """has_child update: per (query, conv_id) the block's matching-turn
    count and max / min / sum of 6-rounded child scores. Only queries x
    convs-in-block rows leave each task."""
    # (qid, row) order: each conv's sum adds its turns in docid order, one
    # sequential float sum per group (a pandas groupby sum is compensated
    # and may differ in the last ulp)
    order = np.lexsort((rows, qids))
    qids, rows, s = qids[order], rows[order], _round6(scores[order])
    convs = _np(batch, "conv_id")[rows]
    g = pd.DataFrame({"query_id": qids, "conv_id": convs}).groupby(
        ["query_id", "conv_id"], sort=False).ngroup().to_numpy()
    first = np.unique(g, return_index=True)[1]
    n = np.bincount(g, minlength=len(first))
    smax = np.full(len(first), -np.inf)
    np.maximum.at(smax, g, s)
    smin = np.full(len(first), np.inf)
    np.minimum.at(smin, g, s)
    return pa.table({
        "query_id": pa.array(qids[first], type=pa.int64()),
        "conv_id": pa.array(convs[first], type=pa.string()),
        "n": pa.array(n, type=pa.int64()),
        "smax": pa.array(smax, type=pa.float64()),
        "smin": pa.array(smin, type=pa.float64()),
        "ssum": pa.array(np.bincount(g, s, minlength=len(first)), type=pa.float64()),
    })


def _combine_child(df: pd.DataFrame, score_mode: str) -> pd.DataFrame:
    g = (
        df.groupby(["query_id", "conv_id"], sort=False)
        .agg(n_matching=("n", "sum"), smax=("smax", "max"),
             smin=("smin", "min"), ssum=("ssum", "sum"))
        .reset_index()
    )
    if score_mode == "max":
        g["score"] = g["smax"]
    elif score_mode == "sum":
        g["score"] = _round6(g["ssum"])
    elif score_mode == "avg":
        g["score"] = _round6(g["ssum"] / g["n_matching"])
    elif score_mode == "min":
        g["score"] = g["smin"]
    elif score_mode == "none":
        g["score"] = 1.0  # constant-score join, like OpenSearch score_mode none
    else:
        raise ValueError(f"unknown score_mode {score_mode!r}")
    return g[["query_id", "conv_id", "n_matching", "score"]]


def _block_top_k(batch: pa.Table, k: int, score_mode: str,
                 min_children: int) -> pa.Table:
    """Per-block top-k combiner over combined (query, conv) rows — the
    distributed reduce's second stage. Runs AFTER the (query, conv) hash
    groupby, so each pair is complete in exactly one block; applying the
    min_children filter here keeps the per-block cut exact. Associative:
    merging per-block top-k partials and cutting again gives the global
    top-k."""
    df = _combine_child(batch.to_pandas(), score_mode)
    top = _top_n(df[df["n_matching"] >= min_children], ["query_id"], ["score"],
                 k, tie="conv_id").drop(columns=["rank"])
    return pa.Table.from_pandas(top, preserve_index=False)


def has_child(
    index_dir: str,
    queries,
    k: int = 10,
    score_mode: str = "max",
    min_children: int = 1,
    where=None,
    distributed_threshold: int = 20_000_000,
) -> pd.DataFrame:
    """OpenSearch ``has_child`` query: the top-``k`` CONVERSATIONS per query,
    ranked by ``score_mode`` over their matching turns' BM25 scores
    (6-rounded; ties broken conv_id ascending). ``min_children`` drops
    conversations with fewer matching turns (OpenSearch min_children).
    Returns (query_id, rank, conv_id, score, n_matching)."""
    shard_refs, _, counts = _sharded_matches(
        index_dir, queries, where=where, scored=True
    )
    partials = _probe_ds(index_dir, ["docid", "conv_id"], _probe_child_agg,
                         shard_refs)
    total = sum(counts.values())
    if total > distributed_threshold:
        # scale path: a (query, conv) pair may span two adjacent batches, so
        # first co-locate pairs with a hash groupby (partials only — bounded
        # by matched convs, never corpus rows), then per-block top-k, then a
        # k-bounded driver merge
        def _key(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            key = pc.binary_join_element_wise(
                pc.cast(batch["query_id"], pa.string()),
                batch["conv_id"], "|",
            )
            return batch.append_column("qc", key)

        combined = (
            partials.map_batches(_key, batch_format="pyarrow")
            .groupby("qc")
            .map_groups(
                lambda df: df.groupby(["query_id", "conv_id"], as_index=False)
                .agg(n=("n", "sum"), smax=("smax", "max"),
                     smin=("smin", "min"), ssum=("ssum", "sum")),
                batch_format="pandas",
            )
            .map_batches(_block_top_k, fn_args=(k, score_mode, min_children),
                         batch_format="pyarrow")
        )
        g = combined.to_pandas()
        if g.empty:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _CHILD_COLS.items()})
    else:
        df = partials.to_pandas()
        if df.empty:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in _CHILD_COLS.items()})
        g = _combine_child(df, score_mode)
        g = g[g["n_matching"] >= min_children]
    g = _top_n(g, ["query_id"], ["score"], k, tie="conv_id").reset_index(drop=True)
    return g[["query_id", "rank", "conv_id", "score", "n_matching"]].astype(_CHILD_COLS)


def has_parent(index_dir: str, queries, k: int = 10) -> pd.DataFrame:
    """OpenSearch ``has_parent`` query (score=true): children of the top-``k``
    matching PARENT docs per query, each child carrying its parent's BM25
    score. The parent document is the conversation's opening turn
    (turn_idx == 0); children are that conversation's other turns. Returns
    (query_id, conv_id, turn_idx, docid, score), ordered by
    (query_id, score desc, conv_id, turn_idx)."""
    q = query_frame(queries)
    k_by_query = dict(zip(q["query_id"], [k] * len(q)))
    # oversample 2k so the 6-rounded re-rank can't lose a boundary parent
    q2 = q.assign(k=capped_k(2 * k))
    parents = search(
        index_dir, q2, mode="exhaustive", where=[("turn_idx", "=", 0)]
    ).to_pandas()
    cols = {
        "query_id": np.int64, "conv_id": object, "turn_idx": np.int32,
        "docid": np.int64, "score": np.float64,
    }
    if parents.empty or "docid" not in parents.columns:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    parents["score"] = _round6(parents["score"])
    parents = parents.sort_values(["query_id", "score", "docid"],
                                  ascending=[True, False, True])
    parents["rank"] = parents.groupby("query_id").cumcount() + 1
    parents = parents[parents["rank"] <= parents["query_id"].map(k_by_query)]
    # parent docid -> conv_id (queries x k rows)
    hyd = hydrate(index_dir, parents[["query_id", "docid", "score"]],
                  columns=["conv_id"])
    pmap = hyd[["query_id", "conv_id", "score"]].drop_duplicates()
    kids = docmeta_lookup(index_dir, "conv_id",
                          np.sort(pmap["conv_id"].unique().astype(object)),
                          ["docid", "turn_idx"])
    # the lookup keeps its column types at zero rows, so no early return
    kids = kids[kids["turn_idx"] > 0].merge(pmap, on="conv_id", how="inner")
    kids = kids.sort_values(["query_id", "score", "conv_id", "turn_idx"],
                            ascending=[True, False, True, True])
    return kids[list(cols)].reset_index(drop=True).astype(cols)
