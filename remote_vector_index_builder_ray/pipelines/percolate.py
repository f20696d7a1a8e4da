"""Percolator: reverse search — stream documents through STORED queries
(the OpenSearch percolate query; the alerting/classification primitive).

Where normal search asks "which docs match this query?", percolation asks
"which stored queries match this doc?" — the shape of a training-data
pipeline that classifies or routes a 100 TB document stream by thousands of
rules. Ray-Data-first design:

- The stored queries are the SMALL side: analyzed once on the driver into a
  flat (query_idx, term) table + per-query required-match counts, shipped to
  the stateless map tasks as their ``fn_args`` (one object-store copy with
  the operator's transform).
- The document stream is the BIG side: it flows through ``map_batches``
  exactly once, never indexed. Per batch, docs tokenize vectorized
  (dictionary-encoded), query terms map onto the batch vocabulary with one
  ``pa.Array.index``-free numpy ``get_indexer``, and doc matches come from
  searchsorted range lookups over the batch's sorted (term, doc) pairs — no
  Python loop over docs or tokens; the only loop is over the stored queries'
  terms PRESENT in the batch (bounded by the rule set, not the data).
- Output is a streaming Dataset of (conv_id, turn_idx, query_id) matches —
  write it, aggregate it, or join it; nothing materializes on the driver.

``operator="and"`` (the common alerting case) requires every query term in
the doc; ``operator="or"`` matches any term. A doc is one row, so matching
is batch-local — no shuffle anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from remote_vector_index_builder_ray.pipelines.query import query_frame


def _percolate_batch(batch: pa.Table, q_terms: list[str], q_ids: np.ndarray,
                     need_qid: np.ndarray, need_val: np.ndarray,
                     analyzer=None) -> pa.Table:
    """map_batches task: docs in, (conv_id, turn_idx, query_id) out.
    ``q_terms[i]`` belongs to stored query ``q_ids[i]``; query
    ``need_qid[j]`` matches a doc holding ``need_val[j]`` of its distinct
    terms (1 = OR) — parallel sorted arrays, so the per-pair lookup is a
    searchsorted, not a Python dict access per matched pair."""
    from remote_vector_index_builder_ray.functions.tokenizer import analyze_column

    empty = pa.table({
        "conv_id": pa.array([], type=pa.string()),
        "turn_idx": pa.array([], type=pa.int32()),
        "query_id": pa.array([], type=pa.int64()),
    })
    if batch.num_rows == 0:
        return empty
    tokens, doc_index, _ = analyze_column(batch["text"], analyzer)
    if len(tokens) == 0:
        return empty
    dicted = tokens.dictionary_encode()
    if isinstance(dicted, pa.ChunkedArray):
        dicted = dicted.combine_chunks()
    codes = dicted.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = pd.Index(dicted.dictionary.to_pylist())
    # distinct (term-code, doc) pairs, code-sorted -> range lookups
    key = codes * np.int64(batch.num_rows) + doc_index
    uniq = np.unique(key)
    u_code = uniq // batch.num_rows
    u_doc = uniq % batch.num_rows
    # stored-query terms present in THIS batch's vocabulary
    q_codes = vocab.get_indexer(pd.Index(q_terms))
    present = np.flatnonzero(q_codes >= 0)
    if len(present) == 0:
        return empty
    starts = np.searchsorted(u_code, q_codes[present], side="left")
    ends = np.searchsorted(u_code, q_codes[present], side="right")
    doc_parts, qid_parts = [], []
    for i, s, e in zip(present, starts, ends):
        if s < e:
            doc_parts.append(u_doc[s:e])
            qid_parts.append(np.full(e - s, q_ids[i], dtype=np.int64))
    if not doc_parts:
        return empty
    docs = np.concatenate(doc_parts)
    qids = np.concatenate(qid_parts)
    # one (doc, query) row per matched distinct term -> multiplicity is
    # the distinct-matched-term count; a query matches when it reaches
    # its required count
    pair = qids * np.int64(batch.num_rows) + docs
    u_pair, cnt = np.unique(pair, return_counts=True)
    p_qid = u_pair // batch.num_rows
    p_doc = u_pair % batch.num_rows
    needs = need_val[np.searchsorted(need_qid, p_qid)]
    keep = cnt >= needs
    p_qid, p_doc = p_qid[keep], p_doc[keep]
    if len(p_qid) == 0:
        return empty
    take = pa.array(p_doc)
    return pa.table({
        "conv_id": batch["conv_id"].combine_chunks().take(take),
        "turn_idx": batch["turn_idx"].combine_chunks().take(take),
        "query_id": pa.array(p_qid, type=pa.int64()),
    })


def percolate(
    input_paths: list[str],
    queries,
    operator: str = "and",
    analyzer=None,
    batch_size: int = 16384,
) -> ray.data.Dataset:
    """Stream the transcript files through the stored ``queries``
    (query_id, text); returns a Dataset of (conv_id, turn_idx, query_id)
    matches. ``operator``: "and" = every query term required (the alerting
    default), "or" = any term. A query with no analyzable terms matches
    nothing; under "and", a term absent from the whole corpus simply never
    completes its count."""
    from remote_vector_index_builder_ray.functions.tokenizer import analyze_text
    from remote_vector_index_builder_ray.state import fs

    if operator not in ("and", "or"):
        raise ValueError(f"operator must be 'and' or 'or', got {operator!r}")
    q_terms: list[str] = []
    q_ids: list[int] = []
    need: dict[int, int] = {}
    for r in query_frame(queries).itertuples(index=False):
        terms = sorted(set(analyze_text(r.text or "", analyzer)))
        if not terms:
            continue
        q_terms.extend(terms)
        q_ids.extend([int(r.query_id)] * len(terms))
        need[int(r.query_id)] = len(terms) if operator == "and" else 1
    ds = ray.data.read_parquet(
        **fs.for_ray_paths(input_paths), columns=["conv_id", "turn_idx", "text"]
    )
    need_qid = np.array(sorted(need), dtype=np.int64)
    return ds.map_batches(
        _percolate_batch,
        fn_args=(q_terms, np.asarray(q_ids, np.int64), need_qid,
                 np.array([need[int(q)] for q in need_qid], dtype=np.int64),
                 analyzer),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
