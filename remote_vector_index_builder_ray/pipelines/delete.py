"""Document deletes over an immutable index: tombstones + expunging merge.

The reference's artifacts are immutable — a delete is a new build job one
level up (the OpenSearch segment model: deletes are per-segment tombstone
bitsets applied at search time, made physical only when segments merge).
This module reproduces that model:

* ``delete_docs(index_dir, docids=... | conv_ids=...)`` records a tombstone
  batch under ``{index_dir}/tombstones/tomb-NNNN.parquet`` (sorted docids +
  their doc_len, for stats accounting) and appends a manifest entry. The
  index files are never touched; the operation is idempotent (re-deleting
  already-deleted docs is a no-op batch).

* The searcher (``stages/search.py``) loads the tombstone set once per actor
  and filters every scorer's candidates, so deleted docs never appear in
  results. **Corpus stats (N, avgdl) keep counting deleted docs until
  expunge** — exactly Lucene's numDocs-vs-maxDoc semantics — so scores of
  live docs are unchanged by a logical delete; the driver oracle mirrors
  this (stats over all docs, ranking over live docs).

* ``compact_index(index_dir)`` (``pipelines.incremental``) expunges: the
  bucket merge re-runs with the tombstone set broadcast to every merge task
  (``ray.put`` once, ``stages/merge.merge_partials_table`` drops the
  postings vectorized), stats shrink to the live corpus, and the tombstone
  files are retired. Post-expunge scores equal a from-scratch build over the
  live docs (same docid assignment, with holes).

Scale note (100 TB design point): a tombstone batch is driver-small by
contract (a delete REQUEST enumerates its victims); the accumulated set held
per searcher actor is a sorted int64 array — 8 bytes/deleted doc. At 10^12
turns an engine would hold per-docid-range bitsets aligned with the posting
shards instead (the Lucene per-segment layout); the file format here (docid
ranges per parquet row group) already supports that partitioning, only the
in-actor representation would change. Compact before the set grows past a
worker's heap.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from remote_vector_index_builder_ray.state import fs
from remote_vector_index_builder_ray.state.manifest import Manifest


def _load_manifest(index_dir: str) -> Manifest:
    from remote_vector_index_builder_ray.pipelines.incremental import (
        _load_completed_manifest,
    )

    return _load_completed_manifest(index_dir)


def load_tombstones(
    index_dir: str, man: Manifest | dict | None = None, include_expunged: bool = False
) -> np.ndarray:
    """The union of tombstone batches: sorted int64 docids (possibly empty).

    Reads only the files the manifest lists — a half-written batch (crash
    before the manifest append) is invisible, the commit point is the
    manifest save. By default only LIVE (not yet expunged) batches are
    returned — what the searcher must filter. ``include_expunged=True``
    returns the cumulative set: compaction needs it because the retained
    segment partials still contain postings expunged by EARLIER compactions,
    and re-merging without the full set would resurrect them."""
    data = man.data if isinstance(man, Manifest) else man
    if data is None:
        m = Manifest.load(index_dir)
        data = m.data if m is not None else {}
    ids: list[np.ndarray] = []
    for t in data.get("tombstones", []):
        if t.get("expunged") and not include_expunged:
            continue
        tbl = fs.read_table(fs.join(index_dir, t["file"]), columns=["docid"])
        ids.append(tbl["docid"].to_numpy(zero_copy_only=False).astype(np.int64))
    if not ids:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(ids))


def _resolve_victims(index_dir: str, docids, conv_ids) -> pa.Table:
    """(docid, doc_len) of the requested victims, via a distributed filtered
    scan of every docmeta root (base + generations). The predicate set is
    broadcast once (``ray.put``) into ``stages.merge.semi_join``."""
    import ray
    import ray.data

    from remote_vector_index_builder_ray.pipelines.incremental import docmeta_files
    from remote_vector_index_builder_ray.stages.merge import semi_join, to_frame

    if (docids is None) == (conv_ids is None):
        raise ValueError("pass exactly one of docids= or conv_ids=")
    if docids is not None:
        key_col, keys = "docid", np.unique(np.asarray(list(docids), dtype=np.int64))
    else:
        key_col, keys = "conv_id", np.unique(np.asarray(sorted(set(conv_ids)), dtype=object))
    dm = ray.data.read_parquet(**fs.for_ray_paths(docmeta_files(index_dir)),
                               columns=["docid", "doc_len", "conv_id"])
    # a delete batch is driver-small by contract (see module docstring)
    df = to_frame(semi_join(dm, key_col, ray.put(keys)))
    return pa.Table.from_pandas(df[["docid", "doc_len"]], preserve_index=False)


def delete_docs(
    index_dir: str,
    docids=None,
    conv_ids=None,
) -> dict:
    """Tombstone the given docs (by docid or by whole conversation).

    Returns ``{"deleted": n_new, "total_tombstoned": n_all}``. Idempotent:
    docs already tombstoned are skipped (and don't double-count in the
    stats accounting the expunge uses)."""
    man = _load_manifest(index_dir)
    victims = _resolve_victims(index_dir, docids, conv_ids)
    v_doc = victims["docid"].to_numpy(zero_copy_only=False).astype(np.int64)
    v_len = victims["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(v_doc)
    v_doc, v_len = v_doc[order], v_len[order]

    existing = load_tombstones(index_dir, man, include_expunged=True)
    if len(existing):
        from remote_vector_index_builder_ray.stages.merge import isin_sorted

        fresh = ~isin_sorted(v_doc, existing)
        v_doc, v_len = v_doc[fresh], v_len[fresh]
    if len(v_doc) == 0:
        return {"deleted": 0, "total_tombstoned": int(len(existing))}

    batches = man.data.setdefault("tombstones", [])
    rel = f"tombstones/tomb-{len(batches) + 1:04d}.parquet"
    fs.makedirs(fs.join(index_dir, "tombstones"))
    fs.write_table(
        pa.table({
            "docid": pa.array(v_doc, type=pa.int64()),
            "doc_len": pa.array(v_len, type=pa.int64()),
        }),
        fs.join(index_dir, rel),
    )
    batches.append(
        {
            "file": rel,
            "n": int(len(v_doc)),
            "deleted_len": int(v_len.sum()),
            "deleted_at": time.time(),
        }
    )
    man.save()
    return {"deleted": int(len(v_doc)), "total_tombstoned": int(len(existing) + len(v_doc))}


def _write_tombstone_shard_impl(index_dir: str, rel: str, piece_refs: list,
                                existing: np.ndarray, meta_files: list,
                                lo: int, hi: int):
    """One docid-range shard's tombstone file, written IN the task: merge the
    shard's match-set pieces (flat (qids, docids) arrays, every qid 0 by the
    single-query contract), drop already-tombstoned docids, join doc_len
    from the docmeta files overlapping [lo, hi) (row-group docid statistics
    prune the rest), write ``rel``. Returns (rel, n, deleted_len) — counts only; no docid
    ever lands on the driver."""
    import pyarrow.parquet as pq
    import ray as _ray

    from remote_vector_index_builder_ray.stages.merge import isin_sorted

    pieces = _ray.get(list(piece_refs))
    docs = np.unique(np.concatenate([p[1] for p in pieces]))
    if len(existing):
        docs = docs[~isin_sorted(docs, existing)]
    if len(docs) == 0:
        return None
    lens = np.zeros(len(docs), dtype=np.int64)
    seen = np.zeros(len(docs), dtype=bool)
    for f in meta_files:
        pf = pq.ParquetFile(fs.open_input(f))
        md = pf.metadata
        di = next(i for i in range(md.num_columns)
                  if md.schema.column(i).name == "docid")
        rgs = []
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(di).statistics
            if st is None or st.min is None or (st.max >= lo and st.min < hi):
                rgs.append(g)
        if not rgs:
            continue
        tbl = pf.read_row_groups(rgs, columns=["docid", "doc_len"])
        d = tbl["docid"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = tbl["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(docs, d)
        ok = (pos < len(docs)) & (docs[np.minimum(pos, len(docs) - 1)] == d)
        lens[pos[ok]] = ln[ok]
        seen[pos[ok]] = True
    docs, lens = docs[seen], lens[seen]  # docmeta is the live-doc authority
    if len(docs) == 0:
        return None
    fs.write_table(
        pa.table({
            "docid": pa.array(docs, type=pa.int64()),
            "doc_len": pa.array(lens, type=pa.int64()),
        }),
        fs.join(index_dir, rel),
    )
    return rel, int(len(docs)), int(lens.sum())


def delete_by_query(
    index_dir: str,
    text: str,
    where=None,
) -> dict:
    """OpenSearch ``_delete_by_query`` with a match query: tombstone every
    doc containing ANY of the analyzed query's terms (optionally restricted
    by a docmeta ``where`` predicate). Scores of surviving docs are
    bit-unchanged (Lucene numDocs-vs-maxDoc logical delete semantics).

    Scale path: the match set is produced DISTRIBUTED
    (``aggs._sharded_matches`` — each searcher actor packs its matches into
    docid-range shard pieces; the driver holds only ObjectRefs and
    per-query counts) and each shard's tombstone parquet is written by its
    own ``_write_tombstone_shard`` task. A stopword delete over 10^12 turns
    never lands a docid on the driver; the commit point is unchanged (one
    manifest append AFTER every shard file is durable — a crash before the
    append leaves invisible orphan files, not a partial delete)."""
    import pandas as pd
    import ray

    from remote_vector_index_builder_ray.pipelines.aggs import (
        _MATCH_SHARD_STRIDE,
        _sharded_matches,
    )
    from remote_vector_index_builder_ray.pipelines.incremental import docmeta_files
    from remote_vector_index_builder_ray.stages.search import K_MAX

    man = _load_manifest(index_dir)
    q = pd.DataFrame({
        "query_id": np.array([0], dtype=np.int64),
        "text": [text],
        "k": np.array([K_MAX], dtype=np.int32),
    })
    shard_refs, qids, counts = _sharded_matches(index_dir, q, where=where)
    existing = load_tombstones(index_dir, man, include_expunged=True)
    if not shard_refs:
        return {"deleted": 0, "total_tombstoned": int(len(existing))}
    existing_ref = ray.put(existing)
    meta_files = docmeta_files(index_dir)
    batches = man.data.setdefault("tombstones", [])
    base = len(batches) + 1
    fs.makedirs(fs.join(index_dir, "tombstones"))
    stride = _MATCH_SHARD_STRIDE
    shard_task = ray.remote(_write_tombstone_shard_impl)
    futures = []
    for sid in sorted(shard_refs):
        rel = f"tombstones/tomb-{base:04d}-shard-{sid:06d}.parquet"
        # piece refs ride inside a list argument, which Ray does NOT
        # auto-resolve (only top-level ObjectRef args like existing_ref
        # are); the shard task fetches them itself via ray.get(list(...))
        # inside _write_tombstone_shard_impl — the driver never fetches a
        # docid either way
        futures.append(shard_task.remote(
            index_dir, rel, shard_refs[sid],
            existing_ref, meta_files, sid * stride, (sid + 1) * stride,
        ))
    results = [r for r in ray.get(futures) if r is not None]
    n_new = sum(r[1] for r in results)
    if n_new == 0:
        return {"deleted": 0, "total_tombstoned": int(len(existing))}
    now = time.time()
    for rel, n, dlen in results:
        batches.append(
            {"file": rel, "n": n, "deleted_len": dlen, "deleted_at": now}
        )
    man.save()
    return {"deleted": int(n_new),
            "total_tombstoned": int(len(existing) + n_new)}
