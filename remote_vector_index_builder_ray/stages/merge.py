"""Term-keyed merge of posting partials into compressed global postings.

The ONE wide, unavoidable shuffle of the build (the step the reference instead
centralizes onto a single GPU, ``core/index_builder/faiss/faiss_index_build_service.py:47-163``):
``groupby(term, shard).map_groups(merge)``. The ``shard`` key is the
heavy-hitter salt — a stopword's postings at 10^12-turn scale span many docid
shards, so no single group ever holds more than ``shard_range`` postings, and
the querier simply reads a term's shards in shard (== docid) order.

Output segment row = the engine's index artifact unit (analog of the serialized
``.faiss`` graph, ``core/tasks.py:372-381``): delta+varint block payloads plus
block-max ``tfnorm`` metadata. The idf factor is deliberately NOT baked into
block maxes — global df is only known after summing shard dfs — so bmw
computes ``idf * block_max_tfnorm`` at query time.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from remote_vector_index_builder_ray.functions.bm25 import tfnorm
from remote_vector_index_builder_ray.functions.codec import (
    encode_posting_blocks,
    varint_encode_offsets,
)

SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("shard", pa.int32()),
        ("df_shard", pa.int64()),
        ("cf_shard", pa.int64()),
        ("first_docids", pa.list_(pa.int64())),
        ("last_docids", pa.list_(pa.int64())),
        ("counts", pa.list_(pa.int32())),
        ("max_tfnorm", pa.list_(pa.float32())),
        ("docid_bytes", pa.list_(pa.binary())),
        ("tf_bytes", pa.list_(pa.binary())),
        ("dl_bytes", pa.list_(pa.binary())),
    ]
)


def make_merge_fn(avgdl: float, k1: float, b: float, block_size: int):
    """Per-(term, shard) group merge: concat partials -> docid sort ->
    delta+varint blocks + block-max tfnorm.

    Returns a closure for ``groupby(...).map_groups`` carrying the global
    stats (avgdl) — tiny values shipped once in the task closure, not per
    batch.
    """

    def merge_compress(group: pa.Table) -> pa.Table:
        term = group["term"][0].as_py()
        shard = group["shard"][0].as_py()
        docids = np.concatenate(
            [c.flatten().to_numpy(zero_copy_only=False) for c in group["docids"].chunks]
        ).astype(np.int64)
        tfs = np.concatenate(
            [c.flatten().to_numpy(zero_copy_only=False) for c in group["tfs"].chunks]
        ).astype(np.int64)
        dls = np.concatenate(
            [c.flatten().to_numpy(zero_copy_only=False) for c in group["dls"].chunks]
        ).astype(np.int64)
        order = np.argsort(docids, kind="stable")
        docids, tfs, dls = docids[order], tfs[order], dls[order]
        if len(docids) > 1 and (np.diff(docids) <= 0).any():
            raise ValueError(f"duplicate docid in postings of term={term!r} shard={shard}")

        blocks = encode_posting_blocks(docids, tfs, dls, block_size)
        lasts = [
            int(docids[min(s + block_size, len(docids)) - 1])
            for s in range(0, len(docids), block_size)
        ]
        tn = tfnorm(tfs, dls, avgdl, k1, b)
        # float32 upper bound per block (rounded UP so pruning is always safe)
        maxes = [
            float(np.nextafter(np.float32(tn[s : s + block_size].max()), np.float32(np.inf)))
            for s in range(0, len(tn), block_size)
        ]
        return pa.table(
            {
                "term": pa.array([term], type=pa.string()),
                "shard": pa.array([shard], type=pa.int32()),
                "df_shard": pa.array([len(docids)], type=pa.int64()),
                "cf_shard": pa.array([int(tfs.sum())], type=pa.int64()),
                "first_docids": pa.array([blocks["first_docid"]], type=pa.list_(pa.int64())),
                "last_docids": pa.array([lasts], type=pa.list_(pa.int64())),
                "counts": pa.array([blocks["count"]], type=pa.list_(pa.int32())),
                "max_tfnorm": pa.array([maxes], type=pa.list_(pa.float32())),
                "docid_bytes": pa.array([blocks["docid_bytes"]], type=pa.list_(pa.binary())),
                "tf_bytes": pa.array([blocks["tf_bytes"]], type=pa.list_(pa.binary())),
                "dl_bytes": pa.array([blocks["dl_bytes"]], type=pa.list_(pa.binary())),
            }
        )

    return merge_compress


# ---------------------------------------------------------------------------
# Vectorized bucket merge: the production path. Phase A hive-partitions the
# partials by crc32(term) %% num_buckets (the map-side file shuffle);
# merge_partials_table() merges ALL of a bucket's (term, shard) groups in one
# numpy/Arrow pass — no per-group Python calls, no per-block byte slicing
# (binary arrays are built zero-copy from the single varint buffer + offset
# arrays). make_merge_fn above is kept as the naive per-group reference the
# tests compare against.
# ---------------------------------------------------------------------------


def isin_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``values`` in a SORTED array (int64 docids,
    or strings compared as Python objects)."""
    if len(sorted_set) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_set, values)
    idx[idx == len(sorted_set)] = 0
    return sorted_set[idx] == values


def semi_join(ds, column: str, sorted_keys_ref, anti: bool = False):
    """Broadcast semi-join: the rows of ``ds`` whose ``column`` value is in
    the SORTED key array behind ``sorted_keys_ref`` (``anti=True``: the rows
    whose value is not). The small side is ``ray.put`` once by the caller;
    every block filters with one ``isin_sorted`` in a stateless task — no
    shuffle, no actor pool. An empty key set keeps no row (anti: every
    row); collect a possibly empty result with ``to_frame``."""
    return ds.map_batches(
        _semi_join_batch, fn_args=(column, sorted_keys_ref, anti),
        batch_format="pyarrow", zero_copy_batch=True,
    )


def _semi_join_batch(batch: pa.Table, column: str, sorted_keys_ref,
                     anti: bool) -> pa.Table:
    import ray

    vals = batch[column].to_numpy(zero_copy_only=False)
    hit = isin_sorted(vals, ray.get(sorted_keys_ref))
    return batch.filter(pa.array(hit != anti))


def to_frame(ds) -> "pd.DataFrame":
    """``ds`` as a pandas frame that keeps its columns at zero rows — Ray's
    ``to_pandas`` skips empty blocks, so a Dataset whose blocks are all
    empty yields a frame with no columns, while each empty block still
    carries them."""
    import ray

    ds = ds.materialize()
    df = ds.to_pandas()
    if len(df.columns) == 0 and ds.num_blocks():
        return ray.get(ds.to_pandas_refs()[0])
    return df


def merge_partials_table(
    tbl: pa.Table, avgdl: float, k1: float, b: float, block_size: int,
    tombstones: np.ndarray | None = None,
) -> pa.Table:
    """Merge every (term, shard) group in ``tbl`` (posting partials) into
    compressed segment rows — fully vectorized.

    Steps: flatten list columns -> lexsort postings by (term, shard, docid) ->
    cut group/block boundaries with masks -> single varint pass per stream ->
    build list<binary> block payloads zero-copy from (offsets, buffer).

    ``tombstones`` (sorted int64 docids) physically drops those postings —
    the expunge-deletes path of ``pipelines.delete`` / ``compact_index``
    (Lucene's forceMergeDeletes analog). Groups left empty disappear.
    """
    if tbl.num_rows == 0:
        return SEGMENT_SCHEMA.empty_table()
    tbl = tbl.combine_chunks()
    term_d = tbl["term"].combine_chunks().dictionary_encode()
    if isinstance(term_d, pa.ChunkedArray):
        term_d = term_d.combine_chunks()
    row_code = term_d.indices.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    vocab = term_d.dictionary
    row_shard = tbl["shard"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64, copy=False)

    docids_col = tbl["docids"].combine_chunks()
    list_off = docids_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    v_doc = docids_col.flatten().to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    # tf/dl stay at their stored int32 width end-to-end (zero-copy from Arrow;
    # half the gather/sort memory traffic of an int64 upcast — the merge is
    # DRAM-bound, not compute-bound)
    v_tf = tbl["tfs"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
    v_dl = tbl["dls"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
    row_of_value = np.repeat(np.arange(tbl.num_rows, dtype=np.int64), np.diff(list_off))
    # pack (code, shard) into ONE sort key; per-posting code/shard columns are
    # never materialized — group-level values are recovered from the key at
    # the 1000x-smaller group_starts (cuts four 8B*n_postings gathers of
    # memory traffic; the merge is DRAM-bound at scale)
    shard_mult = np.int64(row_shard.max() + 1)
    gkey_row = row_code * shard_mult + row_shard
    v_gkey = gkey_row[row_of_value]

    if tombstones is not None and len(tombstones):
        keep = ~isin_sorted(v_doc, tombstones)
        if not keep.all():
            v_doc, v_tf, v_dl, v_gkey = v_doc[keep], v_tf[keep], v_dl[keep], v_gkey[keep]
            if len(v_doc) == 0:
                return SEGMENT_SCHEMA.empty_table()

    order = np.lexsort((v_doc, v_gkey))
    v_gkey, v_doc, v_tf, v_dl = (
        v_gkey[order], v_doc[order], v_tf[order], v_dl[order]
    )
    n = len(v_doc)

    group_change = np.empty(n, dtype=bool)
    group_change[0] = True
    group_change[1:] = v_gkey[1:] != v_gkey[:-1]
    same_group = ~group_change[1:]
    if n > 1 and (np.diff(v_doc)[same_group] <= 0).any():
        raise ValueError("duplicate docid within a (term, shard) posting group")

    group_starts = np.flatnonzero(group_change)
    # position within group -> block starts every block_size postings
    last_group_start = group_starts[np.searchsorted(group_starts, np.arange(n), side="right") - 1]
    pos_in_group = np.arange(n) - last_group_start
    block_start_mask = (pos_in_group % block_size) == 0
    block_starts = np.flatnonzero(block_start_mask)
    block_ends = np.append(block_starts[1:], n)
    counts = (block_ends - block_starts).astype(np.int64)
    first_docid = v_doc[block_starts]
    last_docid = v_doc[block_ends - 1]
    nblocks = len(block_starts)

    # --- varint streams -----------------------------------------------------
    deltas = np.empty(n, dtype=np.int64)
    deltas[0] = 0
    deltas[1:] = np.diff(v_doc)
    delta_vals = deltas[~block_start_mask]  # block-first docids live in metadata
    if len(delta_vals) and int(delta_vals.max()) < (1 << 32):
        delta_vals = delta_vals.astype(np.uint32)  # narrow encode stream
    enc_d, ends_d = varint_encode_offsets(delta_vals)
    enc_t, ends_t = varint_encode_offsets(v_tf)
    enc_l, ends_l = varint_encode_offsets(v_dl)

    def _binary_blocks(buf: bytes, val_end_offsets: np.ndarray, vals_per_block: np.ndarray) -> pa.Array:
        """BinaryArray of per-block byte slices, zero-copy over ``buf``."""
        B = np.concatenate([[0], val_end_offsets]).astype(np.int64)
        cum_vals = np.concatenate([[0], np.cumsum(vals_per_block)])
        byte_offs = B[cum_vals].astype(np.int32)
        return pa.Array.from_buffers(
            pa.binary(), len(vals_per_block),
            [None, pa.py_buffer(byte_offs.tobytes()), pa.py_buffer(buf)],
        )

    docid_bytes = _binary_blocks(enc_d, ends_d, counts - 1)
    tf_bytes = _binary_blocks(enc_t, ends_t, counts)
    dl_bytes = _binary_blocks(enc_l, ends_l, counts)

    tn = tfnorm(v_tf, v_dl, avgdl, k1, b)
    block_max = np.maximum.reduceat(tn, block_starts)
    block_max32 = np.nextafter(block_max.astype(np.float32), np.float32(np.inf))

    # --- group-level rows (code/shard unpacked from the packed key) ---------
    g_key = v_gkey[group_starts]
    g_code = g_key // shard_mult
    g_shard = (g_key % shard_mult).astype(np.int32)
    g_sizes = np.diff(np.append(group_starts, n))
    g_cf = np.add.reduceat(v_tf, group_starts, dtype=np.int64)
    group_of_block = np.searchsorted(group_starts, block_starts, side="right") - 1
    blocks_per_group = np.bincount(group_of_block, minlength=len(group_starts))
    g_block_off = np.concatenate([[0], np.cumsum(blocks_per_group)]).astype(np.int32)
    lo = pa.array(g_block_off)

    out = pa.table(
        {
            "term": vocab.take(pa.array(g_code)).cast(pa.string()),
            "shard": pa.array(g_shard, type=pa.int32()),
            "df_shard": pa.array(g_sizes, type=pa.int64()),
            "cf_shard": pa.array(g_cf, type=pa.int64()),
            "first_docids": pa.ListArray.from_arrays(lo, pa.array(first_docid, type=pa.int64())),
            "last_docids": pa.ListArray.from_arrays(lo, pa.array(last_docid, type=pa.int64())),
            "counts": pa.ListArray.from_arrays(lo, pa.array(counts.astype(np.int32), type=pa.int32())),
            "max_tfnorm": pa.ListArray.from_arrays(lo, pa.array(block_max32, type=pa.float32())),
            "docid_bytes": pa.ListArray.from_arrays(lo, docid_bytes),
            "tf_bytes": pa.ListArray.from_arrays(lo, tf_bytes),
            "dl_bytes": pa.ListArray.from_arrays(lo, dl_bytes),
        }
    )
    # order rows lexicographically by (term, shard) so parquet row-group
    # stats on `term` stay tight for query-time predicate pushdown
    vocab_np = np.asarray(vocab.to_pylist(), dtype=object)
    rank = np.empty(len(vocab_np), dtype=np.int64)
    rank[np.argsort(vocab_np)] = np.arange(len(vocab_np))
    row_order = np.lexsort((g_shard, rank[g_code]))
    return out.take(pa.array(row_order))


def _term_split_mask(term_col: pa.ChunkedArray, nsplits: int, split: int) -> pa.Array:
    """Boolean mask of rows whose term hashes into ``split`` (stable FNV-ish
    hash over the dictionary-encoded vocab — one Python hash per UNIQUE term)."""
    import zlib

    d = term_col.combine_chunks().dictionary_encode()
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab_split = np.fromiter(
        (zlib.crc32(b"skew:" + t.encode()) % nsplits for t in d.dictionary.to_pylist()),
        dtype=np.int64, count=len(d.dictionary),
    )
    return pa.array(vocab_split[codes] == split)


# parquet bytes inflate roughly this much when decoded to in-memory Arrow +
# merge working set (measured ~2.5x at sf0.1; rounded up for safety)
_MERGE_INFLATION = 4


def merge_bucket_files(
    files: list[str],
    avgdl: float,
    k1: float,
    b: float,
    block_size: int,
    bucket: int,
    postings_path: str,
    termstats_path: str,
    row_group_size: int = 256,
    byte_budget: int = 1 << 30,
    tombstones: np.ndarray | None = None,
):
    """One bucket's whole merge: read its partial files (written hive-
    partitioned by phase A — the map-side shuffle), merge+compress all
    (term, shard) groups vectorized, write the postings file (deterministic
    ``bucket-NNNNN.parquet`` name the searcher addresses by hash) and the
    bucket's term stats. Runs as a plain Ray task; the whole merge phase is
    just num_buckets independent tasks — no sort/groupby machinery. All paths
    are URIs resolved via the ``state.fs`` object-store layer, so the task
    runs unchanged on any node of a multi-node cluster.

    Skew guard: bucket count scales with input bytes, but a stopword-heavy
    corpus can still concentrate one bucket far beyond a worker's heap. When
    the bucket's compressed partials exceed ``byte_budget / _MERGE_INFLATION``
    the merge runs in term-hash sub-splits — S passes over the bucket's
    files, each holding only ~1/S of the postings in memory, appended as row
    groups to the SAME output file (a term never spans splits, so term stats
    and the searcher's per-term reads are unaffected; only the file-global
    term sort order is relaxed to per-split order).
    """
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.state import fs

    total_bytes = sum(fs.file_size(f) for f in files)
    nsplits = max(1, int(np.ceil(total_bytes * _MERGE_INFLATION / byte_budget)))

    posting_writer: pq.ParquetWriter | None = None
    ts_parts: list[pa.Table] = []
    n_rows = 0
    try:
        for split in range(nsplits):
            parts = []
            for f in files:
                # explicit column list: positional builds carry an extra
                # ``positions`` column in the same partial files that the BM25
                # merge must never pay to read (parquet column pruning)
                t = fs.read_table(f, columns=["term", "shard", "docids", "tfs", "dls"])
                if nsplits > 1:
                    t = t.filter(_term_split_mask(t["term"], nsplits, split))
                parts.append(t)
            tbl = pa.concat_tables(parts, promote_options="default")
            merged = merge_partials_table(tbl, avgdl, k1, b, block_size, tombstones=tombstones)
            merged = merged.append_column(
                "bucket", pa.array(np.full(merged.num_rows, bucket, dtype=np.int32))
            )
            if posting_writer is None:
                pfs, ppath = fs.resolve(postings_path)
                posting_writer = pq.ParquetWriter(ppath, merged.schema, filesystem=pfs)
            posting_writer.write_table(merged, row_group_size=row_group_size)
            n_rows += merged.num_rows
            ts_parts.append(
                pa.TableGroupBy(merged.select(["term", "df_shard", "cf_shard"]), "term")
                .aggregate([("df_shard", "sum"), ("cf_shard", "sum")])
                .rename_columns(["term", "df", "cf"])
            )
    finally:
        if posting_writer is not None:
            posting_writer.close()
    ts = pa.concat_tables(ts_parts).sort_by("term")
    fs.write_table(ts, termstats_path)
    return n_rows, ts.num_rows


POSITIONS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("docid", pa.int64()),
        ("dl", pa.int32()),
        ("positions", pa.list_(pa.int32())),
    ]
)


def merge_positions_bucket(
    files: list[str],
    bucket: int,
    out_path: str,
    row_group_size: int = 2048,
    byte_budget: int = 1 << 30,
    tombstones: np.ndarray | None = None,
):
    """One bucket's positional merge (Lucene's .pos analog): flatten the
    partials' per-posting ``positions`` lists to (term, docid, dl, positions)
    rows, sort by (term, docid), write term-bucketed parquet with small row
    groups so a phrase query's term-filtered read prunes at the row-group
    level. The same term-hash sub-split skew guard as the BM25 merge bounds
    memory on stopword-heavy buckets (a term never spans splits).

    ``tombstones`` drops deleted docs' rows — the positional half of the
    expunge-deletes path (``pipelines.incremental.compact_index``).
    """
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.state import fs

    total_bytes = sum(fs.file_size(f) for f in files)
    nsplits = max(1, int(np.ceil(total_bytes * _MERGE_INFLATION / byte_budget)))

    writer: pq.ParquetWriter | None = None
    n_rows = 0
    try:
        for split in range(nsplits):
            parts = []
            for f in files:
                t = fs.read_table(f, columns=["term", "docids", "dls", "positions"])
                if nsplits > 1:
                    t = t.filter(_term_split_mask(t["term"], nsplits, split))
                parts.append(t)
            tbl = pa.concat_tables(parts, promote_options="default")
            if tbl.num_rows:
                docs = tbl["docids"].combine_chunks()
                counts = pa.compute.list_value_length(docs).to_numpy(zero_copy_only=False)
                idx = np.repeat(np.arange(tbl.num_rows, dtype=np.int64), counts)
                out = pa.table(
                    {
                        "term": tbl["term"].combine_chunks().take(pa.array(idx)),
                        "docid": docs.flatten().cast(pa.int64()),
                        "dl": tbl["dls"].combine_chunks().flatten().cast(pa.int32()),
                        "positions": tbl["positions"].combine_chunks().flatten(),
                    }
                )
                if tombstones is not None and len(tombstones):
                    dead = isin_sorted(
                        out["docid"].to_numpy(zero_copy_only=False), tombstones
                    )
                    if dead.any():
                        out = out.filter(pa.array(~dead))
                out = out.sort_by([("term", "ascending"), ("docid", "ascending")])
            else:
                out = POSITIONS_SCHEMA.empty_table()
            if writer is None:
                pfs, ppath = fs.resolve(out_path)
                writer = pq.ParquetWriter(ppath, out.schema, filesystem=pfs)
            if out.num_rows:
                writer.write_table(out, row_group_size=row_group_size)
            n_rows += out.num_rows
    finally:
        if writer is not None:
            writer.close()
    return n_rows
