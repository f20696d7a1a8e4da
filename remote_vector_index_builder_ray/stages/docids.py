"""Stable global docID assignment — the analog of the reference's positional
vector<->doc_id alignment (``core/common/models/vectors_dataset.py:126-129``),
generalized to a distributed table read in arbitrary order.

Invariant (FIXTURES.md section 5.2): docIDs are dense ``0..N-1`` in
``(conv_id, turn_idx)`` sort order, independent of read parallelism and input
file shuffling.

Two paths:

* **dense** (default, metadata-light — SURVEY.md section 7 "Stable docID under
  parallelism"): one small shuffle ``groupby(conv_id).count/max`` over just two
  columns validates that ``turn_idx`` is dense ``0..len-1`` per conversation,
  then a prefix sum over conv-sorted counts yields each conversation's docid
  offset; ``docid = offset[conv_id] + turn_idx`` is a pure broadcast-lookup
  ``map_batches``. The 100 TB table is never sorted. Below
  ``_CONV_DRIVER_MAX`` conversations the offsets table is broadcast via
  ``ray.put``; above it, the finalize goes DISTRIBUTED end-to-end
  (groupby → sort → per-block prefix-sum attach, all in the object store)
  and assignment reads conv-RANGE-SHARDED offset blocks — the driver holds
  one first-conv_id boundary per block, never the conv table
  (``ShardedOffsets``; the 10^12-conversation path).

* **sort** (general fallback): full ``ds.sort(conv_id, turn_idx)`` +
  per-block offset zip-with-index (raw Ray tasks over the sorted block refs —
  one of the few things the Dataset API cannot express).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from remote_vector_index_builder_ray.config import SchemaValidationError

# conv-table rows above which the offsets finalize and lookup go fully
# distributed (ShardedOffsets) instead of driver Arrow + ray.put broadcast
_CONV_DRIVER_MAX = 50_000_000


class ShardedOffsets:
    """Conv-RANGE-sharded (conv_id -> docid offset) lookup: the conv-sorted
    offsets table lives as object-store blocks; the driver holds only one
    (first conv_id, ObjectRef) pair per block. ``assign_docids_dense``
    dispatches to a per-task lookup that fetches just the blocks
    overlapping each batch's conv range — the 10^12-conversation path the
    module docstring promises (``Dataset.join`` would re-shuffle the 100 TB
    turn table; a range-sharded broadcast probe moves only offset blocks)."""

    def __init__(self, block_refs: list, first_convs: np.ndarray, n_docs: int):
        self.block_refs = block_refs
        self.first_convs = first_convs  # ascending; len == len(block_refs)
        self.n_docs = int(n_docs)


@ray.remote
def _conv_block_stats(t: pa.Table, validate_dense: bool):
    """Per-block finalize stats: (rows, total turns, first conv_id, dense
    violations + up to 3 examples). Blocks are conv-sorted and disjoint."""
    if t.num_rows == 0:
        return 0, 0, None, 0, []
    n_bad, examples = 0, []
    if validate_dense:
        bad = pc.not_equal(pc.add(t["max_turn"], 1), t["n_turns"])
        n_bad = pc.sum(pc.cast(bad, pa.int64())).as_py() or 0
        if n_bad:
            examples = t.filter(bad).slice(0, 3).to_pylist()
    total = pc.sum(t["n_turns"]).as_py()
    return t.num_rows, int(total), t["conv_id"][0].as_py(), int(n_bad), examples


@ray.remote
def _attach_conv_offsets(t: pa.Table, start: int) -> pa.Table:
    """Per-block exclusive prefix sum: (conv_id, offset) for this block,
    offset by the cumulative turn count of all preceding blocks."""
    n = t["n_turns"].to_numpy(zero_copy_only=False).astype(np.int64)
    off = int(start) + np.concatenate([[0], np.cumsum(n)[:-1]]).astype(np.int64)
    return pa.table({
        "conv_id": t["conv_id"],
        "offset": pa.array(off, type=pa.int64()),
    })


def compute_conv_offsets(ds: ray.data.Dataset, validate_dense: bool = True):
    """Per-conversation docid offsets from a (conv_id, turn_idx) projection.

    Returns ``(conv_ids_sorted, offsets, n_docs, total_turn_rows)``. Below
    ``_CONV_DRIVER_MAX`` conv-partial rows the first two are numpy arrays
    (broadcast path); above it they are ``(ShardedOffsets, None)`` — the conv
    table never lands on the driver. ``assign_docids_dense`` accepts both.
    """
    from ray.data.aggregate import Max, Sum

    def partial_counts(batch: pa.Table) -> pa.Table:
        # pre-aggregate per batch (Arrow C++ group_by) so the shuffle moves
        # one row per (conv, batch), not one per turn
        g = pa.TableGroupBy(
            batch.select(["conv_id", "turn_idx"]), "conv_id"
        ).aggregate([("turn_idx", "count"), ("turn_idx", "max")])
        return g.rename_columns(["conv_id", "n_turns", "max_turn"])

    partials = ds.select_columns(["conv_id", "turn_idx"]).map_batches(
        partial_counts, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    # Finalize: the partials are ~one row per (conv, batch). Below the size
    # threshold the combine runs driver-side in Arrow C++ (group_by + sort
    # kernels — the pandas version of this finalize was a flat ~8-10 s serial
    # stage at 12M turns and capped whole-build scaling); above it, the
    # finalize AND the lookup table stay distributed (at 10^12 turns the conv
    # table itself is cluster-sized).
    total_rows = partials.count()  # metadata only — no block fetch
    if total_rows <= _CONV_DRIVER_MAX:
        tabs = [t for t in ray.get(partials.to_arrow_refs()) if t.num_rows]
        t = pa.concat_tables(tabs, promote_options="default")
        g = pa.TableGroupBy(t, "conv_id").aggregate([("n_turns", "sum"), ("max_turn", "max")])
        g = g.rename_columns(["conv_id", "n_turns", "max_turn"]).sort_by("conv_id")
        n_col, max_col, conv_col = g["n_turns"], g["max_turn"], g["conv_id"]
        if validate_dense:
            bad = pc.not_equal(pc.add(max_col, 1), n_col)
            n_bad = pc.sum(pc.cast(bad, pa.int64())).as_py() or 0
            if n_bad:
                examples = pa.table({"conv_id": conv_col, "n_turns": n_col, "max_turn": max_col}) \
                    .filter(bad).slice(0, 3).to_pylist()
                raise SchemaValidationError(
                    f"turn_idx not dense 0..len-1 for {n_bad} conversations "
                    f"(e.g. {examples}); use docid_mode='sort' or dedup=True"
                )
        n = n_col.to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(n)[:-1]]).astype(np.int64)
        return conv_col.to_numpy(zero_copy_only=False), offsets, int(n.sum()), int(n.sum())

    # distributed finalize: combine + conv-sort as Dataset shuffles, then a
    # per-block prefix-sum attach over the sorted blocks' refs — the driver
    # sees per-block stats (a handful of ints + one conv_id each), never rows
    counts = partials.groupby("conv_id").aggregate(
        Sum("n_turns", alias_name="n_turns"), Max("max_turn", alias_name="max_turn")
    )
    refs = counts.sort("conv_id").to_arrow_refs()
    stats = ray.get([_conv_block_stats.remote(r, validate_dense) for r in refs])
    if validate_dense:
        n_bad = sum(s[3] for s in stats)
        if n_bad:
            examples = next(s[4] for s in stats if s[4])
            raise SchemaValidationError(
                f"turn_idx not dense 0..len-1 for {n_bad} conversations "
                f"(e.g. {examples}); use docid_mode='sort' or dedup=True"
            )
    keep = [(r, s) for r, s in zip(refs, stats) if s[0]]
    totals = np.array([s[1] for _, s in keep], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(totals)[:-1]]).astype(np.int64)
    off_refs = [_attach_conv_offsets.remote(r, int(st)) for (r, _), st in zip(keep, starts)]
    first_convs = np.array([s[2] for _, s in keep], dtype=object)
    n_docs = int(totals.sum())
    return ShardedOffsets(off_refs, first_convs, n_docs), None, n_docs, n_docs


def _lookup_docids(batch: pa.Table, conv_ids_s: np.ndarray,
                   offsets_s: np.ndarray) -> pa.Table:
    """``docid = offset[conv_id] + turn_idx`` against one conv-sorted
    (conv_ids, offsets) pair."""
    conv = batch["conv_id"].combine_chunks().to_numpy(zero_copy_only=False)
    idx = np.searchsorted(conv_ids_s, conv)
    if (idx >= len(conv_ids_s)).any() or (conv_ids_s[idx] != conv).any():
        raise SchemaValidationError("conv_id seen in data but absent from offsets pass")
    turn = batch["turn_idx"].combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
    docid = offsets_s[idx] + turn
    return batch.append_column("docid", pa.array(docid, type=pa.int64()))


def _assign_broadcast(batch: pa.Table, conv_ref, off_ref) -> pa.Table:
    return _lookup_docids(batch, ray.get(conv_ref), ray.get(off_ref))


def _assign_sharded(batch: pa.Table, block_refs: list, firsts_ref) -> pa.Table:
    """Range probe over ``ShardedOffsets``: binary-search the block
    boundaries for the batch's conv range and fetch only those offset
    blocks — O(batch's conv span), never the whole conv table."""
    if batch.num_rows == 0:
        return batch.append_column("docid", pa.array([], type=pa.int64()))
    conv = batch["conv_id"].combine_chunks().to_numpy(zero_copy_only=False)
    firsts = ray.get(firsts_ref)
    lo, hi = (max(0, int(np.searchsorted(firsts, v, side="right")) - 1)
              for v in (conv.min(), conv.max()))
    parts = ray.get(block_refs[lo:hi + 1])  # blocks are sorted + disjoint
    return _lookup_docids(
        batch,
        np.concatenate([t["conv_id"].to_numpy(zero_copy_only=False) for t in parts]),
        np.concatenate([t["offset"].to_numpy(zero_copy_only=False).astype(np.int64)
                        for t in parts]),
    )


def assign_docids_dense(ds: ray.data.Dataset, conv_ids, offsets=None) -> ray.data.Dataset:
    """map_batches stage: ``docid = offset[conv_id] + turn_idx``, as
    stateless TASKS on both paths. With numpy arrays (the broadcast path)
    the (sorted conv_ids, offsets) pair is put in the object store ONCE and
    each task reads it zero-copy via ``ray.get`` (never re-shipped per
    batch). With a ``ShardedOffsets`` (the beyond-``_CONV_DRIVER_MAX``
    path) each task range-probes only the offset blocks its batch touches."""
    if isinstance(conv_ids, ShardedOffsets):
        fn, args = _assign_sharded, (conv_ids.block_refs, ray.put(conv_ids.first_convs))
    else:
        fn, args = _assign_broadcast, (ray.put(conv_ids), ray.put(offsets))
    return ds.map_batches(fn, fn_args=args, batch_format="pyarrow",
                          zero_copy_batch=True)


@ray.remote
def _persist_offset_block(t: pa.Table, base: int, path: str):
    from remote_vector_index_builder_ray.state import fs

    out = pa.table({
        "conv_id": t["conv_id"],
        "offset": pc.add(t["offset"], pa.scalar(base, type=pa.int64())),
    })
    fs.write_table(out, path)
    return t["conv_id"][0].as_py(), t.num_rows


@ray.remote
def _read_offset_block(path: str) -> pa.Table:
    from remote_vector_index_builder_ray.state import fs

    return fs.read_table(path)


def persist_sharded_offsets(sh: ShardedOffsets, base: int, out_dir: str) -> int:
    """Checkpoint a ``ShardedOffsets`` as one parquet file per block, written
    by worker tasks (the conv table never visits the driver — the whole point
    of the sharded path). A tiny ``_index.json`` records the per-file first
    conv_id and the doc count so resume can rebuild the range directory
    without touching the blocks. Returns the conversation count."""
    import json

    from remote_vector_index_builder_ray.state import fs

    fs.makedirs(out_dir)
    names = [f"part-{i:05d}.parquet" for i in range(len(sh.block_refs))]
    res = ray.get([
        _persist_offset_block.remote(r, base, fs.join(out_dir, n))
        for r, n in zip(sh.block_refs, names)
    ])
    index = {
        "files": [{"name": n, "first_conv": f} for n, (f, _) in zip(names, res)],
        "n_docs": sh.n_docs,
        "base": int(base),
    }
    fs.write_json_atomic(fs.join(out_dir, "_index.json"), index)
    return int(sum(c for _, c in res))


def load_sharded_offsets(out_dir: str) -> ShardedOffsets:
    """Rebuild a ``ShardedOffsets`` from its checkpoint: block reads are
    remote tasks (refs only on the driver); the range directory comes from
    ``_index.json``."""
    from remote_vector_index_builder_ray.state import fs

    index = fs.read_json(fs.join(out_dir, "_index.json"))
    refs = [
        _read_offset_block.remote(fs.join(out_dir, f["name"]))
        for f in index["files"]
    ]
    firsts = np.array([f["first_conv"] for f in index["files"]], dtype=object)
    return ShardedOffsets(refs, firsts, int(index["n_docs"]))


def assign_docids_sort(ds: ray.data.Dataset, base: int = 0) -> ray.data.Dataset:
    """General fallback: full sort + per-block zip-with-index.

    The per-block offset attach is raw Ray tasks over the sorted dataset's
    Arrow block refs — the Dataset API has no zip_with_index (SURVEY.md 2.2).
    Block refs are metadata; only tiny length queries and per-block appends run
    remotely, so this adds no extra shuffle beyond the sort itself.
    """
    sorted_ds = ds.sort(["conv_id", "turn_idx"])
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    @ray.remote
    def _attach(t: pa.Table, start: int) -> pa.Table:
        ids = pa.array(np.arange(start, start + t.num_rows, dtype=np.int64), type=pa.int64())
        return t.append_column("docid", ids)

    lengths = ray.get([_nrows.remote(r) for r in refs])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64) + int(base)
    out_refs = [_attach.remote(r, int(s)) for r, s in zip(refs, starts)]
    return ray.data.from_arrow_refs(out_refs)


def dedup_exact(ds: ray.data.Dataset, num_buckets: int = 64) -> ray.data.Dataset:
    """Exact dedup of (conv_id, turn_idx): first-wins by (ts, role, text) order.

    Two-level, all vectorized: a per-batch combiner drops local duplicates,
    then ONE shuffle keyed on ``hash(conv_id) % num_buckets`` (so both copies
    of a key land together) and a per-bucket pandas ``drop_duplicates`` —
    never a Python call per key. Analog of the reference's job-id idempotency
    dedup (``app/services/job_service.py:60-83``) lifted to the row level.
    """
    import pandas as pd

    def _drop(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["conv_id", "turn_idx", "ts", "role", "text"], kind="mergesort"
        )
        return df.drop_duplicates(["conv_id", "turn_idx"], keep="first")

    def local(df: pd.DataFrame) -> pd.DataFrame:
        df = _drop(df)
        # vectorized, process-stable string hash (siphash with pandas' fixed
        # key) — replaces the per-row Python crc32 flagged in round 1
        df["_bucket"] = (
            pd.util.hash_array(df["conv_id"].to_numpy(dtype=object)) % num_buckets
        ).astype("int64")
        return df

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return _drop(df).drop(columns=["_bucket"])

    return (
        ds.map_batches(local, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(final, batch_format="pandas")
    )
