"""Incremental index generations: append new transcripts to a built index
without rebuilding it, then (optionally) compact.

The reference's workflow is build-once-per-job — incremental growth is handled
one level up by the serving side, which accumulates the immutable segment
artifacts remote builds produce and merges them on its own schedule (the
Lucene/OpenSearch segment model; each remote build job = one segment,
``core/tasks.py:80-211``). This module reproduces that model inside the
engine:

* ``append_index(index_dir, new_paths)`` builds a **generation** — a complete
  self-contained sub-index under ``{index_dir}/generations/gen-NNNN/`` built
  by the ordinary ``build_index`` pipeline with ``docid_base`` set to the
  number of docs already indexed, so generations occupy disjoint ascending
  docid ranges (the positional-id analog of appending rows to the reference's
  doc-id blob, ``core/common/models/vectors_dataset.py:126-129``). The base
  index is never touched; append cost is proportional to the NEW data only.

* The searcher (``stages/search.py``) unions the base and all live
  generations per term at query time: per-generation block lists concatenate
  in generation order (docid order by construction), ``df`` sums across
  generations, and scoring uses **global** corpus stats (N, avgdl) so scores
  equal a from-scratch build over the full corpus. Stored block-max bounds
  were computed with each generation's local avgdl; they are corrected with
  the provably safe factor ``max(1, avgdl_global / avgdl_gen)`` — BM25's
  ``tfnorm`` is increasing in avgdl and the ratio
  ``tfnorm(a2)/tfnorm(a1) = (tf+k1(1-b)+k1·b·dl/a1)/(tf+k1(1-b)+k1·b·dl/a2)``
  is bounded above by ``a2/a1`` (the ``tf+k1(1-b) → 0`` limit) — so pruning
  stays exact-safe and results stay rank-identical to the exhaustive oracle.

* ``compact_index(index_dir)`` re-runs the ONE wide exchange of the build
  (``pipelines/build.run_merge``) over the union of the base's and every
  generation's hive-partitioned posting partials with the global avgdl,
  atomically replacing the top-level postings — producing postings
  value-identical to a one-shot build over the same docid assignment. A
  query never sees a half-compacted index: the swap is the same
  tmp-dir + rename commit the base build uses. Compacted generations keep
  their docmeta (stored fields) and segments (future re-compaction input);
  their per-generation postings are deleted.

Scale notes (100 TB design point): append touches only the new data plus one
LIST of the base manifest; compaction is the same bounded per-bucket merge as
the base build (bucket count scales with total bytes, the skew guard
sub-splits oversized buckets). All paths go through the ``state.fs``
object-store layer, so generations work unchanged on a multi-node cluster.
"""

from __future__ import annotations

import hashlib
import json
import time

from remote_vector_index_builder_ray.config import (
    AnalyzerConfig,
    BM25Config,
    BuildConfig,
    EngineError,
)
from remote_vector_index_builder_ray.pipelines.build import build_index, run_merge
from remote_vector_index_builder_ray.state import fs
from remote_vector_index_builder_ray.state.manifest import Manifest


class IndexStateError(EngineError):
    """The index is not in a state that allows the requested operation."""


def _load_completed_manifest(index_dir: str) -> Manifest:
    man = Manifest.load(index_dir)
    if man is None:
        raise IndexStateError(f"no index manifest at {index_dir}")
    if not man.stage_done("merge"):
        raise IndexStateError(
            f"index at {index_dir} has no committed merge stage; "
            "finish (or resume) the base build before appending"
        )
    return man


def _total_docs(man: Manifest) -> tuple[int, int]:
    """(N, total_len) across the whole index: the base ``stats`` plus every
    LIVE (non-compacted) generation. Compaction folds generation counts into
    the base stats, so compacted generations must not be added again."""
    n = int(man.data["stats"]["N"])
    tl = int(man.data["stats"]["total_len"])
    for g in man.data.get("generations", []):
        if not g.get("compacted"):
            n += int(g["n_docs"])
            tl += int(g["total_len"])
    return n, tl


def _maxdoc(man: Manifest) -> int:
    """The docid high-water mark (Lucene's maxDoc): the next generation's
    docid base. Distinct from the live-doc count ``_total_docs`` returns —
    an expunging compaction shrinks N but docids are never reassigned, so
    appending after an expunge must continue from maxdoc, not N (else the
    new generation's range overlaps the base's)."""
    if "maxdoc" in man.data:
        return int(man.data["maxdoc"])
    # no expunge has ever run (compact_index records maxdoc before its first
    # shrink), so the live count IS the high-water mark
    return _total_docs(man)[0]


def global_stats(index_dir: str) -> dict:
    """Corpus stats over base + all generations (what the searcher scores
    with). Equal to the base ``stats.json`` when there are no generations."""
    man = _load_completed_manifest(index_dir)
    n, tl = _total_docs(man)
    st = dict(man.data["stats"])
    st.update({"N": n, "total_len": tl, "avgdl": tl / n if n else 0.0})
    return st


def docmeta_dirs(index_dir: str) -> list[str]:
    """Every docmeta root holding stored fields for this index's docids —
    the base plus each generation (compacted or not; compaction keeps
    docmeta in place)."""
    out = [fs.join(index_dir, "docmeta")]
    man = Manifest.load(index_dir)
    if man is not None:
        for g in man.data.get("generations", []):
            out.append(fs.join(index_dir, g["dir"], "docmeta"))
    return [d for d in out if fs.exists(d)]


def docmeta_files(index_dir: str) -> list[str]:
    """Every docmeta Parquet file of this index, base and generations: the
    flat file list ``read_parquet`` takes (a multi-dir list is not a
    supported input)."""
    return [
        fs.join(d, rel)
        for d in docmeta_dirs(index_dir)
        for rel in fs.listdir(d, recursive=True)
        if rel.endswith(".parquet")
    ]


def docmeta_schema(index_dir: str):
    """The docmeta schema, from one footer read (never a data scan)."""
    import pyarrow.parquet as pq

    files = docmeta_files(index_dir)
    if not files:
        raise EngineError(f"index at {index_dir} has no docmeta")
    f, p = fs.resolve(files[0])
    return pq.read_schema(p, filesystem=f)


def append_index(
    index_dir: str,
    input_paths: list[str],
    num_partitions: int | None = None,
    batch_size: int | None = None,
    resume: bool = True,
    docid_mode: str | None = None,
) -> dict:
    """Append ``input_paths`` to a built index as a new generation.

    Returns the updated base manifest dict. Idempotent: appending the same
    inputs to the same index state a second time is a no-op (the generation's
    deterministic job id — which includes its docid base — already appears in
    the manifest; the analog of the reference's job-id idempotency,
    ``app/services/job_service.py:60-83``). A crashed append re-runs through
    the generation's own per-partition checkpoints.
    """
    man = _load_completed_manifest(index_dir)
    cfg_rec = man.data.get("config", {})
    bm25 = BM25Config(**cfg_rec.get("bm25", {}))
    gens = man.data.setdefault("generations", [])
    docid_base = _maxdoc(man)

    gen_id = len(gens) + 1
    gen_rel = f"generations/gen-{gen_id:04d}"
    an_rec = cfg_rec.get("analyzer")
    analyzer = AnalyzerConfig(
        stopwords=tuple(an_rec.get("stopwords", ())),
        min_token_len=int(an_rec.get("min_token_len", 1)),
        max_token_len=int(an_rec.get("max_token_len", 1 << 30)),
    ) if an_rec else AnalyzerConfig()
    gcfg = BuildConfig(
        input_paths=list(input_paths),
        index_dir=fs.join(index_dir, gen_rel),
        bm25=bm25,
        num_partitions=num_partitions,
        dedup=bool(cfg_rec.get("dedup", False)),
        # update batches aren't dense 0..len-1 per conversation — update_docs
        # overrides to "sort" (dense docids by (conv_id, turn_idx) order)
        docid_mode=docid_mode or str(cfg_rec.get("docid_mode", "dense")),
        # generations MUST share the base's bucket count: bucket-file layout
        # is the shuffle key space, and compaction unions partials per bucket
        num_buckets=int(man.data["num_buckets"]),
        docid_base=docid_base,
        positions=bool(cfg_rec.get("positions", False)),
        analyzer=analyzer,  # the generation MUST tokenize like the base
    )
    if batch_size is not None:
        gcfg.batch_size = int(batch_size)
    job_id = gcfg.job_id()
    # Idempotency key: the inputs + parameters WITHOUT the docid base — a
    # re-issued append of the same files is a retry, not a request to index
    # them twice (the reference's request-level job-id dedup,
    # ``app/utils/hash.py:12-28`` + ``app/services/job_service.py:60-83``).
    append_fp = hashlib.sha256(
        json.dumps(
            {
                "inputs": sorted(gcfg.input_paths),
                "bm25": gcfg.bm25.job_fingerprint(),
                "dedup": gcfg.dedup,
                "docid_mode": gcfg.docid_mode,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()
    for g in gens:
        if g.get("append_fp") == append_fp or g.get("job_id") == job_id:
            return man.data  # this exact append already happened

    gman = build_index(gcfg, resume=resume)
    man.data["maxdoc"] = docid_base + int(gman["stats"]["N"])
    gens.append(
        {
            "dir": gen_rel,
            "job_id": job_id,
            "append_fp": append_fp,
            "n_docs": int(gman["stats"]["N"]),
            "total_len": int(gman["stats"]["total_len"]),
            "num_buckets": int(gman["num_buckets"]),
            "compacted": False,
            "appended_at": time.time(),
        }
    )
    man.save()
    return man.data


def compact_index(index_dir: str) -> dict:
    """Merge the base and every generation into one top-level postings set,
    expunging any tombstoned docs (``pipelines.delete``) physically.

    Re-runs the bucket merge over the UNION of all hive-partitioned posting
    partials with the post-expunge global avgdl — value-identical postings to
    a one-shot build over the live docs with the same docid assignment.
    No-op when there are neither live generations nor tombstones. Returns the
    updated manifest dict.
    """
    from remote_vector_index_builder_ray.pipelines.delete import load_tombstones

    man = _load_completed_manifest(index_dir)
    gens = man.data.get("generations", [])
    live = [g for g in gens if not g.get("compacted")]
    live_tombs = [t for t in man.data.get("tombstones", []) if not t.get("expunged")]
    if not live and not live_tombs:
        return man.data
    bad = [g["dir"] for g in gens if int(g["num_buckets"]) != int(man.data["num_buckets"])]
    if bad:
        raise IndexStateError(f"generation bucket count mismatch: {bad}")

    # the CUMULATIVE tombstone set: the retained segment partials still hold
    # postings expunged by earlier compactions — merging without them would
    # resurrect deleted docs
    tombs = load_tombstones(index_dir, man, include_expunged=True)
    man.data["maxdoc"] = _maxdoc(man)  # record the high-water mark before N shrinks
    n, tl = _total_docs(man)
    # expunge: stats shrink by the LIVE tombstones only (earlier compactions
    # already subtracted theirs); the searcher's logical-delete semantics keep
    # deleted docs in N/avgdl until this point — Lucene's numDocs-vs-maxDoc
    # (pipelines/delete module docstring)
    n -= sum(int(t["n"]) for t in live_tombs)
    tl -= sum(int(t["deleted_len"]) for t in live_tombs)
    avgdl = tl / n if n else 0.0
    bm25 = BM25Config(**man.data.get("config", {}).get("bm25", {}))
    seg_roots = [fs.join(index_dir, "segments")] + [
        fs.join(index_dir, g["dir"], "segments") for g in gens
    ]
    t0 = time.time()
    # the full post-compaction stats + the generations this postings set
    # folds in: committed INSIDE the postings dir by run_merge, in the same
    # atomic rename as the postings (state.manifest.load_base_stats) — a
    # crash or searcher init between the swap and the writes below can never
    # pair new postings with stale stats/generation flags
    st = dict(man.data["stats"])
    st.update({
        "N": n, "total_len": tl, "avgdl": avgdl,
        "compacted_gens": sorted(g["dir"] for g in gens),
    })
    m = run_merge(
        seg_roots,
        fs.join(index_dir, "postings"),
        fs.join(index_dir, "termstats"),
        avgdl, bm25.k1, bm25.b, bm25.block_size,
        byte_budget=1 << 30,
        tombstones=tombs if len(tombs) else None,
        positions_dir=(
            fs.join(index_dir, "positions")
            if man.data.get("config", {}).get("positions")
            else None
        ),
        stats_payload=st,
    )
    fs.write_json_atomic(fs.join(index_dir, "stats.json"), st)
    man.data["stats"] = st
    man.data["postings_files"] = m["postings_files"]
    n_expunged = sum(int(t["n"]) for t in live_tombs)
    for t in man.data.get("tombstones", []):
        t["expunged"] = True  # files retained: future re-merges need the set
    for g in gens:
        g["compacted"] = True
    man.commit_stage(
        f"compact-{len(gens):04d}",
        {"sec": time.time() - t0, "term_shards": m["term_shards"], "terms": m["terms"],
         "generations": len(gens), "expunged_docs": n_expunged},
    )
    for g in gens:
        fs.rm_tree(fs.join(index_dir, g["dir"], "postings"))
        fs.rm_tree(fs.join(index_dir, g["dir"], "termstats"))
        fs.rm_tree(fs.join(index_dir, g["dir"], "positions"))
    return man.data


def update_docs(
    index_dir: str,
    input_paths: list[str],
    num_partitions: int | None = None,
) -> dict:
    """OpenSearch bulk update/upsert: ``input_paths`` hold NEW versions of
    turns keyed by (conv_id, turn_idx). Old versions (where they exist) are
    tombstoned — a logical delete, scores of untouched docs bit-unchanged —
    and the new rows append as a generation with fresh docids above the
    maxdoc high-water mark; searches immediately see the new text. Rows
    whose key is absent from the index simply insert (upsert semantics).

    The old-docid lookup is a broadcast semi-join: the update batch's keys
    (driver-small by contract — it is a write request, not a corpus) probe
    the packed (conv_id|turn_idx) keys of one pruned-column docmeta scan
    (``stages.merge.semi_join``)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from remote_vector_index_builder_ray.pipelines.delete import delete_docs
    from remote_vector_index_builder_ray.stages.merge import semi_join, to_frame

    keys = pd.concat(
        [pq.read_table(p, columns=["conv_id", "turn_idx"]).to_pandas()
         for p in input_paths]
    ).drop_duplicates()
    # pack keys as "conv_id|turn_idx" strings for a vectorized membership test
    key_set = np.sort(
        (keys["conv_id"].astype(str) + "|" + keys["turn_idx"].astype(str))
        .to_numpy(np.str_)
    )

    def _pack_key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"docid": batch["docid"], "key": pc.binary_join_element_wise(
            pc.cast(batch["conv_id"], pa.string()),
            pc.cast(batch["turn_idx"], pa.string()),
            "|",
        )})

    docmeta = ray.data.read_parquet(
        **fs.for_ray_paths(docmeta_files(index_dir)),
        columns=["docid", "conv_id", "turn_idx"],
    ).map_batches(_pack_key, batch_format="pyarrow", zero_copy_batch=True)
    old = to_frame(semi_join(docmeta, "key", ray.put(key_set)))
    if len(old):
        delete_docs(index_dir, docids=old["docid"].tolist())
    man = append_index(index_dir, input_paths, num_partitions=num_partitions,
                       docid_mode="sort")
    # OpenSearch bulk distinguishes updated (key replaced an existing doc)
    # from created. A key updated twice matches BOTH its tombstoned and live
    # docmeta rows, so count DISTINCT matched keys, not matched docids.
    n_updated = int(old["key"].nunique())
    return {"updated": n_updated,
            "inserted": int(len(keys)) - n_updated, "manifest": man}


def update_by_query(
    index_dir: str,
    query_text: str,
    append_text: str,
    out_dir: str,
    num_partitions: int | None = None,
) -> dict:
    """OpenSearch ``_update_by_query``: every doc matching ``query_text``
    (OR over its analyzed terms, the match-query shape) is re-written with
    ``append_text`` appended to its text (the ``ctx._source.text += ...``
    painless shape) — old versions tombstone, new versions append as a
    generation (docid_mode='sort'), exactly :func:`update_docs` semantics.

    Streaming shape: matched docids broadcast once (sorted allow-list); the
    docmeta stream filters + transforms VECTORIZED and writes the new-version
    parquet shards to ``out_dir`` without a driver round-trip. The follow-up
    :func:`update_docs` key probe is then bounded by the match count — like
    OpenSearch, an unselective update_by_query is an O(matches) reindex by
    design."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data

    from remote_vector_index_builder_ray.pipelines.query import search
    from remote_vector_index_builder_ray.stages.merge import semi_join
    from remote_vector_index_builder_ray.stages.search import K_MAX

    q = pd.DataFrame({"query_id": np.array([0], dtype=np.int64),
                      "text": [query_text],
                      "k": np.array([K_MAX], dtype=np.int32)})
    m = search(index_dir, q, mode="constant").to_pandas()
    if m.empty or "docid" not in m.columns:
        return {"updated": 0, "inserted": 0, "manifest": None}
    allow = ray.put(np.sort(m["docid"].to_numpy(np.int64)))
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

    def _append_text(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        new_text = pc.binary_join_element_wise(
            batch["text"].combine_chunks().cast(pa.string()),
            pa.array([append_text] * batch.num_rows, type=pa.string()), "",
        )
        return batch.select(cols[:3] + cols[4:]).append_column(
            "text", new_text).select(cols)

    docmeta = ray.data.read_parquet(**fs.for_ray_paths(docmeta_files(index_dir)))
    (
        semi_join(docmeta, "docid", allow)
        .map_batches(_append_text, batch_format="pyarrow", zero_copy_batch=True)
        # fs-mediated write + listing: out_dir may be s3:// / mock:// like
        # every other index root this engine supports
        .write_parquet(**fs.for_ray(out_dir))
    )
    files = [fs.join(out_dir, n) for n in sorted(fs.listdir(out_dir))
             if n.endswith(".parquet")]
    return update_docs(index_dir, files, num_partitions=num_partitions)


def create_alias(index_dir: str, name: str, where=None) -> dict:
    """OpenSearch filtered alias: a named view over the index carrying an
    optional docmeta filter (parquet-DNF tuples). Stored in the manifest;
    :func:`search_alias` resolves it to a filter-context search (scores of
    matching docs unchanged). Re-creating an alias overwrites it (the
    OpenSearch PUT-alias semantics). ``where`` is checked against the
    docmeta schema first, so a bad alias fails here, not at search time."""
    from remote_vector_index_builder_ray.pipelines.query import where_expression

    if where:
        where_expression(index_dir, where)
    man = Manifest.load(index_dir)
    aliases = man.data.setdefault("aliases", {})
    aliases[name] = {"where": [list(t) for t in where] if where else None}
    man.save()
    return {"alias": name, "where": aliases[name]["where"]}


def search_alias(index_dir: str, name: str, queries, **search_kw):
    """Search through a filtered alias: resolves the alias's stored filter
    and runs the normal search under filter-context semantics."""
    from remote_vector_index_builder_ray.pipelines.query import search

    man = Manifest.load(index_dir)
    aliases = man.data.get("aliases", {})
    if name not in aliases:
        raise EngineError(f"unknown alias {name!r} on {index_dir}")
    stored = aliases[name]["where"]
    where = [tuple(t) for t in stored] if stored else None
    if where is not None and search_kw.get("where") is not None:
        raise EngineError("alias already carries a filter; drop the where kwarg")
    if where is not None:
        search_kw["where"] = where
    return search(index_dir, queries, **search_kw)


def rebucket_index(index_dir: str, num_buckets: int) -> dict:
    """Reshard the base postings (and positional index, if present) to
    ``num_buckets`` bucket files WITHOUT rebuilding — the index-resharding
    verb for growing a live index's parallelism (the OpenSearch _split /
    _shrink analog at the postings level). Posting payloads (delta+varint
    blocks, block maxes, df/cf) move byte-unchanged; only the FILE a term
    lives in changes (crc32(term) % num_buckets), so searches return
    bit-identical results.

    Distribution: one Ray task per OLD bucket file splits its rows into
    hive partials by new bucket; one task per NEW bucket concatenates them
    (sorted (term, shard) / (term, docid) for determinism) and writes its
    file. Crash-consistent commit: the new postings carry a stats record
    with the NEW num_buckets in the SAME rename (searchers prefer the
    in-postings record; the manifest update trails harmlessly). Indexes
    with live generations are refused — a generation's positional shards
    share the base bucket count (stages/search._resolve_pos_sources)."""
    import zlib

    import numpy as np
    import pyarrow as pa
    import ray

    from remote_vector_index_builder_ray.state.manifest import load_base_stats

    man = Manifest.load(index_dir)
    st = load_base_stats(index_dir)
    folded = set(st.get("compacted_gens", ()))
    live_gens = [g for g in man.data.get("generations", [])
                 if not g.get("compacted") and g["dir"] not in folded]
    if live_gens:
        raise EngineError(
            "rebucket_index requires no live generations (compact first): "
            f"{[g['dir'] for g in live_gens]}"
        )
    nb = int(num_buckets)
    if nb < 1:
        raise EngineError("num_buckets must be >= 1")

    @ray.remote
    def split_file(path: str, tmp_root: str, tag: str, sort_keys: tuple):
        t = fs.read_table(path)
        if t.num_rows == 0:
            return 0
        terms = t["term"].to_pylist()
        buckets = np.fromiter((zlib.crc32(x.encode()) % nb for x in terms),
                              dtype=np.int32, count=len(terms))
        t = t.drop_columns(["bucket"]) if "bucket" in t.column_names else t
        t = t.append_column("bucket", pa.array(buckets, type=pa.int32()))
        for b in np.unique(buckets):
            part = t.filter(pa.array(buckets == b))
            d = fs.join(tmp_root, f"bucket={int(b)}")
            fs.makedirs(d)
            fs.write_table(part, fs.join(d, f"part-{tag}.parquet"))
        return t.num_rows

    @ray.remote
    def concat_bucket(files: list, out_path: str, sort_keys: tuple):
        tabs = [fs.read_table(f) for f in files]
        t = pa.concat_tables(tabs, promote_options="default")
        t = t.sort_by([(k, "ascending") for k in sort_keys]).combine_chunks()
        fs.write_table(t, out_path)
        return t.num_rows

    def _reshard(src_dir: str, sort_keys: tuple) -> str:
        tmp_split = src_dir + ".split.tmp"
        fs.rm_tree(tmp_split)
        fs.makedirs(tmp_split)
        old_files = [fs.join(src_dir, n) for n in fs.listdir(src_dir)
                     if n.endswith(".parquet")]
        ray.get([split_file.remote(p, tmp_split, f"{i:05d}", sort_keys)
                 for i, p in enumerate(old_files)])
        tmp_new = src_dir + ".rebucket.tmp"
        fs.rm_tree(tmp_new)
        fs.makedirs(tmp_new)
        futures = []
        for rel in fs.listdir(tmp_split):
            if not rel.startswith("bucket="):
                continue
            b = int(rel.split("=", 1)[1])
            files = [fs.join(tmp_split, rel, n)
                     for n in fs.listdir(fs.join(tmp_split, rel))
                     if n.endswith(".parquet")]
            futures.append(concat_bucket.remote(
                files, fs.join(tmp_new, f"bucket-{b:05d}.parquet"), sort_keys))
        ray.get(futures)
        fs.rm_tree(tmp_split)
        return tmp_new

    def _swap(tmp: str, final: str) -> None:
        # move-aside swap (no rm_tree-then-move window), as run_merge does
        old = final + ".old"
        fs.rm_tree(old)
        if fs.exists(final):
            fs.move_dir(final, old)
        fs.move_dir(tmp, final)
        fs.rm_tree(old)

    postings_dir = fs.join(index_dir, "postings")
    tmp_post = _reshard(postings_dir, ("term", "shard"))
    # commit record: the new bucket count rides the same rename as the
    # postings it addresses
    fs.write_json_atomic(fs.join(tmp_post, "stats.json"),
                         {**st, "num_buckets": nb})
    pos_dir = fs.join(index_dir, "positions")
    tmp_pos = _reshard(pos_dir, ("term", "docid")) if fs.exists(pos_dir) else None
    if tmp_pos is not None:
        # self-describing positions: the bucket count rides the SAME rename
        # as the resharded files (stages/search._resolve_pos_sources prefers
        # it), so a crash between the two swaps below can never leave
        # searchers addressing new-count positions with the old count
        fs.write_json_atomic(fs.join(tmp_pos, "posmeta.json"),
                             {"num_buckets": nb})
        _swap(tmp_pos, pos_dir)
    _swap(tmp_post, postings_dir)
    man.data["num_buckets"] = nb
    man.save()
    return {"num_buckets": nb}


def index_stats(index_dir: str) -> "pd.DataFrame":
    """OpenSearch _stats/_count analog: one row of whole-index statistics —
    (n_docs, total_len, avgdl6, n_terms, total_postings, total_tf).
    n_terms counts DISTINCT terms across base + live generations (a term in
    two generations is one dictionary entry, as after a Lucene merge);
    total_postings sums df (one posting per (term, doc) pair), total_tf sums
    cf (every occurrence). Reads ONLY the termstats (term, df, cf) columns —
    the corpus never streams for a stats call."""
    import numpy as np
    import pandas as pd

    from remote_vector_index_builder_ray.pipelines.expand import termstats_dirs

    st = global_stats(index_dir)
    df_by_term: dict[str, int] = {}
    cf_total = 0
    for d in termstats_dirs(index_dir):
        for rel in fs.listdir(d, recursive=True):
            if not rel.endswith(".parquet"):
                continue
            t = fs.read_table(fs.join(d, rel), columns=["term", "df", "cf"])
            for term, dfv, cfv in zip(t["term"].to_pylist(),
                                      t["df"].to_pylist(), t["cf"].to_pylist()):
                df_by_term[term] = df_by_term.get(term, 0) + int(dfv)
                cf_total += int(cfv)
    avgdl6 = float(np.floor(st["avgdl"] * 1e6 + 0.5) / 1e6)
    return pd.DataFrame(
        {
            "n_docs": [int(st["N"])],
            "total_len": [int(st["total_len"])],
            "avgdl6": [avgdl6],
            "n_terms": [len(df_by_term)],
            "total_postings": [int(sum(df_by_term.values()))],
            "total_tf": [cf_total],
        }
    ).astype({"n_docs": np.int64, "total_len": np.int64, "n_terms": np.int64,
              "total_postings": np.int64, "total_tf": np.int64})


def snapshot_index(index_dir: str, snapshot_dir: str) -> dict:
    """OpenSearch _snapshot analog: copy a COMPLETED index's files to
    ``snapshot_dir`` (any fs.py URI — the object-store path this engine is
    built around) with the manifest verified first and written LAST, so a
    torn snapshot is never restorable. Returns the manifest. File-level
    copy through the fs layer; no Ray work (an index is bytes, not rows)."""
    man = _load_completed_manifest(index_dir).data
    fs.makedirs(snapshot_dir)
    rels = [r for r in fs.listdir(index_dir, recursive=True, files_only=True)
            if r != "manifest.json"]
    for rel in rels:
        dst = fs.join(snapshot_dir, rel)
        parent = dst.rsplit("/", 1)[0]
        fs.makedirs(parent)
        with fs.open_input(fs.join(index_dir, rel)) as src, \
                fs.open_output(dst) as out:
            out.write(src.read())
    fs.write_json_atomic(fs.join(snapshot_dir, "manifest.json"), man)
    return man


def restore_index(snapshot_dir: str, index_dir: str) -> dict:
    """OpenSearch _restore analog: materialize a snapshot as a fresh index
    dir (refuses to clobber an existing one). The restored index answers
    queries bit-identically — the conformance check the driver entry runs."""
    if fs.exists(fs.join(index_dir, "manifest.json")):
        raise FileExistsError(f"index already exists at {index_dir}")
    man = fs.read_json(fs.join(snapshot_dir, "manifest.json"))
    fs.makedirs(index_dir)
    rels = [r for r in fs.listdir(snapshot_dir, recursive=True, files_only=True)
            if r != "manifest.json"]
    for rel in rels:
        dst = fs.join(index_dir, rel)
        parent = dst.rsplit("/", 1)[0]
        fs.makedirs(parent)
        with fs.open_input(fs.join(snapshot_dir, rel)) as src, \
                fs.open_output(dst) as out:
            out.write(src.read())
    fs.write_json_atomic(fs.join(index_dir, "manifest.json"), man)
    return man


# ---------------------------------------------------------------------------
# rollover: size-policied ingestion (the OpenSearch _rollover / ILM verb)
# ---------------------------------------------------------------------------


def _ingest_fp(paths: list[str]) -> str:
    return hashlib.sha256(json.dumps(sorted(paths)).encode()).hexdigest()


def _parquet_rows(path: str) -> int:
    import pyarrow.parquet as pq

    filesystem, p = fs.resolve(path)
    return int(pq.read_metadata(p, filesystem=filesystem).num_rows)


def rollover_config(index_dir: str, max_docs: int) -> dict:
    """Attach a rollover policy to a built index (the OpenSearch
    index-template + ILM rollover condition, ``max_docs`` only — the
    sandbox has no wall-clock ``max_age``). Idempotent; changing the
    policy on a non-empty pending set is refused (the pending batches
    were admitted under the old condition)."""
    man = _load_completed_manifest(index_dir)
    ro = man.data.get("rollover")
    if ro is None:
        man.data["rollover"] = {
            "max_docs": int(max_docs),
            "pending": [],       # admitted-but-unsealed ingest batches (refs)
            "consumed_fps": [],  # ingest fingerprints already sealed
            "history": [],       # one record per roll (sealed generation)
        }
        man.save()
    elif int(man.data["rollover"]["max_docs"]) != int(max_docs):
        if man.data["rollover"]["pending"]:
            raise EngineError("rollover policy change with pending batches")
        man.data["rollover"]["max_docs"] = int(max_docs)
        man.save()
    return man.data["rollover"]


def _rollover_seal(index_dir: str, man: Manifest) -> Manifest:
    """Flush the pending set as ONE generation and record the roll.

    Crash-consistent ordering: ``append_index`` commits the generation to
    the manifest FIRST (with its own append-fingerprint idempotency), then
    the pending set clears — a crash between the two re-runs the flush as
    a no-op append and then clears. The seal is where the write target
    'rolls': the next ingest starts a fresh pending set, exactly the
    OpenSearch write-alias move."""
    ro = man.data["rollover"]
    paths = [p for batch in ro["pending"] for p in batch["paths"]]
    n_rows = sum(int(b["n_rows"]) for b in ro["pending"])
    n_batches = len(ro["pending"])
    pending_fps = [b["fp"] for b in ro["pending"]]
    append_index(index_dir, paths)
    man = Manifest.load(index_dir)  # append_index rewrote the manifest
    ro = man.data["rollover"]
    ro["consumed_fps"].extend(pending_fps)
    ro["history"].append({
        "gen": len(man.data.get("generations", [])),
        "n_rows": n_rows,
        "n_batches": n_batches,
        "rolled_at": time.time(),
    })
    ro["pending"] = []
    man.save()
    return man


def rollover_ingest(index_dir: str, input_paths: list[str]) -> dict:
    """Ingest a batch through the rollover write alias: the batch is
    admitted as a PENDING REFERENCE — (paths, row count, fingerprint) in
    the manifest, never a data copy (at 100 TB an ingest spool that
    re-writes its input would double the write volume) — and when the
    pending rows reach the policy's ``max_docs`` the whole pending set
    seals as ONE generation via :func:`append_index`. Small ingest batches
    therefore coalesce into right-sized immutable segments instead of one
    tiny generation each — the ILM rollover purpose. Re-ingesting a batch
    already pending or already sealed is a no-op (request-level
    idempotency, same contract as append_index).

    The condition is evaluated on INGESTED rows (the parquet footer
    counts); with dedup enabled the sealed generation may index fewer.
    Note the OpenSearch deviation: pending batches are not searchable
    until sealed (refresh happens at the roll, not per ingest) — call
    :func:`rollover_flush` to force the tail out."""
    man = _load_completed_manifest(index_dir)
    if "rollover" not in man.data:
        raise EngineError(f"no rollover policy on {index_dir}; "
                          "call rollover_config first")
    ro = man.data["rollover"]
    fp = _ingest_fp(list(input_paths))
    if fp in ro["consumed_fps"] or any(b["fp"] == fp for b in ro["pending"]):
        return ro
    n_rows = sum(_parquet_rows(p) for p in input_paths)
    ro["pending"].append({"paths": list(input_paths), "n_rows": n_rows,
                          "fp": fp, "ingested_at": time.time()})
    man.save()
    if sum(int(b["n_rows"]) for b in ro["pending"]) >= int(ro["max_docs"]):
        man = _rollover_seal(index_dir, man)
    return man.data["rollover"]


def rollover_flush(index_dir: str) -> dict:
    """Force-seal the pending set regardless of the condition (the
    explicit ``POST /_rollover`` with no conditions / the final flush of
    an ingest stream). No-op when nothing is pending."""
    man = _load_completed_manifest(index_dir)
    ro = man.data.get("rollover")
    if ro is None:
        raise EngineError(f"no rollover policy on {index_dir}")
    if ro["pending"]:
        man = _rollover_seal(index_dir, man)
    return man.data["rollover"]
