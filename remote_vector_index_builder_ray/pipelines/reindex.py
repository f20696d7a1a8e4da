"""reindex: rebuild an index from its own stored fields under a new config
(the OpenSearch `_reindex` op: read every live doc's _source, index into a
new target).

The docmeta store IS the _source (it keeps every transcript column), so no
original input files are needed: docmeta streams once through a pruned,
tombstone-filtered scan into a staged source directory under the target,
and the normal build pipeline runs over it. Deleted docs are dropped (as in
OpenSearch), which can leave per-conversation turn_idx gaps — the target
therefore builds with ``docid_mode="sort"`` (the general ordering path)
whenever the source has tombstones, else keeps the dense path.
"""

from __future__ import annotations

import ray.data

from remote_vector_index_builder_ray.config import AnalyzerConfig, BM25Config, BuildConfig
from remote_vector_index_builder_ray.state import fs

_SOURCE_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def reindex(
    src_index_dir: str,
    dst_index_dir: str,
    bm25: BM25Config | None = None,
    analyzer: AnalyzerConfig | None = None,
    positions: bool = False,
    num_partitions: int | None = None,
) -> dict:
    """Rebuild ``src_index_dir``'s live docs into ``dst_index_dir`` under a
    new config; returns the new manifest. The staged source parquet lives
    under ``dst_index_dir/source/`` (resumable: reused if present)."""
    from remote_vector_index_builder_ray.pipelines.build import build_index
    from remote_vector_index_builder_ray.pipelines.delete import load_tombstones
    from remote_vector_index_builder_ray.pipelines.incremental import docmeta_files
    from remote_vector_index_builder_ray.stages.merge import semi_join

    man = fs.read_json(fs.join(src_index_dir, "manifest.json"))
    # the CUMULATIVE set: docmeta keeps expunged docs' rows (compaction
    # leaves docmeta in place), so reindex must drop those too
    tombs = load_tombstones(src_index_dir, None, include_expunged=True)
    src_dir = fs.join(dst_index_dir, "source")
    if not fs.exists(src_dir):
        docmeta = ray.data.read_parquet(
            **fs.for_ray_paths(docmeta_files(src_index_dir)),
            columns=["docid"] + _SOURCE_COLUMNS,
        )
        ds = semi_join(docmeta, "docid", ray.put(tombs), anti=True).select_columns(
            _SOURCE_COLUMNS)
        fs.atomic_write_dir(lambda d: ds.write_parquet(**fs.for_ray(d)), src_dir)
    input_paths = [
        fs.join(src_dir, f) for f in fs.listdir(src_dir) if f.endswith(".parquet")
    ]
    old_bm25 = man.get("config", {}).get("bm25", {})
    cfg = BuildConfig(
        input_paths=input_paths,
        index_dir=dst_index_dir,
        bm25=bm25 if bm25 is not None else BM25Config(**old_bm25),
        analyzer=analyzer if analyzer is not None else AnalyzerConfig(),
        positions=positions,
        num_partitions=num_partitions,
        # deletes leave turn_idx gaps: the dense conv-offset path would
        # reject them; the sort path is the general fallback
        docid_mode="sort" if len(tombs) else "dense",
    )
    return build_index(cfg)
