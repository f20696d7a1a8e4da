"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline (transcript index build + BM25 top-k)
at sf0.001. ``queries()`` exposes each implemented operator over ``sf_dir``;
``oracle_sql()`` gives the DuckDB-equivalent SQL. Ray is initialised by the
driver BEFORE import — nothing here calls ray.init()/shutdown().

The transcript table (BASELINE.json input_hint shape) is synthesised
deterministically per scale by ``remote_vector_index_builder_ray.fixtures``
(seed 42) into /tmp/graft_fixtures/<sf>/ — the oracle SQL reads the very same
parquet files via read_parquet().

Float policy for driver-checked outputs: BM25 scores are computed in float64
by both engines but DuckDB's SUM order differs from numpy's, so driver-facing
rankings use (round(score, 6) DESC, docid ASC) on BOTH sides and report the
rounded score. The strict bit-exact rank-identity gate vs the exhaustive
oracle lives in pytest (tests/test_build_search.py).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd

FIXTURE_ROOT = "/tmp/graft_fixtures"
INDEX_ROOT = "/tmp/graft_indexes"

# generate the sf0.01 + sf0.001 fixtures at import time so oracle_sql()'s
# read_parquet() paths exist no matter which side the driver runs first
from remote_vector_index_builder_ray import fixtures as _fx

for _sf in ("sf0.001", "sf0.01"):
    _fx.ensure_fixture(_sf)
_fx.ensure_fixture("sf0.01", with_dups=True)  # dedup_transcripts oracle reads it

# ---------------------------------------------------------------------------
# Persisted oracle artifacts. The approximate operators (simhash banding,
# IVF probing) and the synthesized media tables are deterministic with fixed
# seeds; persisting them as parquet lets a DuckDB twin recompute the
# SQL-expressible part (hamming pairs, brute-force recall join, md5 features)
# on exactly the same inputs — upgrading these entries from rows-only checks
# to full row/schema/hash matches.
# ---------------------------------------------------------------------------

ARTIFACT_ROOT = "/tmp/graft_fixtures/artifacts"
ORACLE_SF_DIR = "/root/testdata/sf0.01"  # the driver's correctness scale


def _write_atomic(tbl, path: str) -> None:
    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(tbl, path + ".tmp")
    os.replace(path + ".tmp", path)


def _ensure_media_artifacts() -> dict[str, str]:
    """Persist the deterministic media/video fixture tables (no Ray needed)."""
    from remote_vector_index_builder_ray.extras.multimodal import (
        synth_media_table,
        synth_video_table,
    )

    paths = {
        "media": os.path.join(ARTIFACT_ROOT, "media200.parquet"),
        "video": os.path.join(ARTIFACT_ROOT, "video100.parquet"),
    }
    if not os.path.exists(paths["media"]):
        _write_atomic(synth_media_table(200), paths["media"])
    if not os.path.exists(paths["video"]):
        _write_atomic(synth_video_table(100), paths["video"])
    return paths


def _ensure_simhash_artifact() -> str:
    """Engine-computed simhash signatures over the oracle-scale documents
    table (pure per-batch function — no Ray needed); SQL recomputes the
    hamming-radius pairs from these signatures by brute force."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.dedup import simhash_batch

    path = os.path.join(ARTIFACT_ROOT, "sf0.01_simhash.parquet")
    if not os.path.exists(path):
        docs = pq.read_table(os.path.join(ORACLE_SF_DIR, "documents.parquet"))
        _write_atomic(simhash_batch(docs), path)
    return path


def _ivf_artifact_path(sf_name: str) -> str:
    return os.path.join(ARTIFACT_ROOT, f"{sf_name}_ivf_topk.parquet")


def _ensure_ivf_artifact(sf_dir: str) -> str:
    """Run the (deterministic: modulo sample + fixed seeds) distributed IVF
    top-k over ``sf_dir`` embeddings and persist the result; the SQL twin
    joins it against a brute-force top-k computed in SQL to produce the same
    per-query recall the Ray side reports."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import ivf_topk

    path = _ivf_artifact_path(_sf_name(sf_dir))
    if os.path.exists(path):
        return path
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    ivf = ivf_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10,
    )
    _write_atomic(pa.Table.from_pandas(ivf, preserve_index=False), path)
    return path


# (artifact generation calls live at the bottom of this module, after all
# helpers they depend on are defined)


def _sf_name(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


def _build_fresh_on_collision(cfg):
    """Build, treating a HashCollisionError as a stale /tmp cache from an
    older code version (the job fingerprint covers every build parameter):
    wipe the cached dir and rebuild.  A real collision — same dir, same
    session, different params — never happens here because the dir name is
    derived from the input fixture."""
    import shutil

    from remote_vector_index_builder_ray import build_index
    from remote_vector_index_builder_ray.config import HashCollisionError

    try:
        return build_index(cfg)
    except HashCollisionError:
        shutil.rmtree(cfg.index_dir, ignore_errors=True)
        return build_index(cfg)


def _ensure_index(sf_dir: str):
    """Build (resume-aware: completed index is reused) and return paths."""
    from remote_vector_index_builder_ray import BuildConfig

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, name)
    cfg = BuildConfig(
        input_paths=fx["transcripts"],
        index_dir=index_dir,
        num_partitions=min(4, len(fx["transcripts"])),
    )
    manifest = _build_fresh_on_collision(cfg)
    return fx, index_dir, manifest


def _transcripts_glob(sf: str) -> str:
    return f"{FIXTURE_ROOT}/{sf}/transcripts/*.parquet"


def _queries_path(sf: str) -> str:
    return f"{FIXTURE_ROOT}/{sf}/queries.parquet"


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Build the sf0.001 transcript index and run the reference query set."""
    from remote_vector_index_builder_ray import search

    fx, index_dir, _ = _ensure_index("/root/testdata/sf0.001")
    return search(index_dir, fx["queries"], mode="bmw")


# ---------------------------------------------------------------------------
# core BM25 queries (each with an oracle_sql twin)
# ---------------------------------------------------------------------------


def _q_bm25_topk(sf_dir: str):
    from remote_vector_index_builder_ray import search
    import pyarrow.parquet as pq

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pq.read_table(fx["queries"]).to_pandas()
    k_by_query = dict(zip(q["query_id"], q["k"]))
    # oversample 2k so the rounded re-rank can't lose a boundary doc
    q2 = q.assign(k=(q["k"] * 2).astype("int32"))
    res = search(index_dir, q2, mode="bmw").to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"], ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res["k"] = res["query_id"].map(k_by_query)
    res = res[res["rank"] <= res["k"]]
    return res[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    ).reset_index(drop=True)


def _ensure_inc_index(sf_dir: str):
    """Incremental twin of ``_ensure_index``: base build over the first half
    of the corpus (split at the median conv_id), second half appended as a
    generation (``pipelines/incremental.append_index``). Because the split is
    conv-sorted, the appended generation's docid base continues the dense
    (conv_id, turn_idx) order — the multi-generation index answers queries
    over exactly the same docid space as the one-shot build, so it shares the
    ``bm25_topk`` oracle SQL."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import BuildConfig, append_index

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    split_dir = os.path.join(ARTIFACT_ROOT, f"{name}_split")
    a_path = os.path.join(split_dir, "part_a.parquet")
    b_path = os.path.join(split_dir, "part_b.parquet")
    if not (os.path.exists(a_path) and os.path.exists(b_path)):
        os.makedirs(split_dir, exist_ok=True)
        full = pa.concat_tables([pq.read_table(p) for p in fx["transcripts"]])
        convs = sorted(set(full["conv_id"].to_pylist()))
        cut = convs[len(convs) // 2]
        mask = pc.less(full["conv_id"], pa.scalar(cut))
        _write_atomic(full.filter(mask), a_path)
        _write_atomic(full.filter(pc.invert(mask)), b_path)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_inc")
    _build_fresh_on_collision(BuildConfig(input_paths=[a_path], index_dir=index_dir))
    append_index(index_dir, [b_path])
    return fx, index_dir


def _q_bm25_incremental(sf_dir: str):
    """Top-k over the base+appended-generation index — must match the
    one-shot ``bm25_topk`` oracle exactly (global stats across generations,
    safe-scaled block maxes; see pipelines/incremental.py)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search

    fx, index_dir = _ensure_inc_index(sf_dir)
    q = pq.read_table(fx["queries"]).to_pandas()
    k_by_query = dict(zip(q["query_id"], q["k"]))
    q2 = q.assign(k=(q["k"] * 2).astype("int32"))
    res = search(index_dir, q2, mode="bmw").to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"], ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res["k"] = res["query_id"].map(k_by_query)
    res = res[res["rank"] <= res["k"]]
    return res[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    ).reset_index(drop=True)


def _ensure_rollover_index(sf_dir: str):
    """Rollover twin of ``_ensure_inc_index``: base build over the first
    half of the corpus, second half INGESTED through the rollover write
    alias in four conv-ordered chunks with ``max_docs`` sized so chunks
    coalesce pairwise — two rolls (each sealing ONE two-batch generation)
    plus a final flush for any tail. Conv-ordered chunks sealed in order
    keep the docid space dense-(conv_id, turn_idx), so the rolled index
    shares the ``bm25_topk`` oracle (pipelines/incremental.rollover_*)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import (
        BuildConfig,
        rollover_config,
        rollover_flush,
        rollover_ingest,
    )

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    split_dir = os.path.join(ARTIFACT_ROOT, f"{name}_rollover_split")
    base_path = os.path.join(split_dir, "base.parquet")
    chunk_paths = [os.path.join(split_dir, f"chunk_{i}.parquet") for i in range(4)]
    if not all(os.path.exists(p) for p in [base_path, *chunk_paths]):
        os.makedirs(split_dir, exist_ok=True)
        full = pa.concat_tables([pq.read_table(p) for p in fx["transcripts"]])
        full = full.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        convs = sorted(set(full["conv_id"].to_pylist()))
        cut = convs[len(convs) // 2]
        mask = pc.less(full["conv_id"], pa.scalar(cut))
        _write_atomic(full.filter(mask), base_path)
        rest_convs = [c for c in convs if c >= cut]
        bounds = [rest_convs[(len(rest_convs) * i) // 4] for i in range(1, 4)]
        rest = full.filter(pc.invert(mask))
        prev = None
        for i, pth in enumerate(chunk_paths):
            m = pa.array([True] * len(rest))
            col = rest["conv_id"]
            if prev is not None:
                m = pc.and_(m, pc.greater_equal(col, pa.scalar(prev)))
            if i < 3:
                m = pc.and_(m, pc.less(col, pa.scalar(bounds[i])))
                prev = bounds[i]
            _write_atomic(rest.filter(m), pth)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_rollover")
    _build_fresh_on_collision(BuildConfig(input_paths=[base_path],
                                          index_dir=index_dir))
    rows = [pq.read_metadata(p).num_rows for p in chunk_paths]
    # chunk 0 stays pending, chunk 1 trips the condition (and so on pairwise)
    max_docs = rows[0] + max(1, rows[1] // 2)
    rollover_config(index_dir, max_docs=max_docs)
    for pth in chunk_paths:
        rollover_ingest(index_dir, [pth])
    rollover_flush(index_dir)
    return fx, index_dir


def _q_bm25_rollover(sf_dir: str):
    """Top-k over the rollover-ingested index (base + policy-sealed
    generations) — must match the one-shot ``bm25_topk`` oracle exactly,
    the same contract as bm25_incremental (global stats across
    generations)."""
    fx, index_dir = _ensure_rollover_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"])


def _victim_convs(fx) -> list[str]:
    """Deterministic delete set: every conversation whose id ends in '0'
    (~10% of the corpus; the SQL twin filters with ``conv_id NOT LIKE '%0'``)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    convs = pa.concat_tables(
        [pq.read_table(p, columns=["conv_id"]) for p in fx["transcripts"]]
    )["conv_id"]
    return sorted({c for c in convs.to_pylist() if c.endswith("0")})


def _ensure_del_index(sf_dir: str, compact: bool):
    """A dedicated index (never shared with the other entries — deletes
    mutate it) with the victim conversations tombstoned; ``compact=True``
    additionally expunges them physically. Both paths are idempotent across
    driver runs (re-delete is a no-op batch, re-compact is a no-op when no
    live tombstones remain)."""
    from remote_vector_index_builder_ray import (
        BuildConfig,
        compact_index,
        delete_docs,
    )

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    suffix = "_delx" if compact else "_del"
    index_dir = os.path.join(INDEX_ROOT, f"{name}{suffix}")
    _build_fresh_on_collision(
        BuildConfig(
            input_paths=fx["transcripts"],
            index_dir=index_dir,
            num_partitions=min(4, len(fx["transcripts"])),
        )
    )
    delete_docs(index_dir, conv_ids=_victim_convs(fx))
    if compact:
        compact_index(index_dir)
    return fx, index_dir


def _ensure_phrase_queries(sf_dir: str) -> str:
    """Deterministic phrase query set derived from the corpus itself: 2-gram
    and 3-gram slices of every Nth doc's token stream plus one absent phrase.
    Persisted so the DuckDB twin reads the exact same parquet."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_phrase_queries.parquet")
    if os.path.exists(path):
        return path
    fx = _fx.ensure_fixture(name)
    src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    toks = src["text"].map(lambda t: tokenize_text(t or ""))
    phrases: list[str] = []
    step = max(1, len(src) // 24)
    for i in range(0, len(src), step):
        tk = toks[i]
        if len(tk) >= 3:
            phrases.append(" ".join(tk[1:3]))
        if len(phrases) >= 16:
            break
    for i in (7, len(src) // 3, 2 * len(src) // 3):
        tk = toks[min(i, len(src) - 1)]
        if len(tk) >= 6:
            phrases.append(" ".join(tk[2:5]))
    phrases.append("zzzz_nonexistent qqqq")
    seen, uniq = set(), []
    for p in phrases:
        if p not in seen:
            seen.add(p)
            uniq.append(p)
    _write_atomic(
        pa.table(
            {
                "query_id": pa.array(range(len(uniq)), type=pa.int64()),
                "text": pa.array(uniq, type=pa.string()),
                "k": pa.array([10] * len(uniq), type=pa.int32()),
            }
        ),
        path,
    )
    return path


def _ensure_pos_index(sf_dir: str):
    """Positional index (BuildConfig.positions) — its own dir; the plain
    index's job fingerprint differs."""
    from remote_vector_index_builder_ray import BuildConfig

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_pos")
    _build_fresh_on_collision(
        BuildConfig(
            input_paths=fx["transcripts"],
            index_dir=index_dir,
            num_partitions=min(4, len(fx["transcripts"])),
            positions=True,
        )
    )
    return fx, index_dir


def _ensure_phrase_slop_queries(sf_dir: str) -> str:
    """Deterministic 2-term sloppy-phrase query set: skip-one token pairs
    (positions i, i+2 of sampled docs — only slop>=1 matches them), adjacent
    pairs under widened slop, a reversed pair (in-order matcher), and an
    absent phrase. Two terms each so the DuckDB twin's greedy-chain list
    comprehension stays tractable."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_phrase_slop_queries.parquet")
    if os.path.exists(path):
        return path
    fx = _fx.ensure_fixture(name)
    src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    toks = src["text"].map(lambda t: tokenize_text(t or ""))
    pairs: list[tuple[str, int]] = []
    step = max(1, len(src) // 20)
    for i in range(0, len(src), step):
        tk = toks[i]
        # DISTINCT terms only: the engine's transposition-tolerant matcher
        # (and its SQL twin) applies to distinct-term phrases; repeated
        # terms route to the ordered chain
        if len(tk) >= 4 and len({tk[1], tk[2], tk[3]}) == 3:
            pairs.append((f"{tk[1]} {tk[3]}", 1))       # skip-one: needs slop
            pairs.append((f"{tk[1]} {tk[2]}", 2))       # adjacent, widened
            pairs.append((f"{tk[2]} {tk[1]}", 2))       # TRANSPOSED: matches only out-of-order (cost 2)
            pairs.append((f"{tk[2]} {tk[1]}", 1))       # transposed under-budget: must NOT match adjacency
        if len(pairs) >= 15:
            break
    pairs.append(("zzzz_nonexistent qqqq", 3))
    seen, uniq = set(), []
    for p in pairs:
        if p not in seen:  # (text, slop) pairs: same text under two slops is intentional
            seen.add(p)
            uniq.append(p)
    _write_atomic(
        pa.table(
            {
                "query_id": pa.array(range(len(uniq)), type=pa.int64()),
                "text": pa.array([p for p, _ in uniq], type=pa.string()),
                "slop": pa.array([s for _, s in uniq], type=pa.int32()),
                "k": pa.array([10] * len(uniq), type=pa.int32()),
            }
        ),
        path,
    )
    return path


def _q_bm25_phrase_slop(sf_dir: str):
    """Sloppy phrase top-k (mode="phrase" with per-query slop): ordered
    greedy chain matching, Lucene sloppy weight 1/(1+gap) summed into the
    phrase frequency (stages/search._score_phrase_slop)."""
    _, index_dir = _ensure_pos_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_phrase_slop_queries(sf_dir),
                         mode="phrase")


_BOOSTING_NEGATIVE = "w000200 tool"


def _q_bm25_boosting(sf_dir: str):
    """Lucene/OpenSearch boosting query: positive BM25 matches that also
    match the negative query keep matching with score * negative_boost
    (0.5 — an exact power of two, so both engines halve bit-identically).
    Runs on the exhaustive scorer (demotion breaks block-max bounds)."""
    from remote_vector_index_builder_ray import search

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(fx["queries"])
    k_by_query = dict(zip(q["query_id"], q["k"]))
    q2 = q.assign(k=(q["k"] * 2).astype("int32"),
                  negative_text=_BOOSTING_NEGATIVE)
    res = search(index_dir, q2, mode="exhaustive", negative_boost=0.5).to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res["k"] = res["query_id"].map(k_by_query)
    res = res[res["rank"] <= res["k"]]
    return res[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    ).reset_index(drop=True)


def _ensure_qs_queries(sf_dir: str) -> str:
    """Deterministic simple_query_string set: '"bigram" extra -neg' strings
    built from sampled docs' tokens (phrase = tokens 1-2, extra should =
    token 3, neg = a corpus-common token on every third query), plus
    phrase-only, terms-only and all-negated edge cases."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_qs_queries.parquet")
    if os.path.exists(path):
        return path
    fx = _fx.ensure_fixture(name)
    src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    toks = src["text"].map(lambda t: tokenize_text(t or ""))
    qs: list[str] = []
    step = max(1, len(src) // 16)
    for j, i in enumerate(range(0, len(src), step)):
        tk = toks[i]
        if len(tk) >= 4:
            neg = " -the" if j % 3 == 0 else ""
            qs.append(f'"{tk[1]} {tk[2]}" {tk[3]}{neg}')
        if len(qs) >= 10:
            break
    qs.extend(['"zzzz_nonexistent qqqq" w000200', "w000100 w000200 -the",
               '"the to"', "-the"])
    seen, uniq = set(), []
    for s in qs:
        if s not in seen:
            seen.add(s)
            uniq.append(s)
    _write_atomic(
        pa.table(
            {
                "query_id": pa.array(range(len(uniq)), type=pa.int64()),
                "text": pa.array(uniq, type=pa.string()),
                "k": pa.array([10] * len(uniq), type=pa.int32()),
            }
        ),
        path,
    )
    return path


def _q_bm25_query_string(sf_dir: str):
    """simple_query_string: quoted phrase clauses + bare OR terms + -negs in
    one raw string, parsed by the frozen grammar and composed from the
    phrase/exhaustive/constant legs (pipelines/query.search_query_string)."""
    from remote_vector_index_builder_ray import search_query_string

    _, index_dir = _ensure_pos_index(sf_dir)
    return search_query_string(index_dir, _ensure_qs_queries(sf_dir))


def _q_bm25_hybrid(sf_dir: str):
    """Hybrid search: RRF fusion of the BM25 disjunction leg and the exact
    phrase leg over the phrase query set (pipelines/query.search_hybrid —
    the OpenSearch hybrid query + rrf processor shape)."""
    from remote_vector_index_builder_ray import search_hybrid

    _, index_dir = _ensure_pos_index(sf_dir)
    return search_hybrid(index_dir, _ensure_phrase_queries(sf_dir),
                         modes=("bmw", "phrase"), k=10)


def _q_bm25_rescore(sf_dir: str):
    """OpenSearch query rescorer (score_mode=total): BM25 top-30 window per
    query, re-scored by the same text as an exact phrase; final = bm25 +
    phrase on 6-rounded components (pipelines/query.rescore_phrase)."""
    from remote_vector_index_builder_ray import rescore_phrase

    _, index_dir = _ensure_pos_index(sf_dir)
    return rescore_phrase(index_dir, _ensure_phrase_queries(sf_dir),
                          window_size=30, k=10)


def _q_bm25_span_near(sf_dir: str):
    """span_near (in_order=false, 2-term spans): proximity matches in either
    direction, sloppy_freq = forward + backward greedy-chain sums
    (stages/search._score_span_near); same query set as the sloppy phrase."""
    _, index_dir = _ensure_pos_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_phrase_slop_queries(sf_dir),
                         mode="span_near")


def _q_bm25_phrase(sf_dir: str):
    """Exact phrase top-k over the positional index (mode="phrase"),
    Lucene PhraseQuery scoring: sum(idf(term_i)) * tfnorm(phrase_tf)."""
    _, index_dir = _ensure_pos_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_phrase_queries(sf_dir), mode="phrase")


def _topk_rounded(index_dir: str, queries_path: str, search_fn=None, **search_kw):
    """Shared driver-facing re-rank: search with 2k oversample, round scores
    to 6 decimals, re-rank (score desc, docid asc) — see module docstring."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search

    if search_fn is None:
        search_fn = search
        search_kw.setdefault("mode", "bmw")
    q = (queries_path if isinstance(queries_path, pd.DataFrame)
         else pq.read_table(queries_path).to_pandas())
    k_by_query = dict(zip(q["query_id"], q["k"]))
    q2 = q.assign(k=(q["k"] * 2).astype("int32"))
    res = search_fn(index_dir, q2, **search_kw).to_pandas()
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"], ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res["k"] = res["query_id"].map(k_by_query)
    res = res[res["rank"] <= res["k"]]
    return res[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    ).reset_index(drop=True)


def _q_bm25_search_service(sf_dir: str):
    """Warm-pool request-serving path (query_service.QueryService, the HTTP
    /_search verb's engine): a persistent pool of BM25Searcher actors keyed
    by the manifest fingerprint serves the SAME top-k contract as bm25_topk
    — SQL-checked against the identical oracle, so the serving path can
    never drift from the batch path."""
    import pyarrow as pa

    from remote_vector_index_builder_ray.query_service import QueryService

    fx, index_dir, _ = _ensure_index(sf_dir)
    svc = QueryService(pool_size=2)
    try:
        return _topk_rounded(
            index_dir, fx["queries"],
            search_fn=lambda idx, q, **kw: pa.Table.from_pandas(
                svc.search(idx, q, **kw), preserve_index=False),
            mode="bmw")
    finally:
        svc.shutdown()


def _q_bm25_delete_search(sf_dir: str):
    """Top-k after a LOGICAL delete (tombstones only): deleted docs vanish
    from results while live docs keep full-corpus stats — scores unchanged
    (Lucene numDocs-vs-maxDoc; pipelines/delete.py). The oracle scores the
    full corpus and drops deleted docids before ranking."""
    fx, index_dir = _ensure_del_index(sf_dir, compact=False)
    return _topk_rounded(index_dir, fx["queries"])


def _q_bm25_snippets(sf_dir: str):
    """Top-k with best-window snippets (pipelines/query.highlight): the
    8-token span with the most query-term hits, earliest-window tie-break,
    built from the analyzer token stream so SQL reproduces it byte-equal."""
    import pyarrow.parquet as pq
    import ray.data

    from remote_vector_index_builder_ray import highlight

    fx, index_dir, _ = _ensure_index(sf_dir)
    topk = _q_bm25_topk(sf_dir)
    qdf = pq.read_table(fx["queries"]).to_pandas()
    out = highlight(index_dir, ray.data.from_pandas(topk), qdf, window=8)
    return out[["query_id", "rank", "docid", "snippet"]].sort_values(
        ["query_id", "rank"]
    ).reset_index(drop=True).astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64"}
    )


def _q_bm25_snippets_multi(sf_dir: str):
    """Multi-fragment highlighting (OpenSearch number_of_fragments=3 with
    6-token fragments): the token stream splits into consecutive 6-token
    tiles; the top 3 tiles by query-term count (ties to the earliest)
    return in position order, one row per fragment
    (pipelines/query.highlight with number_of_fragments)."""
    import pyarrow.parquet as pq
    import ray.data

    from remote_vector_index_builder_ray import highlight

    fx, index_dir, _ = _ensure_index(sf_dir)
    topk = _q_bm25_topk(sf_dir)
    qdf = pq.read_table(fx["queries"]).to_pandas()
    out = highlight(index_dir, ray.data.from_pandas(topk), qdf, window=6,
                    number_of_fragments=3)
    return out[["query_id", "rank", "docid", "fragment_idx", "snippet"]] \
        .sort_values(["query_id", "rank", "fragment_idx"]) \
        .reset_index(drop=True).astype(
            {"query_id": "int64", "rank": "int32", "docid": "int64",
             "fragment_idx": "int32"}
        )


def _q_bm25_and(sf_dir: str):
    """Conjunctive match (operator='and'): every query term required;
    qualifying docs score identically to the OR search."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], operator="and")


def _q_bm25_msm(sf_dir: str):
    """minimum_should_match=2: a doc must contain at least 2 of the query's
    distinct terms; qualifying docs score identically to the OR search
    (stages/search.BM25Searcher min_should_match)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], min_should_match=2)


def _ensure_expand_queries(sf_dir: str) -> dict[str, str]:
    """Deterministic prefix / wildcard / fuzzy query sets for the
    multi-term-query entries (pipelines/expand). Driver-small, persisted so
    the DuckDB twins read exactly the same inputs."""
    import pyarrow as pa

    name = _sf_name(sf_dir)
    paths = {
        kind: os.path.join(ARTIFACT_ROOT, f"{name}_{kind}_queries.parquet")
        for kind in ("prefix", "wildcard", "fuzzy", "regexp")
    }
    sets = {
        "prefix": ["w0001", "w00002", "w0012", "th", "wh", "w049", "zzznomatch"],
        "wildcard": ["w00?2*", "w0003*", "w*9", "th*", "wor?", "zz*q"],
        "fuzzy": ["w000100", "w00010", "w000x42", "tre", "watfr", "qqqqqq"],
        # RE2 dialect, implicitly anchored on both engines (Lucene regexp /
        # DuckDB regexp_full_match)
        "regexp": ["w00[0-9]2.*", "th(e|at)", "w.*9", "wor.",
                   "w[0-9]{4}", "zzz.*q"],
    }
    for kind, vals in sets.items():
        if os.path.exists(paths[kind]):
            continue
        col = {"prefix": "prefix", "wildcard": "pattern", "fuzzy": "text",
               "regexp": "pattern"}[kind]
        _write_atomic(
            pa.table(
                {
                    "query_id": pa.array(range(len(vals)), type=pa.int64()),
                    col: pa.array(vals, type=pa.string()),
                    "k": pa.array([10] * len(vals), type=pa.int32()),
                }
            ),
            paths[kind],
        )
    return paths


def _q_bm25_prefix(sf_dir: str):
    """OpenSearch prefix query (constant-score rewrite): dictionary terms
    with the prefix expand on the driver (termstats range pushdown), any
    matching doc scores 1.0, docid-ascending order."""
    from remote_vector_index_builder_ray import search_prefix

    _, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(_ensure_expand_queries(sf_dir)["prefix"])
    res = search_prefix(index_dir, q).to_pandas()
    return res.sort_values(["query_id", "rank"]).reset_index(drop=True).astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    )


def _q_bm25_wildcard(sf_dir: str):
    """OpenSearch wildcard query (constant-score rewrite): ``*``/``?``
    patterns over the term dictionary."""
    from remote_vector_index_builder_ray import search_wildcard

    _, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(_ensure_expand_queries(sf_dir)["wildcard"])
    res = search_wildcard(index_dir, q).to_pandas()
    return res.sort_values(["query_id", "rank"]).reset_index(drop=True).astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    )


def _q_bm25_terms(sf_dir: str):
    """OpenSearch terms query (constant-score): docs containing ANY of the
    exact terms (first 3 analyzed tokens of each fixture query), score 1.0,
    docid-ascending (pipelines/expand.search_terms)."""
    from remote_vector_index_builder_ray import search_terms
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(fx["queries"])
    tq = pd.DataFrame({
        "query_id": q["query_id"].astype(np.int64),
        "terms": q["text"].map(lambda t: tokenize_text(t or "")[:3]),
        "k": q["k"].astype(np.int32),
    })
    res = search_terms(index_dir, tq).to_pandas()
    return res.sort_values(["query_id", "rank"]).reset_index(drop=True).astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    )


def _ensure_ps_queries(sf_dir: str) -> str:
    """Phrase-suggester query artifact: 2-token phrases from sampled docs
    with the last character of one token mutated (a distance-1 typo), plus
    a correct phrase and an uncorrectable-garbage phrase."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_ps_queries.parquet")
    if os.path.exists(path):
        return path
    fx = _fx.ensure_fixture(name)
    src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    toks = src["text"].map(lambda t: tokenize_text(t or ""))
    texts: list[str] = []
    step = max(1, len(src) // 12)
    for i in range(0, len(src), step):
        tk = toks[i]
        if len(tk) >= 3 and len(tk[1]) >= 3:
            typo = tk[1][:-1] + ("x" if tk[1][-1] != "x" else "q")
            texts.append(f"{typo} {tk[2]}")          # typo in token 1
            texts.append(f"{tk[1]} {tk[2]}")          # already correct
        if len(texts) >= 10:
            break
    texts.append("zzqqzzqq wvwvwvwv")                 # uncorrectable
    seen, uniq = set(), []
    for s in texts:
        if s not in seen:
            seen.add(s)
            uniq.append(s)
    _write_atomic(
        pa.table({
            "query_id": pa.array(range(len(uniq)), type=pa.int64()),
            "text": pa.array(uniq, type=pa.string()),
        }),
        path,
    )
    return path


def _q_bm25_suggest_phrase(sf_dir: str):
    """Phrase suggester (unigram-LM frozen mode): per-token best
    Levenshtein<=1 dictionary correction by df, suggestion scored by
    summed ln(df/N) (pipelines/expand.suggest_phrase)."""
    from remote_vector_index_builder_ray import suggest_phrase

    _, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(_ensure_ps_queries(sf_dir))
    return suggest_phrase(index_dir, q).reset_index(drop=True)


def _q_bm25_regexp(sf_dir: str):
    """OpenSearch regexp query (constant-score rewrite): RE2 patterns,
    implicitly anchored, expanded against the term dictionary
    (pipelines/expand.expand_regexp: literal-prefix range pushdown + one
    vectorized RE2 pass)."""
    from remote_vector_index_builder_ray import search_regexp

    _, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(_ensure_expand_queries(sf_dir)["regexp"])
    res = search_regexp(index_dir, q).to_pandas()
    return res.sort_values(["query_id", "rank"]).reset_index(drop=True).astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    )


def _q_bm25_fuzzy(sf_dir: str):
    """Fuzzy query, scoring-boolean rewrite: each query term expands to its
    Levenshtein<=1 dictionary neighborhood; the union scores as a BM25
    disjunction (each expanded term keeps its own idf)."""
    from remote_vector_index_builder_ray import search_fuzzy

    _, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(
        index_dir,
        _ensure_expand_queries(sf_dir)["fuzzy"],
        search_fn=search_fuzzy,
        max_edits=1,
    )


def _q_bm25_fuzzy_auto(sf_dir: str):
    """fuzziness: AUTO — the edit budget follows each query term's length
    (0 for 1-2 chars, 1 for 3-5, 2 above; the AUTO:3,6 default breakpoints)
    before the same scoring-boolean rewrite
    (pipelines/expand.search_fuzzy(max_edits='AUTO'))."""
    from remote_vector_index_builder_ray import search_fuzzy

    _, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(
        index_dir,
        _ensure_expand_queries(sf_dir)["fuzzy"],
        search_fn=search_fuzzy,
        max_edits="AUTO",
    )


def _q_bm25_filtered(sf_dir: str):
    """Filtered search (where=role='user'): OpenSearch filter-context
    semantics — corpus stats unchanged, non-matching docs dropped from the
    candidate set (pipelines/query.resolve_filter_docids: predicate pushed
    down into the docmeta scan, sorted allow-list broadcast once)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], where=[("role", "=", "user")])


def _q_bm25_search_pipeline(sf_dir: str):
    """OpenSearch search pipeline (the `_search_pipeline` surface): request
    processor filter_query (role='user') rewrites the search into filter
    context; response processors collapse(conv_id) -> truncate_hits(5) ->
    rename_field(score -> relevance) transform the returned page in order
    (pipelines/query.search_with_pipeline; collapse keeps the highest-
    ranked hit per conversation on the FETCHED page, it does not refill).
    round6: the engine-wide cross-engine float policy, applied before the
    processors so collapse survivors are boundary-stable vs the oracle."""
    from remote_vector_index_builder_ray.pipelines.query import (
        search_with_pipeline,
    )

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = search_with_pipeline(
        index_dir, fx["queries"],
        processors=[
            {"filter_query": {"where": [("role", "=", "user")]}},
            {"collapse": {"field": "conv_id"}},
            {"truncate_hits": {"target_size": 5}},
            {"rename_field": {"field": "score", "target_field": "relevance"}},
        ],
        round6=True,
    )
    return out.astype({"query_id": "int64", "rank": "int32",
                       "docid": "int64", "relevance": "float64"})


def _q_bm25_compacted(sf_dir: str):
    """Top-k after delete + expunging compaction: postings physically purged,
    stats shrink to the live corpus (docids keep their holes). The oracle is
    a from-scratch BM25 over the live docs under the ORIGINAL docid space."""
    fx, index_dir = _ensure_del_index(sf_dir, compact=True)
    return _topk_rounded(index_dir, fx["queries"])


_MLT_DOCS = [0, 100, 1000, 5000, 12345, 25000, 49999]


def _q_bm25_index_stats(sf_dir: str):
    """OpenSearch _stats/_count analog: whole-index doc/term/posting counts
    from stats.json + the termstats columns — the corpus never streams
    (pipelines/incremental.index_stats)."""
    from remote_vector_index_builder_ray import index_stats

    _, index_dir, _ = _ensure_index(sf_dir)
    return index_stats(index_dir)


def _q_bm25_restore(sf_dir: str):
    """Snapshot -> restore -> search: the restored index must answer the
    reference query set bit-identically, so this entry shares the bm25_topk
    oracle (pipelines/incremental.snapshot_index/restore_index)."""
    import shutil

    from remote_vector_index_builder_ray import restore_index, snapshot_index

    fx, index_dir, _ = _ensure_index(sf_dir)
    name = _sf_name(sf_dir)
    snap = os.path.join(INDEX_ROOT, f"{name}_snap")
    rest = os.path.join(INDEX_ROOT, f"{name}_restored")
    if not os.path.exists(os.path.join(rest, "manifest.json")):
        shutil.rmtree(snap, ignore_errors=True)
        shutil.rmtree(rest, ignore_errors=True)
        snapshot_index(index_dir, snap)
        restore_index(snap, rest)
    return _topk_rounded(rest, fx["queries"])


def _q_bm25_termvectors(sf_dir: str):
    """OpenSearch _termvectors (term_statistics=true): per requested doc its
    analyzed terms with within-doc tf and corpus df (pipelines/mlt.
    term_vectors — one broadcast docmeta fetch + termstats in-filter)."""
    from remote_vector_index_builder_ray import term_vectors

    _, index_dir, _ = _ensure_index(sf_dir)
    return term_vectors(index_dir, _MLT_DOCS).reset_index(drop=True)


def _q_bm25_mlt(sf_dir: str):
    """more_like_this (pipelines/mlt): Lucene MLT term selection (tf>=2,
    df>=5, top-25 by rounded tf*idf) + BM25 disjunction, like-doc excluded;
    2x oversample then rounded re-rank to page size 10."""
    from remote_vector_index_builder_ray import more_like_this

    _, index_dir, _ = _ensure_index(sf_dir)
    res = more_like_this(index_dir, _MLT_DOCS, k=20, mode="bmw")
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res = res[res["rank"] <= 10]
    return res[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    ).reset_index(drop=True)


def _q_bm25_page2(sf_dir: str):
    """Second result page via the real search_after cursor machinery: page 1
    (k=20 raw) yields the cursor, page 2 fetches strictly-after docs, the
    union re-ranks rounded and rows 11..20 are emitted — the same 2x
    oversample-then-round robustness as bm25_topk, applied to a page cut."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pq.read_table(fx["queries"]).to_pandas()
    q1 = q.assign(k=np.int32(20))
    p1 = search(index_dir, q1, mode="bmw").to_pandas()
    last = p1.sort_values(["query_id", "rank"]).groupby("query_id").tail(1)
    q2 = q1.merge(
        last[["query_id", "score", "docid"]].rename(
            columns={"score": "after_score", "docid": "after_docid"}
        ),
        on="query_id",
        how="inner",
    )
    p2 = search(index_dir, q2, mode="bmw").to_pandas()
    both = pd.concat([p1, p2], ignore_index=True)
    both["score"] = both["score"].round(6)
    both = both.sort_values(["query_id", "score", "docid"],
                            ascending=[True, False, True])
    both["rank"] = both.groupby("query_id").cumcount() + 1
    out = both[(both["rank"] > 10) & (both["rank"] <= 20)]
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    ).reset_index(drop=True)


def _q_bm25_percolate(sf_dir: str):
    """Percolator (pipelines/percolate): the corpus streams through the
    stored multi-term queries (operator=and, the alerting shape) with no
    index; output = every (conv_id, turn_idx, query_id) match."""
    from remote_vector_index_builder_ray import percolate

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    q = pd.read_parquet(fx["queries"])
    stored = q[(q["query_id"] % 8).isin([2, 3, 4])][["query_id", "text"]]
    out = (
        percolate(fx["transcripts"], stored, operator="and")
        .to_pandas()
        .sort_values(["query_id", "conv_id", "turn_idx"])
        .reset_index(drop=True)
        .astype({"turn_idx": "int32", "query_id": "int64"})
    )
    return out[["query_id", "conv_id", "turn_idx"]]


_SUGGEST_TERMS = ["w00010x", "thw", "peopel", "w123456", "qqqqqq"]


def _q_bm25_suggest(sf_dir: str):
    """Term suggester (did-you-mean): dictionary terms within 2 edits of
    each input, ranked (distance asc, df desc, term asc), top 5
    (pipelines/expand.suggest_terms)."""
    from remote_vector_index_builder_ray import suggest_terms

    _, index_dir, _ = _ensure_index(sf_dir)
    out = suggest_terms(index_dir, _SUGGEST_TERMS, max_edits=2,
                        prefix_length=0, size=5)
    return out.astype({"distance": "int64", "df": "int64"}).reset_index(drop=True)


def _ensure_ratings_artifact(sf_dir: str) -> str:
    """Deterministic graded relevance judgments for rank_eval: each query's
    bm25_topk docs at ranks 2/4/8 rated 3/2/1 (persisted so the SQL twin
    reads exactly the same judgments)."""
    import pyarrow as pa

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_ratings.parquet")
    if not os.path.exists(path):
        topk = _q_bm25_topk(sf_dir)
        rated = topk[topk["rank"].isin([2, 4, 8])].copy()
        rated["rating"] = rated["rank"].map({2: 3, 4: 2, 8: 1}).astype("int64")
        _write_atomic(
            pa.Table.from_pandas(
                rated[["query_id", "docid", "rating"]], preserve_index=False
            ),
            path,
        )
    return path


def _q_bm25_terminate_after(sf_dir: str):
    """OpenSearch terminate_after=25: hit collection stops after 25 matching
    docs per query (this engine collects in docid order, so the collected
    set is exactly the 25 smallest matching docids — deterministic where
    OpenSearch's per-shard cut is arrival-order-dependent); collected docs
    score normally, terminated_early flags truncation
    (pipelines/query.search_terminate_after — constant-mode first-T pass +
    per-query allow_docids re-score + distributed match_count reduce)."""
    from remote_vector_index_builder_ray import search_terminate_after

    fx, index_dir, _ = _ensure_index(sf_dir)
    return search_terminate_after(index_dir, pd.read_parquet(fx["queries"]),
                                  terminate_after=25)


def _q_bm25_err(sf_dir: str):
    """rank_eval expected_reciprocal_rank (ERR@10, Chapelle et al. 2009) of
    the bm25_topk ranking against the persisted graded judgments:
    Σ (1/r)·R_r·Π_{i<r}(1−R_i), R = (2^rating − 1)/2^max
    (functions/metrics.expected_reciprocal_rank)."""
    from remote_vector_index_builder_ray import expected_reciprocal_rank

    ratings = pd.read_parquet(_ensure_ratings_artifact(sf_dir))
    topk = _q_bm25_topk(sf_dir)
    return expected_reciprocal_rank(topk, ratings, k=10).reset_index(drop=True)


def _q_bm25_rank_eval(sf_dir: str):
    """rank_eval metrics (precision@10 / recall@10 / MRR / NDCG@10) of the
    bm25_topk ranking against the persisted graded judgments
    (functions/metrics.rank_eval)."""
    from remote_vector_index_builder_ray import rank_eval

    ratings = pd.read_parquet(_ensure_ratings_artifact(sf_dir))
    topk = _q_bm25_topk(sf_dir)
    return rank_eval(topk, ratings, k=10).reset_index(drop=True)


_AN_STOPWORDS = ("the", "and", "to", "of", "a", "in", "is", "it", "you",
                 "that", "he", "was")
_AN_MIN_LEN = 2


def _ensure_an_index(sf_dir: str) -> str:
    """Index built with the configurable analyzer (stopword filter + min
    token length, config.AnalyzerConfig)."""
    from remote_vector_index_builder_ray import BuildConfig
    from remote_vector_index_builder_ray.config import AnalyzerConfig

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_an")
    _build_fresh_on_collision(BuildConfig(
        input_paths=fx["transcripts"],
        index_dir=index_dir,
        num_partitions=min(4, len(fx["transcripts"])),
        analyzer=AnalyzerConfig(stopwords=_AN_STOPWORDS, min_token_len=_AN_MIN_LEN),
    ))
    return index_dir


def _q_bm25_analyzed(sf_dir: str):
    """Top-k over an index built with a configurable analyzer (stopword
    filter + min token length, config.AnalyzerConfig): both the index terms
    and the query terms pass the same filters; doc_len counts post-filter
    tokens (the norms Lucene's stop-filtered fields see)."""
    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    return _topk_rounded(_ensure_an_index(sf_dir), fx["queries"])


_ANALYZE_MOD = 997


def _q_bm25_analyze(sf_dir: str):
    """OpenSearch _analyze API: run sampled doc texts (docid % 997 == 0)
    through the analyzed index's analyzer, emitting (docid, term, position)
    with Lucene position increments — position = the token's PRE-filter
    stream index, so stopword gaps stay visible
    (functions/tokenizer.analyze_text_positions)."""
    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text_positions,
        load_analyzer,
    )
    import pyarrow.parquet as pq

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = _ensure_an_index(sf_dir)
    an = load_analyzer(index_dir)
    src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    src["docid"] = np.arange(len(src), dtype=np.int64)
    sel = src[src["docid"] % _ANALYZE_MOD == 0]
    rows = []
    for r in sel.itertuples(index=False):
        toks, poss = analyze_text_positions(r.text or "", an)
        rows.extend((int(r.docid), t, int(p)) for t, p in zip(toks, poss))
    return pd.DataFrame(rows, columns=["docid", "term", "position"]).astype(
        {"docid": np.int64, "position": np.int64})


def _q_bm25_reindex(sf_dir: str):
    """reindex (OpenSearch _reindex): rebuild the base index from its own
    stored fields (docmeta) under the analyzer config — no original input
    files touched. Results must equal a direct analyzed build, so this
    entry shares the bm25_analyzed oracle."""
    from remote_vector_index_builder_ray import reindex
    from remote_vector_index_builder_ray.config import AnalyzerConfig

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    _, src, _ = _ensure_index(sf_dir)
    dst = os.path.join(INDEX_ROOT, f"{name}_reix")
    an = AnalyzerConfig(stopwords=_AN_STOPWORDS, min_token_len=_AN_MIN_LEN)
    from remote_vector_index_builder_ray.config import HashCollisionError

    try:
        reindex(src, dst, analyzer=an)
    except HashCollisionError:
        # stale /tmp cache from an older code version (the job fingerprint
        # covers the analyzer config, which grows fields across rounds)
        import shutil

        shutil.rmtree(dst, ignore_errors=True)
        reindex(src, dst, analyzer=an)
    return _topk_rounded(dst, fx["queries"])


_SYN_TABLE = {
    "w000100": ["w000101", "w000102"],
    "w000200": ["w000201"],
    "the": ["and"],
    "time": ["day"],
}


def _q_bm25_synonyms(sf_dir: str):
    """Query-time synonyms with SynonymQuery blended scoring (df = max over
    group, per-doc tf = sum over group; pipelines/expand.search_synonyms)."""
    from remote_vector_index_builder_ray import search_synonyms

    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(
        index_dir, fx["queries"], search_fn=search_synonyms, synonyms=_SYN_TABLE
    )


def _ensure_mustnot_queries(sf_dir: str) -> str:
    """Standard query set + a cycling exclude_text column (stopword, common
    vocab word, absent term, none)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_mustnot_queries.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        q = pq.read_table(fx["queries"]).to_pandas()
        ex = ["the", "w000100", "zz_absent", ""]
        q["exclude_text"] = [ex[int(i) % len(ex)] for i in q["query_id"]]
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), path)
    return path


def _q_bm25_must_not(sf_dir: str):
    """bool.must_not: docs containing any excluded term drop; survivors
    score unchanged (non-scoring exclusion, stages/search._deny_set)."""
    _, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_mustnot_queries(sf_dir))


def _ensure_filterterms_queries(sf_dir: str) -> str:
    """Standard query set + a cycling filter_text column (stopword filter,
    selective term, absent term => match-nothing, empty => unfiltered)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_filterterms_queries.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        q = pq.read_table(fx["queries"]).to_pandas()
        fl = ["the", "w000100", "zz_absent", ""]
        q["filter_text"] = [fl[int(i) % len(fl)] for i in q["query_id"]]
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), path)
    return path


def _q_bm25_filter_terms(sf_dir: str):
    """bool.filter on the INDEXED field (stages/search filter_text column):
    candidates must contain >= 1 filter term; survivors score unchanged
    (filter context). An all-absent filter matches nothing; an empty one
    filters nothing."""
    _, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_filterterms_queries(sf_dir))


def _ensure_boolprefix_queries(sf_dir: str) -> str:
    """Standard query set with each text's LAST token truncated to its
    first 5 chars (a live dictionary prefix), plus prefix-only and absent
    variants."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_boolprefix_queries.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        q = pq.read_table(fx["queries"]).to_pandas().head(40)
        texts = []
        for t in q["text"]:
            toks = tokenize_text(t or "")
            texts.append(" ".join(toks[:-1] + [toks[-1][:5]]) if toks else "")
        q = q.assign(text=texts)
        extra = pd.DataFrame({
            "query_id": np.array([9001, 9002, 9003], dtype=np.int64),
            "text": ["w0001", "the w0001", "zzznomatch"],
            "k": np.array([10, 10, 10], dtype=np.int32),
        })
        q = pd.concat([q, extra], ignore_index=True)
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), path)
    return path


def _q_bm25_bool_prefix(sf_dir: str):
    """OpenSearch match_bool_prefix (pipelines/expand.search_match_bool_prefix):
    BM25 bool-OR over all but the last token + a constant-score prefix
    clause on the last (+1.0 on prefix match; prefix-only docs score 1.0).
    Driver float policy: 2k oversample, 6-decimal round, re-rank."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search_match_bool_prefix

    _, index_dir, _ = _ensure_index(sf_dir)
    qpath = _ensure_boolprefix_queries(sf_dir)
    q = pq.read_table(qpath).to_pandas()
    k_by_query = dict(zip(q["query_id"], q["k"]))
    res = search_match_bool_prefix(
        index_dir, q.assign(k=(q["k"] * 2).astype("int32"))
    )
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res = res[res["rank"] <= res["query_id"].map(k_by_query)]
    return res[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64",
         "score": "float64"}
    ).reset_index(drop=True)


def _q_bm25_explain(sf_dir: str):
    """Lucene-explain analog (pipelines/query.explain): per-term breakdown
    of every bm25_topk hit — one row per (query, doc, matching term) with
    tf, df and the term's half-up-rounded BM25 contribution."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import explain

    fx, index_dir, _ = _ensure_index(sf_dir)
    pairs = _q_bm25_topk(sf_dir)
    q = pq.read_table(fx["queries"]).to_pandas()
    ex = explain(index_dir, q, pairs[["query_id", "docid"]])
    ex["contrib"] = np.floor(ex["contrib"] * 1e6 + 0.5) / 1e6
    return ex.astype(
        {"query_id": "int64", "docid": "int64", "tf": "int64",
         "df": "int64", "contrib": "float64"}
    ).reset_index(drop=True)


def _q_bm25_facets(sf_dir: str):
    """OpenSearch terms aggregation over each query's FULL match set
    (pipelines/aggs.terms_agg): per-role doc counts + avg doc_len. The match
    sets broadcast once; docmeta streams through a per-batch combiner."""
    from remote_vector_index_builder_ray import terms_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = terms_agg(index_dir, pd.read_parquet(fx["queries"]),
                    field="role", metric_field="doc_len")
    return out.astype({"query_id": "int64", "n_docs": "int64",
                       "avg_doc_len": "float64"}).reset_index(drop=True)


def _q_bm25_date_histogram(sf_dir: str):
    """OpenSearch date_histogram (calendar day) over each query's full match
    set (pipelines/aggs.date_histogram); empty buckets omitted."""
    from remote_vector_index_builder_ray import date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = date_histogram(index_dir, pd.read_parquet(fx["queries"]))
    return out.astype({"query_id": "int64", "n_docs": "int64"}).reset_index(drop=True)


def _q_bm25_pipeline_aggs(sf_dir: str):
    """OpenSearch pipeline aggregations (cumulative_sum + derivative) over
    the per-day date_histogram of each query's match set
    (pipelines/aggs.pipeline_date_histogram); deriv NULL on each query's
    first bucket."""
    from remote_vector_index_builder_ray import pipeline_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = pipeline_date_histogram(index_dir, pd.read_parquet(fx["queries"]))
    return out.astype({"query_id": "int64", "n_docs": "int64",
                       "cum_docs": "int64", "deriv": "float64"}).reset_index(drop=True)


_DATE_RANGES = [(None, "2026-03-01"), ("2026-03-01", "2026-05-01"),
                ("2026-05-01", None)]


def _q_bm25_auto_histogram(sf_dir: str):
    """auto_date_histogram: the coarsest-needed calendar interval
    (day/week/month) whose bucket count fits target=20, per query
    (pipelines/aggs.auto_date_histogram)."""
    from remote_vector_index_builder_ray import auto_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = auto_date_histogram(index_dir, pd.read_parquet(fx["queries"]),
                              target_buckets=20)
    return out.reset_index(drop=True)


def _q_bm25_serial_diff(sf_dir: str):
    """serial_diff pipeline agg: lag-7 (week-over-week) difference over the
    per-day histogram (pipelines/aggs.serial_diff_date_histogram)."""
    from remote_vector_index_builder_ray import serial_diff_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = serial_diff_date_histogram(index_dir, pd.read_parquet(fx["queries"]),
                                     lag=7)
    return out.astype({"query_id": "int64", "n_docs": "int64",
                       "serial_diff": "float64"}).reset_index(drop=True)


def _q_bm25_moving_avg(sf_dir: str):
    """moving_avg/moving_fn pipeline agg: trailing-3-bucket mean over the
    per-day histogram (pipelines/aggs.moving_avg_date_histogram)."""
    from remote_vector_index_builder_ray import moving_avg_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = moving_avg_date_histogram(index_dir, pd.read_parquet(fx["queries"]))
    return out.astype({"query_id": "int64", "n_docs": "int64",
                       "moving_avg": "float64"}).reset_index(drop=True)


def _q_bm25_bucket_sort(sf_dir: str):
    """bucket_selector + bucket_sort pipeline aggs: buckets with
    n_docs >= 10, top-5 per query by (n_docs desc, key)
    (pipelines/aggs.bucket_sort_date_histogram)."""
    from remote_vector_index_builder_ray import bucket_sort_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = bucket_sort_date_histogram(index_dir, pd.read_parquet(fx["queries"]))
    return out.astype({"query_id": "int64", "n_docs": "int64",
                       "bucket_rank": "int32"}).reset_index(drop=True)


def _q_bm25_weighted_avg(sf_dir: str):
    """OpenSearch weighted_avg metric agg: per query's full match set,
    sum(doc_len*turn_idx)/sum(turn_idx) over docmeta — exact int64 partials,
    one rounded float64 division (pipelines/aggs.weighted_avg_agg)."""
    from remote_vector_index_builder_ray import weighted_avg_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = weighted_avg_agg(index_dir, pd.read_parquet(fx["queries"]),
                           value_field="doc_len", weight_field="turn_idx")
    return out.astype({"query_id": "int64",
                       "weighted_avg": "float64"}).reset_index(drop=True)


def _q_bm25_percentile_ranks(sf_dir: str):
    """OpenSearch percentile_ranks metric agg (exact CDF): % of each query's
    matched docs with doc_len <= v for v in (8, 16, 32)
    (pipelines/aggs.percentile_ranks_agg)."""
    from remote_vector_index_builder_ray import percentile_ranks_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = percentile_ranks_agg(index_dir, pd.read_parquet(fx["queries"]),
                               field="doc_len", values=(8, 16, 32))
    return out.astype({"query_id": "int64", "value": "float64",
                       "percent": "float64"}).reset_index(drop=True)


def _q_bm25_top_metrics(sf_dir: str):
    """OpenSearch top_metrics agg: doc_len of each query's top-3 matched
    docs by (ts DESC, docid ASC) — field-sorted, size-bounded partials
    (pipelines/aggs.top_metrics_agg)."""
    from remote_vector_index_builder_ray import top_metrics_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = top_metrics_agg(index_dir, pd.read_parquet(fx["queries"]),
                          sort_field="ts", metric_field="doc_len", size=3)
    return out.astype({"query_id": "int64", "rank": "int32", "docid": "int64",
                       "doc_len": "int64"}).reset_index(drop=True)


def _q_bm25_multi_terms(sf_dir: str):
    """OpenSearch multi_terms bucket agg: one bucket per (role, tool)
    combination of each query's match set; docs with a null/empty tool are
    skipped per OpenSearch source semantics
    (pipelines/aggs.multi_terms_agg)."""
    from remote_vector_index_builder_ray import multi_terms_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = multi_terms_agg(index_dir, pd.read_parquet(fx["queries"]),
                          fields=("role", "tool"))
    return out.astype({"query_id": "int64",
                       "n_docs": "int64"}).reset_index(drop=True)


def _q_bm25_stats_bucket(sf_dir: str):
    """OpenSearch stats_bucket sibling pipeline agg over the per-day
    date_histogram: per query bucket-count/min/max/sum/avg of daily doc
    counts (pipelines/aggs.stats_bucket_date_histogram)."""
    from remote_vector_index_builder_ray import stats_bucket_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = stats_bucket_date_histogram(index_dir, pd.read_parquet(fx["queries"]))
    return out.astype({"query_id": "int64", "n_buckets": "int64",
                       "min_docs": "int64", "max_docs": "int64",
                       "sum_docs": "int64",
                       "avg_docs": "float64"}).reset_index(drop=True)


def _q_bm25_sorted_multi(sf_dir: str):
    """Multi-key field sort (role asc, ts desc, docid asc) over each query's
    full match set (pipelines/query.search_sorted_multi)."""
    from remote_vector_index_builder_ray import search_sorted_multi

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = search_sorted_multi(index_dir, pd.read_parquet(fx["queries"]),
                              sort=[("role", True), ("ts", False)])
    return out.astype({"query_id": "int64", "rank": "int32",
                       "docid": "int64"}).reset_index(drop=True)


def _q_bm25_date_range(sf_dir: str):
    """OpenSearch date_range aggregation: [lo, hi) timestamp buckets over ts
    with OpenSearch "lo-hi" keys (pipelines/aggs.date_range_agg)."""
    from remote_vector_index_builder_ray import date_range_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = date_range_agg(index_dir, pd.read_parquet(fx["queries"]),
                         ranges=_DATE_RANGES)
    return out.astype({"query_id": "int64", "n_docs": "int64"}).reset_index(drop=True)


def _q_bm25_collapse(sf_dir: str):
    """Field collapsing on the conversation (OpenSearch collapse): top-k
    conversations per query by their best-scoring turn, one hit each;
    ordered by the driver's 6-decimal rounded-score policy
    (collapse_round6, stages/search._score_collapse)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search

    fx, index_dir, _ = _ensure_index(sf_dir)
    res = search(index_dir, pq.read_table(fx["queries"]).to_pandas(),
                 mode="collapse", collapse_round6=True).to_pandas()
    res["score"] = res["score"].round(6)
    return res.sort_values(["query_id", "rank"]).reset_index(drop=True).astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    )


def _q_bm25_dismax(sf_dir: str):
    """dis_max (Lucene DisjunctionMaxQuery, tie_breaker=0.3): score =
    max(term contribs) + 0.3 * (sum - max) (stages/search._score_dismax)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="dismax",
                         tie_breaker=0.3)


def _q_bm25_sorted(sf_dir: str):
    """Field-sorted search (sort: ts desc): top-k of each query's full
    match set by recency, not relevance (pipelines/query.search_sorted —
    constant-score matching + streaming docmeta top-k combiner)."""
    from remote_vector_index_builder_ray import search_sorted

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = search_sorted(index_dir, pd.read_parquet(fx["queries"]),
                        sort_field="ts", ascending=False)
    return out.reset_index(drop=True)


def _q_bm25_range_agg(sf_dir: str):
    """OpenSearch range aggregation ([lo,hi) doc_len buckets) over each
    query's full match set (pipelines/aggs.range_agg)."""
    from remote_vector_index_builder_ray import range_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = range_agg(index_dir, pd.read_parquet(fx["queries"]), field="doc_len",
                    ranges=[(None, 16), (16, 64), (64, None)])
    return out.astype({"query_id": "int64", "n_docs": "int64"}).reset_index(drop=True)


def _q_bm25_stats_agg(sf_dir: str):
    """OpenSearch stats aggregation (count/sum/min/max/avg of doc_len) over
    each query's full match set (pipelines/aggs.stats_agg)."""
    from remote_vector_index_builder_ray import stats_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = stats_agg(index_dir, pd.read_parquet(fx["queries"]), field="doc_len")
    return out.reset_index(drop=True)


def _q_bm25_extended_stats(sf_dir: str):
    """OpenSearch extended_stats aggregation (count/sum/sum_of_squares/avg/
    population variance/std of doc_len) over each query's full match set
    (pipelines/aggs.extended_stats_agg): one associative (n, Σv, Σv²)
    reduction, float derivation order frozen to match the SQL twin."""
    from remote_vector_index_builder_ray import extended_stats_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = extended_stats_agg(index_dir, pd.read_parquet(fx["queries"]),
                             field="doc_len")
    return out.reset_index(drop=True)


def _q_bm25_histogram(sf_dir: str):
    """OpenSearch histogram aggregation (fixed numeric interval=8 over
    doc_len) over each query's full match set (pipelines/aggs.histogram_agg);
    min_doc_count=1 semantics."""
    from remote_vector_index_builder_ray import histogram_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = histogram_agg(index_dir, pd.read_parquet(fx["queries"]),
                        field="doc_len", interval=8)
    return out.reset_index(drop=True)


def _q_bm25_terms_size(sf_dir: str):
    """terms aggregation with size=2 + sum_other_doc_count: per query the
    two biggest role buckets by (count desc, key asc) with the truncated
    buckets' total doc count riding each row
    (pipelines/aggs.terms_agg_sized)."""
    from remote_vector_index_builder_ray import terms_agg_sized

    fx, index_dir, _ = _ensure_index(sf_dir)
    return terms_agg_sized(index_dir, pd.read_parquet(fx["queries"]),
                           field="role", size=2).reset_index(drop=True)


def _q_bm25_histogram_offset(sf_dir: str):
    """histogram aggregation with `offset`: boundaries shift by 3, key =
    floor((doc_len - 3)/8)*8 + 3 — doc_len 0-2 lands in the -5 bucket, as
    in OpenSearch (pipelines/aggs.histogram_agg(offset=3))."""
    from remote_vector_index_builder_ray import histogram_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = histogram_agg(index_dir, pd.read_parquet(fx["queries"]),
                        field="doc_len", interval=8, offset=3)
    return out.reset_index(drop=True)


def _q_bm25_month_histogram(sf_dir: str):
    """date_histogram with calendar_interval=month: bucket key = month
    start (pipelines/aggs.date_histogram(interval='month'))."""
    from remote_vector_index_builder_ray import date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = date_histogram(index_dir, pd.read_parquet(fx["queries"]),
                         field="ts", interval="month")
    return out.reset_index(drop=True)


def _q_bm25_missing(sf_dir: str):
    """OpenSearch missing + value_count aggregations over the tool field of
    each query's full match set (pipelines/aggs.missing_agg): '' marks a
    turn without a tool call — the absent-field analog."""
    from remote_vector_index_builder_ray import missing_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = missing_agg(index_dir, pd.read_parquet(fx["queries"]), field="tool")
    return out.reset_index(drop=True)


_FILTERS_SPEC = {
    "user": [("role", "=", "user")],
    "long": [("doc_len", ">=", 64)],
    "tooled": [("tool", "!=", "")],
}


def _q_bm25_filters(sf_dir: str):
    """OpenSearch filters aggregation: named overlapping predicate buckets
    (user role / long docs / tool turns) counted over each query's full
    match set (pipelines/aggs.filters_agg)."""
    from remote_vector_index_builder_ray import filters_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = filters_agg(index_dir, pd.read_parquet(fx["queries"]), _FILTERS_SPEC)
    return out.reset_index(drop=True)


def _q_bm25_adjacency(sf_dir: str):
    """OpenSearch adjacency_matrix aggregation: the same named filters plus
    'a&b' pairwise-intersection buckets (pipelines/aggs.adjacency_matrix_agg)."""
    from remote_vector_index_builder_ray import adjacency_matrix_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = adjacency_matrix_agg(index_dir, pd.read_parquet(fx["queries"]),
                               _FILTERS_SPEC)
    return out.reset_index(drop=True)


def _q_bm25_string_stats(sf_dir: str):
    """OpenSearch string_stats agg over the tool field: value-length stats
    plus Shannon entropy of the matched values' character distribution
    (pipelines/aggs.string_stats_agg — O(256) byte-histogram partials)."""
    from remote_vector_index_builder_ray import string_stats_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = string_stats_agg(index_dir, pd.read_parquet(fx["queries"]),
                           field="tool")
    return out.reset_index(drop=True)


def _q_bm25_rare_terms(sf_dir: str):
    """OpenSearch rare_terms agg: match-set terms with corpus df <= 2
    (pipelines/aggs.rare_terms_agg — the long-tail complement of terms)."""
    from remote_vector_index_builder_ray import rare_terms_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = rare_terms_agg(index_dir, pd.read_parquet(fx["queries"]),
                         max_doc_count=2)
    return out.reset_index(drop=True)


def _q_bm25_global_agg(sf_dir: str):
    """OpenSearch global bucket agg: whole-index role buckets with avg
    doc_len — a pure streaming groupby, no query (pipelines/aggs.
    global_terms_agg)."""
    from remote_vector_index_builder_ray import global_terms_agg

    _, index_dir, _ = _ensure_index(sf_dir)
    return global_terms_agg(index_dir).reset_index(drop=True)


def _q_bm25_cardinality(sf_dir: str):
    """OpenSearch cardinality aggregation (exact mode) over each query's
    full match set: distinct conversations matched
    (pipelines/aggs.cardinality_agg; HLL mode is the pytest-checked 100 TB
    path)."""
    from remote_vector_index_builder_ray import cardinality_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = cardinality_agg(index_dir, pd.read_parquet(fx["queries"]),
                          field="conv_id", exact=True)
    return out.reset_index(drop=True)


def _q_bm25_percentiles(sf_dir: str):
    """OpenSearch percentiles aggregation (nearest-rank, discrete) of
    doc_len over each query's full match set
    (pipelines/aggs.percentiles_agg)."""
    from remote_vector_index_builder_ray import percentiles_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = percentiles_agg(index_dir, pd.read_parquet(fx["queries"]),
                          field="doc_len", percents=(25, 50, 75, 95, 99))
    return out.reset_index(drop=True)


def _q_bm25_boxplot(sf_dir: str):
    """OpenSearch boxplot aggregation of doc_len over each query's full
    match set — nearest-rank discrete quartiles (pipelines/aggs.
    boxplot_agg; OpenSearch's TDigest is approximate, ours is exact)."""
    from remote_vector_index_builder_ray import boxplot_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = boxplot_agg(index_dir, pd.read_parquet(fx["queries"]),
                      field="doc_len")
    return out.reset_index(drop=True)


def _q_bm25_mad(sf_dir: str):
    """OpenSearch median_absolute_deviation aggregation of doc_len over
    each query's full match set — exact discrete MAD from the value
    histogram (pipelines/aggs.mad_agg)."""
    from remote_vector_index_builder_ray import mad_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = mad_agg(index_dir, pd.read_parquet(fx["queries"]), field="doc_len")
    return out.reset_index(drop=True)


def _q_bm25_t_test(sf_dir: str):
    """OpenSearch t_test aggregation (heteroscedastic / Welch's unpaired t)
    of doc_len between the user and assistant populations of each query's
    match set (pipelines/aggs.t_test_agg)."""
    from remote_vector_index_builder_ray import t_test_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = t_test_agg(index_dir, pd.read_parquet(fx["queries"]),
                     field="doc_len",
                     pred_a=(("role", "=", "user"),),
                     pred_b=(("role", "=", "assistant"),))
    return out.reset_index(drop=True)


def _q_bm25_rate(sf_dir: str):
    """OpenSearch rate aggregation (unit=day) under a fixed_interval=7d
    date_histogram over each query's match set: per-day doc and doc_len-sum
    rates per epoch-anchored week bucket (pipelines/aggs.rate_agg)."""
    from remote_vector_index_builder_ray import rate_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = rate_agg(index_dir, pd.read_parquet(fx["queries"]),
                   field="ts", metric_field="doc_len")
    return out.reset_index(drop=True)


def _q_bm25_top_hits(sf_dir: str):
    """OpenSearch top_hits sub-aggregation under a terms(role) bucket: the
    2 best BM25 hits per (query, role) (pipelines/aggs.top_hits_agg)."""
    from remote_vector_index_builder_ray import top_hits_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = top_hits_agg(index_dir, pd.read_parquet(fx["queries"]),
                       field="role", size=2)
    return out.reset_index(drop=True)


def _q_bm25_sig_terms(sf_dir: str):
    """OpenSearch significant_terms aggregation (JLH score): terms over-
    represented in each query's match set vs the corpus, top 10
    (pipelines/aggs.significant_terms_agg)."""
    from remote_vector_index_builder_ray import significant_terms_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = significant_terms_agg(index_dir, pd.read_parquet(fx["queries"]),
                                size=10)
    return out.reset_index(drop=True)


def _ensure_mm(sf_dir: str):
    """multi_match prerequisites: a second index over the ``tool`` field
    (same rows and (conv_id, turn_idx) order, so the docid space is shared)
    and a deterministic mixed-field query artifact (original query text + a
    cycling tool name) the DuckDB twin reads verbatim."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import BuildConfig

    fx, index_dir, _ = _ensure_index(sf_dir)
    name = _sf_name(sf_dir)
    tool_src = os.path.join(ARTIFACT_ROOT, f"{name}_tool_transcripts.parquet")
    if not os.path.exists(tool_src):
        src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
        src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
        derived = src.copy()
        derived["text"] = derived["tool"]
        _write_atomic(pa.Table.from_pandas(derived, preserve_index=False), tool_src)
    tool_idx = os.path.join(INDEX_ROOT, f"{name}_tool")
    _build_fresh_on_collision(BuildConfig(
        input_paths=[tool_src], index_dir=tool_idx, num_buckets=32,
    ))
    mm_q = os.path.join(ARTIFACT_ROOT, f"{name}_mm_queries.parquet")
    if not os.path.exists(mm_q):
        src = pq.read_table(tool_src, columns=["tool"]).to_pandas()
        tools = sorted(t for t in set(src["tool"]) if t)[:4]
        q = pd.read_parquet(fx["queries"])
        q["text"] = [
            f"{t} {tools[int(qid) % len(tools)]}"
            for qid, t in zip(q["query_id"], q["text"])
        ]
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), mm_q)
    return index_dir, tool_idx, mm_q


def _q_bm25_multi_match(sf_dir: str):
    """OpenSearch multi_match best_fields over (text, tool) field indexes
    with tie_breaker=0.3 (pipelines/query.search_multi_match): per doc,
    max(field BM25 scores) + 0.3 * residual — Lucene DisMax over fields."""
    from remote_vector_index_builder_ray import search_multi_match

    index_dir, tool_idx, mm_q = _ensure_mm(sf_dir)
    out = search_multi_match(
        {"text": index_dir, "tool": tool_idx},
        pd.read_parquet(mm_q), tie_breaker=0.3,
    )
    return out.reset_index(drop=True)


def _q_bm25_most_fields(sf_dir: str):
    """OpenSearch multi_match most_fields over (text, tool) field indexes:
    per doc the field scores ADD (BooleanQuery SHOULD-over-fields), vs the
    best_fields dismax of bm25_multi_match."""
    from remote_vector_index_builder_ray import search_multi_match

    index_dir, tool_idx, mm_q = _ensure_mm(sf_dir)
    out = search_multi_match(
        {"text": index_dir, "tool": tool_idx},
        pd.read_parquet(mm_q), match_type="most_fields",
    )
    return out.reset_index(drop=True)


def _q_bm25_combined_fields(sf_dir: str):
    """OpenSearch combined_fields over (text, tool^2) — Lucene
    CombinedFieldQuery / BM25F: per-field raw tfs combine FIRST
    (tf_c = tf_text + 2*tf_tool), one saturation against the combined
    field's length norms, idf over the EXACT union document frequency
    (pipelines/query.search_combined_fields; the documented divergence from
    Lucene's max-df approximation)."""
    from remote_vector_index_builder_ray import search_combined_fields

    index_dir, tool_idx, mm_q = _ensure_mm(sf_dir)
    out = search_combined_fields(
        {"text": index_dir, "tool": tool_idx},
        pd.read_parquet(mm_q), weights={"text": 1.0, "tool": 2.0},
    )
    return out.reset_index(drop=True)


def _q_bm25_cross_fields(sf_dir: str):
    """OpenSearch multi_match cross_fields over (text, tool): term-centric
    blended scoring (Lucene BlendedTermQuery) — per term the document
    frequency blends across fields (max), each field contributes its raw tf
    saturation under its own norms, fields combine as dismax +
    tie_breaker * residual, terms sum
    (pipelines/query.search_cross_fields). tie_breaker=0.25."""
    from remote_vector_index_builder_ray import search_cross_fields

    index_dir, tool_idx, mm_q = _ensure_mm(sf_dir)
    out = search_cross_fields(
        {"text": index_dir, "tool": tool_idx},
        pd.read_parquet(mm_q), tie_breaker=0.25,
    )
    return out.reset_index(drop=True)


def _ensure_pp_queries(sf_dir: str) -> str:
    """match_phrase_prefix query artifact: head token + truncated last token
    drawn from corpus docs (mixed prefix lengths so the max_expansions=50
    cap is exercised), plus single-token and absent prefixes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_pp_queries.parquet")
    if os.path.exists(path):
        return path
    fx = _fx.ensure_fixture(name)
    src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    texts: list[str] = []
    step = max(1, len(src) // 12)
    for cut in (6, 4):  # long prefix (few completions) and short (cap hits)
        for i in range(0, len(src), step):
            tk = tokenize_text(src["text"].iloc[i] or "")
            if len(tk) >= 2 and len(tk[1]) > cut:
                texts.append(f"{tk[0]} {tk[1][:cut]}")
            if len(texts) >= (8 if cut == 6 else 14):
                break
    texts += ["w0001", "zzqq_absent"]
    seen, uniq = set(), []
    for t in texts:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    _write_atomic(
        pa.table({
            "query_id": pa.array(range(len(uniq)), type=pa.int64()),
            "text": pa.array(uniq, type=pa.string()),
            "k": pa.array([100] * len(uniq), type=pa.int32()),
        }),
        path,
    )
    return path


def _q_bm25_phrase_prefix(sf_dir: str):
    """OpenSearch match_phrase_prefix (constant-score rewrite,
    max_expansions=50): head tokens + any of the first 50 dictionary
    completions of the trailing prefix, matched at consecutive positions
    (pipelines/expand.search_phrase_prefix over the positional index)."""
    from remote_vector_index_builder_ray.pipelines.expand import (
        search_phrase_prefix,
    )

    _, index_dir = _ensure_pos_index(sf_dir)
    q = pd.read_parquet(_ensure_pp_queries(sf_dir))
    return search_phrase_prefix(index_dir, q, max_expansions=50)


def _q_bm25_func_score(sf_dir: str):
    """OpenSearch function_score with field_value_factor(log1p doc_len,
    boost_mode=multiply): every match's BM25 score x ln(1 + doc_len)
    (pipelines/query.function_score)."""
    from remote_vector_index_builder_ray.pipelines.query import function_score

    fx, index_dir, _ = _ensure_index(sf_dir)
    return function_score(index_dir, pd.read_parquet(fx["queries"]),
                          field="doc_len", modifier="log1p")


def _q_bm25_random_score(sf_dir: str):
    """OpenSearch function_score random_score(seed=7, boost_mode=multiply):
    deterministic per-doc pseudo-random multiplier in [0,1) from an
    explicit docid LCG (pipelines/query.random_score) — the reproducible
    result-sampling idiom."""
    from remote_vector_index_builder_ray import random_score

    fx, index_dir, _ = _ensure_index(sf_dir)
    return random_score(index_dir, pd.read_parquet(fx["queries"]), seed=7)


def _q_bm25_script_score(sf_dir: str):
    """OpenSearch script_score: every match re-scored by the sandboxed
    script `_score * (1.0 + v / 256.0)` with v = doc_len (pipelines/query.
    script_score; the AST-validated expression runs verbatim in the SQL
    twin)."""
    from remote_vector_index_builder_ray import script_score

    fx, index_dir, _ = _ensure_index(sf_dir)
    return script_score(index_dir, pd.read_parquet(fx["queries"]),
                        expr="_score * (1.0 + v / 256.0)", field="doc_len")


def _q_bm25_decay(sf_dir: str):
    """OpenSearch function_score linear decay on recency: BM25 x
    max(0, 1 - |ts - origin| / scale) with origin = newest turn and scale =
    corpus time span (epoch microseconds; both derivable by the SQL twin)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.query import function_score

    fx, index_dir, _ = _ensure_index(sf_dir)
    ts = pd.concat(
        [pq.read_table(p, columns=["ts"]).to_pandas() for p in fx["transcripts"]]
    )["ts"].astype("datetime64[us]").astype(np.int64)
    params = {"origin": float(ts.max()),
              "scale": float(max(1, int(ts.max()) - int(ts.min())))}
    return function_score(index_dir, pd.read_parquet(fx["queries"]),
                          field="ts", modifier="linear_decay", params=params)


def _q_bm25_gauss_decay(sf_dir: str):
    """OpenSearch function_score gauss decay on recency: BM25 x
    exp(-d²/(2σ²)) with d = max(0, |ts - origin|), origin = newest turn,
    scale = span/4, decay = 0.5 (σ² = -scale²/(2·ln 0.5) — the multiplier
    is exactly 0.5 at distance scale, the OpenSearch contract)
    (pipelines/query.function_score modifier='gauss_decay')."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.query import function_score

    fx, index_dir, _ = _ensure_index(sf_dir)
    ts = pd.concat(
        [pq.read_table(p, columns=["ts"]).to_pandas() for p in fx["transcripts"]]
    )["ts"].astype("datetime64[us]").astype(np.int64)
    params = {"origin": float(ts.max()),
              "scale": float(max(1, int(ts.max()) - int(ts.min()))) / 4.0,
              "decay": 0.5}
    return function_score(index_dir, pd.read_parquet(fx["queries"]),
                          field="ts", modifier="gauss_decay", params=params)


def _q_bm25_exp_decay(sf_dir: str):
    """OpenSearch function_score exp decay on recency: BM25 x
    exp(ln(0.5)/scale · d) with d = max(0, |ts - origin|), origin = newest
    turn, scale = span/4 (multiplier 0.5 at distance scale)
    (pipelines/query.function_score modifier='exp_decay')."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.query import function_score

    fx, index_dir, _ = _ensure_index(sf_dir)
    ts = pd.concat(
        [pq.read_table(p, columns=["ts"]).to_pandas() for p in fx["transcripts"]]
    )["ts"].astype("datetime64[us]").astype(np.int64)
    params = {"origin": float(ts.max()),
              "scale": float(max(1, int(ts.max()) - int(ts.min()))) / 4.0,
              "decay": 0.5}
    return function_score(index_dir, pd.read_parquet(fx["queries"]),
                          field="ts", modifier="exp_decay", params=params)


def _q_bm25_composite(sf_dir: str):
    """OpenSearch composite aggregation with two sources — terms(role) x
    date_histogram(day) — over each query's full match set
    (pipelines/aggs.composite_agg)."""
    from remote_vector_index_builder_ray import composite_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = composite_agg(index_dir, pd.read_parquet(fx["queries"]),
                        term_field="role", date_field="ts")
    return out.reset_index(drop=True)


def _ensure_fed_indexes(sf_dir: str):
    """Two standalone indexes over the corpus halves (the inc-split
    artifacts): federated-search legs, each with its OWN corpus stats."""
    from remote_vector_index_builder_ray import BuildConfig

    name = _sf_name(sf_dir)
    _ensure_inc_index(sf_dir)  # materializes the part_a/part_b split
    split_dir = os.path.join(ARTIFACT_ROOT, f"{name}_split")
    dirs = []
    for part in ("a", "b"):
        idx = os.path.join(INDEX_ROOT, f"{name}_fed{part}")
        _build_fresh_on_collision(BuildConfig(
            input_paths=[os.path.join(split_dir, f"part_{part}.parquet")],
            index_dir=idx,
        ))
        dirs.append(idx)
    return dirs


def _q_bm25_federated(sf_dir: str):
    """Federated search across two indexes with indices_boost (a: 1.0,
    b: 1.5): each leg scores with its own stats (query_then_fetch), boosted
    rounded scores merge to a global top-10
    (pipelines/query.multi_index_search)."""
    from remote_vector_index_builder_ray.pipelines.query import multi_index_search

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    dirs = _ensure_fed_indexes(sf_dir)
    return multi_index_search(dirs, pd.read_parquet(fx["queries"]), k=10,
                              boosts=[1.0, 1.5], labels=["a", "b"])


def _q_bm25_alias(sf_dir: str):
    """Filtered alias: 'user_turns' stores the role='user' filter in the
    manifest; searching THROUGH the alias equals the filtered search (same
    oracle as bm25_filtered) (pipelines/incremental.create_alias /
    search_alias)."""
    from remote_vector_index_builder_ray.pipelines.incremental import (
        create_alias,
        search_alias,
    )

    fx, index_dir, _ = _ensure_index(sf_dir)
    create_alias(index_dir, "user_turns", where=[("role", "=", "user")])
    return _topk_rounded(
        index_dir, fx["queries"],
        search_fn=lambda d, q, **kw: search_alias(d, "user_turns", q, **kw),
        mode="bmw",
    )


def _q_bm25_sorted_after(sf_dir: str):
    """Field-sorted deep pagination: page 2 of the ts-desc sort via REAL
    per-query (ts, docid) cursors — the probe drops everything at-or-before
    the cursor, so page 2 ships only its own rows
    (pipelines/query.search_sorted(after={qid: (ts, docid)}))."""
    from remote_vector_index_builder_ray import search_sorted

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(fx["queries"])
    p1 = search_sorted(index_dir, q, sort_field="ts", ascending=False)
    last = p1.sort_values(["query_id", "rank"]).groupby("query_id").tail(1)
    cursors = {int(r.query_id): (np.datetime64(r.ts, "us"), int(r.docid))
               for r in last.itertuples(index=False)}
    p2 = search_sorted(index_dir, q, sort_field="ts", ascending=False,
                       after=cursors)
    k_by_query = dict(zip(q["query_id"], q["k"]))
    p2["rank"] = (p2["rank"].astype(np.int64)
                  + p2["query_id"].map(k_by_query).astype(np.int64)).astype(np.int32)
    return p2.reset_index(drop=True)


def _q_source_mix(sf_dir: str):
    """Pretraining data-mixing weights: per-source doc/token totals, token
    share, and the equal-token-share per-doc sampling weight (capped at 1)
    (extras/text.source_mix_weights — one partial pass + a sources-sized
    groupby)."""
    from remote_vector_index_builder_ray.extras.text import source_mix_weights

    return source_mix_weights(_read(sf_dir, "documents"))


def _q_bm25_max_bucket(sf_dir: str):
    """max_bucket pipeline aggregation: per query, the day bucket(s) of the
    day histogram holding the maximum doc count (ties all returned, as
    OpenSearch's keys list) — a reduction over the parent histogram's
    driver-small bucket stream."""
    from remote_vector_index_builder_ray import date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    base = date_histogram(index_dir, pd.read_parquet(fx["queries"]), field="ts")
    if base.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "key": pd.Series(dtype="datetime64[us]"),
                             "n_docs": pd.Series(dtype=np.int64)})
    mx = base.groupby("query_id")["n_docs"].transform("max")
    out = base[base["n_docs"] == mx]
    return (out.sort_values(["query_id", "key"]).reset_index(drop=True)
            .astype({"query_id": np.int64, "n_docs": np.int64}))


def _q_bm25_min_bucket(sf_dir: str):
    """min_bucket pipeline aggregation: per query, the day bucket(s) of the
    day histogram holding the MINIMUM doc count (ties all returned, as
    OpenSearch's keys list) — the sibling reduction to bm25_max_bucket over
    the parent histogram's driver-small bucket stream."""
    from remote_vector_index_builder_ray import date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    base = date_histogram(index_dir, pd.read_parquet(fx["queries"]), field="ts")
    if base.empty:
        return pd.DataFrame({"query_id": pd.Series(dtype=np.int64),
                             "key": pd.Series(dtype="datetime64[us]"),
                             "n_docs": pd.Series(dtype=np.int64)})
    mn = base.groupby("query_id")["n_docs"].transform("min")
    out = base[base["n_docs"] == mn]
    return (out.sort_values(["query_id", "key"]).reset_index(drop=True)
            .astype({"query_id": np.int64, "n_docs": np.int64}))


def _q_bm25_bucket_correlation(sf_dir: str):
    """bucket_correlation pipeline aggregation (count_correlation): per
    query, the Pearson correlation of the day histogram's doc counts
    (key-ascending) against the 0..n-1 ramp indicator — "is match activity
    trending across days"; <2 buckets or zero count variance omitted
    (pipelines/aggs.bucket_correlation_date_histogram)."""
    from remote_vector_index_builder_ray import bucket_correlation_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    return bucket_correlation_date_histogram(
        index_dir, pd.read_parquet(fx["queries"])).reset_index(drop=True)


def _q_bm25_ks_test(sf_dir: str):
    """bucket_count_ks_test pipeline aggregation: per query, the two-sided
    K-S statistic of the day histogram's cumulative doc-count fraction vs
    the uniform null fractions (OpenSearch's default); we return the
    deterministic statistic, not OpenSearch's Monte-Carlo p-value —
    documented divergence
    (pipelines/aggs.bucket_count_ks_test_date_histogram)."""
    from remote_vector_index_builder_ray import bucket_count_ks_test_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    return bucket_count_ks_test_date_histogram(
        index_dir, pd.read_parquet(fx["queries"])).reset_index(drop=True)


def _q_ingest_simulate(sf_dir: str):
    """OpenSearch ingest pipeline (`_ingest/pipeline` + `_simulate`): an
    ordered processor chain — lowercase(text), gsub digits→'#', trim,
    rename role→speaker, set pipeline='v1', remove tool — applied to every
    transcript turn as ONE vectorized Arrow map_batches stage (RE2 ==
    DuckDB regexp_replace 'g'; explicit trim characters so SQL trim(x,
    chars) is bit-identical) (pipelines/ingest.ingest_apply)."""
    from remote_vector_index_builder_ray import ingest_apply

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    ds = ingest_apply(fx["transcripts"], [
        {"lowercase": {"field": "text"}},
        {"gsub": {"field": "text", "pattern": "[0-9]+",
                  "replacement": "#"}},
        {"trim": {"field": "text"}},
        {"rename": {"field": "role", "target_field": "speaker"}},
        {"set": {"field": "pipeline", "value": "v1"}},
        {"remove": {"field": "tool"}},
    ])
    out = ds.to_pandas()
    out = out[["conv_id", "turn_idx", "speaker", "pipeline", "text"]]
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)


def _q_chunk_docs(sf_dir: str):
    """Sliding-window token chunking (RAG/long-context preprocessing):
    32-token windows advancing by 24 (8-token overlap), final window short
    (extras/text.chunk_documents — pure map, no shuffle)."""
    from remote_vector_index_builder_ray.extras.text import chunk_documents

    out = chunk_documents(_read(sf_dir, "documents"), max_tokens=32,
                          stride=24).to_pandas()
    if "doc_id" not in out.columns:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                             "chunk_idx": pd.Series(dtype=np.int32),
                             "n_tokens": pd.Series(dtype=np.int32),
                             "chunk_text": pd.Series(dtype=object)})
    return (out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
            .astype({"doc_id": np.int64, "chunk_idx": np.int32,
                     "n_tokens": np.int32}))


def _q_conv_stats(sf_dir: str):
    """Per-conversation rollup (turns, user turns, tool calls, tokens,
    wall-clock span): contiguous-conv batch partials + one conv groupby —
    the result streams (extras/text.conversation_stats)."""
    from remote_vector_index_builder_ray.extras.text import conversation_stats
    from remote_vector_index_builder_ray.sources.transcripts import read_transcripts

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    out = conversation_stats(read_transcripts(fx["transcripts"])).to_pandas()
    return (out.sort_values("conv_id").reset_index(drop=True)
            .astype({"n_turns": np.int64, "n_user_turns": np.int64,
                     "n_tool_calls": np.int64, "total_tokens": np.int64,
                     "span_seconds": np.float64}))


def _q_bm25_rebucketed(sf_dir: str):
    """Top-k after postings resharding (rebucket_index 32 -> 13 buckets, no
    rebuild — payloads move byte-unchanged, the new bucket count commits in
    the same rename as the resharded postings): results identical to the
    one-shot bm25_topk oracle."""
    from remote_vector_index_builder_ray import BuildConfig
    from remote_vector_index_builder_ray.pipelines.incremental import rebucket_index

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_rebkt")
    _build_fresh_on_collision(BuildConfig(
        input_paths=fx["transcripts"], index_dir=index_dir,
        num_partitions=min(4, len(fx["transcripts"])), num_buckets=32,
    ))
    import json as _json

    man = _json.load(open(os.path.join(index_dir, "manifest.json")))
    if int(man.get("num_buckets", 0)) != 13:  # idempotent across driver runs
        rebucket_index(index_dir, 13)
    return _topk_rounded(index_dir, fx["queries"], mode="bmw")


def _q_bm25_min_score(sf_dir: str):
    """Request-level min_score: top-k hits scoring (rounded) below 4.0 drop,
    survivors re-rank (pipelines/query.search_min_score)."""
    from remote_vector_index_builder_ray.pipelines.query import search_min_score

    fx, index_dir, _ = _ensure_index(sf_dir)
    return search_min_score(index_dir, pd.read_parquet(fx["queries"]),
                            min_score=4.0)


def _q_bm25_sig_chi2(sf_dir: str):
    """significant_terms with the chi_square heuristic: score =
    (fg_rate - bg_rate)^2 / bg_rate over each query's match set
    (pipelines/aggs.significant_terms_agg(heuristic='chi_square'))."""
    from remote_vector_index_builder_ray import significant_terms_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    return significant_terms_agg(
        index_dir, pd.read_parquet(fx["queries"]), size=10,
        heuristic="chi_square").reset_index(drop=True)


def _q_bm25_sig_mi(sf_dir: str):
    """significant_terms with the mutual_information heuristic (OpenSearch
    MutualInformation, include_negatives=true, background_is_superset=true):
    log2-MI of the 2x2 (term presence x match-set membership) contingency
    table, Σ (Nxy/N)·ln(Nxy·N/(Nx_·N_y)) / ln 2
    (pipelines/aggs.significant_terms_agg(heuristic='mutual_information'))."""
    from remote_vector_index_builder_ray import significant_terms_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    return significant_terms_agg(
        index_dir, pd.read_parquet(fx["queries"]), size=10,
        heuristic="mutual_information").reset_index(drop=True)


def _q_bm25_sig_gnd(sf_dir: str):
    """significant_terms with the gnd heuristic (OpenSearch
    GoogleNormalizedDistance): distance = (max(ln bg, ln |matches|) -
    ln fg) / (ln N - min(ln bg, ln |matches|)), scored exp(-distance)
    (pipelines/aggs.significant_terms_agg(heuristic='gnd'))."""
    from remote_vector_index_builder_ray import significant_terms_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    return significant_terms_agg(
        index_dir, pd.read_parquet(fx["queries"]), size=10,
        heuristic="gnd").reset_index(drop=True)


def _q_bm25_dfs_federated(sf_dir: str):
    """dfs_query_then_fetch federation: the two half-corpus indexes score
    with BLENDED global stats (N, total_len, per-term df summed across legs)
    — scores are globally comparable, equal to a one-index build over the
    union (pipelines/query.multi_index_search(dfs=True))."""
    from remote_vector_index_builder_ray.pipelines.query import multi_index_search

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    dirs = _ensure_fed_indexes(sf_dir)
    return multi_index_search(dirs, pd.read_parquet(fx["queries"]), k=10,
                              labels=["a", "b"], dfs=True)


def _q_bm25_composite_after(sf_dir: str):
    """composite aggregation `after`-key pagination: the next 5 buckets per
    query STRICTLY after the composite key ('assistant', 2026-03-01) in key
    order — the OpenSearch after/size paging contract
    (pipelines/aggs.composite_agg(size, after))."""
    from remote_vector_index_builder_ray import composite_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = composite_agg(index_dir, pd.read_parquet(fx["queries"]),
                        term_field="role", date_field="ts",
                        size=5, after=("assistant", "2026-03-01"))
    return out.reset_index(drop=True)


def _q_bm25_filters_other(sf_dir: str):
    """filters aggregation with other_bucket=true: the named predicate
    buckets plus the OpenSearch `_other_` bucket (matched docs satisfying
    no named filter) (pipelines/aggs.filters_agg(other_bucket=True))."""
    from remote_vector_index_builder_ray import filters_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = filters_agg(index_dir, pd.read_parquet(fx["queries"]),
                      _FILTERS_SPEC, other_bucket=True)
    return out.reset_index(drop=True)


def _dbq_term(sf_dir: str) -> str:
    """Deterministic delete_by_query victim term: the first token of the
    12th doc in (conv_id, turn_idx) order — the SQL twin derives the same
    term from the same data."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    fx = _fx.ensure_fixture(_sf_name(sf_dir))
    src = pd.concat([pq.read_table(p, columns=["conv_id", "turn_idx", "text"]).to_pandas()
                     for p in fx["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    return tokenize_text(src.loc[11, "text"] or "")[0]


def _ensure_dbq_index(sf_dir: str):
    """Dedicated index with every doc containing the victim term tombstoned
    via delete_by_query (idempotent: the second run deletes nothing)."""
    from remote_vector_index_builder_ray import BuildConfig, delete_by_query

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_dbq")
    _build_fresh_on_collision(BuildConfig(
        input_paths=fx["transcripts"], index_dir=index_dir,
        num_partitions=min(4, len(fx["transcripts"])),
    ))
    delete_by_query(index_dir, _dbq_term(sf_dir))
    return fx, index_dir


def _q_bm25_delete_by_query(sf_dir: str):
    """OpenSearch _delete_by_query: every doc containing the victim term is
    logically deleted; survivors score bit-identically to the unfiltered
    build (pipelines/delete.delete_by_query)."""
    fx, index_dir = _ensure_dbq_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="bmw")


def _ensure_upd_index(sf_dir: str):
    """Dedicated index with ~20 turns updated via update_docs (old versions
    tombstoned; new versions appended as a sort-mode generation). The update
    batch persists as an artifact so the SQL twin patches the same rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import BuildConfig, update_docs

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_upd")
    upd_pq = os.path.join(ARTIFACT_ROOT, f"{name}_upd_batch.parquet")
    if not os.path.exists(upd_pq):
        src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
        src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
        step = max(1, len(src) // 20)
        batch = src.iloc[::step].head(20).copy()
        batch["text"] = batch["text"].fillna("") + " zzupdated"
        _write_atomic(pa.Table.from_pandas(batch, preserve_index=False), upd_pq)
    man = _build_fresh_on_collision(BuildConfig(
        input_paths=fx["transcripts"], index_dir=index_dir,
        num_partitions=min(4, len(fx["transcripts"])),
    ))
    if not man.get("generations"):  # idempotent across driver runs
        update_docs(index_dir, [upd_pq])
    return fx, index_dir, upd_pq


def _ensure_ubq_index(sf_dir: str):
    """Dedicated index for update_by_query: every doc containing the term
    'w000050' is re-written with ' zzubq' appended (the ctx._source painless
    shape) — matched set resolved by the engine itself, so the SQL twin
    derives the same update set from the corpus (no artifact needed)."""
    from remote_vector_index_builder_ray import BuildConfig
    from remote_vector_index_builder_ray.pipelines.incremental import update_by_query

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_ubq")
    man = _build_fresh_on_collision(BuildConfig(
        input_paths=fx["transcripts"], index_dir=index_dir,
        num_partitions=min(4, len(fx["transcripts"])),
    ))
    if not man.get("generations"):  # idempotent across driver runs
        update_by_query(index_dir, "w000050", " zzubq",
                        os.path.join(ARTIFACT_ROOT, f"{name}_ubq_rows"))
    return fx, index_dir


def _q_bm25_update_by_query(sf_dir: str):
    """OpenSearch _update_by_query: matched docs (term 'w000050') re-written
    in place — old versions tombstoned, new versions appended as a sort-mode
    generation; top-k over the updated index
    (pipelines/incremental.update_by_query)."""
    fx, index_dir = _ensure_ubq_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="bmw")


def _q_bm25_update(sf_dir: str):
    """OpenSearch bulk update: 20 turns re-written (' zzupdated' appended).
    Old versions tombstone out of the candidate set; new versions live at
    fresh generation docids; stats span all versions (Lucene
    numDocs-vs-maxDoc) (pipelines/incremental.update_docs)."""
    fx, index_dir, _ = _ensure_upd_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="bmw")


def _q_bm25_bool(sf_dir: str):
    """Full OpenSearch bool query (pipelines/query.search_bool): per query,
    must = the first TWO tokens (every one required — multi-term must), the
    should = the remaining tokens (scoring-optional), must_not = 'w000200'
    for every third query; score sums BM25 over must+should terms (Lucene
    BooleanQuery)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search_bool
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pq.read_table(fx["queries"]).to_pandas()
    toks = q["text"].map(lambda t: tokenize_text(t or ""))
    q = q[toks.map(len) > 0].reset_index(drop=True)
    toks = q["text"].map(lambda t: tokenize_text(t or ""))
    bq = pd.DataFrame({
        "query_id": q["query_id"].astype(np.int64),
        "must_text": toks.map(lambda p: " ".join(p[:2])),
        "text": toks.map(lambda p: " ".join(p[2:])),
        "exclude_text": [
            "w000200" if int(qid) % 3 == 0 else "" for qid in q["query_id"]
        ],
        "k": (q["k"] * 2).astype(np.int32),  # oversample for the rounded re-rank
    })
    res = search_bool(index_dir, bq)
    k_by_query = dict(zip(q["query_id"], q["k"]))
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res["k"] = res["query_id"].map(k_by_query)
    res = res[res["rank"] <= res["k"]]
    return res[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64",
         "score": "float64"}
    ).reset_index(drop=True)


def _q_corpus_stats(sf_dir: str):
    import json

    _, index_dir, man = _ensure_index(sf_dir)
    st = json.load(open(os.path.join(index_dir, "stats.json")))
    return pd.DataFrame(
        {
            "n_docs": pd.Series([st["N"]], dtype="int64"),
            "total_len": pd.Series([st["total_len"]], dtype="int64"),
            "avgdl": pd.Series([round(st["avgdl"], 6)], dtype="float64"),
        }
    )


def _q_term_stats(sf_dir: str):
    import pyarrow.parquet as pq

    _, index_dir, _ = _ensure_index(sf_dir)
    ts = pq.read_table(os.path.join(index_dir, "termstats")).to_pandas()
    return ts[["term", "df", "cf"]].sort_values("term").reset_index(drop=True)


def _q_docids(sf_dir: str):
    import pyarrow.parquet as pq

    _, index_dir, _ = _ensure_index(sf_dir)
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"), columns=["docid", "conv_id", "turn_idx", "doc_len"]
    ).to_pandas()
    return dm.sort_values("docid").reset_index(drop=True).astype(
        {"docid": "int64", "turn_idx": "int32", "doc_len": "int32"}
    )


# ---------------------------------------------------------------------------
# training-data-pipeline extras over the driver's sf tables
# ---------------------------------------------------------------------------


def _read(sf_dir: str, table: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"))


def _q_bm25_hydrated(sf_dir: str):
    """Top-k with stored fields attached (broadcast-semi-join vs docmeta)."""
    from remote_vector_index_builder_ray import search
    from remote_vector_index_builder_ray.pipelines.query import hydrate
    import pyarrow.parquet as pq

    fx, index_dir, _ = _ensure_index(sf_dir)
    topk = _q_bm25_topk(sf_dir)
    import ray.data

    out = hydrate(index_dir, ray.data.from_pandas(topk))
    out = out[["query_id", "rank", "docid", "score", "conv_id", "turn_idx", "role", "text"]]
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True).astype(
        {"turn_idx": "int32"}
    )


def _q_dedup_transcripts(sf_dir: str):
    """Exact (conv_id, turn_idx) dedup over the duplicate-injected variant."""
    import ray.data

    from remote_vector_index_builder_ray.stages.docids import dedup_exact

    fx = _fx.fixture_for_sf_dir(sf_dir, with_dups=True)
    ds = ray.data.read_parquet(fx["transcripts"])
    out = dedup_exact(ds).to_pandas()[["conv_id", "turn_idx", "text"]]
    return out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True).astype(
        {"turn_idx": "int32"}
    )


def _q_text_features(sf_dir: str):
    from remote_vector_index_builder_ray.extras.text import text_features_ds

    out = text_features_ds(_read(sf_dir, "documents")).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_exact_dedup_docs(sf_dir: str):
    from remote_vector_index_builder_ray.extras.dedup import exact_dedup

    out = exact_dedup(_read(sf_dir, "documents")).to_pandas()
    return out.sort_values("content_hash").reset_index(drop=True).astype(
        {"keep_id": "int64", "n_copies": "int64"}
    )


def _q_ann_topk(sf_dir: str):
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    return brute_force_topk(_read(sf_dir, "embeddings"), qdf["vec_id"].to_numpy(), qm, k=10)


def _q_ann_matryoshka(sf_dir: str):
    """Matryoshka-truncation ANN (MRL): exact cosine top-10 in the FIRST-16-
    dims truncated + renormalized space — dim/d of the matmul FLOPs per
    batch (extras/ann.matryoshka_topk)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import matryoshka_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    return matryoshka_topk(_read(sf_dir, "embeddings"),
                           qdf["vec_id"].to_numpy(), qm, dim=16, k=10)


def _hnsw_artifact_path(name: str) -> str:
    return os.path.join(ARTIFACT_ROOT, f"{name}_hnsw_topk.parquet")


def _hnsw_filtered_artifact_path(name: str) -> str:
    return os.path.join(ARTIFACT_ROOT, f"{name}_hnsw_filtered.parquet")


def _ensure_hnsw_artifacts(sf_dir: str) -> tuple[str, str]:
    """Deterministic graph-ANN top-k artifacts (plain + filtered), persisted
    so the SQL twin can score per-query recall against the SAME result rows
    — the pq/sq/ivfpq pattern that turned those approximate ops
    SQL-checkable."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.graph_ann import (
        build_graph_index,
        graph_topk,
    )

    name = _sf_name(sf_dir)
    tpath, fpath = _hnsw_artifact_path(name), _hnsw_filtered_artifact_path(name)
    if os.path.exists(tpath) and os.path.exists(fpath):
        return tpath, fpath
    idx = os.path.join(ARTIFACT_ROOT, f"{name}_hnsw")
    if not os.path.exists(os.path.join(idx, "graph_manifest.json")):
        build_graph_index(_read(sf_dir, "embeddings"), idx, n_shards=4,
                          m=12, ef_construction=48)
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    q = emb[emb["vec_id"] < 16].sort_values("vec_id").rename(
        columns={"vec_id": "query_id"})
    top = graph_topk(idx, q[["query_id", "embedding"]], k=10, ef=64)
    _write_atomic(pa.Table.from_pandas(
        top[["query_id", "vec_id"]].reset_index(drop=True),
        preserve_index=False), tpath)
    allow = emb.loc[emb["vec_id"] % 3 == 0, "vec_id"].to_numpy(np.int64)
    ftop = graph_topk(idx, q[["query_id", "embedding"]], k=10, ef=96,
                      allow_ids=allow)
    _write_atomic(pa.Table.from_pandas(
        ftop[["query_id", "vec_id"]].reset_index(drop=True),
        preserve_index=False), fpath)
    return tpath, fpath


def _q_ann_hnsw(sf_dir: str):
    """Sharded small-world graph ANN (the reference's CAGRA->HNSW family,
    extras/graph_ann): deterministic NSW build per vec_id%4 shard in
    parallel map_groups tasks, beam search per shard via a load-once actor
    pool, k-bounded driver merge. The beam's top-k rows persist as an
    artifact and this entry returns per-query recall@10 vs the exact brute
    force — SQL-checkable (the pq/sq pattern); recall >= 0.9 additionally
    pytest-gated (test_graph_ann_recall_and_determinism) and the build is
    bit-deterministic (rebuild => identical top-k)."""
    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    tpath, _ = _ensure_hnsw_artifacts(sf_dir)
    res = pd.read_parquet(tpath)
    import pyarrow.parquet as pq

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    bf = brute_force_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10,
    )
    bfset = set(map(tuple, bf[["query_id", "vec_id"]].values))
    rows = []
    for qid, g in res.groupby("query_id"):
        hits = sum((int(qid), int(v)) in bfset for v in g["vec_id"])
        rows.append((int(qid), float(np.floor(hits / 10.0 * 1e6 + 0.5) / 1e6)))
    return pd.DataFrame(rows, columns=["query_id", "recall"]).astype(
        {"query_id": np.int64, "recall": np.float64})


def _q_ann_hnsw_filtered(sf_dir: str):
    """Filtered graph ANN (OpenSearch k-NN efficient filtering): beam search
    EXPANDS through filtered-out nodes but only admits vec_id % 3 == 0 into
    the result set — no post-filter starvation. Persisted-artifact recall
    vs the FILTERED brute force, SQL-checkable like ``ann_hnsw_topk``;
    recall >= 0.9 also pytest-gated (test_graph_ann_filtered_search)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    _, fpath = _ensure_hnsw_artifacts(sf_dir)
    res = pd.read_parquet(fpath)
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    def _keep_allowed(b: "pa.Table") -> "pa.Table":
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 3 == 0))

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    ds = ds.map_batches(
        _keep_allowed, batch_format="pyarrow", zero_copy_batch=True,
    )
    bf = brute_force_topk(ds, qdf["vec_id"].to_numpy(), qm, k=10)
    bfset = set(map(tuple, bf[["query_id", "vec_id"]].values))
    rows = []
    for qid, g in res.groupby("query_id"):
        hits = sum((int(qid), int(v)) in bfset for v in g["vec_id"])
        rows.append((int(qid), float(np.floor(hits / 10.0 * 1e6 + 0.5) / 1e6)))
    return pd.DataFrame(rows, columns=["query_id", "recall"]).astype(
        {"query_id": np.int64, "recall": np.float64})


def _pq_artifact_path(name: str) -> str:
    return os.path.join(ARTIFACT_ROOT, f"{name}_pq_topk.parquet")


def _sq_artifact_path(name: str) -> str:
    return os.path.join(ARTIFACT_ROOT, f"{name}_sq_topk.parquet")


def _ivfpq_artifact_path(name: str) -> str:
    return os.path.join(ARTIFACT_ROOT, f"{name}_ivfpq_topk.parquet")


def _bq_artifact_path(name: str) -> str:
    return os.path.join(ARTIFACT_ROOT, f"{name}_bq_topk.parquet")


def _ensure_ivfpq_artifact(sf_dir: str) -> str:
    """Persisted IVF-PQ (+exact rerank) top-k — the reference's FAISS
    index family; recall twin joins vs SQL brute force."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import ivfpq_topk

    path = _ivfpq_artifact_path(_sf_name(sf_dir))
    if os.path.exists(path):
        return path
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    res = ivfpq_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10, n_centroids=16, nprobe=8,
        m=16, pq_centroids=64, rerank=16,
    )
    _write_atomic(pa.Table.from_pandas(res, preserve_index=False), path)
    return path


def _ensure_bq_artifact(sf_dir: str) -> str:
    """Persisted binary-quantization (+exact rerank) top-k; recall twin
    joins vs SQL brute force."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import bq_topk

    path = _bq_artifact_path(_sf_name(sf_dir))
    if os.path.exists(path):
        return path
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    res = bq_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10, rerank=16,
    )
    _write_atomic(pa.Table.from_pandas(res, preserve_index=False), path)
    return path


def _recall_vs_brute(sf_dir: str, artifact_path: str) -> "pd.DataFrame":
    """Shared recall@10 computation for the compressed-ANN entries."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    res = pd.read_parquet(artifact_path)
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    bf = brute_force_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10,
    )
    bfset = set(map(tuple, bf[["query_id", "vec_id"]].values))
    rows = []
    for qid, g in res.groupby("query_id"):
        hits = sum((int(qid), int(v)) in bfset for v in g["vec_id"])
        rows.append((int(qid), float(np.floor(hits / 10.0 * 1e6 + 0.5) / 1e6)))
    return pd.DataFrame(rows, columns=["query_id", "recall"]).astype(
        {"query_id": np.int64, "recall": np.float64})


def _q_ann_ivfpq_topk(sf_dir: str):
    """Per-query recall@10 of the combined IVF-PQ path (coarse probe +
    ADC + exact rerank) vs brute force — the reference's FAISS IVF-PQ
    analog (extras/ann.ivfpq_topk)."""
    return _recall_vs_brute(sf_dir, _ensure_ivfpq_artifact(sf_dir))


def _q_ann_bq_topk(sf_dir: str):
    """Per-query recall@10 of the binary-quantization path (1-bit codes,
    midpoint thresholds, exact rerank) vs brute force — the OpenSearch
    k-NN BQ analog (extras/ann.bq_topk)."""
    return _recall_vs_brute(sf_dir, _ensure_bq_artifact(sf_dir))


def _ensure_sq_artifact(sf_dir: str) -> str:
    """Run the deterministic SQ8 (+exact rerank) top-k and persist it; the
    SQL twin joins it against a brute-force top-k computed in SQL for
    per-query recall — same pattern as the PQ/IVF entries."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import sq_topk

    path = _sq_artifact_path(_sf_name(sf_dir))
    if os.path.exists(path):
        return path
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    res = sq_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10, rerank=8,
    )
    _write_atomic(pa.Table.from_pandas(res, preserve_index=False), path)
    return path


def _q_ann_sq_topk(sf_dir: str):
    """Per-query recall@10 of the SQ8 (scalar-quantized + exact-rerank)
    path vs brute force — the FAISS IndexScalarQuantizer/QT_8bit analog
    (extras/ann.sq_topk: exact streaming min/max training, 8x rerank)."""
    path = _ensure_sq_artifact(sf_dir)
    res = pd.read_parquet(path)
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    bf = brute_force_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10,
    )
    bfset = set(map(tuple, bf[["query_id", "vec_id"]].values))
    rows = []
    for qid, g in res.groupby("query_id"):
        hits = sum((int(qid), int(v)) in bfset for v in g["vec_id"])
        rows.append((int(qid), float(np.floor(hits / 10.0 * 1e6 + 0.5) / 1e6)))
    return pd.DataFrame(rows, columns=["query_id", "recall"]).astype(
        {"query_id": np.int64, "recall": np.float64})


def _ensure_pq_artifact(sf_dir: str) -> str:
    """Run the deterministic PQ+rerank top-k and persist it; the SQL twin
    joins it against a brute-force top-k computed in SQL for per-query
    recall — the same persisted-artifact pattern as the IVF entry."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import pq_topk

    path = _pq_artifact_path(_sf_name(sf_dir))
    if os.path.exists(path):
        return path
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    res = pq_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10, m=16, n_centroids=64, rerank=16,
    )
    _write_atomic(pa.Table.from_pandas(res, preserve_index=False), path)
    return path


def _q_ann_pq_topk(sf_dir: str):
    """Per-query recall@10 of the PQ (asymmetric-distance + exact-rerank)
    path vs brute force — the reference's FAISS IVF-PQ compression analog
    (extras/ann.pq_topk: m=16 subspaces x 64 centroids, 16x rerank)."""
    path = _ensure_pq_artifact(sf_dir)
    res = pd.read_parquet(path)
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    import ray.data

    bf = brute_force_topk(
        ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        qdf["vec_id"].to_numpy(), qm, k=10,
    )
    bfset = set(map(tuple, bf[["query_id", "vec_id"]].values))
    rows = []
    for qid, g in res.groupby("query_id"):
        hits = sum((int(qid), int(v)) in bfset for v in g["vec_id"])
        rows.append((int(qid), float(np.floor(hits / 10.0 * 1e6 + 0.5) / 1e6)))
    return pd.DataFrame(rows, columns=["query_id", "recall"]).astype(
        {"query_id": np.int64, "recall": np.float64})


def _kmeans_artifact_paths(name: str) -> tuple[str, str]:
    return (os.path.join(ARTIFACT_ROOT, f"{name}_kmeans_centroids.parquet"),
            os.path.join(ARTIFACT_ROOT, f"{name}_kmeans_assign.parquet"))


def _ensure_kmeans_artifact(sf_dir: str) -> tuple[str, str]:
    """Deterministic k-means-lite centroids + full assignment, persisted so
    the SQL twin can recompute every vector's nearest centroid from the
    SAME centroids and compare assignments exactly."""
    import pyarrow as pa
    import ray.data

    from remote_vector_index_builder_ray.extras.ann import assign_buckets, train_centroids

    cpath, apath = _kmeans_artifact_paths(_sf_name(sf_dir))
    if os.path.exists(cpath) and os.path.exists(apath):
        return cpath, apath
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    cent = train_centroids(ds, n_centroids=16)
    _write_atomic(
        pa.table({
            "cid": pa.array(range(len(cent)), type=pa.int64()),
            "centroid": pa.array([list(map(float, c)) for c in cent],
                                 type=pa.list_(pa.float64())),
        }),
        cpath,
    )
    assigned = assign_buckets(ds, cent).select_columns(
        ["vec_id", "bucket"]).to_pandas()
    assigned = assigned.sort_values("vec_id").reset_index(drop=True)
    _write_atomic(pa.Table.from_pandas(assigned, preserve_index=False), apath)
    return cpath, apath


def _q_ann_kmeans(sf_dir: str):
    """Distributed k-means assignment (the IVF bucketing step as its own
    operator): every vector's nearest trained centroid by cosine
    (extras/ann.train_centroids + assign_buckets). The SQL twin recomputes the
    argmax over the persisted centroids."""
    _, apath = _ensure_kmeans_artifact(sf_dir)
    out = pd.read_parquet(apath)
    return out.astype({"vec_id": "int64", "bucket": "int32"}).reset_index(drop=True)


def _q_ann_filtered(sf_dir: str):
    """Filtered k-NN (OpenSearch knn query with a filter): exact cosine
    top-k over ONLY the vectors passing a metadata predicate (label < 5).
    The filter is pushed down into the parquet read (pre-filtering, the
    exact OpenSearch filtered-knn semantics — never post-filter top-k), so
    non-matching row groups never leave storage."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data

    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        filter=(pads.field("label") < 5),
    )
    return brute_force_topk(ds, qdf["vec_id"].to_numpy(), qm, k=10)


def _q_embedding_near_dup(sf_dir: str):
    """Banded-LSH candidates + exact verify — the sub-quadratic scale path is
    the driver-checked entry; the O(N^2) exact scan stays a pytest oracle."""
    from remote_vector_index_builder_ray.extras.ann import embedding_near_dup

    return embedding_near_dup(_read(sf_dir, "embeddings"), threshold=0.5)


def _q_pack_sequences(sf_dir: str):
    """Sequence packing over the documents table: pack_id = global exclusive
    token-prefix-sum // 2048 in doc_id order — the two-phase distributed
    scan (extras/text.pack_sequences); SQL twin is one window cumsum."""
    from remote_vector_index_builder_ray.extras.text import pack_sequences

    out = pack_sequences(_read(sf_dir, "documents"), budget=2048).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": "int64", "n_tokens": "int64", "pack_id": "int64"})


def _q_repetition_stats(sf_dir: str):
    """Gopher-style duplicate-3-gram repetition ratio per doc
    (extras/text.repetition_stats — dictionary-coded vectorized n-grams)."""
    from remote_vector_index_builder_ray.extras.text import repetition_stats_ds

    out = repetition_stats_ds(_read(sf_dir, "documents"), n=3).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": "int64", "n_ngrams": "int64", "n_distinct": "int64",
         "dup_ratio": "float64"})


def _q_unigram_lm(sf_dir: str):
    """CCNet-style unigram-LM quality scores: per doc the average token
    ln(cf/total) under the corpus LM (extras/text.unigram_lm_scores)."""
    from remote_vector_index_builder_ray.extras.text import unigram_lm_scores

    out = unigram_lm_scores(_read(sf_dir, "documents")).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": "int64", "n_tokens": "int64", "avg_logprob": "float64"})


def _q_dataset_split(sf_dir: str):
    """Deterministic train/val/test split by md5(doc_id) bucket — stable
    under repartitioning and appends (extras/text.dataset_split)."""
    from remote_vector_index_builder_ray.extras.text import dataset_split_ds

    out = dataset_split_ds(_read(sf_dir, "documents")).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": "int64", "bucket": "int64"})


def _q_events_funnel(sf_dir: str):
    """Ordered view->click->purchase funnel per user within 24h
    (extras/events.funnel): greedy earliest-completion chain, the event-
    stream twin of the sloppy-phrase matcher."""
    from remote_vector_index_builder_ray.extras.events import funnel

    out = funnel(_read(sf_dir, "events")).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True).astype(
        {"user_id": "int64", "n_steps": "int64", "converted": "bool"})


def _q_events_hopping(sf_dir: str):
    """Hopping (sliding) windows: 1h windows advancing by 15min — each event
    counts into 4 overlapping windows (extras/events.hopping_window_agg)."""
    from remote_vector_index_builder_ray.extras.events import hopping_window_agg

    out = hopping_window_agg(_read(sf_dir, "events"), window_sec=3600,
                             hop_sec=900).to_pandas()
    out["sum_value"] = np.floor(out["sum_value"].to_numpy() * 1e4 + 0.5) / 1e4
    return out.sort_values(["user_id", "window_start"]).reset_index(drop=True).astype(
        {"user_id": "int64", "window_start": "int64", "n_events": "int64"}
    )


def _q_events_retention(sf_dir: str):
    """Weekly retention triangle: (cohort_week, offset_weeks, n_users)
    (extras/events.retention — dedup'd (user, week) pairs, per-user cohort
    offsets, driver-small counts)."""
    from remote_vector_index_builder_ray.extras.events import retention

    out = retention(_read(sf_dir, "events")).to_pandas()
    out["cohort_week"] = pd.to_datetime(out["cohort_week"])
    return out.sort_values(["cohort_week", "offset_weeks"]).reset_index(drop=True).astype(
        {"offset_weeks": "int64", "n_users": "int64"})


def _q_events_sessionize(sf_dir: str):
    """Per-user session windows (gap > 1800 s cuts a session); the SQL twin
    is the classic gaps-and-islands window-function rewrite."""
    from remote_vector_index_builder_ray.extras.events import sessionize

    out = sessionize(_read(sf_dir, "events"), gap_sec=1800).to_pandas()
    for c in ("session_start", "session_end"):
        out[c] = (pd.to_datetime(out[c]).astype("datetime64[ns]").astype("int64") // 10**9)
    out["sum_value"] = np.floor(out["sum_value"].to_numpy() * 1e4 + 0.5) / 1e4
    return out.sort_values(["user_id", "session_start"]).reset_index(drop=True).astype(
        {"user_id": "int64", "session_start": "int64", "session_end": "int64",
         "n_events": "int64", "sum_value": "float64"}
    )


def _q_multimodal_resize(sf_dir: str):
    """Resize-stage metadata arithmetic over the persisted media table."""
    import ray.data

    from remote_vector_index_builder_ray.extras.multimodal import MediaResize

    paths = _ensure_media_artifacts()
    out = ray.data.read_parquet(paths["media"]).map_batches(
        MediaResize(224, "fake"), batch_format="pyarrow",
    ).to_pandas()
    return out[["media_id", "width", "height", "out_width", "out_height"]].sort_values(
        "media_id"
    ).reset_index(drop=True).astype(
        {"media_id": "int64", "width": "int32", "height": "int32",
         "out_width": "int32", "out_height": "int32"}
    )


def _q_events_window(sf_dir: str):
    from remote_vector_index_builder_ray.extras.events import tumbling_window_agg

    out = tumbling_window_agg(_read(sf_dir, "events"), window_sec=3600).to_pandas()
    # floor(x*1e4+0.5)/1e4: round-half-up, identical arithmetic to the SQL twin
    out["sum_value"] = np.floor(out["sum_value"].to_numpy() * 1e4 + 0.5) / 1e4
    return out.sort_values(["user_id", "window_start"]).reset_index(drop=True).astype(
        {"user_id": "int64", "window_start": "int64", "n_events": "int64"}
    )


def _q_minhash_pairs(sf_dir: str):
    """MinHash+LSH candidates, exact-Jaccard verified at threshold 0.2 —
    SQL-checkable against the same inverted-index oracle as
    ngram_jaccard_pairs (the verified subset IS the exact pair set when LSH
    recall is 1, which the banding parameters guarantee for the fixture's
    bimodal jaccard distribution; pytest checks candidates vs brute force)."""
    from remote_vector_index_builder_ray.extras.dedup import (
        jaccard_verify,
        minhash_lsh_candidates,
    )

    ds = _read(sf_dir, "documents")
    cand = minhash_lsh_candidates(ds).to_pandas()
    out = jaccard_verify(ds, cand[["doc_a", "doc_b"]], shingle_k=3, threshold=0.2)
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True).astype(
        {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"}
    )


def _q_token_stats(sf_dir: str):
    from remote_vector_index_builder_ray.extras.text import token_stats_ds

    out = token_stats_ds(_read(sf_dir, "documents")).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_video_frames(sf_dir: str):
    """Frame-sample fan-out over the PERSISTED video table (the SQL twin
    reads the same parquet and recomputes the md5-derived frame features)."""
    import ray.data

    paths = _ensure_media_artifacts()
    media = ray.data.read_parquet(paths["video"])
    out = sample_frames_feat0(media)
    return out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


def sample_frames_feat0(media):
    from remote_vector_index_builder_ray.extras.multimodal import sample_frames

    out = sample_frames(media, target_fps=1.0, backend="fake").to_pandas()
    out["feat0"] = out["feature"].map(lambda f: float(np.floor(float(f[0]) * 1e6 + 0.5) / 1e6))
    return out[["media_id", "frame_idx", "frame_ts_ms", "feat0"]].astype(
        {"media_id": "int64", "frame_idx": "int32", "frame_ts_ms": "int64", "feat0": "float64"}
    )


def _q_ngram_jaccard(sf_dir: str):
    from remote_vector_index_builder_ray.extras.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_read(sf_dir, "documents"), shingle_k=3, threshold=0.2)


def _q_dedup_clusters(sf_dir: str):
    """Near-dup clusters: connected components over the exact Jaccard pair
    graph, cluster_id = min doc_id per component (extras/dedup.dedup_clusters;
    the SQL twin is a recursive min-label propagation)."""
    from remote_vector_index_builder_ray.extras.dedup import dedup_clusters

    return dedup_clusters(_read(sf_dir, "documents"), shingle_k=3, threshold=0.2)


def _q_simhash_pairs(sf_dir: str):
    """Banded simhash near-dup pairs. Banding is EXACT for radius<=3 with 4
    quarters (pigeonhole), so the SQL twin — a brute-force hamming self-join
    over the persisted engine-computed signatures — finds identical pairs.
    max_band_df=None: the SQL twin is uncapped, so the oracle comparison must
    run the uncapped path too (the capped default is the production dedup
    guard, not the exact semantics)."""
    from remote_vector_index_builder_ray.extras.dedup import simhash_pairs

    out = simhash_pairs(_read(sf_dir, "documents"), radius=3, max_band_df=None)
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True).astype(
        {"doc_a": "int64", "doc_b": "int64", "hamming": "int64"}
    )


def _q_ann_ivf_topk(sf_dir: str):
    """Per-query recall@10 of the distributed IVF path vs the engine's
    brute-force top-k. The IVF result is persisted (deterministic seeds) and
    the SQL twin recomputes the SAME recall by joining that parquet against a
    brute-force top-10 computed in SQL — checking both the exact scorer and
    the recall arithmetic."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import brute_force_topk

    path = _ensure_ivf_artifact(sf_dir)
    ivf = pd.read_parquet(path)
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 16].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    bf = brute_force_topk(_read(sf_dir, "embeddings"), qdf["vec_id"].to_numpy(), qm, k=10)
    hit = ivf.merge(bf[["query_id", "vec_id"]], on=["query_id", "vec_id"], how="inner")
    n_hit = hit.groupby("query_id").size()
    out = pd.DataFrame(
        {
            "query_id": sorted(ivf["query_id"].unique()),
        }
    )
    out["recall"] = out["query_id"].map(n_hit).fillna(0).astype(float) / 10.0
    out["recall"] = np.floor(out["recall"].to_numpy() * 1e6 + 0.5) / 1e6
    return out.astype({"query_id": "int64", "recall": "float64"}).reset_index(drop=True)


def _q_multimodal_features(sf_dir: str):
    """Media decode over the PERSISTED media table; the fake features are
    md5-derived so the SQL twin recomputes feat0 from the same parquet."""
    import ray.data

    from remote_vector_index_builder_ray.extras.multimodal import decode_features

    paths = _ensure_media_artifacts()
    media = ray.data.read_parquet(paths["media"])
    out = decode_features(media, backend="fake").to_pandas()
    out["feat0"] = out["feature"].map(lambda f: float(np.floor(float(f[0]) * 1e6 + 0.5) / 1e6))
    return out[["media_id", "mime", "payload_bytes", "feat0"]].sort_values(
        "media_id"
    ).reset_index(drop=True).astype(
        {"media_id": "int64", "payload_bytes": "int64", "feat0": "float64"}
    )


def _q_bm25_matrix_stats(sf_dir: str):
    """OpenSearch matrix_stats agg (two-field case) over each query's full
    match set: count, means, population variances, covariance and Pearson
    correlation of (doc_len, turn_idx) — exact int64 moment partials, float
    ops once at the driver (pipelines/aggs.matrix_stats_agg)."""
    from remote_vector_index_builder_ray import matrix_stats_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = matrix_stats_agg(index_dir, pd.read_parquet(fx["queries"]),
                           field_x="doc_len", field_y="turn_idx")
    return out.astype({"query_id": "int64", "n_docs": "int64"}).reset_index(drop=True)


def _q_bm25_bucket_script(sf_dir: str):
    """OpenSearch bucket_script pipeline agg over the per-day date_histogram:
    each bucket's percent of the query's total matched docs
    (pipelines/aggs.bucket_script_date_histogram)."""
    from remote_vector_index_builder_ray import bucket_script_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = bucket_script_date_histogram(index_dir, pd.read_parquet(fx["queries"]))
    return out.astype({"query_id": "int64", "n_docs": "int64",
                       "pct_of_total": "float64"}).reset_index(drop=True)


def _q_bm25_moving_fn(sf_dir: str):
    """OpenSearch moving_fn pipeline agg (MovingFunctions.max/min/sum,
    window=3 trailing PRESENT buckets incl. current) over the per-day
    date_histogram (pipelines/aggs.moving_fn_date_histogram)."""
    from remote_vector_index_builder_ray import moving_fn_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = moving_fn_date_histogram(index_dir, pd.read_parquet(fx["queries"]),
                                   window=3)
    return out.astype({"query_id": "int64", "n_docs": "int64",
                       "mov_max": "int64", "mov_min": "int64",
                       "mov_sum": "int64"}).reset_index(drop=True)


def _q_bm25_count(sf_dir: str):
    """OpenSearch _count API / track_total_hits: exact per-query match
    count via the distributed match-set shard counts; zero-match queries
    report 0 (pipelines/aggs.match_count)."""
    from remote_vector_index_builder_ray import match_count

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = match_count(index_dir, pd.read_parquet(fx["queries"]))
    return out.astype({"query_id": "int64",
                       "total_hits": "int64"}).reset_index(drop=True)


def _q_bm25_sampler(sf_dir: str):
    """OpenSearch sampler agg + terms sub-agg: the terms counts computed
    over each query's top shard_size=20 matched docs by relevance only
    (Lucene BestDocsDeferringCollector) — the plain sibling of
    diversified_sampler (pipelines/aggs.sampler_terms_agg)."""
    from remote_vector_index_builder_ray import sampler_terms_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = sampler_terms_agg(index_dir, pd.read_parquet(fx["queries"]),
                            field="role", shard_size=20)
    return out.astype({"query_id": "int64",
                       "doc_count": "int64"}).reset_index(drop=True)


def _q_bm25_diversified_sampler(sf_dir: str):
    """OpenSearch diversified_sampler agg: top shard_size=20 matched docs
    per query with at most max_docs_per_value=3 per role — greedy
    best-first under a per-key cap == within-key-rank filter then global
    top (pipelines/aggs.diversified_sampler_agg)."""
    from remote_vector_index_builder_ray import diversified_sampler_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = diversified_sampler_agg(index_dir, pd.read_parquet(fx["queries"]),
                                  field="role", shard_size=20,
                                  max_docs_per_value=3)
    return out.astype({"query_id": "int64", "rank": "int32", "docid": "int64",
                       "score": "float64"}).reset_index(drop=True)


def _q_bm25_distance_feature(sf_dir: str):
    """OpenSearch distance_feature query in a bool SHOULD: BM25 +
    boost * pivot / (pivot + |ts - origin|), origin = newest turn, pivot =
    one week (epoch-us; both derivable by the SQL twin)
    (pipelines/query.distance_feature)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import distance_feature

    fx, index_dir, _ = _ensure_index(sf_dir)
    ts = pd.concat(
        [pq.read_table(p, columns=["ts"]).to_pandas() for p in fx["transcripts"]]
    )["ts"].astype("datetime64[us]").astype(np.int64)
    return distance_feature(
        index_dir, pd.read_parquet(fx["queries"]), field="ts",
        origin=float(ts.max()), pivot=float(7 * 86400 * 1_000_000),
        boost=2.5,
    )


def _ensure_spanfirst_queries(sf_dir: str) -> str:
    """Single-term span_first query set: each standard query's FIRST token
    with a cycling position bound span_end in (1, 2, 3, 8), plus a stopword
    and an absent-term case."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_spanfirst_queries.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        q = pq.read_table(fx["queries"]).to_pandas().head(40)
        ends = [1, 2, 3, 8]
        texts, span_end = [], []
        for i, t in zip(q["query_id"], q["text"]):
            toks = tokenize_text(t or "")
            texts.append(toks[0] if toks else "")
            span_end.append(ends[int(i) % len(ends)])
        q = q.assign(text=texts, span_end=np.array(span_end, dtype=np.int32))
        extra = pd.DataFrame({
            "query_id": np.array([9001, 9002], dtype=np.int64),
            "text": ["the", "zzznomatch"],
            "k": np.array([25, 10], dtype=np.int32),
            "span_end": np.array([2, 3], dtype=np.int32),
        })
        q = pd.concat([q, extra], ignore_index=True)
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), path)
    return path


def _q_bm25_span_first(sf_dir: str):
    """Lucene/OpenSearch span_first (single-term inner span): docs whose
    term occurs at a position strictly below span_end, scored
    idf * tfnorm(count of qualifying positions) — SpanScorer freq with
    width-0 spans (stages/search._score_span_first)."""
    _, index_dir = _ensure_pos_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_spanfirst_queries(sf_dir),
                         mode="span_first")


def _ensure_spannot_queries(sf_dir: str) -> str:
    """span_not query set derived from the corpus: include = a phrase
    query's first token, exclude = its second token (guaranteed to co-occur
    at distance 1 somewhere, so the window genuinely voids spans), plus an
    absent exclude (degenerates to the inner span) and an empty exclude
    (excludes nothing)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_spannot_queries.parquet")
    if not os.path.exists(path):
        ph = pq.read_table(_ensure_phrase_queries(sf_dir)).to_pandas()
        texts, excludes = [], []
        for t in ph["text"]:
            toks = tokenize_text(t or "")
            texts.append(toks[0] if toks else "")
            excludes.append(toks[1] if len(toks) > 1 else "")
        q = ph.assign(text=texts, span_exclude=excludes)
        extra = pd.DataFrame({
            "query_id": np.array([9101, 9102], dtype=np.int64),
            "text": ["the", "the"],
            "k": np.array([25, 25], dtype=np.int32),
            "span_exclude": ["zzznomatch", ""],
        })
        q = pd.concat([q, extra], ignore_index=True)
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), path)
    return path


def _q_bm25_span_not(sf_dir: str):
    """Lucene/OpenSearch span_not(include, exclude, pre=1, post=2) with
    single-term spans: an occurrence of the include term survives unless
    the exclude term occurs within [p-1, p+2] in the same doc; freq =
    surviving occurrences, scored idf * tfnorm(freq, dl)
    (stages/search._score_span_not). A missing exclude term excludes
    nothing — span_not degenerates to the inner span."""
    _, index_dir = _ensure_pos_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_spannot_queries(sf_dir),
                         mode="span_not", span_pre=1, span_post=2)


def _ensure_spancontain_queries(sf_dir: str) -> str:
    """span_containing/span_within query set derived from the corpus: from
    every Nth doc's token stream take a trigram (a, b, c) — big =
    "a c" (ordered window, slop=1), little = "b", so containment genuinely
    fires where the trigram occurs. Edge rows: absent little, empty little,
    single-token big."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_spancontain_queries.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        src = pd.concat([pq.read_table(p).to_pandas() for p in fx["transcripts"]])
        src = src.sort_values(["conv_id", "turn_idx"],
                              kind="mergesort").reset_index(drop=True)
        toks = src["text"].map(lambda t: tokenize_text(t or ""))
        rows = []
        step = max(1, len(src) // 20)
        for i in range(0, len(src), step):
            tk = toks[i]
            if len(tk) >= 4 and len({tk[1], tk[2], tk[3]}) == 3:
                rows.append((f"{tk[1]} {tk[3]}", tk[2]))
            if len(rows) >= 14:
                break
        rows += [("the a", "zzznomatch"),   # absent little
                 ("the a", ""),             # empty little: matches nothing
                 ("the", "a")]              # single-token big: needs both ends
        q = pd.DataFrame({
            "query_id": np.arange(len(rows), dtype=np.int64),
            "text": [r[0] for r in rows],
            "k": np.full(len(rows), 20, dtype=np.int32),
            "span_little": [r[1] for r in rows],
            "slop": np.array([1 + (i % 2) for i in range(len(rows))],
                             dtype=np.int32),
        })
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), path)
    return path


def _q_bm25_span_containing(sf_dir: str):
    """Lucene/OpenSearch span_containing(big, little): minimal ordered
    two-term big spans (gap <= slop) that contain an occurrence of the
    little term; freq = qualifying spans, scored
    (idf(t1) + idf(t2)) * tfnorm(freq, dl) — the little clause is a filter
    (stages/search._score_span_containing)."""
    _, index_dir = _ensure_pos_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_spancontain_queries(sf_dir),
                         mode="span_containing")


def _q_bm25_span_within(sf_dir: str):
    """Lucene/OpenSearch span_within(little, big): little-term occurrences
    contained in some minimal ordered big span; freq = contained
    occurrences, scored idf(little) * tfnorm(freq, dl) — the enclosing big
    clause is the filter (stages/search._score_span_within)."""
    _, index_dir = _ensure_pos_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_spancontain_queries(sf_dir),
                         mode="span_within")


def _q_bm25_span_or(sf_dir: str):
    """Lucene/OpenSearch span_or over single-term inner spans: the union of
    the clauses' spans. Single-term spans never overlap, so per-doc freq is
    the sum of the matching clauses' tfs — postings only, no positional
    reads — scored (Σ idf over present clauses) * tfnorm(freq, dl)
    (stages/search._score_span_or). Same query set as the exact phrase."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_phrase_queries(sf_dir),
                         mode="span_or")


def _q_bm25_span_multi(sf_dir: str):
    """Lucene SpanMultiTermQueryWrapper(prefix) — OpenSearch span_multi: the
    prefix expands against the term dictionary (first 50 in term order) and
    rewrites to a span_or over the expansions, freq = Σ matching clauses'
    tfs, score = (Σ idf over expansions) * tfnorm(freq, dl)
    (pipelines/expand.search_span_multi → stages/search._score_span_or)."""
    from remote_vector_index_builder_ray import search_span_multi

    _, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(_ensure_expand_queries(sf_dir)["prefix"])
    return _topk_rounded(index_dir, q, search_fn=search_span_multi)


def _q_bm25_rank_feature(sf_dir: str):
    """OpenSearch rank_feature query (saturation, the default function) in a
    bool SHOULD: every match's BM25 score gains
    boost * dl / (dl + pivot) with pivot=40, boost=1.5 — Lucene
    FeatureQuery over doc_len as the feature field (pipelines/query.
    rank_feature, riding the scored-match-set + docmeta probe)."""
    from remote_vector_index_builder_ray import rank_feature

    fx, index_dir, _ = _ensure_index(sf_dir)
    return rank_feature(index_dir, pd.read_parquet(fx["queries"]),
                        field="doc_len", function="saturation",
                        pivot=40.0, boost=1.5)


def _q_bm25_rank_feature_log(sf_dir: str):
    """rank_feature with the log function: the feature contribution is
    boost * log(1 + dl / scaling), scaling=10, boost=1.5 (Lucene
    FeatureQuery log shape; pipelines/query.rank_feature)."""
    from remote_vector_index_builder_ray import rank_feature

    fx, index_dir, _ = _ensure_index(sf_dir)
    return rank_feature(index_dir, pd.read_parquet(fx["queries"]),
                        field="doc_len", function="log",
                        scaling=10.0, boost=1.5)


def _q_bm25_rank_feature_sigmoid(sf_dir: str):
    """rank_feature with the sigmoid function (exponent fixed at 2):
    boost * dl² / (dl² + pivot²), pivot=40, boost=1.5 (Lucene FeatureQuery
    sigmoid shape; pipelines/query.rank_feature)."""
    from remote_vector_index_builder_ray import rank_feature

    fx, index_dir, _ = _ensure_index(sf_dir)
    return rank_feature(index_dir, pd.read_parquet(fx["queries"]),
                        field="doc_len", function="sigmoid",
                        pivot=40.0, boost=1.5)


def _q_bm25_normalize(sf_dir: str):
    """OpenSearch normalize pipeline agg over the per-day date_histogram of
    each query's match set: percent_of_sum (n / Σn) and rescale_0_1
    ((n - min)/(max - min); constant-count queries rescale to 0) per bucket
    (pipelines/aggs.normalize_date_histogram)."""
    from remote_vector_index_builder_ray import normalize_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = normalize_date_histogram(index_dir, pd.read_parquet(fx["queries"]),
                                   field="ts")
    return out.reset_index(drop=True)


def _q_bm25_terms_enum(sf_dir: str):
    """OpenSearch _terms_enum API: the first 50 indexed terms with prefix
    'w0042', term-ascending, each with its summed doc frequency — a
    dictionary-only walk over the term-sorted termstats shards with the
    prefix range pushed into the scan (pipelines/expand.terms_enum)."""
    from remote_vector_index_builder_ray import terms_enum

    fx, index_dir, _ = _ensure_index(sf_dir)
    return terms_enum(index_dir, prefix="w0042", size=50)


def _q_bm25_sliced(sf_dir: str):
    """OpenSearch sliced scroll (slice id/max): each query keeps only its
    slice of the match set — docid % 3 == query_id % 3 — scores unchanged,
    ranked within the slice (stages/search slice columns; OpenSearch slices
    scrolls by a hash of _id, this engine's _id IS the docid)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(fx["queries"])
    q["slice_id"] = (q["query_id"] % 3).astype(np.int32)
    q["slice_max"] = np.int32(3)
    return _topk_rounded(index_dir, q, mode="exhaustive")


def _q_bm25_terms_set(sf_dir: str):
    """OpenSearch terms_set query (Lucene CoveringQuery): a doc matches when
    it contains at least 1 + (dl % 2) of the query's distinct terms — the
    minimum_should_match_script analog, a per-DOC threshold (vs the
    per-query min_should_match scalar) — and scores the BM25 sum of its
    matching clauses (stages/search._score_terms_set)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="terms_set",
                         msm_script="1 + v % 2")


def _q_bm25_term_boosts(sf_dir: str):
    """OpenSearch query_string per-term boosts (caret syntax term^2.5):
    boosted terms' BM25 contributions multiply by their boost, unboosted
    terms weigh 1.0 (pipelines/query.search_term_boosts — Lucene BoostQuery
    around each term query)."""
    from remote_vector_index_builder_ray import search_term_boosts

    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_boost_queries(sf_dir),
                         search_fn=search_term_boosts)


def _q_bm25_hybrid_norm(sf_dir: str):
    """Hybrid search via min-max score normalization (the OpenSearch
    normalization processor, technique=min_max, weighted arithmetic mean
    0.7 * bm25 + 0.3 * phrase): each leg normalizes per query over its full
    match set — (s - min)/(max - min), single-score legs normalize to 1 —
    then fuses (pipelines/query.search_hybrid_norm / minmax_fuse)."""
    from remote_vector_index_builder_ray import search_hybrid_norm

    _, index_dir = _ensure_pos_index(sf_dir)
    return search_hybrid_norm(index_dir, _ensure_phrase_queries(sf_dir),
                              modes=("bmw", "phrase"), weights=(0.7, 0.3),
                              k=10)


def _q_bm25_hybrid_l2(sf_dir: str):
    """Hybrid search via L2 score normalization (the OpenSearch
    normalization processor, technique=l2, weighted arithmetic mean
    0.7 * bm25 + 0.3 * phrase): each leg normalizes per query as
    s / sqrt(sum s^2) over its full match set, then fuses
    (pipelines/query.search_hybrid_norm technique='l2' / minmax_fuse)."""
    from remote_vector_index_builder_ray import search_hybrid_norm

    _, index_dir = _ensure_pos_index(sf_dir)
    return search_hybrid_norm(index_dir, _ensure_phrase_queries(sf_dir),
                              modes=("bmw", "phrase"), weights=(0.7, 0.3),
                              k=10, technique="l2")


def _ensure_boost_queries(sf_dir: str) -> str:
    """Caret-boosted query set derived from the standard queries: tokens
    deduped keep-first (so 'last boost wins' never bites either engine),
    token j of query i carries boost cycle[(i + j) % 4] with
    cycle = (none, ^2, ^0.5, ^3). Persisted so the DuckDB twin parses the
    exact same caret markup."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_boost_queries.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        q = pq.read_table(fx["queries"]).to_pandas()
        cycle = (None, "2", "0.5", "3")
        texts = []
        for i, t in zip(q["query_id"], q["text"]):
            seen, toks = set(), []
            for tok in tokenize_text(t or ""):
                if tok not in seen:
                    seen.add(tok)
                    toks.append(tok)
            chunks = []
            for j, tok in enumerate(toks):
                b = cycle[(int(i) + j) % len(cycle)]
                chunks.append(tok if b is None else f"{tok}^{b}")
            texts.append(" ".join(chunks))
        q = q.assign(text=texts)
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), path)
    return path


def _q_bm25_exists(sf_dir: str):
    """OpenSearch exists query in a bool filter: only docs whose `tool`
    field has a value stay candidates ('' is the docmeta missing sentinel,
    as in missing_agg — OpenSearch's absent-field analog); scores unchanged
    (filter context — pipelines/query.resolve_filter_docids pushdown)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], where=[("tool", "!=", "")])


def _q_bm25_extended_stats_bucket(sf_dir: str):
    """OpenSearch extended_stats_bucket pipeline agg over the per-day
    date_histogram: stats_bucket plus sum_of_squares, population variance
    (Σn²/B - avg², clamped at 0) and std_deviation
    (pipelines/aggs.extended_stats_bucket_date_histogram)."""
    from remote_vector_index_builder_ray import extended_stats_bucket_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = extended_stats_bucket_date_histogram(
        index_dir, pd.read_parquet(fx["queries"]), field="ts")
    return out.reset_index(drop=True)


def _q_duplicate_ngrams(sf_dir: str):
    """Per-document cross-corpus duplicate-n-gram fraction (RefinedWeb/
    Gopher-style contamination signal): of each doc's distinct 3-token
    shingles, the fraction shared with at least one other document — two
    shingle-hash shuffles, text never moves
    (extras/dedup.duplicate_ngram_fraction)."""
    from remote_vector_index_builder_ray.extras.dedup import duplicate_ngram_fraction

    return duplicate_ngram_fraction(_read(sf_dir, "documents"), shingle_k=3)


def _ensure_interval_queries(sf_dir: str) -> str:
    """Two-token interval query set: the first two tokens of each phrase
    query with max_gaps cycling (0, 1, 2, 4), plus an absent-term case."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_interval_queries.parquet")
    if not os.path.exists(path):
        q = pq.read_table(_ensure_phrase_queries(sf_dir)).to_pandas()
        gaps_cycle = (0, 1, 2, 4)
        texts, gaps = [], []
        for i, t in zip(q["query_id"], q["text"]):
            toks = tokenize_text(t or "")
            texts.append(" ".join(toks[:2]))
            gaps.append(gaps_cycle[int(i) % len(gaps_cycle)])
        q = q.assign(text=texts, max_gaps=np.array(gaps, dtype=np.int32))
        _write_atomic(pa.Table.from_pandas(q, preserve_index=False), path)
    return path


def _q_bm25_intervals(sf_dir: str):
    """OpenSearch intervals query (match rule, ordered=true, max_gaps): an
    interval is a t2 occurrence with a t1 occurrence before it within the
    gap bound, one interval per end position; freq = interval count, scored
    (idf1+idf2) * tfnorm (stages/search._score_intervals — the span_not
    packed-key machinery, polarity flipped)."""
    _, index_dir = _ensure_pos_index(sf_dir)
    return _topk_rounded(index_dir, _ensure_interval_queries(sf_dir),
                         mode="intervals")


def _q_bm25_vw_histogram(sf_dir: str):
    """OpenSearch variable_width_histogram (deterministic variant): the
    sorted distinct doc_len values of each query's match set split at the
    3 widest value gaps into 4 buckets; per bucket the doc count, min, max
    and the centroid key (pipelines/aggs.variable_width_histogram_agg —
    OpenSearch's streaming clustering is order-dependent, this rule is a
    pure function of the value histogram)."""
    from remote_vector_index_builder_ray import variable_width_histogram_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = variable_width_histogram_agg(index_dir,
                                       pd.read_parquet(fx["queries"]),
                                       field="doc_len", buckets=4)
    return out.reset_index(drop=True)


def _q_bm25_moving_percentiles(sf_dir: str):
    """OpenSearch moving_percentiles pipeline agg: trailing-7-bucket median
    (explicit linear interpolation) of the per-day doc counts
    (pipelines/aggs.moving_percentiles_date_histogram)."""
    from remote_vector_index_builder_ray import moving_percentiles_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = moving_percentiles_date_histogram(
        index_dir, pd.read_parquet(fx["queries"]), window=7, pct=50.0,
        field="ts")
    return out.reset_index(drop=True)


def _ensure_jsonl_transcripts(sf_dir: str) -> list[str]:
    """JSONL mirror of the fixture transcripts (one .jsonl per parquet,
    ts as ISO-8601 'T' strings) — the LLM-training interchange format the
    JSONL source reads. Deterministic: row order is the parquet's."""
    import pyarrow.parquet as pq

    name = _sf_name(sf_dir)
    root = os.path.join(ARTIFACT_ROOT, f"{name}_jsonl")
    fx = _fx.ensure_fixture(name)
    paths = []
    os.makedirs(root, exist_ok=True)
    for i, p in enumerate(fx["transcripts"]):
        out = os.path.join(root, f"part-{i:04d}.jsonl")
        paths.append(out)
        if os.path.exists(out):
            continue
        df = pq.read_table(p).to_pandas()
        df["ts"] = df["ts"].dt.strftime("%Y-%m-%dT%H:%M:%S")
        tmp = out + ".tmp"
        df.to_json(tmp, orient="records", lines=True, date_format="iso")
        os.replace(tmp, out)
    return paths


def _q_corpus_stats_jsonl(sf_dir: str):
    """Corpus stats computed over the JSONL source (sources/jsonl.
    read_transcripts_jsonl: ray.data.read_json + vectorized schema cast +
    validation): distributed per-batch (n, token-count) partials, one
    float division at the driver — proves the engine ingests the
    newline-delimited-JSON interchange format end-to-end."""
    import pyarrow as pa

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_column
    from remote_vector_index_builder_ray.sources.jsonl import read_transcripts_jsonl

    ds = read_transcripts_jsonl(_ensure_jsonl_transcripts(sf_dir))

    def part(batch: pa.Table) -> pa.Table:
        _, _, doc_len = tokenize_column(batch["text"])
        return pa.table({"n": pa.array([batch.num_rows], type=pa.int64()),
                         "tl": pa.array([int(doc_len.sum())], type=pa.int64())})

    p = ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    n = int(p["n"].sum())
    tl = int(p["tl"].sum())
    avgdl = float(np.floor(tl / n * 1e6 + 0.5) / 1e6) if n else 0.0
    return pd.DataFrame({"n_docs": pd.Series([n], dtype=np.int64),
                         "total_len": pd.Series([tl], dtype=np.int64),
                         "avgdl": pd.Series([avgdl], dtype=np.float64)})


def _q_benchmark_decontamination(sf_dir: str):
    """Benchmark decontamination: flag corpus docs sharing any distinct
    3-token shingle with the deterministic benchmark holdout
    (doc_id % 97 == 0) — benchmark shingle hashes broadcast once, the
    corpus streams through one membership pass
    (extras/dedup.benchmark_decontaminate)."""
    from remote_vector_index_builder_ray.extras.dedup import benchmark_decontaminate

    return benchmark_decontaminate(_read(sf_dir, "documents"),
                                   benchmark_mod=97, shingle_k=3)


def _q_bm25_collapse_hits(sf_dir: str):
    """OpenSearch collapse with inner_hits(size=3): the top-k conversations
    per query by best turn, each returning its 3 best turns (score desc,
    docid asc within the conversation), flattened conversation-major —
    rank numbers the flattened rows (stages/search._score_collapse
    inner path, collapse_round6 ordering)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search

    fx, index_dir, _ = _ensure_index(sf_dir)
    res = search(index_dir, pq.read_table(fx["queries"]).to_pandas(),
                 mode="collapse", collapse_round6=True,
                 collapse_inner=3).to_pandas()
    res["score"] = res["score"].round(6)
    return res.sort_values(["query_id", "rank"]).reset_index(drop=True).astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    )


def _q_quality_filter(sf_dir: str):
    """Gopher-style quality filter decision over the documents table: per
    doc (n_words, mean_word_len, stop_count, keep) with the rule
    10<=n_words<=100000 AND 3<=mean_word_len<=12 (6dp) AND stop_count>=2
    (extras/text.gopher_quality_filter — the filter composes as ds.filter
    on keep; the decision row is the checkable artifact)."""
    from remote_vector_index_builder_ray.extras.text import gopher_quality_filter_ds

    out = gopher_quality_filter_ds(_read(sf_dir, "documents")).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_bm25_script_filter(sf_dir: str):
    """OpenSearch bool.filter with a script query: candidates restricted to
    docs whose doc_len makes `v % 7` non-zero — the script evaluates once
    over the docmeta stream (vectorized, compiled on the driver), matching
    docids broadcast as the allow-list (pipelines/query.
    resolve_script_docids / search_script_filter)."""
    from remote_vector_index_builder_ray import search_script_filter

    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"],
                         search_fn=search_script_filter,
                         expr="v % 7", field="doc_len", mode="bmw")


def _q_bm25_pinned(sf_dir: str):
    """OpenSearch pinned query: per query the two pinned docids
    (query_id*37 % N, (query_id*61 + 13) % N) rank first in that order with
    the synthetic descending score 1e6 - position; organic BM25 hits follow
    deduplicated, k-bounded (pipelines/query.search_pinned)."""
    import json

    from remote_vector_index_builder_ray import search_pinned

    fx, index_dir, _ = _ensure_index(sf_dir)
    n = int(json.load(open(os.path.join(index_dir, "stats.json")))["N"])
    q = pd.read_parquet(fx["queries"])
    q["pinned_ids"] = [
        [int(qid * 37 % n), int((qid * 61 + 13) % n)] for qid in q["query_id"]
    ]
    return search_pinned(index_dir, q)


def _q_bm25_date_histogram_empty(sf_dir: str):
    """OpenSearch date_histogram with min_doc_count=0: every day between
    each query's first and last matched day, gap days filled with 0
    (pipelines/aggs.date_histogram_empty_buckets)."""
    from remote_vector_index_builder_ray import date_histogram_empty_buckets

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = date_histogram_empty_buckets(index_dir,
                                       pd.read_parquet(fx["queries"]),
                                       field="ts")
    return out.reset_index(drop=True)


def _q_ann_range_search(sf_dir: str):
    """FAISS range_search analog: every vector within cosine >= 0.3 of each
    query (threshold-bounded, no k) — decision on the 6dp-rounded
    similarity both sides (extras/ann.range_search)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.extras.ann import range_search

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")).to_pandas()
    qdf = emb[emb["vec_id"] < 8].sort_values("vec_id")
    qm = np.stack([np.asarray(v, np.float64) for v in qdf["embedding"]])
    return range_search(_read(sf_dir, "embeddings"),
                        qdf["vec_id"].to_numpy(), qm, threshold=0.3)


def _q_bm25_percentiles_bucket(sf_dir: str):
    """OpenSearch percentiles_bucket pipeline agg: linear-interpolated
    25/50/75th percentiles of the per-day bucket doc counts, interpolation
    written out explicitly so the SQL twin reproduces each float op
    (pipelines/aggs.percentiles_bucket_date_histogram)."""
    from remote_vector_index_builder_ray import percentiles_bucket_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = percentiles_bucket_date_histogram(
        index_dir, pd.read_parquet(fx["queries"]), pcts=(25.0, 50.0, 75.0))
    return out.reset_index(drop=True)


def _q_bm25_cum_cardinality(sf_dir: str):
    """OpenSearch cumulative_cardinality pipeline agg: per day bucket, the
    exact count of distinct conv_ids seen in any bucket up to it
    (pipelines/aggs.cumulative_cardinality_agg)."""
    from remote_vector_index_builder_ray import cumulative_cardinality_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = cumulative_cardinality_agg(index_dir, pd.read_parquet(fx["queries"]),
                                     key_field="conv_id")
    return out.reset_index(drop=True)


def _ensure_mget_requests(sf_dir: str) -> str:
    """Deterministic (query_id, docid) mget request set: 10 queries x 6
    docids spread over [0, N + 50) so some ids are absent (found=false)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_mget_requests.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        n = sum(pq.ParquetFile(p).metadata.num_rows for p in fx["transcripts"])
        rows = [(q, (q * 37 + i * 101) % (n + 50))
                for q in range(10) for i in range(6)]
        t = pa.table({
            "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "docid": pa.array([r[1] for r in rows], type=pa.int64()),
        })
        _write_atomic(t, path)
    return path


def _q_bm25_mget(sf_dir: str):
    """OpenSearch _mget: stored-field fetch for explicit (query_id, docid)
    requests via the broadcast semi-join docmeta filter; absent ids return
    found=false with null fields (pipelines/query.mget)."""
    from remote_vector_index_builder_ray import mget

    _, index_dir, _ = _ensure_index(sf_dir)
    return mget(index_dir, pd.read_parquet(_ensure_mget_requests(sf_dir)))


def _q_bm25_scripted_metric(sf_dir: str):
    """OpenSearch scripted_metric agg (map/combine/reduce): per query's
    match set the int64 sum of the painless-analog map script
    'doc_len * 2 + turn_idx' — vectorized per-batch map + combine, driver
    reduce (pipelines/aggs.scripted_metric_agg); the SQL twin runs the
    identical expression."""
    from remote_vector_index_builder_ray import scripted_metric_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = scripted_metric_agg(index_dir, pd.read_parquet(fx["queries"]),
                              script="doc_len * 2 + turn_idx",
                              fields=("doc_len", "turn_idx"))
    return out.reset_index(drop=True)


def _q_pii_scrub(sf_dir: str):
    """PII scrubbing over the documents table: emails -> <EMAIL> then
    7+-digit runs -> <NUM> with per-doc match counts, all in RE2 semantics
    (Arrow replace/count_substring_regex == DuckDB regexp_replace — masked
    text is bit-identical). Docs with doc_id % 7 == 0 are deterministically
    augmented with a synthetic email + phone BEFORE scrubbing (both engines
    apply the same augmentation) so the masking is exercised, not vacuous
    (extras/text.pii_scrub)."""
    import ray.data

    from remote_vector_index_builder_ray.extras.text import pii_scrub

    def augment(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(np.int64)
        m = ids % 7 == 0
        txt = df["text"].fillna("").to_numpy(object)
        suffix = np.array([f" user{i}@example.com call 5551234567"
                           for i in ids], dtype=object)
        df = df.copy()
        df["text"] = np.where(m, txt + suffix, txt)
        return df

    ds = (ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                columns=["doc_id", "text"])
          .map_batches(augment, batch_format="pandas")
          .map_batches(pii_scrub, batch_format="pyarrow", zero_copy_batch=True))
    out = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    return out.astype({"doc_id": "int64", "n_emails": "int64",
                       "n_numbers": "int64"})


_COMPLETION_PREFIXES = ["a", "th", "w0001", "w000", "zz"]
_STRATA_RATES = {"src0": 0.8, "src1": 0.5, "src2": 0.25, "src3": 0.1}


def _q_bm25_suggest_completion(sf_dir: str):
    """OpenSearch completion suggester: top-5 dictionary expansions per
    prefix ranked by popularity (df desc, term asc), via the cached term
    dictionary (pipelines/expand.suggest_completion)."""
    from remote_vector_index_builder_ray.pipelines.expand import suggest_completion

    _, index_dir, _ = _ensure_index(sf_dir)
    out = suggest_completion(index_dir, sorted(_COMPLETION_PREFIXES), size=5)
    return out.astype({"rank": "int32", "df": "int64"}).reset_index(drop=True)


def _q_stratified_sample(sf_dir: str):
    """Deterministic per-source sampling (training-data corpus mixing):
    keep iff (doc_id * 1000003 + 12345) % 100 < rate*100; sources absent
    from the rate table drop entirely (extras/text.stratified_sample)."""
    import ray.data

    from remote_vector_index_builder_ray.extras.text import stratified_sample

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "source"])
    out = stratified_sample(ds, _STRATA_RATES).to_pandas()
    if "doc_id" not in out.columns:
        out = pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                            "source": pd.Series(dtype=object)})
    return out.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": "int64"})


def _q_dedup_apply(sf_dir: str):
    """End-to-end near-dup removal: survivors = cluster minima + unclustered
    docs; the drop set broadcasts once and the corpus streams through a
    vectorized anti-join filter (extras/dedup.dedup_apply)."""
    from remote_vector_index_builder_ray.extras.dedup import dedup_apply

    out = dedup_apply(_read(sf_dir, "documents"), shingle_k=3,
                      threshold=0.2).to_pandas()
    return (out[["doc_id"]].sort_values("doc_id")
            .reset_index(drop=True).astype({"doc_id": "int64"}))


def _q_bm25_terms_by_metric(sf_dir: str):
    """terms(role) agg ORDERED BY a sub-aggregation (order: avg_doc_len desc,
    ties key asc), top 3 buckets per query with explicit bucket rank
    (pipelines/aggs.terms_agg_ordered)."""
    from remote_vector_index_builder_ray.pipelines.aggs import terms_agg_ordered

    fx, index_dir, _ = _ensure_index(sf_dir)
    return terms_agg_ordered(index_dir, pd.read_parquet(fx["queries"]),
                             field="role", metric_field="doc_len",
                             size=3).reset_index(drop=True)


def _q_bm25_script_fields(sf_dir: str):
    """script_fields: each hit carries doc_len * 2 + turn_idx computed from
    doc-values by the sandboxed int-script compiler over the hydrated hit set
    (pipelines/query.search_script_fields)."""
    from remote_vector_index_builder_ray.pipelines.query import search_script_fields

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(fx["queries"])
    k_by_query = dict(zip(q["query_id"], q["k"]))
    q2 = q.assign(k=(q["k"] * 2).astype("int32"))
    res = search_script_fields(index_dir, q2, script="doc_len * 2 + turn_idx",
                               fields=("turn_idx", "doc_len"))
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"], ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res = res[res["rank"] <= res["query_id"].map(k_by_query)]
    return res[["query_id", "rank", "docid", "score", "script_val"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64",
         "score": "float64", "script_val": "int64"}
    ).reset_index(drop=True)


def _q_bm25_named(sf_dir: str):
    """Named queries (_name / matched_queries): the bm25_topk page with each
    hit annotated by which named clauses it also matches — 'first_term' (the
    query's own first token) and 'stopword_the' (the term 'the'). Membership
    = one constant-score pass per clause over the hit set
    (pipelines/query.search_named)."""
    from remote_vector_index_builder_ray.pipelines.query import search_named

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(fx["queries"])
    k_by_query = dict(zip(q["query_id"], q["k"]))
    q2 = q.assign(
        k=(q["k"] * 2).astype("int32"),
        first_term=q["text"].str.lower().str.extract(r"([a-z0-9_]+)", expand=False).fillna(""),
        the_term="the",
    )
    res = search_named(index_dir, q2,
                       named={"first_term": "first_term", "stopword_the": "the_term"})
    res["score"] = res["score"].round(6)
    res = res.sort_values(["query_id", "score", "docid"], ascending=[True, False, True])
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res["k"] = res["query_id"].map(k_by_query)
    res = res[res["rank"] <= res["k"]]
    return res[["query_id", "rank", "docid", "score", "matched_queries"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64",
         "score": "float64", "matched_queries": object}
    ).reset_index(drop=True)


def _q_bm25_scroll(sf_dir: str):
    """Deep pagination via the real scroll loop (pipelines/query.scroll):
    three strictly-after cursor pages of 10, unioned, rounded and cut to the
    first 20 — the oversample-then-round robustness of bm25_page2 applied to
    a whole scroll session. page = which 10-row page a hit lands on."""
    from remote_vector_index_builder_ray.pipelines.query import scroll

    fx, index_dir, _ = _ensure_index(sf_dir)
    q = pd.read_parquet(fx["queries"])
    raw = scroll(index_dir, q, page_size=10, n_pages=3)
    raw["score"] = raw["score"].round(6)
    raw = raw.sort_values(["query_id", "score", "docid"],
                          ascending=[True, False, True])
    raw["rank"] = raw.groupby("query_id").cumcount() + 1
    out = raw[raw["rank"] <= 20].copy()
    out["page"] = ((out["rank"] - 1) // 10 + 1).astype(np.int32)
    return out[["query_id", "page", "rank", "docid", "score"]].astype(
        {"query_id": np.int64, "page": np.int32, "rank": np.int32,
         "docid": np.int64, "score": np.float64}
    ).reset_index(drop=True)


def _q_bm25_stemmed(sf_dir: str):
    """Index + query analyzed with the minimal_english stemmer (Lucene
    EnglishMinimalStemFilter: final 's' drops unless len<3 or '-ss'/'-us') —
    'runs' and 'run' share a postings list. AnalyzerConfig(stemmer=...) is
    persisted in stats.json so searchers analyze queries identically."""
    from remote_vector_index_builder_ray import BuildConfig
    from remote_vector_index_builder_ray.config import AnalyzerConfig

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_stem")
    _build_fresh_on_collision(BuildConfig(
        input_paths=fx["transcripts"], index_dir=index_dir,
        num_partitions=min(4, len(fx["transcripts"])),
        analyzer=AnalyzerConfig(stemmer="minimal_english"),
    ))
    return _topk_rounded(index_dir, fx["queries"], mode="bmw")


def _q_bm25_sstemmed(sf_dir: str):
    """Index + query analyzed with the Harman (1991) S-stemmer (three-rule
    plural conflation, longest-suffix dispatch with keep-unchanged
    exceptions; functions/tokenizer._stem_s_array) — 'ponies' and 'pony'
    share a postings list while 'trees' (an 'ees' exception) keeps its own.
    Persisted in stats.json like every analyzer option."""
    from remote_vector_index_builder_ray import BuildConfig
    from remote_vector_index_builder_ray.config import AnalyzerConfig

    name = _sf_name(sf_dir)
    fx = _fx.ensure_fixture(name)
    index_dir = os.path.join(INDEX_ROOT, f"{name}_sstem")
    _build_fresh_on_collision(BuildConfig(
        input_paths=fx["transcripts"], index_dir=index_dir,
        num_partitions=min(4, len(fx["transcripts"])),
        analyzer=AnalyzerConfig(stemmer="s_stem"),
    ))
    return _topk_rounded(index_dir, fx["queries"], mode="bmw")


def _q_bm25_sig_text(sf_dir: str):
    """OpenSearch significant_text (filter_duplicate_text=true): JLH-scored
    over-represented terms with each DISTINCT text counted once per query
    foreground (canonical copy = min docid per (query, exact text)) —
    pipelines/aggs.significant_text_agg."""
    from remote_vector_index_builder_ray.pipelines.aggs import significant_text_agg

    fx, index_dir, _ = _ensure_index(sf_dir)
    return significant_text_agg(index_dir, pd.read_parquet(fx["queries"]),
                                size=10).reset_index(drop=True)


def _q_bm25_pit(sf_dir: str):
    """Point-in-time search (OpenSearch PIT): the base+generation index
    queried with pit_gens=0 — the appended generation is invisible and the
    scoring stats freeze at the base state, so results equal a search of the
    base index as it stood (oracle: BM25 over part_a alone, its own stats)."""
    fx, index_dir = _ensure_inc_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="bmw", pit_gens=0)


def _q_substring_dup(sf_dir: str):
    """Exact substring dedup (Lee et al. 2022): per doc, positional 8-token
    windows that are NOT the corpus-wide first occurrence (min (doc_id, pos))
    of that window (extras/dedup.substring_dup_stats — window hashes shuffle,
    never text; the per-doc result streams). dup_fraction rounds half-up to
    6 decimals."""
    from remote_vector_index_builder_ray.extras.dedup import substring_dup_stats

    out = substring_dup_stats(_read(sf_dir, "documents"), window=8).to_pandas()
    if "doc_id" not in out.columns:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                             "n_windows": pd.Series(dtype=np.int64),
                             "dup_windows": pd.Series(dtype=np.int64),
                             "dup_fraction": pd.Series(dtype=np.float64)})
    out["dup_fraction"] = np.floor(
        out["dup_windows"] / out["n_windows"] * 1e6 + 0.5) / 1e6
    return (out.sort_values("doc_id").reset_index(drop=True)
            .astype({"doc_id": np.int64, "n_windows": np.int64,
                     "dup_windows": np.int64, "dup_fraction": np.float64}))


def _q_tfidf_topk(sf_dir: str):
    """Lucene ClassicSimilarity (TF-IDF) top-k: idf_c^2 * sqrt(tf) / sqrt(dl)
    per term, idf_c = 1 + ln(N/(df+1)) — the OpenSearch index-level
    `similarity: classic` setting (stages/search.py similarity modules,
    exhaustive scorer)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="exhaustive",
                         similarity="classic")


def _q_lmd_topk(sf_dir: str):
    """LM Dirichlet smoothing top-k (mu=2000): per-term contribution
    max(0, ln(1 + tf/(mu*p)) + ln(mu/(dl+mu))), p = cf/total_len — the
    OpenSearch `similarity: LMDirichlet` setting."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="exhaustive",
                         similarity="lm_dirichlet")


def _q_lmjm_topk(sf_dir: str):
    """LM Jelinek-Mercer smoothing top-k (lambda=0.1): per-term contribution
    ln(1 + ((1-lambda)*tf/dl)/(lambda*p)) — the OpenSearch
    `similarity: LMJelinekMercer` setting."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="exhaustive",
                         similarity="lm_jelinek_mercer")


def _q_dfr_topk(sf_dir: str):
    """DFR InL2 similarity top-k (the OpenSearch `similarity: DFR` family,
    basic_model=in / after_effect=l / normalization=h2, c=1): per-term
    contribution tfn * log2((N+1)/(df+0.5)) / (tfn+1) with
    tfn = tf * log2(1 + avgdl/dl) (functions/bm25.sim_contrib 'dfr_inl2',
    exhaustive scorer)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="exhaustive",
                         similarity="dfr_inl2")


def _q_ib_topk(sf_dir: str):
    """IB similarity top-k (the OpenSearch `similarity: IB` family,
    distribution=ll / lambda=df / normalization=h2, c=1): per-term
    contribution ln(1 + tfn/λ) with λ = (df+1)/(N+1) and
    tfn = tf * log2(1 + avgdl/dl) (functions/bm25.sim_contrib 'ib_ll',
    exhaustive scorer)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="exhaustive",
                         similarity="ib_ll")


def _q_dfi_topk(sf_dir: str):
    """DFI similarity top-k (the OpenSearch `similarity: DFI` setting —
    Lucene DFISimilarity with the standardized independence measure):
    expected tf under independence is (cf+1)*dl/(total_len+1); a term at or
    below expectation contributes 0, above it
    log2(1 + (tf-expected)/sqrt(expected)) (functions/bm25.sim_contrib
    'dfi', exhaustive scorer)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="exhaustive",
                         similarity="dfi")


_SIM_SCRIPT = ("sqrt(tf) * (log((N + 1.0) / (df + 1.0)) + 1.0)"
               " * (1.0 / sqrt(dl))")


def _q_scripted_sim_topk(sf_dir: str):
    """Scripted similarity top-k (OpenSearch `similarity: {type: scripted}`
    — Lucene ScriptedSimilarity): the per-(term, doc) contribution is a
    sandboxed painless-analog expression over (tf, dl, df, cf, N,
    total_len), here the docs' scripted-TFIDF example
    sqrt(tf)·(ln((N+1)/(df+1))+1)·(1/sqrt(dl)) — compiled once per actor
    (functions/bm25.compile_sim_script), exhaustive scorer; the SQL twin
    transcribes the expression verbatim."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="exhaustive",
                         similarity="scripted:" + _SIM_SCRIPT)


def _q_bool_sim_topk(sf_dir: str):
    """Lucene BooleanSimilarity top-k (the OpenSearch index-level
    `similarity: boolean` setting): each matched term contributes exactly
    the query boost (1.0), ignoring tf/idf/length norms, so a doc's score
    is its distinct-matched-term count (functions/bm25.sim_contrib
    'boolean', exhaustive scorer)."""
    fx, index_dir, _ = _ensure_index(sf_dir)
    return _topk_rounded(index_dir, fx["queries"], mode="exhaustive",
                         similarity="boolean")


def _q_bm25_has_child(sf_dir: str):
    """OpenSearch ``has_child`` (score_mode=max): the top-10 CONVERSATIONS per
    query, ranked by their best-matching turn's 6-rounded BM25 score
    (pipelines/join.has_child — scored match sets shard by docid range off
    the driver; docmeta streams once through a per-(query, conv) combiner)."""
    from remote_vector_index_builder_ray.pipelines.join import has_child

    fx, index_dir, _ = _ensure_index(sf_dir)
    return has_child(index_dir, pd.read_parquet(fx["queries"]), k=10)


def _q_bm25_has_child_min(sf_dir: str):
    """``has_child`` with score_mode=min and min_children=2: conversations
    ranked by their WORST-matching turn's 6-rounded score, only
    conversations with at least 2 matching turns surviving (OpenSearch
    has_child min_children + score_mode min; the min partial rides the same
    per-(query, conv) combiner as max/sum/avg — min is associative, so the
    distributed reduce is exact)."""
    from remote_vector_index_builder_ray.pipelines.join import has_child

    fx, index_dir, _ = _ensure_index(sf_dir)
    return has_child(index_dir, pd.read_parquet(fx["queries"]), k=10,
                     score_mode="min", min_children=2)


def _q_bm25_has_parent(sf_dir: str):
    """OpenSearch ``has_parent`` (score=true): children of each query's top-3
    matching PARENT docs (a conversation's opening turn, turn_idx==0), each
    carrying the parent's score (pipelines/join.has_parent — parents via
    filter-context search, children via broadcast-semi-join hydration)."""
    from remote_vector_index_builder_ray.pipelines.join import has_parent

    fx, index_dir, _ = _ensure_index(sf_dir)
    return has_parent(index_dir, pd.read_parquet(fx["queries"]), k=3)


def _q_bm25_constant_score(sf_dir: str):
    """OpenSearch constant_score query (boost=2.5): the bool filter over
    the indexed field (match ANY query term, minus the cycling
    exclude_text must_not terms) in filter context, every surviving doc
    scoring exactly the boost — Lucene ConstantScoreQuery
    (pipelines/query.search_constant_score); under the engine's
    (score desc, docid asc) order the top-k is the k smallest matching
    docids."""
    from remote_vector_index_builder_ray import search_constant_score

    _, index_dir, _ = _ensure_index(sf_dir)
    out = search_constant_score(index_dir,
                                pd.read_parquet(_ensure_mustnot_queries(sf_dir)),
                                boost=2.5)
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64",
         "score": "float64"}).reset_index(drop=True)


def _ensure_termslookup_requests(sf_dir: str) -> str:
    """terms-lookup request set: 20 requests whose seed docid walks the
    corpus deterministically ((7*i + 3) * stride % n_docs — spread across
    the docid space), plus one request pointing at an ABSENT docid (a
    terms lookup against a missing id matches nothing)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_termslookup_requests.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        n_docs = sum(pq.read_metadata(p).num_rows for p in fx["transcripts"])
        stride = max(1, n_docs // 23)
        seeds = [((7 * i + 3) * stride) % n_docs for i in range(20)]
        seeds.append(n_docs + 5)  # absent id
        req = pd.DataFrame({
            "query_id": pd.Series(range(len(seeds)), dtype="int64"),
            "lookup_docid": pd.Series(seeds, dtype="int64"),
            "k": pd.Series([10] * len(seeds), dtype="int32"),
        })
        _write_atomic(pa.Table.from_pandas(req, preserve_index=False), path)
    return path


def _q_bm25_terms_lookup(sf_dir: str):
    """OpenSearch terms query with terms LOOKUP: the term set is fetched
    from an indexed seed document (first 8 distinct analyzer tokens,
    lexicographic) via one broadcast-semi-join docmeta fetch for all
    requests, then matched constant-score (pipelines/query.
    search_terms_lookup). The absent-seed request returns no rows."""
    from remote_vector_index_builder_ray import search_terms_lookup

    _, index_dir, _ = _ensure_index(sf_dir)
    out = search_terms_lookup(
        index_dir, pd.read_parquet(_ensure_termslookup_requests(sf_dir)),
        max_terms=8)
    return out[["query_id", "rank", "docid", "score"]].astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64",
         "score": "float64"}).reset_index(drop=True)


def _q_bm25_bucket_selector(sf_dir: str):
    """OpenSearch bucket_selector pipeline agg over the per-day
    date_histogram with a sum(doc_len) sub-agg: the painless-subset script
    `params.total >= 220 && params.docs >= 2` removes failing buckets from
    the response (pipelines/aggs.bucket_selector_date_histogram) — the
    selector sibling of bucket_sort, over TWO bucket paths (_count and the
    metric sum)."""
    from remote_vector_index_builder_ray import bucket_selector_date_histogram

    fx, index_dir, _ = _ensure_index(sf_dir)
    out = bucket_selector_date_histogram(
        index_dir, pd.read_parquet(fx["queries"]), field="ts",
        metric_field="doc_len",
        script="params.total >= 220 && params.docs >= 2")
    return out.astype({"query_id": "int64", "n_docs": "int64",
                       "total": "int64"}).reset_index(drop=True)


def _ensure_template_queries(sf_dir: str) -> str:
    """search-template request set derived from the standard queries:
    template = the query's tokens with the FIRST token replaced by
    `{{a}}` and (on every third query) the LAST token replaced by `{{b}}`;
    params carries the replaced tokens as a JSON object. Rendering must
    reconstruct the original term multiset — an engine that skips or
    mangles the substitution scores differently from the oracle, which
    renders the same artifact itself."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    name = _sf_name(sf_dir)
    path = os.path.join(ARTIFACT_ROOT, f"{name}_template_queries.parquet")
    if not os.path.exists(path):
        fx = _fx.ensure_fixture(name)
        q = pq.read_table(fx["queries"]).to_pandas()
        templates, params = [], []
        for r in q.itertuples(index=False):
            toks = tokenize_text(r.text or "")
            if not toks:
                templates.append("{{a}}")
                params.append(json.dumps({"a": ""}))
                continue
            parts = list(toks)
            p = {"a": parts[0]}
            parts[0] = "{{a}}"
            if int(r.query_id) % 3 == 0 and len(parts) > 1:
                p["b"] = parts[-1]
                parts[-1] = "{{b}}"
            templates.append(" ".join(parts))
            params.append(json.dumps(p))
        out = pd.DataFrame({
            "query_id": q["query_id"].astype("int64"),
            "template": templates,
            "params": params,
            "k": q["k"].astype("int32"),
        })
        _write_atomic(pa.Table.from_pandas(out, preserve_index=False), path)
    return path


def _q_bm25_search_template(sf_dir: str):
    """OpenSearch _search/template: mustache {{param}} substitution over
    per-request (template, params-JSON) pairs, then the standard BM25
    search over the rendered text (pipelines/query.search_template). The
    oracle renders the same artifact with replace(), so a rendering bug
    diverges."""
    from remote_vector_index_builder_ray import search_template

    _, index_dir, _ = _ensure_index(sf_dir)
    tq = pd.read_parquet(_ensure_template_queries(sf_dir))
    return _topk_rounded(
        index_dir, tq[["query_id", "template", "params", "k"]],
        search_fn=search_template, mode="bmw",
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # core BM25 engine (SQL-checked)
        "bm25_topk": _q_bm25_topk,
        "bm25_search_service": _q_bm25_search_service,
        "bm25_has_child": _q_bm25_has_child,
        "bm25_has_child_min": _q_bm25_has_child_min,
        "bool_sim_topk": _q_bool_sim_topk,
        "dfr_topk": _q_dfr_topk,
        "ib_topk": _q_ib_topk,
        "dfi_topk": _q_dfi_topk,
        "scripted_sim_topk": _q_scripted_sim_topk,
        "bm25_has_parent": _q_bm25_has_parent,
        "tfidf_topk": _q_tfidf_topk,
        "lmd_topk": _q_lmd_topk,
        "lmjm_topk": _q_lmjm_topk,
        "substring_dup_docs": _q_substring_dup,
        "bm25_pit": _q_bm25_pit,
        "bm25_sig_text": _q_bm25_sig_text,
        "bm25_stemmed": _q_bm25_stemmed,
        "bm25_sstemmed": _q_bm25_sstemmed,
        "bm25_scroll": _q_bm25_scroll,
        "bm25_named": _q_bm25_named,
        "bm25_terms_by_metric": _q_bm25_terms_by_metric,
        "bm25_script_fields": _q_bm25_script_fields,
        "bm25_update_by_query": _q_bm25_update_by_query,
        "bm25_composite_after": _q_bm25_composite_after,
        "bm25_federated": _q_bm25_federated,
        "bm25_dfs_federated": _q_bm25_dfs_federated,
        "bm25_min_score": _q_bm25_min_score,
        "bm25_rebucketed": _q_bm25_rebucketed,
        "bm25_sig_chi2": _q_bm25_sig_chi2,
        "bm25_sig_mi": _q_bm25_sig_mi,
        "bm25_sig_gnd": _q_bm25_sig_gnd,
        "chunk_docs": _q_chunk_docs,
        "conv_stats": _q_conv_stats,
        "source_mix_weights": _q_source_mix,
        "bm25_sorted_after": _q_bm25_sorted_after,
        "bm25_alias": _q_bm25_alias,
        "bm25_max_bucket": _q_bm25_max_bucket,
        "bm25_min_bucket": _q_bm25_min_bucket,
        "bm25_bucket_correlation": _q_bm25_bucket_correlation,
        "bm25_ks_test": _q_bm25_ks_test,
        "ingest_simulate": _q_ingest_simulate,
        "bm25_filters_other": _q_bm25_filters_other,
        "bm25_incremental": _q_bm25_incremental,
        "bm25_delete_search": _q_bm25_delete_search,
        "bm25_compacted": _q_bm25_compacted,
        "bm25_filtered": _q_bm25_filtered,
        "bm25_search_pipeline": _q_bm25_search_pipeline,
        "bm25_phrase": _q_bm25_phrase,
        "bm25_phrase_slop": _q_bm25_phrase_slop,
        "bm25_span_near": _q_bm25_span_near,
        "bm25_query_string": _q_bm25_query_string,
        "bm25_rescore": _q_bm25_rescore,
        "bm25_hybrid": _q_bm25_hybrid,
        "bm25_boosting": _q_bm25_boosting,
        "bm25_and": _q_bm25_and,
        "bm25_msm": _q_bm25_msm,
        "bm25_prefix": _q_bm25_prefix,
        "bm25_wildcard": _q_bm25_wildcard,
        "bm25_regexp": _q_bm25_regexp,
        "bm25_terms": _q_bm25_terms,
        "bm25_fuzzy": _q_bm25_fuzzy,
        "bm25_fuzzy_auto": _q_bm25_fuzzy_auto,
        "bm25_snippets": _q_bm25_snippets,
        "bm25_snippets_multi": _q_bm25_snippets_multi,
        "bm25_facets": _q_bm25_facets,
        "bm25_date_histogram": _q_bm25_date_histogram,
        "bm25_filter_terms": _q_bm25_filter_terms,
        "bm25_bool_prefix": _q_bm25_bool_prefix,
        "bm25_matrix_stats": _q_bm25_matrix_stats,
        "bm25_bucket_script": _q_bm25_bucket_script,
        "bm25_moving_fn": _q_bm25_moving_fn,
        "bm25_count": _q_bm25_count,
        "bm25_diversified_sampler": _q_bm25_diversified_sampler,
        "bm25_sampler": _q_bm25_sampler,
        "bm25_distance_feature": _q_bm25_distance_feature,
        "bm25_span_first": _q_bm25_span_first,
        "bm25_span_not": _q_bm25_span_not,
        "bm25_span_containing": _q_bm25_span_containing,
        "bm25_span_within": _q_bm25_span_within,
        "bm25_percentiles_bucket": _q_bm25_percentiles_bucket,
        "bm25_cum_cardinality": _q_bm25_cum_cardinality,
        "bm25_mget": _q_bm25_mget,
        "bm25_scripted_metric": _q_bm25_scripted_metric,
        "pii_scrub": _q_pii_scrub,
        "bm25_suggest_completion": _q_bm25_suggest_completion,
        "stratified_sample": _q_stratified_sample,
        "dedup_apply_docs": _q_dedup_apply,
        "bm25_weighted_avg": _q_bm25_weighted_avg,
        "bm25_percentile_ranks": _q_bm25_percentile_ranks,
        "bm25_top_metrics": _q_bm25_top_metrics,
        "bm25_multi_terms": _q_bm25_multi_terms,
        "bm25_stats_bucket": _q_bm25_stats_bucket,
        "bm25_pipeline_aggs": _q_bm25_pipeline_aggs,
        "bm25_date_range": _q_bm25_date_range,
        "bm25_moving_avg": _q_bm25_moving_avg,
        "bm25_serial_diff": _q_bm25_serial_diff,
        "bm25_auto_histogram": _q_bm25_auto_histogram,
        "bm25_bucket_sort": _q_bm25_bucket_sort,
        "bm25_sorted_multi": _q_bm25_sorted_multi,
        "bm25_page2": _q_bm25_page2,
        "bm25_dismax": _q_bm25_dismax,
        "bm25_collapse": _q_bm25_collapse,
        "bm25_sorted": _q_bm25_sorted,
        "bm25_range_agg": _q_bm25_range_agg,
        "bm25_stats_agg": _q_bm25_stats_agg,
        "bm25_extended_stats": _q_bm25_extended_stats,
        "bm25_histogram": _q_bm25_histogram,
        "bm25_histogram_offset": _q_bm25_histogram_offset,
        "bm25_terms_size": _q_bm25_terms_size,
        "bm25_month_histogram": _q_bm25_month_histogram,
        "bm25_missing": _q_bm25_missing,
        "bm25_filters": _q_bm25_filters,
        "bm25_adjacency": _q_bm25_adjacency,
        "bm25_global_agg": _q_bm25_global_agg,
        "bm25_rare_terms": _q_bm25_rare_terms,
        "bm25_string_stats": _q_bm25_string_stats,
        "bm25_cardinality": _q_bm25_cardinality,
        "bm25_percentiles": _q_bm25_percentiles,
        "bm25_boxplot": _q_bm25_boxplot,
        "bm25_mad": _q_bm25_mad,
        "bm25_t_test": _q_bm25_t_test,
        "bm25_rate": _q_bm25_rate,
        "bm25_top_hits": _q_bm25_top_hits,
        "bm25_sig_terms": _q_bm25_sig_terms,
        "bm25_multi_match": _q_bm25_multi_match,
        "bm25_most_fields": _q_bm25_most_fields,
        "bm25_cross_fields": _q_bm25_cross_fields,
        "bm25_combined_fields": _q_bm25_combined_fields,
        "bm25_phrase_prefix": _q_bm25_phrase_prefix,
        "bm25_func_score": _q_bm25_func_score,
        "bm25_random_score": _q_bm25_random_score,
        "bm25_script_score": _q_bm25_script_score,
        "bm25_rank_feature": _q_bm25_rank_feature,
        "bm25_rank_feature_log": _q_bm25_rank_feature_log,
        "bm25_rank_feature_sigmoid": _q_bm25_rank_feature_sigmoid,
        "bm25_term_boosts": _q_bm25_term_boosts,
        "bm25_terms_set": _q_bm25_terms_set,
        "bm25_sliced": _q_bm25_sliced,
        "bm25_span_or": _q_bm25_span_or,
        "bm25_span_multi": _q_bm25_span_multi,
        "bm25_normalize": _q_bm25_normalize,
        "bm25_terms_enum": _q_bm25_terms_enum,
        "bm25_hybrid_norm": _q_bm25_hybrid_norm,
        "bm25_hybrid_l2": _q_bm25_hybrid_l2,
        "bm25_exists": _q_bm25_exists,
        "bm25_extended_stats_bucket": _q_bm25_extended_stats_bucket,
        "duplicate_ngram_fraction": _q_duplicate_ngrams,
        "bm25_intervals": _q_bm25_intervals,
        "bm25_vw_histogram": _q_bm25_vw_histogram,
        "bm25_moving_percentiles": _q_bm25_moving_percentiles,
        "corpus_stats_jsonl": _q_corpus_stats_jsonl,
        "benchmark_decontamination": _q_benchmark_decontamination,
        "bm25_collapse_hits": _q_bm25_collapse_hits,
        "quality_filter": _q_quality_filter,
        "bm25_script_filter": _q_bm25_script_filter,
        "bm25_pinned": _q_bm25_pinned,
        "bm25_date_histogram_empty": _q_bm25_date_histogram_empty,
        "ann_range_search": _q_ann_range_search,
        "bm25_decay": _q_bm25_decay,
        "bm25_gauss_decay": _q_bm25_gauss_decay,
        "bm25_exp_decay": _q_bm25_exp_decay,
        "bm25_composite": _q_bm25_composite,
        "bm25_delete_by_query": _q_bm25_delete_by_query,
        "bm25_update": _q_bm25_update,
        "bm25_bool": _q_bm25_bool,
        "bm25_mlt": _q_bm25_mlt,
        "bm25_termvectors": _q_bm25_termvectors,
        "bm25_index_stats": _q_bm25_index_stats,
        "bm25_restore": _q_bm25_restore,
        "bm25_explain": _q_bm25_explain,
        "bm25_must_not": _q_bm25_must_not,
        "bm25_synonyms": _q_bm25_synonyms,
        "bm25_analyzed": _q_bm25_analyzed,
        "bm25_analyze": _q_bm25_analyze,
        "bm25_suggest": _q_bm25_suggest,
        "bm25_suggest_phrase": _q_bm25_suggest_phrase,
        "bm25_percolate": _q_bm25_percolate,
        "bm25_reindex": _q_bm25_reindex,
        "bm25_rank_eval": _q_bm25_rank_eval,
        "corpus_stats": _q_corpus_stats,
        "term_stats": _q_term_stats,
        "docids": _q_docids,
        "bm25_hydrated": _q_bm25_hydrated,
        "dedup_transcripts": _q_dedup_transcripts,
        # training-data extras (SQL-checked)
        "text_features": _q_text_features,
        "exact_dedup_docs": _q_exact_dedup_docs,
        "ann_topk": _q_ann_topk,
        "ann_matryoshka_topk": _q_ann_matryoshka,
        "ann_hnsw_filtered": _q_ann_hnsw_filtered,
        "ann_filtered": _q_ann_filtered,
        "ann_pq_topk": _q_ann_pq_topk,
        "ann_sq_topk": _q_ann_sq_topk,
        "ann_ivfpq_topk": _q_ann_ivfpq_topk,
        "ann_hnsw_topk": _q_ann_hnsw,
        "ann_bq_topk": _q_ann_bq_topk,
        "ann_kmeans": _q_ann_kmeans,
        "embedding_near_dup": _q_embedding_near_dup,
        "events_window": _q_events_window,
        "events_funnel": _q_events_funnel,
        "events_retention": _q_events_retention,
        "events_hopping": _q_events_hopping,
        "events_sessionize": _q_events_sessionize,
        "multimodal_resize": _q_multimodal_resize,
        "ngram_jaccard_pairs": _q_ngram_jaccard,
        "dedup_clusters": _q_dedup_clusters,
        "token_stats": _q_token_stats,
        "pack_sequences": _q_pack_sequences,
        "dataset_split": _q_dataset_split,
        "repetition_stats": _q_repetition_stats,
        "unigram_lm": _q_unigram_lm,
        # approximate / non-SQL-expressible (rows-only check; pytest covers
        # their semantics vs brute-force oracles)
        "minhash_lsh_pairs": _q_minhash_pairs,
        "simhash_pairs": _q_simhash_pairs,
        "ann_ivf_topk": _q_ann_ivf_topk,
        "multimodal_features": _q_multimodal_features,
        "video_frame_sample": _q_video_frames,
        # round-5b: the last missing pipeline agg + three API-surface ops
        "bm25_bucket_selector": _q_bm25_bucket_selector,
        "bm25_constant_score": _q_bm25_constant_score,
        "bm25_terminate_after": _q_bm25_terminate_after,
        "bm25_err": _q_bm25_err,
        "bm25_terms_lookup": _q_bm25_terms_lookup,
        "bm25_search_template": _q_bm25_search_template,
        "bm25_rollover": _q_bm25_rollover,
    }


# ---------------------------------------------------------------------------
# oracle SQL (DuckDB) — same tokenizer, same BM25 formula, same tie-break
# ---------------------------------------------------------------------------

from remote_vector_index_builder_ray.extras.text import STOPWORDS_SMALL as _STOPWORDS_SMALL

_STOP_SQL = ", ".join(f"'{w}'" for w in _STOPWORDS_SMALL)

# MATERIALIZED: DuckDB's CTE inlining re-derives toks/tf per consumer and the
# optimizer chokes on the resulting plan (empirically: minutes vs seconds)
_TOKS = """
    toks AS MATERIALIZED (
        SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
        FROM docs
    )
"""


def _docs_cte(sf: str) -> str:
    return f"""
    docs AS MATERIALIZED (
        SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
               conv_id, turn_idx, text
        FROM read_parquet('{_transcripts_glob(sf)}')
    )"""


def oracle_sql() -> dict[str, str]:
    sf = "sf0.01"  # the driver's correctness scale
    docs = _docs_cte(sf)
    phrase_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_phrase_queries.parquet")
    media_pq = os.path.join(ARTIFACT_ROOT, "media200.parquet")
    video_pq = os.path.join(ARTIFACT_ROOT, "video100.parquet")
    simhash_pq = os.path.join(ARTIFACT_ROOT, "sf0.01_simhash.parquet")
    ivf_pq = _ivf_artifact_path(sf)
    # exact n-gram Jaccard over the shingle inverted index — shared by the
    # ngram_jaccard_pairs entry AND the minhash entry (whose LSH candidates,
    # exact-verified at the same threshold, equal the exact pair set)
    cluster_sql = """
WITH RECURSIVE t AS MATERIALIZED (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts FROM documents
),
s AS MATERIALIZED (
    SELECT doc_id, unnest(list_distinct(
        CASE WHEN len(ts) = 0 THEN CAST([] AS VARCHAR[])
             WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
             ELSE [array_to_string(ts[i:i+2], ' ') FOR i IN range(1, len(ts) - 1)]
        END)) AS shingle
    FROM t
),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM s GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::BIGINT AS i
    FROM s a JOIN s b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
    GROUP BY 1, 2
),
p AS (
    SELECT doc_a, doc_b
    FROM inter JOIN sz sa ON doc_a = sa.doc_id JOIN sz sb ON doc_b = sb.doc_id
    WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.2
),
edges AS (SELECT doc_a AS a, doc_b AS b FROM p UNION ALL SELECT doc_b, doc_a FROM p),
reach(node, label) AS (
    SELECT a AS node, a AS label FROM edges
    UNION
    SELECT e.b AS node, r.label FROM reach r JOIN edges e ON e.a = r.node
)
SELECT node AS doc_id, min(label)::BIGINT AS cluster_id
FROM reach GROUP BY node ORDER BY doc_id
"""
    ngram_sql = """
WITH t AS MATERIALIZED (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts FROM documents
),
s AS MATERIALIZED (
    SELECT doc_id, unnest(list_distinct(
        CASE WHEN len(ts) = 0 THEN CAST([] AS VARCHAR[])
             WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
             ELSE [array_to_string(ts[i:i+2], ' ') FOR i IN range(1, len(ts) - 1)]
        END)) AS shingle
    FROM t
),
sz AS (SELECT doc_id, count(*)::BIGINT AS n FROM s GROUP BY doc_id),
inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::BIGINT AS i
    FROM s a JOIN s b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
    GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       floor(i::DOUBLE / (sa.n + sb.n - i) * 1000000 + 0.5) / 1000000 AS jaccard
FROM inter JOIN sz sa ON doc_a = sa.doc_id JOIN sz sb ON doc_b = sb.doc_id
WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.2
ORDER BY doc_a, doc_b
"""
    out = {
        "bm25_topk": f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
""",
        "corpus_stats": f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
totals AS (SELECT sum(dl)::BIGINT AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs)
SELECT n_docs, total_len, round(total_len::DOUBLE / n_docs, 6) AS avgdl
FROM ndocs CROSS JOIN totals
""",
        "term_stats": f"""
WITH {docs}, {_TOKS}
SELECT term, count(DISTINCT docid)::BIGINT AS df, count(*)::BIGINT AS cf
FROM toks GROUP BY term ORDER BY term
""",
        "docids": f"""
WITH {docs}, {_TOKS},
dl AS (SELECT docid, count(*) AS dl FROM toks GROUP BY docid)
SELECT d.docid, d.conv_id, d.turn_idx::INT AS turn_idx,
       coalesce(dl.dl, 0)::INT AS doc_len
FROM docs d LEFT JOIN dl USING (docid)
ORDER BY d.docid
""",
        "bm25_hydrated": f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
),
src AS (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score,
       src.conv_id, src.turn_idx::INT AS turn_idx, src.role, src.text
FROM ranked r JOIN src USING (docid)
WHERE r.rank <= r.k
ORDER BY r.query_id, r.rank
""",
        "dedup_transcripts": f"""
SELECT conv_id, turn_idx::INT AS turn_idx, text
FROM read_parquet('{FIXTURE_ROOT}/{sf}_dups/transcripts/*.parquet')
QUALIFY row_number() OVER (PARTITION BY conv_id, turn_idx ORDER BY ts, role, text) = 1
ORDER BY conv_id, turn_idx
""",
        "text_features": f"""
WITH t AS MATERIALIZED (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts FROM documents
), f AS (
    SELECT doc_id, len(ts)::BIGINT AS n_tokens, len(list_distinct(ts))::BIGINT AS n_unique,
           CASE WHEN len(ts) = 0 THEN 0.0
                ELSE len(list_filter(ts, x -> x IN ({_STOP_SQL})))::DOUBLE / len(ts) END AS sr,
           CASE WHEN len(ts) = 0 THEN 0.0
                ELSE len(list_distinct(ts))::DOUBLE / len(ts) END AS ur,
           md5(array_to_string(ts, ' ')) AS fingerprint
    FROM t
)
SELECT doc_id, n_tokens, n_unique,
       floor(sr * 1000000 + 0.5) / 1000000 AS stopword_ratio,
       CASE WHEN sr >= 0.1 AND n_tokens >= 3 THEN 'en' ELSE 'unk' END AS lang_id,
       floor((0.5 * least(1.0, n_tokens / 100.0) + 0.3 * ur + 0.2 * least(1.0, sr * 4.0))
             * 1000000 + 0.5) / 1000000 AS quality_score,
       fingerprint
FROM f ORDER BY doc_id
""",
        "exact_dedup_docs": """
WITH t AS (
    SELECT doc_id, md5(array_to_string(regexp_extract_all(lower(text), '[a-z0-9_]+'), ' ')) AS content_hash
    FROM documents
)
SELECT content_hash, min(doc_id)::BIGINT AS keep_id, count(*)::BIGINT AS n_copies
FROM t GROUP BY content_hash ORDER BY content_hash
""",
        "ann_matryoshka_topk": """
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv[1:16], e.v[1:16]) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
),
ranked AS (
    SELECT query_id, vec_id, cosine,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
)
SELECT query_id, rank::INT AS rank, vec_id, cosine FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
""",
        "ann_topk": """
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
),
ranked AS (
    SELECT query_id, vec_id, cosine,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
)
SELECT query_id, rank::INT AS rank, vec_id, cosine FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
""",
        "ann_filtered": """
WITH e AS MATERIALIZED (SELECT vec_id, label, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
    WHERE e.label < 5
),
ranked AS (
    SELECT query_id, vec_id, cosine,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
)
SELECT query_id, rank::INT AS rank, vec_id, cosine FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
""",
        "embedding_near_dup": """
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)
SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
       floor(list_cosine_similarity(a.v, b.v) * 1000000 + 0.5) / 1000000 AS cosine
FROM e a JOIN e b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.v, b.v) >= 0.5
ORDER BY vec_id_a, vec_id_b
""",
        "ngram_jaccard_pairs": ngram_sql,
        "dedup_clusters": cluster_sql,
        "minhash_lsh_pairs": ngram_sql,
        "unigram_lm": """
WITH toks AS MATERIALIZED (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
    FROM documents
),
cf AS (SELECT term, count(*)::BIGINT AS cnt FROM toks GROUP BY term),
total AS (SELECT sum(cnt)::DOUBLE AS tot FROM cf),
ds AS (
    SELECT t.doc_id, count(*)::BIGINT AS n_tokens,
           sum(ln(cf.cnt::DOUBLE / tt.tot)) AS s
    FROM toks t JOIN cf USING (term) CROSS JOIN total tt
    GROUP BY t.doc_id
),
alldocs AS (SELECT doc_id FROM documents)
SELECT a.doc_id, coalesce(ds.n_tokens, 0)::BIGINT AS n_tokens,
       CASE WHEN ds.doc_id IS NULL THEN 0.0
            ELSE floor((ds.s / ds.n_tokens) * 1000000 + 0.5) / 1000000 END AS avg_logprob
FROM alldocs a LEFT JOIN ds ON ds.doc_id = a.doc_id
ORDER BY a.doc_id
""",
        "repetition_stats": """
WITH t AS (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM documents
),
g AS (
    SELECT doc_id,
           CASE WHEN len(ts) >= 3
                THEN [ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]
                      FOR i IN range(1, len(ts) - 1)]
                ELSE [] END AS tg
    FROM t
)
SELECT doc_id, len(tg)::BIGINT AS n_ngrams,
       len(list_distinct(tg))::BIGINT AS n_distinct,
       CASE WHEN len(tg) = 0 THEN 0.0
            ELSE floor((1 - len(list_distinct(tg))::DOUBLE / len(tg)) * 1000000 + 0.5)
                 / 1000000 END AS dup_ratio
FROM g ORDER BY doc_id
""",
        "dataset_split": """
WITH t AS (
    SELECT doc_id,
           try_cast(('0x' || substring(md5(doc_id::VARCHAR), 1, 8)) AS BIGINT) % 100 AS bucket
    FROM documents
)
SELECT doc_id, bucket,
       CASE WHEN bucket < 80 THEN 'train' WHEN bucket < 90 THEN 'val' ELSE 'test' END AS split
FROM t ORDER BY doc_id
""",
        "pack_sequences": """
WITH t AS (
    SELECT doc_id,
           len(regexp_extract_all(lower(text), '[a-z0-9_]+'))::BIGINT AS n_tokens
    FROM documents
)
SELECT doc_id, n_tokens,
       ((sum(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING) - n_tokens)
        // 2048)::BIGINT AS pack_id
FROM t ORDER BY doc_id
""",
        "token_stats": r"""
WITH t AS MATERIALIZED (
    -- explicit whitespace class: identical to the engine's WS_TOKEN_PATTERN
    -- (Python \S is Unicode-aware, RE2 \S is not — never use \S here)
    SELECT doc_id, regexp_extract_all(text, '[^ \t\n\r\f\v]+') AS wtoks,
           len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]'))::BIGINT AS n_bpe
    FROM documents
)
SELECT doc_id, len(wtoks)::BIGINT AS n_ws_tokens, n_bpe AS n_bpe_tokens,
       list_reduce(
           list_prepend(0::BIGINT, list_transform(wtoks, x -> (ascii(x) * 131 + len(x))::BIGINT)),
           (acc, v) -> (acc * 1000003 + v) % 2147483647
       )::BIGINT AS rolling_fp
FROM t ORDER BY doc_id
""",
        "events_hopping": """
WITH rep AS (
    SELECT user_id,
           unnest([((epoch_us(ts) // 900000000) - j) * 900
                   FOR j IN range(0, 4)]) AS window_start,
           value
    FROM events
)
SELECT user_id::BIGINT AS user_id, window_start::BIGINT AS window_start,
       count(*)::BIGINT AS n_events,
       floor(sum(value) * 10000 + 0.5) / 10000 AS sum_value
FROM rep WHERE window_start >= 0
GROUP BY 1, 2 ORDER BY 1, 2
""",
        "events_retention": """
WITH uw AS (SELECT DISTINCT user_id, date_trunc('week', ts) AS w FROM events),
coh AS (SELECT user_id, min(w) AS cw FROM uw GROUP BY user_id)
SELECT coh.cw::TIMESTAMP AS cohort_week,
       (date_diff('day', coh.cw, uw.w) // 7)::BIGINT AS offset_weeks,
       count(DISTINCT uw.user_id)::BIGINT AS n_users
FROM uw JOIN coh USING (user_id)
GROUP BY coh.cw, offset_weeks
ORDER BY cohort_week, offset_weeks
""",
        "events_funnel": """
WITH u AS (SELECT DISTINCT user_id FROM events),
t1 AS (
    SELECT user_id, min(epoch_us(ts)) AS t
    FROM events WHERE event_type = 'view' GROUP BY user_id
),
t2 AS (
    SELECT e.user_id, min(epoch_us(e.ts)) AS t
    FROM events e JOIN t1 ON t1.user_id = e.user_id
    WHERE e.event_type = 'click' AND epoch_us(e.ts) > t1.t
    GROUP BY e.user_id
),
t3 AS (
    SELECT e.user_id, min(epoch_us(e.ts)) AS t
    FROM events e JOIN t2 ON t2.user_id = e.user_id
    WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > t2.t
    GROUP BY e.user_id
)
SELECT t1.user_id::BIGINT AS user_id,
       (1 + (t2.user_id IS NOT NULL)::INT + (t3.user_id IS NOT NULL)::INT)::BIGINT AS n_steps,
       (t3.user_id IS NOT NULL AND t3.t - t1.t <= 86400000000::BIGINT) AS converted
FROM t1 LEFT JOIN t2 USING (user_id) LEFT JOIN t3 USING (user_id)
ORDER BY user_id
""",
        "events_window": """
SELECT user_id::BIGINT AS user_id,
       ((epoch_us(ts) // 3600000000) * 3600)::BIGINT AS window_start,
       count(*)::BIGINT AS n_events,
       floor(sum(value) * 10000 + 0.5) / 10000 AS sum_value
FROM events GROUP BY 1, 2 ORDER BY 1, 2
""",
        "events_sessionize": """
WITH e AS (
    SELECT user_id::BIGINT AS user_id, (epoch_us(ts) // 1000000)::BIGINT AS tss,
           event_id, value
    FROM events
),
flag AS (
    SELECT *, CASE WHEN lag(tss) OVER w IS NULL OR tss - lag(tss) OVER w > 1800
                   THEN 1 ELSE 0 END AS new_sess
    FROM e WINDOW w AS (PARTITION BY user_id ORDER BY tss, event_id)
),
sess AS (
    SELECT *, sum(new_sess) OVER (PARTITION BY user_id ORDER BY tss, event_id
                                  ROWS UNBOUNDED PRECEDING) AS sid
    FROM flag
)
SELECT user_id, min(tss)::BIGINT AS session_start, max(tss)::BIGINT AS session_end,
       count(*)::BIGINT AS n_events,
       floor(sum(value) * 10000 + 0.5) / 10000 AS sum_value
FROM sess GROUP BY user_id, sid
ORDER BY user_id, session_start
""",
        "multimodal_resize": f"""
SELECT media_id, width, height,
       floor(width * (224.0 / greatest(width, height)))::INT AS out_width,
       floor(height * (224.0 / greatest(width, height)))::INT AS out_height
FROM read_parquet('{media_pq}') ORDER BY media_id
""",
        "simhash_pairs": f"""
WITH s AS (SELECT doc_id, simhash FROM read_parquet('{simhash_pq}'))
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
FROM s a JOIN s b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
ORDER BY doc_a, doc_b
""",
        "multimodal_features": f"""
SELECT media_id, mime, octet_length(payload)::BIGINT AS payload_bytes,
       floor((('0x' || substr(md5(hex(payload) || ':0'), 1, 8))::UBIGINT
              / 4294967296.0) * 1000000 + 0.5) / 1000000 AS feat0
FROM read_parquet('{media_pq}') ORDER BY media_id
""",
        "video_frame_sample": f"""
WITH v AS (SELECT media_id, payload, duration_ms FROM read_parquet('{video_pq}')),
f AS (
    SELECT media_id, payload,
           unnest(range(0, greatest(1, ceil(duration_ms / 1000.0)::BIGINT))) AS frame_idx
    FROM v
)
SELECT media_id, frame_idx::INT AS frame_idx,
       (frame_idx * 1000)::BIGINT AS frame_ts_ms,
       floor((('0x' || substr(md5(hex(payload) || ':' || frame_idx::VARCHAR || ':0'), 1, 8))::UBIGINT
              / 4294967296.0) * 1000000 + 0.5) / 1000000 AS feat0
FROM f ORDER BY media_id, frame_idx
""",
        "ann_kmeans": f"""
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
c AS (SELECT cid, centroid FROM read_parquet('{_kmeans_artifact_paths(sf)[0]}')),
sims AS (
    SELECT e.vec_id, c.cid,
           list_cosine_similarity(e.v, c.centroid) AS s
    FROM e CROSS JOIN c
),
best AS (
    SELECT vec_id, cid,
           row_number() OVER (PARTITION BY vec_id ORDER BY s DESC, cid) AS rn
    FROM sims
)
SELECT vec_id, cid::INT AS bucket FROM best WHERE rn = 1 ORDER BY vec_id
""",
        "ann_pq_topk": f"""
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
),
ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
),
bf AS (SELECT query_id, vec_id FROM ranked WHERE rank <= 10),
pq AS (SELECT query_id, vec_id FROM read_parquet('{_pq_artifact_path(sf)}'))
SELECT p.query_id,
       floor((count(b.vec_id)::DOUBLE / 10.0) * 1000000 + 0.5) / 1000000 AS recall
FROM pq p LEFT JOIN bf b ON p.query_id = b.query_id AND p.vec_id = b.vec_id
GROUP BY p.query_id ORDER BY p.query_id
""",
        "ann_hnsw_topk": f"""
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
),
ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
),
bf AS (SELECT query_id, vec_id FROM ranked WHERE rank <= 10),
g AS (SELECT query_id, vec_id FROM read_parquet('{_hnsw_artifact_path(sf)}'))
SELECT g.query_id,
       floor((count(b.vec_id)::DOUBLE / 10.0) * 1000000 + 0.5) / 1000000 AS recall
FROM g LEFT JOIN bf b ON g.query_id = b.query_id AND g.vec_id = b.vec_id
GROUP BY g.query_id ORDER BY g.query_id
""",
        "ann_hnsw_filtered": f"""
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
    WHERE e.vec_id % 3 = 0
),
ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
),
bf AS (SELECT query_id, vec_id FROM ranked WHERE rank <= 10),
g AS (SELECT query_id, vec_id FROM read_parquet('{_hnsw_filtered_artifact_path(sf)}'))
SELECT g.query_id,
       floor((count(b.vec_id)::DOUBLE / 10.0) * 1000000 + 0.5) / 1000000 AS recall
FROM g LEFT JOIN bf b ON g.query_id = b.query_id AND g.vec_id = b.vec_id
GROUP BY g.query_id ORDER BY g.query_id
""",
        "ann_sq_topk": f"""
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
),
ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
),
bf AS (SELECT query_id, vec_id FROM ranked WHERE rank <= 10),
sq AS (SELECT query_id, vec_id FROM read_parquet('{_sq_artifact_path(sf)}'))
SELECT s.query_id,
       floor((count(b.vec_id)::DOUBLE / 10.0) * 1000000 + 0.5) / 1000000 AS recall
FROM sq s LEFT JOIN bf b ON s.query_id = b.query_id AND s.vec_id = b.vec_id
GROUP BY s.query_id ORDER BY s.query_id
""",
        "ann_ivfpq_topk": f"""
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
),
ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
),
bf AS (SELECT query_id, vec_id FROM ranked WHERE rank <= 10),
a AS (SELECT query_id, vec_id FROM read_parquet('{_ivfpq_artifact_path(sf)}'))
SELECT a.query_id,
       floor((count(b.vec_id)::DOUBLE / 10.0) * 1000000 + 0.5) / 1000000 AS recall
FROM a LEFT JOIN bf b ON a.query_id = b.query_id AND a.vec_id = b.vec_id
GROUP BY a.query_id ORDER BY a.query_id
""",
        "ann_bq_topk": f"""
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
),
ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
),
bf AS (SELECT query_id, vec_id FROM ranked WHERE rank <= 10),
a AS (SELECT query_id, vec_id FROM read_parquet('{_bq_artifact_path(sf)}'))
SELECT a.query_id,
       floor((count(b.vec_id)::DOUBLE / 10.0) * 1000000 + 0.5) / 1000000 AS recall
FROM a LEFT JOIN bf b ON a.query_id = b.query_id AND a.vec_id = b.vec_id
GROUP BY a.query_id ORDER BY a.query_id
""",
        "ann_ivf_topk": f"""
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 16),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS cosine
    FROM q CROSS JOIN e
),
ranked AS (
    SELECT query_id, vec_id,
           row_number() OVER (PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rank
    FROM sims
),
bf AS (SELECT query_id, vec_id FROM ranked WHERE rank <= 10),
ivf AS (SELECT query_id, vec_id FROM read_parquet('{ivf_pq}'))
SELECT i.query_id,
       floor((count(b.vec_id)::DOUBLE / 10.0) * 1000000 + 0.5) / 1000000 AS recall
FROM ivf i LEFT JOIN bf b ON i.query_id = b.query_id AND i.vec_id = b.vec_id
GROUP BY i.query_id ORDER BY i.query_id
""",
    }
    # the incremental (base + appended generation) index answers over the
    # SAME docid space as the one-shot build (conv-sorted split; see
    # _ensure_inc_index) — its oracle IS the bm25_topk oracle
    out["bm25_incremental"] = out["bm25_topk"]
    # the warm-pool serving path returns the identical top-k contract
    out["bm25_search_service"] = out["bm25_topk"]
    out["bm25_restore"] = out["bm25_topk"]
    # rollover ingestion seals conv-ordered chunks in order: same docid space
    out["bm25_rollover"] = out["bm25_topk"]
    out["bm25_rebucketed"] = out["bm25_topk"]  # resharding is score-invariant
    # logical delete (tombstones, no expunge): score the FULL corpus (stats,
    # df, tf all unchanged — Lucene numDocs-vs-maxDoc), drop the deleted
    # docids before ranking. Victim set: conv_id ending in '0'.
    out["bm25_delete_search"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
live AS (SELECT docid FROM docs WHERE conv_id NOT LIKE '%0'),
ranked AS (
    SELECT query_id, sc.docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, sc.docid) AS rank
    FROM scored sc JOIN live USING (docid)
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # full bool query: must = first token, should = rest, must_not =
    # 'w000200' for every third query; score over must+should union
    out["bm25_bool"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q0 AS (
    SELECT query_id, k, regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{_queries_path(sf)}')
    WHERE len(regexp_extract_all(lower(text), '[a-z0-9_]+')) > 0
),
qq AS (
    SELECT query_id, k, p[1:least(2, len(p))] AS must_terms,
           CASE WHEN query_id % 3 = 0 THEN 'w000200' ELSE NULL END AS ex, p
    FROM q0
),
qterm AS (SELECT query_id, unnest(list_distinct(p)) AS term FROM qq),
scored AS (
    SELECT qt.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM qterm qt
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY qt.query_id, tf.docid
),
must_ok AS (
    -- every must term present: docs whose matched-distinct-must count
    -- equals the query's distinct-must count
    SELECT mt.query_id, t.docid
    FROM (SELECT query_id, unnest(list_distinct(must_terms)) AS term,
                 len(list_distinct(must_terms)) AS n_must FROM qq) mt
    JOIN tf t USING (term)
    GROUP BY mt.query_id, t.docid, mt.n_must
    HAVING count(DISTINCT t.term) = mt.n_must
),
dead AS (
    SELECT qq.query_id, t.docid FROM qq JOIN tf t ON t.term = qq.ex
    WHERE qq.ex IS NOT NULL
),
live AS (
    SELECT sc.query_id, sc.docid, sc.score
    FROM scored sc
    JOIN must_ok m ON m.query_id = sc.query_id AND m.docid = sc.docid
    ANTI JOIN dead d ON d.query_id = sc.query_id AND d.docid = sc.docid
),
ranked AS (
    SELECT l.query_id, l.docid, round(l.score, 6) AS score, qq.k,
           row_number() OVER (PARTITION BY l.query_id
                              ORDER BY round(l.score, 6) DESC, l.docid) AS rank
    FROM live l JOIN (SELECT DISTINCT query_id, k FROM qq) qq USING (query_id)
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # delete_by_query: victims = docs containing the deterministic term (the
    # first token of doc 11); stats unchanged, survivors score identically
    out["bm25_delete_by_query"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
victim AS (
    SELECT regexp_extract_all(lower(text), '[a-z0-9_]+')[1] AS vterm
    FROM docs WHERE docid = 11
),
dead AS (
    SELECT DISTINCT t.docid FROM toks t CROSS JOIN victim v WHERE t.term = v.vterm
),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, sc.docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, sc.docid) AS rank
    FROM scored sc WHERE sc.docid NOT IN (SELECT docid FROM dead)
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # update_docs: 20 turns patched (text || ' zzupdated'); old docids dead,
    # new versions live at docids N + rank within the update batch (sort-mode
    # generation); stats and df span ALL versions (logical delete)
    upd_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_upd_batch.parquet")
    out["bm25_update"] = f"""
WITH base AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text
    FROM read_parquet('{_transcripts_glob(sf)}')
),
nb AS (SELECT count(*)::BIGINT AS n FROM base),
upd AS MATERIALIZED (
    SELECT (SELECT n FROM nb) + row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text
    FROM read_parquet('{upd_pq}')
),
dead AS (SELECT b.docid FROM base b JOIN upd u USING (conv_id, turn_idx)),
docs AS MATERIALIZED (
    SELECT docid, text FROM base UNION ALL SELECT docid, text FROM upd
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, sc.docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, sc.docid) AS rank
    FROM scored sc WHERE sc.docid NOT IN (SELECT docid FROM dead)
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # update_by_query: docs containing 'w000050' get ' zzubq' appended — the
    # update set derives from the corpus itself (engine and SQL agree on it)
    out["bm25_update_by_query"] = f"""
WITH base AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text
    FROM read_parquet('{_transcripts_glob(sf)}')
),
nb AS (SELECT count(*)::BIGINT AS n FROM base),
hit AS MATERIALIZED (
    SELECT * FROM base
    WHERE list_contains(regexp_extract_all(lower(text), '[a-z0-9_]+'), 'w000050')
),
upd AS MATERIALIZED (
    SELECT (SELECT n FROM nb) + row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text || ' zzubq' AS text
    FROM hit
),
dead AS (SELECT docid FROM hit),
docs AS MATERIALIZED (
    SELECT docid, text FROM base UNION ALL SELECT docid, text FROM upd
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, sc.docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, sc.docid) AS rank
    FROM scored sc WHERE sc.docid NOT IN (SELECT docid FROM dead)
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # conjunctive match: same scoring as bm25_topk, candidates restricted to
    # docs matching EVERY query term (HAVING matched-term count == the
    # query's distinct term count)
    out["bm25_and"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
qn AS (SELECT query_id, count(*)::BIGINT AS nt FROM q GROUP BY query_id),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score,
           count(*)::BIGINT AS matched
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT sc.query_id, sc.docid, round(sc.score, 6) AS score, sc.k,
           row_number() OVER (PARTITION BY sc.query_id ORDER BY round(sc.score, 6) DESC, sc.docid) AS rank
    FROM scored sc JOIN qn USING (query_id)
    WHERE sc.matched = qn.nt
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # minimum_should_match=2: same scoring as bm25_topk, candidates
    # restricted to docs matching at least 2 distinct query terms (matched
    # counts only PRESENT terms, so a query with < 2 present terms — absent
    # terms still being clauses — yields nothing, as in the engine)
    out["bm25_msm"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score,
           count(*)::BIGINT AS matched
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT sc.query_id, sc.docid, round(sc.score, 6) AS score, sc.k,
           row_number() OVER (PARTITION BY sc.query_id ORDER BY round(sc.score, 6) DESC, sc.docid) AS rank
    FROM scored sc
    WHERE sc.matched >= 2
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # prefix / wildcard queries (constant-score rewrite): any doc containing
    # a dictionary term matching the pattern scores 1.0; docid-ascending
    # order is the engine's (score desc, docid asc) total order
    expand_q = _ensure_expand_queries(ORACLE_SF_DIR)
    out["bm25_prefix"] = f"""
WITH {docs}, {_TOKS},
p AS (SELECT query_id, prefix, k FROM read_parquet('{expand_q["prefix"]}')),
m AS (
    SELECT DISTINCT p.query_id, t.docid
    FROM p JOIN toks t ON t.term LIKE p.prefix || '%'
),
ranked AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id ORDER BY docid) AS rank
    FROM m
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, 1.0::DOUBLE AS score
FROM ranked r JOIN p USING (query_id)
WHERE r.rank <= p.k
ORDER BY query_id, rank
"""
    # span_multi(prefix): first 50 dictionary expansions in term order ->
    # span_or scoring (freq = Σ clause tfs, (Σ idf) * tfnorm)
    out["bm25_span_multi"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
p AS (SELECT query_id, prefix, k FROM read_parquet('{expand_q["prefix"]}')),
exp AS (
    SELECT p.query_id, d.term,
           row_number() OVER (PARTITION BY p.query_id ORDER BY d.term) AS rn
    FROM p JOIN df d ON d.term LIKE p.prefix || '%'
),
qx AS (SELECT query_id, term FROM exp WHERE rn <= 50),
qidf AS (
    SELECT qx.query_id, sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum
    FROM qx JOIN df USING (term) CROSS JOIN stats s
    GROUP BY qx.query_id
),
stf AS (
    SELECT qx.query_id, tf.docid, sum(tf.tf)::BIGINT AS freq
    FROM qx JOIN tf USING (term)
    GROUP BY qx.query_id, tf.docid
),
scored AS (
    SELECT stf.query_id, stf.docid,
           floor(qidf.idf_sum
                 * (freq * (1.2 + 1) / (freq + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)))
                 * 1000000 + 0.5) / 1000000 AS score
    FROM stf JOIN qidf USING (query_id)
    JOIN dl ON stf.docid = dl.docid CROSS JOIN stats s
),
ranked AS (
    SELECT query_id, docid, score,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score
FROM ranked r JOIN p USING (query_id)
WHERE r.rank <= p.k
ORDER BY query_id, rank
"""
    # _analyze API: sampled texts through the stopword/min-len analyzer,
    # position = pre-filter token index (Lucene position increments)
    out["bm25_analyze"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
z AS (
    SELECT docid, unnest(ts) AS term, unnest(range(0, len(ts))) AS position
    FROM docs WHERE docid % {_ANALYZE_MOD} = 0
)
SELECT docid, term, position::BIGINT AS position
FROM z
WHERE len(term) >= 2 AND term NOT IN ('the', 'and', 'to', 'of', 'a', 'in', 'is', 'it', 'you', 'that', 'he', 'was')
ORDER BY docid, position
"""
    # index stats: whole-index counts (docs, tokens, distinct terms,
    # postings = distinct (term,doc) pairs, total term occurrences)
    out["bm25_index_stats"] = f"""
WITH {docs}, {_TOKS},
dl AS (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
tf AS (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term)
SELECT (SELECT count(*) FROM docs)::BIGINT AS n_docs,
       (SELECT count(*) FROM toks)::BIGINT AS total_len,
       floor(((SELECT count(*) FROM toks)::DOUBLE / (SELECT count(*) FROM docs))
             * 1000000 + 0.5) / 1000000 AS avgdl6,
       (SELECT count(DISTINCT term) FROM tf)::BIGINT AS n_terms,
       (SELECT count(*) FROM tf)::BIGINT AS total_postings,
       (SELECT sum(tf) FROM tf)::BIGINT AS total_tf
"""
    # _termvectors: per-doc term/tf plus corpus df for the MLT doc set
    mlt_ids = ", ".join(str(d) for d in _MLT_DOCS)
    out["bm25_termvectors"] = f"""
WITH {docs}, {_TOKS},
tf AS (
    SELECT docid, term, count(*)::BIGINT AS tf
    FROM toks WHERE docid IN ({mlt_ids})
    GROUP BY docid, term
),
df AS (SELECT term, count(DISTINCT docid)::BIGINT AS df FROM toks GROUP BY term)
SELECT t.docid, t.term, t.tf, d.df
FROM tf t JOIN df d USING (term)
ORDER BY docid, term
"""
    # phrase suggester: per-token argmax-df Levenshtein<=1 correction,
    # suggestion scored by summed ln(df/N); a token with no candidate
    # kills the query's suggestion
    ps_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_ps_queries.parquet")
    out["bm25_suggest_phrase"] = f"""
WITH {docs}, {_TOKS},
d AS MATERIALIZED (SELECT term, count(DISTINCT docid)::BIGINT AS df FROM toks GROUP BY term),
ndocs AS (SELECT count(*)::DOUBLE AS n FROM docs),
q AS (
    SELECT query_id, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS qt,
           unnest(range(0, len(regexp_extract_all(lower(text), '[a-z0-9_]+')))) AS pos,
           len(regexp_extract_all(lower(text), '[a-z0-9_]+'))::BIGINT AS n_toks
    FROM read_parquet('{ps_pq}')
),
cand AS (
    SELECT q.query_id, q.pos, q.n_toks, d.term, d.df,
           row_number() OVER (PARTITION BY q.query_id, q.pos
                              ORDER BY d.df DESC, d.term) AS rn
    FROM q JOIN d ON abs(length(d.term) - length(q.qt)) <= 1
                 AND levenshtein(d.term, q.qt) <= 1
),
best AS (SELECT query_id, pos, n_toks, term, df FROM cand WHERE rn = 1),
full_q AS (
    SELECT query_id, any_value(n_toks) AS n_toks, count(*)::BIGINT AS n_fixed,
           string_agg(term, ' ' ORDER BY pos) AS suggestion,
           sum(ln(df::DOUBLE / (SELECT n FROM ndocs))) AS s
    FROM best GROUP BY query_id
)
SELECT query_id, suggestion,
       floor(s * 1000000 + 0.5) / 1000000 AS score
FROM full_q WHERE n_fixed = n_toks AND n_toks > 0
ORDER BY query_id
"""
    # terms query: constant-score ANY-of-exact-terms (first 3 analyzed
    # tokens per fixture query)
    out["bm25_terms"] = f"""
WITH {docs}, {_TOKS},
q AS (
    SELECT query_id, k,
           regexp_extract_all(lower(text), '[a-z0-9_]+')[1:3] AS terms
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (
    SELECT DISTINCT q.query_id, t.docid
    FROM q JOIN toks t ON list_contains(q.terms, t.term)
),
ranked AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id ORDER BY docid) AS rank
    FROM m
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, 1.0::DOUBLE AS score
FROM ranked r JOIN q USING (query_id)
WHERE r.rank <= q.k
ORDER BY query_id, rank
"""
    # regexp query: constant-score rewrite, RE2 full-match over the
    # dictionary (mirrors expand_regexp; both engines run RE2)
    out["bm25_regexp"] = f"""
WITH {docs}, {_TOKS},
p AS (SELECT query_id, pattern, k FROM read_parquet('{expand_q["regexp"]}')),
m AS (
    SELECT DISTINCT p.query_id, t.docid
    FROM p JOIN toks t ON regexp_full_match(t.term, p.pattern)
),
ranked AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id ORDER BY docid) AS rank
    FROM m
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, 1.0::DOUBLE AS score
FROM ranked r JOIN p USING (query_id)
WHERE r.rank <= p.k
ORDER BY query_id, rank
"""
    out["bm25_wildcard"] = f"""
WITH {docs}, {_TOKS},
p AS (SELECT query_id, pattern, k FROM read_parquet('{expand_q["wildcard"]}')),
m AS (
    SELECT DISTINCT p.query_id, t.docid
    FROM p JOIN toks t
      ON t.term LIKE replace(replace(p.pattern, '*', '%'), '?', '_')
),
ranked AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id ORDER BY docid) AS rank
    FROM m
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, 1.0::DOUBLE AS score
FROM ranked r JOIN p USING (query_id)
WHERE r.rank <= p.k
ORDER BY query_id, rank
"""
    # fuzzy query, scoring-boolean rewrite: expand each query term to its
    # Levenshtein<=1 dictionary neighborhood, score the union as a plain
    # BM25 disjunction (bm25_topk scoring over the expanded term set)
    out["bm25_fuzzy"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
fq AS (SELECT query_id, k, lower(text) AS qterm FROM read_parquet('{expand_q["fuzzy"]}')),
exp AS (
    SELECT fq.query_id, fq.k, df.term
    FROM fq JOIN df
      ON abs(length(df.term) - length(fq.qterm)) <= 1
     AND levenshtein(df.term, fq.qterm) <= 1
),
scored AS (
    SELECT e.query_id, any_value(e.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM exp e
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY e.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # fuzziness AUTO: the edit budget follows the query term's length
    # (0 / 1 / 2 at the AUTO:3,6 default breakpoints); derived from the
    # fixed-edit fuzzy SQL by an asserted replace of the expansion join
    _fz_fixed = """      ON abs(length(df.term) - length(fq.qterm)) <= 1
     AND levenshtein(df.term, fq.qterm) <= 1"""
    _fz_auto = """      ON abs(length(df.term) - length(fq.qterm))
         <= (CASE WHEN length(fq.qterm) < 3 THEN 0
                  WHEN length(fq.qterm) <= 5 THEN 1 ELSE 2 END)
     AND levenshtein(df.term, fq.qterm)
         <= (CASE WHEN length(fq.qterm) < 3 THEN 0
                  WHEN length(fq.qterm) <= 5 THEN 1 ELSE 2 END)"""
    assert out["bm25_fuzzy"].count(_fz_fixed) == 1
    out["bm25_fuzzy_auto"] = out["bm25_fuzzy"].replace(_fz_fixed, _fz_auto)
    # percolator: docs matching EVERY term of each stored multi-term query
    out["bm25_percolate"] = f"""
WITH {docs}, {_TOKS},
td AS MATERIALIZED (SELECT DISTINCT docid, term FROM toks),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
    WHERE query_id % 8 IN (2, 3, 4)
),
qn AS (SELECT query_id, count(*)::BIGINT AS nt FROM q GROUP BY query_id),
m AS (
    SELECT q.query_id, td.docid, count(*)::BIGINT AS c
    FROM q JOIN td USING (term) GROUP BY q.query_id, td.docid
),
hits AS (SELECT m.query_id, m.docid FROM m JOIN qn USING (query_id) WHERE m.c = qn.nt)
SELECT h.query_id, d.conv_id, d.turn_idx::INT AS turn_idx
FROM hits h JOIN docs d USING (docid)
ORDER BY h.query_id, d.conv_id, d.turn_idx
"""
    # term suggester: levenshtein<=2 dictionary neighbors ranked
    # (distance asc, df desc, term asc), exact term excluded
    sugg_vals = ", ".join(f"('{t}')" for t in _SUGGEST_TERMS)
    out["bm25_suggest"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
df AS MATERIALIZED (SELECT term, count(DISTINCT docid)::BIGINT AS df FROM toks GROUP BY term),
sugg AS (SELECT * FROM (VALUES {sugg_vals}) AS s(term)),
cand AS (
    SELECT s.term, df.term AS suggestion,
           levenshtein(df.term, s.term)::BIGINT AS distance, df.df
    FROM sugg s JOIN df
      ON abs(length(df.term) - length(s.term)) <= 2
     AND levenshtein(df.term, s.term) BETWEEN 1 AND 2
),
ranked AS (
    SELECT *, row_number() OVER (
        PARTITION BY term ORDER BY distance, df DESC, suggestion) AS rn
    FROM cand
)
SELECT term, suggestion, distance, df FROM ranked WHERE rn <= 5
ORDER BY term, distance, df DESC, suggestion
"""
    # rank_eval: precision@10 / recall@10 / MRR / NDCG@10 of the bm25_topk
    # ranking vs the persisted graded judgments (ranks 2/4/8 rated 3/2/1)
    ratings_pq = _ensure_ratings_artifact(ORACLE_SF_DIR)
    out["bm25_rank_eval"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
),
topk AS (SELECT query_id, docid, rank FROM ranked WHERE rank <= least(k, 10)),
ratings AS (SELECT * FROM read_parquet('{ratings_pq}')),
nrel AS (SELECT query_id, count(*)::BIGINT AS n_rel FROM ratings WHERE rating > 0 GROUP BY query_id),
hits AS (
    SELECT t.query_id, t.rank, r.rating
    FROM topk t JOIN ratings r ON r.query_id = t.query_id AND r.docid = t.docid
    WHERE r.rating > 0
),
idcg AS (
    SELECT query_id, sum((pow(2, rating) - 1) / log2(rn + 1)) AS idcg
    FROM (
        SELECT query_id, rating,
               row_number() OVER (PARTITION BY query_id ORDER BY rating DESC) + 0 AS rn
        FROM ratings WHERE rating > 0
    ) WHERE rn <= 10
    GROUP BY query_id
),
per AS (
    SELECT n.query_id,
           coalesce(h.n_hit, 0)::DOUBLE / 10 AS prec,
           coalesce(h.n_hit, 0)::DOUBLE / n.n_rel AS recall,
           coalesce(1.0 / h.first_rank, 0.0) AS rr,
           coalesce(h.dcg, 0.0) / i.idcg AS ndcg
    FROM nrel n
    LEFT JOIN (
        SELECT query_id, count(*)::BIGINT AS n_hit, min(rank) AS first_rank,
               sum((pow(2, rating) - 1) / log2(rank + 1)) AS dcg
        FROM hits GROUP BY query_id
    ) h ON h.query_id = n.query_id
    JOIN idcg i ON i.query_id = n.query_id
)
SELECT query_id,
       floor(prec * 1000000 + 0.5) / 1000000 AS precision_at_k,
       floor(recall * 1000000 + 0.5) / 1000000 AS recall_at_k,
       floor(rr * 1000000 + 0.5) / 1000000 AS reciprocal_rank,
       floor(ndcg * 1000000 + 0.5) / 1000000 AS ndcg_at_k
FROM per ORDER BY query_id
"""
    # ERR@10: R = (2^rating - 1)/2^max over the bm25 top-10; the stop
    # probability before rank r = exp(Σ ln(1-R) over earlier ranks) — the
    # same float-op shape the engine uses
    out["bm25_err"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
),
topk AS (SELECT query_id, docid, rank FROM ranked WHERE rank <= least(k, 10)),
ratings AS (SELECT * FROM read_parquet('{ratings_pq}')),
mx AS (SELECT pow(2, max(rating))::DOUBLE AS denom FROM ratings),
rmap AS (
    SELECT t.query_id, t.rank,
           coalesce((pow(2, r.rating) - 1) / mx.denom, 0.0) AS rr
    FROM topk t
    LEFT JOIN (SELECT * FROM ratings WHERE rating > 0) r
      ON r.query_id = t.query_id AND r.docid = t.docid
    CROSS JOIN mx
),
w AS (
    SELECT query_id, rank, rr,
           exp(coalesce(sum(ln(1 - rr)) OVER (
               PARTITION BY query_id ORDER BY rank
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0.0)) AS pbefore
    FROM rmap
),
per AS (SELECT query_id, sum(rr / rank * pbefore) AS err FROM w GROUP BY query_id)
SELECT b.query_id,
       floor(coalesce(p.err, 0.0) * 1000000 + 0.5) / 1000000 AS err_at_k
FROM (SELECT DISTINCT query_id FROM ratings) b
LEFT JOIN per p ON p.query_id = b.query_id
ORDER BY b.query_id
"""
    # terminate_after=25: collected set = the 25 smallest matching docids
    # (docid-order collection), scored normally; terminated = matches > 25
    out["bm25_terminate_after"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, tf.docid FROM q JOIN tf USING (term)),
cnt AS (SELECT query_id, count(*)::BIGINT AS n FROM m GROUP BY query_id),
firstt AS (
    SELECT query_id, docid FROM (
        SELECT query_id, docid,
               row_number() OVER (PARTITION BY query_id ORDER BY docid) AS rn
        FROM m
    ) WHERE rn <= 25
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    JOIN firstt f ON f.query_id = q.query_id AND f.docid = tf.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, k,
           floor(score * 1000000 + 0.5) / 1000000 AS score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY floor(score * 1000000 + 0.5) / 1000000 DESC,
                                       docid) AS rank
    FROM scored
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score,
       (c.n > 25) AS terminated_early
FROM ranked r JOIN cnt c USING (query_id)
WHERE r.rank <= r.k
ORDER BY r.query_id, r.rank
"""
    # analyzed index: the toks CTE passes the SAME stopword/length filters
    # as the engine's AnalyzerConfig; doc_len (dl) counts post-filter tokens
    an_stop = ", ".join(f"'{w}'" for w in _AN_STOPWORDS)
    out["bm25_analyzed"] = f"""
WITH {docs},
toks AS MATERIALIZED (
    SELECT docid, term FROM (
        SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
        FROM docs
    ) WHERE length(term) >= {_AN_MIN_LEN} AND term NOT IN ({an_stop})
),
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k, term FROM (
        SELECT query_id, k,
               unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
        FROM read_parquet('{_queries_path(sf)}')
    ) WHERE length(term) >= {_AN_MIN_LEN} AND term NOT IN ({an_stop})
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # reindex rebuilds from stored fields under the analyzer config — the
    # result must equal a direct analyzed build, i.e. the bm25_analyzed SQL
    out["bm25_reindex"] = out["bm25_analyzed"]
    # synonym blended scoring: each (token + synonyms) group is one
    # pseudo-term — df = max over present members, per-doc tf = summed tf
    syn_vals = ", ".join(
        f"('{t}', '{s}')" for t, syns in sorted(_SYN_TABLE.items()) for s in syns
    )
    out["bm25_synonyms"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
syn AS (SELECT * FROM (VALUES {syn_vals}) AS s(term, syn)),
qt AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS tok
    FROM read_parquet('{_queries_path(sf)}')
),
grp AS (
    SELECT q.query_id, q.k, q.tok,
           list_sort(list_distinct(list_append(
               coalesce(list(s.syn) FILTER (s.syn IS NOT NULL), []), q.tok))) AS members
    FROM qt q LEFT JOIN syn s ON s.term = q.tok
    GROUP BY q.query_id, q.k, q.tok
),
grp2 AS (
    SELECT DISTINCT query_id, k, array_to_string(members, ' ') AS gid, members
    FROM grp
),
memb AS (SELECT query_id, k, gid, unnest(members) AS term FROM grp2),
gtf AS (
    SELECT m.query_id, m.gid, tf.docid, sum(tf.tf)::BIGINT AS tf
    FROM memb m JOIN tf ON tf.term = m.term
    GROUP BY m.query_id, m.gid, tf.docid
),
gdf AS (
    SELECT m.query_id, m.gid, any_value(m.k) AS k, max(df.df)::BIGINT AS df
    FROM memb m JOIN df ON df.term = m.term
    GROUP BY m.query_id, m.gid
),
scored AS (
    SELECT gtf.query_id, any_value(gdf.k) AS k, gtf.docid,
           sum(ln(1 + (s.n_docs - gdf.df + 0.5) / (gdf.df + 0.5))
               * gtf.tf * (1.2 + 1) / (gtf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM gtf
    JOIN gdf ON gdf.query_id = gtf.query_id AND gdf.gid = gtf.gid
    JOIN dl ON dl.docid = gtf.docid
    CROSS JOIN stats s
    GROUP BY gtf.query_id, gtf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # bool.filter on the indexed field: bm25_topk scoring, candidates
    # restricted to docs containing >= 1 filter term (semi-join against the
    # filter terms' postings); empty filter = unrestricted, all-absent
    # filter = no rows
    filterterms_q = _ensure_filterterms_queries(ORACLE_SF_DIR)
    out["bm25_filter_terms"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{filterterms_q}')
),
fq AS (
    SELECT query_id,
           list_distinct(regexp_extract_all(lower(filter_text), '[a-z0-9_]+')) AS fl
    FROM read_parquet('{filterterms_q}')
),
f AS (SELECT query_id, unnest(fl) AS term FROM fq),
allowd AS (SELECT DISTINCT f.query_id, t.docid FROM f JOIN toks t USING (term)),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT sc.query_id, sc.docid, round(sc.score, 6) AS score, sc.k,
           row_number() OVER (PARTITION BY sc.query_id ORDER BY round(sc.score, 6) DESC, sc.docid) AS rank
    FROM scored sc
    JOIN fq ON fq.query_id = sc.query_id
    LEFT JOIN allowd a ON a.query_id = sc.query_id AND a.docid = sc.docid
    WHERE len(fq.fl) = 0 OR a.docid IS NOT NULL
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # match_bool_prefix: BM25 over all-but-last tokens + 1.0 constant on a
    # doc matching any of the first-50 (term-order) prefix expansions;
    # prefix-only docs score 1.0
    boolprefix_q = _ensure_boolprefix_queries(ORACLE_SF_DIR)
    out["bm25_bool_prefix"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
qraw AS (
    SELECT query_id, k, regexp_extract_all(lower(text), '[a-z0-9_]+') AS l
    FROM read_parquet('{boolprefix_q}')
),
qq AS (
    SELECT query_id, k, l[1:len(l) - 1] AS full_l, l[len(l)] AS prefix
    FROM qraw WHERE len(l) > 0
),
qt AS (SELECT query_id, unnest(list_distinct(full_l)) AS term FROM qq),
dict AS (SELECT DISTINCT term FROM tf),
exp AS (
    SELECT query_id, term FROM (
        SELECT qq.query_id, d.term,
               row_number() OVER (PARTITION BY qq.query_id ORDER BY d.term) AS rn
        FROM qq JOIN dict d ON starts_with(d.term, qq.prefix)
    ) WHERE rn <= 50
),
pmatch AS (SELECT DISTINCT e.query_id, t.docid FROM exp e JOIN toks t USING (term)),
scored AS (
    SELECT qt.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS s
    FROM qt
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY qt.query_id, tf.docid
),
comb AS (
    SELECT COALESCE(s.query_id, p.query_id) AS query_id,
           COALESCE(s.docid, p.docid) AS docid,
           COALESCE(s.s, 0) + (CASE WHEN p.docid IS NOT NULL THEN 1.0 ELSE 0.0 END) AS score
    FROM scored s
    FULL OUTER JOIN pmatch p ON s.query_id = p.query_id AND s.docid = p.docid
),
ranked AS (
    SELECT c.query_id, c.docid, round(c.score, 6) AS score,
           row_number() OVER (PARTITION BY c.query_id ORDER BY round(c.score, 6) DESC, c.docid) AS rank
    FROM comb c
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score
FROM ranked r
JOIN (SELECT query_id, k FROM read_parquet('{boolprefix_q}')) kk USING (query_id)
WHERE r.rank <= kk.k
ORDER BY query_id, rank
"""
    # bool.must_not: bm25_topk scoring, candidates minus the docs containing
    # any excluded term (anti-join against the excluded terms' postings)
    mustnot_q = _ensure_mustnot_queries(ORACLE_SF_DIR)
    out["bm25_must_not"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{mustnot_q}')
),
ex AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(exclude_text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{mustnot_q}')
),
dead AS (SELECT DISTINCT e.query_id, t.docid FROM ex e JOIN toks t USING (term)),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT sc.query_id, sc.docid, round(sc.score, 6) AS score, sc.k,
           row_number() OVER (PARTITION BY sc.query_id ORDER BY round(sc.score, 6) DESC, sc.docid) AS rank
    FROM scored sc
    LEFT JOIN dead d ON d.query_id = sc.query_id AND d.docid = sc.docid
    WHERE d.docid IS NULL
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # constant_score: the must_not query set's bool filter in filter
    # context; every surviving doc scores exactly boost=2.5 (top-k = the k
    # smallest matching docids under the score-then-docid total order)
    out["bm25_constant_score"] = f"""
WITH {docs}, {_TOKS},
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{mustnot_q}')
),
ex AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(exclude_text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{mustnot_q}')
),
dead AS (SELECT DISTINCT e.query_id, t.docid FROM ex e JOIN toks t USING (term)),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
alive AS (
    SELECT m.query_id, m.docid
    FROM m ANTI JOIN dead d ON m.query_id = d.query_id AND m.docid = d.docid
),
ranked AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id ORDER BY docid) AS rank
    FROM alive
),
kq AS (SELECT query_id, k FROM read_parquet('{mustnot_q}'))
SELECT r.query_id, r.rank::INT AS rank, r.docid, 2.5::DOUBLE AS score
FROM ranked r JOIN kq USING (query_id)
WHERE r.rank <= kq.k
ORDER BY query_id, rank
"""
    # terms lookup: the term set is the seed doc's first 8 distinct tokens
    # in lexicographic order; constant-score ANY-of-terms; an absent seed
    # docid yields no terms and so no rows
    termslookup_q = _ensure_termslookup_requests(ORACLE_SF_DIR)
    out["bm25_terms_lookup"] = f"""
WITH {docs}, {_TOKS},
req AS (SELECT query_id, lookup_docid, k FROM read_parquet('{termslookup_q}')),
seed AS (
    SELECT r.query_id, r.k,
           list_sort(list_distinct(
               regexp_extract_all(lower(coalesce(d.text, '')), '[a-z0-9_]+')))[1:8] AS terms
    FROM req r LEFT JOIN docs d ON d.docid = r.lookup_docid
),
lk AS (SELECT query_id, unnest(terms) AS term FROM seed),
m AS (SELECT DISTINCT lk.query_id, t.docid FROM lk JOIN toks t USING (term)),
ranked AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id ORDER BY docid) AS rank
    FROM m
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, 1.0::DOUBLE AS score
FROM ranked r JOIN seed USING (query_id)
WHERE r.rank <= seed.k
ORDER BY query_id, rank
"""
    # bucket_selector: per-day buckets of each query's match set with a
    # sum(doc_len) sub-agg; the script is the HAVING over both bucket paths
    out["bm25_bucket_selector"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, date_trunc('day', d.ts) AS key,
       count(*)::BIGINT AS n_docs, sum(coalesce(dl.dl, 0))::BIGINT AS total
FROM m JOIN docs d USING (docid) LEFT JOIN dl USING (docid)
GROUP BY m.query_id, date_trunc('day', d.ts)
HAVING sum(coalesce(dl.dl, 0)) >= 220 AND count(*) >= 2
ORDER BY m.query_id, key
"""
    # search template: the oracle renders the SAME (template, params-JSON)
    # artifact with replace(), then scores the rendered text as bm25_topk
    template_q = _ensure_template_queries(ORACLE_SF_DIR)
    out["bm25_search_template"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
rendered AS (
    SELECT query_id, k,
           replace(replace(template,
                           '{{{{a}}}}', coalesce(json_extract_string(params, '$.a'), '')),
                   '{{{{b}}}}', coalesce(json_extract_string(params, '$.b'), '')) AS text
    FROM read_parquet('{template_q}')
),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM rendered
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # explain: per-term breakdown of every bm25_topk hit — the ranked CTE's
    # top-k pairs joined back to tf/df/dl, one row per matching query term
    out["bm25_explain"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
sel AS (
    SELECT query_id, docid FROM (
        SELECT query_id, docid, k,
               row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
        FROM scored
    ) WHERE rank <= k
)
SELECT s.query_id, s.docid, tf.term, tf.tf, df.df,
       floor(ln(1 + (st.n_docs - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / st.avgdl))
             * 1000000 + 0.5) / 1000000 AS contrib
FROM sel s
JOIN q ON q.query_id = s.query_id
JOIN tf ON tf.term = q.term AND tf.docid = s.docid
JOIN df ON df.term = q.term
JOIN dl ON dl.docid = s.docid
CROSS JOIN stats st
ORDER BY s.query_id, s.docid, tf.term
"""
    # more_like_this: Lucene MLT term selection (tf>=2, df>=5, top-25 by
    # half-up-rounded tf*idf, term-asc tie-break) + BM25 disjunction, the
    # like-doc excluded from its own results
    mlt_docs = ", ".join(str(d) for d in _MLT_DOCS)
    out["bm25_mlt"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
likes AS (SELECT unnest([{mlt_docs}])::BIGINT AS src),
cand AS (
    SELECT tf.docid AS src, tf.term,
           floor(tf.tf * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5)) * 1000000 + 0.5) / 1000000 AS ms
    FROM tf JOIN likes ON tf.docid = likes.src
    JOIN df USING (term)
    CROSS JOIN stats s
    WHERE tf.tf >= 2 AND df.df >= 5
),
sel AS (
    SELECT src, term FROM (
        SELECT src, term,
               row_number() OVER (PARTITION BY src ORDER BY ms DESC, term) AS rn
        FROM cand
    ) WHERE rn <= 25
),
scored AS (
    SELECT sel.src AS query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM sel
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY sel.src, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
    WHERE docid != query_id
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
"""
    # second result page (search_after): ranks 11..20 of the bm25_topk
    # ranking, page size 10 regardless of the query's stored k
    out["bm25_page2"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank > 10 AND rank <= 20
ORDER BY query_id, rank
"""
    # aggregations over each query's FULL match set (OR over query terms):
    # terms facet by role with avg doc_len (integer sum / one float64
    # division, matching the engine's combiner) and a per-day histogram
    out["bm25_facets"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, d.role AS key, count(*)::BIGINT AS n_docs,
       floor((sum(dl.dl)::DOUBLE / count(*)) * 1000000 + 0.5) / 1000000 AS avg_doc_len
FROM m JOIN docs d USING (docid) JOIN dl USING (docid)
GROUP BY m.query_id, d.role
ORDER BY m.query_id, key
"""
    # collapse: one hit (the best rounded-score turn) per conversation,
    # top-k conversations per query
    out["bm25_collapse"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
best AS (
    SELECT sc.query_id, sc.docid, round(sc.score, 6) AS score, sc.k,
           row_number() OVER (PARTITION BY sc.query_id, d.conv_id
                              ORDER BY round(sc.score, 6) DESC, sc.docid) AS rc
    FROM scored sc JOIN docs d USING (docid)
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM best WHERE rc = 1
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # collapse with inner_hits(3): top-k convs by best turn (round6 desc,
    # leader docid asc), each returning its 3 best turns, flattened
    # conv-major; rank numbers the flattened rows
    out["bm25_collapse_hits"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
rows_ AS (
    SELECT sc.query_id, sc.docid, round(sc.score, 6) AS score, sc.k, d.conv_id,
           row_number() OVER (PARTITION BY sc.query_id, d.conv_id
                              ORDER BY round(sc.score, 6) DESC, sc.docid) AS rc
    FROM scored sc JOIN docs d USING (docid)
),
leaders AS (
    SELECT query_id, conv_id, score AS lead_score, docid AS lead_docid, k,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, docid) AS conv_rank
    FROM rows_ WHERE rc = 1
),
flat AS (
    SELECT r.query_id, r.docid, r.score,
           row_number() OVER (PARTITION BY r.query_id
                              ORDER BY l.conv_rank, r.rc) AS rank
    FROM rows_ r
    JOIN leaders l ON l.query_id = r.query_id AND l.conv_id = r.conv_id
    WHERE l.conv_rank <= l.k AND r.rc <= 3
)
SELECT query_id, rank::INT AS rank, docid, score
FROM flat
ORDER BY query_id, rank
"""
    # Gopher-style quality filter decision: the rule thresholds compare on
    # the 6dp-rounded mean word length, identically both sides
    from remote_vector_index_builder_ray.extras.text import STOPWORDS_SMALL

    stop_sql = ", ".join(f"'{w}'" for w in STOPWORDS_SMALL)
    out["quality_filter"] = f"""
WITH t AS MATERIALIZED (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts FROM documents
),
tok AS (SELECT doc_id, unnest(ts) AS term FROM t),
perdoc AS (
    SELECT t.doc_id, len(t.ts)::BIGINT AS n_words,
           coalesce(sum(len(k.term)), 0)::BIGINT AS chars,
           coalesce(sum(CASE WHEN k.term IN ({stop_sql}) THEN 1 ELSE 0 END), 0)::BIGINT AS stop_count
    FROM t LEFT JOIN tok k USING (doc_id)
    GROUP BY t.doc_id, len(t.ts)
),
f AS (
    SELECT doc_id, n_words, stop_count,
           floor(chars::DOUBLE / greatest(n_words, 1)::DOUBLE * 1000000 + 0.5) / 1000000 AS mean_word_len
    FROM perdoc
)
SELECT doc_id, n_words, mean_word_len, stop_count,
       (CASE WHEN n_words >= 10 AND n_words <= 100000
              AND mean_word_len >= 3.0 AND mean_word_len <= 12.0
              AND stop_count >= 2 THEN 1 ELSE 0 END)::BIGINT AS keep
FROM f
ORDER BY doc_id
"""
    # dis_max: max term contribution + 0.3 * residual sum
    out["bm25_dismax"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
contribs AS (
    SELECT q.query_id, q.k, tf.docid,
           ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)) AS c
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
),
scored AS (
    SELECT query_id, any_value(k) AS k, docid,
           max(c) + 0.3 * (sum(c) - max(c)) AS score
    FROM contribs GROUP BY query_id, docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # field-sorted search: top-k of the full match set by (ts desc, docid)
    out["bm25_sorted"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT q.query_id, any_value(q.k) AS k, t.docid
      FROM q JOIN toks t USING (term) GROUP BY q.query_id, t.docid),
ranked AS (
    SELECT m.query_id, m.docid, d.ts, m.k,
           row_number() OVER (PARTITION BY m.query_id ORDER BY d.ts DESC, m.docid) AS rank
    FROM m JOIN docs d USING (docid)
)
SELECT query_id, rank::INT AS rank, docid, ts
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    out["bm25_sorted_after"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT q.query_id, any_value(q.k) AS k, t.docid
      FROM q JOIN toks t USING (term) GROUP BY q.query_id, t.docid),
ranked AS (
    SELECT m.query_id, m.docid, d.ts, m.k,
           row_number() OVER (PARTITION BY m.query_id ORDER BY d.ts DESC, m.docid) AS rank
    FROM m JOIN docs d USING (docid)
)
SELECT query_id, rank::INT AS rank, docid, ts
FROM ranked WHERE rank > k AND rank <= 2 * k
ORDER BY query_id, rank
"""
    out["bm25_range_agg"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id,
       CASE WHEN dl.dl < 16 THEN '*-16'
            WHEN dl.dl < 64 THEN '16-64'
            ELSE '64-*' END AS key,
       count(*)::BIGINT AS n_docs
FROM m JOIN dl USING (docid)
GROUP BY m.query_id, key
ORDER BY m.query_id, key
"""
    out["bm25_stats_agg"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, count(*)::BIGINT AS n_docs,
       sum(dl.dl)::BIGINT AS sum_doc_len,
       min(dl.dl)::BIGINT AS min_doc_len,
       max(dl.dl)::BIGINT AS max_doc_len,
       floor((sum(dl.dl)::DOUBLE / count(*)) * 1000000 + 0.5) / 1000000 AS avg_doc_len
FROM m JOIN dl USING (docid)
GROUP BY m.query_id
ORDER BY m.query_id
"""
    # extended_stats: same match set, plus sum-of-squares / population
    # variance / std. Float derivation order mirrors the engine textually:
    # m = s/n; var = greatest(s2/n - m*m, 0); std = sqrt(var); round half-up.
    out["bm25_extended_stats"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
base AS (
    SELECT m.query_id, count(*)::BIGINT AS n_docs,
           sum(dl.dl)::BIGINT AS s, sum(dl.dl * dl.dl)::BIGINT AS s2
    FROM m JOIN dl USING (docid)
    GROUP BY m.query_id
),
der AS (
    SELECT query_id, n_docs, s, s2,
           s::DOUBLE / n_docs AS mean,
           greatest(s2::DOUBLE / n_docs
                    - (s::DOUBLE / n_docs) * (s::DOUBLE / n_docs), 0) AS var
    FROM base
)
SELECT query_id, n_docs, s AS sum_doc_len, s2 AS sumsq_doc_len,
       floor(mean * 1000000 + 0.5) / 1000000 AS avg_doc_len,
       floor(var * 1000000 + 0.5) / 1000000 AS var_doc_len,
       floor(sqrt(var) * 1000000 + 0.5) / 1000000 AS std_doc_len
FROM der ORDER BY query_id
"""
    # histogram: fixed numeric interval buckets of doc_len, key =
    # floor(v/8)*8, empty buckets omitted
    out["bm25_histogram"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, (dl.dl // 8) * 8 AS key, count(*)::BIGINT AS n_docs
FROM m JOIN dl USING (docid)
GROUP BY m.query_id, key
ORDER BY m.query_id, key
"""
    # missing/value_count over the tool stored field ('' = no tool call)
    out["bm25_missing"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           text, tool
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id,
       sum(CASE WHEN d.tool IS NULL OR d.tool = '' THEN 0 ELSE 1 END)::BIGINT AS n_value,
       sum(CASE WHEN d.tool IS NULL OR d.tool = '' THEN 1 ELSE 0 END)::BIGINT AS n_missing
FROM m JOIN docs d USING (docid)
GROUP BY m.query_id
ORDER BY m.query_id
"""
    # filters / adjacency_matrix: named overlapping predicate buckets over
    # the match set (user role / doc_len>=64 / tool turns); adjacency adds
    # 'a&b' pairwise intersections. Empty buckets omitted on both engines.
    _filters_flags = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           text, role, tool
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
flags AS (
    SELECT m.query_id,
           (d.role = 'user') AS f_user,
           (coalesce(dl.dl, 0) >= 64) AS f_long,
           (d.tool IS NOT NULL AND d.tool != '') AS f_tooled
    FROM m JOIN docs d USING (docid) LEFT JOIN dl USING (docid)
)"""
    _filters_singles = """
SELECT query_id, 'user' AS key, count(*)::BIGINT AS n_docs FROM flags WHERE f_user GROUP BY query_id
UNION ALL
SELECT query_id, 'long', count(*)::BIGINT FROM flags WHERE f_long GROUP BY query_id
UNION ALL
SELECT query_id, 'tooled', count(*)::BIGINT FROM flags WHERE f_tooled GROUP BY query_id"""
    out["bm25_filters"] = (
        _filters_flags + _filters_singles + "\nORDER BY query_id, key"
    )
    out["bm25_filters_other"] = (
        _filters_flags + _filters_singles + """
UNION ALL
SELECT query_id, '_other_', count(*)::BIGINT FROM flags
WHERE NOT f_user AND NOT f_long AND NOT f_tooled GROUP BY query_id
ORDER BY query_id, key"""
    )
    out["bm25_adjacency"] = (
        _filters_flags + _filters_singles + """
UNION ALL
SELECT query_id, 'long&tooled', count(*)::BIGINT FROM flags WHERE f_long AND f_tooled GROUP BY query_id
UNION ALL
SELECT query_id, 'long&user', count(*)::BIGINT FROM flags WHERE f_long AND f_user GROUP BY query_id
UNION ALL
SELECT query_id, 'tooled&user', count(*)::BIGINT FROM flags WHERE f_tooled AND f_user GROUP BY query_id
ORDER BY query_id, key"""
    )
    # string_stats: value-length stats + character-distribution entropy
    out["bm25_string_stats"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           text, tool
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
vals AS (SELECT m.query_id, coalesce(d.tool, '') AS v FROM m JOIN docs d USING (docid)),
base AS (
    SELECT query_id, count(*)::BIGINT AS n_values,
           min(length(v))::BIGINT AS min_len, max(length(v))::BIGINT AS max_len,
           sum(length(v))::BIGINT AS ls
    FROM vals GROUP BY query_id
),
cc AS (
    SELECT query_id, unnest(regexp_extract_all(v, '.')) AS c FROM vals
),
ck AS (SELECT query_id, c, count(*)::BIGINT AS k FROM cc GROUP BY query_id, c),
tot AS (SELECT query_id, sum(k)::DOUBLE AS t FROM ck GROUP BY query_id),
ent AS (
    SELECT ck.query_id, sum(-(ck.k / tt.t) * ln(ck.k / tt.t)) AS e
    FROM ck JOIN tot tt USING (query_id) GROUP BY ck.query_id
)
SELECT b.query_id, b.n_values, b.min_len, b.max_len,
       floor(b.ls::DOUBLE / b.n_values * 1000000 + 0.5) / 1000000 AS avg_len,
       floor(coalesce(e.e, 0) * 1000000 + 0.5) / 1000000 AS entropy
FROM base b LEFT JOIN ent e USING (query_id)
ORDER BY b.query_id
"""
    # rare_terms: match-set terms with corpus df <= 2
    out["bm25_rare_terms"] = f"""
WITH {docs}, {_TOKS},
tm AS MATERIALIZED (
    SELECT docid, unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM docs
),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tm GROUP BY term),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
fg AS (
    SELECT m.query_id, tm.term, count(*)::BIGINT AS fg_docs
    FROM m JOIN tm USING (docid)
    GROUP BY m.query_id, tm.term
)
SELECT fg.query_id, fg.term, fg.fg_docs, df.df AS bg_docs
FROM fg JOIN df USING (term)
WHERE df.df <= 2
ORDER BY query_id, term
"""
    # global agg: whole-index role buckets + avg doc_len, no query
    out["bm25_global_agg"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid)
SELECT d.role AS key, count(*)::BIGINT AS n_docs,
       floor((sum(coalesce(dl.dl, 0))::DOUBLE / count(*)) * 1000000 + 0.5)
           / 1000000 AS avg_doc_len
FROM docs d LEFT JOIN dl USING (docid)
GROUP BY d.role ORDER BY key
"""
    # cardinality: exact distinct conversations per query's match set
    out["bm25_cardinality"] = f"""
WITH {docs}, {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, count(DISTINCT d.conv_id)::BIGINT AS n_distinct
FROM m JOIN docs d USING (docid)
GROUP BY m.query_id
ORDER BY m.query_id
"""
    # percentiles: nearest-rank (value at index ceil(p/100 * n), 1-based) of
    # doc_len over the match set — the smallest value whose cumulative count
    # reaches the target rank
    out["bm25_percentiles"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
counts AS (
    SELECT m.query_id, dl.dl AS value, count(*)::BIGINT AS c
    FROM m JOIN dl USING (docid) GROUP BY 1, 2
),
tot AS (SELECT query_id, sum(c)::BIGINT AS n FROM counts GROUP BY query_id),
cum AS (
    SELECT query_id, value,
           sum(c) OVER (PARTITION BY query_id ORDER BY value) AS cc
    FROM counts
),
pcts AS (SELECT unnest([25, 50, 75, 95, 99]) AS percent),
tgt AS (
    SELECT query_id, percent, ceil(n * percent / 100.0) AS need
    FROM tot CROSS JOIN pcts
)
SELECT t.query_id, t.percent::BIGINT AS percent, min(c.value)::BIGINT AS value
FROM tgt t JOIN cum c ON c.query_id = t.query_id AND c.cc >= t.need
GROUP BY t.query_id, t.percent
ORDER BY t.query_id, t.percent
"""
    # boxplot: min / nearest-rank quartiles / max of doc_len over the match
    # set — same cumulative-count trick as percentiles
    out["bm25_boxplot"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
counts AS (
    SELECT m.query_id, dl.dl AS value, count(*)::BIGINT AS c
    FROM m JOIN dl USING (docid) GROUP BY 1, 2
),
tot AS (SELECT query_id, sum(c)::BIGINT AS n FROM counts GROUP BY query_id),
cum AS (
    SELECT query_id, value,
           sum(c) OVER (PARTITION BY query_id ORDER BY value) AS cc
    FROM counts
),
pcts AS (SELECT unnest([25, 50, 75]) AS percent),
tgt AS (
    SELECT query_id, percent, ceil(n * percent / 100.0) AS need
    FROM tot CROSS JOIN pcts
),
quart AS (
    SELECT t.query_id, t.percent, min(c.value)::BIGINT AS value
    FROM tgt t JOIN cum c ON c.query_id = t.query_id AND c.cc >= t.need
    GROUP BY t.query_id, t.percent
),
ext AS (
    SELECT query_id, min(value)::BIGINT AS vmin, max(value)::BIGINT AS vmax
    FROM counts GROUP BY query_id
)
SELECT e.query_id, e.vmin AS "min",
       max(CASE WHEN q1.percent = 25 THEN q1.value END)::BIGINT AS q1,
       max(CASE WHEN q1.percent = 50 THEN q1.value END)::BIGINT AS q2,
       max(CASE WHEN q1.percent = 75 THEN q1.value END)::BIGINT AS q3,
       e.vmax AS "max"
FROM ext e JOIN quart q1 USING (query_id)
GROUP BY e.query_id, e.vmin, e.vmax
ORDER BY e.query_id
"""
    # median_absolute_deviation: nearest-rank median of |v - median(v)|,
    # the deviation histogram folded from the value histogram
    out["bm25_mad"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
counts AS MATERIALIZED (
    SELECT m.query_id, dl.dl AS value, count(*)::BIGINT AS c
    FROM m JOIN dl USING (docid) GROUP BY 1, 2
),
tot AS (SELECT query_id, sum(c)::BIGINT AS n FROM counts GROUP BY query_id),
cum AS (
    SELECT query_id, value,
           sum(c) OVER (PARTITION BY query_id ORDER BY value) AS cc
    FROM counts
),
med AS (
    SELECT t.query_id, min(c.value)::BIGINT AS med
    FROM tot t JOIN cum c ON c.query_id = t.query_id
                         AND c.cc >= ceil(t.n * 50 / 100.0)
    GROUP BY t.query_id
),
dev AS (
    SELECT c.query_id, abs(c.value - m.med) AS d, sum(c.c)::BIGINT AS c
    FROM counts c JOIN med m USING (query_id) GROUP BY 1, 2
),
dtot AS (SELECT query_id, sum(c)::BIGINT AS n FROM dev GROUP BY query_id),
dcum AS (
    SELECT query_id, d,
           sum(c) OVER (PARTITION BY query_id ORDER BY d) AS cc
    FROM dev
),
dmed AS (
    SELECT t.query_id, min(c.d)::BIGINT AS mad
    FROM dtot t JOIN dcum c ON c.query_id = t.query_id
                           AND c.cc >= ceil(t.n * 50 / 100.0)
    GROUP BY t.query_id
)
SELECT m.query_id, m.med AS median, d.mad
FROM med m JOIN dmed d USING (query_id)
ORDER BY m.query_id
"""
    # t_test (Welch's unpaired, heteroscedastic): doc_len of role=user vs
    # role=assistant within the match set; float derivation textually
    # mirrors the engine — m = s/n; var = (s2 - n*m*m)/(n-1);
    # t = (ma - mb)/sqrt(va/na + vb/nb); round half-up 6dp
    out["bm25_t_test"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
pop AS (
    SELECT m.query_id,
           CASE WHEN d.role = 'user' THEN 0 ELSE 1 END AS grp,
           dl.dl AS v
    FROM m JOIN docs d USING (docid) JOIN dl USING (docid)
    WHERE d.role IN ('user', 'assistant')
),
st AS (
    SELECT query_id, grp, count(*)::BIGINT AS n, sum(v)::BIGINT AS s,
           sum(v * v)::BIGINT AS s2
    FROM pop GROUP BY 1, 2
),
piv AS (
    SELECT a.query_id, a.n AS n_a, b.n AS n_b,
           a.s::DOUBLE / a.n AS ma, b.s::DOUBLE / b.n AS mb,
           (a.s2::DOUBLE - a.n * (a.s::DOUBLE / a.n) * (a.s::DOUBLE / a.n)) / (a.n - 1) AS va,
           (b.s2::DOUBLE - b.n * (b.s::DOUBLE / b.n) * (b.s::DOUBLE / b.n)) / (b.n - 1) AS vb
    FROM st a JOIN st b ON a.query_id = b.query_id AND a.grp = 0 AND b.grp = 1
    WHERE a.n >= 2 AND b.n >= 2
)
SELECT query_id, n_a, n_b,
       floor(((ma - mb) / sqrt(va / n_a + vb / n_b)) * 1000000 + 0.5)
           / 1000000 AS t
FROM piv
WHERE sqrt(va / n_a + vb / n_b) <> 0
ORDER BY query_id
"""
    # rate (unit=day) under a fixed_interval=7d date_histogram: per-day doc
    # and doc_len-sum rates per epoch-anchored 7-day bucket
    out["bm25_rate"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id,
       make_timestamp((epoch_us(d.ts) // 604800000000::BIGINT)
                      * 604800000000::BIGINT) AS key,
       floor((count(*)::DOUBLE / 7) * 1000000 + 0.5) / 1000000 AS rate_docs,
       floor((sum(dl.dl)::DOUBLE / 7) * 1000000 + 0.5) / 1000000 AS rate_sum
FROM m JOIN docs d USING (docid) JOIN dl USING (docid)
GROUP BY 1, 2
ORDER BY m.query_id, key
"""
    # top_hits under terms(role): 2 best BM25 hits per (query, role) by
    # (half-up-rounded score desc, docid asc)
    # alternative similarity modules: same scored-rank shell as bm25_topk
    # with the per-(term, doc) contribution swapped (functions/bm25.sim_contrib)
    def _sim_sql(contrib: str) -> str:
        return f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS cf FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum({contrib}) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""

    # terms agg ordered by sub-aggregation: the facets reduce, permuted by
    # (avg_doc_len desc, key asc) with an explicit bucket rank, top 3
    out["bm25_terms_by_metric"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
agg AS (
    SELECT m.query_id, d.role AS key, count(*)::BIGINT AS n_docs,
           floor((sum(dl.dl)::DOUBLE / count(*)) * 1000000 + 0.5) / 1000000 AS avg_doc_len
    FROM m JOIN docs d USING (docid) JOIN dl USING (docid)
    GROUP BY m.query_id, d.role
),
ranked AS (
    SELECT query_id, key, n_docs, avg_doc_len,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY avg_doc_len DESC, key) AS rank
    FROM agg
)
SELECT query_id, rank::INT AS rank, key, n_docs, avg_doc_len
FROM ranked WHERE rank <= 3
ORDER BY query_id, rank
"""
    # script_fields: the bm25_topk shell + a per-hit computed doc-value field
    out["bm25_script_fields"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score,
       (dl.dl * 2 + d.turn_idx)::BIGINT AS script_val
FROM ranked r JOIN docs d ON r.docid = d.docid JOIN dl ON r.docid = dl.docid
WHERE r.rank <= r.k
ORDER BY r.query_id, r.rank
"""
    # named queries: the bm25_topk shell + per-clause EXISTS membership over
    # the hit docids ('first_term' = the query's first token, 'stopword_the'
    # = the literal term 'the'); matched_queries joins the names sorted
    out["bm25_named"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
qt AS MATERIALIZED (
    SELECT query_id, k,
           regexp_extract(lower(text), '[a-z0-9_]+') AS first_term
    FROM read_parquet('{_queries_path(sf)}')
),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score,
       concat_ws(',',
           CASE WHEN qt.first_term IS NOT NULL AND qt.first_term <> '' AND EXISTS (
               SELECT 1 FROM tf WHERE tf.docid = r.docid AND tf.term = qt.first_term
           ) THEN 'first_term' END,
           CASE WHEN EXISTS (
               SELECT 1 FROM tf WHERE tf.docid = r.docid AND tf.term = 'the'
           ) THEN 'stopword_the' END
       ) AS matched_queries
FROM ranked r JOIN qt USING (query_id)
WHERE r.rank <= r.k
ORDER BY r.query_id, r.rank
"""
    # scroll: the bm25_topk shell at k=20 with a 10-row page number
    out["bm25_scroll"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, ((rank - 1) // 10 + 1)::INT AS page, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= 20
ORDER BY query_id, rank
"""
    # minimal_english stemmer: the bm25_topk shell with every token (docs AND
    # queries) run through Lucene EnglishMinimalStemFilter's rule
    _stem = ("CASE WHEN length({x}) >= 3 AND {x} LIKE '%s' "
             "AND substr({x}, length({x}) - 1, 1) NOT IN ('s', 'u') "
             "THEN substr({x}, 1, length({x}) - 1) ELSE {x} END")
    out["bm25_stemmed"] = f"""
WITH {docs},
toks AS MATERIALIZED (
    SELECT docid, {_stem.format(x='t.tok')} AS term
    FROM (
        SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
        FROM docs
    ) t
),
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct([{_stem.format(x='qt')}
                                 FOR qt IN regexp_extract_all(lower(text), '[a-z0-9_]+')])) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # Harman S-stemmer: longest-suffix dispatch, exception words unchanged —
    # the exact CASE mirror of functions/tokenizer._stem_s
    _sstem = (
        "CASE WHEN length({x}) >= 3 AND {x} LIKE '%ies' THEN "
        "(CASE WHEN {x} LIKE '%eies' OR {x} LIKE '%aies' THEN {x} "
        "ELSE substr({x}, 1, length({x}) - 3) || 'y' END) "
        "WHEN length({x}) >= 3 AND {x} LIKE '%es' THEN "
        "(CASE WHEN {x} LIKE '%aes' OR {x} LIKE '%ees' OR {x} LIKE '%oes' "
        "THEN {x} ELSE substr({x}, 1, length({x}) - 1) END) "
        "WHEN length({x}) >= 3 AND {x} LIKE '%s' THEN "
        "(CASE WHEN {x} LIKE '%us' OR {x} LIKE '%ss' THEN {x} "
        "ELSE substr({x}, 1, length({x}) - 1) END) "
        "ELSE {x} END")
    out["bm25_sstemmed"] = f"""
WITH {docs},
toks AS MATERIALIZED (
    SELECT docid, {_sstem.format(x='t.tok')} AS term
    FROM (
        SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS tok
        FROM docs
    ) t
),
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct([{_sstem.format(x='qt')}
                                 FOR qt IN regexp_extract_all(lower(text), '[a-z0-9_]+')])) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # significant_text (filter_duplicate_text): sig_terms with the foreground
    # deduped to one doc per (query, exact text) — canonical copy = min docid
    out["bm25_sig_text"] = f"""
WITH {docs}, {_TOKS},
tset AS MATERIALIZED (SELECT DISTINCT docid, term FROM toks),
bg AS MATERIALIZED (SELECT term, count(*)::BIGINT AS bg FROM tset GROUP BY term),
nn AS (SELECT count(*)::DOUBLE AS n FROM docs),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
md AS (
    SELECT m.query_id, min(m.docid) AS docid
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, d.text
),
fgt AS (SELECT query_id, count(*)::DOUBLE AS f FROM md GROUP BY query_id),
fg AS (
    SELECT md.query_id, ts.term, count(*)::BIGINT AS fg
    FROM md JOIN tset ts USING (docid) GROUP BY 1, 2
),
scored AS (
    SELECT fg.query_id, fg.term, fg.fg, bg.bg,
           floor(((fg.fg / fgt.f) - (bg.bg / nn.n))
                 * ((fg.fg / fgt.f) / (bg.bg / nn.n)) * 1000000 + 0.5) / 1000000 AS score
    FROM fg JOIN bg USING (term) JOIN fgt USING (query_id) CROSS JOIN nn
),
ranked AS (
    SELECT query_id, term, fg, bg, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, term) AS r
    FROM scored
)
SELECT query_id, term, fg AS fg_docs, bg AS bg_docs, score
FROM ranked WHERE r <= 10
ORDER BY query_id, r
"""
    # PIT: the oracle is a from-scratch BM25 over the base half (part_a) with
    # part_a's OWN stats — exactly the index state the PIT pins
    part_a_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_split", "part_a.parquet")
    out["bm25_pit"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text
    FROM read_parquet('{part_a_pq}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    out["substring_dup_docs"] = """
WITH t AS MATERIALIZED (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM documents
),
w AS MATERIALIZED (
    SELECT doc_id, r.i AS pos, array_to_string(ts[r.i:r.i+7], ' ') AS win
    FROM t, LATERAL (SELECT unnest(range(1, len(ts) - 8 + 2)) AS i) r
    WHERE len(ts) >= 8
),
marked AS (
    SELECT doc_id,
           row_number() OVER (PARTITION BY win ORDER BY doc_id, pos) AS rn
    FROM w
),
agg AS (
    SELECT doc_id, count(*)::BIGINT AS n_windows,
           sum(CASE WHEN rn > 1 THEN 1 ELSE 0 END)::BIGINT AS dup_windows
    FROM marked GROUP BY doc_id
)
SELECT doc_id, n_windows, dup_windows,
       floor(dup_windows::DOUBLE / n_windows * 1000000 + 0.5) / 1000000 AS dup_fraction
FROM agg ORDER BY doc_id
"""
    out["tfidf_topk"] = _sim_sql(
        "(1 + ln(s.n_docs / (df.df + 1.0))) * (1 + ln(s.n_docs / (df.df + 1.0)))"
        " * sqrt(tf.tf) / sqrt(greatest(dl.dl, 1))"
    )
    out["lmd_topk"] = _sim_sql(
        "greatest(0, ln(1 + tf.tf / (2000.0 * (df.cf / s.total_len)))"
        " + ln(2000.0) - ln(dl.dl + 2000.0))"
    )
    out["lmjm_topk"] = _sim_sql(
        "ln(1 + ((1 - 0.1) * tf.tf / greatest(dl.dl, 1))"
        " / (0.1 * (df.cf / s.total_len)))"
    )
    # BooleanSimilarity: 1.0 per distinct matched term (q dedupes terms, so
    # the sum IS the distinct-matched-term count)
    out["bool_sim_topk"] = _sim_sql("1.0")
    # DFR InL2: tfn * log2((N+1)/(df+0.5)) / (tfn+1),
    # tfn = tf * log2(1 + avgdl/dl) — same op order as sim_contrib
    out["dfr_topk"] = _sim_sql(
        "(tf.tf * log2(1 + (s.total_len / s.n_docs) / dl.dl))"
        " * log2((s.n_docs + 1) / (df.df + 0.5))"
        " / ((tf.tf * log2(1 + (s.total_len / s.n_docs) / dl.dl)) + 1)"
    )
    # IB LL-DF-H2: ln(1 + tfn/λ), λ = (df+1)/(N+1),
    # tfn = tf * log2(1 + avgdl/dl)
    out["ib_topk"] = _sim_sql(
        "ln(1 + (tf.tf * log2(1 + (s.total_len / s.n_docs) / dl.dl))"
        " / ((df.df + 1.0) / (s.n_docs + 1.0)))"
    )
    # DFI (standardized independence): expected = (cf+1)*dl/(total_len+1);
    # contribution 0 at-or-below expectation, else
    # log2(1 + (tf-expected)/sqrt(expected))
    out["dfi_topk"] = _sim_sql(
        "CASE WHEN tf.tf <= ((df.cf + 1.0) * dl.dl / (s.total_len + 1.0))"
        " THEN 0.0"
        " ELSE log2(1 + (tf.tf - ((df.cf + 1.0) * dl.dl / (s.total_len + 1.0)))"
        " / sqrt((df.cf + 1.0) * dl.dl / (s.total_len + 1.0))) END"
    )
    # scripted similarity: the painless-analog expression transcribed
    # verbatim (same op order → bit-equal float64 before the round)
    out["scripted_sim_topk"] = _sim_sql(
        "sqrt(tf.tf) * (ln((s.n_docs + 1.0) / (df.df + 1.0)) + 1.0)"
        " * (1.0 / sqrt(dl.dl))"
    )
    # has_child / has_parent: the conversation hierarchy IS the join field —
    # scores group by conv_id (child query) or flow parent -> children
    out["bm25_has_child"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
conv AS (
    SELECT sc.query_id, d.conv_id,
           max(floor(sc.score * 1000000 + 0.5) / 1000000) AS score,
           count(*)::BIGINT AS n_matching
    FROM scored sc JOIN docs d USING (docid)
    GROUP BY 1, 2
),
ranked AS (
    SELECT query_id, conv_id, score, n_matching,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, conv_id) AS rank
    FROM conv
)
SELECT query_id, rank::INT AS rank, conv_id, score, n_matching
FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
"""
    # has_child score_mode=min + min_children=2: conversations ranked by
    # their WORST matching turn, needing >= 2 matching turns
    out["bm25_has_child_min"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
conv AS (
    SELECT sc.query_id, d.conv_id,
           min(floor(sc.score * 1000000 + 0.5) / 1000000) AS score,
           count(*)::BIGINT AS n_matching
    FROM scored sc JOIN docs d USING (docid)
    GROUP BY 1, 2
    HAVING count(*) >= 2
),
ranked AS (
    SELECT query_id, conv_id, score, n_matching,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, conv_id) AS rank
    FROM conv
)
SELECT query_id, rank::INT AS rank, conv_id, score, n_matching
FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
"""
    out["bm25_has_parent"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
parents AS (
    SELECT sc.query_id, d.conv_id,
           floor(sc.score * 1000000 + 0.5) / 1000000 AS score,
           row_number() OVER (PARTITION BY sc.query_id
                              ORDER BY floor(sc.score * 1000000 + 0.5) / 1000000 DESC,
                                       sc.docid) AS rank
    FROM scored sc JOIN docs d USING (docid)
    WHERE d.turn_idx = 0
),
top_parents AS (SELECT query_id, conv_id, score FROM parents WHERE rank <= 3)
SELECT p.query_id, d.conv_id, d.turn_idx::INT AS turn_idx, d.docid, p.score
FROM top_parents p JOIN docs d ON d.conv_id = p.conv_id AND d.turn_idx > 0
ORDER BY p.query_id, p.score DESC, d.conv_id, d.turn_idx
"""
    out["bm25_top_hits"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
lab AS (
    SELECT sc.query_id, d.role AS key, sc.docid,
           floor(sc.score * 1000000 + 0.5) / 1000000 AS score
    FROM scored sc JOIN docs d USING (docid)
),
ranked AS (
    SELECT query_id, key, docid, score,
           row_number() OVER (PARTITION BY query_id, key
                              ORDER BY score DESC, docid) AS rank
    FROM lab
)
SELECT query_id, key, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= 2
ORDER BY query_id, key, rank
"""
    # multi_match best_fields over (text, tool): per-field BM25 with each
    # field's OWN corpus stats (dl/avgdl/df per field, N shared), combined
    # per doc as max + 0.3 * (sum - max); mixed-field queries from the
    # persisted artifact
    mm_q_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_mm_queries.parquet")
    out["bm25_multi_match"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           text, tool
    FROM read_parquet('{_transcripts_glob(sf)}')
),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
tx AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term FROM docs
),
tl AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(tool), '[a-z0-9_]+')) AS term FROM docs
),
tf_x AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM tx GROUP BY 1, 2),
tf_l AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM tl GROUP BY 1, 2),
dl_x AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM tx GROUP BY docid),
dl_l AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM tl GROUP BY docid),
df_x AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf_x GROUP BY term),
df_l AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf_l GROUP BY term),
st_x AS (SELECT n.n_docs, (SELECT count(*) FROM tx)::DOUBLE / n.n_docs AS avgdl FROM ndocs n),
st_l AS (SELECT n.n_docs, (SELECT count(*) FROM tl)::DOUBLE / n.n_docs AS avgdl FROM ndocs n),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{mm_q_pq}')
),
sc_x AS (
    SELECT q.query_id, any_value(q.k) AS k, t.docid,
           sum(ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
               * t.tf * (1.2 + 1) / (t.tf + 1.2 * (1 - 0.75 + 0.75 * l.dl / s.avgdl))) AS score
    FROM q JOIN tf_x t USING (term) JOIN df_x d USING (term)
    JOIN dl_x l ON t.docid = l.docid CROSS JOIN st_x s
    GROUP BY q.query_id, t.docid
),
sc_l AS (
    SELECT q.query_id, any_value(q.k) AS k, t.docid,
           sum(ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
               * t.tf * (1.2 + 1) / (t.tf + 1.2 * (1 - 0.75 + 0.75 * l.dl / s.avgdl))) AS score
    FROM q JOIN tf_l t USING (term) JOIN df_l d USING (term)
    JOIN dl_l l ON t.docid = l.docid CROSS JOIN st_l s
    GROUP BY q.query_id, t.docid
),
u AS (
    SELECT query_id, k, docid, score FROM sc_x
    UNION ALL
    SELECT query_id, k, docid, score FROM sc_l
),
comb AS (
    SELECT query_id, any_value(k) AS k, docid,
           floor((max(score) + 0.3 * (sum(score) - max(score))) * 1000000 + 0.5)
               / 1000000 AS score
    FROM u GROUP BY query_id, docid
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, docid) AS rank
    FROM comb
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # most_fields: the same per-field legs, scores summed
    out["bm25_most_fields"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           text, tool
    FROM read_parquet('{_transcripts_glob(sf)}')
),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
tx AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term FROM docs
),
tl AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(tool), '[a-z0-9_]+')) AS term FROM docs
),
tf_x AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM tx GROUP BY 1, 2),
tf_l AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM tl GROUP BY 1, 2),
dl_x AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM tx GROUP BY docid),
dl_l AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM tl GROUP BY docid),
df_x AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf_x GROUP BY term),
df_l AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf_l GROUP BY term),
st_x AS (SELECT n.n_docs, (SELECT count(*) FROM tx)::DOUBLE / n.n_docs AS avgdl FROM ndocs n),
st_l AS (SELECT n.n_docs, (SELECT count(*) FROM tl)::DOUBLE / n.n_docs AS avgdl FROM ndocs n),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{mm_q_pq}')
),
sc_x AS (
    SELECT q.query_id, any_value(q.k) AS k, t.docid,
           sum(ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
               * t.tf * (1.2 + 1) / (t.tf + 1.2 * (1 - 0.75 + 0.75 * l.dl / s.avgdl))) AS score
    FROM q JOIN tf_x t USING (term) JOIN df_x d USING (term)
    JOIN dl_x l ON t.docid = l.docid CROSS JOIN st_x s
    GROUP BY q.query_id, t.docid
),
sc_l AS (
    SELECT q.query_id, any_value(q.k) AS k, t.docid,
           sum(ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
               * t.tf * (1.2 + 1) / (t.tf + 1.2 * (1 - 0.75 + 0.75 * l.dl / s.avgdl))) AS score
    FROM q JOIN tf_l t USING (term) JOIN df_l d USING (term)
    JOIN dl_l l ON t.docid = l.docid CROSS JOIN st_l s
    GROUP BY q.query_id, t.docid
),
u AS (
    SELECT query_id, k, docid, score FROM sc_x
    UNION ALL
    SELECT query_id, k, docid, score FROM sc_l
),
comb AS (
    SELECT query_id, any_value(k) AS k, docid,
           floor(sum(score) * 1000000 + 0.5) / 1000000 AS score
    FROM u GROUP BY query_id, docid
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, docid) AS rank
    FROM comb
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # cross_fields (term-centric blend): per term, df = greatest over the
    # fields' dfs; each field's leg is the raw tf saturation under that
    # field's norms; legs combine max + 0.25 * (sum - max); the blended idf
    # multiplies; terms sum (pipelines/query.search_cross_fields)
    # combined_fields (BM25F): tf_c = tf_text + 2*tf_tool combined FIRST,
    # one saturation against combined length norms, idf over the exact
    # union document frequency
    out["bm25_combined_fields"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           text, tool
    FROM read_parquet('{_transcripts_glob(sf)}')
),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
tx AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term FROM docs
),
tl AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(tool), '[a-z0-9_]+')) AS term FROM docs
),
tf_x AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM tx GROUP BY 1, 2),
tf_l AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM tl GROUP BY 1, 2),
dl_x AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM tx GROUP BY docid),
dl_l AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM tl GROUP BY docid),
stc AS (
    SELECT n.n_docs,
           ((SELECT count(*) FROM tx) + 2 * (SELECT count(*) FROM tl))::DOUBLE
               / n.n_docs AS avgdl
    FROM ndocs n
),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{mm_q_pq}')
),
u AS (
    SELECT q.query_id, q.term, q.k, t.docid, t.tf AS tfx, 0::BIGINT AS tfl
    FROM q JOIN tf_x t USING (term)
    UNION ALL
    SELECT q.query_id, q.term, q.k, t.docid, 0::BIGINT, t.tf
    FROM q JOIN tf_l t USING (term)
),
tfc AS (
    SELECT query_id, term, any_value(k) AS k, docid,
           (sum(tfx) + 2 * sum(tfl))::DOUBLE AS tf_c
    FROM u GROUP BY query_id, term, docid
),
dfu AS (SELECT query_id, term, count(*)::BIGINT AS dfu FROM tfc GROUP BY query_id, term),
dlc AS (
    SELECT d.docid,
           (coalesce(x.dl, 0) + 2 * coalesce(l.dl, 0))::DOUBLE AS dl_c
    FROM docs d LEFT JOIN dl_x x USING (docid) LEFT JOIN dl_l l USING (docid)
),
contrib AS (
    SELECT t.query_id, t.docid, t.k,
           ln(1 + (n.n_docs - f.dfu + 0.5) / (f.dfu + 0.5))
               * t.tf_c * (1.2 + 1)
               / (t.tf_c + 1.2 * (1 - 0.75 + 0.75 * c.dl_c / s.avgdl)) AS c
    FROM tfc t
    JOIN dfu f ON t.query_id = f.query_id AND t.term = f.term
    JOIN dlc c ON t.docid = c.docid
    CROSS JOIN ndocs n CROSS JOIN stc s
),
scored AS (
    SELECT query_id, docid, any_value(k) AS k,
           floor(sum(c) * 1000000 + 0.5) / 1000000 AS score
    FROM contrib GROUP BY query_id, docid
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    out["bm25_cross_fields"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           text, tool
    FROM read_parquet('{_transcripts_glob(sf)}')
),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
tx AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term FROM docs
),
tl AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(tool), '[a-z0-9_]+')) AS term FROM docs
),
tf_x AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM tx GROUP BY 1, 2),
tf_l AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM tl GROUP BY 1, 2),
dl_x AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM tx GROUP BY docid),
dl_l AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM tl GROUP BY docid),
df_x AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf_x GROUP BY term),
df_l AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf_l GROUP BY term),
st_x AS (SELECT n.n_docs, (SELECT count(*) FROM tx)::DOUBLE / n.n_docs AS avgdl FROM ndocs n),
st_l AS (SELECT n.n_docs, (SELECT count(*) FROM tl)::DOUBLE / n.n_docs AS avgdl FROM ndocs n),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{mm_q_pq}')
),
dfb AS (
    SELECT q.query_id, q.term, q.k,
           greatest(coalesce(x.df, 0), coalesce(l.df, 0)) AS dfb
    FROM q LEFT JOIN df_x x USING (term) LEFT JOIN df_l l USING (term)
),
tfn_x AS (
    SELECT q.query_id, q.term, t.docid,
           t.tf * (1.2 + 1) / (t.tf + 1.2 * (1 - 0.75 + 0.75 * l.dl / s.avgdl)) AS tfn
    FROM q JOIN tf_x t USING (term)
    JOIN dl_x l ON t.docid = l.docid CROSS JOIN st_x s
),
tfn_l AS (
    SELECT q.query_id, q.term, t.docid,
           t.tf * (1.2 + 1) / (t.tf + 1.2 * (1 - 0.75 + 0.75 * l.dl / s.avgdl)) AS tfn
    FROM q JOIN tf_l t USING (term)
    JOIN dl_l l ON t.docid = l.docid CROSS JOIN st_l s
),
u AS (
    SELECT query_id, term, docid, tfn FROM tfn_x
    UNION ALL
    SELECT query_id, term, docid, tfn FROM tfn_l
),
blend AS (
    SELECT query_id, term, docid, max(tfn) AS mx, sum(tfn) AS sm
    FROM u GROUP BY query_id, term, docid
),
contrib AS (
    SELECT b.query_id, b.docid, d.k,
           ln(1 + (n.n_docs - d.dfb + 0.5) / (d.dfb + 0.5))
               * (b.mx + 0.25 * (b.sm - b.mx)) AS c
    FROM blend b
    JOIN dfb d ON b.query_id = d.query_id AND b.term = d.term
    CROSS JOIN ndocs n
),
scored AS (
    SELECT query_id, docid, any_value(k) AS k,
           floor(sum(c) * 1000000 + 0.5) / 1000000 AS score
    FROM contrib GROUP BY query_id, docid
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # match_phrase_prefix (constant score): the trailing token is a prefix;
    # its first 50 dictionary completions (term order — Lucene's
    # max_expansions cap) each complete the phrase; a doc matches when any
    # completed phrase occurs consecutively
    pp_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_pp_queries.parquet")
    out["bm25_phrase_prefix"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
tm AS MATERIALIZED (SELECT docid, unnest(list_distinct(ts)) AS term FROM docs),
dict AS MATERIALIZED (SELECT DISTINCT term FROM tm),
q AS MATERIALIZED (
    SELECT query_id, k, regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{pp_pq}')
    WHERE len(regexp_extract_all(lower(text), '[a-z0-9_]+')) > 0
),
exp AS (
    SELECT q.query_id, q.k, q.p, d.term,
           row_number() OVER (PARTITION BY q.query_id ORDER BY d.term) AS rn
    FROM q JOIN dict d ON starts_with(d.term, q.p[len(q.p)])
),
fp AS (
    SELECT query_id, k, list_append(p[1:len(p) - 1], term) AS fp
    FROM exp WHERE rn <= 50
),
cand AS (
    SELECT DISTINCT f.query_id, f.fp, t.docid
    FROM fp f JOIN tm t ON t.term = f.fp[1]
),
m AS (
    SELECT DISTINCT c.query_id, c.docid
    FROM cand c JOIN docs d USING (docid)
    WHERE len(d.ts) >= len(c.fp)
      AND len([i FOR i IN range(1, len(d.ts) - len(c.fp) + 2)
               IF d.ts[i:i + len(c.fp) - 1] = c.fp]) > 0
),
ranked AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id ORDER BY docid) AS rank
    FROM m
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, 1.0::DOUBLE AS score
FROM ranked r JOIN (SELECT query_id, any_value(k) AS k FROM q GROUP BY query_id) qq
  USING (query_id)
WHERE r.rank <= qq.k
ORDER BY r.query_id, r.rank
"""
    # function_score field_value_factor(log1p doc_len): BM25 x ln(1 + dl)
    out["bm25_func_score"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
boosted AS (
    SELECT sc.query_id, sc.k, sc.docid,
           floor(sc.score * ln(1 + dl.dl) * 1000000 + 0.5) / 1000000 AS score
    FROM scored sc JOIN dl ON sc.docid = dl.docid
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM boosted
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # random_score(seed=7): BM25 x explicit-LCG multiplier in [0,1) —
    # ((docid % 2^31) * 1103515245 + 7) % 2^31 / 2^31, exact BIGINT math
    out["bm25_random_score"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
boosted AS (
    SELECT query_id, k, docid,
           floor(score * ((((docid % 2147483648) * 1103515245 + 7) % 2147483648)
                          / 2147483648.0) * 1000000 + 0.5) / 1000000 AS score
    FROM scored
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM boosted
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # script_score: the engine's AST-validated expression transcribed
    # verbatim — _score * (1.0 + v / 256.0) with v = doc_len
    out["bm25_script_score"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
boosted AS (
    SELECT sc.query_id, sc.k, sc.docid,
           floor((sc.score * (1.0 + dl.dl / 256.0)) * 1000000 + 0.5) / 1000000 AS score
    FROM scored sc JOIN dl ON sc.docid = dl.docid
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM boosted
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # rank_feature (saturation): BM25 + 1.5 * dl / (dl + 40.0) — additive
    # FeatureQuery contribution, the same float ops as query._func_score
    out["bm25_rank_feature"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
boosted AS (
    SELECT sc.query_id, sc.k, sc.docid,
           floor((sc.score + 1.5 * (dl.dl / (dl.dl + 40.0))) * 1000000 + 0.5) / 1000000 AS score
    FROM scored sc JOIN dl ON sc.docid = dl.docid
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM boosted
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # rank_feature log / sigmoid: same scaffold, the additive feature
    # contribution swapped (asserted replaces)
    _rf_sat = "1.5 * (dl.dl / (dl.dl + 40.0))"
    _rf_log = "1.5 * ln(1 + dl.dl / 10.0)"
    _rf_sig = "1.5 * ((dl.dl * dl.dl) / (dl.dl * dl.dl + 40.0 * 40.0))"
    assert out["bm25_rank_feature"].count(_rf_sat) == 1
    out["bm25_rank_feature_log"] = out["bm25_rank_feature"].replace(
        _rf_sat, _rf_log)
    out["bm25_rank_feature_sigmoid"] = out["bm25_rank_feature"].replace(
        _rf_sat, _rf_sig)
    # per-term caret boosts: contribution = (boost * idf) * tfnorm; the SQL
    # parses the exact caret markup the engine parses (tokens are unique per
    # query by construction, so boost assignment is unambiguous)
    boost_q = _ensure_boost_queries(ORACLE_SF_DIR)
    out["bm25_term_boosts"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
chunks AS (
    SELECT query_id, k, unnest(string_split(text, ' ')) AS chunk
    FROM read_parquet('{boost_q}')
),
q AS (
    SELECT query_id, k,
           regexp_extract(chunk, '^([a-z0-9_]+)', 1) AS term,
           CASE WHEN chunk LIKE '%^%'
                THEN regexp_extract(chunk, '\\^(\\d+(?:\\.\\d+)?)$', 1)::DOUBLE
                ELSE 1.0 END AS w
    FROM chunks WHERE len(chunk) > 0
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum((q.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5)))
               * (tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, k,
           floor(score * 1000000 + 0.5) / 1000000 AS score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY floor(score * 1000000 + 0.5) / 1000000 DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # terms_set (CoveringQuery): a doc qualifies when its distinct-matched
    # count >= 1 + (dl % 2); score = BM25 sum over the matching clauses
    out["bm25_terms_set"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           count(*)::BIGINT AS hits,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
kept AS (
    SELECT sc.query_id, sc.k, sc.docid,
           floor(sc.score * 1000000 + 0.5) / 1000000 AS score
    FROM scored sc JOIN dl ON sc.docid = dl.docid
    WHERE sc.hits >= greatest(1 + (dl.dl % 2), 1)
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM kept
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # sliced scroll: candidates restricted to docid % 3 == query_id % 3,
    # scores unchanged, ranked within the slice
    out["bm25_sliced"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           floor(sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)))
               * 1000000 + 0.5) / 1000000 AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    WHERE tf.docid % 3 = q.query_id % 3
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # span_or: freq = Σ tfs over the query's distinct PRESENT terms, scored
    # (Σ idf over present terms) * tfnorm(freq, dl)
    out["bm25_span_or"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{phrase_pq}')
),
qidf AS (
    SELECT q.query_id, sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum
    FROM q JOIN df USING (term) CROSS JOIN stats s
    GROUP BY q.query_id
),
stf AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid, sum(tf.tf)::BIGINT AS freq
    FROM q JOIN tf USING (term)
    GROUP BY q.query_id, tf.docid
),
scored AS (
    SELECT stf.query_id, stf.k, stf.docid,
           floor(qidf.idf_sum
                 * (freq * (1.2 + 1) / (freq + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)))
                 * 1000000 + 0.5) / 1000000 AS score
    FROM stf
    JOIN qidf USING (query_id)
    JOIN dl ON stf.docid = dl.docid
    CROSS JOIN stats s
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # normalize pipeline agg over the per-day date_histogram:
    # percent_of_sum = n/Σn; rescale_0_1 = (n-min)/(max-min), 0 when max==min
    out["bm25_normalize"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
),
w AS (
    SELECT query_id, key, n_docs,
           sum(n_docs) OVER (PARTITION BY query_id) AS tot,
           min(n_docs) OVER (PARTITION BY query_id) AS lo,
           max(n_docs) OVER (PARTITION BY query_id) AS hi
    FROM hist
)
SELECT query_id, key, n_docs,
       floor(n_docs::DOUBLE / tot::DOUBLE * 1000000 + 0.5) / 1000000 AS percent_of_sum,
       CASE WHEN hi > lo
            THEN floor((n_docs::DOUBLE - lo::DOUBLE) / (hi::DOUBLE - lo::DOUBLE) * 1000000 + 0.5) / 1000000
            ELSE 0.0 END AS rescale_0_1
FROM w
ORDER BY query_id, key
"""
    # terms_enum: the first 50 dictionary terms with prefix 'w0042', with df
    out["bm25_terms_enum"] = f"""
WITH {docs}, {_TOKS}
SELECT term, count(DISTINCT docid)::BIGINT AS df
FROM toks WHERE term LIKE 'w0042%'
GROUP BY term ORDER BY term LIMIT 50
"""
    # hybrid min-max normalization: each leg min-max-normalizes per query
    # over its 6-rounded full match set (single-score legs -> 1.0), fused
    # 0.7 * bm25 + 0.3 * phrase
    out["bm25_hybrid_norm"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
toks AS MATERIALIZED (SELECT docid, unnest(ts) AS term FROM docs),
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS MATERIALIZED (
    SELECT query_id, k, regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{phrase_pq}')
),
qd AS (SELECT query_id, unnest(list_distinct(p)) AS term FROM q),
bm_scored AS (
    SELECT qd.query_id, tf.docid,
           round(sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))), 6) AS score
    FROM qd JOIN tf USING (term) JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid CROSS JOIN stats s
    GROUP BY qd.query_id, tf.docid
),
bm_norm AS (
    SELECT query_id, docid,
           CASE WHEN max(score) OVER (PARTITION BY query_id)
                     > min(score) OVER (PARTITION BY query_id)
                THEN (score - min(score) OVER (PARTITION BY query_id))
                     / (max(score) OVER (PARTITION BY query_id)
                        - min(score) OVER (PARTITION BY query_id))
                ELSE 1.0 END AS ns
    FROM bm_scored
),
qidf AS (
    SELECT qt.query_id, sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum,
           count(*)::BIGINT AS n_found
    FROM (SELECT query_id, unnest(p) AS term FROM q) qt
    JOIN df USING (term) CROSS JOIN stats s
    GROUP BY qt.query_id
),
qok AS (
    SELECT q.query_id, q.p, qidf.idf_sum
    FROM q JOIN qidf USING (query_id)
    WHERE qidf.n_found = len(q.p) AND len(q.p) > 0
),
cand AS (
    SELECT DISTINCT qk.query_id, t.docid
    FROM qok qk JOIN tf t ON t.term = qk.p[1]
),
ptf AS (
    SELECT c.query_id, c.docid,
           len([i FOR i IN range(1, len(d.ts) - len(qk.p) + 2)
                IF d.ts[i:i + len(qk.p) - 1] = qk.p])::BIGINT AS ptf
    FROM cand c
    JOIN qok qk USING (query_id)
    JOIN docs d ON d.docid = c.docid
    WHERE len(d.ts) >= len(qk.p)
),
ph_scored AS (
    SELECT p.query_id, p.docid,
           round(qk.idf_sum * (p.ptf * (1.2 + 1)
               / (p.ptf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))), 6) AS score
    FROM ptf p JOIN qok qk USING (query_id)
    JOIN dl ON dl.docid = p.docid CROSS JOIN stats s
    WHERE p.ptf > 0
),
ph_norm AS (
    SELECT query_id, docid,
           CASE WHEN max(score) OVER (PARTITION BY query_id)
                     > min(score) OVER (PARTITION BY query_id)
                THEN (score - min(score) OVER (PARTITION BY query_id))
                     / (max(score) OVER (PARTITION BY query_id)
                        - min(score) OVER (PARTITION BY query_id))
                ELSE 1.0 END AS ns
    FROM ph_scored
),
fused AS (
    SELECT coalesce(b.query_id, p.query_id) AS query_id,
           coalesce(b.docid, p.docid) AS docid,
           floor((coalesce(0.7 * b.ns, 0) + coalesce(0.3 * p.ns, 0))
                 * 1000000 + 0.5) / 1000000 AS score
    FROM bm_norm b FULL OUTER JOIN ph_norm p
      ON b.query_id = p.query_id AND b.docid = p.docid
),
ranked AS (
    SELECT query_id, docid, score,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM fused
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
"""
    # hybrid l2: identical legs to bm25_hybrid_norm, but each leg normalizes
    # per query as s / sqrt(sum s^2) (OpenSearch technique=l2) — built from
    # the min_max twin by swapping the two norm CTE bodies
    _mm_norm = """
    SELECT query_id, docid,
           CASE WHEN max(score) OVER (PARTITION BY query_id)
                     > min(score) OVER (PARTITION BY query_id)
                THEN (score - min(score) OVER (PARTITION BY query_id))
                     / (max(score) OVER (PARTITION BY query_id)
                        - min(score) OVER (PARTITION BY query_id))
                ELSE 1.0 END AS ns"""
    _l2_norm = """
    SELECT query_id, docid,
           CASE WHEN sum(score * score) OVER (PARTITION BY query_id) > 0
                THEN score / sqrt(sum(score * score) OVER (PARTITION BY query_id))
                ELSE 0.0 END AS ns"""
    assert out["bm25_hybrid_norm"].count(_mm_norm) == 2
    out["bm25_hybrid_l2"] = out["bm25_hybrid_norm"].replace(_mm_norm, _l2_norm)
    # exists query: candidates restricted to docs with a tool value ('' is
    # the missing sentinel), scores unchanged (filter context)
    out["bm25_exists"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, tool, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
allowed AS (SELECT docid FROM docs WHERE tool IS NOT NULL AND tool != ''),
ranked AS (
    SELECT query_id, sc.docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, sc.docid) AS rank
    FROM scored sc JOIN allowed USING (docid)
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # extended_stats_bucket over the per-day date_histogram bucket counts:
    # exact int sums, then avg / variance / std in the engine's float order
    out["bm25_extended_stats_bucket"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
),
agg AS (
    SELECT query_id, count(*)::BIGINT AS n_buckets,
           min(n_docs)::BIGINT AS min_docs, max(n_docs)::BIGINT AS max_docs,
           sum(n_docs)::BIGINT AS sum_docs,
           sum(n_docs * n_docs)::BIGINT AS sum_sq
    FROM hist GROUP BY query_id
),
f AS (
    SELECT query_id, n_buckets, min_docs, max_docs, sum_docs, sum_sq,
           sum_docs::DOUBLE / n_buckets::DOUBLE AS avg_raw,
           greatest(sum_sq::DOUBLE / n_buckets::DOUBLE
                    - (sum_docs::DOUBLE / n_buckets::DOUBLE)
                      * (sum_docs::DOUBLE / n_buckets::DOUBLE), 0.0) AS var_raw
    FROM agg
)
SELECT query_id, n_buckets, min_docs, max_docs, sum_docs, sum_sq,
       floor(avg_raw * 1000000 + 0.5) / 1000000 AS avg_docs,
       floor(var_raw * 1000000 + 0.5) / 1000000 AS variance,
       floor(sqrt(var_raw) * 1000000 + 0.5) / 1000000 AS std_dev
FROM f
ORDER BY query_id
"""
    # duplicate_ngram_fraction: per doc, the share of its DISTINCT 3-token
    # shingles that occur in >= 2 docs (docs shorter than 3 tokens shingle
    # as their whole token stream — same convention as the Jaccard oracles)
    out["duplicate_ngram_fraction"] = """
WITH t AS MATERIALIZED (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts FROM documents
),
s AS MATERIALIZED (
    SELECT doc_id, unnest(list_distinct(
        CASE WHEN len(ts) = 0 THEN CAST([] AS VARCHAR[])
             WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
             ELSE [array_to_string(ts[i:i+2], ' ') FOR i IN range(1, len(ts) - 1)]
        END)) AS shingle
    FROM t
),
dfc AS (SELECT shingle, count(*)::BIGINT AS c FROM s GROUP BY shingle),
perdoc AS (
    SELECT s.doc_id, count(*)::BIGINT AS n_shingles,
           sum(CASE WHEN dfc.c >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_dup
    FROM s JOIN dfc USING (shingle)
    GROUP BY s.doc_id
)
SELECT doc_id, n_shingles, n_dup,
       floor(n_dup::DOUBLE / n_shingles::DOUBLE * 1000000 + 0.5) / 1000000 AS dup_fraction
FROM perdoc ORDER BY doc_id
"""
    # intervals (ordered, max_gaps): freq = t2 end-positions with a t1
    # occurrence in [p2-g-1, p2-1]; scored (idf1+idf2) * tfnorm(freq, dl)
    interval_q = _ensure_interval_queries(ORACLE_SF_DIR)
    out["bm25_intervals"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
toks AS MATERIALIZED (SELECT docid, unnest(ts) AS term FROM docs),
tp AS MATERIALIZED (
    SELECT docid, unnest(ts) AS term, generate_subscripts(ts, 1) AS pos
    FROM docs
),
dl AS MATERIALIZED (SELECT docid, len(ts)::BIGINT AS dl FROM docs),
df AS MATERIALIZED (SELECT term, count(DISTINCT docid)::BIGINT AS df FROM toks GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k, max_gaps::BIGINT AS g,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{interval_q}')
    WHERE len(regexp_extract_all(lower(text), '[a-z0-9_]+')) >= 2
),
qt AS (
    SELECT q.query_id, q.k, q.g, q.p[1] AS t1, q.p[2] AS t2,
           ln(1 + (s.n_docs - d1.df + 0.5) / (d1.df + 0.5))
           + ln(1 + (s.n_docs - d2.df + 0.5) / (d2.df + 0.5)) AS idf_sum
    FROM q
    JOIN df d1 ON d1.term = q.p[1]
    JOIN df d2 ON d2.term = q.p[2]
    CROSS JOIN stats s
),
hits AS (
    SELECT qt.query_id, any_value(qt.k) AS k, any_value(qt.idf_sum) AS idf_sum,
           b.docid, count(*)::BIGINT AS freq
    FROM qt
    JOIN tp b ON b.term = qt.t2
    WHERE EXISTS (
        SELECT 1 FROM tp a
        WHERE a.docid = b.docid AND a.term = qt.t1
          AND a.pos BETWEEN b.pos - qt.g - 1 AND b.pos - 1
    )
    GROUP BY qt.query_id, b.docid
),
scored AS (
    SELECT h.query_id, h.k, h.docid,
           floor(h.idf_sum
                 * (h.freq * (1.2 + 1) / (h.freq + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)))
                 * 1000000 + 0.5) / 1000000 AS score
    FROM hits h JOIN dl ON h.docid = dl.docid CROSS JOIN stats s
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # variable_width_histogram: split sorted distinct doc_len values at the
    # 3 widest gaps (tie -> lower boundary), centroid = sum(v*c)/n
    out["bm25_vw_histogram"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
vals AS (
    SELECT m.query_id, dl.dl AS v, count(*)::BIGINT AS c
    FROM m JOIN dl USING (docid) GROUP BY m.query_id, dl.dl
),
ord AS (
    SELECT query_id, v, c,
           row_number() OVER (PARTITION BY query_id ORDER BY v) AS i
    FROM vals
),
gaps AS (
    SELECT query_id, i,
           v - lag(v) OVER (PARTITION BY query_id ORDER BY i) AS gap
    FROM ord
),
cut AS (
    SELECT query_id, i,
           row_number() OVER (PARTITION BY query_id ORDER BY gap DESC, i) AS r
    FROM gaps WHERE gap IS NOT NULL
),
edges AS (SELECT query_id, i FROM cut WHERE r <= 3),
b AS (
    SELECT o.query_id, o.v, o.c,
           (SELECT count(*) FROM edges e
            WHERE e.query_id = o.query_id AND e.i <= o.i)::BIGINT AS bucket
    FROM ord o
),
agg AS (
    SELECT query_id, bucket, min(v)::BIGINT AS min_v, max(v)::BIGINT AS max_v,
           sum(c)::BIGINT AS n_docs, sum(v * c)::BIGINT AS sv
    FROM b GROUP BY query_id, bucket
)
SELECT query_id, bucket,
       floor(sv::DOUBLE / n_docs::DOUBLE * 1000000 + 0.5) / 1000000 AS key,
       min_v, max_v, n_docs
FROM agg
ORDER BY query_id, bucket
"""
    # moving_percentiles: trailing-7 median of the day-histogram counts,
    # explicit linear interpolation over the sorted window
    out["bm25_moving_percentiles"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
),
w AS (
    SELECT query_id, key, n_docs,
           list_sort(list(n_docs) OVER (PARTITION BY query_id ORDER BY key
                                        ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)) AS ls
    FROM hist
),
f AS (
    SELECT query_id, key, n_docs, ls, len(ls) AS n,
           (len(ls) - 1) * (50.0 / 100.0) AS h,
           floor((len(ls) - 1) * (50.0 / 100.0))::BIGINT AS lo
    FROM w
)
SELECT query_id, key, n_docs,
       floor((ls[lo + 1]::DOUBLE
              + (h - lo::DOUBLE) * (ls[least(lo + 2, n)]::DOUBLE - ls[lo + 1]::DOUBLE))
             * 1000000 + 0.5) / 1000000 AS moving_pct
FROM f
ORDER BY query_id, key
"""
    # corpus stats over the JSONL mirror — proves the JSON-lines ingest path
    jsonl_glob = os.path.join(ARTIFACT_ROOT, f"{sf}_jsonl", "*.jsonl")
    out["corpus_stats_jsonl"] = f"""
WITH t AS (
    SELECT regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_json('{jsonl_glob}', format='newline_delimited',
                   columns={{'conv_id': 'VARCHAR', 'turn_idx': 'INTEGER',
                             'role': 'VARCHAR', 'text': 'VARCHAR',
                             'tool': 'VARCHAR', 'ts': 'VARCHAR'}})
)
SELECT count(*)::BIGINT AS n_docs,
       sum(len(ts))::BIGINT AS total_len,
       floor(sum(len(ts))::DOUBLE / count(*)::DOUBLE * 1000000 + 0.5) / 1000000 AS avgdl
FROM t
"""
    # benchmark decontamination: corpus docs sharing any distinct 3-shingle
    # with the doc_id %% 97 == 0 holdout
    out["benchmark_decontamination"] = """
WITH t AS MATERIALIZED (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts FROM documents
),
s AS MATERIALIZED (
    SELECT doc_id, unnest(list_distinct(
        CASE WHEN len(ts) = 0 THEN CAST([] AS VARCHAR[])
             WHEN len(ts) < 3 THEN [array_to_string(ts, ' ')]
             ELSE [array_to_string(ts[i:i+2], ' ') FOR i IN range(1, len(ts) - 1)]
        END)) AS shingle
    FROM t
),
bench AS (SELECT DISTINCT shingle FROM s WHERE doc_id % 97 = 0),
corp AS (SELECT doc_id, shingle FROM s WHERE doc_id % 97 != 0),
perdoc AS (
    SELECT c.doc_id, count(*)::BIGINT AS n_shingles,
           sum(CASE WHEN b.shingle IS NOT NULL THEN 1 ELSE 0 END)::BIGINT AS n_shared
    FROM corp c LEFT JOIN bench b USING (shingle)
    GROUP BY c.doc_id
)
SELECT doc_id, n_shingles, n_shared,
       (CASE WHEN n_shared > 0 THEN 1 ELSE 0 END)::BIGINT AS contaminated
FROM perdoc ORDER BY doc_id
"""
    # script query in filter context: allow docs where (dl % 7) != 0
    out["bm25_script_filter"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
allowed AS (SELECT docid FROM dl WHERE (dl % 7) != 0),
ranked AS (
    SELECT query_id, sc.docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, sc.docid) AS rank
    FROM scored sc JOIN allowed USING (docid)
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # pinned query: two synthetic pins rank first (score 1e6 - pos), then
    # the organic BM25 hits deduplicated, k-bounded
    out["bm25_pinned"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
qq AS (SELECT query_id, k FROM read_parquet('{_queries_path(sf)}')),
pins0 AS (
    SELECT qq.query_id, qq.k, p.pos::BIGINT AS pos,
           CASE p.pos WHEN 1 THEN (qq.query_id * 37) % s.n_docs
                      ELSE (qq.query_id * 61 + 13) % s.n_docs END AS docid
    FROM qq CROSS JOIN stats s CROSS JOIN (VALUES (1), (2)) AS p(pos)
),
pins AS (
    SELECT query_id, k, docid,
           row_number() OVER (PARTITION BY query_id ORDER BY pos) AS pos
    FROM (
        SELECT *, first_value(docid) OVER (PARTITION BY query_id ORDER BY pos) AS d1
        FROM pins0
    ) WHERE pos = 1 OR docid != d1
),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           round(sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))), 6) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
npins AS (SELECT query_id, count(*)::BIGINT AS np FROM pins GROUP BY query_id),
organic AS (
    SELECT sc.query_id, sc.k, sc.docid, sc.score,
           n.np + row_number() OVER (PARTITION BY sc.query_id
                                     ORDER BY sc.score DESC, sc.docid) AS rank
    FROM scored sc
    JOIN npins n USING (query_id)
    ANTI JOIN pins p ON p.query_id = sc.query_id AND p.docid = sc.docid
),
unioned AS (
    SELECT query_id, pos AS rank, docid, (1000000.0 - (pos - 1)) AS score, k FROM pins
    UNION ALL
    SELECT query_id, rank, docid, score, k FROM organic
)
SELECT query_id, rank::INT AS rank, docid, score
FROM unioned WHERE rank <= k
ORDER BY query_id, rank
"""
    # date_histogram min_doc_count=0: generate every day in each query's
    # matched range, gaps filled with 0
    out["bm25_date_histogram_empty"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
),
bounds AS (SELECT query_id, min(key) AS lo, max(key) AS hi FROM hist GROUP BY query_id),
days AS (
    SELECT query_id, unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS key
    FROM bounds
)
SELECT d.query_id, d.key, coalesce(h.n_docs, 0)::BIGINT AS n_docs
FROM days d LEFT JOIN hist h ON h.query_id = d.query_id AND h.key = d.key
ORDER BY d.query_id, d.key
"""
    # range_search: all vectors with 6dp-rounded cosine >= 0.3 per query
    out["ann_range_search"] = """
WITH e AS MATERIALIZED (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
q AS (SELECT vec_id AS query_id, v AS qv FROM e WHERE vec_id < 8),
sims AS (
    SELECT q.query_id, e.vec_id,
           floor(list_cosine_similarity(q.qv, e.v) * 1000000 + 0.5) / 1000000 AS score
    FROM q CROSS JOIN e
)
SELECT query_id, vec_id, score FROM sims WHERE score >= 0.3
ORDER BY query_id, score DESC, vec_id
"""
    # function_score linear decay on ts: BM25 x max(0, 1 - |ts-origin|/scale),
    # origin = newest turn, scale = corpus span (epoch microseconds)
    out["bm25_decay"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
tsv AS (SELECT docid, epoch_us(ts) AS v FROM docs),
bounds AS (
    SELECT max(v)::DOUBLE AS origin,
           greatest(1, max(v) - min(v))::DOUBLE AS scale
    FROM tsv
),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
boosted AS (
    SELECT sc.query_id, sc.k, sc.docid,
           floor(sc.score * greatest(0, 1 - abs(t.v::DOUBLE - b.origin) / b.scale)
                 * 1000000 + 0.5) / 1000000 AS score
    FROM scored sc JOIN tsv t ON sc.docid = t.docid CROSS JOIN bounds b
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM boosted
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # gauss / exp decay: same query shape as bm25_decay, scale = span/4 and
    # the multiplier swapped — gauss exp(-d²/(2σ²)) with σ² =
    # -scale²/(2·ln 0.5); exp-decay exp(ln(0.5)/scale · d); derived from the
    # linear-decay SQL by asserted textual replaces so the shared scaffold
    # can't drift
    _lin_scale = "greatest(1, max(v) - min(v))::DOUBLE AS scale"
    _q4_scale = "greatest(1, max(v) - min(v))::DOUBLE / 4 AS scale"
    _lin_mult = "greatest(0, 1 - abs(t.v::DOUBLE - b.origin) / b.scale)"
    _gauss_mult = (
        "exp(-(greatest(abs(t.v::DOUBLE - b.origin), 0)"
        " * greatest(abs(t.v::DOUBLE - b.origin), 0))"
        " / (2 * (-(b.scale * b.scale) / (2 * ln(0.5)))))"
    )
    _exp_mult = ("exp(ln(0.5) / b.scale"
                 " * greatest(abs(t.v::DOUBLE - b.origin), 0))")
    assert out["bm25_decay"].count(_lin_scale) == 1
    assert out["bm25_decay"].count(_lin_mult) == 1
    out["bm25_gauss_decay"] = (out["bm25_decay"]
                               .replace(_lin_scale, _q4_scale)
                               .replace(_lin_mult, _gauss_mult))
    out["bm25_exp_decay"] = (out["bm25_decay"]
                             .replace(_lin_scale, _q4_scale)
                             .replace(_lin_mult, _exp_mult))
    # composite agg: terms(role) x date_histogram(day) pairs per match set
    out["bm25_composite"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, d.role AS key_term, date_trunc('day', d.ts) AS key_day,
       count(*)::BIGINT AS n_docs
FROM m JOIN docs d USING (docid)
GROUP BY m.query_id, d.role, date_trunc('day', d.ts)
ORDER BY m.query_id, key_term, key_day
"""
    # min_score: the k-cut page filtered at rounded score >= 4.0, re-ranked
    out["bm25_min_score"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
page AS (
    SELECT query_id, docid, floor(score * 1000000 + 0.5) / 1000000 AS score, k,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY floor(score * 1000000 + 0.5) / 1000000 DESC,
                                       docid) AS rank0
    FROM scored
),
kept AS (
    SELECT query_id, docid, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, docid) AS rank
    FROM page WHERE rank0 <= k AND score >= 4.0
)
SELECT query_id, rank::INT AS rank, docid, score
FROM kept ORDER BY query_id, rank
"""
    # chi_square significance heuristic over the sig_terms scaffold
    out["bm25_sig_chi2"] = f"""
WITH {docs}, {_TOKS},
tset AS MATERIALIZED (SELECT DISTINCT docid, term FROM toks),
bg AS MATERIALIZED (SELECT term, count(*)::BIGINT AS bg FROM tset GROUP BY term),
nn AS (SELECT count(*)::DOUBLE AS n FROM docs),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
fgt AS (SELECT query_id, count(*)::DOUBLE AS f FROM m GROUP BY query_id),
fg AS (
    SELECT m.query_id, ts.term, count(*)::BIGINT AS fg
    FROM m JOIN tset ts USING (docid) GROUP BY 1, 2
),
scored AS (
    SELECT fg.query_id, fg.term, fg.fg, bg.bg,
           floor(((fg.fg / fgt.f) - (bg.bg / nn.n))
                 * ((fg.fg / fgt.f) - (bg.bg / nn.n))
                 / (bg.bg / nn.n) * 1000000 + 0.5) / 1000000 AS score
    FROM fg JOIN bg USING (term) JOIN fgt USING (query_id) CROSS JOIN nn
),
ranked AS (
    SELECT query_id, term, fg, bg, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, term) AS r
    FROM scored
)
SELECT query_id, term, fg AS fg_docs, bg AS bg_docs, score
FROM ranked WHERE r <= 10
ORDER BY query_id, r
"""
    # mutual_information: log2-MI of the 2x2 contingency table — cells with
    # Nxy = 0 contribute 0; the engine computes (Nxy/N)*ln(Nxy*N/(Nx_*N_y))
    # per cell, sums the four cells left-to-right, divides by ln 2 (same op
    # order here so float64 results are bit-equal before the round)
    out["bm25_sig_mi"] = f"""
WITH {docs}, {_TOKS},
tset AS MATERIALIZED (SELECT DISTINCT docid, term FROM toks),
bg AS MATERIALIZED (SELECT term, count(*)::BIGINT AS bg FROM tset GROUP BY term),
nn AS (SELECT count(*)::DOUBLE AS n FROM docs),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
fgt AS (SELECT query_id, count(*)::DOUBLE AS f FROM m GROUP BY query_id),
fg AS (
    SELECT m.query_id, ts.term, count(*)::BIGINT AS fg
    FROM m JOIN tset ts USING (docid) GROUP BY 1, 2
),
cells AS (
    SELECT fg.query_id, fg.term, fg.fg, bg.bg, nn.n,
           fg.fg::DOUBLE AS n11,
           bg.bg::DOUBLE - fg.fg AS n01,
           fgt.f - fg.fg AS n10,
           nn.n - bg.bg - (fgt.f - fg.fg) AS n00,
           fgt.f AS n1x, nn.n - fgt.f AS n0x,
           bg.bg::DOUBLE AS nx1, nn.n - bg.bg AS nx0
    FROM fg JOIN bg USING (term) JOIN fgt USING (query_id) CROSS JOIN nn
),
scored AS (
    SELECT query_id, term, fg, bg,
           floor((
             (CASE WHEN n00 > 0 THEN (n00 / n) * ln((n00 * n) / (n0x * nx0)) ELSE 0.0 END)
           + (CASE WHEN n01 > 0 THEN (n01 / n) * ln((n01 * n) / (n0x * nx1)) ELSE 0.0 END)
           + (CASE WHEN n10 > 0 THEN (n10 / n) * ln((n10 * n) / (n1x * nx0)) ELSE 0.0 END)
           + (CASE WHEN n11 > 0 THEN (n11 / n) * ln((n11 * n) / (n1x * nx1)) ELSE 0.0 END)
           ) / ln(2.0) * 1000000 + 0.5) / 1000000 AS score
    FROM cells
),
ranked AS (
    SELECT query_id, term, fg, bg, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, term) AS r
    FROM scored
)
SELECT query_id, term, fg AS fg_docs, bg AS bg_docs, score
FROM ranked WHERE r <= 10
ORDER BY query_id, r
"""
    # gnd: exp(-GoogleNormalizedDistance(fx=bg, fy=|matches|, fxy=fg, N));
    # zero denominator (fx == N or fy == N) scores 0
    out["bm25_sig_gnd"] = f"""
WITH {docs}, {_TOKS},
tset AS MATERIALIZED (SELECT DISTINCT docid, term FROM toks),
bg AS MATERIALIZED (SELECT term, count(*)::BIGINT AS bg FROM tset GROUP BY term),
nn AS (SELECT count(*)::DOUBLE AS n FROM docs),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
fgt AS (SELECT query_id, count(*)::DOUBLE AS f FROM m GROUP BY query_id),
fg AS (
    SELECT m.query_id, ts.term, count(*)::BIGINT AS fg
    FROM m JOIN tset ts USING (docid) GROUP BY 1, 2
),
scored AS (
    SELECT fg.query_id, fg.term, fg.fg, bg.bg,
           floor((CASE WHEN ln(nn.n) - least(ln(bg.bg::DOUBLE), ln(fgt.f)) = 0
                       THEN 0.0
                       ELSE exp(-((greatest(ln(bg.bg::DOUBLE), ln(fgt.f)) - ln(fg.fg::DOUBLE))
                                  / (ln(nn.n) - least(ln(bg.bg::DOUBLE), ln(fgt.f)))))
                  END) * 1000000 + 0.5) / 1000000 AS score
    FROM fg JOIN bg USING (term) JOIN fgt USING (query_id) CROSS JOIN nn
),
ranked AS (
    SELECT query_id, term, fg, bg, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, term) AS r
    FROM scored
)
SELECT query_id, term, fg AS fg_docs, bg AS bg_docs, score
FROM ranked WHERE r <= 10
ORDER BY query_id, r
"""
    # dfs federation: global stats == a one-index build over the union; the
    # leg label and local docid derive from the global docid (part_a convs
    # all sort before part_b's, so global docid order == (leg, local) order)
    out["bm25_dfs_federated"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
na AS (SELECT count(*)::BIGINT AS n FROM read_parquet('{part_a_pq}')),
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid,
           floor(score * 1.0 * 1000000 + 0.5) / 1000000 AS score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY floor(score * 1.0 * 1000000 + 0.5) / 1000000 DESC,
                                       docid) AS rank
    FROM scored
)
SELECT r.query_id, r.rank::INT AS rank,
       CASE WHEN r.docid < na.n THEN 'a' ELSE 'b' END AS "index",
       CASE WHEN r.docid < na.n THEN r.docid ELSE r.docid - na.n END AS docid,
       r.score
FROM ranked r CROSS JOIN na
WHERE r.rank <= 10
ORDER BY r.query_id, r.rank
"""
    # per-source data-mixing weights: equal-token-share target, capped at 1
    out["source_mix_weights"] = """
WITH s AS MATERIALIZED (
    SELECT source, count(*)::BIGINT AS n_docs,
           sum(len(regexp_extract_all(lower(text), '[a-z0-9_]+')))::BIGINT AS n_tokens
    FROM documents GROUP BY source
),
t AS (SELECT sum(n_tokens)::DOUBLE AS total, count(*)::DOUBLE AS n_src FROM s)
SELECT source, n_docs, n_tokens,
       floor(n_tokens / t.total * 1000000 + 0.5) / 1000000 AS token_share,
       floor(least((t.total / t.n_src) / n_tokens, 1.0) * 1000000 + 0.5) / 1000000 AS weight
FROM s CROSS JOIN t ORDER BY source
"""
    # max_bucket: the day bucket(s) holding each query's max doc count
    out["bm25_max_bucket"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
)
SELECT query_id, key, n_docs
FROM (SELECT query_id, key, n_docs,
             max(n_docs) OVER (PARTITION BY query_id) AS mx
      FROM hist)
WHERE n_docs = mx
ORDER BY query_id, key
"""
    # min_bucket: the sibling reduction — the day bucket(s) holding each
    # query's MINIMUM doc count (same parent histogram, min over buckets)
    _mx_tail = """
             max(n_docs) OVER (PARTITION BY query_id) AS mx"""
    _mn_tail = """
             min(n_docs) OVER (PARTITION BY query_id) AS mx"""
    assert out["bm25_max_bucket"].count(_mx_tail) == 1
    out["bm25_min_bucket"] = out["bm25_max_bucket"].replace(_mx_tail, _mn_tail)
    # bucket_correlation (count_correlation): Pearson corr of each query's
    # key-ascending day-bucket counts vs the 0..n-1 ramp; the engine's
    # two-pass formula and DuckDB's corr() agree within 1e-12, absorbed by
    # the shared floor(x*1e6+0.5)/1e6 rounding (round-half-up, exact for
    # negatives too); <2 buckets / zero variance filtered identically
    out["bm25_bucket_correlation"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
),
ramped AS (
    SELECT query_id, n_docs,
           row_number() OVER (PARTITION BY query_id ORDER BY key) - 1 AS x
    FROM hist
)
SELECT query_id, count(*)::BIGINT AS n_buckets,
       floor(corr(n_docs::DOUBLE, x::DOUBLE) * 1000000 + 0.5) / 1000000 AS correlation
FROM ramped
GROUP BY query_id
HAVING count(*) >= 2 AND min(n_docs) <> max(n_docs)
ORDER BY query_id
"""
    # bucket_count_ks_test: D = max |cumsum(counts)/total - i/n| in key
    # order — integer cumsum is exact, the divides/abs/max mirror the
    # engine's op order, round-half-up to 6dp on both sides
    out["bm25_ks_test"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
),
stepped AS (
    SELECT query_id,
           sum(n_docs) OVER (PARTITION BY query_id ORDER BY key)::DOUBLE
             / sum(n_docs) OVER (PARTITION BY query_id) AS cum,
           row_number() OVER (PARTITION BY query_id ORDER BY key)::DOUBLE
             / count(*) OVER (PARTITION BY query_id) AS uni
    FROM hist
)
SELECT query_id, count(*)::BIGINT AS n_buckets,
       floor(max(abs(cum - uni)) * 1000000 + 0.5) / 1000000 AS ks_statistic
FROM stepped
GROUP BY query_id
ORDER BY query_id
"""
    # ingest pipeline: the same processor chain in SQL — lower, global
    # regexp_replace, trim with the explicit character set, rename/set/
    # remove as projection
    out["ingest_simulate"] = f"""
SELECT conv_id, turn_idx, role AS speaker, 'v1' AS pipeline,
       trim(regexp_replace(lower(text), '[0-9]+', '#', 'g'),
            ' ' || chr(9) || chr(10) || chr(13)) AS text
FROM read_parquet('{_transcripts_glob(sf)}')
ORDER BY conv_id, turn_idx
"""
    # sliding-window chunking: window starts 0, 24, 48, ... ; count =
    # 1 if n <= 32 else ceil((n-32)/24) + 1; last window short
    out["chunk_docs"] = """
WITH t AS MATERIALIZED (
    SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM documents
),
c AS (
    SELECT doc_id, ts, len(ts) AS n,
           CASE WHEN len(ts) = 0 THEN 0
                WHEN len(ts) <= 32 THEN 1
                ELSE CAST(ceil((len(ts) - 32)::DOUBLE / 24) AS BIGINT) + 1
           END AS n_chunks
    FROM t
),
w AS (
    SELECT doc_id, r.ci AS chunk_idx, ts, n
    FROM c, LATERAL (SELECT unnest(range(0, n_chunks)) AS ci) r
)
SELECT doc_id, chunk_idx::INT AS chunk_idx,
       least(32, n - chunk_idx * 24)::INT AS n_tokens,
       array_to_string(ts[chunk_idx * 24 + 1 : chunk_idx * 24 + 32], ' ') AS chunk_text
FROM w ORDER BY doc_id, chunk_idx
"""
    # per-conversation rollup: exact integer sums + epoch-us span
    out["conv_stats"] = f"""
SELECT conv_id,
       count(*)::BIGINT AS n_turns,
       sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END)::BIGINT AS n_user_turns,
       sum(CASE WHEN tool IS NOT NULL AND tool != '' THEN 1 ELSE 0 END)::BIGINT AS n_tool_calls,
       sum(len(regexp_extract_all(lower(text), '[a-z0-9_]+')))::BIGINT AS total_tokens,
       (epoch_us(max(ts)) - epoch_us(min(ts)))::DOUBLE / 1000000 AS span_seconds
FROM read_parquet('{_transcripts_glob(sf)}')
GROUP BY conv_id
ORDER BY conv_id
"""
    # federated two-index search: per-leg LOCAL stats + local docids, boosted
    # rounded scores merged to a global top-10
    part_b_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_split", "part_b.parquet")
    out["bm25_federated"] = f"""
WITH qq AS MATERIALIZED (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
docs_a AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid, text
    FROM read_parquet('{part_a_pq}')
),
docs_b AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid, text
    FROM read_parquet('{part_b_pq}')
),
toks_a AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term FROM docs_a
),
toks_b AS MATERIALIZED (
    SELECT docid, unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term FROM docs_b
),
tf_a AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks_a GROUP BY docid, term),
dl_a AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks_a GROUP BY docid),
df_a AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf_a GROUP BY term),
st_a AS (SELECT (SELECT count(*) FROM docs_a)::BIGINT AS n_docs,
                (SELECT sum(dl) FROM dl_a)::DOUBLE / (SELECT count(*) FROM docs_a) AS avgdl),
tf_b AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks_b GROUP BY docid, term),
dlb AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks_b GROUP BY docid),
df_b AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf_b GROUP BY term),
st_b AS (SELECT (SELECT count(*) FROM docs_b)::BIGINT AS n_docs,
                (SELECT sum(dl) FROM dlb)::DOUBLE / (SELECT count(*) FROM docs_b) AS avgdl),
sc_a AS (
    SELECT q.query_id, tf.docid, 'a' AS idx,
           floor(sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)))
               * 1.0 * 1000000 + 0.5) / 1000000 AS score
    FROM qq q JOIN tf_a tf USING (term) JOIN df_a df USING (term)
    JOIN dl_a dl ON tf.docid = dl.docid CROSS JOIN st_a s
    GROUP BY q.query_id, tf.docid, s.n_docs, s.avgdl
),
sc_b AS (
    SELECT q.query_id, tf.docid, 'b' AS idx,
           floor(sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)))
               * 1.5 * 1000000 + 0.5) / 1000000 AS score
    FROM qq q JOIN tf_b tf USING (term) JOIN df_b df USING (term)
    JOIN dlb dl ON tf.docid = dl.docid CROSS JOIN st_b s
    GROUP BY q.query_id, tf.docid, s.n_docs, s.avgdl
),
merged AS (SELECT * FROM sc_a UNION ALL SELECT * FROM sc_b),
ranked AS (
    SELECT query_id, idx AS "index", docid, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, idx, docid) AS rank
    FROM merged
)
SELECT query_id, rank::INT AS rank, "index", docid, score
FROM ranked WHERE rank <= 10
ORDER BY query_id, rank
"""
    out["bm25_composite_after"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
buckets AS (
    SELECT m.query_id, d.role AS key_term, date_trunc('day', d.ts) AS key_day,
           count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, d.role, date_trunc('day', d.ts)
),
paged AS (
    SELECT query_id, key_term, key_day, n_docs,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY key_term, key_day) AS rn
    FROM buckets
    WHERE key_term > 'assistant'
       OR (key_term = 'assistant' AND key_day > TIMESTAMP '2026-03-01')
)
SELECT query_id, key_term, key_day, n_docs
FROM paged WHERE rn <= 5
ORDER BY query_id, key_term, key_day
"""
    # weighted_avg: sum(doc_len*turn_idx)/sum(turn_idx) per match set;
    # integer sums, one rounded float64 division (engine combiner mirror)
    out["bm25_weighted_avg"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id,
       floor((sum(dl.dl * d.turn_idx)::DOUBLE / sum(d.turn_idx)) * 1000000 + 0.5) / 1000000
           AS weighted_avg
FROM m JOIN docs d USING (docid) JOIN dl USING (docid)
GROUP BY m.query_id
HAVING sum(d.turn_idx) > 0
ORDER BY m.query_id
"""
    # percentile_ranks (exact CDF): % of matched docs with doc_len <= v
    out["bm25_percentile_ranks"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
vals AS (SELECT unnest([8.0, 16.0, 32.0]) AS value)
SELECT m.query_id, v.value,
       floor(100.0 * count(CASE WHEN dl.dl <= v.value THEN 1 END)::DOUBLE
             / count(*) * 1000000 + 0.5) / 1000000 AS percent
FROM m JOIN dl USING (docid) CROSS JOIN vals v
GROUP BY m.query_id, v.value
ORDER BY m.query_id, v.value
"""
    # top_metrics: doc_len of the top-3 matched docs by (ts DESC, docid ASC)
    out["bm25_top_metrics"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
ranked AS (
    SELECT m.query_id, m.docid, d.ts, dl.dl AS doc_len,
           row_number() OVER (PARTITION BY m.query_id
                              ORDER BY d.ts DESC, m.docid ASC) AS rank
    FROM m JOIN docs d USING (docid) JOIN dl USING (docid)
)
SELECT query_id, rank::INT AS rank, docid, ts, doc_len
FROM ranked WHERE rank <= 3
ORDER BY query_id, rank
"""
    # multi_terms: (role, tool) composite buckets; docs missing tool skipped
    out["bm25_multi_terms"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, tool, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, d.role, d.tool, count(*)::BIGINT AS n_docs
FROM m JOIN docs d USING (docid)
WHERE d.tool IS NOT NULL AND d.tool <> ''
GROUP BY m.query_id, d.role, d.tool
ORDER BY m.query_id, d.role, d.tool
"""
    # stats_bucket: stats over the per-day date_histogram bucket counts
    out["bm25_stats_bucket"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
h AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
)
SELECT query_id, count(*)::BIGINT AS n_buckets, min(n) AS min_docs,
       max(n) AS max_docs, sum(n)::BIGINT AS sum_docs,
       floor((sum(n)::DOUBLE / count(*)) * 1000000 + 0.5) / 1000000 AS avg_docs
FROM h GROUP BY query_id ORDER BY query_id
"""
    # significant_terms (JLH): fg doc-rate vs corpus doc-rate per term,
    # score = (fg_rate - bg_rate) * (fg_rate / bg_rate), top 10 per query
    out["bm25_sig_terms"] = f"""
WITH {docs}, {_TOKS},
tset AS MATERIALIZED (SELECT DISTINCT docid, term FROM toks),
bg AS MATERIALIZED (SELECT term, count(*)::BIGINT AS bg FROM tset GROUP BY term),
nn AS (SELECT count(*)::DOUBLE AS n FROM docs),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
fgt AS (SELECT query_id, count(*)::DOUBLE AS f FROM m GROUP BY query_id),
fg AS (
    SELECT m.query_id, ts.term, count(*)::BIGINT AS fg
    FROM m JOIN tset ts USING (docid) GROUP BY 1, 2
),
scored AS (
    SELECT fg.query_id, fg.term, fg.fg, bg.bg,
           floor(((fg.fg / fgt.f) - (bg.bg / nn.n))
                 * ((fg.fg / fgt.f) / (bg.bg / nn.n)) * 1000000 + 0.5) / 1000000 AS score
    FROM fg JOIN bg USING (term) JOIN fgt USING (query_id) CROSS JOIN nn
),
ranked AS (
    SELECT query_id, term, fg, bg, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, term) AS r
    FROM scored
)
SELECT query_id, term, fg AS fg_docs, bg AS bg_docs, score
FROM ranked WHERE r <= 10
ORDER BY query_id, r
"""
    out["bm25_date_histogram"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
FROM m JOIN docs d USING (docid)
GROUP BY m.query_id, date_trunc('day', d.ts)
ORDER BY m.query_id, key
"""
    # terms agg size=2 + sum_other_doc_count: top buckets by (count desc,
    # key asc), the truncated buckets' total riding each kept row
    out["bm25_terms_size"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
agg AS (
    SELECT m.query_id, d.role AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, d.role
),
ranked AS (
    SELECT query_id, key, n_docs,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY n_docs DESC, key) AS rank,
           sum(n_docs) OVER (PARTITION BY query_id) AS tot
    FROM agg
)
SELECT query_id, rank::INT AS rank, key, n_docs,
       (tot - sum(n_docs) OVER (PARTITION BY query_id))::BIGINT
         AS sum_other_doc_count
FROM ranked
WHERE rank <= 2
ORDER BY query_id, rank
"""
    # calendar_interval=month: derived by an asserted replace of the
    # day truncation
    assert out["bm25_date_histogram"].count("date_trunc('day', d.ts)") == 2
    out["bm25_month_histogram"] = out["bm25_date_histogram"].replace(
        "date_trunc('day', d.ts)", "date_trunc('month', d.ts)")
    # histogram offset=3: key = floor((dl - 3)/8.0)*8 + 3 (float floor ==
    # Python // for the negative below-first-boundary bucket)
    _h_key = "(dl.dl // 8) * 8 AS key"
    _h_off = ("(CAST(floor((dl.dl - 3) / 8.0) AS BIGINT) * 8 + 3) AS key")
    assert out["bm25_histogram"].count(_h_key) == 1
    out["bm25_histogram_offset"] = out["bm25_histogram"].replace(_h_key, _h_off)
    # multi-key field sort: (role asc, ts desc, docid asc) top-k
    out["bm25_sorted_multi"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
ranked AS (
    SELECT m.query_id, m.docid, d.role, d.ts,
           row_number() OVER (PARTITION BY m.query_id
                              ORDER BY d.role ASC, d.ts DESC, m.docid ASC) AS rank
    FROM m JOIN docs d USING (docid)
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.role, r.ts
FROM ranked r
JOIN (SELECT query_id, k FROM read_parquet('{_queries_path(sf)}')) qq USING (query_id)
WHERE r.rank <= qq.k
ORDER BY query_id, rank
"""
    # auto_date_histogram: per query pick day/week/month so the bucket
    # count fits 20 (month kept regardless), then bucket at that floor
    out["bm25_auto_histogram"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
pts AS (SELECT m.query_id, d.ts FROM m JOIN docs d USING (docid)),
chosen AS (
    SELECT query_id,
           CASE WHEN count(DISTINCT date_trunc('day', ts)) <= 20 THEN 'day'
                WHEN count(DISTINCT date_trunc('week', ts)) <= 20 THEN 'week'
                ELSE 'month' END AS interval
    FROM pts GROUP BY query_id
)
SELECT p.query_id, c.interval,
       CASE c.interval WHEN 'day' THEN date_trunc('day', p.ts)
                       WHEN 'week' THEN date_trunc('week', p.ts)
                       ELSE date_trunc('month', p.ts) END AS key,
       count(*)::BIGINT AS n_docs
FROM pts p JOIN chosen c USING (query_id)
GROUP BY p.query_id, c.interval, key
ORDER BY p.query_id, key
"""
    # serial_diff: lag-7 difference over per-day buckets
    out["bm25_serial_diff"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
)
SELECT query_id, key, n_docs,
       (n_docs - lag(n_docs, 7) OVER (PARTITION BY query_id ORDER BY key))::DOUBLE AS serial_diff
FROM hist
ORDER BY query_id, key
"""
    # moving_avg: trailing-3 windowed sum/count over per-day buckets
    out["bm25_moving_avg"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
)
SELECT query_id, key, n_docs,
       floor((sum(n_docs) OVER w)::DOUBLE / (count(*) OVER w) * 1000000 + 0.5)
           / 1000000 AS moving_avg
FROM hist
WINDOW w AS (PARTITION BY query_id ORDER BY key ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
ORDER BY query_id, key
"""
    # bucket_selector (HAVING n_docs >= 10) + bucket_sort (top-5 by count)
    out["bm25_bucket_sort"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
    HAVING count(*) >= 10
),
ranked AS (
    SELECT query_id, key, n_docs,
           row_number() OVER (PARTITION BY query_id ORDER BY n_docs DESC, key) AS bucket_rank
    FROM hist
)
SELECT query_id, key, n_docs, bucket_rank::INT AS bucket_rank
FROM ranked WHERE bucket_rank <= 5
ORDER BY query_id, bucket_rank
"""
    # date_range agg: [lo,hi) timestamp buckets with "lo-hi" keys
    out["bm25_date_range"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
lab AS (
    SELECT m.query_id,
           CASE WHEN d.ts < TIMESTAMP '2026-03-01' THEN '*-2026-03-01'
                WHEN d.ts < TIMESTAMP '2026-05-01' THEN '2026-03-01-2026-05-01'
                ELSE '2026-05-01-*' END AS key
    FROM m JOIN docs d USING (docid)
)
SELECT query_id, key, count(*)::BIGINT AS n_docs
FROM lab GROUP BY query_id, key
ORDER BY query_id, key
"""
    # pipeline aggs: cumulative_sum + derivative over the per-day
    # date_histogram buckets (deriv NULL on each query's first bucket)
    out["bm25_pipeline_aggs"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
hist AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
)
SELECT query_id, key, n_docs,
       sum(n_docs) OVER (PARTITION BY query_id ORDER BY key
                         ROWS UNBOUNDED PRECEDING)::BIGINT AS cum_docs,
       (n_docs - lag(n_docs) OVER (PARTITION BY query_id ORDER BY key))::DOUBLE AS deriv
FROM hist
ORDER BY query_id, key
"""
    # filtered search (role='user'): corpus-wide stats, candidates restricted
    # to the predicate — same SQL shape as the logical-delete oracle with the
    # allow predicate instead of the tombstone predicate
    out["bm25_filtered"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
allowed AS (SELECT docid FROM docs WHERE role = 'user'),
ranked AS (
    SELECT query_id, sc.docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, sc.docid) AS rank
    FROM scored sc JOIN allowed USING (docid)
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # search pipeline: the bm25_filtered page (filter_query processor ==
    # filter context), then collapse(conv_id) -> truncate_hits(5) ->
    # rename_field(score -> relevance) on the page, in processor order
    out["bm25_search_pipeline"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
allowed AS (SELECT docid, conv_id FROM docs WHERE role = 'user'),
ranked AS (
    SELECT query_id, sc.docid, a.conv_id, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, sc.docid) AS rank
    FROM scored sc JOIN allowed a USING (docid)
),
page AS (SELECT * FROM ranked WHERE rank <= k),
collapsed AS (
    SELECT *, row_number() OVER (PARTITION BY query_id, conv_id ORDER BY rank) AS rn
    FROM page
),
renum AS (
    SELECT query_id, docid, score,
           row_number() OVER (PARTITION BY query_id ORDER BY rank) AS rank
    FROM collapsed WHERE rn = 1
)
SELECT query_id, rank::INT AS rank, docid, score AS relevance
FROM renum WHERE rank <= 5
ORDER BY query_id, rank
"""
    # delete + expunging compaction: a from-scratch BM25 over the LIVE docs
    # only (stats/df shrink) under the ORIGINAL docid space (holes preserved)
    out["bm25_compacted"] = f"""
WITH all_docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, text
    FROM read_parquet('{_transcripts_glob(sf)}')
),
docs AS MATERIALIZED (SELECT * FROM all_docs WHERE conv_id NOT LIKE '%0'),
{_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # snippets: the bm25_topk oracle extended with the 8-token best-window
    # snippet computed from the same analyzer token stream (list ops; first
    # max via list_position == numpy argmax's earliest-window tie-break)
    out["bm25_snippets"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
qts AS (
    SELECT query_id, list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS qt
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
),
snip AS (
    SELECT r.query_id, r.rank, r.docid,
           regexp_extract_all(lower(d.text), '[a-z0-9_]+') AS tk, qts.qt
    FROM ranked r JOIN docs d USING (docid) JOIN qts USING (query_id)
    WHERE r.rank <= r.k
),
cnt AS (
    SELECT query_id, rank, docid, tk,
           CASE WHEN len(tk) <= 8 THEN NULL
                ELSE [len(list_filter(tk[i:i+7], x -> list_contains(qt, x)))
                      FOR i IN range(1, len(tk) - 6)]
           END AS cs
    FROM snip
)
SELECT query_id, rank::INT AS rank, docid,
       CASE WHEN cs IS NULL THEN array_to_string(tk, ' ')
            ELSE array_to_string(
                tk[list_position(cs, list_max(cs)) : list_position(cs, list_max(cs)) + 7], ' ')
       END AS snippet
FROM cnt ORDER BY query_id, rank
"""
    # multi-fragment highlighting: consecutive 6-token tiles; top 3 tiles
    # by query-term count (ties earliest) in position order; whole doc when
    # shorter than one tile (pipelines/query.highlight number_of_fragments)
    out["bm25_snippets_multi"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
qts AS (
    SELECT query_id, list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS qt
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
ranked AS (
    SELECT query_id, docid, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
),
snip AS (
    SELECT r.query_id, r.rank, r.docid,
           regexp_extract_all(lower(d.text), '[a-z0-9_]+') AS tk, qts.qt
    FROM ranked r JOIN docs d USING (docid) JOIN qts USING (query_id)
    WHERE r.rank <= r.k
),
shortd AS (
    SELECT query_id, rank, docid, 0 AS fragment_idx,
           array_to_string(tk, ' ') AS snippet
    FROM snip WHERE len(tk) <= 6
),
tiled AS (
    SELECT s.query_id, s.rank, s.docid, u.ti,
           array_to_string(s.tk[u.ti * 6 + 1 : u.ti * 6 + 6], ' ') AS frag,
           len(list_filter(s.tk[u.ti * 6 + 1 : u.ti * 6 + 6],
                           x -> list_contains(s.qt, x))) AS c
    FROM snip s,
    LATERAL (SELECT unnest(range(0, (len(s.tk) + 5) // 6)) AS ti) u
    WHERE len(s.tk) > 6
),
chosen AS (
    SELECT query_id, rank, docid, ti, frag,
           row_number() OVER (PARTITION BY query_id, docid
                              ORDER BY c DESC, ti) AS rr
    FROM tiled WHERE c > 0
),
multi AS (
    SELECT query_id, rank, docid,
           (row_number() OVER (PARTITION BY query_id, docid ORDER BY ti) - 1) AS fragment_idx,
           frag AS snippet
    FROM chosen WHERE rr <= 3
)
SELECT query_id, rank::INT AS rank, docid, fragment_idx::INT AS fragment_idx, snippet FROM shortd
UNION ALL
SELECT query_id, rank::INT AS rank, docid, fragment_idx::INT AS fragment_idx, snippet FROM multi
ORDER BY query_id, rank, fragment_idx
"""
    # phrase search: exact consecutive-term match counted by list-slice
    # comparison (Lucene PhraseQuery scoring — summed term idfs, phrase tf
    # through BM25 saturation). Candidate docs pre-filtered to those
    # containing the phrase's first term so the slice scan is not N x Q.
    phrase_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_phrase_queries.parquet")
    out["bm25_phrase"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
stats AS (SELECT count(*)::BIGINT AS n_docs, sum(len(ts))::DOUBLE / count(*) AS avgdl FROM docs),
tm AS MATERIALIZED (SELECT docid, unnest(list_distinct(ts)) AS term FROM docs),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tm GROUP BY term),
q AS MATERIALIZED (
    SELECT query_id, k, regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{phrase_pq}')
),
qterm AS (SELECT query_id, unnest(p) AS term FROM q),
qidf AS (
    SELECT qt.query_id, sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum,
           count(*)::BIGINT AS n_found
    FROM qterm qt JOIN df USING (term) CROSS JOIN stats s
    GROUP BY qt.query_id
),
qok AS (
    SELECT q.query_id, q.k, q.p, qidf.idf_sum
    FROM q JOIN qidf USING (query_id)
    WHERE qidf.n_found = len(q.p) AND len(q.p) > 0
),
cand AS (
    SELECT DISTINCT qok.query_id, tm.docid
    FROM qok JOIN tm ON tm.term = qok.p[1]
),
ptf AS (
    SELECT c.query_id, c.docid,
           len([i FOR i IN range(1, len(d.ts) - len(q.p) + 2)
                IF d.ts[i:i + len(q.p) - 1] = q.p])::BIGINT AS ptf
    FROM cand c
    JOIN docs d ON d.docid = c.docid
    JOIN qok q ON q.query_id = c.query_id
    WHERE len(d.ts) >= len(q.p)
),
scored AS (
    SELECT p.query_id, p.docid, q.k,
           q.idf_sum * (p.ptf * (1.2 + 1)
               / (p.ptf + 1.2 * (1 - 0.75 + 0.75 * len(d.ts) / s.avgdl))) AS score
    FROM ptf p
    JOIN qok q USING (query_id)
    JOIN docs d ON d.docid = p.docid
    CROSS JOIN stats s
    WHERE p.ptf > 0
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # simple_query_string: SQL re-parses the frozen grammar with the same
    # regexes (quoted phrases, -negs, bare should terms), scores the term
    # leg (BM25 sum, neg-excluded) and each phrase leg (PhraseQuery slice
    # scan, neg-excluded), rounds each leg to 6, outer-merges and re-rounds.
    qs_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_qs_queries.parquet")
    out["bm25_query_string"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
toks AS MATERIALIZED (SELECT docid, unnest(ts) AS term FROM docs),
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (SELECT query_id, k, lower(text) AS qs FROM read_parquet('{qs_pq}')),
parsed AS (
    SELECT query_id, k,
           regexp_extract_all(qs, '"([^"]*)"', 1) AS phrases,
           regexp_extract_all(regexp_replace(qs, '"[^"]*"', ' ', 'g'),
                              '-([a-z0-9_]+)', 1) AS negs,
           regexp_extract_all(
               regexp_replace(regexp_replace(qs, '"[^"]*"', ' ', 'g'),
                              '-[a-z0-9_]+', ' ', 'g'),
               '[a-z0-9_]+') AS should
    FROM q
),
neg AS (
    SELECT DISTINCT n.query_id, t.docid
    FROM (SELECT query_id, unnest(negs) AS term FROM parsed) n
    JOIN tf t USING (term)
),
term_scored AS (
    SELECT st.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM (SELECT query_id, unnest(list_distinct(should)) AS term
          FROM parsed WHERE len(should) > 0) st
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY st.query_id, tf.docid
),
term_leg AS (
    SELECT ts_.query_id, ts_.docid, round(ts_.score, 6) AS s
    FROM term_scored ts_
    ANTI JOIN neg n ON n.query_id = ts_.query_id AND n.docid = ts_.docid
),
phq0 AS (
    SELECT query_id, unnest(phrases) AS phrase FROM parsed
),
phq AS (
    SELECT query_id, phrase,
           regexp_extract_all(phrase, '[a-z0-9_]+') AS p
    FROM phq0 WHERE len(regexp_extract_all(phrase, '[a-z0-9_]+')) > 0
),
phidf AS (
    SELECT pt.query_id, pt.phrase,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum,
           count(*)::BIGINT AS n_found
    FROM (SELECT query_id, phrase, unnest(p) AS term FROM phq) pt
    JOIN df USING (term) CROSS JOIN stats s
    GROUP BY pt.query_id, pt.phrase
),
phok AS (
    SELECT phq.query_id, phq.phrase, phq.p, phidf.idf_sum
    FROM phq JOIN phidf USING (query_id, phrase)
    WHERE phidf.n_found = len(phq.p)
),
phcand AS (
    SELECT DISTINCT pk.query_id, pk.phrase, t.docid
    FROM phok pk JOIN tf t ON t.term = pk.p[1]
),
phtf AS (
    SELECT c.query_id, c.phrase, c.docid,
           len([i FOR i IN range(1, len(d.ts) - len(pk.p) + 2)
                IF d.ts[i:i + len(pk.p) - 1] = pk.p])::BIGINT AS ptf
    FROM phcand c
    JOIN phok pk ON pk.query_id = c.query_id AND pk.phrase = c.phrase
    JOIN docs d ON d.docid = c.docid
    WHERE len(d.ts) >= len(pk.p)
),
ph_scored AS (
    SELECT p.query_id, p.docid,
           round(pk.idf_sum * (p.ptf * (1.2 + 1)
               / (p.ptf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))), 6) AS s
    FROM phtf p
    JOIN phok pk ON pk.query_id = p.query_id AND pk.phrase = p.phrase
    JOIN dl ON dl.docid = p.docid
    CROSS JOIN stats s
    WHERE p.ptf > 0
),
ph_leg AS (
    SELECT ps.query_id, ps.docid, sum(ps.s) AS s
    FROM ph_scored ps
    ANTI JOIN neg n ON n.query_id = ps.query_id AND n.docid = ps.docid
    GROUP BY ps.query_id, ps.docid
),
combined AS (
    SELECT coalesce(t.query_id, p.query_id) AS query_id,
           coalesce(t.docid, p.docid) AS docid,
           floor((coalesce(t.s, 0) + coalesce(p.s, 0)) * 1000000 + 0.5) / 1000000 AS score
    FROM term_leg t FULL OUTER JOIN ph_leg p
      ON t.query_id = p.query_id AND t.docid = p.docid
),
ranked AS (
    SELECT query_id, docid, score,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM combined
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score
FROM ranked r JOIN q USING (query_id)
WHERE r.rank <= q.k
ORDER BY query_id, rank
"""
    # boosting query: positive BM25 scoring; docs also matching the
    # negative query ('w000200 tool') score * 0.5 (exact halving)
    out["bm25_boosting"] = f"""
WITH {docs}, {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
neg AS (SELECT DISTINCT docid FROM toks WHERE term IN ('w000200', 'tool')),
adj AS (
    SELECT sc.query_id, sc.k, sc.docid,
           CASE WHEN n.docid IS NOT NULL THEN sc.score * 0.5 ELSE sc.score END AS score
    FROM scored sc LEFT JOIN neg n USING (docid)
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM adj
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # hybrid RRF: bm25-disjunction and exact-phrase legs each ranked over
    # their full match set by (round6 desc, docid), fused by 1/(60+rank)
    out["bm25_hybrid"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
toks AS MATERIALIZED (SELECT docid, unnest(ts) AS term FROM docs),
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS MATERIALIZED (
    SELECT query_id, k, regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{phrase_pq}')
),
qd AS (SELECT query_id, unnest(list_distinct(p)) AS term FROM q),
bm_scored AS (
    SELECT qd.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM qd JOIN tf USING (term) JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid CROSS JOIN stats s
    GROUP BY qd.query_id, tf.docid
),
bm_rank AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY round(score, 6) DESC, docid) AS rank
    FROM bm_scored
),
qidf AS (
    SELECT qt.query_id, sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum,
           count(*)::BIGINT AS n_found
    FROM (SELECT query_id, unnest(p) AS term FROM q) qt
    JOIN df USING (term) CROSS JOIN stats s
    GROUP BY qt.query_id
),
qok AS (
    SELECT q.query_id, q.p, qidf.idf_sum
    FROM q JOIN qidf USING (query_id)
    WHERE qidf.n_found = len(q.p) AND len(q.p) > 0
),
cand AS (
    SELECT DISTINCT qk.query_id, t.docid
    FROM qok qk JOIN tf t ON t.term = qk.p[1]
),
ptf AS (
    SELECT c.query_id, c.docid,
           len([i FOR i IN range(1, len(d.ts) - len(qk.p) + 2)
                IF d.ts[i:i + len(qk.p) - 1] = qk.p])::BIGINT AS ptf
    FROM cand c
    JOIN qok qk USING (query_id)
    JOIN docs d ON d.docid = c.docid
    WHERE len(d.ts) >= len(qk.p)
),
ph_scored AS (
    SELECT p.query_id, p.docid,
           qk.idf_sum * (p.ptf * (1.2 + 1)
               / (p.ptf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM ptf p JOIN qok qk USING (query_id)
    JOIN dl ON dl.docid = p.docid CROSS JOIN stats s
    WHERE p.ptf > 0
),
ph_rank AS (
    SELECT query_id, docid,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY round(score, 6) DESC, docid) AS rank
    FROM ph_scored
),
fused AS (
    SELECT coalesce(b.query_id, p.query_id) AS query_id,
           coalesce(b.docid, p.docid) AS docid,
           floor((coalesce(1.0 / (60 + b.rank), 0)
                  + coalesce(1.0 / (60 + p.rank), 0)) * 1000000 + 0.5) / 1000000 AS score
    FROM bm_rank b FULL OUTER JOIN ph_rank p
      ON b.query_id = p.query_id AND b.docid = p.docid
),
ranked AS (
    SELECT query_id, docid, score,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM fused
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score
FROM ranked r JOIN (SELECT query_id, any_value(k) AS k FROM q GROUP BY query_id) qq USING (query_id)
WHERE r.rank <= qq.k
ORDER BY query_id, rank
"""
    # rescore: BM25 top-30 window (rounded re-rank picks the window),
    # re-scored by the same text as an exact phrase; final = round6(bm25)
    # + round6(phrase) via the half-up floor trick, re-ranked, top-10.
    out["bm25_rescore"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
toks AS MATERIALIZED (SELECT docid, unnest(ts) AS term FROM docs),
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS MATERIALIZED (
    SELECT query_id, k, regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{phrase_pq}')
),
qd AS (SELECT query_id, unnest(list_distinct(p)) AS term FROM q),
scored AS (
    SELECT qd.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM qd
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY qd.query_id, tf.docid
),
win AS (
    SELECT query_id, docid, round(score, 6) AS b,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
),
qidf AS (
    SELECT qt.query_id, sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum,
           count(*)::BIGINT AS n_found
    FROM (SELECT query_id, unnest(p) AS term FROM q) qt
    JOIN df USING (term) CROSS JOIN stats s
    GROUP BY qt.query_id
),
qok AS (
    SELECT q.query_id, q.p, qidf.idf_sum
    FROM q JOIN qidf USING (query_id)
    WHERE qidf.n_found = len(q.p) AND len(q.p) > 0
),
ptf AS (
    SELECT w.query_id, w.docid,
           len([i FOR i IN range(1, len(d.ts) - len(qk.p) + 2)
                IF d.ts[i:i + len(qk.p) - 1] = qk.p])::BIGINT AS ptf
    FROM win w
    JOIN qok qk USING (query_id)
    JOIN docs d ON d.docid = w.docid
    WHERE w.rank <= 30 AND len(d.ts) >= len(qk.p)
),
pscore AS (
    SELECT p.query_id, p.docid,
           round(qk.idf_sum * (p.ptf * (1.2 + 1)
               / (p.ptf + 1.2 * (1 - 0.75 + 0.75 * len(d.ts) / s.avgdl))), 6) AS ph
    FROM ptf p
    JOIN qok qk USING (query_id)
    JOIN docs d ON d.docid = p.docid
    CROSS JOIN stats s
    WHERE p.ptf > 0
),
combined AS (
    SELECT w.query_id, w.docid,
           floor((w.b + coalesce(ps.ph, 0)) * 1000000 + 0.5) / 1000000 AS score
    FROM win w LEFT JOIN pscore ps USING (query_id, docid)
    WHERE w.rank <= 30
),
ranked AS (
    SELECT query_id, docid, score,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM combined
)
SELECT r.query_id, r.rank::INT AS rank, r.docid, r.score
FROM ranked r JOIN (SELECT query_id, any_value(k) AS k FROM q GROUP BY query_id) qq USING (query_id)
WHERE r.rank <= 10
ORDER BY query_id, rank
"""
    # span_near in_order=false (2-term): sloppy_freq = forward + backward
    # greedy-chain legs (each the phrase_slop comprehension); equal terms
    # degenerate to the forward leg only (mirrors the engine)
    slop_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_phrase_slop_queries.parquet")
    out["bm25_span_near"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
stats AS (SELECT count(*)::BIGINT AS n_docs, sum(len(ts))::DOUBLE / count(*) AS avgdl FROM docs),
tm AS MATERIALIZED (SELECT docid, unnest(list_distinct(ts)) AS term FROM docs),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tm GROUP BY term),
q AS MATERIALIZED (
    SELECT query_id, k, slop::BIGINT AS slop,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{slop_pq}')
),
qterm AS (SELECT query_id, unnest(p) AS term FROM q),
qidf AS (
    SELECT qt.query_id, sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum,
           count(*)::BIGINT AS n_found
    FROM qterm qt JOIN df USING (term) CROSS JOIN stats s
    GROUP BY qt.query_id
),
qok AS (
    SELECT q.query_id, q.k, q.slop, q.p, qidf.idf_sum
    FROM q JOIN qidf USING (query_id)
    WHERE qidf.n_found = len(q.p) AND len(q.p) = 2
),
cand AS (
    SELECT DISTINCT qok.query_id, t1.docid
    FROM qok
    JOIN tm t1 ON t1.term = qok.p[1]
    JOIN tm t2 ON t2.term = qok.p[2] AND t2.docid = t1.docid
),
stf AS (
    SELECT c.query_id, c.docid,
           list_sum(
               [1.0 / (list_min([z FOR z IN p2 IF z > x]) - x)
                FOR x IN p1
                IF len([z FOR z IN p2 IF z > x]) > 0
                   AND list_min([z FOR z IN p2 IF z > x]) - x - 1 <= q.slop]
           ) AS fwd,
           CASE WHEN q.p[1] = q.p[2] THEN NULL ELSE
           list_sum(
               [1.0 / (list_min([z FOR z IN p1 IF z > x]) - x)
                FOR x IN p2
                IF len([z FOR z IN p1 IF z > x]) > 0
                   AND list_min([z FOR z IN p1 IF z > x]) - x - 1 <= q.slop]
           ) END AS bwd,
           len(d.ts) AS dl
    FROM cand c
    JOIN qok q ON q.query_id = c.query_id
    JOIN docs d ON d.docid = c.docid,
    LATERAL (SELECT [i FOR i IN range(1, len(d.ts) + 1) IF d.ts[i] = q.p[1]] AS p1,
                    [i FOR i IN range(1, len(d.ts) + 1) IF d.ts[i] = q.p[2]] AS p2) pos
),
summed AS (
    SELECT query_id, docid, coalesce(fwd, 0) + coalesce(bwd, 0) AS stf, dl
    FROM stf
),
scored AS (
    SELECT f.query_id, f.docid, q.k,
           q.idf_sum * (f.stf * (1.2 + 1)
               / (f.stf + 1.2 * (1 - 0.75 + 0.75 * f.dl / s.avgdl))) AS score
    FROM summed f
    JOIN qok q USING (query_id)
    CROSS JOIN stats s
    WHERE f.stf > 0
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # sloppy phrase (2-term queries), Lucene transposition-tolerant
    # (stages/search._nearest_stf): for each occurrence x of term1 the
    # nearest ADJUSTED term2 position (z - 1, either side of x) is chosen;
    # gap = min over z of abs(z - 1 - x); weight 1/(1+gap) when gap <= slop
    # — a transposed pair costs 2. stf = sum of weights (ascending x,
    # mirroring the engine's bincount order); BM25 saturation as in phrase.
    slop_pq = os.path.join(ARTIFACT_ROOT, f"{sf}_phrase_slop_queries.parquet")
    out["bm25_phrase_slop"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
stats AS (SELECT count(*)::BIGINT AS n_docs, sum(len(ts))::DOUBLE / count(*) AS avgdl FROM docs),
tm AS MATERIALIZED (SELECT docid, unnest(list_distinct(ts)) AS term FROM docs),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tm GROUP BY term),
q AS MATERIALIZED (
    SELECT query_id, k, slop::BIGINT AS slop,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS p
    FROM read_parquet('{slop_pq}')
),
qterm AS (SELECT query_id, unnest(p) AS term FROM q),
qidf AS (
    SELECT qt.query_id, sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))) AS idf_sum,
           count(*)::BIGINT AS n_found
    FROM qterm qt JOIN df USING (term) CROSS JOIN stats s
    GROUP BY qt.query_id
),
qok AS (
    SELECT q.query_id, q.k, q.slop, q.p, qidf.idf_sum
    FROM q JOIN qidf USING (query_id)
    WHERE qidf.n_found = len(q.p) AND len(q.p) = 2
),
cand AS (
    SELECT DISTINCT qok.query_id, tm.docid
    FROM qok JOIN tm ON tm.term = qok.p[1]
),
stf AS (
    SELECT c.query_id, c.docid,
           list_sum(
               [1.0 / (1 + list_min([abs(z - 1 - x) FOR z IN p2]))
                FOR x IN p1
                IF len(p2) > 0
                   AND list_min([abs(z - 1 - x) FOR z IN p2]) <= q.slop]
           ) AS stf, len(d.ts) AS dl
    FROM cand c
    JOIN qok q ON q.query_id = c.query_id
    JOIN docs d ON d.docid = c.docid,
    LATERAL (SELECT [i FOR i IN range(1, len(d.ts) + 1) IF d.ts[i] = q.p[1]] AS p1,
                    [i FOR i IN range(1, len(d.ts) + 1) IF d.ts[i] = q.p[2]] AS p2) pos
),
scored AS (
    SELECT f.query_id, f.docid, q.k,
           q.idf_sum * (f.stf * (1.2 + 1)
               / (f.stf + 1.2 * (1 - 0.75 + 0.75 * f.dl / s.avgdl))) AS score
    FROM stf f
    JOIN qok q USING (query_id)
    CROSS JOIN stats s
    WHERE f.stf IS NOT NULL AND f.stf > 0
),
ranked AS (
    SELECT query_id, docid, round(score, 6) AS score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY round(score, 6) DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # matrix_stats: exact int64 moments per query's match set, float ops in
    # the engine's exact order (mean=s/n; var=s2/n-m^2; cov=sxy/n-mx*my)
    out["bm25_matrix_stats"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
moms AS (
    SELECT m.query_id, count(*)::BIGINT AS n,
           sum(dl.dl)::BIGINT AS sx, sum(d.turn_idx)::BIGINT AS sy,
           sum(dl.dl * dl.dl)::BIGINT AS sxx,
           sum(d.turn_idx::BIGINT * d.turn_idx)::BIGINT AS syy,
           sum(dl.dl * d.turn_idx)::BIGINT AS sxy
    FROM m JOIN docs d USING (docid) JOIN dl USING (docid)
    GROUP BY m.query_id
),
deriv AS (
    SELECT query_id, n,
           sx::DOUBLE / n AS mx, sy::DOUBLE / n AS my,
           sxx::DOUBLE / n - (sx::DOUBLE / n) * (sx::DOUBLE / n) AS vx,
           syy::DOUBLE / n - (sy::DOUBLE / n) * (sy::DOUBLE / n) AS vy,
           sxy::DOUBLE / n - (sx::DOUBLE / n) * (sy::DOUBLE / n) AS cov
    FROM moms
)
SELECT query_id, n AS n_docs,
       floor(mx * 1000000 + 0.5) / 1000000 AS mean_x,
       floor(my * 1000000 + 0.5) / 1000000 AS mean_y,
       floor(vx * 1000000 + 0.5) / 1000000 AS var_x,
       floor(vy * 1000000 + 0.5) / 1000000 AS var_y,
       floor(cov * 1000000 + 0.5) / 1000000 AS covariance,
       floor((CASE WHEN vx * vy > 0 THEN cov / sqrt(vx * vy) ELSE 0.0 END)
             * 1000000 + 0.5) / 1000000 AS correlation
FROM deriv
ORDER BY query_id
"""
    # bucket_script: per-day bucket's percent of the query's total matches
    out["bm25_bucket_script"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
h AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
),
tot AS (SELECT query_id, sum(n_docs)::DOUBLE AS total FROM h GROUP BY query_id)
SELECT h.query_id, h.key, h.n_docs,
       floor((h.n_docs::DOUBLE / tot.total * 100) * 1000000 + 0.5) / 1000000
           AS pct_of_total
FROM h JOIN tot USING (query_id)
ORDER BY h.query_id, h.key
"""
    # moving_fn: trailing-3-present-bucket max/min/sum over the day histogram
    out["bm25_moving_fn"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
h AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
)
SELECT query_id, key, n_docs,
       (max(n_docs) OVER w)::BIGINT AS mov_max,
       (min(n_docs) OVER w)::BIGINT AS mov_min,
       (sum(n_docs) OVER w)::BIGINT AS mov_sum
FROM h
WINDOW w AS (PARTITION BY query_id ORDER BY key
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
ORDER BY query_id, key
"""
    # _count / track_total_hits: exact match count, 0 for zero-match queries
    out["bm25_count"] = f"""
WITH {docs}, {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
c AS (SELECT query_id, count(*)::BIGINT AS n FROM m GROUP BY query_id)
SELECT qq.query_id, COALESCE(c.n, 0)::BIGINT AS total_hits
FROM (SELECT DISTINCT query_id FROM read_parquet('{_queries_path(sf)}')) qq
LEFT JOIN c USING (query_id)
ORDER BY qq.query_id
"""
    # sampler + terms sub-agg: terms counts over each query's top-20 matched
    # docs by rounded relevance only (BestDocsDeferringCollector)
    out["bm25_sampler"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
rn AS (
    SELECT sc.query_id, sc.docid, d.role AS key,
           row_number() OVER (PARTITION BY sc.query_id
                              ORDER BY floor(sc.score * 1000000 + 0.5) / 1000000 DESC,
                                       sc.docid) AS rank
    FROM scored sc JOIN docs d USING (docid)
)
SELECT query_id, key, count(*)::BIGINT AS doc_count
FROM rn WHERE rank <= 20
GROUP BY query_id, key
ORDER BY query_id, doc_count DESC, key
"""
    # diversified_sampler: within-role rank <= 3 on rounded scores, then the
    # global top-20 (== greedy best-first under the per-key cap)
    out["bm25_diversified_sampler"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
withkey AS (
    SELECT sc.query_id, sc.docid, d.role AS key,
           floor(sc.score * 1000000 + 0.5) / 1000000 AS score
    FROM scored sc JOIN docs d USING (docid)
),
rn AS (
    SELECT *, row_number() OVER (PARTITION BY query_id, key
                                 ORDER BY score DESC, docid) AS krn
    FROM withkey
),
sel AS (
    SELECT query_id, docid, key, score,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, docid) AS rank
    FROM rn WHERE krn <= 3
)
SELECT query_id, rank::INT AS rank, docid, key, score
FROM sel WHERE rank <= 20
ORDER BY query_id, rank
"""
    # distance_feature: BM25 + boost * pivot / (pivot + |ts - origin|),
    # origin = newest turn, pivot = 1 week, boost = 2.5
    out["bm25_distance_feature"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
tf AS MATERIALIZED (SELECT docid, term, count(*)::BIGINT AS tf FROM toks GROUP BY docid, term),
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
totals AS (SELECT sum(dl)::DOUBLE AS total_len FROM dl),
ndocs AS (SELECT count(*)::BIGINT AS n_docs FROM docs),
stats AS (SELECT n_docs, total_len / n_docs AS avgdl FROM ndocs CROSS JOIN totals),
tsv AS (SELECT docid, epoch_us(ts) AS v FROM docs),
bounds AS (SELECT max(v)::DOUBLE AS origin FROM tsv),
q AS (
    SELECT query_id, k,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
scored AS (
    SELECT q.query_id, any_value(q.k) AS k, tf.docid,
           sum(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl))) AS score
    FROM q
    JOIN tf USING (term)
    JOIN df USING (term)
    JOIN dl ON tf.docid = dl.docid
    CROSS JOIN stats s
    GROUP BY q.query_id, tf.docid
),
boosted AS (
    SELECT sc.query_id, sc.k, sc.docid,
           floor((sc.score + 2.5 * (604800000000.0
                  / (604800000000.0 + abs(t.v::DOUBLE - b.origin))))
                 * 1000000 + 0.5) / 1000000 AS score
    FROM scored sc JOIN tsv t ON sc.docid = t.docid CROSS JOIN bounds b
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM boosted
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # span_first: single-term inner span at position < span_end (0-based;
    # 1-based generate_subscripts pos <= span_end), freq = qualifying
    # positions, scored idf * tfnorm(freq, dl)
    spanfirst_q = _ensure_spanfirst_queries(ORACLE_SF_DIR)
    out["bm25_span_first"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
stats AS (SELECT count(*)::BIGINT AS n_docs,
                 sum(len(ts))::DOUBLE / count(*) AS avgdl FROM docs),
tm AS MATERIALIZED (SELECT docid, unnest(list_distinct(ts)) AS term FROM docs),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tm GROUP BY term),
tp AS MATERIALIZED (
    SELECT docid, unnest(ts) AS term, generate_subscripts(ts, 1) AS pos
    FROM docs
),
dl AS (SELECT docid, len(ts)::BIGINT AS dl FROM docs),
q AS (
    SELECT query_id, k, span_end::BIGINT AS span_end,
           regexp_extract_all(lower(text), '[a-z0-9_]+')[1] AS term
    FROM read_parquet('{spanfirst_q}')
    WHERE len(regexp_extract_all(lower(text), '[a-z0-9_]+')) > 0
),
stf AS (
    SELECT q.query_id, any_value(q.k) AS k, tp.docid, count(*)::BIGINT AS tf,
           any_value(q.term) AS term
    FROM q JOIN tp ON tp.term = q.term AND tp.pos <= q.span_end
    GROUP BY q.query_id, tp.docid
),
scored AS (
    SELECT stf.query_id, stf.k, stf.docid,
           round(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                 * stf.tf * (1.2 + 1)
                 / (stf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)), 6) AS score
    FROM stf
    JOIN df USING (term)
    JOIN dl ON stf.docid = dl.docid
    CROSS JOIN stats s
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # span_not: an include occurrence at 1-based pos p survives unless the
    # exclude term occurs in [p-1, p+2] in the same doc (0/1-based windows
    # coincide — both endpoints shift by one); freq = survivors, scored
    # idf * tfnorm(freq, dl). NULL/absent exclude excludes nothing.
    spannot_q = _ensure_spannot_queries(ORACLE_SF_DIR)
    out["bm25_span_not"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
stats AS (SELECT count(*)::BIGINT AS n_docs,
                 sum(len(ts))::DOUBLE / count(*) AS avgdl FROM docs),
tm AS MATERIALIZED (SELECT docid, unnest(list_distinct(ts)) AS term FROM docs),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tm GROUP BY term),
tp AS MATERIALIZED (
    SELECT docid, unnest(ts) AS term, generate_subscripts(ts, 1) AS pos
    FROM docs
),
dl AS (SELECT docid, len(ts)::BIGINT AS dl FROM docs),
q AS (
    SELECT query_id, k,
           regexp_extract_all(lower(text), '[a-z0-9_]+')[1] AS term,
           regexp_extract_all(lower(coalesce(span_exclude, '')), '[a-z0-9_]+')[1] AS excl
    FROM read_parquet('{spannot_q}')
    WHERE len(regexp_extract_all(lower(text), '[a-z0-9_]+')) > 0
),
inc AS (
    SELECT q.query_id, q.k, q.term, q.excl, tp.docid, tp.pos
    FROM q JOIN tp ON tp.term = q.term
),
stf AS (
    SELECT i.query_id, any_value(i.k) AS k, i.docid, count(*)::BIGINT AS tf,
           any_value(i.term) AS term
    FROM inc i
    WHERE i.excl IS NULL OR NOT EXISTS (
        SELECT 1 FROM tp te
        WHERE te.docid = i.docid AND te.term = i.excl
          AND te.pos BETWEEN i.pos - 1 AND i.pos + 2)
    GROUP BY i.query_id, i.docid
),
scored AS (
    SELECT stf.query_id, stf.k, stf.docid,
           round(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                 * stf.tf * (1.2 + 1)
                 / (stf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)), 6) AS score
    FROM stf
    JOIN df USING (term)
    JOIN dl ON stf.docid = dl.docid
    CROSS JOIN stats s
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # span_containing / span_within: big = minimal ordered two-term window
    # (per end position p2, start = the closest preceding t1 with gap <=
    # slop); containing counts big spans holding a little occurrence,
    # within counts little occurrences inside some big span. 1-based SQL
    # positions shift both span ends equally, so the windows coincide.
    spancont_q = _ensure_spancontain_queries(ORACLE_SF_DIR)
    _SPAN_BIG_SCAFFOLD = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           regexp_extract_all(lower(text), '[a-z0-9_]+') AS ts
    FROM read_parquet('{_transcripts_glob(sf)}')
),
stats AS (SELECT count(*)::BIGINT AS n_docs,
                 sum(len(ts))::DOUBLE / count(*) AS avgdl FROM docs),
tm AS MATERIALIZED (SELECT docid, unnest(list_distinct(ts)) AS term FROM docs),
df AS MATERIALIZED (SELECT term, count(*)::BIGINT AS df FROM tm GROUP BY term),
tp AS MATERIALIZED (
    SELECT docid, unnest(ts) AS term, generate_subscripts(ts, 1) AS pos
    FROM docs
),
dl AS (SELECT docid, len(ts)::BIGINT AS dl FROM docs),
q AS (
    SELECT query_id, k, slop::BIGINT AS slop,
           regexp_extract_all(lower(text), '[a-z0-9_]+')[1] AS t1,
           regexp_extract_all(lower(text), '[a-z0-9_]+')[2] AS t2,
           regexp_extract_all(lower(coalesce(span_little, '')), '[a-z0-9_]+')[1] AS little
    FROM read_parquet('{spancont_q}')
    WHERE len(regexp_extract_all(lower(text), '[a-z0-9_]+')) >= 2
),
big AS (
    SELECT q.query_id, tp2.docid, max(tp1.pos) AS s, tp2.pos AS e,
           any_value(q.little) AS little, any_value(q.k) AS k,
           any_value(q.t1) AS t1, any_value(q.t2) AS t2
    FROM q
    JOIN tp tp2 ON tp2.term = q.t2
    JOIN tp tp1 ON tp1.docid = tp2.docid AND tp1.term = q.t1
               AND tp1.pos < tp2.pos AND tp1.pos >= tp2.pos - q.slop - 1
    GROUP BY q.query_id, tp2.docid, tp2.pos
)"""
    out["bm25_span_containing"] = _SPAN_BIG_SCAFFOLD + """,
stf AS (
    SELECT b.query_id, any_value(b.k) AS k, b.docid, count(*)::BIGINT AS tf,
           any_value(b.t1) AS t1, any_value(b.t2) AS t2
    FROM big b
    WHERE b.little IS NOT NULL AND EXISTS (
        SELECT 1 FROM tp t3
        WHERE t3.docid = b.docid AND t3.term = b.little
          AND t3.pos BETWEEN b.s AND b.e)
    GROUP BY b.query_id, b.docid
),
scored AS (
    SELECT stf.query_id, stf.k, stf.docid,
           round((ln(1 + (s.n_docs - d1.df + 0.5) / (d1.df + 0.5))
                  + ln(1 + (s.n_docs - d2.df + 0.5) / (d2.df + 0.5)))
                 * stf.tf * (1.2 + 1)
                 / (stf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)), 6) AS score
    FROM stf
    JOIN df d1 ON d1.term = stf.t1
    JOIN df d2 ON d2.term = stf.t2
    JOIN dl ON stf.docid = dl.docid
    CROSS JOIN stats s
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    out["bm25_span_within"] = _SPAN_BIG_SCAFFOLD + """,
litt AS (
    SELECT q.query_id, q.k, q.little, tp.docid, tp.pos
    FROM q JOIN tp ON tp.term = q.little
),
stf AS (
    SELECT l.query_id, any_value(l.k) AS k, l.docid, count(*)::BIGINT AS tf,
           any_value(l.little) AS term
    FROM litt l
    WHERE EXISTS (
        SELECT 1 FROM big b
        WHERE b.query_id = l.query_id AND b.docid = l.docid
          AND b.s <= l.pos AND l.pos <= b.e)
    GROUP BY l.query_id, l.docid
),
scored AS (
    SELECT stf.query_id, stf.k, stf.docid,
           round(ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
                 * stf.tf * (1.2 + 1)
                 / (stf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)), 6) AS score
    FROM stf
    JOIN df USING (term)
    JOIN dl ON stf.docid = dl.docid
    CROSS JOIN stats s
),
ranked AS (
    SELECT query_id, docid, score, k,
           row_number() OVER (PARTITION BY query_id ORDER BY score DESC, docid) AS rank
    FROM scored
)
SELECT query_id, rank::INT AS rank, docid, score
FROM ranked WHERE rank <= k
ORDER BY query_id, rank
"""
    # percentiles_bucket: explicit linear interpolation over the sorted
    # per-day bucket counts (mirrors the engine's float op order exactly)
    out["bm25_percentiles_bucket"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
h AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, count(*)::BIGINT AS n_docs
    FROM m JOIN docs d USING (docid)
    GROUP BY m.query_id, date_trunc('day', d.ts)
),
arr AS (
    SELECT query_id, list_sort(list(n_docs)) AS v, count(*)::BIGINT AS n
    FROM h GROUP BY query_id
),
pcts AS (SELECT unnest([25.0, 50.0, 75.0]) AS pct),
calc AS (
    SELECT a.query_id, p.pct, a.v, a.n,
           (a.n - 1) * (p.pct / 100.0) AS hh,
           cast(floor((a.n - 1) * (p.pct / 100.0)) AS BIGINT) AS lo
    FROM arr a CROSS JOIN pcts p
)
SELECT query_id, pct,
       floor((v[lo + 1]::DOUBLE
              + (hh - lo) * (v[least(lo + 2, n)]::DOUBLE - v[lo + 1]::DOUBLE))
             * 1000000 + 0.5) / 1000000 AS value
FROM calc
ORDER BY query_id, pct
"""
    # cumulative_cardinality: distinct conv_ids first seen on or before each
    # present day bucket
    out["bm25_cum_cardinality"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, ts, text
    FROM read_parquet('{_transcripts_glob(sf)}')
), {_TOKS},
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term)),
md AS (
    SELECT m.query_id, date_trunc('day', d.ts) AS key, d.conv_id
    FROM m JOIN docs d USING (docid)
),
firsts AS (
    SELECT query_id, conv_id, min(key) AS first_day FROM md GROUP BY 1, 2
),
days AS (SELECT DISTINCT query_id, key FROM md)
SELECT days.query_id, days.key, count(*)::BIGINT AS cum_cardinality
FROM days JOIN firsts f
  ON f.query_id = days.query_id AND f.first_day <= days.key
GROUP BY days.query_id, days.key
ORDER BY days.query_id, days.key
"""
    # _mget: stored-field fetch by explicit docid, found=false for misses
    mget_q = _ensure_mget_requests(ORACLE_SF_DIR)
    out["bm25_mget"] = f"""
WITH docs AS MATERIALIZED (
    SELECT row_number() OVER (ORDER BY conv_id, turn_idx) - 1 AS docid,
           conv_id, turn_idx, role, text
    FROM read_parquet('{_transcripts_glob(sf)}')
)
SELECT r.query_id, r.docid, d.conv_id, d.turn_idx::BIGINT AS turn_idx,
       d.role, d.conv_id IS NOT NULL AS found
FROM read_parquet('{mget_q}') r
LEFT JOIN docs d USING (docid)
ORDER BY r.query_id, r.docid
"""
    # scripted_metric: the identical map expression, summed per match set
    out["bm25_scripted_metric"] = f"""
WITH {docs}, {_TOKS},
dl AS MATERIALIZED (SELECT docid, count(*)::BIGINT AS dl FROM toks GROUP BY docid),
q AS (
    SELECT query_id,
           unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9_]+'))) AS term
    FROM read_parquet('{_queries_path(sf)}')
),
m AS (SELECT DISTINCT q.query_id, t.docid FROM q JOIN toks t USING (term))
SELECT m.query_id, count(*)::BIGINT AS n_docs,
       sum(dl.dl * 2 + d.turn_idx)::BIGINT AS value
FROM m JOIN docs d USING (docid) JOIN dl USING (docid)
GROUP BY m.query_id
ORDER BY m.query_id
"""
    # pii_scrub: RE2 masking, emails first then 7+-digit runs, identical
    # deterministic augmentation on doc_id % 7 == 0
    out["pii_scrub"] = """
WITH aug AS (
    SELECT doc_id,
           CASE WHEN doc_id % 7 = 0
                THEN COALESCE(text, '') || ' user' || doc_id
                     || '@example.com call 5551234567'
                ELSE COALESCE(text, '') END AS t
    FROM documents
),
e AS (
    SELECT doc_id, t,
           regexp_replace(t, 'EMAILPAT', '<EMAIL>', 'g') AS te,
           len(regexp_extract_all(t, 'EMAILPAT'))::BIGINT AS n_emails
    FROM aug
)
SELECT doc_id,
       regexp_replace(te, 'NUMPAT', '<NUM>', 'g') AS clean_text,
       n_emails,
       len(regexp_extract_all(te, 'NUMPAT'))::BIGINT AS n_numbers
FROM e
ORDER BY doc_id
""".replace("EMAILPAT", "[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z][A-Za-z]+").replace("NUMPAT", "[0-9][0-9][0-9][0-9][0-9][0-9][0-9]+")
    # completion suggester: top-5 prefix expansions by (df desc, term asc)
    out["bm25_suggest_completion"] = f"""
WITH {docs}, {_TOKS},
tm AS MATERIALIZED (
    SELECT docid, term FROM (SELECT DISTINCT docid, term FROM toks)
),
df AS (SELECT term, count(*)::BIGINT AS df FROM tm GROUP BY term),
p AS (SELECT unnest(['a', 'th', 'w0001', 'w000', 'zz']) AS prefix),
exp AS (
    SELECT p.prefix, d.term, d.df,
           row_number() OVER (PARTITION BY p.prefix
                              ORDER BY d.df DESC, d.term) AS rn
    FROM p JOIN df d ON starts_with(d.term, p.prefix)
)
SELECT prefix, rn::INT AS rank, term, df
FROM exp WHERE rn <= 5
ORDER BY prefix, rank
"""
    # stratified sampling: identical deterministic keep rule per source
    out["stratified_sample"] = """
SELECT doc_id, source
FROM documents
WHERE (doc_id * 1000003 + 12345) % 100 <
      (CASE source WHEN 'src0' THEN 80 WHEN 'src1' THEN 50 WHEN 'src2' THEN 25 WHEN 'src3' THEN 10 ELSE 0 END)
ORDER BY doc_id
"""
    # dedup_apply: survivors = everything minus clustered non-minima
    out["dedup_apply_docs"] = f"""
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (
    SELECT doc_id FROM ({cluster_sql}) c WHERE doc_id <> cluster_id
)
ORDER BY d.doc_id
"""
    out["bm25_alias"] = out["bm25_filtered"]  # the alias IS the stored filter
    return out


# ---------------------------------------------------------------------------
# artifact generation (module bottom: all helpers defined above). Ray is
# initialised by the driver before import; in a bare process Ray Data
# auto-inits local for the IVF artifact.
# ---------------------------------------------------------------------------

_ensure_media_artifacts()
try:
    _ensure_simhash_artifact()
except Exception:  # noqa: BLE001 — oracle-scale testdata may be absent
    pass
try:
    _ensure_ivf_artifact(ORACLE_SF_DIR)
    _ensure_pq_artifact(ORACLE_SF_DIR)
    _ensure_sq_artifact(ORACLE_SF_DIR)
    _ensure_ivfpq_artifact(ORACLE_SF_DIR)
    _ensure_bq_artifact(ORACLE_SF_DIR)
    _ensure_kmeans_artifact(ORACLE_SF_DIR)
except Exception:  # noqa: BLE001
    pass
try:
    _ensure_phrase_queries(ORACLE_SF_DIR)
    _ensure_phrase_slop_queries(ORACLE_SF_DIR)
    _ensure_qs_queries(ORACLE_SF_DIR)
    _ensure_ps_queries(ORACLE_SF_DIR)
except Exception:  # noqa: BLE001
    pass
