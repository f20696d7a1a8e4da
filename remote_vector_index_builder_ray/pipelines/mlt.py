"""more_like_this: find docs similar to given docs (the OpenSearch
`more_like_this` query; Lucene MoreLikeThis).

Semantics frozen for cross-engine determinism:

1. Each like-doc's text is fetched from the pinned docmeta
   (``pipelines.query.hydrate``) and analyzed with the index tokenizer.
2. Candidate terms keep Lucene MLT's gates: ``tf >= min_term_freq`` within
   the like-doc and ``df >= min_doc_freq`` corpus-wide (df summed across
   live generations, read from the termstats buckets with an ``in``-filter
   so only matching row groups leave storage).
3. Candidates rank by ``tf * idf`` (the engine's BM25 idf over global N),
   rounded half-up to 6 decimals — the rounding makes the top-
   ``max_query_terms`` CUT identical in numpy and SQL — tie-break term
   ascending; the top terms form a plain BM25 disjunction.
4. The disjunction runs through the normal searcher (terms column); the
   like-doc itself is excluded from its results (OpenSearch MLT excludes
   the input docs).

Scale note (100 TB): steps 1-3 touch one docmeta row and a handful of
termstats row groups per like-doc — driver-small, like any query build. The
search fan-out is the standard actor-pool path.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from remote_vector_index_builder_ray.state import fs


def _global_idf_inputs(index_dir: str, terms: list[str]) -> tuple[int, dict[str, int]]:
    """(global N, per-term global df) for candidate terms, via termstats
    predicate pushdown (term-sorted row groups)."""
    from remote_vector_index_builder_ray.pipelines.expand import termstats_dirs
    from remote_vector_index_builder_ray.pipelines.incremental import global_stats

    n = int(global_stats(index_dir)["N"])
    df: dict[str, int] = {}
    if terms:
        for d in termstats_dirs(index_dir):
            for rel in fs.listdir(d, recursive=True):
                if not rel.endswith(".parquet"):
                    continue
                t = fs.read_table(
                    fs.join(d, rel), columns=["term", "df"],
                    filters=[("term", "in", terms)],
                )
                for term, v in zip(t["term"].to_pylist(), t["df"].to_pylist()):
                    df[term] = df.get(term, 0) + int(v)
    return n, df


def more_like_this(
    index_dir: str,
    doc_ids: list[int],
    k: int = 10,
    max_query_terms: int = 25,
    min_term_freq: int = 2,
    min_doc_freq: int = 5,
    mode: str = "bmw",
    **search_kw,
) -> pd.DataFrame:
    """Top-k docs similar to each of ``doc_ids`` (query_id = the like-doc's
    docid; the like-doc itself is excluded). Returns a pandas DataFrame of
    (query_id, rank, docid, score) — driver-small by construction."""
    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text,
        load_analyzer,
    )
    from remote_vector_index_builder_ray.pipelines.query import hydrate, search
    from remote_vector_index_builder_ray.stages.search import _idf, capped_k

    an = load_analyzer(index_dir)  # analyze like-doc text as the index did
    doc_ids = [int(d) for d in doc_ids]
    like = hydrate(index_dir, pd.DataFrame({"docid": doc_ids}), columns=["text"])
    # per like-doc term frequencies, gated by min_term_freq
    tf_by_doc: dict[int, dict[str, int]] = {}
    for r in like.itertuples(index=False):
        toks = analyze_text(r.text or "", an)
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        tf_by_doc[int(r.docid)] = {
            t: c for t, c in tf.items() if c >= min_term_freq
        }
    all_terms = sorted({t for tf in tf_by_doc.values() for t in tf})
    n, df = _global_idf_inputs(index_dir, all_terms)
    # rank candidates by rounded tf*idf (desc), term asc; take the top
    terms_by_doc: dict[int, list[str]] = {}
    for docid, tf in tf_by_doc.items():
        cands = []
        for t, c in tf.items():
            d = df.get(t, 0)
            if d < min_doc_freq:
                continue
            s = float(np.floor(c * _idf(n, d) * 1e6 + 0.5) / 1e6)
            cands.append((-s, t))
        cands.sort()
        terms_by_doc[docid] = [t for _, t in cands[:max_query_terms]]
    q = pd.DataFrame({"query_id": doc_ids})
    q["terms"] = [terms_by_doc.get(d, []) for d in doc_ids]
    q["k"] = capped_k(k + 1)  # the like-doc may occupy one slot
    res = search(index_dir, q, mode=mode, **search_kw).to_pandas()
    res = res[res["docid"] != res["query_id"]]
    res = res.sort_values(["query_id", "rank"]).reset_index(drop=True)
    res["rank"] = res.groupby("query_id").cumcount() + 1
    res = res[res["rank"] <= k]
    return res.astype(
        {"query_id": "int64", "rank": "int32", "docid": "int64", "score": "float64"}
    ).reset_index(drop=True)


def term_vectors(index_dir: str, doc_ids: list[int]) -> pd.DataFrame:
    """OpenSearch _termvectors API (term_statistics=true): per requested doc,
    each of its analyzed terms with the within-doc term frequency and the
    corpus-wide document frequency. Returns (docid, term, tf, df), sorted
    (docid, term).

    Same driver-small access pattern as more_like_this: one ``hydrate`` of
    the requested docs' text, a per-doc
    tokenize, and a termstats ``in``-filter read for the df column — a
    per-doc API never touches the corpus."""
    from remote_vector_index_builder_ray.functions.tokenizer import (
        analyze_text,
        load_analyzer,
    )
    from remote_vector_index_builder_ray.pipelines.query import hydrate

    an = load_analyzer(index_dir)
    doc_ids = [int(d) for d in doc_ids]
    like = hydrate(index_dir, pd.DataFrame({"docid": doc_ids}), columns=["text"])
    rows: list[tuple[int, str, int]] = []
    for r in like.itertuples(index=False):
        tf: dict[str, int] = {}
        for t in analyze_text(r.text or "", an):
            tf[t] = tf.get(t, 0) + 1
        rows.extend((int(r.docid), t, c) for t, c in tf.items())
    all_terms = sorted({t for _, t, _ in rows})
    _, df = _global_idf_inputs(index_dir, all_terms)
    out = pd.DataFrame(rows, columns=["docid", "term", "tf"])
    out["df"] = out["term"].map(df).fillna(0).astype(np.int64)
    return out.sort_values(["docid", "term"]).reset_index(drop=True).astype(
        {"docid": np.int64, "tf": np.int64, "df": np.int64}
    )
