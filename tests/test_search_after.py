"""search_after pagination: per-query (after_score, after_docid) cursors
return docs strictly after the cursor in the engine's (score desc, docid asc)
order. Pages concatenated must BIT-equal the one-shot top-k."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import search


def _paginate(index_dir: str, q: pd.DataFrame, mode: str, size: int, pages: int):
    out = []
    cur = q.assign(k=np.int32(size))
    for _ in range(pages):
        res = search(index_dir, cur, mode=mode).to_pandas()
        if res.empty:
            break
        out.append(res)
        last = (
            res.sort_values(["query_id", "rank"]).groupby("query_id").tail(1)
        )
        cur = q.assign(k=np.int32(size)).merge(
            last[["query_id", "score", "docid"]].rename(
                columns={"score": "after_score", "docid": "after_docid"}
            ),
            on="query_id",
            how="inner",
        )
        if cur.empty:
            break
    return pd.concat(out) if out else pd.DataFrame(
        columns=["query_id", "rank", "docid", "score"]
    )


@pytest.mark.parametrize("mode", ["exhaustive", "bmw"])
def test_pages_concatenate_to_one_shot_topk(smoke_fixture, smoke_index, mode):
    q = pq.read_table(smoke_fixture["queries"]).to_pandas()
    size, pages = 5, 3
    paged = _paginate(smoke_index["index_dir"], q, mode, size, pages)
    oneshot = search(
        smoke_index["index_dir"], q.assign(k=np.int32(size * pages)), mode=mode
    ).to_pandas()
    paged = paged.sort_values(["query_id", "score", "docid"],
                              ascending=[True, False, True]).reset_index(drop=True)
    oneshot = oneshot.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert len(paged) == len(oneshot) > 0
    np.testing.assert_array_equal(paged["docid"].to_numpy(), oneshot["docid"].to_numpy())
    np.testing.assert_array_equal(paged["score"].to_numpy(), oneshot["score"].to_numpy())


def test_constant_mode_pagination(smoke_index):
    q = pd.DataFrame({"query_id": [0], "k": np.array([7], dtype=np.int32)})
    q["terms"] = [["w000000", "w000017"]]
    paged = _paginate(smoke_index["index_dir"], q, "constant", 7, 3)
    oneshot = search(
        smoke_index["index_dir"], q.assign(k=np.int32(21)), mode="constant"
    ).to_pandas()
    assert paged["docid"].tolist() == oneshot["docid"].tolist()
    assert len(paged) == 21


def test_search_after_rejected_in_dismax(smoke_fixture, smoke_index):
    q = pq.read_table(smoke_fixture["queries"]).to_pandas()
    q["after_score"] = 1.0
    q["after_docid"] = 0
    with pytest.raises(ValueError, match="not supported"):
        search(smoke_index["index_dir"], q, mode="dismax")


def test_scroll_pages_equal_oracle_topk(smoke_index, smoke_fixture, smoke_oracle):
    """scroll(page_size=5, n_pages=3) re-assembles the oracle's top-15 per
    query exactly (raw scores bit-equal), with correct page/rank numbering
    and no hit shipped twice."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.query import scroll

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(10)
    got = scroll(smoke_index["index_dir"], qdf, page_size=5, n_pages=3)
    assert not got.duplicated(["query_id", "docid"]).any()
    assert ((got["rank"] - 1) // 5 + 1 == got["page"]).all()
    want = smoke_oracle.run_queries(qdf.assign(k=np.int32(15)))
    got_cmp = got[["query_id", "rank", "docid", "score"]].reset_index(drop=True)
    want_cmp = want.sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got_cmp, want_cmp)


def test_scroll_exhausted_query_drops_out(smoke_index, smoke_fixture, smoke_oracle):
    """A query with fewer matches than one page stops scrolling after its
    short page; others keep paging."""
    import numpy as np
    import pandas as pd

    from remote_vector_index_builder_ray.pipelines.query import scroll

    q = pd.DataFrame({
        "query_id": np.array([0, 1], dtype=np.int64),
        "text": ["zz_absent_term", "the"],
        "k": np.array([5, 5], dtype=np.int32),
    })
    got = scroll(smoke_index["index_dir"], q, page_size=5, n_pages=2)
    assert 0 not in set(got["query_id"])
    assert (got[got["query_id"] == 1].groupby("page").size() == 5).all()


def test_search_named_matched_queries(smoke_index, smoke_fixture, smoke_oracle):
    """matched_queries annotation: hits carry the sorted names of the named
    clauses whose terms they contain; ranks/scores equal the plain search."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.functions.tokenizer import analyze_text
    from remote_vector_index_builder_ray.pipelines.query import search, search_named

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(6)
    qdf = qdf.assign(clause_a="the", clause_b=qdf["text"])
    got = search_named(smoke_index["index_dir"], qdf,
                       named={"a_the": "clause_a", "b_self": "clause_b"})
    plain = search(smoke_index["index_dir"], qdf, mode="bmw").to_pandas()
    pd.testing.assert_frame_equal(
        got[["query_id", "rank", "docid", "score"]].reset_index(drop=True),
        plain.sort_values(["query_id", "rank"]).reset_index(drop=True),
    )
    # brute-force membership from the raw corpus
    src = pd.concat([pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    toks_by_doc = {i: set(analyze_text(t or "", None)) for i, t in enumerate(src["text"])}
    text_by_qid = dict(zip(qdf["query_id"], qdf["text"]))
    for r in got.itertuples(index=False):
        names = []
        if "the" in toks_by_doc[int(r.docid)]:
            names.append("a_the")
        if set(analyze_text(text_by_qid[int(r.query_id)] or "", None)) & toks_by_doc[int(r.docid)]:
            names.append("b_self")
        assert r.matched_queries == ",".join(names), (r.query_id, r.docid)
        # every hit matched the main query == clause_b, so b_self is always on
        assert "b_self" in r.matched_queries


def test_search_script_fields(smoke_index, smoke_fixture):
    """script_fields: per-hit computed doc-value field equals the hydrated
    sources' arithmetic; ranks/scores equal the plain search."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.query import (
        hydrate,
        search,
        search_script_fields,
    )
    import ray.data

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(5)
    got = search_script_fields(smoke_index["index_dir"], qdf,
                               script="doc_len * 2 + turn_idx")
    plain = search(smoke_index["index_dir"], qdf, mode="bmw").to_pandas()
    pd.testing.assert_frame_equal(
        got[["query_id", "rank", "docid", "score"]].reset_index(drop=True),
        plain.sort_values(["query_id", "rank"]).reset_index(drop=True),
    )
    meta = hydrate(smoke_index["index_dir"],
                   ray.data.from_pandas(plain.reset_index(drop=True)))
    meta = meta.sort_values(["query_id", "rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(
        got["script_val"].to_numpy(),
        (meta["doc_len"].to_numpy(np.int64) * 2 + meta["turn_idx"].to_numpy(np.int64)),
    )


def test_multi_index_search_federates_with_local_stats(smoke_fixture, tmp_path_factory):
    """Two half-corpus indexes: each leg scores with ITS OWN stats
    (query_then_fetch); boosted rounded scores merge to a global top-k."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import BuildConfig, build_index
    from remote_vector_index_builder_ray.oracle import oracle_from_transcripts
    from remote_vector_index_builder_ray.pipelines.query import multi_index_search

    d = tmp_path_factory.mktemp("fed")
    full = pd.concat([pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]])
    convs = sorted(set(full["conv_id"]))
    cut = convs[len(convs) // 2]
    halves = {"a": full[full["conv_id"] < cut], "b": full[full["conv_id"] >= cut]}
    dirs, oracles = [], {}
    for lab, part in halves.items():
        pth = str(d / f"{lab}.parquet")
        pq.write_table(pa.Table.from_pandas(part, preserve_index=False), pth)
        idx = str(d / f"idx_{lab}")
        build_index(BuildConfig(input_paths=[pth], index_dir=idx))
        dirs.append(idx)
        oracles[lab] = oracle_from_transcripts(part)

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(8)
    k = 5
    got = multi_index_search(dirs, qdf, k=k, boosts=[1.0, 2.0], labels=["a", "b"])
    rows = []
    for q in qdf.itertuples(index=False):
        cand = []
        for lab, boost in (("a", 1.0), ("b", 2.0)):
            for docid, s in oracles[lab].score_query(q.text).items():
                cand.append((np.floor(s * boost * 1e6 + 0.5) / 1e6, lab, docid))
        cand.sort(key=lambda t: (-t[0], t[1], t[2]))
        for rank, (s, lab, docid) in enumerate(cand[:k], start=1):
            rows.append((int(q.query_id), rank, lab, docid, s))
    want = pd.DataFrame(rows, columns=["query_id", "rank", "index", "docid", "score"]).astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64, "score": np.float64})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_dfs_federation_equals_single_index(smoke_fixture, smoke_oracle, tmp_path_factory):
    """dfs_query_then_fetch over two half indexes == a one-index build over
    the union: blended (N, total_len, df) make leg scores globally
    comparable; docids map (leg, local) <-> global."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import BuildConfig, build_index
    from remote_vector_index_builder_ray.pipelines.query import multi_index_search

    d = tmp_path_factory.mktemp("dfs")
    full = pd.concat([pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]])
    full = full.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    convs = sorted(set(full["conv_id"]))
    cut = convs[len(convs) // 2]
    a, b = full[full["conv_id"] < cut], full[full["conv_id"] >= cut]
    n_a = len(a)
    dirs = []
    for lab, part in (("a", a), ("b", b)):
        pth = str(d / f"{lab}.parquet")
        pq.write_table(pa.Table.from_pandas(part, preserve_index=False), pth)
        idx = str(d / f"idx_{lab}")
        build_index(BuildConfig(input_paths=[pth], index_dir=idx))
        dirs.append(idx)

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(8)
    k = 5
    got = multi_index_search(dirs, qdf, k=k, labels=["a", "b"], dfs=True)
    rows = []
    for q in qdf.itertuples(index=False):
        scores = smoke_oracle.score_query(q.text)
        items = sorted(((np.floor(s * 1e6 + 0.5) / 1e6, docid)
                        for docid, s in scores.items()),
                       key=lambda t: (-t[0], t[1]))[:k]
        for rank, (s, docid) in enumerate(items, start=1):
            lab = "a" if docid < n_a else "b"
            rows.append((int(q.query_id), rank, lab,
                         docid if docid < n_a else docid - n_a, s))
    want = pd.DataFrame(rows, columns=["query_id", "rank", "index", "docid", "score"]).astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64, "score": np.float64})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_search_min_score(smoke_index, smoke_fixture, smoke_oracle):
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.query import search_min_score

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(8)
    thr = 3.0
    got = search_min_score(smoke_index["index_dir"], qdf, min_score=thr)
    assert (got["score"] >= thr).all()
    rows = []
    for q in qdf.itertuples(index=False):
        items = sorted(((np.floor(s * 1e6 + 0.5) / 1e6, d)
                        for d, s in smoke_oracle.score_query(q.text).items()),
                       key=lambda t: (-t[0], t[1]))[: int(q.k)]
        kept = [(s, d) for s, d in items if s >= thr]
        for rank, (s, d) in enumerate(kept, start=1):
            rows.append((int(q.query_id), rank, d, s))
    want = pd.DataFrame(rows, columns=["query_id", "rank", "docid", "score"]).astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64, "score": np.float64})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_oversampled_k_saturates(smoke_index, smoke_fixture):
    """Every oversampled k (2k, or k + 1 in more_like_this) caps at
    2**31-1: a legal k of 2**30 used to wrap to a negative k in the int32
    cast (or overflow it), which the driver's k check then rejected."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray.pipelines.join import has_parent
    from remote_vector_index_builder_ray.pipelines.mlt import more_like_this
    from remote_vector_index_builder_ray.pipelines.query import (
        multi_index_search,
        search_min_score,
        search_with_pipeline,
    )
    from remote_vector_index_builder_ray.stages.search import K_MAX

    idx = smoke_index["index_dir"]
    q = pq.read_table(smoke_fixture["queries"]).to_pandas().head(4)
    big, all_hits = q.assign(k=np.int32(1 << 30)), q.assign(k=np.int32(1 << 20))
    got = search_min_score(idx, big, min_score=0.0)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, search_min_score(idx, all_hits, min_score=0.0))
    trunc = [{"truncate_hits": {"target_size": 3}}]
    pd.testing.assert_frame_equal(
        search_with_pipeline(idx, big, trunc, round6=True),
        search_with_pipeline(idx, all_hits, trunc, round6=True))
    pd.testing.assert_frame_equal(multi_index_search([idx], q, k=1 << 30),
                                  multi_index_search([idx], q, k=1 << 20))
    pd.testing.assert_frame_equal(has_parent(idx, q, k=1 << 30),
                                  has_parent(idx, q, k=1 << 20))
    pd.testing.assert_frame_equal(more_like_this(idx, [3, 7], k=K_MAX),
                                  more_like_this(idx, [3, 7], k=1 << 20))
