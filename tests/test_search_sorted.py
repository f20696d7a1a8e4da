"""Field-sorted search (search_sorted): top-k of each query's full match set
ordered by a docmeta field, verified against a pandas brute force."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import search_sorted
from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

QUERIES = pd.DataFrame({
    "query_id": np.arange(3, dtype=np.int64),
    "text": ["w000123", "the w000200", "zz_absent"],
    "k": np.array([7, 5, 3], dtype=np.int32),
})


def _src(smoke_fixture) -> pd.DataFrame:
    df = pd.concat(
        [pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]]
    ).sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    df["docid"] = np.arange(len(df), dtype=np.int64)
    df["toks"] = [set(tokenize_text(t or "")) for t in df["text"]]
    return df


@pytest.mark.parametrize("ascending", [False, True])
def test_sorted_by_ts_matches_brute_force(smoke_fixture, smoke_index, ascending):
    df = _src(smoke_fixture)
    got = search_sorted(smoke_index["index_dir"], QUERIES, sort_field="ts",
                        ascending=ascending)
    rows = []
    for q in QUERIES.itertuples(index=False):
        terms = set(tokenize_text(q.text or ""))
        m = df[[bool(t & terms) for t in df["toks"]]]
        m = m.sort_values(["ts", "docid"], ascending=[ascending, True])
        for rank, r in enumerate(m.head(int(q.k)).itertuples(index=False), 1):
            rows.append((int(q.query_id), rank, int(r.docid), r.ts))
    exp = pd.DataFrame(rows, columns=["query_id", "rank", "docid", "ts"])
    assert len(exp) > 0
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True), check_dtype=False
    )


def test_sorted_by_doc_len(smoke_fixture, smoke_index):
    got = search_sorted(smoke_index["index_dir"], QUERIES,
                        sort_field="doc_len", ascending=False)
    # descending doc_len, docid-asc tie-break within each query
    for _, g in got.groupby("query_id"):
        v = g["doc_len"].to_numpy()
        assert (np.diff(v) <= 0).all()


def test_search_sorted_multi_matches_pandas(smoke_fixture, smoke_index):
    """Multi-key (role asc, ts desc) order equals a pandas lexicographic
    sort of the full match set — including batch-truncation correctness
    (k smaller than the per-batch match count)."""
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search_sorted_multi
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    src = pd.concat([pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]])
    src = src.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    src["docid"] = np.arange(len(src), dtype=np.int64)
    src["toks"] = src["text"].map(lambda t: set(tokenize_text(t or "")))
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(5)
    got = search_sorted_multi(smoke_index["index_dir"], qdf,
                              sort=[("role", True), ("ts", False)])
    for q in qdf.itertuples(index=False):
        terms = set(tokenize_text(q.text or ""))
        m = src[[bool(t & terms) for t in src["toks"]]]
        exp = m.sort_values(["role", "ts", "docid"],
                            ascending=[True, False, True]).head(int(q.k))
        g = got[got["query_id"] == int(q.query_id)]
        assert g["docid"].tolist() == exp["docid"].tolist(), q.text


def test_search_sorted_multi_descending_string_key(smoke_fixture, smoke_index):
    """A descending string key sorts on both sorted entries: one-key
    search_sorted_multi returns search_sorted's role-descending page."""
    from remote_vector_index_builder_ray import search_sorted_multi

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(5)
    got = search_sorted_multi(smoke_index["index_dir"], qdf, sort=[("role", False)])
    want = search_sorted(smoke_index["index_dir"], qdf, sort_field="role",
                         ascending=False)
    assert want["role"].nunique() > 1
    assert all(g["role"].is_monotonic_decreasing for _, g in want.groupby("query_id"))
    pd.testing.assert_frame_equal(got, want)


def test_sorted_search_after_pages(smoke_index, smoke_fixture):
    """Per-query (ts, docid) cursors: page 2 continues exactly where page 1
    ended — union of both pages == top-2k of the full sort, no overlap."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from remote_vector_index_builder_ray import search_sorted

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(6)
    p1 = search_sorted(smoke_index["index_dir"], qdf, sort_field="ts",
                       ascending=False)
    last = p1.sort_values(["query_id", "rank"]).groupby("query_id").tail(1)
    cursors = {int(r.query_id): (np.datetime64(r.ts, "us"), int(r.docid))
               for r in last.itertuples(index=False)}
    p2 = search_sorted(smoke_index["index_dir"], qdf, sort_field="ts",
                       ascending=False, after=cursors)
    both = pd.concat([p1, p2])
    assert not both.duplicated(["query_id", "docid"]).any()
    q2 = qdf.assign(k=(qdf["k"] * 2).astype("int32"))
    full = search_sorted(smoke_index["index_dir"], q2, sort_field="ts",
                         ascending=False)
    merged = (both.sort_values(["query_id", "ts", "docid"],
                               ascending=[True, False, True])
              .reset_index(drop=True))
    merged["rank"] = (merged.groupby("query_id").cumcount() + 1).astype("int32")
    pd.testing.assert_frame_equal(
        merged[["query_id", "rank", "docid", "ts"]],
        full.sort_values(["query_id", "rank"]).reset_index(drop=True)[
            ["query_id", "rank", "docid", "ts"]],
    )
