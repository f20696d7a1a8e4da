"""minimum_should_match (search(min_should_match=n), OpenSearch match
minimum_should_match): a doc must contain at least n of the query's DISTINCT
terms; qualifying docs score BIT-identically to the OR search. n above the
query's term count matches nothing (an absent term still counts as a clause).
Verified vs a filtered oracle in exhaustive and bmw modes."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import search
from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text


def _msm_gold(oracle, queries: pd.DataFrame, n: int) -> pd.DataFrame:
    rows = []
    for q in queries.itertuples(index=False):
        terms = sorted(set(tokenize_text(q.text or "")))
        hit_count: dict[int, int] = {}
        for t in terms:
            for d in oracle.postings.get(t, ()):
                hit_count[d] = hit_count.get(d, 0) + 1
        docs = {d for d, c in hit_count.items() if c >= n}
        scores = oracle.score_query(q.text)
        items = sorted(
            ((d, s) for d, s in scores.items() if d in docs),
            key=lambda kv: (-kv[1], kv[0]),
        )[: int(q.k)]
        for rank, (docid, score) in enumerate(items, start=1):
            rows.append((int(q.query_id), rank, docid, score))
    return pd.DataFrame(rows, columns=["query_id", "rank", "docid", "score"]).astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64, "score": np.float64}
    )


@pytest.mark.parametrize("mode", ["exhaustive", "bmw"])
@pytest.mark.parametrize("n", [2, 3])
def test_msm_rank_identity(smoke_fixture, smoke_index, smoke_oracle, mode, n):
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    gold = _msm_gold(smoke_oracle, qdf, n)
    res = (
        search(smoke_index["index_dir"], smoke_fixture["queries"], mode=mode,
               min_should_match=n)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(res) == len(gold)
    assert len(res) > 0  # the fixture's multi-term queries produce msm hits
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_msm_1_equals_or(smoke_fixture, smoke_index):
    def _sorted(df):
        return df.sort_values(["query_id", "rank"]).reset_index(drop=True)

    base = search(smoke_index["index_dir"], smoke_fixture["queries"],
                  mode="exhaustive").to_pandas()
    msm1 = search(smoke_index["index_dir"], smoke_fixture["queries"],
                  mode="exhaustive", min_should_match=1).to_pandas()
    pd.testing.assert_frame_equal(_sorted(base), _sorted(msm1))


def test_msm_above_term_count_matches_nothing(smoke_index):
    q = pd.DataFrame({"query_id": [0], "text": ["w000000 the"],
                      "k": np.array([10], dtype=np.int32)})
    res = search(smoke_index["index_dir"], q, mode="bmw",
                 min_should_match=3).to_pandas()
    assert len(res) == 0


def test_msm_absent_term_counts_as_clause(smoke_index):
    # 2 terms, one absent: msm=2 can never be satisfied
    q = pd.DataFrame({"query_id": [0], "text": ["w000000 zz_absent_term"],
                      "k": np.array([10], dtype=np.int32)})
    res = search(smoke_index["index_dir"], q, mode="exhaustive",
                 min_should_match=2).to_pandas()
    assert len(res) == 0


def test_msm_validation(smoke_fixture, smoke_index):
    with pytest.raises(ValueError, match="redundant"):
        search(smoke_index["index_dir"], smoke_fixture["queries"],
               operator="and", min_should_match=2)
    with pytest.raises(ValueError, match="not supported"):
        search(smoke_index["index_dir"], smoke_fixture["queries"],
               mode="dismax", min_should_match=2)
    with pytest.raises(ValueError, match=">= 1"):
        search(smoke_index["index_dir"], smoke_fixture["queries"],
               min_should_match=0)
