"""Conjunctive matching (search(operator="and"), OpenSearch match
operator:and): a doc must contain EVERY query term; qualifying docs score
BIT-identically to the OR search (same BM25 sum). Verified vs a filtered
oracle in exhaustive and bmw modes."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import search
from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text


def _and_gold(oracle, queries: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for q in queries.itertuples(index=False):
        terms = sorted(set(tokenize_text(q.text or "")))
        if not terms:
            continue
        plists = [oracle.postings.get(t) for t in terms]
        if any(p is None for p in plists):
            continue  # a required term absent from the corpus: no hits
        docs = set(plists[0])
        for p in plists[1:]:
            docs &= set(p)
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
def test_and_rank_identity(smoke_fixture, smoke_index, smoke_oracle, mode):
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    gold = _and_gold(smoke_oracle, qdf)
    res = (
        search(smoke_index["index_dir"], smoke_fixture["queries"], mode=mode,
               operator="and")
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(res) == len(gold)
    assert len(res) > 0  # the fixture queries produce conjunctive hits
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_and_is_subset_of_or_with_equal_scores(smoke_fixture, smoke_index):
    # compare at exhaustive k so OR's top-k cutoff can't hide an AND hit
    q = pq.read_table(smoke_fixture["queries"]).to_pandas()
    q["k"] = np.int32(10**6)
    base = search(smoke_index["index_dir"], q, mode="exhaustive").to_pandas()
    conj = search(smoke_index["index_dir"], q, mode="exhaustive",
                  operator="and").to_pandas()
    m = conj.merge(base, on=["query_id", "docid"], suffixes=("_a", "_o"))
    assert len(m) == len(conj) > 0  # every AND hit is an OR hit
    np.testing.assert_array_equal(m["score_a"].to_numpy(), m["score_o"].to_numpy())


def test_and_missing_term_no_hits(smoke_fixture, smoke_index):
    q = pd.DataFrame({"query_id": [0], "text": ["w000000 zz_absent_term"],
                      "k": np.array([10], dtype=np.int32)})
    res = search(smoke_index["index_dir"], q, mode="bmw", operator="and").to_pandas()
    assert len(res) == 0


def test_and_invalid_mode_raises(smoke_fixture, smoke_index):
    with pytest.raises(ValueError, match="not supported"):
        search(smoke_index["index_dir"], smoke_fixture["queries"],
               mode="dismax", operator="and")
