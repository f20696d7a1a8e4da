"""bool.must_not (exclude_text query column): docs containing ANY excluded
term drop from the candidate set; surviving docs score unchanged (exclusion
is non-scoring). Verified vs a filtered oracle in exhaustive and bmw modes."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import search
from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

EXCLUDES = ["the", "w000001", "zz_absent", ""]


def _with_excludes(qdf: pd.DataFrame) -> pd.DataFrame:
    q = qdf.copy()
    q["exclude_text"] = [EXCLUDES[int(i) % len(EXCLUDES)] for i in q["query_id"]]
    return q


def _gold(oracle, queries: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for q in queries.itertuples(index=False):
        dead = set()
        for t in set(tokenize_text(q.exclude_text or "")):
            dead.update(oracle.postings.get(t, {}).keys())
        scores = oracle.score_query(q.text)
        items = sorted(
            ((d, s) for d, s in scores.items() if d not in dead),
            key=lambda kv: (-kv[1], kv[0]),
        )[: int(q.k)]
        for rank, (docid, score) in enumerate(items, start=1):
            rows.append((int(q.query_id), rank, docid, score))
    return pd.DataFrame(rows, columns=["query_id", "rank", "docid", "score"]).astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64, "score": np.float64}
    )


@pytest.mark.parametrize("mode", ["exhaustive", "bmw"])
def test_must_not_rank_identity(smoke_fixture, smoke_index, smoke_oracle, mode):
    qdf = _with_excludes(pq.read_table(smoke_fixture["queries"]).to_pandas())
    gold = _gold(smoke_oracle, qdf)
    res = (
        search(smoke_index["index_dir"], qdf, mode=mode)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(res) == len(gold) > 0
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_must_not_self_exclusion_empties(smoke_index):
    # excluding the only query term excludes every hit
    q = pd.DataFrame({"query_id": [0], "text": ["w000001"],
                      "exclude_text": ["w000001"],
                      "k": np.array([10], dtype=np.int32)})
    res = search(smoke_index["index_dir"], q, mode="bmw").to_pandas()
    assert len(res) == 0


def test_must_not_rejected_in_dismax(smoke_fixture, smoke_index):
    qdf = _with_excludes(pq.read_table(smoke_fixture["queries"]).to_pandas())
    with pytest.raises(ValueError, match="not supported"):
        search(smoke_index["index_dir"], qdf, mode="dismax")


NEGATIVES = ["the", "w000001", "zz_absent", ""]


def test_boosting_query_matches_oracle(smoke_fixture, smoke_index, smoke_oracle):
    """Boosting query: negative matches keep matching at score * 0.5 (exact
    halving); demoted docs can fall out of the top-k and let others in."""
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    qdf["negative_text"] = [NEGATIVES[int(i) % len(NEGATIVES)] for i in qdf["query_id"]]
    rows = []
    for q in qdf.itertuples(index=False):
        demoted = set()
        for t in set(tokenize_text(q.negative_text or "")):
            demoted.update(smoke_oracle.postings.get(t, {}).keys())
        scores = smoke_oracle.score_query(q.text)
        items = sorted(
            ((d, s * 0.5 if d in demoted else s) for d, s in scores.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )[: int(q.k)]
        for rank, (docid, score) in enumerate(items, start=1):
            rows.append((int(q.query_id), rank, docid, score))
    gold = pd.DataFrame(rows, columns=["query_id", "rank", "docid", "score"]).astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64, "score": np.float64}
    )
    res = (
        search(smoke_index["index_dir"], qdf, mode="exhaustive", negative_boost=0.5)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert len(res) == len(gold) > 0
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())
    # demotion must actually reorder at least one query vs plain search
    plain = (
        search(smoke_index["index_dir"], qdf.drop(columns=["negative_text"]),
               mode="exhaustive")
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    assert res["docid"].tolist() != plain["docid"].tolist()


def test_boosting_rejected_outside_exhaustive(smoke_fixture, smoke_index):
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    qdf["negative_text"] = "the"
    with pytest.raises(ValueError, match="exhaustive"):
        search(smoke_index["index_dir"], qdf, mode="bmw")
