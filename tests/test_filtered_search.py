"""Filtered search (pipelines/query.search(where=...)): OpenSearch
filter-context semantics — the predicate restricts the candidate set while
corpus stats (N, avgdl, df) stay corpus-wide, so matching docs score
BIT-identically to an unfiltered search. Verified against a driver-side
filtered oracle in all three modes, plus predicate types and edge cases."""

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import search


def _corpus(smoke_fixture) -> pd.DataFrame:
    df = pd.concat([pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]])
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    df["docid"] = df.index.to_numpy()
    return df


def _filtered_gold(oracle, queries: pd.DataFrame, allowed: set[int]) -> pd.DataFrame:
    rows = []
    for q in queries.itertuples(index=False):
        scores = oracle.score_query(q.text)
        items = sorted(
            ((d, s) for d, s in scores.items() if d in allowed),
            key=lambda kv: (-kv[1], kv[0]),
        )[: int(q.k)]
        for rank, (docid, score) in enumerate(items, start=1):
            rows.append((int(q.query_id), rank, docid, score))
    return pd.DataFrame(rows, columns=["query_id", "rank", "docid", "score"]).astype(
        {"query_id": np.int64, "rank": np.int32, "docid": np.int64, "score": np.float64}
    )


@pytest.mark.parametrize("mode", ["exhaustive", "bmw"])
def test_role_filter_rank_identity(smoke_fixture, smoke_index, smoke_oracle, mode):
    df = _corpus(smoke_fixture)
    allowed = set(df.loc[df["role"] == "user", "docid"])
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    gold = _filtered_gold(smoke_oracle, qdf, allowed)
    res = (
        search(smoke_index["index_dir"], smoke_fixture["queries"], mode=mode,
               where=[("role", "=", "user")])
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(res) == len(gold)
    assert set(res["docid"]).issubset(allowed)
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    # filter context: scores of surviving docs BIT-equal the unfiltered run
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_expression_filter_and_conjunction(smoke_fixture, smoke_index, smoke_oracle):
    """pyarrow Expression predicates and multi-clause DNF both work."""
    df = _corpus(smoke_fixture)
    cut = sorted(df["conv_id"].unique())[len(df["conv_id"].unique()) // 2]
    allowed = set(df.loc[(df["role"] == "assistant") & (df["conv_id"] < cut), "docid"])
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    gold = _filtered_gold(smoke_oracle, qdf, allowed)
    for where in (
        [("role", "=", "assistant"), ("conv_id", "<", cut)],  # DNF conjunction
        (pc.field("role") == "assistant") & (pc.field("conv_id") < cut),
    ):
        res = (
            search(smoke_index["index_dir"], smoke_fixture["queries"],
                   mode="bmw", where=where)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
        np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_empty_filter_result(smoke_fixture, smoke_index):
    res = search(
        smoke_index["index_dir"], smoke_fixture["queries"], mode="bmw",
        where=[("role", "=", "no-such-role")],
    ).to_pandas()
    assert len(res) == 0


def test_unselective_filter_equals_unfiltered(smoke_fixture, smoke_index):
    base = (
        search(smoke_index["index_dir"], smoke_fixture["queries"], mode="exhaustive")
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    res = (
        search(smoke_index["index_dir"], smoke_fixture["queries"], mode="exhaustive",
               where=[("turn_idx", ">=", 0)])
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    np.testing.assert_array_equal(res["docid"].to_numpy(), base["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), base["score"].to_numpy())


def test_allow_docids_explicit_filter_context(smoke_fixture, smoke_index, smoke_oracle):
    """search(allow_docids=...) — the explicit allow-list used by
    rescore_phrase to bound its phrase leg: same filter-context semantics
    as `where` (candidates restricted, scores bit-unchanged)."""
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(10)
    allowed = set(range(0, 2000, 3))
    got = (
        search(smoke_index["index_dir"], qdf, mode="exhaustive",
               allow_docids=np.array(sorted(allowed), dtype=np.int64))
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    gold = _filtered_gold(smoke_oracle, qdf, allowed)
    np.testing.assert_array_equal(got["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(got["score"].to_numpy(), gold["score"].to_numpy())


def test_allow_docids_where_mutually_exclusive(smoke_fixture, smoke_index):
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(1)
    with pytest.raises(ValueError, match="not both"):
        search(smoke_index["index_dir"], qdf,
               where=[("role", "=", "user")],
               allow_docids=np.array([1, 2], dtype=np.int64))


def test_filter_text_allow_semantics(smoke_fixture, smoke_index, smoke_oracle):
    """bool.filter on the indexed field (per-query filter_text column):
    candidates must contain >= 1 filter term, survivors score bit-unchanged;
    an all-absent filter matches nothing; an empty one filters nothing."""
    import pandas as pd
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    src = pd.concat(
        [pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]]
    ).sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    has_the = {
        d for d, t in enumerate(src["text"]) if "the" in set(tokenize_text(t or ""))
    }
    qdf = pd.DataFrame({
        "query_id": np.array([0, 1, 2], dtype=np.int64),
        "text": ["w000123 w000200"] * 3,
        "k": np.array([2000, 2000, 2000], dtype=np.int32),
        "filter_text": ["the", "zz_absent", ""],
    })
    for mode in ("exhaustive", "bmw"):
        got = search(smoke_index["index_dir"], qdf, mode=mode).to_pandas()
        scores = smoke_oracle.score_query("w000123 w000200")
        base = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        # q0: restricted to docs containing "the", scores unchanged
        g0 = got[got["query_id"] == 0]
        exp0 = [(d, s) for d, s in base if d in has_the]
        assert g0["docid"].tolist() == [d for d, _ in exp0]
        np.testing.assert_array_equal(
            g0["score"].to_numpy(), np.array([s for _, s in exp0])
        )
        # q1: absent filter term -> no rows
        assert len(got[got["query_id"] == 1]) == 0
        # q2: empty filter -> identical to unfiltered
        g2 = got[got["query_id"] == 2]
        assert g2["docid"].tolist() == [d for d, _ in base]


def test_filtered_alias_roundtrip(smoke_index, smoke_fixture):
    """create_alias stores the filter; search_alias equals search(where=...);
    unknown alias and double-filter are typed errors."""
    import pandas as pd
    import pyarrow.parquet as pq
    import pytest as _pytest

    from remote_vector_index_builder_ray import search
    from remote_vector_index_builder_ray.config import EngineError
    from remote_vector_index_builder_ray.pipelines.incremental import (
        create_alias,
        search_alias,
    )

    out = create_alias(smoke_index["index_dir"], "users", where=[("role", "=", "user")])
    assert out["alias"] == "users"
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(6)
    via_alias = (search_alias(smoke_index["index_dir"], "users", qdf, mode="bmw")
                 .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True))
    direct = (search(smoke_index["index_dir"], qdf, mode="bmw",
                     where=[("role", "=", "user")])
              .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(via_alias, direct)
    with _pytest.raises(EngineError, match="unknown alias"):
        search_alias(smoke_index["index_dir"], "nope", qdf)
    with _pytest.raises(EngineError, match="already carries"):
        search_alias(smoke_index["index_dir"], "users", qdf,
                     where=[("role", "=", "assistant")])


@pytest.mark.parametrize("where,message", [
    ([("role", "=", 5)], "where (role == 5)"),
    ([("nosuch", "=", "x")], "FieldRef.Name(nosuch)"),
    (pc.field("nosuch") == "x", "FieldRef.Name(nosuch)"),
])
def test_bad_where_fails_on_the_driver(smoke_fixture, smoke_index, where, message):
    """A ``where`` naming a column docmeta lacks, or comparing a column with
    a value of another type, is a ValueError naming the column, raised on
    the driver against the docmeta schema: by search, match_count and
    create_alias alike, and a bad alias is never stored."""
    import re

    from remote_vector_index_builder_ray import match_count
    from remote_vector_index_builder_ray.pipelines.incremental import create_alias
    from remote_vector_index_builder_ray.state.manifest import Manifest

    idx = smoke_index["index_dir"]
    q = pq.read_table(smoke_fixture["queries"]).to_pandas().head(2)
    with pytest.raises(ValueError, match=re.escape(message)):
        match_count(idx, q, where=where)
    with pytest.raises(ValueError, match=re.escape(message)):
        search(idx, q, where=where)
    if isinstance(where, list):
        with pytest.raises(ValueError, match=re.escape(message)):
            create_alias(idx, "bad_where", where=where)
        assert "bad_where" not in Manifest.load(idx).data.get("aliases", {})
