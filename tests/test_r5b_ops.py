"""Round-5b operators: bucket_selector pipeline agg, constant_score,
terms lookup, search templates. Each verified against a python brute force
over the raw fixture (the same layering as the other operator tests)."""

import json

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import (
    bucket_selector_date_histogram,
    render_search_template,
    search,
    search_constant_score,
    search_template,
    search_terms_lookup,
)
from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text
from remote_vector_index_builder_ray.pipelines.aggs import _parse_selector_script

QUERIES = pd.DataFrame({
    "query_id": np.arange(4, dtype=np.int64),
    "text": ["w000123", "the w000200", "zz_absent", ""],
    "k": np.full(4, 10, dtype=np.int32),
})


def _src(smoke_fixture) -> pd.DataFrame:
    df = pd.concat(
        [pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]]
    ).sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    df["docid"] = np.arange(len(df), dtype=np.int64)
    return df


def _match_docids(df: pd.DataFrame, text: str) -> set:
    terms = set(tokenize_text(text or ""))
    if not terms:
        return set()
    toks = df["text"].map(lambda t: set(tokenize_text(t or "")))
    return set(df.loc[[bool(t & terms) for t in toks], "docid"])


# ---------------------------------------------------------------------------
# bucket_selector
# ---------------------------------------------------------------------------


def test_bucket_selector_matches_brute_force(smoke_index, smoke_fixture):
    df = _src(smoke_fixture)
    df["dl"] = df["text"].map(lambda t: len(tokenize_text(t or "")))
    df["day"] = df["ts"].dt.floor("D")
    script = "params.total >= 60 && params.docs >= 2"
    got = bucket_selector_date_histogram(
        smoke_index["index_dir"], QUERIES, script=script)
    for q in QUERIES.itertuples(index=False):
        m = _match_docids(df, q.text)
        sub = df[df["docid"].isin(m)]
        g = sub.groupby("day").agg(n=("docid", "size"), total=("dl", "sum"))
        g = g[(g["total"] >= 60) & (g["n"] >= 2)].sort_index()
        mine = got[got["query_id"] == q.query_id]
        assert mine["key"].tolist() == g.index.tolist(), q.text
        assert mine["n_docs"].tolist() == g["n"].tolist()
        assert mine["total"].tolist() == g["total"].tolist()
    # the selector must actually REMOVE buckets (vacuity guard): compare
    # against the unfiltered histogram's bucket count
    loose = bucket_selector_date_histogram(
        smoke_index["index_dir"], QUERIES, script="params.docs >= 0")
    assert len(got) < len(loose)


def test_bucket_selector_script_subset_is_strict(smoke_index):
    # a clause outside the painless subset raises rather than no-oping
    with pytest.raises(ValueError, match="unsupported bucket_selector"):
        _parse_selector_script("params.docs >= 1 || params.total >= 2")
    with pytest.raises(ValueError, match="unsupported bucket_selector"):
        _parse_selector_script("params.docs + 1 >= 2")
    with pytest.raises(ValueError, match="unknown buckets_path"):
        bucket_selector_date_histogram(
            smoke_index["index_dir"], QUERIES.head(1),
            script="params.nope >= 1")


# ---------------------------------------------------------------------------
# constant_score
# ---------------------------------------------------------------------------


def test_constant_score_boost_and_order(smoke_index, smoke_fixture):
    df = _src(smoke_fixture)
    q = QUERIES.copy()
    q["exclude_text"] = ["the", "", "", ""]
    got = search_constant_score(smoke_index["index_dir"], q, boost=2.5)
    assert (got["score"] == 2.5).all()
    for r in q.itertuples(index=False):
        m = _match_docids(df, r.text) - _match_docids(df, r.exclude_text)
        want = sorted(m)[: int(r.k)]
        mine = got[got["query_id"] == r.query_id]
        assert mine["docid"].tolist() == want, r.text
        assert mine["rank"].tolist() == list(range(1, len(want) + 1))


# ---------------------------------------------------------------------------
# terms lookup
# ---------------------------------------------------------------------------


def test_terms_lookup_matches_brute_force(smoke_index, smoke_fixture):
    df = _src(smoke_fixture)
    seeds = [0, 17, len(df) - 1, len(df) + 99]  # last one absent
    req = pd.DataFrame({
        "query_id": pd.Series(range(len(seeds)), dtype="int64"),
        "lookup_docid": pd.Series(seeds, dtype="int64"),
        "k": pd.Series([10] * len(seeds), dtype="int32"),
    })
    got = search_terms_lookup(smoke_index["index_dir"], req, max_terms=8)
    text_by_doc = dict(zip(df["docid"], df["text"]))
    for r in req.itertuples(index=False):
        txt = text_by_doc.get(int(r.lookup_docid), "")
        terms = sorted(set(tokenize_text(txt or "")))[:8]
        m = _match_docids(df, " ".join(terms))
        want = sorted(m)[:10]
        mine = got[got["query_id"] == r.query_id]
        assert mine["docid"].tolist() == want
        assert (mine["score"] == 1.0).all()
    # the absent-seed request returned no rows
    assert not (got["query_id"] == 3).any()


# ---------------------------------------------------------------------------
# search templates
# ---------------------------------------------------------------------------


def test_render_search_template_substitutes_and_rejects():
    t = pd.DataFrame({
        "query_id": [0, 1],
        "template": ["{{a}} mid {{b}}", "plain {{ a }}"],
        "params": [json.dumps({"a": "x", "b": "y z"}), json.dumps({"a": "w"})],
        "k": [5, 5],
    })
    out = render_search_template(t)
    assert out["text"].tolist() == ["x mid y z", "plain w"]
    bad = t.assign(params=[json.dumps({}), json.dumps({"a": "w"})])
    with pytest.raises(KeyError, match="unresolved template param"):
        render_search_template(bad)
    with pytest.raises(ValueError, match="JSON object"):
        render_search_template(t.assign(params=['["not", "object"]', "{}"]))


def test_search_template_parity_with_direct_search(smoke_index):
    t = pd.DataFrame({
        "query_id": np.arange(2, dtype=np.int64),
        "template": ["{{a}} w000123", "the {{a}} {{b}}"],
        "params": [json.dumps({"a": "w000200"}),
                   json.dumps({"a": "w000123", "b": "w000200"})],
        "k": np.full(2, 10, dtype=np.int32),
    })
    got = search_template(smoke_index["index_dir"], t, mode="bmw").to_pandas()
    direct_q = t.assign(text=["w000200 w000123", "the w000123 w000200"])
    want = search(smoke_index["index_dir"],
                  direct_q[["query_id", "text", "k"]], mode="bmw").to_pandas()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True))


def test_l2_fuse_hand_computed():
    """minmax_fuse technique='l2': s / sqrt(sum s^2) per (leg, query), docs
    absent from a leg contribute 0, all-zero legs normalize to 0."""
    from remote_vector_index_builder_ray.pipelines.query import minmax_fuse

    leg_a = pd.DataFrame({"query_id": [1, 1, 1], "docid": [10, 11, 12],
                          "score": [3.0, 4.0, 0.0]})  # l2 norm = 5
    leg_b = pd.DataFrame({"query_id": [1, 1], "docid": [11, 13],
                          "score": [2.0, 0.0]})       # l2 norm = 2
    out = minmax_fuse([leg_a, leg_b], weights=(0.5, 0.5), k=10,
                      technique="l2")
    got = dict(zip(out["docid"], out["score"]))
    assert got[10] == pytest.approx(0.5 * 3 / 5)
    assert got[11] == pytest.approx(0.5 * 4 / 5 + 0.5 * 2 / 2)
    assert got[12] == 0.0
    assert got[13] == 0.0
    # an all-zero leg divides by nothing: normalizes to 0, not NaN
    zeros = pd.DataFrame({"query_id": [2, 2], "docid": [1, 2],
                          "score": [0.0, 0.0]})
    out2 = minmax_fuse([zeros], weights=(1.0,), k=10, technique="l2")
    assert (out2["score"] == 0.0).all()
    with pytest.raises(ValueError, match="technique"):
        minmax_fuse([leg_a], weights=(1.0,), technique="zscore")


def test_terminate_after_matches_brute_force(smoke_index, smoke_oracle, smoke_fixture):
    """terminate_after: collected set == the T smallest matching docids,
    collected docs keep their normal BM25 scores (filter context), and
    terminated_early == (total matches > T)."""
    from remote_vector_index_builder_ray import search_terminate_after

    T = 7
    q = pd.read_parquet(smoke_fixture["queries"]).head(6)
    got = search_terminate_after(smoke_index["index_dir"], q, terminate_after=T)
    k_by_qid = dict(zip(q["query_id"], q["k"]))
    for row in q.itertuples(index=False):
        scores = smoke_oracle.score_query(row.text)
        sub = got[got["query_id"] == row.query_id]
        if not scores:
            assert sub.empty
            continue
        first = sorted(scores)[:T]
        want = pd.DataFrame({"docid": first,
                             "score": [scores[d] for d in first]})
        want["score"] = np.floor(want["score"].to_numpy() * 1e6 + 0.5) / 1e6
        want = want.sort_values(["score", "docid"], ascending=[False, True])
        want = want.head(int(k_by_qid[row.query_id]))
        assert sub["docid"].tolist() == want["docid"].tolist()
        np.testing.assert_allclose(sub["score"], want["score"], rtol=1e-12)
        assert (sub["terminated_early"] == (len(scores) > T)).all()


def test_allow_docids_column_validation(smoke_index, smoke_fixture):
    """The per-query allow_docids column is rejected outside the
    candidate-mask modes and alongside filter_text / the global kwarg."""
    from remote_vector_index_builder_ray import search

    q = pd.read_parquet(smoke_fixture["queries"]).head(2)
    q2 = q.assign(allow_docids=[[0, 1], [2]])
    with pytest.raises(ValueError, match="allow_docids"):
        search(smoke_index["index_dir"], q2, mode="dismax")
    with pytest.raises(ValueError, match="not both"):
        search(smoke_index["index_dir"], q2.assign(filter_text=["a", "b"]),
               mode="exhaustive")
    with pytest.raises(ValueError, match="not both"):
        search(smoke_index["index_dir"], q2, mode="exhaustive",
               allow_docids=[0, 1, 2])


def test_expected_reciprocal_rank_hand_computed():
    """ERR@k on a worked example: max rating 2, R = (2^g - 1)/4."""
    from remote_vector_index_builder_ray import expected_reciprocal_rank

    results = pd.DataFrame({
        "query_id": np.array([1, 1, 1], dtype=np.int64),
        "rank": np.array([1, 2, 3], dtype=np.int32),
        "docid": np.array([10, 11, 12], dtype=np.int64),
    })
    ratings = pd.DataFrame({
        "query_id": np.array([1, 1, 2], dtype=np.int64),
        "docid": np.array([11, 12, 99], dtype=np.int64),
        "rating": np.array([2, 1, 2], dtype=np.int64),
    })
    out = expected_reciprocal_rank(results, ratings, k=10)
    # rank1 unjudged R=0; rank2 R=3/4; rank3 R=1/4
    want_q1 = 0.0 + (1 / 2) * 0.75 + (1 / 3) * 0.25 * (1 - 0.75)
    got = dict(zip(out["query_id"], out["err_at_k"]))
    assert got[1] == pytest.approx(np.floor(want_q1 * 1e6 + 0.5) / 1e6)
    assert got[2] == 0.0  # judged but never retrieved
