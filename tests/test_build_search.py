"""End-to-end conformance (SURVEY.md section 5.2 items 2-4): engine top-k must
be rank-identical with bit-equal scores vs the exhaustive oracle; per-turn text
equality vs source under stable ordering; df/cf identities; multi-shard
(salted heavy-hitter) config must not change results."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import BuildConfig, build_index, search
from remote_vector_index_builder_ray.config import BM25Config
from remote_vector_index_builder_ray.pipelines.query import hydrate


def _gold(smoke_oracle, smoke_fixture):
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    return smoke_oracle.run_queries(qdf)


@pytest.mark.parametrize("mode", ["exhaustive", "bmw"])
def test_rank_identity_vs_oracle(smoke_index, smoke_fixture, smoke_oracle, mode):
    gold = _gold(smoke_oracle, smoke_fixture)
    res = (
        search(smoke_index["index_dir"], smoke_fixture["queries"], mode=mode)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    gold = gold.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert len(res) == len(gold)
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    # scores must be BIT-equal (same formula, same float64 accumulation order)
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_per_turn_text_equality_invariant(smoke_index, smoke_fixture):
    """input_hint invariant: docstore joined back to source on (conv_id,
    turn_idx) reproduces text exactly; docids dense 0..N-1 in sort order."""
    src = pd.concat([pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]])
    meta = pq.read_table(os.path.join(smoke_index["index_dir"], "docmeta")).to_pandas()
    assert sorted(meta["docid"].tolist()) == list(range(len(src)))
    joined = src.merge(meta, on=["conv_id", "turn_idx"], suffixes=("_src", "_idx"))
    assert len(joined) == len(src)
    assert (joined["text_src"] == joined["text_idx"]).all()
    # docid order == (conv_id, turn_idx) order
    ordered = meta.sort_values("docid")
    assert ordered[["conv_id", "turn_idx"]].values.tolist() == sorted(
        ordered[["conv_id", "turn_idx"]].values.tolist()
    )


def test_df_cf_identities(smoke_index, smoke_oracle):
    """sum(tf) == cf and len(postings) == df for spot-check terms."""
    ts = pq.read_table(os.path.join(smoke_index["index_dir"], "termstats")).to_pandas()
    ts = ts.set_index("term")
    rng = np.random.default_rng(7)
    terms = rng.choice(list(smoke_oracle.postings.keys()), size=50, replace=False)
    for t in terms:
        plist = smoke_oracle.postings[t]
        assert ts.loc[t, "df"] == len(plist), t
        assert ts.loc[t, "cf"] == sum(plist.values()), t
    assert set(ts.index) == set(smoke_oracle.postings.keys())


def test_stats_match_oracle(smoke_index, smoke_oracle):
    st = json.load(open(os.path.join(smoke_index["index_dir"], "stats.json")))
    assert st["N"] == smoke_oracle.N
    assert st["avgdl"] == pytest.approx(smoke_oracle.avgdl, rel=1e-12)


def test_multishard_salt_same_results(smoke_fixture, smoke_oracle, tmp_path):
    """Tiny shard_range forces heavy terms across many (term, shard) groups;
    results must be identical — the salt is invisible to the querier."""
    idx = str(tmp_path / "sharded")
    cfg = BuildConfig(
        input_paths=smoke_fixture["transcripts"],
        index_dir=idx,
        bm25=BM25Config(shard_range=256),  # 2000 docs -> ~8 shards per hot term
        num_partitions=1,
    )
    build_index(cfg)
    gold = _gold(smoke_oracle, smoke_fixture)
    res = (
        search(idx, smoke_fixture["queries"], mode="bmw")
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    gold = gold.sort_values(["query_id", "rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_hydrate(smoke_index, smoke_fixture):
    res = search(smoke_index["index_dir"], smoke_fixture["queries"], mode="bmw")
    out = hydrate(smoke_index["index_dir"], res)
    assert {"query_id", "rank", "docid", "score", "conv_id", "turn_idx", "text"} <= set(out.columns)
    assert out["text"].notna().all()


@pytest.mark.parametrize("shape", ["zero_hit_search", "empty_dataset"])
def test_hydrate_zero_rows(smoke_index, shape):
    """A zero-row result hydrates to its own columns plus the requested
    fields, with 0 rows — Ray's ``to_pandas`` of a zero-row Dataset has no
    columns, which used to raise ``KeyError: 'docid'``."""
    import ray

    idx = smoke_index["index_dir"]
    if shape == "zero_hit_search":
        res = search(idx, pd.DataFrame({"query_id": [0],
                                        "text": ["zzqqxx nonexistentterm"],
                                        "k": np.int32([10])}))
        cols = ["query_id", "rank", "docid", "score"]
    else:
        res = ray.data.from_pandas(pd.DataFrame({
            "query_id": pd.Series(dtype=np.int64),
            "docid": pd.Series(dtype=np.int64)}))
        cols = ["query_id", "docid"]
    out = hydrate(idx, res, columns=["conv_id", "text"])
    assert len(out) == 0
    assert list(out.columns) == cols + ["conv_id", "text"]
    every = hydrate(idx, res)
    assert len(every) == 0
    assert set(cols) | {"conv_id", "turn_idx", "text"} <= set(every.columns)


def test_sort_docid_mode_same_index(smoke_fixture, smoke_oracle, tmp_path):
    idx = str(tmp_path / "sorted_mode")
    cfg = BuildConfig(
        input_paths=smoke_fixture["transcripts"], index_dir=idx, docid_mode="sort"
    )
    build_index(cfg)
    gold = _gold(smoke_oracle, smoke_fixture)
    res = (
        search(idx, smoke_fixture["queries"], mode="exhaustive")
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    gold = gold.sort_values(["query_id", "rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())
