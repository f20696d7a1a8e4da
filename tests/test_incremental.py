"""Incremental generations (pipelines/incremental.py): append must be
rank-identical with bit-equal scores vs the full-corpus oracle; compaction
must produce postings value-identical to a one-shot build; append is
idempotent and generation-aware hydrate returns stored fields for every
generation's docids."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import (
    BuildConfig,
    append_index,
    build_index,
    compact_index,
    global_stats,
    search,
)
from remote_vector_index_builder_ray.pipelines.incremental import IndexStateError
from remote_vector_index_builder_ray.pipelines.query import hydrate
from remote_vector_index_builder_ray.state import fs


@pytest.fixture(scope="module")
def split_corpus(smoke_fixture, tmp_path_factory):
    """The smoke corpus split into two parquet halves at the median conv_id.

    Part B's conv_ids all sort AFTER part A's, so (build A, then append B)
    assigns exactly the docids a one-shot dense build over A+B assigns —
    making the full-corpus oracle directly comparable."""
    d = tmp_path_factory.mktemp("inc_corpus")
    full = pa.concat_tables([pq.read_table(p) for p in smoke_fixture["transcripts"]])
    convs = sorted(set(full["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    import pyarrow.compute as pc

    mask = pc.less(full["conv_id"], pa.scalar(cut))
    a, b = full.filter(mask), full.filter(pc.invert(mask))
    pa_path, pb_path = str(d / "part_a.parquet"), str(d / "part_b.parquet")
    pq.write_table(a, pa_path)
    pq.write_table(b, pb_path)
    return {"a": [pa_path], "b": [pb_path], "full": full, "n": full.num_rows}


@pytest.fixture(scope="module")
def inc_index(split_corpus, tmp_path_factory):
    """Base index over part A with part B appended as generation 1."""
    idx = str(tmp_path_factory.mktemp("inc") / "idx")
    build_index(BuildConfig(input_paths=split_corpus["a"], index_dir=idx, num_buckets=32))
    man = append_index(idx, split_corpus["b"])
    return {"index_dir": idx, "manifest": man}


@pytest.mark.parametrize("mode", ["exhaustive", "bmw"])
def test_append_rank_identity_vs_full_oracle(inc_index, smoke_fixture, smoke_oracle, mode):
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    gold = smoke_oracle.run_queries(qdf).sort_values(["query_id", "rank"]).reset_index(drop=True)
    res = (
        search(inc_index["index_dir"], smoke_fixture["queries"], mode=mode)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(res) == len(gold)
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_global_stats_and_idempotency(inc_index, split_corpus):
    st = global_stats(inc_index["index_dir"])
    assert st["N"] == split_corpus["n"]
    man = inc_index["manifest"]
    assert len(man["generations"]) == 1
    # appending the identical inputs again is a no-op (same generation job id)
    man2 = append_index(inc_index["index_dir"], split_corpus["b"])
    assert len(man2["generations"]) == 1


def test_generation_docid_ranges_disjoint(inc_index, split_corpus):
    idx = inc_index["index_dir"]
    base_meta = pq.read_table(fs.join(idx, "docmeta")).to_pandas()
    gen_dir = fs.join(idx, inc_index["manifest"]["generations"][0]["dir"])
    gen_meta = pq.read_table(fs.join(gen_dir, "docmeta")).to_pandas()
    n_a = len(base_meta)
    assert sorted(base_meta["docid"]) == list(range(n_a))
    assert sorted(gen_meta["docid"]) == list(range(n_a, split_corpus["n"]))


def test_hydrate_spans_generations(inc_index, smoke_fixture, split_corpus):
    res = search(inc_index["index_dir"], smoke_fixture["queries"], mode="exhaustive")
    hyd = hydrate(inc_index["index_dir"], res)
    assert hyd["text"].notna().all()
    # results must include docids from BOTH generations for this corpus
    n_a = int(pq.read_table(split_corpus["a"][0]).num_rows)
    assert (hyd["docid"] < n_a).any() and (hyd["docid"] >= n_a).any()


def test_compact_matches_one_shot_build(split_corpus, smoke_fixture, smoke_oracle, tmp_path_factory):
    d = tmp_path_factory.mktemp("compact")
    inc_dir, oneshot_dir = str(d / "inc"), str(d / "oneshot")
    build_index(BuildConfig(input_paths=split_corpus["a"], index_dir=inc_dir, num_buckets=32))
    append_index(inc_dir, split_corpus["b"])
    man = compact_index(inc_dir)
    assert all(g["compacted"] for g in man["generations"])

    build_index(
        BuildConfig(
            input_paths=split_corpus["a"] + split_corpus["b"],
            index_dir=oneshot_dir,
            num_buckets=32,
        )
    )

    def _postings(ix):
        t = pa.concat_tables(
            [
                fs.read_table(fs.join(ix, "postings", f))
                for f in sorted(fs.listdir(fs.join(ix, "postings")))
                if f.endswith(".parquet")
            ],
            promote_options="default",
        )
        return t.sort_by([("term", "ascending"), ("shard", "ascending")])

    pi, po = _postings(inc_dir), _postings(oneshot_dir)
    assert pi.num_rows == po.num_rows
    assert pi.equals(po), "compacted postings differ from one-shot build"

    # compacted index still answers rank-identical with bit-equal scores
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    gold = smoke_oracle.run_queries(qdf).sort_values(["query_id", "rank"]).reset_index(drop=True)
    res = (
        search(inc_dir, smoke_fixture["queries"], mode="bmw")
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())
    # second compaction with no new generations is a no-op
    man2 = compact_index(inc_dir)
    assert man2["stats"]["N"] == split_corpus["n"]


def test_append_requires_completed_base(tmp_path_factory):
    empty = str(tmp_path_factory.mktemp("noidx") / "missing")
    with pytest.raises(IndexStateError):
        append_index(empty, ["whatever.parquet"])


def test_pit_pins_generation_set(inc_index, split_corpus, smoke_fixture):
    """pit_gens=0 makes the appended generation invisible AND freezes stats:
    results equal a from-scratch oracle over part A alone; pit_gens=1 (all
    gens) equals the default view; out-of-range pit_gens fails fast."""
    import pandas as pd

    from remote_vector_index_builder_ray.oracle import oracle_from_transcripts

    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas().head(10)
    got = (
        search(inc_index["index_dir"], qdf, mode="bmw", pit_gens=0)
        .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    src_a = pa.concat_tables([pq.read_table(p) for p in split_corpus["a"]]).to_pandas()
    want = (
        oracle_from_transcripts(src_a).run_queries(qdf)
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["query_id", "rank", "docid", "score"]], want)

    full = (
        search(inc_index["index_dir"], qdf, mode="bmw", pit_gens=1).to_pandas()
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    default = (
        search(inc_index["index_dir"], qdf, mode="bmw").to_pandas()
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(full, default)

    import pytest as _pytest
    with _pytest.raises(Exception, match="pit_gens"):
        search(inc_index["index_dir"], qdf, mode="bmw", pit_gens=2).to_pandas()
