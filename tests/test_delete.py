"""Deletes (pipelines/delete.py): tombstoned docs vanish from results of all
three search modes with scores of live docs UNCHANGED (Lucene numDocs-vs-
maxDoc semantics: stats keep counting deleted docs until expunge); deletes
are idempotent; compaction expunges physically, shrinks the stats to the
live corpus, and never resurrects docs on later re-merges."""

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
    delete_docs,
    load_tombstones,
    search,
)
from remote_vector_index_builder_ray.oracle import BM25Oracle
from remote_vector_index_builder_ray.state import fs


def _ordered_corpus(smoke_fixture) -> pd.DataFrame:
    df = pd.concat([pq.read_table(p).to_pandas() for p in smoke_fixture["transcripts"]])
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    df["docid"] = df.index.to_numpy()
    return df


def _deleted_convs(df: pd.DataFrame) -> list[str]:
    return sorted({c for c in df["conv_id"].unique() if c.endswith("0")})


def _filtered_topk(oracle: BM25Oracle, queries: pd.DataFrame, dead: set[int]) -> pd.DataFrame:
    """Logical-delete oracle: full-corpus stats, deleted docs dropped from the
    candidate set before ranking."""
    rows = []
    for q in queries.itertuples(index=False):
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


@pytest.fixture(scope="module")
def del_index(smoke_fixture, tmp_path_factory):
    """A fresh index over the smoke corpus with every conv_id ending in '0'
    tombstoned (but not expunged)."""
    idx = str(tmp_path_factory.mktemp("del") / "idx")
    build_index(
        BuildConfig(input_paths=smoke_fixture["transcripts"], index_dir=idx, num_buckets=32)
    )
    df = _ordered_corpus(smoke_fixture)
    convs = _deleted_convs(df)
    out = delete_docs(idx, conv_ids=convs)
    dead = set(df.loc[df["conv_id"].isin(convs), "docid"].tolist())
    assert out["deleted"] == len(dead) > 0
    return {"index_dir": idx, "df": df, "convs": convs, "dead": dead}


@pytest.mark.parametrize("mode", ["exhaustive", "bmw"])
def test_logical_delete_rank_identity(del_index, smoke_fixture, smoke_oracle, mode):
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    gold = _filtered_topk(smoke_oracle, qdf, del_index["dead"])
    res = (
        search(del_index["index_dir"], smoke_fixture["queries"], mode=mode)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    assert len(res) == len(gold)
    assert not set(res["docid"]).intersection(del_index["dead"])
    np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
    # full-corpus stats -> live docs' scores are BIT-equal to the undeleted run
    np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())


def test_delete_idempotent(del_index):
    again = delete_docs(del_index["index_dir"], conv_ids=del_index["convs"])
    assert again["deleted"] == 0
    assert again["total_tombstoned"] == len(del_index["dead"])


def test_delete_by_docids(smoke_fixture, smoke_index):
    # smoke_index is session-shared and NOT mutated here: use a throwaway copy
    import shutil

    src = smoke_index["index_dir"]
    idx = src + "_delbyid"
    shutil.rmtree(idx, ignore_errors=True)
    shutil.copytree(src, idx)
    victims = [0, 1, 2, 17, 1999]
    out = delete_docs(idx, docids=victims)
    assert out["deleted"] == len(victims)
    res = search(idx, smoke_fixture["queries"], mode="exhaustive").to_pandas()
    assert not set(res["docid"]).intersection(victims)
    shutil.rmtree(idx, ignore_errors=True)


def test_expunge_compaction(del_index, smoke_fixture):
    idx = del_index["index_dir"]
    df, dead = del_index["df"], del_index["dead"]
    man = compact_index(idx)
    assert all(t["expunged"] for t in man["tombstones"])
    assert len(load_tombstones(idx)) == 0  # no LIVE tombstones remain
    live = df[~df["docid"].isin(dead)]
    assert man["stats"]["N"] == len(live)
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    assert man["stats"]["total_len"] == sum(
        len(tokenize_text(t or "")) for t in live["text"]
    )

    # post-expunge scores equal a live-corpus oracle (original docids, holes)
    oracle = BM25Oracle(live["docid"].to_numpy(), live["text"].tolist())
    qdf = pq.read_table(smoke_fixture["queries"]).to_pandas()
    gold = oracle.run_queries(qdf).sort_values(["query_id", "rank"]).reset_index(drop=True)
    for mode in ("exhaustive", "bmw"):
        res = (
            search(idx, smoke_fixture["queries"], mode=mode)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        np.testing.assert_array_equal(res["docid"].to_numpy(), gold["docid"].to_numpy())
        np.testing.assert_array_equal(res["score"].to_numpy(), gold["score"].to_numpy())

    # postings physically expunged: no bucket file holds a dead docid
    from remote_vector_index_builder_ray.stages.search import BM25Searcher

    s = BM25Searcher(idx, "exhaustive")
    assert len(s._tomb) == 0


def test_no_resurrection_after_recompact(smoke_fixture, tmp_path_factory):
    """Deleted docs must stay deleted when a LATER compaction re-merges the
    retained segment partials (the cumulative-tombstone guard)."""
    d = tmp_path_factory.mktemp("resurrect")
    idx = str(d / "idx")
    # split corpus in half by conv order
    full = pa.concat_tables([pq.read_table(p) for p in smoke_fixture["transcripts"]])
    import pyarrow.compute as pc

    convs = sorted(set(full["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    mask = pc.less(full["conv_id"], pa.scalar(cut))
    a_path, b_path = str(d / "a.parquet"), str(d / "b.parquet")
    pq.write_table(full.filter(mask), a_path)
    pq.write_table(full.filter(pc.invert(mask)), b_path)

    build_index(BuildConfig(input_paths=[a_path], index_dir=idx, num_buckets=32))
    victims = [0, 1, 2]
    delete_docs(idx, docids=victims)
    compact_index(idx)  # expunge pass 1
    append_index(idx, [b_path])
    compact_index(idx)  # re-merges base partials: must NOT resurrect 0,1,2
    res = search(idx, smoke_fixture["queries"], mode="exhaustive").to_pandas()
    assert not set(res["docid"]).intersection(victims)
    # and the appended generation's docs are searchable
    n_a = int(pq.read_table(a_path).num_rows)
    assert (res["docid"] >= n_a).any()


def test_rebuild_resume_preserves_compacted_stats(smoke_fixture, tmp_path_factory):
    """Regression: re-running build_index (resume) on a COMPLETED index must
    return the manifest untouched — it used to re-run phase B, recomputing
    stats.json from the full-corpus partition lineage and silently undoing
    the live-corpus stats a compact_index had written."""
    import json

    idx = str(tmp_path_factory.mktemp("rebuild") / "idx")
    cfg = BuildConfig(
        input_paths=smoke_fixture["transcripts"], index_dir=idx, num_buckets=32
    )
    build_index(cfg)
    delete_docs(idx, docids=[0, 1, 2, 3])
    compact_index(idx)
    stats_before = json.load(open(f"{idx}/stats.json"))
    res_before = search(idx, smoke_fixture["queries"], mode="bmw").to_pandas()
    man = build_index(cfg)  # same params on the completed dir: pure reuse
    assert man["status"] == "COMPLETED"
    stats_after = json.load(open(f"{idx}/stats.json"))
    assert stats_after == stats_before
    assert stats_after["N"] == stats_before["N"] < 2000 + 1  # shrunk stats kept
    res_after = search(idx, smoke_fixture["queries"], mode="bmw").to_pandas()
    pd.testing.assert_frame_equal(
        res_before.sort_values(["query_id", "rank"]).reset_index(drop=True),
        res_after.sort_values(["query_id", "rank"]).reset_index(drop=True),
    )


def test_searcher_consistent_in_compaction_commit_window(
    smoke_fixture, tmp_path_factory
):
    """ADVICE r2: compact_index commits postings, stats.json and the manifest
    at different times. A searcher initialized between the postings swap and
    the trailing writes must still score the NEW postings with the NEW stats
    (the record committed inside postings/ in the same rename) and must not
    double-count generations the new postings already folded in — else BMW's
    block-max bounds are wrong (stored with the new avgdl, corrected with the
    stale one) and folded docs score twice."""
    import json

    d = tmp_path_factory.mktemp("crashwin")
    idx = str(d / "idx")
    full = pa.concat_tables([pq.read_table(p) for p in smoke_fixture["transcripts"]])
    import pyarrow.compute as pc

    convs = sorted(set(full["conv_id"].to_pylist()))
    cut = convs[len(convs) // 2]
    mask = pc.less(full["conv_id"], pa.scalar(cut))
    a_path, b_path = str(d / "a.parquet"), str(d / "b.parquet")
    pq.write_table(full.filter(mask), a_path)
    pq.write_table(full.filter(pc.invert(mask)), b_path)

    build_index(BuildConfig(input_paths=[a_path], index_dir=idx, num_buckets=32))
    append_index(idx, [b_path])  # a live generation for compaction to fold
    delete_docs(idx, docids=[0, 1, 2])  # expunge shrinks N / avgdl

    # the pre-compaction commit trailers a crash would leave behind
    stale_stats = json.load(open(f"{idx}/stats.json"))
    stale_man = json.load(open(f"{idx}/manifest.json"))

    compact_index(idx)
    truth = {
        mode: search(idx, smoke_fixture["queries"], mode=mode)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
        for mode in ("exhaustive", "bmw")
    }

    # simulate the crash window: new postings/ on disk, stale trailers
    json.dump(stale_stats, open(f"{idx}/stats.json", "w"))
    json.dump(stale_man, open(f"{idx}/manifest.json", "w"))

    for mode, want in truth.items():
        got = (
            search(idx, smoke_fixture["queries"], mode=mode)
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
