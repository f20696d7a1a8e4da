"""Every query input runs on one warm searcher pool per index state
(query_service.default_service): row-for-row parity with a driver-local
searcher for each input type, no new actors on repeated library calls, a
fresh pool after each committed mutation, and one shared pool for search(),
the aggs, QueryService-backed HTTP /_search and /_count."""

import gc
import json
import shutil
import time
import urllib.request

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from remote_vector_index_builder_ray import (
    BuildConfig,
    append_index,
    build_index,
    compact_index,
    delete_docs,
    hydrate,
    match_count,
    percolate,
    search,
    stats_agg,
    terms_agg,
    update_docs,
)
from remote_vector_index_builder_ray.pipelines.expand import search_prefix, search_wildcard
from remote_vector_index_builder_ray.pipelines.join import has_child, has_parent
from remote_vector_index_builder_ray.pipelines.query import (
    resolve_filter_docids,
    search_sorted,
)
from remote_vector_index_builder_ray.oracle import oracle_from_transcripts
from remote_vector_index_builder_ray.query_service import (
    QueryService,
    default_service,
    manifest_fingerprint,
)
from remote_vector_index_builder_ray.stages.search import BM25Searcher


@pytest.fixture(scope="module")
def pos_index(smoke_fixture, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("warm") / "idx")
    build_index(BuildConfig(input_paths=smoke_fixture["transcripts"],
                            index_dir=idx, num_partitions=2, positions=True))
    return idx


def _queries(fx, n=40) -> pd.DataFrame:
    return pd.read_parquet(fx["queries"]).head(n)


def _sorted(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    if "query_id" not in df.columns:  # zero rows
        return df
    return df.sort_values(["query_id", "rank"]).reset_index(drop=True)


def _inputs(q: pd.DataFrame, tmp_path) -> dict:
    """The same queries as each query input type ``search()`` accepts."""
    path = str(tmp_path / "queries.parquet")
    q.to_parquet(path, index=False)
    return {"frame": q, "arrow": pa.Table.from_pandas(q, preserve_index=False),
            "parquet": path, "dataset": ray.data.from_pandas(q)}


def _n_actors() -> int:
    # every actor the cluster ever created, dead or alive
    from ray._private import state

    return len(state.actors())


PARITY = [
    ("bmw", {}, None),
    ("exhaustive", {}, None),
    ("constant", {}, None),
    ("phrase", {}, lambda q: q.assign(
        text=q["text"].str.split().str[:2].str.join(" "))),
    ("bmw", {"where": [("role", "=", "user")]}, None),
    ("exhaustive", {"operator": "and"}, None),
    ("bmw", {"min_should_match": 2}, None),
    ("exhaustive", {}, lambda q: q.assign(
        exclude_text=q["text"].str.split().str[-1].fillna(""))),
    ("exhaustive", {"similarity": "classic"}, None),
    ("bmw", {}, lambda q: q.assign(text="zzqqxx nonexistentterm")),
    ("bmw", {}, lambda q: q.head(0)),
]


@pytest.mark.parametrize("mode,kw,shape", PARITY,
                         ids=["bmw", "exhaustive", "constant", "phrase",
                              "where", "and", "msm", "exclude", "classic",
                              "zero_match", "no_queries"])
def test_in_memory_matches_dataset_path(smoke_fixture, pos_index, tmp_path,
                                        mode, kw, shape):
    """Each query input type on the warm pool equals one driver-local
    searcher over the whole frame: the same scorer with no pool, no batch
    slicing and no searcher LRU."""
    q = _queries(smoke_fixture)
    if shape is not None:
        q = shape(q)
    opts = {n: v for n, v in kw.items() if n != "where"}
    allow_ref = (resolve_filter_docids(pos_index, kw["where"])
                 if "where" in kw else None)
    table = pa.Table.from_pandas(q, preserve_index=False)
    want = _sorted(ray.data.from_arrow(
        BM25Searcher(pos_index, mode, allow_ref, **opts)(table)))
    if shape is not None and mode == "bmw" and not kw:
        assert len(want) == 0  # the zero-match and empty frames
    for name, queries in _inputs(q, tmp_path).items():
        got = _sorted(search(pos_index, queries, mode=mode, **kw))
        pd.testing.assert_frame_equal(got, want, obj=name)


def test_search_keeps_frame_order_in_one_block_per_actor(smoke_fixture, smoke_index,
                                                        monkeypatch):
    """Each actor scores one contiguous run of batches and returns one
    block, so a pool of 3 returns at most 3 blocks, and the blocks in
    actor order keep the frame's row order (here a shuffled frame of 7
    batches)."""
    import remote_vector_index_builder_ray.query_service as QS

    q = pd.read_parquet(smoke_fixture["queries"]).head(100)
    q = q.sample(frac=1, random_state=3).reset_index(drop=True)
    svc = QueryService(pool_size=3, max_pools=1, actor_num_cpus=0.0)
    monkeypatch.setattr(QS, "default_service", lambda: svc)
    try:
        ds = search(smoke_index["index_dir"], q)
        assert ds.num_blocks() <= 3
        got = ds.to_pandas()
    finally:
        svc.shutdown()
    hit = set(got["query_id"])
    assert len(hit) > 20
    assert got["query_id"].unique().tolist() == [i for i in q["query_id"] if i in hit]
    assert (got.groupby("query_id", sort=False)["rank"].diff().dropna() == 1).all()


def test_shard_refs_probe_after_the_pool_retires(smoke_fixture, smoke_index):
    """Match-set pieces are return values owned by the caller, not by the
    actors that packed them: after ``default_service().shutdown()`` kills
    those actors, the shard refs still probe to the same partials."""
    from remote_vector_index_builder_ray.pipelines import aggs

    idx = smoke_index["index_dir"]
    q = _queries(smoke_fixture)

    def probe(refs):
        return aggs._probe_partials(idx, None, None, aggs._probe_agg,
                                    ("role", None, "doc_len", None),
                                    ["docid", "role", "doc_len"], shard_refs=refs)

    refs, _, counts = aggs._sharded_matches(idx, q)
    want = probe(refs)
    assert sum(counts.values()) > 0 and len(want) > 0
    default_service().shutdown()
    assert default_service()._pools == {}
    pd.testing.assert_frame_equal(probe(refs), want, check_exact=True)


def test_arrow_table_input_runs_warm(smoke_fixture, pos_index):
    q = _queries(smoke_fixture)
    got = _sorted(search(pos_index, pa.Table.from_pandas(q, preserve_index=False)))
    want = _sorted(search(pos_index, q))
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("kind", ["frame", "arrow", "parquet", "dataset"])
def test_query_entries_accept_every_input_type(smoke_fixture, smoke_index,
                                               tmp_path, kind):
    """The query helpers behind ``query_frame`` take each input type
    ``search()`` takes, with the DataFrame's results."""
    idx = smoke_index["index_dir"]
    q = _queries(smoke_fixture, 8)
    queries = _inputs(q, tmp_path)[kind]
    pd.testing.assert_frame_equal(match_count(idx, queries), match_count(idx, q))
    pd.testing.assert_frame_equal(search_sorted(idx, queries),
                                  search_sorted(idx, q))
    # the term-expanding entries read their pattern column off any input
    pq_ = q.assign(prefix=q["text"].str.split().str[0].str[:3].fillna("a"))
    pw = q.assign(pattern=pq_["prefix"] + "*")
    for fn, frame in ((search_prefix, pq_), (search_wildcard, pw)):
        want = _sorted(fn(idx, frame))
        assert len(want) > 0
        pd.testing.assert_frame_equal(
            _sorted(fn(idx, _inputs(frame, tmp_path)[kind])), want)


def test_repeated_library_calls_spawn_no_actors(smoke_fixture, pos_index,
                                                tmp_path):
    q = _queries(smoke_fixture, 12)
    path = _inputs(q, tmp_path)["parquet"]

    def job():
        return (_sorted(search(pos_index, q, mode="bmw")),
                _sorted(search(pos_index, path, mode="bmw")),
                _sorted(search(pos_index, ray.data.from_pandas(q), mode="bmw")),
                match_count(pos_index, q), terms_agg(pos_index, q))

    first = job()
    n0 = _n_actors()
    for _ in range(2):
        again = job()
        for a, b in zip(first, again):
            pd.testing.assert_frame_equal(a, b)
    assert _n_actors() == n0
    svc = default_service()
    assert [k[0] for k in svc._pools].count(pos_index) == 1


def _update_batch(fx, path: str) -> str:
    df = pq.read_table(fx["transcripts"][0]).to_pandas().head(3)
    df.assign(text=df["text"] + " zzupdated").to_parquet(path, index=False)
    return path


# every library call whose Ray Data maps run as stateless tasks; the
# mutating ones get their own index copy
MAP_CALLS = {
    "hydrate": lambda idx, fx, q, d: hydrate(idx, search(idx, q)),
    "delete_docs": lambda idx, fx, q, d: delete_docs(idx, docids=[1, 2, 3]),
    "update_docs": lambda idx, fx, q, d: update_docs(
        idx, [_update_batch(fx, str(d / "upd.parquet"))]),
    "has_child": lambda idx, fx, q, d: has_child(idx, q, k=5),
    "has_parent": lambda idx, fx, q, d: has_parent(idx, q, k=3),
    "percolate": lambda idx, fx, q, d: percolate(
        fx["transcripts"], q[["query_id", "text"]]).to_pandas(),
}


@pytest.mark.parametrize("call", sorted(MAP_CALLS))
def test_repeated_map_calls_spawn_no_actors(smoke_fixture, pos_index,
                                            tmp_path, call):
    idx = pos_index
    if call in ("delete_docs", "update_docs"):
        idx = str(tmp_path / "idx")
        shutil.copytree(pos_index, idx)
    q = _queries(smoke_fixture, 6)
    fn = MAP_CALLS[call]
    fn(idx, smoke_fixture, q, tmp_path)  # warms the index's searcher pool
    n0 = _n_actors()
    for _ in range(2):
        fn(idx, smoke_fixture, q, tmp_path)
    assert _n_actors() == n0


def _served(base: str, path: str, payload: dict) -> dict:
    req = urllib.request.Request(base + path, data=json.dumps(payload).encode(),
                                 headers={"Content-Type": "application/json"},
                                 method="POST")
    with urllib.request.urlopen(req) as r:
        assert r.status == 200
        return json.loads(r.read())


def test_http_and_library_share_one_pool(smoke_fixture, pos_index):
    from remote_vector_index_builder_ray.http_api import serve_background
    from remote_vector_index_builder_ray.service import BuildService

    q = _queries(smoke_fixture, 4)
    search(pos_index, q).to_pandas()
    svc = default_service()
    key = (pos_index, manifest_fingerprint(pos_index))
    actors = svc._pools[key].actors
    n0 = _n_actors()
    service = BuildService(max_workers=1, max_jobs=1)
    server, base = serve_background(service)
    try:
        text = q["text"].iloc[0]
        out = _served(base, "/_search", {"index_dir": pos_index,
                                         "queries": [{"query_id": 0,
                                                      "text": text}]})
        lib = _sorted(search(pos_index, pd.DataFrame(
            {"query_id": [0], "text": [text], "k": np.int32([10])})))
        assert [r["docid"] for r in out["rows"]] == lib["docid"].tolist()
        cnt = _served(base, "/_count", {"index_dir": pos_index, "text": text})
        want = match_count(pos_index, pd.DataFrame({"query_id": [0],
                                                    "text": [text]}))
        assert cnt["count"] == int(want["total_hits"].iloc[0])
    finally:
        server.shutdown()
        service.shutdown()
    assert default_service() is svc and svc._pools[key].actors is actors
    assert _n_actors() == n0


def test_mutations_reopen_a_fresh_pool(smoke_fixture, tmp_path_factory):
    """append_index and delete_docs each change the manifest fingerprint:
    the next in-memory search warms a new pool, retires the stale one, and
    matches the oracle of the mutated index."""
    d = tmp_path_factory.mktemp("warm_mut")
    full = pd.concat([pq.read_table(p).to_pandas()
                      for p in smoke_fixture["transcripts"]])
    convs = sorted(full["conv_id"].unique())
    cut = convs[len(convs) // 2]
    a, b = full[full["conv_id"] < cut], full[full["conv_id"] >= cut]
    pa_path, pb_path = str(d / "a.parquet"), str(d / "b.parquet")
    a.to_parquet(pa_path, index=False)
    b.to_parquet(pb_path, index=False)
    idx = str(d / "idx")
    build_index(BuildConfig(input_paths=[pa_path], index_dir=idx,
                            num_partitions=2))
    q = _queries(smoke_fixture)
    svc = default_service()

    def check(oracle, dead=frozenset()):
        got = _sorted(search(idx, q, mode="bmw"))
        gold = []
        for r in q.itertuples(index=False):
            items = sorted(((doc, s) for doc, s in oracle.score_query(r.text).items()
                            if doc not in dead), key=lambda kv: (-kv[1], kv[0]))
            gold += [(int(r.query_id), doc, s) for doc, s in items[: int(r.k)]]
        assert list(zip(got["query_id"], got["docid"], got["score"])) == gold
        pools = [k for k in svc._pools if k[0] == idx]
        assert pools == [(idx, manifest_fingerprint(idx))]
        return svc._pools[pools[0]].actors

    actors0 = check(oracle_from_transcripts(a))
    append_index(idx, [pb_path])
    full_oracle = oracle_from_transcripts(full)
    actors1 = check(full_oracle)
    assert actors1 is not actors0
    victims = [0, 5, 1500]
    delete_docs(idx, docids=victims)
    actors2 = check(full_oracle, dead=frozenset(victims))
    assert actors2 is not actors1
    shutil.rmtree(idx)


def _agg_oracle(docs: pd.DataFrame, oracle, q: pd.DataFrame):
    """terms_agg(role, avg doc_len) and stats_agg(doc_len) over each query's
    match set among the live ``docs`` (indexed by docid), one query at a
    time."""
    terms, stats = [], []
    for r in q.itertuples(index=False):
        m = docs[docs.index.isin(list(oracle.score_query(r.text)))]
        for key, g in m.groupby("role"):
            avg = int(g["doc_len"].sum()) / len(g)
            terms.append((int(r.query_id), key, len(g), np.floor(avg * 1e6 + 0.5) / 1e6))
        if len(m):
            v = m["doc_len"]
            stats.append((int(r.query_id), len(m), int(v.sum()), int(v.min()), int(v.max()),
                          np.floor(int(v.sum()) / len(m) * 1e6 + 0.5) / 1e6))
    return (pd.DataFrame(terms, columns=["query_id", "key", "n_docs", "avg_doc_len"]),
            pd.DataFrame(stats, columns=["query_id", "n_docs", "sum_doc_len", "min_doc_len",
                                         "max_doc_len", "avg_doc_len"]))


def test_docmeta_pins_follow_the_index_state(smoke_fixture, tmp_path_factory):
    """The default owner pins the docmeta columns a probe reads once per
    index state: a repeated agg reads no column again, and append, delete
    and compact each re-pin under the new fingerprint and drop the old
    pins, with terms_agg and stats_agg equal to the oracle at every step.
    A ``where`` and ``hydrate`` read the same pins: on one index state each
    (file, column) is read once, and after a delete a ``where`` re-reads
    and sees the delete."""
    d = tmp_path_factory.mktemp("warm_pins")
    full = pd.concat([pq.read_table(p).to_pandas()
                      for p in smoke_fixture["transcripts"]])
    convs = sorted(full["conv_id"].unique())
    cut = convs[len(convs) // 2]
    pa_path, pb_path = str(d / "a.parquet"), str(d / "b.parquet")
    full[full["conv_id"] < cut].to_parquet(pa_path, index=False)
    full[full["conv_id"] >= cut].to_parquet(pb_path, index=False)
    idx = str(d / "idx")
    build_index(BuildConfig(input_paths=[pa_path], index_dir=idx, num_partitions=2))
    q = _queries(smoke_fixture, 12)
    svc = default_service()
    # the oracle numbers docs in (conv_id, turn_idx) order, as the index
    # does: the built part's turns first, then the appended part's
    oracle = oracle_from_transcripts(full)
    docs = full.sort_values(["conv_id", "turn_idx"], kind="mergesort").reset_index(drop=True)
    docs["doc_len"] = pd.Series(oracle.doc_len)

    where = [("role", "=", "user")]

    def user_counts(live: pd.DataFrame) -> pd.DataFrame:
        users = live[live["role"] == "user"]
        qs = q.sort_values("query_id")
        return pd.DataFrame({
            "query_id": qs["query_id"].to_numpy(np.int64),
            "total_hits": [int(users.index.isin(list(oracle.score_query(t))).sum())
                           for t in qs["text"]]})

    def check(live: pd.DataFrame, old=None):
        want_terms, want_stats = _agg_oracle(live, oracle, q)
        assert len(want_stats) > 0
        pd.testing.assert_frame_equal(terms_agg(idx, q, metric_field="doc_len"),
                                      want_terms, check_dtype=False)
        pd.testing.assert_frame_equal(stats_agg(idx, q).reset_index(drop=True),
                                      want_stats, check_dtype=False)
        key = (idx, manifest_fingerprint(idx))
        stats = svc.docmeta_stats()
        assert old is None or old not in stats
        st = stats[key]
        assert st["reads"] == st["pinned"] > 0 and st["pinned_bytes"] > 0
        return key, st

    key0, st0 = check(docs[docs["conv_id"] < cut])
    terms_agg(idx, q, metric_field="doc_len")
    again = svc.docmeta_stats()[key0]
    assert again["reads"] == st0["reads"] and again["pinned"] == st0["pinned"]
    assert again["hits"] > st0["hits"]
    pd.testing.assert_frame_equal(match_count(idx, q, where=where),
                                  user_counts(docs[docs["conv_id"] < cut]))
    hyd = hydrate(idx, search(idx, q), columns=["doc_len"])
    assert hyd["doc_len"].notna().all()
    st = svc.docmeta_stats()[key0]
    match_count(idx, q, where=where)
    again = svc.docmeta_stats()[key0]
    # docid, role and doc_len: pinned by the aggs, read by no lookup again
    assert again["reads"] == st["reads"] == again["pinned"] == st0["reads"]
    assert again["hits"] > st["hits"] > st0["hits"]
    append_index(idx, [pb_path])
    key1, st1 = check(docs, old=key0)
    assert st1["pinned"] > st0["pinned"]  # the generation's files too
    victims = [0, 5, 1500]
    delete_docs(idx, docids=victims)
    live = docs.drop(index=victims)
    pd.testing.assert_frame_equal(match_count(idx, q, where=where), user_counts(live))
    stats = svc.docmeta_stats()
    assert key1 not in stats
    st = stats[(idx, manifest_fingerprint(idx))]
    assert st["reads"] == st["pinned"] > 0
    key2, _ = check(live, old=key1)
    compact_index(idx)
    check(live, old=key2)
    shutil.rmtree(idx)


def test_docmeta_pins_retire_with_their_pool(smoke_index):
    """Pins are read once per (file, column); a failed read pins nothing,
    and shutdown retires every pool with its pins."""
    idx = smoke_index["index_dir"]
    svc = QueryService(pool_size=1, max_pools=1, actor_num_cpus=0.0)
    try:
        rows = svc.docmeta(idx, ["docid", "role"])
        col = ray.get(rows[0][1])
        assert len(col) > 0 and pa.types.is_string(col.type)
        assert svc.docmeta(idx, ["role"]) == [[r[1]] for r in rows]
        with pytest.raises(Exception, match="no_such_column"):
            svc.docmeta(idx, ["no_such_column"])
        st = svc.docmeta_stats()[(idx, manifest_fingerprint(idx))]
        assert st["pinned"] == 2 * len(rows) and st["hits"] == len(rows)
        assert st["reads"] == 3 * len(rows) and st["pinned_bytes"] > 0
    finally:
        svc.shutdown()
    assert svc.docmeta_stats() == {}


def test_warm_pool_reserves_no_cpu(smoke_fixture, smoke_index):
    """The default owner's pool stays warm between calls without holding a
    CPU: Ray Data pipelines plan against the cluster's total CPUs, and a
    CPU held by an idle searcher stalls or deadlocks them."""
    idx = smoke_index["index_dir"]
    search(idx, _queries(smoke_fixture, 4)).to_pandas()
    svc = default_service()
    key = (idx, manifest_fingerprint(idx))
    assert ray.get(svc._pools[key].actors[0].run.remote(
        "bmw", {}, [None], [pa.Table.from_pandas(_queries(smoke_fixture, 1),
                                                 preserve_index=False)]
    )).num_rows > 0
    total = ray.cluster_resources()["CPU"]
    deadline = time.time() + 60
    while ray.available_resources().get("CPU", 0.0) < total \
            and time.time() < deadline:
        gc.collect()  # actors of finished pipelines die with their handles
        time.sleep(0.5)
    assert ray.available_resources().get("CPU", 0.0) == total
    assert svc._pools[key].actors  # still warm


def test_deleted_index_pool_retires(smoke_fixture, smoke_index, tmp_path_factory):
    """A pool whose index directory is gone stops holding CPUs once the
    next pool is created, even with budget to spare."""
    root = tmp_path_factory.mktemp("warm_gone")
    idx, other = str(root / "idx"), str(root / "other")
    shutil.copytree(smoke_index["index_dir"], idx)
    shutil.copytree(smoke_index["index_dir"], other)
    q = _queries(smoke_fixture, 4)
    svc = QueryService(pool_size=1, max_pools=8, max_cpu_fraction=1.0)
    try:
        svc.search(idx, q)
        shutil.rmtree(idx)
        svc.search(other, q)
        assert [k[0] for k in svc._pools] == [other]
    finally:
        svc.shutdown()
        shutil.rmtree(other)


def test_scripted_similarity_without_tf_or_dl(smoke_index, smoke_fixture):
    """A script over neither tf nor dl yields one value per term; it scores
    every posting of the term, exactly as the same script with a zero tf
    term added."""
    q = _queries(smoke_fixture, 8)
    idx = smoke_index["index_dir"]
    got = _sorted(search(idx, q, mode="exhaustive",
                         similarity="scripted:log((N+1)/(df+1))"))
    want = _sorted(search(idx, q, mode="exhaustive",
                          similarity="scripted:log((N+1)/(df+1)) + 0 * tf"))
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("modifier", ["gauss_decay", "exp_decay"])
@pytest.mark.parametrize("params", [
    {"origin": 0, "scale": 10, "decay": 1.0},
    {"origin": 0, "scale": 10, "decay": 0.0},
    {"origin": 0, "scale": 10, "decay": 1.5},
    {"origin": 0, "scale": 0},
    {"origin": 0, "scale": -5, "decay": 0.5},
])
def test_decay_params_validated_on_driver(smoke_index, smoke_fixture, modifier,
                                          params):
    from remote_vector_index_builder_ray.pipelines.query import function_score

    with pytest.raises(ValueError, match=modifier):
        function_score(smoke_index["index_dir"], _queries(smoke_fixture, 2),
                       field="ts", modifier=modifier, params=params)
