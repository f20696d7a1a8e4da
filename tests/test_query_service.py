"""QueryService: warm persistent searcher pools for request serving —
result parity with the per-call pipeline path, pool reuse across requests,
and manifest-fingerprint invalidation on committed index mutations (the
Lucene reader-reopen model; reference analog: the serving process keeps its
FAISS index loaded)."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from remote_vector_index_builder_ray import BuildConfig, build_index, search
from remote_vector_index_builder_ray.config import EngineError
from remote_vector_index_builder_ray.query_service import (
    QueryService,
    manifest_fingerprint,
)


@pytest.fixture(scope="module")
def qs_index(smoke_fixture, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("qsvc") / "idx")
    build_index(BuildConfig(input_paths=smoke_fixture["transcripts"],
                            index_dir=idx, num_partitions=2, positions=True))
    return idx


def _queries(fx) -> pd.DataFrame:
    return pd.read_parquet(fx["queries"])


def test_parity_with_pipeline_search(smoke_fixture, qs_index):
    # max_pools=1: each mode's pool retires the previous one, so idle
    # reservations never starve the comparison pipeline on the 4-CPU session
    svc = QueryService(pool_size=2, max_pools=1)
    try:
        q = _queries(smoke_fixture)
        for mode in ("bmw", "exhaustive"):
            got = svc.search(qs_index, q, mode=mode)
            exp = (search(qs_index, q, mode=mode).to_pandas()
                   .sort_values(["query_id", "rank"]).reset_index(drop=True))
            pd.testing.assert_frame_equal(got, exp)
        # positional mode parity (bucket-affine reorder must not change rows)
        qp = q.assign(text=q["text"].str.split().str[:2].str.join(" "))
        got = svc.search(qs_index, qp, mode="phrase")
        exp = (search(qs_index, qp, mode="phrase").to_pandas()
               .sort_values(["query_id", "rank"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, exp)
    finally:
        svc.shutdown()


def test_pool_reuse_and_fingerprint_invalidation(smoke_fixture, qs_index,
                                                 tmp_path_factory):
    # mutate a COPY so the module-scoped index stays pristine
    import shutil

    idx = str(tmp_path_factory.mktemp("qsvc_mut") / "idx")
    shutil.copytree(qs_index, idx)
    svc = QueryService(pool_size=2)
    try:
        q = _queries(smoke_fixture)
        r1 = svc.search(idx, q, mode="bmw")
        keys1 = list(svc._pools)
        actors1 = svc._pools[keys1[0]].actors
        r2 = svc.search(idx, q, mode="bmw")
        # same pool, same actors — the request did NOT rebuild anything
        assert list(svc._pools) == keys1
        assert svc._pools[keys1[0]].actors is actors1
        pd.testing.assert_frame_equal(r1, r2)

        # a committed mutation (tombstone delete) changes the fingerprint:
        # the stale pool retires and results reflect the delete
        from remote_vector_index_builder_ray.pipelines.delete import delete_docs

        victim = int(r1["docid"].iloc[0])
        fp_before = manifest_fingerprint(idx)
        delete_docs(idx, docids=[victim])
        assert manifest_fingerprint(idx) != fp_before
        r3 = svc.search(idx, q, mode="bmw")
        assert list(svc._pools) != keys1  # new fingerprint key, old retired
        assert victim not in set(r3["docid"])
    finally:
        svc.shutdown()


def test_pool_lru_eviction_and_errors(smoke_fixture, qs_index):
    svc = QueryService(pool_size=1, max_pools=1)
    try:
        q = _queries(smoke_fixture).head(2)
        svc.search(qs_index, q, mode="bmw")
        svc.search(qs_index, q, mode="exhaustive")
        assert len(svc._pools) == 1  # LRU bound holds across modes
        with pytest.raises(TypeError):
            svc.search(qs_index, "not a frame")
    finally:
        svc.shutdown()


def test_positional_gate(smoke_fixture, tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("qsvc_nopos") / "idx")
    build_index(BuildConfig(input_paths=smoke_fixture["transcripts"],
                            index_dir=idx, num_partitions=2))
    svc = QueryService(pool_size=1)
    try:
        with pytest.raises(EngineError):
            svc.search(idx, _queries(smoke_fixture).head(2), mode="phrase")
    finally:
        svc.shutdown()


def test_concurrent_first_requests_single_pool(smoke_fixture, qs_index):
    """The HTTP facade is a ThreadingHTTPServer: concurrent FIRST requests
    for the same (index, mode) must create exactly one pool (a lost race
    would leak the loser's actors) and all return correct results."""
    import threading

    svc = QueryService(pool_size=1)
    try:
        q = _queries(smoke_fixture).head(3)
        results, errors = [None] * 6, []

        def hit(i):
            try:
                results[i] = svc.search(qs_index, q, mode="bmw")
            except Exception as ex:  # noqa: BLE001 — surfaced below
                errors.append(ex)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(svc._pools) == 1
        assert len(next(iter(svc._pools.values())).actors) == 1
        for r in results[1:]:
            pd.testing.assert_frame_equal(r, results[0])
    finally:
        svc.shutdown()


def test_cpu_budget_eviction(smoke_fixture, qs_index, tmp_path_factory):
    """Warm pools retire under CPU-reservation pressure, not just pool
    count: persistent reservations beyond max_cpu_fraction of cluster CPUs
    would starve batch pipelines sharing the cluster into deadlock (the
    failure mode: N indexes x pool_size x actor_num_cpus reserving every CPU
    on a small cluster)."""
    import shutil

    import ray

    q = pd.read_parquet(smoke_fixture["queries"]).head(2)
    root = tmp_path_factory.mktemp("qsvc_budget")
    idxs = [qs_index]
    for name in ("b", "c"):
        idxs.append(str(root / name))
        shutil.copytree(qs_index, idxs[-1])
    cpus = float(ray.cluster_resources()["CPU"])
    # each pool reserves exactly 1 CPU; budget of 2/cpus CPUs -> 2 pools max
    svc = QueryService(pool_size=2, actor_num_cpus=0.5, max_pools=8,
                       max_cpu_fraction=2.0 / cpus)
    try:
        for idx in idxs:
            svc.search(idx, q, mode="bmw")
        reserved = sum(len(p.actors) * svc.actor_num_cpus
                       for p in svc._pools.values())
        assert reserved <= 2.0 and len(svc._pools) == 2
        # the most-recent pool survived; a batch pipeline still schedules
        assert any(k[0] == idxs[2] for k in svc._pools)
        assert search(qs_index, q, mode="bmw").count() > 0
        # a pool that alone exceeds the budget is kept while acquired
        # (in-flight requests must be served), everything else retires
        svc.max_cpu_fraction = 0.5 / cpus
        svc.search(idxs[0], q, mode="exhaustive")
        assert len(svc._pools) == 1
        assert next(iter(svc._pools))[0] == idxs[0]
    finally:
        svc.shutdown()


def test_span_little_per_row_validation(smoke_fixture, qs_index):
    """Serving path rejects null/empty span_little per ROW, not just a
    missing column — a mixed batch would otherwise return 200 with silent
    0 rows for the null rows (review finding)."""
    svc = QueryService(pool_size=1, max_pools=1)
    try:
        q = pd.DataFrame({
            "query_id": np.array([0, 1], dtype=np.int64),
            "text": ["a b", "c d"],
            "k": np.array([5, 5], dtype=np.int32),
            "span_little": ["x", None],
        })
        with pytest.raises(ValueError, match="null/empty"):
            svc.search(qs_index, q, mode="span_containing")
        q2 = q.assign(span_little=["x", "  "])
        with pytest.raises(ValueError, match="null/empty"):
            svc.search(qs_index, q2, mode="span_within")
        with pytest.raises(ValueError, match="span_little column"):
            svc.search(qs_index, q.drop(columns=["span_little"]),
                       mode="span_containing")
    finally:
        svc.shutdown()


def test_draining_pools_count_toward_budget(monkeypatch):
    """A retired-but-draining pool still holds its CPU reservation; the
    budget evictor must see it or retire-then-create stacks reservations
    past the cap (review finding). Unit-level: fake pools, no actors."""
    import remote_vector_index_builder_ray.query_service as qsm

    killed = []
    monkeypatch.setattr(qsm.ray, "kill", lambda a: killed.append(a))
    monkeypatch.setattr(qsm.ray, "cluster_resources", lambda: {"CPU": 4.0})
    svc = QueryService(pool_size=2, actor_num_cpus=0.5, max_pools=8,
                       max_cpu_fraction=0.5)  # budget = 2.0 CPUs

    a = qsm._Pool(["a1", "a2"], 1.0)
    b = qsm._Pool(["b1", "b2"], 2.0)
    svc._pools[("idx", "bmw", "fp1")] = a
    svc._pools[("idx2", "bmw", "fp1")] = b
    a.inflight = 1  # a is mid-request

    # retire a (fingerprint change): it drains, not dies — and keeps
    # counting against the budget
    with svc._lock:
        svc._retire_locked(("idx", "bmw", "fp1"))
    assert a in svc._draining and not killed

    # a third pool arrives: live (b) + draining (a) + new (c) = 3.0 CPUs
    # > 2.0 budget -> the evictor retires b (the LRU), NOT the kept new pool
    c = qsm._Pool(["c1", "c2"], 3.0)
    key_c = ("idx3", "bmw", "fp1")
    svc._pools[key_c] = c
    with svc._lock:
        svc._evict_lru_locked(keep=key_c)
    assert key_c in svc._pools and ("idx2", "bmw", "fp1") not in svc._pools
    assert "b1" in killed and "b2" in killed  # b had no inflight: killed now

    # the drained release kills a's actors and clears the draining set
    svc._release_pool(a)
    assert "a1" in killed and a not in svc._draining
