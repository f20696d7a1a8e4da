"""Vector-blob source round-trip + dtypes, casts, metrics, BuildService."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data

from remote_vector_index_builder_ray.config import SchemaValidationError
from remote_vector_index_builder_ray.functions.casts import cast_fp16_ds, l2_normalize_ds
from remote_vector_index_builder_ray.functions.metrics import (
    estimate_partitions,
    rank_identity,
    recall_at_r,
)
from remote_vector_index_builder_ray.sources.vector_blobs import (
    read_vector_blobs,
    validate_blob_pair,
    write_vector_blobs,
)


def _write_blobs(tmp_path, n=1000, dim=8, dtype="<f4"):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((n, dim)).astype(dtype)
    ids = rng.permutation(n).astype("<i4")
    vp, dp = str(tmp_path / "v.knnvec"), str(tmp_path / "ids.bin")
    open(vp, "wb").write(m.tobytes())
    open(dp, "wb").write(ids.tobytes())
    return vp, dp, m, ids


def test_blob_roundtrip_float(tmp_path):
    vp, dp, m, ids = _write_blobs(tmp_path)
    ds = read_vector_blobs(vp, dp, dim=8, doc_count=1000, dtype="float", rows_per_block=256)
    out = ds.to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert len(out) == 1000
    order = np.argsort(ids)
    np.testing.assert_allclose(
        np.stack(out["embedding"].map(np.asarray)), m[order], rtol=1e-6
    )


def test_blob_validation_errors(tmp_path):
    vp, dp, _, _ = _write_blobs(tmp_path)
    with pytest.raises(SchemaValidationError):
        validate_blob_pair(vp, dp, dim=9, doc_count=1000, dtype="float")  # wrong dim
    with pytest.raises(SchemaValidationError):
        validate_blob_pair(vp, dp, dim=8, doc_count=999, dtype="float")  # wrong count
    with pytest.raises(SchemaValidationError):
        validate_blob_pair(vp, dp, dim=8, doc_count=1000, dtype="nope")


def test_blob_half_float(tmp_path):
    vp, dp, m, ids = _write_blobs(tmp_path, dtype="<f2")
    ds = read_vector_blobs(vp, dp, dim=8, doc_count=1000, dtype="half_float")
    out = ds.to_pandas().sort_values("vec_id").reset_index(drop=True)
    order = np.argsort(ids)
    np.testing.assert_allclose(np.stack(out["embedding"].map(np.asarray)), m[order].astype(np.float32))


def test_blob_write_read_roundtrip(tmp_path):
    df = pd.DataFrame(
        {
            "vec_id": np.arange(100, dtype=np.int64),
            "embedding": [np.arange(4, dtype=np.float32) + i for i in range(100)],
        }
    )
    ds = ray.data.from_pandas(df)
    vp, dp = str(tmp_path / "o.knnvec"), str(tmp_path / "o.ids")
    n = write_vector_blobs(ds, vp, dp)
    assert n == 100
    back = read_vector_blobs(vp, dp, dim=4, doc_count=100).to_pandas().sort_values("vec_id")
    np.testing.assert_allclose(
        np.stack(back["embedding"].map(np.asarray)),
        np.stack(df["embedding"]),
    )


def test_casts():
    df = pd.DataFrame({"vec_id": [0, 1], "embedding": [[3.0, 4.0], [1.0, 0.0]]})
    ds = ray.data.from_pandas(df)
    normed = l2_normalize_ds(ds).to_pandas()
    np.testing.assert_allclose(np.asarray(normed["embedding"][0]), [0.6, 0.8], rtol=1e-6)
    halved = cast_fp16_ds(ds).to_pandas()
    assert np.asarray(halved["embedding"][0]).dtype == np.float16


def test_recall_and_rank_identity():
    truth = pd.DataFrame({"query_id": [1, 1, 2, 2], "rank": [1, 2, 1, 2], "docid": [10, 11, 20, 21], "score": [2.0, 1.0, 4.0, 3.0]})
    res_same = truth.copy()
    assert recall_at_r(res_same, truth, 2) == 1.0
    assert rank_identity(res_same, truth)
    res_half = truth.copy()
    res_half.loc[1, "docid"] = 99
    assert recall_at_r(res_half, truth, 2) == 0.75
    assert not rank_identity(res_half, truth)


def test_estimate_partitions(tmp_path):
    paths = []
    for i in range(8):
        p = tmp_path / f"f{i}.bin"
        p.write_bytes(b"x" * 1024)
        paths.append(str(p))
    assert estimate_partitions(paths, target_bytes_per_partition=2048) == 4
    assert estimate_partitions(paths, target_bytes_per_partition=1) == 8  # capped by #files


def test_build_service(smoke_fixture, tmp_path):
    from remote_vector_index_builder_ray import BuildConfig
    from remote_vector_index_builder_ray.config import BM25Config, HashCollisionError
    from remote_vector_index_builder_ray.service import BuildService, CapacityError

    svc = BuildService(max_workers=1, max_jobs=2, ttl_seconds=None)
    cfg = BuildConfig(input_paths=smoke_fixture["transcripts"], index_dir=str(tmp_path / "i1"))
    jid = svc.submit(cfg)
    assert svc.submit(cfg) == jid  # idempotent
    job = svc.wait(jid, timeout=600)
    assert job.status == "COMPLETED"
    assert job.manifest["stats"]["N"] == 2000
    # collision: same target index_dir with different params is rejected at
    # ADMISSION (the reference's HTTP 429 shape, job_service.py:60-83) —
    # round 1 let it start and fail later; now it never runs
    bad = BuildConfig(input_paths=smoke_fixture["transcripts"], index_dir=str(tmp_path / "i1"),
                      bm25=BM25Config(k1=7.7))
    with pytest.raises(HashCollisionError):
        svc.submit(bad)
    # rejected submits don't occupy a job slot; fill the store (max_jobs=2)
    # with a second legit job, then the next must hit capacity (their 507)
    jid3 = svc.submit(BuildConfig(input_paths=smoke_fixture["transcripts"], index_dir=str(tmp_path / "i2")))
    with pytest.raises(CapacityError):
        svc.submit(BuildConfig(input_paths=smoke_fixture["transcripts"], index_dir=str(tmp_path / "i3")))
    svc.wait(jid3, timeout=600)
    svc.shutdown()


def test_cli_build_search(smoke_fixture, tmp_path, capsys):
    import json

    from remote_vector_index_builder_ray import search
    from remote_vector_index_builder_ray.__main__ import main

    idx = str(tmp_path / "cli_idx")
    rc = main(["build", "--input", *smoke_fixture["transcripts"], "--index-dir", idx,
               "--num-partitions", "2"])
    assert rc == 0
    out = str(tmp_path / "res")
    rc = main(["search", "--index-dir", idx, "--queries", smoke_fixture["queries"], "--out", out])
    assert rc == 0
    import pyarrow.parquet as pq

    assert pq.read_table(out).num_rows > 0
    # without --out the rows print to stdout, scores bit-equal to search()
    capsys.readouterr()
    rc = main(["search", "--index-dir", idx, "--queries", smoke_fixture["queries"]])
    assert rc == 0
    got = pd.DataFrame(json.loads(capsys.readouterr().out))
    want = search(idx, pd.read_parquet(smoke_fixture["queries"])).to_pandas()
    key = ["query_id", "rank"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
    assert (got["score"].to_numpy(np.float64).view(np.int64)
            == want["score"].to_numpy(np.float64).view(np.int64)).all()


def test_bigann_reader(tmp_path):
    from remote_vector_index_builder_ray.sources.vector_blobs import read_bigann_vectors

    rng = np.random.default_rng(4)
    m = rng.integers(0, 255, (500, 16)).astype("<i1")
    p = str(tmp_path / "base.u8bin")
    with open(p, "wb") as f:
        f.write(np.array([500, 16], dtype="<i4").tobytes())
        f.write(m.tobytes())
    ds = read_bigann_vectors(p, dtype="byte", rows_per_block=128)
    out = ds.to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert len(out) == 500
    np.testing.assert_allclose(np.stack(out["embedding"].map(np.asarray)), m.astype(np.float32))
    # truncated file -> typed error
    with open(p, "r+b") as f:
        f.truncate(100)
    with pytest.raises(SchemaValidationError):
        read_bigann_vectors(p, dtype="byte")


def test_build_service_concurrent_jobs(smoke_fixture, tmp_path):
    from remote_vector_index_builder_ray import BuildConfig
    from remote_vector_index_builder_ray.service import BuildService

    svc = BuildService(max_workers=2, max_jobs=8)
    jids = [
        svc.submit(BuildConfig(input_paths=smoke_fixture["transcripts"],
                               index_dir=str(tmp_path / f"c{i}")))
        for i in range(2)
    ]
    jobs = [svc.wait(j, timeout=900) for j in jids]
    assert all(j.status == "COMPLETED" for j in jobs)
    assert all(j.manifest["stats"]["N"] == 2000 for j in jobs)
    svc.shutdown()


@pytest.mark.skipif(
    not __import__("remote_vector_index_builder_ray.sources.hdf5", fromlist=["HAVE_H5PY"]).HAVE_H5PY,
    reason="h5py not installed in this environment (optional dependency)",
)
def test_hdf5_source_roundtrip(tmp_path):
    """Runs only where h5py exists: write a small train matrix, read it back
    chunked through the Ray source, verify ids + values."""
    import h5py
    import numpy as np

    from remote_vector_index_builder_ray.sources.hdf5 import read_hdf5_vectors

    path = str(tmp_path / "vectors.hdf5")
    m = np.arange(20 * 4, dtype=np.float32).reshape(20, 4)
    with h5py.File(path, "w") as f:
        f.create_dataset("train", data=m)
    ds = read_hdf5_vectors(path, key="train", rows_per_block=7)
    out = ds.to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert out["vec_id"].tolist() == list(range(20))
    assert np.allclose(np.stack(out["embedding"]), m)


def test_hdf5_source_clear_error_without_h5py():
    from remote_vector_index_builder_ray.sources import hdf5

    if hdf5.HAVE_H5PY:
        pytest.skip("h5py installed; the gated error path is unreachable")
    with pytest.raises(NotImplementedError, match="h5py"):
        hdf5.read_hdf5_vectors("/nonexistent.hdf5")
