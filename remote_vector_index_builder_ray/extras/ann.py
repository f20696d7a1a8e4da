"""Similarity search over an embedding column (list<float>).

- brute-force cosine top-k: the baseline — numpy matmul per batch against a
  query matrix broadcast ONCE via ray.put (never re-shipped per batch); a
  global top-k reduce on the tiny per-batch partials.
- IVF-bucketed variant: the scale path — k-means-lite centroids (trained on a
  deterministic modulo sample), assign every vector to its nearest centroid in
  a vectorized map_batches, and score only the nprobe nearest buckets per
  query INSIDE the same distributed per-batch partial top-k used by the
  brute-force path (no driver-side materialization).
- embedding near-dup: all pairs with cosine >= threshold via BANDED random-
  hyperplane LSH candidates + exact verification — the sub-quadratic scale
  path; the exact all-pairs scan below it is the pytest/SQL oracle baseline.

Every per-batch stage is a stateless ``map_batches`` task over state
broadcast once with ``ray.put`` (query matrices, centroids, codebooks);
vector gathers are ``stages.merge.semi_join``.

Rounding policy (shared with the DuckDB oracles): round-half-up via
``floor(x*1e6 + 0.5)/1e6`` — numpy/pandas ``round`` is half-to-even and can
flake against SQL ``round`` at exact half-way values.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from remote_vector_index_builder_ray.stages.merge import semi_join, to_frame

logger = logging.getLogger(__name__)


def _round6(x: np.ndarray | float) -> np.ndarray | float:
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def _batch_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch[col].combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


@ray.remote
def _consolidate_vectors(*blocks):
    """Concatenate gathered (vec_id, embedding) blocks into ONE
    (sorted ids, normalized matrix) pair. Runs on a worker, so the combined
    matrix is created — and stays — in the object store; callers hand the
    returned ObjectRef to map_batches constructors without ever ray.get-ing
    it on the driver."""
    tabs = [b for b in blocks if b.num_rows]
    if not tabs:
        return np.empty(0, np.int64), np.empty((0, 0), np.float64)
    t = pa.concat_tables(tabs)
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = _normalize(_batch_matrix(t, "embedding"))
    o = np.argsort(ids)
    return ids[o], m[o]


def _topk_rows(qids: np.ndarray, sims, batch: pa.Table, k: int,
               probe_ref=None) -> pa.Table:
    """Batch-local top-k partial: per query ``qi``, the ``k`` best entries
    of its score row ``sims[qi]`` over the batch's vectors (unordered —
    ``_finalize_topk`` ranks). With ``probe_ref`` (IVF mode) query ``qi``
    only scores rows whose ``bucket`` is in its probe list."""
    ids = _vec_ids(batch)
    if probe_ref is not None:
        probe = ray.get(probe_ref)
        buckets = batch["bucket"].to_numpy(zero_copy_only=False).astype(np.int64)
    out_q, out_id, out_s = [], [], []
    for qi in range(len(qids)):
        s, cid = sims[qi], ids
        if probe_ref is not None:
            cand = np.flatnonzero(np.isin(buckets, probe[qi]))
            if not len(cand):
                continue
            s, cid = s[cand], ids[cand]
        kk = min(k, len(s))
        idx = np.argpartition(-s, kk - 1)[:kk] if len(s) > kk else np.arange(len(s))
        out_q.extend([int(qids[qi])] * len(idx))
        out_id.extend(cid[idx].tolist())
        out_s.extend(s[idx].tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_id, type=pa.int64()),
            "cosine": pa.array(out_s, type=pa.float64()),
        }
    )


def _vec_ids(batch: pa.Table) -> np.ndarray:
    return batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)


def _cosine_topk(batch: pa.Table, queries_ref, k: int, probe_ref=None,
                 dim: int | None = None) -> pa.Table:
    """map_batches task: per-batch exact cosine top-k partials against the
    broadcast (query ids, normalized query matrix). ``dim`` truncates the
    batch's vectors to their first ``dim`` dims before normalizing
    (Matryoshka); with ``probe_ref`` (IVF mode) each query only scores the
    candidates in its probe buckets — same partial/reduce shape."""
    qids, qn = ray.get(queries_ref)
    m = _normalize(_batch_matrix(batch, "embedding")[:, :dim])
    return _topk_rows(qids, qn @ m.T, batch, k, probe_ref)


def _scored_partials(ds: ray.data.Dataset, fn, *args) -> pd.DataFrame:
    """Run a scoring task over every batch; the driver-small partials."""
    return to_frame(ds.map_batches(fn, fn_args=args, batch_format="pyarrow",
                                   zero_copy_batch=True))


def _finalize_topk(partials: pd.DataFrame, k: int) -> pd.DataFrame:
    """Driver-small final reduce: rank by (round6(cosine) DESC, vec_id ASC)."""
    partials = partials.copy()
    partials["cosine"] = _round6(partials["cosine"].to_numpy())
    partials = partials.sort_values(
        ["query_id", "cosine", "vec_id"], ascending=[True, False, True]
    )
    out = partials.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_id").cumcount().astype("int32") + 1
    return out[["query_id", "rank", "vec_id", "cosine"]]


def brute_force_topk(
    ds: ray.data.Dataset, query_ids: np.ndarray, query_matrix: np.ndarray, k: int = 10
) -> pd.DataFrame:
    """Exact cosine top-k: batch partials -> tiny driver-side final reduce."""
    qm = _normalize(np.asarray(query_matrix, dtype=np.float64))
    ref = ray.put((np.asarray(query_ids, dtype=np.int64), qm))
    return _finalize_topk(_scored_partials(ds, _cosine_topk, ref, k), k)


def matryoshka_topk(
    ds: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    dim: int,
    k: int = 10,
) -> pd.DataFrame:
    """Matryoshka-truncation ANN (MRL, Kusupati et al. 2022 — the practice
    OpenSearch k-NN exposes as index-time dimension reduction): both corpus
    vectors and queries truncate to their FIRST ``dim`` dims and renormalize;
    exact cosine top-k runs in the truncated space — dim/d of the matmul
    FLOPs and bytes per batch. Same broadcast/partial/reduce shape as
    :func:`brute_force_topk`; ranking on 6dp-rounded scores so a SQL twin
    (list slicing + norm) admits identical edge cases."""
    qm = _normalize(np.asarray(query_matrix, dtype=np.float64)[:, :dim])
    ref = ray.put((np.asarray(query_ids, dtype=np.int64), qm))
    return _finalize_topk(
        _scored_partials(ds, _cosine_topk, ref, k, None, dim), k)


def _range_rows(batch: pa.Table, queries_ref, thr: float) -> pa.Table:
    """map_batches task: the (query, vec, score) rows of the batch whose
    6dp-rounded cosine against a broadcast query reaches ``thr``."""
    qids, qm = ray.get(queries_ref)
    m = _normalize(_batch_matrix(batch, "embedding"))
    sims = np.floor(qm @ m.T * 1e6 + 0.5) / 1e6
    qi, vi = np.nonzero(sims >= thr)
    return pa.table({
        "query_id": pa.array(qids[qi], type=pa.int64()),
        "vec_id": pa.array(_vec_ids(batch)[vi], type=pa.int64()),
        "score": pa.array(sims[qi, vi], type=pa.float64()),
    })


def range_search(
    ds: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    threshold: float = 0.8,
) -> pd.DataFrame:
    """FAISS ``range_search`` analog: ALL vectors within a cosine radius of
    each query (no k bound — the result is threshold-bounded). The decision
    compares the 6dp-rounded similarity against the threshold so a SQL
    oracle admits identical edge cases. One streaming pass: queries
    broadcast once, per-batch matmul + mask, only matching (query, vec,
    score) rows leave each task. Returns (query_id, vec_id, score),
    ordered (query_id, score desc, vec_id)."""
    qids = np.asarray(query_ids, dtype=np.int64)
    qm = _normalize(np.asarray(query_matrix, dtype=np.float64))
    out = _scored_partials(ds, _range_rows, ray.put((qids, qm)), float(threshold))
    cols = {"query_id": pd.Series(dtype=np.int64),
            "vec_id": pd.Series(dtype=np.int64),
            "score": pd.Series(dtype=np.float64)}
    if out.empty:
        return pd.DataFrame(cols)
    return out.sort_values(["query_id", "score", "vec_id"],
                           ascending=[True, False, True]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVF-bucketed ANN (scale path)
# ---------------------------------------------------------------------------


def _bounded_sample(ds: ray.data.Dataset, sample_mod: int,
                    max_train_rows: int | None) -> ray.data.Dataset:
    """Deterministic modulo trainset sample, BOUNDED: vectors with
    ``vec_id % mod == 0`` where the modulus widens so at most
    ~``max_train_rows`` rows are kept no matter the corpus size. A fixed
    fraction (the round-2 behavior) meant 20 TB of trainset at 100 TB; the
    reference bounds training the same way (kmeans_trainset_fraction,
    ``ivf_pq_build_cagra_config.py:25-26``). Content-determined (stable
    across runs and block layouts — ``random_sample`` is not). Returns a
    MATERIALIZED dataset: training iterates over it several times."""
    if max_train_rows is not None:
        n_rows = ds.count()  # parquet metadata count — no data scan
        if n_rows and n_rows // sample_mod > max_train_rows:
            sample_mod = -(-n_rows // max_train_rows)  # ceil division

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(ids % sample_mod == 0))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True).materialize()


def _kmeans_partial(batch: pa.Table, cent_ref) -> pa.Table:
    """map_batches task for one k-means iteration: assign each (normalized)
    vector of the batch to its nearest centroid by cosine (the
    ``_ivf_assign`` kernel) and emit the per-centroid PARTIAL (sum vector,
    count) — n_centroids rows per batch, so only O(centroids x dim) ever
    reduces to the driver."""
    cent = ray.get(cent_ref)
    m = _normalize(_batch_matrix(batch, "embedding"))
    assign = (m @ cent.T).argmax(axis=1)
    ncent, dim = cent.shape
    sums = np.zeros((ncent, dim), dtype=np.float64)
    np.add.at(sums, assign, m)
    counts = np.bincount(assign, minlength=ncent).astype(np.int64)
    ids = _vec_ids(batch)
    # b0 keys the partial by its batch so the driver reduce can sum in a
    # deterministic order (block completion order is not)
    b0 = int(ids.min()) if len(ids) else -1
    return pa.table({
        "cid": pa.array(np.arange(ncent, dtype=np.int64)),
        "b0": pa.array(np.full(ncent, b0, dtype=np.int64)),
        "vsum": pa.array(list(sums), type=pa.list_(pa.float64())),
        "n": pa.array(counts, type=pa.int64()),
    })


def train_centroids(ds: ray.data.Dataset, n_centroids: int, sample_mod: int = 5,
                    iters: int = 5, seed: int = 7,
                    max_train_rows: int | None = 1 << 16):
    """k-means-lite, fully distributed: the bounded modulo sample stays in the
    object store; every iteration is one ``map_batches`` pass emitting
    per-centroid (sum, count) partials that reduce to an
    (n_centroids x dim) update on the driver. The driver never holds the
    trainset — only sampled ids (<= max_train_rows int64s) for seeding and
    the centroid matrix itself. Round 2 materialized the whole sample with
    ``.to_pandas()`` and iterated locally."""
    sample = _bounded_sample(ds, sample_mod, max_train_rows)
    # seed: rng over the SORTED sampled-id list (ids only — tiny), then one
    # distributed gather of just the chosen vectors
    ids = np.sort(
        sample.select_columns(["vec_id"]).to_pandas()["vec_id"].to_numpy(np.int64)
    )
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(ids, size=min(n_centroids, len(ids)), replace=False))
    seeds = to_frame(semi_join(sample, "vec_id", ray.put(chosen))).sort_values("vec_id")
    cent = _normalize(np.stack([np.asarray(v, np.float64) for v in seeds["embedding"]]))
    for _ in range(iters):
        # blocks x n_centroids rows — driver-tiny
        parts = _scored_partials(sample, _kmeans_partial, ray.put(cent))
        parts = parts.sort_values(["cid", "b0"])  # deterministic sum order
        sums = np.zeros_like(cent)
        counts = np.zeros(len(cent), dtype=np.int64)
        for cid, g in parts.groupby("cid", sort=True):
            sums[int(cid)] = np.sum(np.stack(g["vsum"].to_numpy()), axis=0)
            counts[int(cid)] = int(g["n"].sum())
        nz = counts > 0
        cent[nz] = sums[nz] / counts[nz, None]
        cent = _normalize(cent)
    return cent


def _ivf_assign(batch: pa.Table, cent_ref) -> pa.Table:
    m = _normalize(_batch_matrix(batch, "embedding"))
    assign = (m @ ray.get(cent_ref).T).argmax(axis=1).astype(np.int32)
    return batch.append_column("bucket", pa.array(assign, type=pa.int32()))


def assign_buckets(ds: ray.data.Dataset, cent: np.ndarray) -> ray.data.Dataset:
    """``ds`` plus an int32 ``bucket`` column: every vector's nearest
    centroid by cosine (the IVF bucketing step), as stateless tasks over
    the centroid matrix broadcast once."""
    return ds.map_batches(_ivf_assign, fn_args=(ray.put(cent),),
                          batch_format="pyarrow", zero_copy_batch=True)


def ivf_topk(
    ds: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
) -> pd.DataFrame:
    """Approximate top-k probing only the nprobe nearest IVF buckets.

    Fully distributed: bucket assignment and probed scoring are both
    ``map_batches`` partials (the same ``_cosine_topk`` task as the
    brute-force path, restricted per query to its probe buckets); only the
    tiny (queries x k)-bounded partials reach the driver."""
    cent = train_centroids(ds, n_centroids)
    qm = _normalize(np.asarray(query_matrix, dtype=np.float64))
    probe = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]  # buckets per query
    qref = ray.put((np.asarray(query_ids, dtype=np.int64), _normalize(qm)))
    partials = _scored_partials(assign_buckets(ds, cent), _cosine_topk, qref, k,
                                ray.put(probe.astype(np.int64)))
    return _finalize_topk(partials, k)


# ---------------------------------------------------------------------------
# embedding near-dup (cosine >= threshold)
# ---------------------------------------------------------------------------


def _band_keys(batch: pa.Table, planes_ref, nbands: int,
               band_size: int) -> pa.Table:
    """map_batches task: per vector, one LSH key per band — the sign bits
    of its projections on the broadcast hyperplanes, ``band_size`` bits a
    band."""
    m = _normalize(_batch_matrix(batch, "embedding"))
    bits = ((m @ ray.get(planes_ref)) > 0).astype(np.uint64)  # (n, n_planes)
    n = len(m)
    bk = bits[:, : nbands * band_size].reshape(n, nbands, band_size)
    key = np.zeros((n, nbands), dtype=np.uint64)
    for j in range(band_size):
        key = (key << np.uint64(1)) | bk[:, :, j]
    return pa.table(
        {
            "vec_id": pa.array(np.repeat(_vec_ids(batch), nbands), type=pa.int64()),
            "band": pa.array(np.tile(np.arange(nbands, dtype=np.int32), n), type=pa.int32()),
            "band_key": pa.array(key.reshape(-1).view(np.int64), type=pa.int64()),
        }
    )


def _verify_pairs(batch: pa.Table, mat_ref, threshold: float) -> pa.Table:
    """map_batches over the candidate-pair stream: look both sides up in
    the broadcast candidate matrix, keep pairs at cosine >= threshold."""
    ids, m = ray.get(mat_ref)
    a = batch["vec_id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    b = batch["vec_id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    sims = np.einsum("ij,ij->i", m[np.searchsorted(ids, a)], m[np.searchsorted(ids, b)])
    keep = sims >= threshold
    return pa.table({
        "vec_id_a": pa.array(a[keep], type=pa.int64()),
        "vec_id_b": pa.array(b[keep], type=pa.int64()),
        "cosine": pa.array(_round6(sims[keep]), type=pa.float64()),
    })


def embedding_near_dup(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    n_planes: int = 48,
    band_size: int = 4,
    seed: int = 11,
    max_bucket: int | None = 1000,
) -> pd.DataFrame:
    """Pairs with cosine >= threshold: BANDED random-hyperplane LSH
    candidates + exact verification — the sub-quadratic scale path.

    Signature = sign bits under ``n_planes`` hyperplanes, split into
    ``n_planes/band_size`` bands; docs sharing ANY band bucket are candidates
    (miss probability for a pair at cosine c is
    ``(1 - p^band_size)^nbands`` with ``p = 1 - arccos(c)/pi`` — e.g.
    ~5e-10 at c=0.95 with the defaults). ``max_bucket`` caps a band bucket's
    size (a degenerate bucket — zero vectors, boilerplate — would emit m²
    pairs into the shuffle); dropped buckets are logged, model
    ``dedup.ngram_jaccard_pairs.max_shingle_df``. Candidates are verified
    exactly AND distributed: the candidate embeddings are gathered via a
    broadcast semi-join (``stages.merge.semi_join``), consolidated into one object-store matrix
    by a worker-side task (never the driver), and each candidate-pair batch
    scores its dot products in ``map_batches`` — only verified pairs (the
    contract-small result) reach the driver. The shuffle key is
    (band, 64-bit band key) — embeddings never enter the shuffle."""
    rng = np.random.default_rng(seed)

    first = ds.take_batch(1, batch_format="pyarrow")
    dim = len(first["embedding"][0])
    planes = rng.standard_normal((dim, n_planes))
    pref = ray.put(planes)
    nbands = max(1, n_planes // band_size)
    band_size = min(band_size, n_planes)

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"vec_id_a": pd.Series(dtype="int64"),
                              "vec_id_b": pd.Series(dtype="int64")})
        ids = np.unique(g["vec_id"].to_numpy())
        if len(ids) < 2:
            return empty
        if max_bucket is not None and len(ids) > max_bucket:
            logger.warning(
                "embedding_near_dup: dropping band bucket with %d members "
                "> max_bucket=%d", len(ids), max_bucket,
            )
            return empty
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"vec_id_a": ids[a], "vec_id_b": ids[b]})

    cand = (
        ds.map_batches(_band_keys, fn_args=(pref, nbands, band_size),
                       batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["band", "band_key"])
        .map_groups(emit_pairs, batch_format="pandas")
        .materialize()  # feeds the wanted-id pass AND the verify pass
    )
    if cand.count() == 0:
        return pd.DataFrame(
            {"vec_id_a": pd.Series(dtype="int64"), "vec_id_b": pd.Series(dtype="int64"), "cosine": pd.Series(dtype="float64")}
        )

    # candidate ids (band-duplicated pairs included — deduped after verify,
    # cheaper than a pair-keyed shuffle since a dot product costs less than
    # moving the pair): distinct vec_ids, a tiny driver-side list
    wanted = cand.groupby("vec_id_a").count().to_pandas()["vec_id_a"].to_numpy(np.int64)
    wanted_b = cand.groupby("vec_id_b").count().to_pandas()["vec_id_b"].to_numpy(np.int64)
    wanted = np.unique(np.concatenate([wanted, wanted_b]))
    if not len(wanted):
        return pd.DataFrame(
            {"vec_id_a": pd.Series(dtype="int64"), "vec_id_b": pd.Series(dtype="int64"), "cosine": pd.Series(dtype="float64")}
        )
    # consolidate the gathered candidate vectors into ONE (ids, matrix)
    # object — built by a worker task from the gather's object-store blocks,
    # so the embeddings never visit the driver
    sub_refs = semi_join(ds, "vec_id", ray.put(np.sort(wanted))).to_arrow_refs()
    mat_ref = _consolidate_vectors.remote(*sub_refs)
    # verified pairs only: the near-dup-contract-small result
    out = to_frame(cand.map_batches(
        _verify_pairs, fn_args=(mat_ref, threshold),
        batch_format="pyarrow", zero_copy_batch=True,
    ))
    out = out.drop_duplicates(["vec_id_a", "vec_id_b"])
    return out.sort_values(["vec_id_a", "vec_id_b"]).reset_index(drop=True)


def _pair_scan(batch: pa.Table, corpus_ref, threshold: float) -> pa.Table:
    """map_batches task: every (batch vector, later corpus vector) pair at
    cosine >= threshold against the broadcast corpus matrix."""
    ids_all, m_all = ray.get(corpus_ref)
    ids = _vec_ids(batch)
    sims = _normalize(_batch_matrix(batch, "embedding")) @ m_all.T  # (nbatch, N)
    out_a, out_b, out_s = [], [], []
    for i in range(len(ids)):
        js = np.flatnonzero((sims[i] >= threshold) & (ids_all > ids[i]))
        out_a.extend([int(ids[i])] * len(js))
        out_b.extend(ids_all[js].tolist())
        out_s.extend(_round6(sims[i][js]).tolist())
    return pa.table(
        {
            "vec_id_a": pa.array(out_a, type=pa.int64()),
            "vec_id_b": pa.array(out_b, type=pa.int64()),
            "cosine": pa.array(out_s, type=pa.float64()),
        }
    )


def embedding_near_dup_exact(ds: ray.data.Dataset, threshold: float = 0.9) -> pd.DataFrame:
    """EXACT near-dup pairs (cosine >= threshold): each batch is compared
    against the full corpus matrix broadcast once via ray.put.

    Quadratic in corpus size — the pytest-oracle baseline; the banded-LSH
    variant (``embedding_near_dup``) is the sub-quadratic scale path and the
    driver-checked entry."""
    full = ds.select_columns(["vec_id", "embedding"]).to_pandas()
    ids_all = full["vec_id"].to_numpy().astype(np.int64)
    m_all = _normalize(np.stack([np.asarray(v, np.float64) for v in full["embedding"]]))
    pairs = _scored_partials(ds, _pair_scan, ray.put((ids_all, m_all)), threshold)
    return pairs.sort_values(["vec_id_a", "vec_id_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# product quantization (the reference's FAISS IVF-PQ analog)
# ---------------------------------------------------------------------------


def _pq_encode(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Per subspace, the L2-nearest codebook entry of every row:
    (n, m) int64 codes."""
    m, ncent, sub = books.shape
    codes = np.empty((mat.shape[0], m), dtype=np.int64)
    for mi in range(m):
        x = mat[:, mi * sub:(mi + 1) * sub]
        d2 = ((x[:, None, :] - books[mi][None, :, :]) ** 2).sum(axis=2)
        codes[:, mi] = d2.argmin(axis=1)
    return codes


def _pq_partial(batch: pa.Table, books_ref) -> pa.Table:
    """One PQ k-means iteration over ALL subspaces in a single pass: per
    subspace, L2-assign the batch's rows to the current codebook and emit
    (subspace, cid, sum vector, count) partials — m x n_centroids rows per
    batch."""
    books = ray.get(books_ref)  # (m, ncent, sub)
    mat = _normalize(_batch_matrix(batch, "embedding"))
    m, ncent, sub = books.shape
    ids = _vec_ids(batch)
    b0 = int(ids.min()) if len(ids) else -1
    codes = _pq_encode(mat, books)
    out_mi, out_cid, out_sum, out_n = [], [], [], []
    for mi in range(m):
        sums = np.zeros((ncent, sub), dtype=np.float64)
        np.add.at(sums, codes[:, mi], mat[:, mi * sub:(mi + 1) * sub])
        out_mi.extend([mi] * ncent)
        out_cid.extend(range(ncent))
        out_sum.extend(list(sums))
        out_n.extend(np.bincount(codes[:, mi], minlength=ncent).tolist())
    return pa.table({
        "mi": pa.array(out_mi, type=pa.int64()),
        "cid": pa.array(out_cid, type=pa.int64()),
        "b0": pa.array(np.full(len(out_mi), b0, dtype=np.int64)),
        "vsum": pa.array(out_sum, type=pa.list_(pa.float64())),
        "n": pa.array(out_n, type=pa.int64()),
    })


def train_pq_codebooks(
    ds: ray.data.Dataset,
    m: int = 8,
    n_centroids: int = 16,
    sample_mod: int = 5,
    iters: int = 5,
    seed: int = 7,
    max_train_rows: int | None = 1 << 16,
) -> np.ndarray:
    """Per-subspace k-means codebooks over the BOUNDED deterministic modulo
    sample (normalized vectors, so ADC inner products approximate cosine):
    returns (m, n_centroids, dim/m). Distributed like ``train_centroids``:
    the sample never lands on the driver — each iteration is one
    ``map_batches`` pass over all m subspaces emitting (mi, cid, sum, count)
    partials. The analog of the reference's PQ training
    (``core/index_builder/.../ivf_pq_build_cagra_config.py`` — pq_dim /
    kmeans trainset fraction)."""
    sample = _bounded_sample(ds, sample_mod, max_train_rows)
    ids = np.sort(
        sample.select_columns(["vec_id"]).to_pandas()["vec_id"].to_numpy(np.int64)
    )
    rng = np.random.default_rng(seed)
    # one independent seed draw per subspace (matches the round-2 rng stream
    # shape: m successive choice() calls on the same generator)
    chosen_per_sub = [
        np.sort(rng.choice(ids, size=min(n_centroids, len(ids)), replace=False))
        for _ in range(m)
    ]
    want_all = np.unique(np.concatenate(chosen_per_sub))
    seeds = to_frame(semi_join(sample, "vec_id", ray.put(want_all))).sort_values("vec_id")
    seed_ids = seeds["vec_id"].to_numpy(np.int64)
    seed_mat = _normalize(np.stack([np.asarray(v, np.float64)
                                    for v in seeds["embedding"]]))
    dim = seed_mat.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m
    books = np.empty((m, n_centroids, sub), dtype=np.float64)
    for mi in range(m):
        rows = seed_mat[np.searchsorted(seed_ids, chosen_per_sub[mi])]
        cent = rows[:, mi * sub:(mi + 1) * sub].copy()
        books[mi, :len(cent)] = cent
        if len(cent) < n_centroids:
            books[mi, len(cent):] = cent[0]
    for _ in range(iters):
        parts = _scored_partials(sample, _pq_partial, ray.put(books))
        parts = parts.sort_values(["mi", "cid", "b0"])  # deterministic sums
        for (mi, cid), g in parts.groupby(["mi", "cid"], sort=True):
            n = int(g["n"].sum())
            if n:
                books[int(mi), int(cid)] = (
                    np.sum(np.stack(g["vsum"].to_numpy()), axis=0) / n
                )
    return books


def _pq_queries(query_ids, query_matrix, books: np.ndarray):
    """The broadcast side of ADC scoring: (query ids, per-query LUT) with
    LUT[q, m, j] = q_m · c_{m,j} over the normalized queries."""
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    m, ncent, sub = books.shape
    lut = np.empty((qn.shape[0], m, ncent), dtype=np.float64)
    for mi in range(m):
        lut[:, mi, :] = qn[:, mi * sub:(mi + 1) * sub] @ books[mi].T
    return ray.put((np.asarray(query_ids, dtype=np.int64), lut))


def _pq_topk(batch: pa.Table, queries_ref, books_ref, k: int,
             probe_ref=None) -> pa.Table:
    """map_batches task: encode the batch's (normalized) vectors to PQ codes
    and score every query via its ADC lookup table — score(q, x) =
    Σ_m LUT[m, code_m(x)] — keeping the batch-local top-k partial (same
    reduce shape as ``_cosine_topk``, including the IVF probe restriction).
    Encoding per batch keeps the operator single-pass; a persisted-codes
    variant would split encode/score into two stages with the codes parquet
    in between (the FAISS write_index/read_index analog)."""
    qids, lut = ray.get(queries_ref)
    codes = _pq_encode(_normalize(_batch_matrix(batch, "embedding")),
                       ray.get(books_ref))
    # gather LUT values per subspace, sum across subspaces
    sims = [np.take_along_axis(lut[qi], codes.T, axis=1).sum(axis=0)
            for qi in range(len(qids))]
    return _topk_rows(qids, sims, batch, k, probe_ref)


def pq_topk(
    ds: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    m: int = 8,
    n_centroids: int = 16,
    rerank: int | None = 8,
) -> pd.DataFrame:
    """Approximate cosine top-k via product quantization with asymmetric
    distance computation: codebooks train on the modulo sample, then one
    streaming pass encodes + ADC-scores every batch (the query-side LUTs
    broadcast once; per-batch partials reduce driver-side). Compression:
    dim floats -> m bytes per vector.

    ``rerank`` (the FAISS refine stage): the ADC pass keeps a
    ``rerank * k`` shortlist per query, whose ORIGINAL vectors are gathered
    with one broadcast ``isin`` filter pass (shortlist is queries x
    rerank*k — tiny) and re-scored exactly; final ranking and the 6-decimal
    rounding then match the brute-force scorer on everything the shortlist
    caught. ``rerank=None`` returns raw ADC scores."""
    books = train_pq_codebooks(ds, m=m, n_centroids=n_centroids)
    kk = k if rerank is None else rerank * k
    partials = _scored_partials(ds, _pq_topk, _pq_queries(query_ids, query_matrix, books),
                                ray.put(books), kk)
    return _refine(ds, query_ids, query_matrix, partials, k, rerank)


def _refine(ds: ray.data.Dataset, query_ids, query_matrix,
            partials: pd.DataFrame, k: int, rerank: int | None) -> pd.DataFrame:
    """FAISS refine stage shared by the compressed-index paths (PQ, SQ, BQ,
    IVF-PQ): rank the approximate partials to a ``rerank * k`` shortlist,
    gather the shortlist's ORIGINAL vectors with one broadcast semi-join
    (the shortlist is queries x rerank*k — tiny) and re-score exactly;
    final ranking and 6-decimal rounding then match the brute-force scorer
    on everything the shortlist caught. ``rerank=None`` returns the raw
    approximate top-k; an empty shortlist returns as is."""
    short = _finalize_topk(partials, k if rerank is None else rerank * k)
    if rerank is None or short.empty:
        return short
    wanted = ray.put(np.unique(short["vec_id"].to_numpy(np.int64)))
    got = to_frame(semi_join(ds, "vec_id", wanted)).sort_values("vec_id")
    # vectorized exact rescore of the whole shortlist at once: one gather of
    # the candidate matrix, one row-wise dot (the round-2 per-query pandas
    # loop re-stacked the matrix per query)
    ids_sorted = got["vec_id"].to_numpy(np.int64)
    mat = _normalize(np.stack([np.asarray(v, np.float64) for v in got["embedding"]]))
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    qrow = {int(q): i for i, q in enumerate(query_ids)}
    pos = np.searchsorted(ids_sorted, short["vec_id"].to_numpy(np.int64))
    qi = short["query_id"].map(qrow).to_numpy(np.int64)
    s = np.einsum("ij,ij->i", mat[pos], qn[qi])
    return _finalize_topk(
        pd.DataFrame({
            "query_id": short["query_id"].to_numpy(np.int64),
            "vec_id": short["vec_id"].to_numpy(np.int64),
            "cosine": s,
        }),
        k,
    )


# ---------------------------------------------------------------------------
# Scalar-quantized ANN (the FAISS SQ8 analog): dim float64 -> dim uint8
# ---------------------------------------------------------------------------


def train_sq_minmax(ds: ray.data.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension (min, max) of the NORMALIZED corpus — the SQ8 training
    stats (FAISS ScalarQuantizer QT_8bit's rangestat=minmax). Unlike k-means
    this needs no sample: min/max partials are order-independent, so one
    exact streaming pass over the full dataset reduces to two dim-length
    vectors regardless of corpus size."""

    def minmax(batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(batch, "embedding"))
        return pa.table({
            "lo": pa.array([m.min(axis=0).tolist()]),
            "hi": pa.array([m.max(axis=0).tolist()]),
        })

    parts = ds.map_batches(minmax, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    lo = np.stack([np.asarray(v, np.float64) for v in parts["lo"]]).min(axis=0)
    hi = np.stack([np.asarray(v, np.float64) for v in parts["hi"]]).max(axis=0)
    return lo, hi


def _quantized_topk(batch: pa.Table, queries_ref, params_ref, k: int,
                    one_bit: bool) -> pa.Table:
    """map_batches task for the SQ8 and 1-bit scoring passes: quantize the
    batch's (normalized) vectors and score every query against the
    RECONSTRUCTION x̂, folded into one (n, dim) x (dim, nq) matmul per
    batch; batch-local top-k partials, same reduce shape as
    ``_cosine_topk``. ``(lo, hi)`` are the exact streaming per-dim min/max.

    - SQ8: code = round((x-lo)/(hi-lo)*255), x̂ = lo + code/255*(hi-lo), so
      score(q, x) = (codes * step) @ q + q·lo.
    - 1-bit: bit_d = x_d > midpoint_d (order-independent, so bits are
      deterministic), two-level x̂ with c0_d = (3*lo+hi)/4 and
      c1_d = (lo+3*hi)/4: score = (bits*(c1-c0)) @ q + q·c0 — 64x
      compression before the rerank."""
    qids, qn = ray.get(queries_ref)
    lo, hi = ray.get(params_ref)
    mat = _normalize(_batch_matrix(batch, "embedding"))
    if one_bit:
        base = (3.0 * lo + hi) / 4.0  # c0
        span = (lo + 3.0 * hi) / 4.0 - base  # c1 - c0
        recon = (mat > (lo + hi) / 2.0).astype(np.float64) * span
    else:
        base, step = lo, (hi - lo) / 255.0
        safe = np.where(step > 0, step, 1.0)
        recon = np.clip(np.rint((mat - lo) / safe), 0, 255) * step
    s_all = recon @ qn.T + qn @ base  # (n, nq)
    return _topk_rows(qids, s_all.T, batch, k)


def _quantized_search(ds, query_ids, query_matrix, k, rerank, one_bit):
    """SQ8 / 1-bit top-k: exact streaming min/max training, one pass that
    quantizes + scores every batch against the broadcast queries, then the
    shared FAISS-refine stage."""
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    partials = _scored_partials(
        ds, _quantized_topk, ray.put((np.asarray(query_ids, dtype=np.int64), qn)),
        ray.put(train_sq_minmax(ds)), k if rerank is None else rerank * k,
        one_bit)
    return _refine(ds, query_ids, query_matrix, partials, k, rerank)


def sq_topk(
    ds: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    rerank: int | None = 8,
) -> pd.DataFrame:
    """Approximate cosine top-k via 8-bit scalar quantization (the FAISS
    IndexScalarQuantizer/QT_8bit analog; reference builds compressed FAISS
    indexes the same way): exact streaming min/max training, then one pass
    that quantizes + scores every batch against the broadcast queries.
    Compression: dim float64 -> dim bytes. ``rerank`` keeps a ``rerank*k``
    shortlist that the shared FAISS-refine stage re-scores exactly;
    ``rerank=None`` returns raw reconstruction scores."""
    return _quantized_search(ds, query_ids, query_matrix, k, rerank, one_bit=False)


def ivfpq_topk(
    ds: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    nprobe: int = 4,
    m: int = 8,
    pq_centroids: int = 16,
    rerank: int | None = 8,
) -> pd.DataFrame:
    """IVF + PQ combined — the reference's actual FAISS index family
    (IVF-PQ; ``core/.../ivf_pq_build_cagra_config.py``): a coarse-centroid
    probe restricts each query to ``nprobe`` buckets and ADC scores only
    those candidates. Codes quantize the RAW vectors rather than the
    per-bucket residuals (FAISS encodes residuals; documented
    simplification — the shared exact rerank makes final scores exact
    either way). Both stages are the existing distributed kernels:
    ``assign_buckets`` adds the bucket column, ``_pq_topk`` takes the
    same per-query probe restriction ``_cosine_topk`` has."""
    cent = train_centroids(ds, n_centroids)
    books = train_pq_codebooks(ds, m=m, n_centroids=pq_centroids)
    qn = _normalize(np.asarray(query_matrix, dtype=np.float64))
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]
    partials = _scored_partials(
        assign_buckets(ds, cent), _pq_topk,
        _pq_queries(query_ids, query_matrix, books), ray.put(books),
        k if rerank is None else rerank * k, ray.put(probe.astype(np.int64)))
    return _refine(ds, query_ids, query_matrix, partials, k, rerank)


# ---------------------------------------------------------------------------
# Binary quantization (1-bit; the OpenSearch k-NN BQ / FAISS QT_1bit analog)
# ---------------------------------------------------------------------------


def bq_topk(
    ds: ray.data.Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    k: int = 10,
    rerank: int | None = 16,
) -> pd.DataFrame:
    """Approximate cosine top-k via binary (1-bit) quantization — the
    OpenSearch k-NN binary-quantization analog: dim float64 -> dim bits,
    midpoint thresholds from the exact streaming min/max, coarse scoring
    against the two-level reconstruction, then the shared FAISS-refine
    exact rerank on a ``rerank*k`` shortlist (1-bit codes are coarse, so
    the default shortlist is wider than SQ8's)."""
    return _quantized_search(ds, query_ids, query_matrix, k, rerank, one_bit=True)
