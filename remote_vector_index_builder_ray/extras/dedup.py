"""Deduplication operators for a large-scale training-data pipeline.

All follow the scalable Ray Data shape: a vectorized per-batch sketch/signature
stage (``map_batches``) followed by ONE keyed shuffle (``groupby``) over the
much smaller signature rows — never a pairwise all-to-all over raw documents.

- exact_dedup:      canonical-text md5 -> hash-partition -> keep min doc_id
- minhash_lsh:      k-shingles -> 64 minhashes -> band buckets -> candidate
                    pairs within buckets -> exact Jaccard verify
- simhash:          64-bit simhash -> near-dup pairs at hamming <= radius
                    (banded by 16-bit quarters so the shuffle key is a band,
                    not a full cross join)
- embedding near-dup lives in extras/ann.py (cosine >= threshold)

Hashing is vectorized: blake2b runs once per UNIQUE token (dictionary-encode
the token stream, hash the tiny vocab, gather by code); shingle hashes are a
numpy polynomial combine of per-token hashes over sliding windows — no Python
loop over tokens or shingles in any hot stage.

Every per-batch stage is a stateless ``map_batches`` task (broadcast state
such as minhash parameters or a benchmark shingle set travels in
``fn_args`` or one ``ray.put``); every broadcast key filter is
``stages.merge.semi_join``.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from remote_vector_index_builder_ray.functions.tokenizer import tokenize_column
from remote_vector_index_builder_ray.stages.merge import (
    isin_sorted,
    semi_join,
    to_frame,
)

logger = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# vectorized token / shingle hashing
# ---------------------------------------------------------------------------

# wraparound-mod-2^64 polynomial multiplier (odd => bijective step)
_POLY = np.uint64(1099511628211)


def _token_hashes(tokens: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Stable 64-bit blake2b hash per token — computed once per UNIQUE token
    (the vocab is tiny relative to the token stream), then gathered by
    dictionary code. Replaces the per-token Python loop flagged in round 1."""
    if len(tokens) == 0:
        return np.empty(0, np.uint64)
    d = tokens.dictionary_encode()
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = d.dictionary.to_pylist()
    vh = np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(t.encode(), digest_size=8).digest(), "little")
            for t in vocab
        ),
        dtype=np.uint64,
        count=len(vocab),
    )
    return vh[codes]


def _shingle_hashes_batch(
    tok_h: np.ndarray, doc_len: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k-token shingle hashes for a whole batch at once.

    ``tok_h`` is the flat per-token hash stream, ``doc_len`` the per-doc token
    counts. Returns ``(sh_vals: uint64, sh_doc: int64)`` where a doc with
    0 < len < k contributes ONE whole-doc shingle. Windows are a vectorized
    polynomial combine (k-1 shifted multiply-adds over the flat stream);
    windows straddling a doc boundary are masked out.
    """
    doc_len = np.asarray(doc_len, dtype=np.int64)
    n = int(len(tok_h))
    bounds = np.concatenate([[0], np.cumsum(doc_len)]).astype(np.int64)
    doc_index = np.repeat(np.arange(len(doc_len), dtype=np.int64), doc_len)
    parts_v: list[np.ndarray] = []
    parts_d: list[np.ndarray] = []
    if n >= k:
        m = n - k + 1
        h = tok_h[:m].copy()
        for j in range(1, k):
            h = h * _POLY + tok_h[j : m + j]
        pos = np.arange(n, dtype=np.int64) - bounds[doc_index]
        valid = pos[:m] + k <= doc_len[doc_index[:m]]
        parts_v.append(h[valid])
        parts_d.append(doc_index[:m][valid])
    short = np.flatnonzero((doc_len > 0) & (doc_len < k))
    if len(short):
        sv = np.empty(len(short), np.uint64)
        for i, d in enumerate(short):
            seg = tok_h[bounds[d] : bounds[d + 1]]
            acc = np.uint64(0)
            for t in seg:  # rare: only docs shorter than k tokens
                acc = acc * _POLY + t
            sv[i] = acc
        parts_v.append(sv)
        parts_d.append(short.astype(np.int64))
    if not parts_v:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    vals = np.concatenate(parts_v)
    docs = np.concatenate(parts_d)
    order = np.argsort(docs, kind="stable")  # keep per-doc grouping contiguous
    return vals[order], docs[order]


def _shingle_hashes(tokens: np.ndarray, k: int) -> np.ndarray:
    """Scalar-path shingle hashes for ONE doc (oracle/verify use); identical
    values to ``_shingle_hashes_batch``."""
    toks = pa.array([str(t) for t in tokens], type=pa.string())
    th = _token_hashes(toks)
    vals, _ = _shingle_hashes_batch(th, np.array([len(th)], dtype=np.int64), k)
    return vals


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def _canonical_hash_batch(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    tokens, doc_index, n_tokens = tokenize_column(batch[text_col])
    toks = np.asarray(tokens.to_pylist(), dtype=object)
    bounds = np.concatenate([[0], np.cumsum(n_tokens)]).astype(np.int64)
    fps = [
        hashlib.md5(" ".join(toks[bounds[i] : bounds[i + 1]]).encode()).hexdigest()
        for i in range(batch.num_rows)
    ]
    return pa.table({id_col: batch[id_col], "content_hash": pa.array(fps, type=pa.string())})


def exact_dedup(ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id") -> ray.data.Dataset:
    """Exact dedup by canonical (tokenized) content: keep the min id per hash.

    One shuffle keyed on content_hash; the shuffled rows are (id, hash) pairs,
    not documents — at 100 TB the heavy text never moves.
    """
    from ray.data.aggregate import Count, Min

    hashed = ds.map_batches(
        lambda b: _canonical_hash_batch(b, text_col, id_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return (
        hashed.groupby("content_hash")
        .aggregate(Min(id_col, alias_name="keep_id"), Count(alias_name="n_copies"))
    )


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _minhash_params(num_hashes: int, seed: int = 12345):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_hashes, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_hashes, dtype=np.uint64)
    return a, b


_SLAB = 1 << 18  # shingles per vectorized minhash slab (bounds the (H, S) temp)


def _signatures(sh: np.ndarray, sh_doc: np.ndarray, n_docs: int,
                a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-doc minhash signatures (n_docs x len(a)): one (num_hashes x
    n_shingles) multiply-add per slab, per-doc mins via
    ``np.minimum.reduceat`` — no per-doc Python loop."""
    sigs = np.full((n_docs, len(a)), np.uint64(_MERSENNE), dtype=np.uint64)
    if not len(sh):
        return sigs
    # per-doc contiguous runs (sh_doc is sorted by construction)
    change = np.empty(len(sh_doc), dtype=bool)
    change[0] = True
    change[1:] = sh_doc[1:] != sh_doc[:-1]
    starts = np.flatnonzero(change)
    docs_with = sh_doc[starts]
    mins = np.full((len(starts), len(a)), np.uint64(_MERSENNE), dtype=np.uint64)
    for lo in range(0, len(sh), _SLAB):
        hi = min(lo + _SLAB, len(sh))
        prod = (sh[lo:hi][None, :] * a[:, None] + b[:, None]) % np.uint64(_MERSENNE)
        # run boundaries restricted to this slab
        s_in = starts[(starts >= lo) & (starts < hi)]
        cut = np.unique(np.concatenate([[lo], s_in])) - lo
        part = np.minimum.reduceat(prod, cut, axis=1).T  # (runs_in_slab, H)
        run_idx = np.searchsorted(starts, cut + lo, side="right") - 1
        np.minimum.at(mins, run_idx, part)
    sigs[docs_with] = mins
    return sigs


def _minhash_band_keys(batch: pa.Table, a: np.ndarray, b: np.ndarray,
                       band_size: int, shingle_k: int) -> pa.Table:
    """map_batches task: per-doc minhash signature (hash parameters
    ``a``, ``b`` from ``_minhash_params``) folded into one key per band."""
    tokens, doc_index, n_tokens = tokenize_column(batch["text"])
    tok_h = _token_hashes(tokens)
    sh, sh_doc = _shingle_hashes_batch(tok_h, n_tokens, shingle_k)
    n = batch.num_rows
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    sigs = _signatures(sh, sh_doc, n, a, b)
    nbands = len(a) // band_size
    # band key: polynomial combine of the band's signature values
    bk = sigs.reshape(n, nbands, band_size)
    key = np.zeros((n, nbands), dtype=np.uint64)
    for j in range(band_size):
        key = key * _POLY + bk[:, :, j]
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(ids, nbands), type=pa.int64()),
            "band": pa.array(np.tile(np.arange(nbands, dtype=np.int32), n), type=pa.int32()),
            "band_key": pa.array(key.reshape(-1).view(np.int64), type=pa.int64()),
        }
    )


def minhash_lsh_candidates(
    ds: ray.data.Dataset, num_hashes: int = 64, band_size: int = 4,
    shingle_k: int = 3, max_band_df: int | None = 1000,
) -> ray.data.Dataset:
    """Candidate near-dup pairs: docs sharing any LSH band bucket.

    Shuffle key = (band, band_key); each group emits its pairs. Buckets are
    tiny by construction for REAL near-dups, but a degenerate bucket (a
    boilerplate signature shared by m docs — e.g. empty texts) would emit m²
    pairs into the shuffle, so ``max_band_df`` (default 1000) drops and logs
    oversized buckets, mirroring ``ngram_jaccard_pairs.max_shingle_df``.
    Pass ``None`` for the uncapped (oracle-comparison) behavior.
    """
    sigs = ds.map_batches(
        _minhash_band_keys,
        fn_args=(*_minhash_params(num_hashes), band_size, shingle_k),
        batch_format="pyarrow", zero_copy_batch=True,
    )

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(g["doc_id"].to_numpy())
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
        if max_band_df is not None and len(ids) > max_band_df:
            logger.warning(
                "minhash_lsh_candidates: dropping band bucket with %d members"
                " > max_band_df=%d", len(ids), max_band_df,
            )
            return pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]})

    pairs = sigs.groupby(["band", "band_key"]).map_groups(emit_pairs, batch_format="pandas")
    # dedup pairs found in multiple bands (small set by construction)
    return pairs.groupby(["doc_a", "doc_b"]).count()


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """[0..c0), [0..c1), ... concatenated — the within-row offsets for a
    vectorized ragged gather (no Python per-row loop): each output's global
    index minus its row's global start."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    row_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return np.arange(total, dtype=np.int64) - starts[row_of]


@ray.remote
def _consolidate_shingles(*blocks):
    """Concatenate gathered (doc_id, hashes) blocks into ONE CSR-style
    (sorted ids, row offsets, flat sorted-per-row hashes) triple. Runs on a
    worker — the shingle sets are created, and stay, in the object store;
    callers hand the ObjectRef to a map_batches constructor without ever
    ray.get-ing it on the driver (the ``_consolidate_vectors`` pattern,
    extras/ann.py)."""
    tabs = [b for b in blocks if b.num_rows]
    if not tabs:
        return (np.empty(0, np.int64), np.zeros(1, np.int64),
                np.empty(0, np.uint64))
    t = pa.concat_tables(tabs)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    col = t["hashes"].combine_chunks()
    row_counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
    o = np.argsort(ids)
    ids, counts = ids[o], row_counts[o]
    if len(o):
        # vectorized gather of each row's hash slice in sorted-id order:
        # element i of the output comes from row o[row_of(i)] at its local
        # offset — one np.take, no per-row Python slicing
        starts = np.concatenate([[0], np.cumsum(row_counts)]).astype(np.int64)
        src = np.repeat(starts[o], counts) + _ragged_arange(counts)
        flat = flat[src]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return ids, offsets, flat


def _verify_jaccard(batch: pa.Table, csr_ref, threshold: float) -> pa.Table:
    """map_batches over the pair stream: slice both sides' sorted shingle
    arrays out of the broadcast CSR, |A ∩ B| via intersect1d."""
    ids, off, flat = ray.get(csr_ref)

    def row(d: int):
        i = int(np.searchsorted(ids, d))
        if i >= len(ids) or ids[i] != d:
            return None
        return flat[off[i]:off[i + 1]]

    a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    oa, ob, oj = [], [], []
    for da, db in zip(a, b):
        s1, s2 = row(int(da)), row(int(db))
        n1 = 0 if s1 is None else len(s1)
        n2 = 0 if s2 is None else len(s2)
        inter = (len(np.intersect1d(s1, s2, assume_unique=True))
                 if n1 and n2 else 0)
        union = n1 + n2 - inter
        j = inter / union if union else 0.0
        if j >= threshold:
            # floor(x*1e6+0.5)/1e6: round-half-up, identical in numpy and SQL
            oa.append(int(da))
            ob.append(int(db))
            oj.append(float(np.floor(j * 1e6 + 0.5) / 1e6))
    return pa.table({
        "doc_a": pa.array(oa, type=pa.int64()),
        "doc_b": pa.array(ob, type=pa.int64()),
        "jaccard": pa.array(oj, type=pa.float64()),
    })


def jaccard_verify(ds: ray.data.Dataset, pairs: pd.DataFrame, shingle_k: int = 3, threshold: float = 0.7) -> pd.DataFrame:
    """Exact n-gram Jaccard over candidate pairs, DISTRIBUTED (the
    ``extras/ann.embedding_near_dup`` verify pattern): shingle sets are
    built inside ``map_batches`` over the candidate docs a broadcast
    semi-join gathers, consolidated into one broadcast CSR object by a worker
    task, and the candidate-pair stream verifies against it in
    ``map_batches`` — no driver-side per-doc tokenize or per-pair loop. The
    candidate PAIR set is LSH-cap-bounded by the producers
    (``max_band_df`` / ``max_shingle_df``), so the broadcast is small."""
    if not len(pairs):
        return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                             "doc_b": pd.Series(dtype="int64"),
                             "jaccard": pd.Series(dtype="float64")})
    from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text

    wanted = np.unique(np.concatenate(
        [pairs["doc_a"].to_numpy(), pairs["doc_b"].to_numpy()]
    ).astype(np.int64))
    k = int(shingle_k)

    def shingle_sets(batch: pa.Table) -> pa.Table:
        sets = [np.unique(_shingle_hashes(
                    np.asarray(tokenize_text(txt or ""), dtype=object), k))
                for txt in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": pa.array(batch["doc_id"].to_numpy(zero_copy_only=False)
                               .astype(np.int64), type=pa.int64()),
            "hashes": pa.array([s.tolist() for s in sets],
                               type=pa.list_(pa.uint64())),
        })

    sub_refs = semi_join(ds, "doc_id", ray.put(wanted)).map_batches(
        shingle_sets, batch_format="pyarrow", zero_copy_batch=True
    ).to_arrow_refs()
    csr_ref = _consolidate_shingles.remote(*sub_refs)
    # verified pairs only: the near-dup-contract-small result
    return to_frame(ray.data.from_pandas(
        pairs[["doc_a", "doc_b"]].reset_index(drop=True)
    ).map_batches(
        _verify_jaccard, fn_args=(csr_ref, float(threshold)),
        batch_format="pyarrow",
    )).reset_index(drop=True)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (shingle inverted index)
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    shingle_k: int = 3,
    threshold: float = 0.2,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_shingle_df: int | None = 1000,
) -> pd.DataFrame:
    """EXACT n-gram Jaccard near-dup pairs via a shingle inverted index.

    Deterministic (SQL-oracle-checkable) counterpart of minhash_lsh_candidates:
    |A ∩ B| is computed distributed — emit (shingle, doc_id) rows, groupby
    shingle emits co-occurrence pairs, a second groupby counts them — so the
    wide shuffle moves 8-byte shingle hashes, never document text. Set (not
    multiset) semantics: shingles are deduped per doc before the shuffle.

    ``max_shingle_df`` (default 1000) caps the per-shingle bucket size at
    scale — a boilerplate phrase shared by m docs would otherwise emit m²
    pairs; dropped groups are counted and logged. Pass ``None`` for the exact
    (oracle-comparison) path. Reference analog: the job-id idempotency dedup
    (app/services/job_service.py:60-83) generalised to content similarity.
    """

    def shingle_rows(batch: pa.Table) -> pa.Table:
        tokens, doc_index, n_tokens = tokenize_column(batch[text_col])
        tok_h = _token_hashes(tokens)
        sh_v, sh_d = _shingle_hashes_batch(tok_h, n_tokens, shingle_k)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # per-doc unique shingles: sort (doc, val), drop consecutive dups
        order = np.lexsort((sh_v, sh_d))
        v, d = sh_v[order], sh_d[order]
        keep = np.ones(len(v), dtype=bool)
        if len(v) > 1:
            keep[1:] = (v[1:] != v[:-1]) | (d[1:] != d[:-1])
        return pa.table(
            {
                id_col: pa.array(ids[d[keep]], type=pa.int64()),
                "shingle": pa.array(v[keep], type=pa.uint64()),
            }
        )

    # materialize: sh feeds TWO consumers (pair groupby + size groupby);
    # without this Ray would re-run the tokenize+shingle pass per consumer
    sh = ds.map_batches(shingle_rows, batch_format="pyarrow", zero_copy_batch=True).materialize()

    n_dropped = 0

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(g[id_col].to_numpy())
        empty = pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64")})
        if len(ids) < 2:
            return empty
        if max_shingle_df is not None and len(ids) > max_shingle_df:
            logger.warning(
                "ngram_jaccard_pairs: dropping shingle group with df=%d > max_shingle_df=%d",
                len(ids), max_shingle_df,
            )
            return empty
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]})

    inter = (
        sh.groupby("shingle")
        .map_groups(emit_pairs, batch_format="pandas")
        .groupby(["doc_a", "doc_b"])
        .count()
        .to_pandas()
    )
    _ = n_dropped
    # per-doc distinct-shingle counts: tree-aggregated, tiny rows (id, n)
    sizes = sh.groupby(id_col).count().to_pandas()
    nsh = dict(zip(sizes[id_col].astype(int), sizes["count()"].astype(int)))
    if len(inter) == 0:
        return pd.DataFrame(
            {"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"), "jaccard": pd.Series(dtype="float64")}
        )
    na = inter["doc_a"].map(nsh).to_numpy(dtype=np.float64)
    nb = inter["doc_b"].map(nsh).to_numpy(dtype=np.float64)
    i = inter["count()"].to_numpy(dtype=np.float64)
    j = i / (na + nb - i)
    out = pd.DataFrame(
        {"doc_a": inter["doc_a"].astype("int64"), "doc_b": inter["doc_b"].astype("int64"), "jaccard": j}
    )
    out = out[out["jaccard"] >= threshold].copy()
    # floor(x*1e6+0.5)/1e6: round-half-up, bit-identical to the SQL oracle's
    # floor formula (Python/numpy round() is half-to-even and can flake)
    out["jaccard"] = np.floor(out["jaccard"].to_numpy() * 1e6 + 0.5) / 1e6
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------


def duplicate_ngram_fraction_ds(
    ds: ray.data.Dataset,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Per-document cross-corpus duplicate-n-gram fraction — the
    RefinedWeb/Gopher-style contamination signal: of a doc's DISTINCT
    k-token shingles, the fraction that also occur in at least one OTHER
    document. Two shuffles, both over 8-byte shingle hashes (text never
    moves): (1) emit per-doc-distinct (shingle, doc) rows, groupby shingle
    marks each row shared/unique (a group with >= 2 docs is shared), (2)
    groupby doc reduces (n_shingles, n_dup). A doc shorter than
    ``shingle_k`` tokens contributes its whole token stream as one shingle
    (``_shingle_hashes_batch``); zero-token docs emit nothing and are
    absent from the result. Returns a DATASET of (doc_id, n_shingles,
    n_dup, dup_fraction), fraction rounded half-up to 6 decimals,
    doc_id-ascending — the per-doc report is itself corpus-sized at scale,
    so it stays a stream (write_parquet / iter_batches it); the DataFrame
    twin is ``duplicate_ngram_fraction``.

    Scale note: unlike the pair-emitting near-dup paths this never leaves
    the per-(doc, shingle) cardinality — no m² blowup on boilerplate
    shingles — so it needs no ``max_shingle_df`` cap."""

    def shingle_rows(batch: pa.Table) -> pa.Table:
        tokens, doc_index, n_tokens = tokenize_column(batch[text_col])
        tok_h = _token_hashes(tokens)
        sh_v, sh_d = _shingle_hashes_batch(tok_h, n_tokens, shingle_k)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((sh_v, sh_d))
        v, d = sh_v[order], sh_d[order]
        keep = np.ones(len(v), dtype=bool)
        if len(v) > 1:
            keep[1:] = (v[1:] != v[:-1]) | (d[1:] != d[:-1])
        return pa.table(
            {
                id_col: pa.array(ids[d[keep]], type=pa.int64()),
                "shingle": pa.array(v[keep], type=pa.uint64()),
            }
        )

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        return pd.DataFrame(
            {id_col: ids,
             "dup": np.full(len(ids), int(len(ids) >= 2), dtype=np.int64)}
        )

    def add_fraction(t: pa.Table) -> pa.Table:
        n_sh = t["n_shingles"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_dup = t["n_dup"].to_numpy(zero_copy_only=False).astype(np.int64)
        frac = n_dup.astype(np.float64) / n_sh.astype(np.float64)
        return pa.table({
            id_col: t[id_col].cast(pa.int64()),
            "n_shingles": pa.array(n_sh, type=pa.int64()),
            "n_dup": pa.array(n_dup, type=pa.int64()),
            "dup_fraction": pa.array(np.floor(frac * 1e6 + 0.5) / 1e6,
                                     type=pa.float64()),
        })

    sh = ds.map_batches(shingle_rows, batch_format="pyarrow", zero_copy_batch=True)
    return (
        sh.groupby("shingle")
        .map_groups(mark, batch_format="pandas")
        .groupby(id_col)
        .aggregate(
            ray.data.aggregate.Count(alias_name="n_shingles"),
            ray.data.aggregate.Sum("dup", alias_name="n_dup"),
        )
        .map_batches(add_fraction, batch_format="pyarrow",
                     zero_copy_batch=True)
        .sort(id_col)
    )


def duplicate_ngram_fraction(
    ds: ray.data.Dataset,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Driver-DataFrame twin of ``duplicate_ngram_fraction_ds`` — collects
    the per-doc stream, so only for driver-small corpora (tests, oracle
    comparison); at scale use the ``_ds`` form and write/iterate it."""
    per_doc = duplicate_ngram_fraction_ds(
        ds, shingle_k=shingle_k, text_col=text_col, id_col=id_col
    ).to_pandas()
    cols = {id_col: pd.Series(dtype=np.int64),
            "n_shingles": pd.Series(dtype=np.int64),
            "n_dup": pd.Series(dtype=np.int64),
            "dup_fraction": pd.Series(dtype=np.float64)}
    if per_doc.empty:
        return pd.DataFrame(cols)
    return per_doc[[id_col, "n_shingles", "n_dup", "dup_fraction"]].astype(
        {id_col: np.int64, "n_shingles": np.int64, "n_dup": np.int64,
         "dup_fraction": np.float64}
    ).reset_index(drop=True)


def benchmark_decontaminate_ds(
    ds: ray.data.Dataset,
    benchmark_mod: int = 97,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Benchmark decontamination (the Lee/GPT-3-style eval-overlap check):
    flag every corpus document sharing at least one distinct ``shingle_k``-
    token shingle with the BENCHMARK subset (here the deterministic holdout
    ``doc_id % benchmark_mod == 0`` — in production, the eval sets). The
    benchmark's distinct shingle hashes are collected once and broadcast
    via ``ray.put`` (eval sets are tiny relative to the corpus — the
    classic small-side broadcast, never a shuffle join); the corpus then
    streams through one map_batches pass counting per-doc matches with a
    sorted-array membership test. Returns a DATASET with, for every
    NON-benchmark doc with at least one shingle: (doc_id, n_shingles,
    n_shared, contaminated[0/1]), doc_id-ascending — the per-doc report is
    corpus-sized at scale, so it stays a stream; the driver-DataFrame twin
    is ``benchmark_decontaminate``. Only the BENCHMARK side's distinct
    shingles are collected to the driver (eval-set-sized by contract). A
    doc shorter than ``shingle_k`` tokens shingles as its whole token
    stream (``_shingle_hashes_batch``)."""

    def doc_shingles(batch: pa.Table, keep_benchmark: bool):
        ids_all = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = (ids_all % benchmark_mod == 0) == keep_benchmark
        if not sel.any():
            return np.empty(0, np.int64), np.empty(0, np.uint64)
        sub = batch.filter(pa.array(sel))
        tokens, _, n_tokens = tokenize_column(sub[text_col])
        tok_h = _token_hashes(tokens)
        sh_v, sh_d = _shingle_hashes_batch(tok_h, n_tokens, shingle_k)
        ids = sub[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((sh_v, sh_d))
        v, d = sh_v[order], sh_d[order]
        keep = np.ones(len(v), dtype=bool)
        if len(v) > 1:
            keep[1:] = (v[1:] != v[:-1]) | (d[1:] != d[:-1])
        return ids[d[keep]], v[keep]

    def bench_rows(batch: pa.Table) -> pa.Table:
        _, v = doc_shingles(batch, keep_benchmark=True)
        return pa.table({"shingle": pa.array(np.unique(v), type=pa.uint64())})

    # the ONLY driver collection: the benchmark side's distinct shingle
    # hashes (eval-set-sized by contract) — gathered batch-by-batch, never
    # a per-doc to_pandas
    parts = [
        b["shingle"].to_numpy(zero_copy_only=False)
        for b in ds.map_batches(bench_rows, batch_format="pyarrow",
                                zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")
    ]
    bench_set = (np.unique(np.concatenate(parts)) if parts
                 else np.empty(0, np.uint64))
    bench_ref = ray.put(bench_set)

    def check(batch: pa.Table) -> pa.Table:
        d, v = doc_shingles(batch, keep_benchmark=False)
        hit = isin_sorted(v, ray.get(bench_ref))
        uniq, inv = np.unique(d, return_inverse=True)
        n_sh = np.zeros(len(uniq), np.int64)
        np.add.at(n_sh, inv, 1)
        n_hit = np.zeros(len(uniq), np.int64)
        np.add.at(n_hit, inv, hit.astype(np.int64))
        return pa.table({id_col: pa.array(uniq, type=pa.int64()),
                         "n_shingles": pa.array(n_sh, type=pa.int64()),
                         "n_shared": pa.array(n_hit, type=pa.int64()),
                         "contaminated": pa.array((n_hit > 0).astype(np.int64),
                                                  type=pa.int64())})

    return (
        ds.map_batches(check, batch_format="pyarrow", zero_copy_batch=True)
        .sort(id_col)
    )


def benchmark_decontaminate(
    ds: ray.data.Dataset,
    benchmark_mod: int = 97,
    shingle_k: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Driver-DataFrame twin of ``benchmark_decontaminate_ds`` — collects
    the per-doc stream, so only for driver-small corpora (tests, oracle
    comparison); at scale use the ``_ds`` form and write/iterate it."""
    out = benchmark_decontaminate_ds(
        ds, benchmark_mod=benchmark_mod, shingle_k=shingle_k,
        text_col=text_col, id_col=id_col,
    ).to_pandas()
    cols = {id_col: pd.Series(dtype=np.int64),
            "n_shingles": pd.Series(dtype=np.int64),
            "n_shared": pd.Series(dtype=np.int64),
            "contaminated": pd.Series(dtype=np.int64)}
    if out.empty:
        return pd.DataFrame(cols)
    return out[[id_col, "n_shingles", "n_shared", "contaminated"]].astype(
        {k: s.dtype for k, s in cols.items()}
    ).reset_index(drop=True)


def simhash_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """64-bit simhash over the token multiset (vectorized bit-vote; per-token
    hashes via the dictionary-encoded vocab, not a Python loop)."""
    tokens, doc_index, n_tokens = tokenize_column(batch[text_col])
    th = _token_hashes(tokens)
    n = batch.num_rows
    votes = np.zeros((n, 64), dtype=np.int64)
    if len(th):
        bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        np.add.at(votes, doc_index, bits * 2 - 1)
    sh = (votes > 0).astype(np.uint64)
    vals = (sh << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)
    return pa.table(
        {
            id_col: batch[id_col],
            "simhash": pa.array(vals, type=pa.uint64()),
        }
    )


def simhash_pairs(ds: ray.data.Dataset, radius: int = 3,
                  max_band_df: int | None = 1000) -> pd.DataFrame:
    """Near-dup pairs at hamming distance <= radius.

    Banding: split the 64-bit hash into 4x16-bit quarters — any pair within
    radius<=3 shares at least one identical quarter (pigeonhole), so the
    shuffle key is (quarter_idx, quarter_value), never a cross join.

    A degenerate quarter bucket (empty/boilerplate docs hashing alike — m
    docs sharing one 16-bit quarter) would emit m² pairs into the shuffle,
    so ``max_band_df`` (default 1000) drops and logs oversized buckets —
    the same guard as ``minhash_lsh_candidates.max_band_df``. Pass ``None``
    for the uncapped (oracle-comparison) behavior.
    """
    sigs = ds.map_batches(simhash_batch, batch_format="pyarrow", zero_copy_batch=True)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        h = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        out_ids, out_h, out_q = [], [], []
        for q in range(4):
            quarter = ((h >> np.uint64(16 * q)) & np.uint64(0xFFFF)).astype(np.int64)
            out_ids.append(ids)
            out_h.append(h)
            out_q.append((q << 16) | quarter)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_ids), type=pa.int64()),
                "simhash": pa.array(np.concatenate(out_h), type=pa.uint64()),
                "qkey": pa.array(np.concatenate(out_q), type=pa.int64()),
            }
        )

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("doc_id").sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        hs = g["simhash"].to_numpy().astype(np.uint64)
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"), "hamming": pd.Series(dtype="int64")})
        if max_band_df is not None and len(ids) > max_band_df:
            logger.warning(
                "simhash_pairs: dropping quarter bucket with %d members"
                " > max_band_df=%d", len(ids), max_band_df,
            )
            return pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"), "hamming": pd.Series(dtype="int64")})
        a, b = np.triu_indices(len(ids), k=1)
        x = hs[a] ^ hs[b]
        # vectorized popcount: view the u64 xor as 8 bytes, table-lookup bits
        ham = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1).astype(np.int64)
        keep = ham <= radius
        return pd.DataFrame({"doc_a": ids[a][keep], "doc_b": ids[b][keep], "hamming": ham[keep]})

    pairs = sigs.map_batches(explode, batch_format="pyarrow").groupby("qkey").map_groups(
        emit, batch_format="pandas"
    )
    pdf = pairs.to_pandas()
    return pdf.drop_duplicates(["doc_a", "doc_b"]).reset_index(drop=True)


# Edge count above which dedup_clusters switches from the driver-side
# union-find to the distributed min-label-propagation path. Read at CALL
# time so tests can monkeypatch it down to force the distributed path.
_CLUSTER_DRIVER_MAX = 2_000_000

# dst sentinel marking a "label carrier" row in the propagation shuffle —
# a value no real doc_id can collide with
_LABEL_SENTINEL = np.iinfo(np.int64).min


def _clusters_propagate_ds(pairs: pd.DataFrame,
                           max_rounds: int = 50) -> ray.data.Dataset:
    """Distributed connected components: iterative min-label propagation.

    Each round is ONE keyed Ray shuffle of (int64, int64, int64) rows —
    never the documents, never the adjacency as a driver structure:

      1. union(edge rows (src, dst, _), label rows (node, SENTINEL, label))
      2. groupby(src).map_groups: the group's label row gives the node's
         current label; emit (neighbour, label) per edge row + (node, label)
      3. groupby(node).min(label) -> next round's labels

    The label-edge augmentation (each node's current label joins the edge
    set, both directions) gives pointer-doubling-style acceleration, so a
    length-L chain converges in O(log L) rounds, not O(L). Labels only ever
    decrease, so the propagation has converged exactly when sum(label)
    stops decreasing — a scalar Dataset aggregate per round. Per-round
    ``materialize()`` keeps the lineage flat (iterative pipelines re-execute
    their whole history otherwise). Returns a DATASET of (doc_id,
    cluster_id) sorted doc_id-ascending — the (node, label) table never
    lands on the driver; write_parquet / iter_batches it at scale."""
    if len(pairs) == 0:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "cluster_id": pa.array([], type=pa.int64()),
        }))
    a = pairs["doc_a"].to_numpy(np.int64)
    b = pairs["doc_b"].to_numpy(np.int64)
    nodes = np.unique(np.concatenate([a, b]))
    edges_tbl = pa.table(
        {
            "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            "label": pa.array(np.full(2 * len(a), _LABEL_SENTINEL, dtype=np.int64)),
        }
    )
    lab_ds = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array(nodes, type=pa.int64()),
                "dst": pa.array(np.full(len(nodes), _LABEL_SENTINEL, dtype=np.int64)),
                "label": pa.array(nodes, type=pa.int64()),
            }
        )
    ).materialize()
    prev_sum = int(nodes.astype(object).sum())  # object avoids int64 overflow

    def relay(g: pd.DataFrame) -> pd.DataFrame:
        is_lab = g["dst"].to_numpy(np.int64) == _LABEL_SENTINEL
        lab = int(g.loc[is_lab, "label"].min())
        dsts = g.loc[~is_lab, "dst"].to_numpy(np.int64)
        # neighbours hear the label; the label-edge (node, lab) both ways
        # doubles the hop length each round
        out = np.concatenate([dsts, [int(g["src"].iloc[0]), lab]])
        return pd.DataFrame({"node": out.astype(np.int64),
                             "label": np.full(len(out), lab, dtype=np.int64)})

    for _ in range(max_rounds):
        lab_edges = lab_ds.map_batches(
            lambda t: pa.table({
                "src": t.column("label"), "dst": t.column("src"),
                "label": pa.array(
                    np.full(t.num_rows, _LABEL_SENTINEL, dtype=np.int64)),
            }),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        nxt = (
            ray.data.from_arrow(edges_tbl)
            .union(lab_edges, lab_ds)
            .groupby("src")
            .map_groups(relay, batch_format="pandas")
            .groupby("node")
            .min("label")
        )
        lab_ds = nxt.map_batches(
            lambda t: pa.table({
                "src": t.column("node"),
                "dst": pa.array(np.full(t.num_rows, _LABEL_SENTINEL, dtype=np.int64)),
                "label": t.column("min(label)"),
            }),
            batch_format="pyarrow", zero_copy_batch=True,
        ).materialize()
        cur_sum = int(lab_ds.sum("label"))
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    return lab_ds.map_batches(
        lambda t: pa.table({"doc_id": t.column("src").cast(pa.int64()),
                            "cluster_id": t.column("label").cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).sort("doc_id")


def _clusters_propagate(pairs: pd.DataFrame, max_rounds: int = 50) -> pd.DataFrame:
    """Driver-DataFrame twin of ``_clusters_propagate_ds`` (tests / small
    graphs)."""
    out = _clusters_propagate_ds(pairs, max_rounds=max_rounds).to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "cluster_id": pd.Series(dtype="int64")})
    return out.astype({"doc_id": "int64",
                       "cluster_id": "int64"}).reset_index(drop=True)


def _clusters_union_find(pairs: pd.DataFrame) -> pd.DataFrame:
    """Driver-side connected components (path-halving union-find) for
    driver-small edge sets — O(E α)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    nodes = sorted(set(pairs["doc_a"]) | set(pairs["doc_b"]))
    return pd.DataFrame({
        "doc_id": pd.Series(nodes, dtype=np.int64),
        "cluster_id": pd.Series([find(int(n)) for n in nodes], dtype=np.int64),
    })


def dedup_clusters_ds(
    ds: ray.data.Dataset,
    shingle_k: int = 3,
    threshold: float = 0.2,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_shingle_df: int | None = 1000,
) -> ray.data.Dataset:
    """Near-dup CLUSTER assignment: connected components over the exact
    n-gram-Jaccard pair graph — the step after candidate generation in a
    dedup pipeline ("keep one doc per cluster"). cluster_id = the smallest
    doc_id in the component; only docs participating in at least one pair
    are emitted (singletons keep themselves trivially). Returns a DATASET
    of (doc_id, cluster_id), doc_id-ascending.

    The pair edges are driver-small by the near-dup contract (dup pairs,
    not the corpus), so up to ``_CLUSTER_DRIVER_MAX`` edges union-find runs
    driver-side in O(E α). Beyond that — a pathological pair explosion —
    the same components come from ``_clusters_propagate_ds``: distributed
    min-label propagation where each round shuffles (node, label) int64
    rows only, and the RESULT stays a Dataset too (at that edge count the
    answer itself is too big to land on the driver). Both paths produce
    identical output (pinned by pytest)."""
    pairs = ngram_jaccard_pairs(ds, shingle_k=shingle_k, threshold=threshold,
                                text_col=text_col, id_col=id_col,
                                max_shingle_df=max_shingle_df)
    if len(pairs) > _CLUSTER_DRIVER_MAX:
        return _clusters_propagate_ds(pairs)
    out = _clusters_union_find(pairs)
    if out.empty:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "cluster_id": pa.array([], type=pa.int64()),
        }))
    return ray.data.from_pandas(out)


def dedup_clusters(
    ds: ray.data.Dataset,
    shingle_k: int = 3,
    threshold: float = 0.2,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_shingle_df: int | None = 1000,
) -> pd.DataFrame:
    """Driver-DataFrame twin of ``dedup_clusters_ds`` (see there for
    semantics); collects the per-doc labels, so only for driver-small
    corpora (tests, oracle comparison, the ``dedup_apply`` drop set)."""
    pairs = ngram_jaccard_pairs(ds, shingle_k=shingle_k, threshold=threshold,
                                text_col=text_col, id_col=id_col,
                                max_shingle_df=max_shingle_df)
    if len(pairs) > _CLUSTER_DRIVER_MAX:
        return _clusters_propagate(pairs)
    return _clusters_union_find(pairs)


def dedup_apply(
    ds: ray.data.Dataset,
    shingle_k: int = 3,
    threshold: float = 0.2,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_shingle_df: int | None = 1000,
) -> ray.data.Dataset:
    """END-TO-END near-dup removal: cluster (``dedup_clusters``) then keep
    one doc per cluster — the cluster minimum — plus every unclustered doc.
    The drop set (clustered docs other than their cluster min) is
    queries-x-pairs small by the near-dup contract; it broadcasts via
    ``ray.put`` once and the corpus streams through the broadcast anti-join
    (``stages.merge.semi_join(anti=True)``) — no shuffle touches the full
    dataset. Returns the surviving rows as a Dataset (all input columns)."""
    clusters = dedup_clusters(ds, shingle_k=shingle_k, threshold=threshold,
                              text_col=text_col, id_col=id_col,
                              max_shingle_df=max_shingle_df)
    if len(clusters):
        drop = np.sort(clusters.loc[
            clusters[id_col] != clusters["cluster_id"], id_col
        ].to_numpy(np.int64))
    else:
        drop = np.empty(0, dtype=np.int64)
    return semi_join(ds, id_col, ray.put(drop), anti=True)


# ---------------------------------------------------------------------------
# exact substring (window) deduplication — Lee et al. 2022, "Deduplicating
# Training Data Makes Language Models Better": positional k-token windows,
# every occurrence after the corpus-wide FIRST (min (doc_id, pos)) counts as
# duplicated text. Unlike duplicate_ngram_fraction (distinct-shingle,
# is-it-shared-anywhere), this attributes a canonical copy and charges
# within-doc repeats too — the signal used to CUT duplicated spans.
# ---------------------------------------------------------------------------

_PKEY_POS_BITS = 20  # pos packs into the low bits: supports docs to 1M tokens


def _window_hashes_batch(
    tok_h: np.ndarray, doc_len: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positional k-token window hashes for a whole batch: returns
    (vals: uint64, doc_index: int64, pos: int64). Docs shorter than ``k``
    contribute nothing (they have no k-window). Same vectorized polynomial
    combine as ``_shingle_hashes_batch``, windows straddling doc boundaries
    masked out."""
    doc_len = np.asarray(doc_len, dtype=np.int64)
    n = int(len(tok_h))
    if n < k:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    bounds = np.concatenate([[0], np.cumsum(doc_len)]).astype(np.int64)
    doc_index = np.repeat(np.arange(len(doc_len), dtype=np.int64), doc_len)
    m = n - k + 1
    h = tok_h[:m].copy()
    for j in range(1, k):
        h = h * _POLY + tok_h[j : m + j]
    pos = np.arange(n, dtype=np.int64) - bounds[doc_index]
    valid = pos[:m] + k <= doc_len[doc_index[:m]]
    return h[valid], doc_index[:m][valid], pos[:m][valid]


def substring_dup_stats(
    ds: ray.data.Dataset,
    window: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Per-document exact-substring duplication stats: of a doc's positional
    ``window``-token windows, how many are NOT the corpus-wide first
    occurrence of that window (first = min (doc_id, pos)). Returns a Dataset
    of (doc_id, n_windows, dup_windows); docs shorter than ``window`` have
    no rows (callers coalesce to 0).

    Scale shape (100 TB): window hashes (8 bytes) shuffle, never text, and
    the result STREAMS (no driver materialization). (1) one
    groupby(window-hash) Min(pkey) reduction finds each window's first
    occurrence — pkey packs (doc_id << 20 | pos); (2) the group
    representatives (one row per DISTINCT window) union with the per-doc
    window counts (no shuffle to compute: max(len - k + 1, 0)) and reduce
    by doc in a single groupby. dup = n_windows - non_dup. Collision
    caveat: two distinct windows sharing a 64-bit polynomial hash merge
    (one true first occurrence charged as dup) — at 10^12 windows expect
    ~0.03 merged pairs; acceptable for a cut/score signal.
    """
    from ray.data.aggregate import Min, Sum

    if window < 2:
        raise ValueError("window must be >= 2")

    def emit_occurrences(batch: pa.Table) -> pa.Table:
        tokens, _doc_index, n_tokens = tokenize_column(batch[text_col])
        tok_h = _token_hashes(tokens)
        vals, didx, pos = _window_hashes_batch(tok_h, n_tokens, window)
        ids = batch[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(pos) and int(pos.max()) >= (1 << _PKEY_POS_BITS):
            raise ValueError(
                f"doc position {int(pos.max())} overflows the pkey packing "
                f"({_PKEY_POS_BITS} bits); raise _PKEY_POS_BITS for long docs"
            )
        if len(ids):
            # mirror the pos check: an id outside the 63-_PKEY_POS_BITS
            # budget (or negative) would silently wrap the packed key and
            # corrupt the min-pkey first-occurrence attribution
            if int(ids.max()) >= (1 << (63 - _PKEY_POS_BITS)):
                raise ValueError(
                    f"doc id {int(ids.max())} overflows the pkey packing "
                    f"({63 - _PKEY_POS_BITS} id bits)"
                )
            if int(ids.min()) < 0:
                raise ValueError(
                    f"negative doc id {int(ids.min())} cannot pack into pkey"
                )
        pkey = (ids[didx] << _PKEY_POS_BITS) | pos
        return pa.table({
            "whash": pa.array(vals.view(np.int64), type=pa.int64()),
            "pkey": pa.array(pkey, type=pa.int64()),
        })

    def emit_n_windows(batch: pa.Table) -> pa.Table:
        _tokens, _doc_index, n_tokens = tokenize_column(batch[text_col])
        ids = batch[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        nw = np.maximum(np.asarray(n_tokens, np.int64) - window + 1, 0)
        keep = nw > 0
        return pa.table({
            id_col: pa.array(ids[keep], type=pa.int64()),
            "n_windows": pa.array(nw[keep], type=pa.int64()),
            "non_dup": pa.array(np.zeros(int(keep.sum()), np.int64),
                                type=pa.int64()),
        })

    occ = ds.map_batches(emit_occurrences, batch_format="pyarrow",
                         zero_copy_batch=True)
    # shuffle 1: one row per DISTINCT window survives, carrying its first
    # occurrence's packed (doc, pos) key
    firsts = occ.groupby("whash").aggregate(Min("pkey"))

    def first_doc(batch: pa.Table) -> pa.Table:
        pk = batch["min(pkey)"].combine_chunks().to_numpy(zero_copy_only=False)
        n = len(pk)
        return pa.table({
            id_col: pa.array(pk >> _PKEY_POS_BITS, type=pa.int64()),
            "n_windows": pa.array(np.zeros(n, np.int64), type=pa.int64()),
            "non_dup": pa.array(np.ones(n, np.int64), type=pa.int64()),
        })

    # shuffle 2: group representatives (one per distinct window) union the
    # per-doc window counts, reduced by doc in ONE groupby — the per-doc
    # result stays a streaming Dataset
    reps = firsts.map_batches(first_doc, batch_format="pyarrow")
    nws = ds.map_batches(emit_n_windows, batch_format="pyarrow",
                         zero_copy_batch=True)
    per_doc = nws.union(reps).groupby(id_col).aggregate(
        Sum("n_windows"), Sum("non_dup")
    )

    def finalize(batch: pa.Table) -> pa.Table:
        nw = batch["sum(n_windows)"].combine_chunks().to_numpy(zero_copy_only=False)
        nd = batch["sum(non_dup)"].combine_chunks().to_numpy(zero_copy_only=False)
        ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: pa.array(ids.astype(np.int64), type=pa.int64()),
            "n_windows": pa.array(nw.astype(np.int64), type=pa.int64()),
            "dup_windows": pa.array((nw - nd).astype(np.int64), type=pa.int64()),
        })

    return per_doc.map_batches(finalize, batch_format="pyarrow")
