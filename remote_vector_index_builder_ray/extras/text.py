"""Text-analysis operators over a generic documents table (doc_id, text).

Large-scale training-data-pipeline stages, each a vectorized ``map_batches``
over zero-copy Arrow batches (no shuffle): token counting, quality scoring,
n-gram-heuristic language ID, document fingerprinting. All are deliberately
defined so a DuckDB oracle can express the identical computation (see
``__ray_entry__.oracle_sql``).

Frozen definitions (shared with the SQL oracle):
  tokens          = regexp_extract_all(lower(text), '[a-z0-9_]+')
  n_tokens        = len(tokens); n_unique = len(distinct tokens)
  stopword_ratio  = |tokens in STOPWORDS_SMALL| / n_tokens   (0 if empty)
  lang_id         = 'en' if stopword_ratio >= 0.1 and n_tokens >= 3 else 'unk'
  quality_score   = round(0.5*min(1, n_tokens/100)
                          + 0.3*(unique_ratio) + 0.2*min(1, stopword_ratio*4), 6)
  fingerprint     = md5(' '.join(tokens))  (canonical normalized-text hash)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

from remote_vector_index_builder_ray.functions.tokenizer import tokenize_column

# small frozen stopword list (shared verbatim with the SQL oracle)
STOPWORDS_SMALL = (
    "the and to of a in is it you that he was for on are with as i his they be "
    "at one have this from or had by not but what all were we when your can".split()
)


def text_features(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Vectorized per-doc features; one output row per input row."""
    n = batch.num_rows
    tokens, doc_index, n_tokens = tokenize_column(batch[text_col])
    toks_np = np.asarray(tokens.to_pylist(), dtype=object)

    # stopword count per doc (vectorized membership over the flat token stream)
    stop_set = np.array(STOPWORDS_SMALL, dtype=object)
    is_stop = np.isin(toks_np, stop_set)
    stop_count = np.zeros(n, dtype=np.int64)
    np.add.at(stop_count, doc_index, is_stop.astype(np.int64))

    # unique tokens per doc: unique over (doc_index, token) pairs
    if len(toks_np):
        d = tokens.dictionary_encode()
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        pair = doc_index * (codes.max() + 1) + codes
        uniq_pairs = np.unique(pair)
        n_unique = np.bincount((uniq_pairs // (codes.max() + 1)).astype(np.int64), minlength=n)
    else:
        n_unique = np.zeros(n, dtype=np.int64)

    nt = n_tokens.astype(np.float64)
    safe_nt = np.maximum(nt, 1.0)
    stop_ratio = stop_count / safe_nt
    unique_ratio = n_unique / safe_nt
    # floor(x*1e6 + 0.5)/1e6: deterministic round-half-up, the exact same
    # arithmetic the SQL oracle uses (np.round is half-to-even -> rare tie
    # mismatches vs DuckDB's round)
    quality = np.floor(
        (
            0.5 * np.minimum(1.0, nt / 100.0)
            + 0.3 * unique_ratio
            + 0.2 * np.minimum(1.0, stop_ratio * 4.0)
        )
        * 1e6
        + 0.5
    ) / 1e6
    lang = np.where((stop_ratio >= 0.1) & (nt >= 3), "en", "unk")

    # fingerprint: md5 over the canonical normalized text (' '-joined tokens)
    bounds = np.concatenate([[0], np.cumsum(n_tokens)]).astype(np.int64)
    fps = [
        hashlib.md5(" ".join(toks_np[bounds[i] : bounds[i + 1]]).encode()).hexdigest()
        for i in range(n)
    ]

    return pa.table(
        {
            id_col: batch[id_col],
            "n_tokens": pa.array(n_tokens.astype(np.int64), type=pa.int64()),
            "n_unique": pa.array(n_unique.astype(np.int64), type=pa.int64()),
            "stopword_ratio": pa.array(np.floor(stop_ratio * 1e6 + 0.5) / 1e6, type=pa.float64()),
            "lang_id": pa.array(lang.tolist(), type=pa.string()),
            "quality_score": pa.array(quality, type=pa.float64()),
            "fingerprint": pa.array(fps, type=pa.string()),
        }
    )


def text_features_ds(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(text_features, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# token counting (whitespace + BPE-ish regex) + rolling-hash fingerprint
# ---------------------------------------------------------------------------

# BPE-ish pre-tokenizer: letter runs, digit runs, single punctuation marks —
# the coarse shape of GPT-2's pre-split, frozen so RE2 (Arrow, DuckDB) and
# Python re agree on it exactly
BPE_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

# whitespace-token pattern as an EXPLICIT class: Python's \S is Unicode-aware
# while RE2's (Arrow, DuckDB) is ASCII-only, so \S+ counts/tokenizes
# differently on \x0b/\x85/\xa0/U+2000-range text. The explicit class below is
# RE2's exact \s complement and means the same thing to every engine involved.
WS_TOKEN_PATTERN = "[^ \t\n\r\f\v]+"

_ROLL_MOD = (1 << 31) - 1
_ROLL_BASE = 1000003


def gopher_quality_filter(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Gopher-style quality FILTER decision (Rae et al. 2021 §A1.1, the
    rule shapes without the language-model bits): per doc
      n_words          token count
      mean_word_len    total token chars / n_words (round-half-up, 6dp)
      stop_count       hits in STOPWORDS_SMALL
      keep             1 iff 10 <= n_words <= 100000
                         AND 3.0 <= mean_word_len <= 12.0   (on the 6dp value)
                         AND stop_count >= 2
    All comparisons run on the ROUNDED mean so a SQL oracle decides
    identically at the thresholds. Vectorized: one tokenize pass, Arrow
    utf8_length for the char counts; pure map stage (filtering composes as
    a downstream ``ds.filter`` on ``keep``)."""
    import pyarrow.compute as pc

    n = batch.num_rows
    tokens, doc_index, n_tokens = tokenize_column(batch[text_col])
    lens = pc.utf8_length(tokens).to_numpy(zero_copy_only=False).astype(np.int64)
    chars = np.zeros(n, dtype=np.int64)
    np.add.at(chars, doc_index, lens)
    toks_np = np.asarray(tokens.to_pylist(), dtype=object)
    is_stop = np.isin(toks_np, np.array(STOPWORDS_SMALL, dtype=object))
    stop_count = np.zeros(n, dtype=np.int64)
    np.add.at(stop_count, doc_index, is_stop.astype(np.int64))
    nw = n_tokens.astype(np.int64)
    mean_len = np.floor(
        chars.astype(np.float64) / np.maximum(nw, 1).astype(np.float64) * 1e6 + 0.5
    ) / 1e6
    keep = (
        (nw >= 10) & (nw <= 100_000)
        & (mean_len >= 3.0) & (mean_len <= 12.0)
        & (stop_count >= 2)
    ).astype(np.int64)
    return pa.table(
        {
            id_col: batch[id_col],
            "n_words": pa.array(nw, type=pa.int64()),
            "mean_word_len": pa.array(mean_len, type=pa.float64()),
            "stop_count": pa.array(stop_count, type=pa.int64()),
            "keep": pa.array(keep, type=pa.int64()),
        }
    )


def gopher_quality_filter_ds(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(gopher_quality_filter, batch_format="pyarrow",
                          zero_copy_batch=True)


def _rolling_fp(tokens: list[str]) -> int:
    """Polynomial rolling hash over whitespace tokens; per-token value
    (codepoint(first char) * 131 + char length) is chosen to be expressible
    in SQL (``ascii(x)*131 + len(x)``) so the oracle computes bit-identical
    fingerprints."""
    acc = 0
    for t in tokens:
        acc = (acc * _ROLL_BASE + (ord(t[0]) * 131 + len(t))) % _ROLL_MOD
    return acc


def token_stats(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-doc whitespace / BPE-ish token counts + rolling-hash fingerprint.

    Counts are fully vectorized (Arrow RE2 kernels over the zero-copy batch);
    only the fingerprint walks tokens in Python (it is inherently sequential
    per doc, and docs are short)."""
    import pyarrow.compute as pc
    import re

    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    txt = pc.fill_null(txt, "")
    n_ws = pc.count_substring_regex(txt, pattern=WS_TOKEN_PATTERN).to_numpy(zero_copy_only=False)
    n_bpe = pc.count_substring_regex(txt, pattern=BPE_PATTERN).to_numpy(zero_copy_only=False)
    ws_re = re.compile(WS_TOKEN_PATTERN)
    fps = [_rolling_fp(ws_re.findall(t)) for t in txt.to_pylist()]
    return pa.table(
        {
            id_col: batch[id_col],
            "n_ws_tokens": pa.array(n_ws.astype(np.int64), type=pa.int64()),
            "n_bpe_tokens": pa.array(n_bpe.astype(np.int64), type=pa.int64()),
            "rolling_fp": pa.array(fps, type=pa.int64()),
        }
    )


def token_stats_ds(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(token_stats, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# sequence packing (LLM pretraining batch construction)
# ---------------------------------------------------------------------------


def _bucket_token_counts(batch: pa.Table, bucket_docs: int, id_col: str,
                         text_col: str) -> pa.Table:
    """Phase-1 partial: per doc_id-range bucket, the token-count sum for the
    batch's rows — only (bucket, partial_sum) rows leave each task."""
    ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    _, _, dl = tokenize_column(batch[text_col])
    bucket = (ids // bucket_docs).astype(np.int64)
    uniq, inv = np.unique(bucket, return_inverse=True)
    sums = np.bincount(inv, weights=dl.astype(np.float64)).astype(np.int64)
    return pa.table({
        "bucket": pa.array(uniq, type=pa.int64()),
        "s": pa.array(sums, type=pa.int64()),
    })


def pack_sequences(
    ds: ray.data.Dataset,
    budget: int = 2048,
    bucket_docs: int = 1 << 16,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Sequence packing for LLM pretraining: assign every document to a
    fixed-token-budget pack, in global doc_id order — pack_id =
    (exclusive-prefix-sum of token counts) // budget, i.e. each doc starts
    at its running token offset and packs hold ``budget`` tokens of
    contiguous docs (the "concat-and-chunk" packing used to build
    pretraining batches).

    A global ordered prefix sum is the textbook two-phase scan, kept
    distributed:

    1. phase 1 (map-side combine): per doc_id-range bucket partial token
       sums — (n_buckets x read-tasks) rows reduce driver-side into
       exclusive per-bucket offsets (driver-small: one int per 64k docs).
    2. phase 2: ``groupby(bucket).map_groups`` sorts each bucket by doc_id,
       adds its broadcast offset to the within-bucket exclusive cumsum, and
       emits (doc_id, n_tokens, pack_id). The shuffle moves (doc_id,
       n_tokens) pairs only — never the text.

    Returns a Dataset of (doc_id, n_tokens, pack_id).
    """
    import pandas as pd
    import ray

    partials = (
        ds.map_batches(
            _bucket_token_counts,
            fn_args=(bucket_docs, id_col, text_col),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .to_pandas()
    )
    if partials.empty:
        return ray.data.from_pandas(pd.DataFrame({
            id_col: pd.Series(dtype=np.int64),
            "n_tokens": pd.Series(dtype=np.int64),
            "pack_id": pd.Series(dtype=np.int64),
        }))
    bsum = partials.groupby("bucket", sort=True)["s"].sum()
    offsets = {int(b): int(o) for b, o in
               zip(bsum.index, bsum.cumsum().shift(fill_value=0))}
    off_ref = ray.put(offsets)

    def _assign(group: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = group.sort_values(id_col)
        from remote_vector_index_builder_ray.functions.tokenizer import (
            tokenize_column as _tc,
        )

        dl = _tc(pa.array(g[text_col].fillna("")))[2].astype(np.int64)
        start = int(off[int(g["bucket"].iloc[0])]) + np.concatenate(
            [[0], np.cumsum(dl)[:-1]]
        )
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(np.int64),
            "n_tokens": dl,
            "pack_id": (start // budget).astype(np.int64),
        })

    with_bucket = ds.map_batches(
        lambda b: b.append_column(
            "bucket",
            pa.array(
                b[id_col].combine_chunks().to_numpy(zero_copy_only=False)
                // bucket_docs, type=pa.int64())),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return with_bucket.groupby("bucket").map_groups(_assign, batch_format="pandas")


# ---------------------------------------------------------------------------
# deterministic dataset split (train / val / test)
# ---------------------------------------------------------------------------


def dataset_split(
    batch: pa.Table,
    id_col: str = "doc_id",
    cuts: tuple = (80, 90),
) -> pa.Table:
    """Deterministic train/val/test assignment: bucket = the first 8 hex
    chars of md5(str(doc_id)) as an integer, mod 100; bucket < cuts[0] →
    'train', < cuts[1] → 'val', else 'test'. Hashing the ID (not row
    position) keeps the split stable under repartitioning, appends and
    re-runs — the property a training pipeline needs. A pure map (no
    shuffle); md5-per-row matches the engine's established fingerprint
    policy and the SQL twin computes the identical bucket."""
    import hashlib

    ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    buckets = np.fromiter(
        (int(hashlib.md5(str(int(i)).encode()).hexdigest()[:8], 16) % 100
         for i in ids),
        dtype=np.int64, count=len(ids),
    )
    split = np.where(buckets < cuts[0], "train",
                     np.where(buckets < cuts[1], "val", "test"))
    return pa.table({
        id_col: pa.array(ids, type=pa.int64()),
        "bucket": pa.array(buckets, type=pa.int64()),
        "split": pa.array(split.tolist(), type=pa.string()),
    })


def dataset_split_ds(ds: ray.data.Dataset, id_col: str = "doc_id",
                     cuts: tuple = (80, 90)) -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: dataset_split(b, id_col=id_col, cuts=cuts),
        batch_format="pyarrow", zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# repetition stats (Gopher-style quality rule: duplicate n-gram ratio)
# ---------------------------------------------------------------------------


def repetition_stats(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id", n: int = 3) -> pa.Table:
    """Per-doc duplicate n-gram ratio (the Gopher repetition filters'
    duplicate-3-gram rule): (doc_id, n_ngrams, n_distinct, dup_ratio) with
    dup_ratio = round6(1 - n_distinct / n_ngrams), 0 for docs shorter than
    n tokens. Vectorized: one tokenize pass, tokens dictionary-encoded to
    int codes, n-gram keys = base-V positional packing over the flat code
    array (cross-doc windows masked out), per-doc distinct via one
    np.unique over (doc, key) pairs — no Python loop over rows."""
    ids = batch[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    tokens, doc_index, dl = tokenize_column(batch[text_col])
    total = np.maximum(dl.astype(np.int64) - (n - 1), 0)
    n_distinct = np.zeros(len(ids), dtype=np.int64)
    if len(tokens) and total.sum():
        dicted = tokens.dictionary_encode()
        if isinstance(dicted, pa.ChunkedArray):
            dicted = dicted.combine_chunks()
        codes = dicted.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        V = np.int64(len(dicted.dictionary) + 1)
        m = len(codes) - (n - 1)
        key = codes[:m].copy()
        for j in range(1, n):
            key = key * V + codes[j:m + j]
        same_doc = doc_index[:m] == doc_index[n - 1:len(codes)]
        drow = doc_index[:m][same_doc]
        kk = key[same_doc]
        pairs = np.unique(np.stack([drow, kk], axis=1), axis=0)
        cnt = np.bincount(pairs[:, 0].astype(np.int64), minlength=len(ids))
        n_distinct = cnt.astype(np.int64)
    ratio = np.zeros(len(ids), dtype=np.float64)
    nz = total > 0
    ratio[nz] = 1.0 - n_distinct[nz].astype(np.float64) / total[nz].astype(np.float64)
    ratio = np.floor(ratio * 1e6 + 0.5) / 1e6
    return pa.table({
        id_col: pa.array(ids, type=pa.int64()),
        "n_ngrams": pa.array(total, type=pa.int64()),
        "n_distinct": pa.array(n_distinct, type=pa.int64()),
        "dup_ratio": pa.array(ratio, type=pa.float64()),
    })


def repetition_stats_ds(ds: ray.data.Dataset, n: int = 3) -> ray.data.Dataset:
    return ds.map_batches(lambda b: repetition_stats(b, n=n),
                          batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# unigram LM scoring (CCNet-style perplexity quality filter)
# ---------------------------------------------------------------------------


def _term_count_partials(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: (term, count) partial unigram counts."""
    tokens, _, _ = tokenize_column(batch["text"])
    if len(tokens) == 0:
        return pa.table({"term": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    dicted = tokens.dictionary_encode()
    if isinstance(dicted, pa.ChunkedArray):
        dicted = dicted.combine_chunks()
    codes = dicted.indices.to_numpy(zero_copy_only=False)
    cnt = np.bincount(codes, minlength=len(dicted.dictionary))
    return pa.table({"term": dicted.dictionary,
                     "cnt": pa.array(cnt, type=pa.int64())})


def _lm_score(batch: pa.Table, lm_ref) -> pa.Table:
    """Per-batch scorer: avg token log-probability under the broadcast
    unigram LM — the lookup is one searchsorted over the sorted vocab."""
    import ray

    vocab, lp_all = ray.get(lm_ref)
    ids = batch["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
    tokens, doc_index, dl = tokenize_column(batch["text"])
    sums = np.zeros(len(ids), dtype=np.float64)
    if len(tokens):
        toks_np = tokens.to_numpy(zero_copy_only=False).astype(np.str_)
        pos = np.searchsorted(vocab, toks_np)
        lp = lp_all[pos]  # LM trained on the same corpus: no OOV
        sums = np.bincount(doc_index, weights=lp, minlength=len(ids))
    n = dl.astype(np.float64)
    avg = np.where(n > 0, sums / np.maximum(n, 1), 0.0)
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "n_tokens": pa.array(dl.astype(np.int64), type=pa.int64()),
        "avg_logprob": pa.array(np.floor(avg * 1e6 + 0.5) / 1e6,
                                type=pa.float64()),
    })


def unigram_lm_scores(ds: ray.data.Dataset) -> ray.data.Dataset:
    """CCNet-style quality scoring with a corpus unigram LM: per doc the
    average token log-probability ln(cf(token)/total_tokens) — low scores
    flag gibberish / rare-token-heavy docs, exactly what perplexity filters
    threshold on (here with a unigram LM so the SQL twin is exact).

    Two passes: (1) per-batch (term, count) partials reduce to the corpus
    LM — driver-side here; at 100 TB the same partials feed
    ``groupby('term').sum()`` and the LM table is the index's termstats cf
    column read back — then the (vocab, logprob) arrays broadcast ONCE via
    ``ray.put``; (2) a pure map scores every doc with one vectorized
    searchsorted lookup. No shuffle touches the text."""
    import pandas as pd
    import ray

    partials = (
        ds.map_batches(_term_count_partials, batch_format="pyarrow",
                       zero_copy_batch=True)
        .to_pandas()
    )
    if partials.empty:
        return ray.data.from_pandas(pd.DataFrame({
            "doc_id": pd.Series(dtype=np.int64),
            "n_tokens": pd.Series(dtype=np.int64),
            "avg_logprob": pd.Series(dtype=np.float64),
        }))
    cf = partials.groupby("term", sort=True)["cnt"].sum()
    total = float(cf.sum())
    vocab = cf.index.to_numpy(np.str_)
    lp = np.log(cf.to_numpy(np.float64) / total)
    lm_ref = ray.put((vocab, lp))
    return ds.map_batches(_lm_score, fn_args=(lm_ref,),
                          batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# PII scrubbing (training-data hygiene): regex masking with RE2 semantics
# ---------------------------------------------------------------------------

# RE2-only syntax (no lookaround, no \b needed): Arrow's
# replace_substring_regex / count_substring_regex and DuckDB's
# regexp_replace are ALL RE2, so the masked text is bit-identical across
# the engine and the SQL oracle. Order matters: emails first (their local
# parts contain digit runs), then digit runs over the email-masked text.
PII_EMAIL_PATTERN = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z][A-Za-z]+"
PII_NUMBER_PATTERN = r"[0-9][0-9][0-9][0-9][0-9][0-9][0-9]+"  # 7+ digit runs


def pii_scrub(batch: pa.Table, text_col: str = "text",
              id_col: str = "doc_id") -> pa.Table:
    """Vectorized PII masking over a text column: emails -> <EMAIL>, then
    7+-digit runs (phone/SSN/account-shaped) -> <NUM>; per-doc match counts
    ride along for audit/filter stages. One output row per input row —
    a pure map stage (no shuffle, no state), the canonical pre-training
    text-hygiene transform."""
    import pyarrow.compute as pc

    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    txt = pc.fill_null(txt, "")
    n_email = pc.count_substring_regex(txt, PII_EMAIL_PATTERN)
    masked = pc.replace_substring_regex(txt, PII_EMAIL_PATTERN, "<EMAIL>")
    n_num = pc.count_substring_regex(masked, PII_NUMBER_PATTERN)
    clean = pc.replace_substring_regex(masked, PII_NUMBER_PATTERN, "<NUM>")
    return pa.table({
        id_col: batch[id_col],
        "clean_text": clean,
        "n_emails": pc.cast(n_email, pa.int64()),
        "n_numbers": pc.cast(n_num, pa.int64()),
    })


def pii_scrub_ds(ds: ray.data.Dataset, text_col: str = "text",
                 id_col: str = "doc_id") -> ray.data.Dataset:
    import functools

    return ds.map_batches(
        functools.partial(pii_scrub, text_col=text_col, id_col=id_col),
        batch_format="pyarrow", zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# stratified sampling (training-data source mixing)
# ---------------------------------------------------------------------------


def stratified_sample(
    ds: ray.data.Dataset,
    rates: dict,
    stratum_col: str = "source",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Deterministic per-stratum sampling — the corpus-mixing step of a
    training-data pipeline ("keep 80% of wiki, 25% of web, ..."). A doc is
    kept iff ``(doc_id * 1000003 + 12345) % 100 < rates[stratum] * 100`` —
    content-determined (stable across runs, block layouts and cluster
    sizes; Ray's random_sample is neither) and SQL-transcribable verbatim.
    Strata absent from ``rates`` are DROPPED (explicit mixing contract).
    Pure streaming filter: no shuffle, no state, rates ride the closure."""
    pct = {k: int(round(v * 100)) for k, v in rates.items()}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        strata = batch[stratum_col].combine_chunks().to_numpy(
            zero_copy_only=False)
        bound = np.array([pct.get(s, 0) for s in strata], dtype=np.int64)
        h = (ids * 1000003 + 12345) % 100
        return batch.filter(pa.array(h < bound))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def chunk_documents(
    ds: ray.data.Dataset,
    max_tokens: int = 32,
    stride: int = 24,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Sliding-window document chunking (the RAG / long-context preprocessing
    step): each doc splits into token windows of ``max_tokens`` advancing by
    ``stride`` (overlap = max_tokens - stride). Window starts are
    0, stride, 2*stride, ... while start < n_tokens, EXCEPT that a start is
    emitted only if it is 0 or actually adds tokens (start < n_tokens) — the
    final window may be short. Chunk text re-joins the analyzer's tokens with
    single spaces (token-level chunking, the shape tokenizer-based splitters
    produce). Pure per-batch map — no shuffle, chunk_idx is per-doc.
    Returns a Dataset of (doc_id, chunk_idx, n_tokens, chunk_text)."""
    if stride < 1 or max_tokens < 1:
        raise ValueError("max_tokens and stride must be >= 1")

    def emit(batch: pa.Table) -> pa.Table:
        tokens, _doc_index, n_tokens = tokenize_column(batch[text_col])
        toks = np.asarray(tokens.to_pylist(), dtype=object)
        bounds = np.concatenate([[0], np.cumsum(n_tokens)]).astype(np.int64)
        ids = batch[id_col].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        out_id, out_ci, out_nt, out_tx = [], [], [], []
        for i in range(batch.num_rows):
            n = int(n_tokens[i])
            if n == 0:
                continue
            seg = toks[bounds[i]:bounds[i + 1]]
            ci = 0
            for start in range(0, n, stride):
                piece = seg[start:start + max_tokens]
                out_id.append(int(ids[i]))
                out_ci.append(ci)
                out_nt.append(len(piece))
                out_tx.append(" ".join(piece))
                ci += 1
                if start + max_tokens >= n:
                    break  # this window already reached the end
        return pa.table({
            id_col: pa.array(out_id, type=pa.int64()),
            "chunk_idx": pa.array(out_ci, type=pa.int32()),
            "n_tokens": pa.array(out_nt, type=pa.int32()),
            "chunk_text": pa.array(out_tx, type=pa.string()),
        })

    return ds.map_batches(emit, batch_format="pyarrow", zero_copy_batch=True)


def conversation_stats(
    ds: ray.data.Dataset,
) -> ray.data.Dataset:
    """Per-conversation rollup over the transcript table: turn count, distinct
    roles, tool-call count, total analyzer tokens, and wall-clock span
    (last ts - first ts, seconds). Per-batch partials pre-aggregate by
    conv_id (turns of one conversation are contiguous under the dense
    ordering, and at worst a conversation spans two batches), then ONE
    conv_id groupby reduces — (conv rows) never land on the driver.
    Returns a Dataset of (conv_id, n_turns, n_user_turns, n_tool_calls,
    total_tokens, span_seconds)."""
    from ray.data.aggregate import Max, Min, Sum

    def partials(batch: pa.Table) -> pa.Table:
        import pandas as pd

        _tokens, _doc_index, n_tokens = tokenize_column(batch["text"])
        df = pd.DataFrame({
            "conv_id": batch["conv_id"].combine_chunks().to_numpy(zero_copy_only=False),
            "is_user": batch["role"].combine_chunks().to_numpy(zero_copy_only=False) == "user",
            "has_tool": [
                bool(t) for t in batch["tool"].combine_chunks().to_numpy(zero_copy_only=False)
            ],
            "n_tokens": np.asarray(n_tokens, np.int64),
            "ts_us": batch["ts"].combine_chunks().cast(pa.int64()).to_numpy(
                zero_copy_only=False),
        })
        g = df.groupby("conv_id", sort=False).agg(
            n_turns=("is_user", "size"),
            n_user_turns=("is_user", "sum"),
            n_tool_calls=("has_tool", "sum"),
            total_tokens=("n_tokens", "sum"),
            ts_min=("ts_us", "min"),
            ts_max=("ts_us", "max"),
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_conv = (
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("conv_id")
        .aggregate(Sum("n_turns"), Sum("n_user_turns"), Sum("n_tool_calls"),
                   Sum("total_tokens"), Min("ts_min"), Max("ts_max"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        span = (
            batch["max(ts_max)"].combine_chunks().to_numpy(zero_copy_only=False)
            - batch["min(ts_min)"].combine_chunks().to_numpy(zero_copy_only=False)
        ) / 1_000_000
        return pa.table({
            "conv_id": batch["conv_id"],
            "n_turns": batch["sum(n_turns)"].combine_chunks().cast(pa.int64()),
            "n_user_turns": batch["sum(n_user_turns)"].combine_chunks().cast(pa.int64()),
            "n_tool_calls": batch["sum(n_tool_calls)"].combine_chunks().cast(pa.int64()),
            "total_tokens": batch["sum(total_tokens)"].combine_chunks().cast(pa.int64()),
            "span_seconds": pa.array(span.astype(np.float64), type=pa.float64()),
        })

    return per_conv.map_batches(finalize, batch_format="pyarrow")


def source_mix_weights(
    ds: ray.data.Dataset,
    source_col: str = "source",
    text_col: str = "text",
) -> pd.DataFrame:
    """Pretraining data-mixing weights: per source, document/token totals and
    the per-DOCUMENT sampling weight that makes every source contribute an
    equal TOKEN share (weight = target_tokens_per_source / source_tokens —
    multiply by it when sampling, cap at 1 for no upsampling). One
    map_batches partial pass (per-batch (source, n_docs, n_tokens) rows) +
    one source groupby; the reduce is sources-sized. Weights round half-up
    to 6 decimals (SQL-reproducible). Returns (source, n_docs, n_tokens,
    token_share, weight) sorted by source."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        _toks, _di, n_tokens = tokenize_column(batch[text_col])
        df = pd.DataFrame({
            "source": batch[source_col].combine_chunks().to_numpy(zero_copy_only=False),
            "n_tokens": np.asarray(n_tokens, np.int64),
        })
        g = df.groupby("source", sort=False).agg(
            n_docs=("n_tokens", "size"), n_tokens=("n_tokens", "sum")
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_src = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(Sum("n_docs"), Sum("n_tokens"))
        .to_pandas()
        .rename(columns={"sum(n_docs)": "n_docs", "sum(n_tokens)": "n_tokens"})
    )
    import pandas as pd

    if per_src.empty:
        return pd.DataFrame({"source": pd.Series(dtype=object),
                             "n_docs": pd.Series(dtype=np.int64),
                             "n_tokens": pd.Series(dtype=np.int64),
                             "token_share": pd.Series(dtype=np.float64),
                             "weight": pd.Series(dtype=np.float64)})
    total = float(per_src["n_tokens"].sum())
    n_src = len(per_src)
    per_src["token_share"] = np.floor(
        per_src["n_tokens"].to_numpy(np.float64) / total * 1e6 + 0.5) / 1e6
    per_src["weight"] = np.floor(np.minimum(
        (total / n_src) / per_src["n_tokens"].to_numpy(np.float64), 1.0
    ) * 1e6 + 0.5) / 1e6
    return (per_src.sort_values("source").reset_index(drop=True)
            .astype({"n_docs": np.int64, "n_tokens": np.int64}))
