"""The docmeta probe's semi-join kernel (``_ShardedMatches.pairs``) and the
bucket/metric probes built on it.

- ``pairs`` is compared with the per-query ``isin_sorted`` membership it
  replaced, on seeded random match sets sharded at a tiny stride and split
  into several pieces per shard.
- Every migrated probe's per-batch partials, reduced, are compared with a
  per-query reference loop written here, on batches whose ``tool`` and
  ``ts`` columns hold Arrow nulls.
- No migrated probe may call ``isin_sorted``: a per-query loop coming back
  would show up as calls.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

import remote_vector_index_builder_ray.pipelines.aggs as A
from remote_vector_index_builder_ray.stages import merge

STRIDE = 16


def _pieces(matches: dict, stride: int, seed: int) -> dict:
    """Shard directory whose shards arrive in several pieces: each query's
    matches are split at random into two halves, each half sharded on its
    own, and the two piece lists concatenated per shard."""
    rng = np.random.default_rng(seed)
    halves = [{}, {}]
    for qid, arr in matches.items():
        pick = rng.random(len(arr)) < 0.5
        halves[0][qid], halves[1][qid] = arr[pick], arr[~pick]
    refs: dict[int, list] = {}
    for h in halves:
        for sid, rs in A._shard_match_sets(h, stride=stride)[0].items():
            refs.setdefault(sid, []).extend(rs)
    return refs


def _random_matches(seed: int, n_docs: int = 400, n_queries: int = 6) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for qid in range(n_queries):
        size = int(rng.integers(0, n_docs // 2))
        out[qid * 10 + 3] = np.sort(rng.choice(n_docs, size=size, replace=False)).astype(np.int64)
    out[999] = np.arange(5000, 5040, dtype=np.int64)  # misses every batch below
    return out


def _reference_pairs(matches: dict, ids: np.ndarray) -> list:
    return sorted(
        (qid, int(r))
        for qid, arr in matches.items()
        for r in np.flatnonzero(merge.isin_sorted(ids, arr))
    )


def _kernel_pairs(sm: A._ShardedMatches, ids: np.ndarray) -> list:
    qids, rows = sm.pairs(ids)
    assert qids.dtype == np.int64 and rows.dtype == np.int64
    return sorted(zip(qids.tolist(), rows.tolist()))


@pytest.mark.parametrize("seed", [3, 17, 41])
def test_pairs_matches_per_query_membership(seed):
    matches = _random_matches(seed)
    sm = A._ShardedMatches(_pieces(matches, STRIDE, seed), STRIDE)
    rng = np.random.default_rng(seed + 1)
    batches = {
        "sorted": np.arange(40, 140, dtype=np.int64),
        "unsorted": rng.permutation(np.arange(100, 260, dtype=np.int64)),
        "straddles_shards": np.arange(STRIDE * 3 - 2, STRIDE * 5 + 2, dtype=np.int64),
        "one_docid": np.array([STRIDE * 2], dtype=np.int64),
        "sparse": np.sort(rng.choice(400, size=37, replace=False)).astype(np.int64),
        "empty": np.empty(0, dtype=np.int64),
        "repeated_docid": np.array([7, 33, 33, 34, 33, 90], dtype=np.int64),
        "beyond_matches": np.arange(3000, 3100, dtype=np.int64),
    }
    for name, ids in batches.items():
        assert _kernel_pairs(sm, ids) == _reference_pairs(matches, ids), name


def test_pairs_counts_a_repeated_docid_once_per_row():
    refs, _ = A._shard_match_sets({5: np.array([2, 4], np.int64)}, stride=STRIDE)
    qids, rows = A._ShardedMatches(refs, STRIDE).pairs(np.array([4, 1, 4, 4], np.int64))
    assert qids.tolist() == [5, 5, 5]
    assert sorted(rows.tolist()) == [0, 2, 3]


def test_pairs_with_zero_queries_and_an_empty_batch():
    refs, qids = A._shard_match_sets({}, stride=STRIDE)
    assert refs == {} and qids == []
    for ids in (np.arange(50, dtype=np.int64), np.empty(0, dtype=np.int64)):
        q, r = A._ShardedMatches(refs, STRIDE).pairs(ids)
        assert len(q) == len(r) == 0


# -- probe parity -----------------------------------------------------------

N_DOCS = 240
DAY_US = 86_400_000_000


def _docmeta(seed: int) -> pa.Table:
    """A synthetic docid-ordered docmeta table; ``tool`` and ``ts`` hold
    Arrow nulls (and ``tool`` the '' sentinel) on some rows."""
    rng = np.random.default_rng(seed)
    tool = rng.choice(["search", "shell", "", "edit"], size=N_DOCS).astype(object)
    tool[rng.random(N_DOCS) < 0.15] = None
    ts = (rng.integers(0, 70, size=N_DOCS) * DAY_US
          + rng.integers(0, DAY_US, size=N_DOCS)).astype(object)
    ts[rng.random(N_DOCS) < 0.15] = None
    return pa.table({
        "docid": pa.array(np.arange(N_DOCS), pa.int64()),
        "conv_id": pa.array([f"c{i}" for i in rng.integers(0, 30, size=N_DOCS)]),
        "role": pa.array(rng.choice(["user", "assistant", "system"], size=N_DOCS)),
        "tool": pa.array(tool.tolist(), pa.string()),
        "ts": pa.array(ts.tolist(), pa.timestamp("us")),
        "doc_len": pa.array(rng.integers(0, 90, size=N_DOCS), pa.int64()),
        "turn_idx": pa.array(rng.integers(0, 12, size=N_DOCS), pa.int64()),
    })


@pytest.fixture(scope="module")
def probe_setup():
    tbl = _docmeta(5)
    matches = _random_matches(9, n_docs=N_DOCS, n_queries=5)
    refs = _pieces(matches, STRIDE, 9)
    # three docmeta blocks; the middle one arrives unsorted
    blocks = [tbl.slice(0, 90), tbl.slice(90, 70), tbl.slice(160)]
    perm = np.random.default_rng(1).permutation(blocks[1].num_rows)
    blocks[1] = blocks[1].take(pa.array(perm))
    return tbl, matches, refs, blocks


def _run(probe_cls, args, refs, blocks) -> pd.DataFrame:
    return pa.concat_tables(
        [probe_cls(refs, STRIDE, *args)(b) for b in blocks]).to_pandas()


def _per_query(tbl: pa.Table, matches: dict):
    """The reference loop: each query's matched docmeta rows, one at a time."""
    df = tbl.to_pandas()
    for qid, arr in matches.items():
        sub = df[np.isin(df["docid"].to_numpy(), arr)]
        if len(sub):
            yield qid, sub


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _us(ts: pd.Series) -> np.ndarray:
    return ts.to_numpy("datetime64[us]").astype(np.int64)


def _ref_key(sub: pd.DataFrame, field: str, interval, ranges) -> pd.Series:
    v = sub[field]
    if interval == "day":
        return pd.Series((_us(v) // DAY_US) * DAY_US, index=v.index).where(v.notna())
    if interval == "7d":
        return pd.Series((_us(v) // (7 * DAY_US)) * 7 * DAY_US, index=v.index).where(v.notna())
    if interval == "month":
        return v.dt.to_period("M").dt.start_time
    if interval == "histogram":
        return v
    if isinstance(interval, tuple):
        iv, off = interval
        return (v - off) // iv * iv + off
    if isinstance(interval, int):
        return v // interval * interval
    if ranges is not None:
        x = pd.Series(_us(v), index=v.index).where(v.notna()) if v.dtype.kind == "M" else v
        out = pd.Series(None, index=v.index, dtype=object)
        for rng in ranges:
            lo, hi = rng[0], rng[1]
            m = pd.Series(True, index=v.index)
            if lo is not None:
                m &= x >= lo
            if hi is not None:
                m &= x < hi
            out[m.to_numpy()] = rng[2] if len(rng) > 2 else A._ProbeAgg._range_key(lo, hi)
        return out
    return v


AGG_SHAPES = {
    "terms": ("role", None, None, None),
    "terms_nullable": ("tool", None, None, None),
    "terms_metric": ("role", None, "doc_len", None),
    "day": ("ts", "day", None, None),
    "month": ("ts", "month", None, None),
    "7d": ("ts", "7d", "doc_len", None),
    "histogram_int": ("doc_len", 8, None, None),
    "histogram_offset": ("doc_len", (10, 3), None, None),
    "value_histogram": ("doc_len", "histogram", None, None),
    "range": ("doc_len", None, "turn_idx", [(None, 16), (16, 64), (64, None)]),
    "date_range": ("ts", None, None, [(None, 20 * DAY_US, "early"),
                                      (20 * DAY_US, 50 * DAY_US, "mid")]),
}


@pytest.mark.parametrize("shape", sorted(AGG_SHAPES))
def test_probe_agg_parity(probe_setup, shape):
    tbl, matches, refs, blocks = probe_setup
    field, interval, metric, ranges = AGG_SHAPES[shape]
    got = _run(A._ProbeAgg, (field, interval, metric, ranges), refs, blocks)
    assert got["key"].notna().all()  # a null key (or no range) is no bucket
    got = got.groupby(["query_id", "key"], sort=False).agg(
        n=("n", "sum"), s=("s", "sum")).reset_index()
    want = []
    for qid, sub in _per_query(tbl, matches):
        key = _ref_key(sub, field, interval, ranges)
        m = sub[metric] if metric else pd.Series(0, index=sub.index)
        for k in key.dropna().unique():
            sel = (key == k).to_numpy()
            want.append((qid, k, int(sel.sum()), int(m[sel].sum())))
    want = pd.DataFrame(want, columns=["query_id", "key", "n", "s"])
    if interval in ("day", "7d", "month"):
        got["key"] = _us(got["key"])
        want["key"] = _us(pd.to_datetime(want["key"])) if interval == "month" \
            else want["key"].astype(np.int64)
    if shape == "terms_nullable":
        assert "" in set(got["key"])  # the '' sentinel is a value, not a null
    assert len(got) > 0
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


def _reduce_by_query(df: pd.DataFrame, how: dict) -> pd.DataFrame:
    return df.groupby("query_id").agg(**how).reset_index()


def test_probe_stats_parity(probe_setup):
    tbl, matches, refs, blocks = probe_setup
    got = _reduce_by_query(_run(A._ProbeStats, ("doc_len",), refs, blocks), {
        "n": ("n", "sum"), "s": ("s", "sum"), "s2": ("s2", "sum"),
        "mn": ("mn", "min"), "mx": ("mx", "max")})
    want = pd.DataFrame([
        (qid, len(v), v.sum(), (v * v).sum(), v.min(), v.max())
        for qid, sub in _per_query(tbl, matches)
        for v in [sub["doc_len"].to_numpy(np.int64)]
    ], columns=["query_id", "n", "s", "s2", "mn", "mx"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


def test_probe_missing_parity(probe_setup):
    tbl, matches, refs, blocks = probe_setup
    got = _reduce_by_query(_run(A._ProbeMissing, ("tool", ""), refs, blocks),
                           {"nv": ("nv", "sum"), "nm": ("nm", "sum")})
    want = pd.DataFrame([
        (qid, int((~miss).sum()), int(miss.sum()))
        for qid, sub in _per_query(tbl, matches)
        for miss in [(sub["tool"].isna() | (sub["tool"] == "")).to_numpy()]
    ], columns=["query_id", "nv", "nm"])
    assert want["nm"].sum() > 0
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


def test_probe_weighted_parity(probe_setup):
    tbl, matches, refs, blocks = probe_setup
    got = _reduce_by_query(_run(A._ProbeWeighted, ("doc_len", "turn_idx"), refs, blocks),
                           {"svw": ("svw", "sum"), "sw": ("sw", "sum")})
    want = pd.DataFrame([
        (qid, int((sub["doc_len"] * sub["turn_idx"]).sum()), int(sub["turn_idx"].sum()))
        for qid, sub in _per_query(tbl, matches)
    ], columns=["query_id", "svw", "sw"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


@pytest.mark.parametrize("field", ["conv_id", "tool"])
def test_probe_distinct_parity(probe_setup, field):
    tbl, matches, refs, blocks = probe_setup
    got = _run(A._ProbeDistinct, (field,), refs, blocks)
    got = got.groupby("query_id")["value"].nunique().rename("n").reset_index()
    want = pd.DataFrame([(qid, sub[field].nunique()) for qid, sub in _per_query(tbl, matches)],
                        columns=["query_id", "n"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


def test_probe_multi_terms_parity(probe_setup):
    tbl, matches, refs, blocks = probe_setup
    got = _run(A._ProbeMultiTerms, (("role", "tool"), ""), refs, blocks)
    got = got.groupby(["query_id", "role", "tool"])["n"].sum().reset_index()
    want = []
    for qid, sub in _per_query(tbl, matches):
        ok = sub[sub["tool"].notna() & (sub["tool"] != "")]
        for (r, t), g in ok.groupby(["role", "tool"]):
            want.append((qid, r, t, len(g)))
    want = pd.DataFrame(want, columns=["query_id", "role", "tool", "n"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


def test_probe_day_key_parity(probe_setup):
    tbl, matches, refs, blocks = probe_setup
    got = _run(A._ProbeDayKey, ("ts", "conv_id"), refs, blocks)
    got = got.dropna().drop_duplicates()
    got["key"] = _us(got["key"])
    want = []
    for qid, sub in _per_query(tbl, matches):
        sub = sub[sub["ts"].notna()]
        day = (_us(sub["ts"]) // DAY_US) * DAY_US
        want.extend({(qid, int(d), k) for d, k in zip(day, sub["conv_id"])})
    want = pd.DataFrame(want, columns=["query_id", "key", "value"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


# -- regression guard: no per-query membership loop -------------------------

MIGRATED = [
    (A._ProbeAgg, ("role", None, "doc_len", None)),
    (A._ProbeAgg, ("ts", "day", None, None)),
    (A._ProbeAgg, ("doc_len", None, None, [(None, 16), (16, None)])),
    (A._ProbeStats, ("doc_len",)),
    (A._ProbeMissing, ("tool", "")),
    (A._ProbeWeighted, ("doc_len", "turn_idx")),
    (A._ProbeDistinct, ("conv_id",)),
    (A._ProbeHLL, ("conv_id",)),
    (A._ProbeMultiTerms, (("role", "tool"), "")),
    (A._ProbeDayKey, ("ts", "conv_id")),
    (A._ProbeFilters, ({"u": [("role", "=", "user")]}, True, True)),
    (A._ProbeTTest, ("doc_len", (("role", "=", "user"),), (("role", "=", "assistant"),))),
    (A._ProbeStringStats, ("role",)),
    (A._ProbeComposite, ("role", "ts")),
    (A._ProbeRanks, ("doc_len", [10, 50])),
    (A._ProbeMatrix, ("doc_len", "turn_idx")),
    (A._ProbeScripted, ("doc_len * 2 + turn_idx", ("doc_len", "turn_idx"))),
]


def test_migrated_probes_never_call_isin_sorted(probe_setup, monkeypatch):
    tbl, matches, refs, _ = probe_setup
    calls = []
    real = merge.isin_sorted

    def counting(values, sorted_set):
        calls.append(1)
        return real(values, sorted_set)

    monkeypatch.setattr(merge, "isin_sorted", counting)
    # the guard is live: a top-k probe still probes query by query
    A._ProbeTopMetrics(refs, STRIDE, "ts", "doc_len", 2)(tbl)
    assert len(calls) >= 2
    calls.clear()
    for probe_cls, args in MIGRATED:
        assert probe_cls(refs, STRIDE, *args)(tbl).num_rows > 0, probe_cls.__name__
    assert calls == []


def test_kernel_fixture_splits_shards_into_pieces():
    """The kernel tests above really exercise multi-piece shards."""
    refs = _pieces({1: np.arange(40, dtype=np.int64)}, STRIDE, 0)
    assert all(isinstance(r, ray.ObjectRef) for rs in refs.values() for r in rs)
    assert max(len(rs) for rs in refs.values()) == 2


def test_sig_terms_slices_sum_to_the_unsliced_counts(probe_setup, monkeypatch):
    """significant_terms expands each (query, row) pair into its row's
    terms in bounded slices; the sliced partials reduce to the same counts."""
    _, matches, refs, _ = probe_setup
    rng = np.random.default_rng(2)
    words = np.array(["alpha", "beta", "gamma", "delta", "eps"])
    text = [" ".join(rng.choice(words, size=int(rng.integers(0, 6)))) for _ in range(N_DOCS)]
    batch = pa.table({"docid": pa.array(np.arange(N_DOCS), pa.int64()), "text": text})

    def counts():
        out = A._ProbeSigTerms(refs, STRIDE, None)(batch).to_pandas()
        return _sorted(out.groupby(["query_id", "term"])["fg"].sum().reset_index())

    whole = counts()
    monkeypatch.setattr(A, "_EXPAND_MAX", 7)
    pd.testing.assert_frame_equal(counts(), whole)
    want = []
    for qid, arr in matches.items():
        for w in words:
            n = sum(w in text[d].split() for d in arr if d < N_DOCS)
            if n:
                want.append((qid, w, n))
    want = pd.DataFrame(want, columns=["query_id", "term", "fg"])
    pd.testing.assert_frame_equal(whole, _sorted(want), check_dtype=False)
