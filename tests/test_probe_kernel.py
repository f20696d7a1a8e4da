"""The docmeta probe's semi-join kernel (``aggs._pairs``), the match-set
packer (``aggs._pack``) and the probe update functions built on them.

- ``_pairs`` is compared with the per-query ``isin_sorted`` membership it
  replaced, on seeded random match sets sharded at a tiny stride and split
  into several pieces per shard, scored and unscored, on batches with
  expunged holes, repeated docids and spans across a stride boundary.
- The bucket update's coded reduction is compared row for row with a
  per-pair pandas groupby.
- Every probe's per-block partials, reduced, are compared with a per-query
  reference loop written here, on blocks whose ``tool`` and ``ts`` columns
  hold Arrow nulls; the top-k probes run over scored shards split into
  pieces, with per-query k and both cursor shapes.
- No probe may call ``isin_sorted``: a per-query loop coming back would
  show up as calls.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

import remote_vector_index_builder_ray.pipelines.aggs as A
import remote_vector_index_builder_ray.pipelines.incremental as I
import remote_vector_index_builder_ray.pipelines.join as J
import remote_vector_index_builder_ray.pipelines.query as Q
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


def _kernel_pairs(refs: dict, ids: np.ndarray) -> list:
    qids, rows, scores = A._pairs(refs, STRIDE, ids)
    assert qids.dtype == np.int64 and rows.dtype == np.int64
    assert scores is None or len(scores) == 0  # unscored shards
    return sorted(zip(qids.tolist(), rows.tolist()))


@pytest.mark.parametrize("seed", [3, 17, 41])
def test_pairs_matches_per_query_membership(seed):
    matches = _random_matches(seed)
    sm = _pieces(matches, STRIDE, seed)
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
    qids, rows, _ = A._pairs(refs, STRIDE, np.array([4, 1, 4, 4], np.int64))
    assert qids.tolist() == [5, 5, 5]
    assert sorted(rows.tolist()) == [0, 2, 3]


def test_pairs_with_zero_queries_and_an_empty_batch():
    refs, qids = A._shard_match_sets({}, stride=STRIDE)
    assert refs == {} and qids == []
    for ids in (np.arange(50, dtype=np.int64), np.empty(0, dtype=np.int64)):
        q, r, _ = A._pairs(refs, STRIDE, ids)
        assert len(q) == len(r) == 0


def _packed(matches: dict, scores: dict | None, n_actors: int = 2) -> dict:
    """Shard directory as the searcher actors build it: the queries in
    ``n_actors`` contiguous runs, each run packed by ``_pack`` (scored when
    ``scores`` is given), the pieces listed in actor order."""
    n_shards = max(int(a.max()) for a in matches.values() if len(a)) // STRIDE + 1
    refs: dict[int, list] = {}
    for run in np.array_split(np.array(sorted(matches)), n_actors):
        def cat(parts, dtype):
            return np.concatenate([np.empty(0, dtype), *parts])
        q = cat([np.full(len(matches[i]), i) for i in run], np.int64)
        d = cat([matches[i] for i in run], np.int64)
        sc = None if scores is None else cat([scores[i] for i in run], np.float64)
        (_, sids), *pieces = A._pack(q, d, sc, STRIDE, n_shards)
        for sid in sids:
            refs.setdefault(sid, []).append(ray.put(pieces[sid]))
    return refs


@pytest.mark.parametrize("scored", [False, True], ids=["unscored", "scored"])
def test_lookup_table_pairs_match_reference(scored):
    """The lookup-table placement equals per-query membership on batches
    with expunged holes, repeated docids and a span that crosses a stride
    boundary; a scored pair carries its match's score."""
    matches = _random_matches(23)
    rng = np.random.default_rng(23)
    scores = ({q: rng.random(len(a)) for q, a in matches.items()} if scored
              else None)
    refs = _packed(matches, scores)
    live = np.flatnonzero(rng.random(400) < 0.8).astype(np.int64)  # expunged holes
    batches = {
        "expunged_holes": live,
        "holes_unsorted": rng.permutation(live[60:250]),
        "repeated_docids": np.array([STRIDE * 3 - 1, STRIDE * 3, STRIDE * 3, 5, 5, 5,
                                     399, 5], np.int64),
        "crosses_stride": np.arange(STRIDE * 4 - 3, STRIDE * 4 + 3, dtype=np.int64),
    }
    for name, ids in batches.items():
        q, r, s = A._pairs(refs, STRIDE, ids)
        assert sorted(zip(q.tolist(), r.tolist())) == _reference_pairs(matches, ids), name
        if scored:
            want = [scores[a][np.searchsorted(matches[a], ids[b])] for a, b in zip(q, r)]
            np.testing.assert_array_equal(s, want, err_msg=name)
        else:
            assert s is None, name


def test_pack_sorts_counts_and_splits():
    """``_pack`` sorts rows that arrive out of (query, docid) order, counts
    per query, puts None for an empty shard, packs nothing for zero
    shards and rejects a docid beyond its shards."""
    q = np.array([7, 3, 7, 3, 7], np.int64)
    d = np.array([40, 2, 3, 35, 1], np.int64)
    s = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    (counts, sids), *pieces = A._pack(q, d, s, STRIDE, 4)
    assert counts == {3: 2, 7: 3} and sids == [0, 2]
    assert pieces[1] is None and pieces[3] is None
    for got, want in zip(pieces[0], ([3, 7, 7], [2, 1, 3], [1.5, 4.5, 2.5])):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(pieces[2], ([3, 7], [35, 40], [3.5, 0.5])):
        np.testing.assert_array_equal(got, want)
    assert A._pack(q, d, None, STRIDE, 0) == [({3: 2, 7: 3}, [])]
    with pytest.raises(ValueError, match="beyond"):
        A._pack(q, d, None, STRIDE, 2)


CODED_SHAPES = {
    "role_with_none": ("role", None, "doc_len", None),
    "day_with_nat": ("ts", "day", None, None),
    "range_labels": ("doc_len", None, "turn_idx",
                     [(None, 16, "low"), (16, 64), (70, None)]),
}


@pytest.mark.parametrize("shape", sorted(CODED_SHAPES))
def test_coded_probe_agg_matches_per_pair_groupby(probe_setup, shape):
    """The bucket update's one-int64-code reduction equals a pandas
    (query_id, key) groupby over the pairs, row for row: a None role, a
    NaT ts and a value in no range form no bucket."""
    tbl, _, refs, _ = probe_setup
    role = tbl["role"].to_pylist()
    role[::7] = [None] * len(role[::7])
    batch = tbl.set_column(tbl.schema.get_field_index("role"), "role",
                           pa.array(role, pa.string()))
    field, interval, metric, ranges = CODED_SHAPES[shape]
    qids, rows, _ = A._pairs(refs, STRIDE, A._np(batch, "docid"))
    got = A._probe_agg(batch, qids, rows, None, field, interval, metric,
                       ranges).to_pandas()
    key = _ref_key(batch.to_pandas(), field, interval, ranges).to_numpy()[rows]
    m = batch[metric].to_numpy()[rows] if metric else np.zeros(len(rows), np.int64)
    assert pd.isna(key).any()
    g = pd.DataFrame({"query_id": qids, "key": key, "s": m}).groupby(
        ["query_id", "key"], sort=False)["s"]
    want = pd.DataFrame({"n": g.size(), "s": g.sum()}).reset_index()
    if interval == "day":
        got["key"] = _us(got["key"])
        want["key"] = want["key"].astype(np.int64)
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


# -- probe parity -----------------------------------------------------------

N_DOCS = 240
DAY_US = 86_400_000_000


def _docmeta(seed: int) -> pa.Table:
    """A synthetic docid-ordered docmeta table; ``tool`` and ``ts`` hold
    Arrow nulls (and ``tool`` the '' sentinel) on some rows. As in a built
    index, a conversation's turns hold contiguous docids."""
    rng = np.random.default_rng(seed)
    tool = rng.choice(["search", "shell", "", "edit"], size=N_DOCS).astype(object)
    tool[rng.random(N_DOCS) < 0.15] = None
    ts = (rng.integers(0, 70, size=N_DOCS) * DAY_US
          + rng.integers(0, DAY_US, size=N_DOCS)).astype(object)
    ts[rng.random(N_DOCS) < 0.15] = None
    return pa.table({
        "docid": pa.array(np.arange(N_DOCS), pa.int64()),
        "conv_id": pa.array([f"c{i:02d}" for i in np.sort(rng.integers(0, 30, size=N_DOCS))]),
        "role": pa.array(rng.choice(["user", "assistant", "system"], size=N_DOCS)),
        "tool": pa.array(tool.tolist(), pa.string()),
        "ts": pa.array(ts.tolist(), pa.timestamp("us")),
        "doc_len": pa.array(rng.integers(0, 90, size=N_DOCS), pa.int64()),
        "turn_idx": pa.array(rng.integers(0, 12, size=N_DOCS), pa.int64()),
        "text": [" ".join(rng.choice(["alpha", "beta", "gamma"], size=3)) for _ in range(N_DOCS)],
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


def _run(fn, args, refs, blocks) -> pd.DataFrame:
    return pa.concat_tables(
        [A._probe_batch(b, fn, refs, STRIDE, tuple(args)) for b in blocks]).to_pandas()


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
            out[m.to_numpy()] = rng[2] if len(rng) > 2 else A._range_key(lo, hi)
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
    got = _run(A._probe_agg, (field, interval, metric, ranges), refs, blocks)
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
    got = _reduce_by_query(_run(A._probe_stats, ("doc_len",), refs, blocks), {
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
    got = _reduce_by_query(_run(A._probe_missing, ("tool", ""), refs, blocks),
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
    got = _reduce_by_query(_run(A._probe_weighted, ("doc_len", "turn_idx"), refs, blocks),
                           {"svw": ("svw", "sum"), "sw": ("sw", "sum")})
    want = pd.DataFrame([
        (qid, int((sub["doc_len"] * sub["turn_idx"]).sum()), int(sub["turn_idx"].sum()))
        for qid, sub in _per_query(tbl, matches)
    ], columns=["query_id", "svw", "sw"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


@pytest.mark.parametrize("field", ["conv_id", "tool"])
def test_probe_distinct_parity(probe_setup, field):
    tbl, matches, refs, blocks = probe_setup
    got = _run(A._probe_distinct, (field,), refs, blocks)
    got = got.groupby("query_id")["value"].nunique().rename("n").reset_index()
    want = pd.DataFrame([(qid, sub[field].nunique()) for qid, sub in _per_query(tbl, matches)],
                        columns=["query_id", "n"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


def test_probe_multi_terms_parity(probe_setup):
    tbl, matches, refs, blocks = probe_setup
    got = _run(A._probe_multi_terms, (("role", "tool"), ""), refs, blocks)
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
    got = _run(A._probe_day_key, ("ts", "conv_id"), refs, blocks)
    got = got.dropna().drop_duplicates()
    got["key"] = _us(got["key"])
    want = []
    for qid, sub in _per_query(tbl, matches):
        sub = sub[sub["ts"].notna()]
        day = (_us(sub["ts"]) // DAY_US) * DAY_US
        want.extend({(qid, int(d), k) for d, k in zip(day, sub["conv_id"])})
    want = pd.DataFrame(want, columns=["query_id", "key", "value"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)


# -- the top-k probes -------------------------------------------------------


def _round6(x):
    return np.floor(np.asarray(x, dtype=np.float64) * 1e6 + 0.5) / 1e6


def _scored_pieces(matches: dict, seed: int):
    """Scored shard directory packed by ``_pack_table`` from two scorer
    blocks whose rows arrive shuffled, so the packer sorts them and a shard
    arrives in two pieces; plus each query's scores as {qid: Series(score,
    index=docid)}. Scores tie often after the 6-decimal rounding and never
    before it."""
    rng = np.random.default_rng(seed)
    halves, scores = [[], []], {}
    for qid, arr in matches.items():
        s = (rng.integers(0, 6, size=len(arr)) / 4.0 + rng.integers(0, 3, size=len(arr)) * 1e-3
             + rng.random(len(arr)) * 3e-7)
        scores[qid] = pd.Series(s, index=arr)
        pick = rng.random(len(arr)) < 0.5
        for h, sel in zip(halves, (pick, ~pick)):
            h.append(pd.DataFrame({"query_id": np.full(int(sel.sum()), qid, np.int64),
                                   "docid": arr[sel], "score": s[sel]}))
    refs: dict[int, list] = {}
    n_shards = max(int(a.max()) for a in matches.values() if len(a)) // STRIDE + 1
    for h in halves:
        block = pa.Table.from_pandas(pd.concat(h).sample(frac=1, random_state=seed),
                                     preserve_index=False)
        (_, sids), *pieces = A._pack_table(block, STRIDE, n_shards, scored=True)
        for sid in sids:
            refs.setdefault(sid, []).append(ray.put(pieces[sid]))
    return refs, scores


@pytest.fixture(scope="module")
def topk_setup(probe_setup):
    tbl, matches, refs, blocks = probe_setup
    scored_refs, scores = _scored_pieces(matches, 4)
    qids = sorted(matches)
    queries = pd.DataFrame({"query_id": np.array(qids, np.int64), "text": "x",
                            "k": np.array([3, 1, 5, 2, 8, 4][:len(qids)], np.int32)})
    return tbl, matches, refs, scored_refs, scores, blocks, queries


@pytest.fixture
def local_probes(topk_setup, monkeypatch):
    """Route every agg entry's probe run through the blocks above: the
    match-set search is replaced by the fixture's shards, the probe and the
    driver-side reduce are the engine's own."""
    tbl, matches, refs, scored_refs, scores, blocks, queries = topk_setup

    def partials(index_dir, queries, where, fn, params, columns, scored=False,
                 shard_refs=None):
        return _run(fn, params, scored_refs if scored else refs, blocks)

    class _Stream:
        def __init__(self, fn, params):
            self.fn, self.params = fn, params

        def to_pandas(self):
            return _run(self.fn, self.params, scored_refs, blocks)

    monkeypatch.setattr(A, "_probe_partials", partials)
    monkeypatch.setattr(I, "docmeta_files", lambda index_dir: [])
    monkeypatch.setattr(J, "_sharded_matches", lambda *a, **k: (
        scored_refs, sorted(matches), {q: len(a) for q, a in matches.items() if len(a)}))
    monkeypatch.setattr(J, "_probe_ds", lambda index_dir, columns, fn, shard_refs,
                        params=(): _Stream(fn, params))
    return topk_setup


def _scored_per_query(tbl, matches, scores):
    for qid, sub in _per_query(tbl, matches):
        s = scores[qid][sub["docid"]].to_numpy()
        yield qid, sub.assign(score=s, sr=_round6(s))


def _by_score(sub: pd.DataFrame) -> pd.DataFrame:
    return sub.sort_values(["sr", "docid"], ascending=[False, True])


def _same(got: pd.DataFrame, want: pd.DataFrame, keys: list):
    assert len(want) > 0
    got = got[list(want.columns)].sort_values(keys).reset_index(drop=True)
    want = want.sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


@pytest.mark.parametrize("field,size", [("role", 2), ("tool", 3)])
def test_top_hits_parity(local_probes, field, size):
    tbl, matches, _, _, scores, _, queries = local_probes
    want = []
    for qid, sub in _scored_per_query(tbl, matches, scores):
        for key, g in sub[sub[field].notna()].groupby(field):
            for rank, r in enumerate(_by_score(g).head(size).itertuples(), 1):
                want.append((qid, key, rank, r.docid, r.sr))
    want = pd.DataFrame(want, columns=["query_id", "key", "rank", "docid", "score"])
    _same(A.top_hits_agg("idx", queries, field=field, size=size), want,
          ["query_id", "key", "rank"])


@pytest.mark.parametrize("sort_field", ["ts", "doc_len"])
def test_top_metrics_parity(local_probes, sort_field):
    tbl, matches, _, _, _, _, queries = local_probes
    want = []
    for qid, sub in _per_query(tbl, matches):
        v = sub[sort_field]
        v = _us(v) if sort_field == "ts" else v.to_numpy(np.int64)
        # a null ts is the int64 minimum: last under the descending sort
        top = sorted(zip(-v, sub["docid"], v, sub["doc_len"]),
                     key=lambda t: (t[2] == np.iinfo(np.int64).min, t[0], t[1]))[:3]
        want += [(qid, rank, d, sv, m) for rank, (_, d, sv, m) in enumerate(top, 1)]
    want = pd.DataFrame(want, columns=["query_id", "rank", "docid", sort_field, "doc_len"])
    got = A.top_metrics_agg("idx", queries, sort_field=sort_field,
                            metric_field="doc_len", size=3)
    if sort_field == "ts":
        got["ts"] = _us(got["ts"])
    _same(got, want, ["query_id", "rank"])


@pytest.mark.parametrize("field", ["role", "tool"])
def test_diversified_sampler_parity(local_probes, field):
    tbl, matches, _, _, scores, _, queries = local_probes
    want = []
    for qid, sub in _scored_per_query(tbl, matches, scores):
        sub = sub[sub[field].notna()]
        capped = pd.concat([_by_score(g).head(2) for _, g in sub.groupby(field)])
        for rank, r in enumerate(_by_score(capped).head(7).itertuples(), 1):
            want.append((qid, rank, r.docid, getattr(r, field), r.sr))
    want = pd.DataFrame(want, columns=["query_id", "rank", "docid", "key", "score"])
    _same(A.diversified_sampler_agg("idx", queries, field=field, shard_size=7,
                                    max_docs_per_value=2),
          want, ["query_id", "rank"])


@pytest.mark.parametrize("field", ["role", "tool"])
def test_sampler_parity(local_probes, field):
    tbl, matches, _, _, scores, _, queries = local_probes
    want = []
    for qid, sub in _scored_per_query(tbl, matches, scores):
        sample = _by_score(sub).head(6)
        for key, n in sample[field].value_counts().items():
            want.append((qid, key, n))
    want = pd.DataFrame(want, columns=["query_id", "key", "doc_count"])
    _same(A.sampler_terms_agg("idx", queries, field=field, shard_size=6), want,
          ["query_id", "key"])


def _page_key(values, asc: bool):
    """The reference page order of one sort key: nulls last, else the value
    ascending or descending (datetimes as epoch-us, a descending string by
    its negated rank)."""
    v = _us(values) if values.dtype.kind == "M" else values.to_numpy()
    if not asc and v.dtype == object:
        v, asc = -values.rank(method="dense").to_numpy(), True
    null = pd.isna(values).to_numpy()
    return [(1, 0) if n else (0, x if asc else -x) for x, n in zip(v, null)]


def _page(sub: pd.DataFrame, sort: list) -> list:
    keys = [_page_key(sub[f], a) for f, a in sort]
    return sorted(zip(*keys, sub["docid"], range(len(sub))))


SORTED_CASES = {
    "ts_desc": ("ts", False, None),
    "ts_asc": ("ts", True, None),
    "doc_len_desc": ("doc_len", False, None),
    "role_asc": ("role", True, None),
    "tuple_cursor": ("doc_len", True, (40, 100)),
    "tuple_cursor_ts": ("ts", False, (np.datetime64(30 * DAY_US, "us"), 120)),
    # cursors past every value: the next page holds the null rows only
    "tuple_cursor_ts_nulls_asc": ("ts", True, (np.datetime64(80 * DAY_US, "us"), 0)),
    "tuple_cursor_ts_nulls_desc": ("ts", False, (np.datetime64(-1, "us"), 0)),
    "dict_cursor_ts": ("ts", False, "page1"),
    "dict_cursor_ts_asc": ("ts", True, "page1"),
    "dict_cursor_doc_len": ("doc_len", False, "page1"),
    "dict_cursor_tool": ("tool", True, "page1"),
}


@pytest.mark.parametrize("case", sorted(SORTED_CASES))
def test_search_sorted_parity(local_probes, case):
    tbl, matches, _, _, _, _, queries = local_probes
    field, asc, after = SORTED_CASES[case]
    k = dict(zip(queries["query_id"], queries["k"]))
    if after == "page1":
        # per-query cursors from page 1, one query without a cursor, and
        # one cursor on a null value
        p1 = Q.search_sorted("idx", queries, sort_field=field, ascending=asc)
        last = p1.groupby("query_id").tail(1)
        after = {int(r.query_id): (getattr(r, field), int(r.docid))
                 for r in last.itertuples(index=False)}
        after.pop(min(after))
        if field != "doc_len":
            after[max(after)] = (None, 100)
    want = []
    for qid, sub in _per_query(tbl, matches):
        sub = sub.reset_index(drop=True)
        rows = _page(sub, [(field, asc)])
        cur = after.get(qid) if isinstance(after, dict) else after
        if cur is not None:
            ck = _page(pd.DataFrame({field: pd.Series([cur[0]]).astype(sub[field].dtype),
                                     "docid": [cur[1]]}), [(field, asc)])[0][:-1]
            rows = [r for r in rows if r[:-1] > ck]
        for rank, r in enumerate(rows[:k[qid]], 1):
            want.append((qid, rank, sub["docid"][r[-1]], sub[field][r[-1]]))
    want = pd.DataFrame(want, columns=["query_id", "rank", "docid", field])
    got = Q.search_sorted("idx", queries, sort_field=field, ascending=asc, after=after)
    if field == "ts":
        got["ts"], want["ts"] = _us(got["ts"]), _us(want["ts"])
    _same(got, want, ["query_id", "rank"])


@pytest.mark.parametrize("sort", [(("role", True), ("ts", False)),
                                  (("tool", True), ("doc_len", False)),
                                  (("ts", False), ("turn_idx", False), ("role", True)),
                                  (("role", False), ("tool", False))])
def test_search_sorted_multi_parity(local_probes, sort):
    tbl, matches, _, _, _, _, queries = local_probes
    k = dict(zip(queries["query_id"], queries["k"]))
    fields = [f for f, _ in sort]
    want = []
    for qid, sub in _per_query(tbl, matches):
        sub = sub.reset_index(drop=True)
        for rank, r in enumerate(_page(sub, list(sort))[:k[qid]], 1):
            want.append((qid, rank, sub["docid"][r[-1]], *(sub[f][r[-1]] for f in fields)))
    want = pd.DataFrame(want, columns=["query_id", "rank", "docid", *fields])
    got = Q.search_sorted_multi("idx", queries, sort=sort)
    if "ts" in fields:
        got["ts"], want["ts"] = _us(got["ts"]), _us(want["ts"])
    _same(got, want, ["query_id", "rank"])


FUNC_CASES = {
    "log1p": ("doc_len", "log1p", {}),
    "random_score": ("docid", "random_score", {"seed": 7}),
    "distance_feature": ("ts", "distance_feature",
                         {"origin": 20.0 * DAY_US, "pivot": float(DAY_US), "boost": 1.5}),
    "script": ("doc_len", "script", {"expr": "_score * (1.0 + v / 256.0)"}),
}


@pytest.mark.parametrize("case", sorted(FUNC_CASES))
def test_function_score_parity(local_probes, case):
    tbl, matches, _, _, scores, _, queries = local_probes
    field, modifier, params = FUNC_CASES[case]
    k = dict(zip(queries["query_id"], queries["k"]))
    want = []
    for qid, sub in _scored_per_query(tbl, matches, scores):
        v = _us(sub["ts"]) if field == "ts" else sub[field].to_numpy(np.int64)
        sub = sub.assign(sr=_round6(Q._func_score(sub["score"].to_numpy(), v,
                                                  modifier, params)))
        for rank, r in enumerate(_by_score(sub).head(k[qid]).itertuples(), 1):
            want.append((qid, rank, r.docid, r.sr))
    want = pd.DataFrame(want, columns=["query_id", "rank", "docid", "score"])
    _same(Q.function_score("idx", queries, field=field, modifier=modifier,
                           params=params), want, ["query_id", "rank"])


def _child_reference(tbl, matches, scores):
    """Per (query, conv): matching turns and their 6-rounded scores summed
    one by one in docid order."""
    out = {}
    for qid, sub in _scored_per_query(tbl, matches, scores):
        for conv, g in sub.sort_values("docid").groupby("conv_id"):
            total = 0.0
            for x in g["sr"]:
                total += x
            out[(qid, conv)] = (len(g), g["sr"].max(), g["sr"].min(), total)
    return out


def test_has_child_partials_sum_in_docid_order(topk_setup):
    tbl, matches, _, scored_refs, scores, _, _ = topk_setup
    # blocks cut on conversation boundaries: each (query, conv) partial is
    # the whole conversation
    conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
    cuts = [0, *np.flatnonzero(conv[1:] != conv[:-1])[[8, 19]] + 1, tbl.num_rows]
    blocks = [tbl.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
    got = _run(J._probe_child_agg, (), scored_refs, blocks)
    assert not got.duplicated(["query_id", "conv_id"]).any()
    want = _child_reference(tbl, matches, scores)
    assert {(q, c) for q, c in zip(got["query_id"], got["conv_id"])} == set(want)
    for r in got.itertuples(index=False):
        assert (r.n, r.smax, r.smin, r.ssum) == want[(r.query_id, r.conv_id)]


@pytest.mark.parametrize("score_mode", ["max", "sum", "avg", "min", "none"])
@pytest.mark.parametrize("min_children", [1, 3])
def test_has_child_parity(local_probes, score_mode, min_children):
    tbl, matches, _, _, scores, _, queries = local_probes
    ref = _child_reference(tbl, matches, scores)
    score = {"max": lambda n, mx, mn, s: mx, "sum": lambda n, mx, mn, s: _round6(s),
             "avg": lambda n, mx, mn, s: _round6(s / n), "min": lambda n, mx, mn, s: mn,
             "none": lambda n, mx, mn, s: 1.0}[score_mode]
    rows = sorted(((q, -float(score(*v)), c, v[0]) for (q, c), v in ref.items()
                   if v[0] >= min_children))
    want, rank, last = [], 0, None
    for q, neg, c, n in rows:
        rank = rank + 1 if q == last else 1
        last = q
        if rank <= 4:
            want.append((q, rank, c, -neg, n))
    want = pd.DataFrame(want, columns=["query_id", "rank", "conv_id", "score", "n_matching"])
    _same(J.has_child("idx", queries, k=4, score_mode=score_mode,
                      min_children=min_children), want, ["query_id", "rank"])


def test_probe_partials_follow_docmeta_file_order(smoke_fixture, tmp_path):
    """On an index with an appended generation, ``_probe_partials`` equals
    each docmeta file's ``_probe_batch`` output concatenated in
    ``docmeta_files`` order, row for row."""
    from remote_vector_index_builder_ray import BuildConfig, append_index, build_index
    from remote_vector_index_builder_ray.state import fs

    full = pd.concat([pd.read_parquet(p) for p in smoke_fixture["transcripts"]])
    convs = sorted(full["conv_id"].unique())
    parts = [str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")]
    full[full["conv_id"] < convs[len(convs) // 2]].to_parquet(parts[0], index=False)
    full[full["conv_id"] >= convs[len(convs) // 2]].to_parquet(parts[1], index=False)
    idx = str(tmp_path / "idx")
    build_index(BuildConfig(input_paths=parts[:1], index_dir=idx, num_partitions=2))
    append_index(idx, parts[1:])
    files = I.docmeta_files(idx)
    assert len(files) >= 2 and "generations" in files[-1]
    q = pd.read_parquet(smoke_fixture["queries"]).head(12)
    for fn, params, columns, scored in (
            (A._probe_agg, ("role", None, "doc_len", None), ["docid", "role", "doc_len"], False),
            (J._probe_child_agg, (), ["docid", "conv_id"], True)):
        refs, _, _ = A._sharded_matches(idx, q, scored=scored)
        got = A._probe_partials(idx, None, None, fn, params, columns, shard_refs=refs)
        want = pa.concat_tables([
            A._probe_batch(fs.read_table(f, columns=columns), fn, refs,
                           A._MATCH_SHARD_STRIDE, params) for f in files]).to_pandas()
        assert len(want) > 0
        pd.testing.assert_frame_equal(got, want, check_exact=True)


# -- regression guard: no per-query membership loop -------------------------

MIGRATED = [
    (A._probe_agg, ("role", None, "doc_len", None)),
    (A._probe_agg, ("ts", "day", None, None)),
    (A._probe_agg, ("doc_len", None, None, [(None, 16), (16, None)])),
    (A._probe_stats, ("doc_len",)),
    (A._probe_missing, ("tool", "")),
    (A._probe_weighted, ("doc_len", "turn_idx")),
    (A._probe_distinct, ("conv_id",)),
    (A._probe_hll, ("conv_id",)),
    (A._probe_multi_terms, (("role", "tool"), "")),
    (A._probe_day_key, ("ts", "conv_id")),
    (A._probe_filters, ({"u": [("role", "=", "user")]}, True, True)),
    (A._probe_t_test, ("doc_len", (("role", "=", "user"),), (("role", "=", "assistant"),))),
    (A._probe_string_stats, ("role",)),
    (A._probe_composite, ("role", "ts")),
    (A._probe_ranks, ("doc_len", [10, 50])),
    (A._probe_matrix, ("doc_len", "turn_idx")),
    (A._probe_scripted, ("doc_len * 2 + turn_idx", ("doc_len", "turn_idx"))),
    (A._probe_sig_terms, (None,)),
    (A._probe_dedup_text, ()),
    (A._probe_top_metrics, ("ts", "doc_len", 2)),
    (A._probe_top_hits, ("role", 2)),
    (A._probe_div_top, ("role", 2)),
    (A._probe_sample_top, ("role", 3)),
    (Q._probe_top_field, ("ts", False, {3: 2, 13: 4}, {13: (np.datetime64(9 * DAY_US, "us"), 5)})),
    (Q._probe_top_multi, ([("role", True), ("ts", False)], {3: 2, 13: 4})),
    (Q._probe_func_score, ("doc_len", "log1p", {}, {3: 2, 13: 4})),
    (J._probe_child_agg, ()),
]


def test_migrated_probes_never_call_isin_sorted(topk_setup, monkeypatch):
    tbl, matches, _, scored_refs, _, _, _ = topk_setup
    calls = []
    real = merge.isin_sorted

    def counting(values, sorted_set):
        calls.append(1)
        return real(values, sorted_set)

    monkeypatch.setattr(merge, "isin_sorted", counting)
    # the guard is live: the per-query reference loop is counted
    _reference_pairs(matches, np.arange(N_DOCS, dtype=np.int64))
    assert len(calls) == len(matches)
    calls.clear()
    assert len({fn for fn, _ in MIGRATED}) == 25
    for fn, args in MIGRATED:
        out = A._probe_batch(tbl, fn, scored_refs, STRIDE, args)
        assert out.num_rows > 0, fn.__name__
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
        out = A._probe_batch(batch, A._probe_sig_terms, refs, STRIDE, (None,)).to_pandas()
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
