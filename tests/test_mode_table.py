"""The mode capability table (stages/search.MODES) and its one validator.

Every (mode, column) and (mode, option) pair the table does not list is
rejected on the driver with a ValueError naming it, for every query input
type; an unknown mode is rejected everywhere; a k outside [0, 2**31-1] is
rejected on the driver and k=0 returns no rows in every mode; over the
table's legal option combinations bmw stays bit-identical to the exhaustive
scorer; and every mode's columnar result assembly equals a per-row one."""

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from remote_vector_index_builder_ray import BuildConfig, build_index, search
from remote_vector_index_builder_ray.functions.tokenizer import tokenize_text
from remote_vector_index_builder_ray.stages.search import (
    K_MAX,
    MODES,
    BM25Searcher,
    searcher_defaults,
    validate,
)

_COLUMNS = sorted(set().union(*(r.columns for r in MODES.values())))
_KWARGS = sorted(set().union(*(r.kwargs for r in MODES.values())))

# one plausible value per optional column / a non-default value per option
_COLUMN_VALUES = {
    "terms": ["x"], "weights": [1.0], "groups": [["x"]], "explain_docids": [0],
    "after_score": 1.0, "after_docid": 0, "exclude_text": "x",
    "filter_text": "x", "allow_docids": [0], "negative_text": "x",
    "slice_id": 0, "slice_max": 2, "slop": 1, "span_end": 2,
    "span_exclude": "x", "span_little": "x", "max_gaps": 1,
}
_KWARG_VALUES = {
    "operator": "and", "min_should_match": 2, "tie_breaker": 0.3,
    "collapse_round6": True, "collapse_inner": 2, "negative_boost": 0.3,
    "unit_idf": True, "span_pre": 2, "span_post": 2, "msm_script": "v",
    "similarity": "classic", "stats_override": (10, 100),
    "df_override": {"x": 1},
}

_FORBIDDEN = [(m, c) for m, r in MODES.items() for c in _COLUMNS
              if c not in r.columns] + \
             [(m, k) for m, r in MODES.items() for k in _KWARGS
              if k not in r.kwargs]


def _frame(mode: str, extra=()) -> pd.DataFrame:
    """A one-query frame carrying the mode's required columns plus
    ``extra``."""
    row = MODES[mode]
    cols = {"query_id": [0], "text": ["x"], "k": [10]}
    for c in sorted(set(row.requires & set(_COLUMN_VALUES)) | set(extra)):
        cols[c] = [_COLUMN_VALUES[c]]
    return pd.DataFrame(cols)


def _required_kwargs(mode: str) -> dict:
    return {k: _KWARG_VALUES[k] for k in MODES[mode].requires
            if k in _KWARG_VALUES}


def test_tables_cover_every_name():
    assert set(_COLUMN_VALUES) == set(_COLUMNS)
    assert set(_KWARG_VALUES) == set(_KWARGS)
    defaults = searcher_defaults()
    assert all(_KWARG_VALUES[k] != defaults[k] for k in _KWARGS)


@pytest.mark.parametrize("mode,name", _FORBIDDEN,
                         ids=[f"{m}-{n}" for m, n in _FORBIDDEN])
def test_forbidden_pair_rejected_on_driver(mode, name):
    """The driver rejects the pair before touching the index (the path
    does not exist), naming the offending column or option."""
    kw = _required_kwargs(mode)
    if name in _COLUMN_VALUES:
        q = _frame(mode, [name])
    else:
        q = _frame(mode)
        kw[name] = _KWARG_VALUES[name]
    with pytest.raises(ValueError, match=rf"^{name}\b.* not supported in "
                                         rf"{mode} mode"):
        search("/nonexistent/index", q, mode=mode, **kw)


@pytest.mark.parametrize("mode", ["bmww", "wand", "", "explain "])
def test_unknown_mode_fails_on_driver(smoke_index, smoke_fixture, mode):
    q = pd.read_parquet(smoke_fixture["queries"]).head(2)
    with pytest.raises(ValueError, match="unknown mode"):
        search(smoke_index["index_dir"], q, mode=mode)
    with pytest.raises(ValueError, match="unknown mode"):
        search(smoke_index["index_dir"], smoke_fixture["queries"], mode=mode)
    with pytest.raises(ValueError, match="unknown mode"):
        BM25Searcher(smoke_index["index_dir"], mode)


def test_unserved_mode_is_unknown_to_the_service():
    for mode, row in MODES.items():
        if row.served:
            assert validate(mode, columns=_frame(mode).columns,
                            served=True) is row
        else:
            with pytest.raises(ValueError, match="unknown mode"):
                validate(mode, served=True)


def test_arrow_and_parquet_inputs_checked_on_driver(smoke_index, smoke_fixture,
                                                    tmp_path):
    """pa.Table and parquet-path inputs fail in search() itself, not later
    as an opaque task error when the result is consumed."""
    q = pd.read_parquet(smoke_fixture["queries"]).head(3)
    q["negative_text"] = "the"
    with pytest.raises(ValueError, match="negative_text"):
        search(smoke_index["index_dir"],
               pa.Table.from_pandas(q, preserve_index=False), mode="bmw")
    path = str(tmp_path / "q.parquet")
    q.to_parquet(path)
    with pytest.raises(ValueError, match="negative_text"):
        search(smoke_index["index_dir"], path, mode="bmw")
    # the same input is legal where the table allows it
    res = search(smoke_index["index_dir"], path, mode="exhaustive").to_pandas()
    assert len(res) > 0


def test_searcher_checks_every_batch(smoke_index, smoke_fixture):
    """The searcher's own check: BM25Searcher validates each batch's
    columns against its mode's row."""
    q = pd.read_parquet(smoke_fixture["queries"]).head(2)
    s = BM25Searcher(smoke_index["index_dir"], "dismax")
    assert s(pa.Table.from_pandas(q, preserve_index=False)).num_rows > 0
    bad = q.assign(exclude_text="the")
    with pytest.raises(ValueError, match="exclude_text"):
        s(pa.Table.from_pandas(bad, preserve_index=False))
    with pytest.raises(ValueError, match="operator"):
        BM25Searcher(smoke_index["index_dir"], "dismax", operator="and")


def test_scroll_rejects_dismax(smoke_index, smoke_fixture):
    """dismax does not read search_after cursors, so scroll over it fails
    instead of returning page 1 on every page."""
    from remote_vector_index_builder_ray.pipelines.query import scroll

    q = pd.read_parquet(smoke_fixture["queries"]).head(3)
    with pytest.raises(ValueError, match="after_"):
        scroll(smoke_index["index_dir"], q, page_size=5, n_pages=3,
               mode="dismax")


# -- differential: bmw == exhaustive over the table's legal combinations ----

_OPTIONAL = ("after", "exclude_text", "filter_text", "allow_docids")
_COMBOS = [c for n in range(len(_OPTIONAL) + 1)
           for c in combinations(_OPTIONAL, n)]


def _columns(combo) -> list[str]:
    return [c for name in combo
            for c in (("after_score", "after_docid") if name == "after"
                      else (name,))]


_LEGAL = []
for _combo in _COMBOS:
    try:
        validate("bmw", _columns(_combo))
        validate("exhaustive", _columns(_combo))
    except ValueError:
        continue
    _LEGAL.append(_combo)


def _edge_queries(smoke_fixture, seed: int = 7):
    """Seeded edge cases: empty text, all-absent terms, duplicate terms,
    k=1, k far above any match count, and random common/rare mixes."""
    rng = np.random.default_rng(seed)
    docs = pd.concat(pd.read_parquet(p) for p in smoke_fixture["transcripts"])
    vocab = sorted({t for x in docs["text"].head(500) for t in str(x).lower().split()
                    if t.isalnum()})
    texts = ["", "zz_absent_one qq_absent_two", f"{vocab[3]} {vocab[3]} {vocab[3]}",
             "the the of", "the", vocab[-1]]
    ks = [10, 10, 10, 1, 1_000_000, 5]
    for _ in range(14):
        words = rng.choice(vocab, size=int(rng.integers(1, 5)))
        texts.append(" ".join(["the"] * int(rng.integers(0, 2)) + list(words)))
        ks.append(int(rng.choice([1, 3, 10, 100_000])))
    n = len(texts)
    return pa.table({
        "query_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "k": pa.array(ks, pa.int32()),
    }), vocab, rng


def _with_options(base: pa.Table, combo, vocab, rng, cursor_src) -> pa.Table:
    n = base.num_rows
    t = base
    if "after" in combo:
        # cursors at page edges of the exhaustive ranking, some null
        sc, dc = [], []
        for qid in range(n):
            hits = cursor_src[cursor_src["query_id"] == qid]
            if len(hits) == 0 or qid % 4 == 0:
                sc.append(None)
                dc.append(None)
                continue
            r = int(rng.integers(0, len(hits)))
            sc.append(float(hits["score"].iloc[r]))
            dc.append(int(hits["docid"].iloc[r]))
        t = t.append_column("after_score", pa.array(sc, pa.float64()))
        t = t.append_column("after_docid", pa.array(dc, pa.int64()))
    texts = base["text"].to_pylist()
    if "exclude_text" in combo:
        # none / a random term / one of the query's own terms
        t = t.append_column("exclude_text", pa.array(
            ["", str(rng.choice(vocab)), (texts[i].split() or [""])[-1]][i % 3]
            for i in range(n)))
    if "filter_text" in combo:
        # all-absent / broad (a stopword) / narrow
        t = t.append_column("filter_text", pa.array(
            "zz_absent" if i % 5 == 0
            else f"the {rng.choice(vocab)}" if i % 5 < 3
            else " ".join(rng.choice(vocab, size=3)) for i in range(n)))
    if "allow_docids" in combo:
        lists = []
        for i in range(n):
            if i % 6 == 0:
                lists.append(None)  # unrestricted
            elif i % 6 == 1:
                lists.append([])    # matches nothing
            else:
                lists.append(sorted(rng.choice(2000, size=600, replace=False)
                                    .tolist()))
        t = t.append_column("allow_docids", pa.array(lists, pa.list_(pa.int64())))
    return t


@pytest.mark.parametrize("combo", _LEGAL,
                         ids=["+".join(c) or "plain" for c in _LEGAL])
def test_bmw_equals_exhaustive_over_legal_combinations(smoke_index,
                                                       smoke_fixture, combo):
    base, vocab, rng = _edge_queries(smoke_fixture)
    idx = smoke_index["index_dir"]
    exh, bmw = BM25Searcher(idx, "exhaustive"), BM25Searcher(idx, "bmw")
    cursor_src = exh(base).to_pandas()
    q = _with_options(base, combo, vocab, rng, cursor_src)
    want = exh(q).to_pandas()
    got = bmw(q).to_pandas()
    assert got["query_id"].tolist() == want["query_id"].tolist()
    assert got["rank"].tolist() == want["rank"].tolist()
    np.testing.assert_array_equal(got["docid"].to_numpy(), want["docid"].to_numpy())
    np.testing.assert_array_equal(got["score"].to_numpy(), want["score"].to_numpy())
    assert got["score"].dtype == np.float64


def test_legal_combinations_come_from_the_table():
    # filter_text and allow_docids are mutually exclusive: 16 - 4 subsets
    assert len(_LEGAL) == 12


# -- k range and the columnar result assembly, over every MODES row --------

# the options a row cannot run without, and collapse's inner hits
_MODE_KWARGS = {"terms_set": {"msm_script": "min(v, 2)"},
                "collapse": {"collapse_inner": 2}}
_ONE_TERM = {"span_first", "span_not"}  # single-term inner spans


@pytest.fixture(scope="module")
def pos_index(smoke_fixture, tmp_path_factory):
    """The smoke corpus with positions, so every row can run on it."""
    idx = str(tmp_path_factory.mktemp("pos_modes") / "idx")
    build_index(BuildConfig(input_paths=smoke_fixture["transcripts"],
                            index_dir=idx, num_partitions=2, positions=True,
                            num_buckets=32))
    return idx


@pytest.fixture(scope="module")
def trigrams(smoke_fixture):
    """Distinct adjacent (a, b, c) token triples from the corpus: the query
    "a c" at slop 1 matches as a phrase and as a big span containing b."""
    out = []
    for p in smoke_fixture["transcripts"]:
        for text in pd.read_parquet(p)["text"]:
            tk = tokenize_text(text or "")
            out += [tuple(tk[j:j + 3]) for j in range(0, len(tk) - 2, 5)
                    if len(set(tk[j:j + 3])) == 3]
            if len(out) >= 6:
                return out[:6]
    return out


def _mode_batch(mode: str, grams, k: int) -> pa.Table:
    """One query per (a, b, c) triple with the mode's required columns; a
    None triple is a query with no hits."""
    row = MODES[mode]
    grams = [g or ("zz_absent_one", "zz_absent_two", "zz_absent_three")
             for g in grams]
    n = len(grams)
    cols = {"query_id": pa.array(range(n), pa.int64()),
            "text": pa.array([a if mode in _ONE_TERM else f"{a} {c}"
                              for a, _, c in grams], pa.string()),
            "k": pa.array([k] * n, pa.int32())}
    if "slop" in row.columns:
        cols["slop"] = pa.array([1] * n, pa.int32())
    if "span_end" in row.columns:
        cols["span_end"] = pa.array([1000] * n, pa.int32())
    if "span_exclude" in row.columns:
        cols["span_exclude"] = pa.array([c for _, _, c in grams], pa.string())
    if "span_little" in row.columns:
        cols["span_little"] = pa.array([b for _, b, _ in grams], pa.string())
    if "groups" in row.columns:
        cols["groups"] = pa.array([[[a, b], [c]] for a, b, c in grams],
                                  pa.list_(pa.list_(pa.string())))
    if "explain_docids" in row.columns:
        cols["explain_docids"] = pa.array([list(range(0, 2000, 3))] * n,
                                          pa.list_(pa.int64()))
    return pa.table(cols)


def _per_row(s: BM25Searcher, batch: pa.Table) -> pa.Table:
    """The reference: the per-row assembly the searcher used to do, one
    Python list per column extended query by query."""
    row = MODES[s.mode]
    score = getattr(s, row.scorer)
    ranked = "rank" in row.schema.names
    cols = [[] for _ in row.schema]
    for q in s._parse(batch, row):
        hits = [h.tolist() for h in score(q)]
        n = len(hits[0])
        if ranked:
            hits = [range(1, n + 1), *hits]
        cols[0].extend([q.qid] * n)
        for c, h in zip(cols[1:], hits):
            c.extend(h)
    return pa.Table.from_arrays(
        [pa.array(c, type=f.type) for c, f in zip(cols, row.schema)],
        schema=row.schema)


_BATCH_KS = [(m, 10) for m in MODES] + [("constant", K_MAX),
                                        ("exhaustive", K_MAX)]


@pytest.mark.parametrize("mode,k", _BATCH_KS,
                         ids=[f"{m}-k{k}" for m, k in _BATCH_KS])
def test_columnar_assembly_equals_per_row(pos_index, trigrams, mode, k):
    """``BM25Searcher.__call__`` builds the same table, bit for bit, as the
    per-row loop over the same scorer: on an empty batch, a batch with a
    zero-hit query in the middle, and a batch where no query hits."""
    s = BM25Searcher(pos_index, mode, **_MODE_KWARGS.get(mode, {}))
    schema = MODES[mode].schema
    mixed = trigrams[:3] + [None] + trigrams[3:]
    for grams in ([], mixed, [None, None]):
        batch = _mode_batch(mode, grams, k)
        got, want = s(batch), _per_row(s, batch)
        assert got.schema == schema
        assert got.equals(want), (mode, len(grams))
        if grams is mixed:
            assert got.num_rows > 0, mode
            # the zero-hit query in the middle contributes no row
            assert 3 not in got["query_id"].to_pylist()


def test_columnar_collapse_inner_hits_numbered_conversation_major(pos_index,
                                                                   trigrams):
    """collapse_inner=2 flattens each conversation's best two turns in
    conversation-rank order; rank numbers the flattened rows."""
    s = BM25Searcher(pos_index, "collapse", collapse_inner=2)
    got = s(_mode_batch("collapse", trigrams, 10)).to_pandas()
    assert len(got) > len(trigrams)
    for _, g in got.groupby("query_id"):
        assert g["rank"].tolist() == list(range(1, len(g) + 1))


@pytest.mark.parametrize("mode", list(MODES))
def test_k_range_checked_and_k0_returns_no_rows(pos_index, trigrams, mode):
    """k is an integer in [0, 2**31-1] (null means 10), checked on the
    driver for every mode: a negative k used to count from the end of the
    match set, and bmw raised IndexError at k=0. k=0 returns no rows."""
    q = _mode_batch(mode, trigrams, 0).to_pandas()
    kw = _MODE_KWARGS.get(mode, {})
    out = search(pos_index, q, mode=mode, **kw).to_pandas()
    assert len(out) == 0
    assert BM25Searcher(pos_index, mode, **kw)(
        _mode_batch(mode, trigrams, 0)).num_rows == 0
    for bad in (-1, K_MAX + 1, 2**40, 2.5):
        with pytest.raises(ValueError, match=r"^k must be an integer"):
            search(pos_index, q.assign(k=bad), mode=mode, **kw)
